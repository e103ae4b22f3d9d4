// drift-recluster: writes beside reads, with relayout after every epoch.

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "core/advisor.h"
#include "workloads.h"

namespace perfbench {

using snakes::AdvisorService;
using snakes::ClusteringAdvisor;
using snakes::EvaluationRequest;
using snakes::GridQuery;
using snakes::Recommendation;
using snakes::StorageBackendKind;
using snakes::Workload;

namespace {

/// Epochs at the start of a run whose counts must repeat exactly.
constexpr int kExactEpochs = 4;
constexpr int kIngestsPerEpoch = 4096;

/// The deterministic outcome of one epoch.
struct EpochRecord {
  snakes::ReclusterDecision decision =
      snakes::ReclusterDecision::kKeepDriftBelowThreshold;
  uint64_t pages_moved = 0;
  uint64_t evaluations = 0;
  ProbeRecord probe;
  /// Exact expected I/O of the source workload on the published layout.
  snakes::WorkloadIoStats expected;

  bool operator==(const EpochRecord& o) const {
    return decision == o.decision && pages_moved == o.pages_moved &&
           evaluations == o.evaluations && probe == o.probe &&
           SameBits(expected.expected_seeks, o.expected.expected_seeks) &&
           SameBits(expected.expected_normalized_blocks,
                    o.expected.expected_normalized_blocks);
  }
};

/// Latencies of the driver's requests.
struct DriverSample {
  std::vector<double> ingest_us;
  std::vector<double> recluster_us;
  std::vector<double> advise_us;
  // Traced phase only.
  AdviseLayers advise;
  RelayoutLayers relayout;
  double covered_us = 0.0;
  double wall_us = 0.0;
};

/// One tenant under drift plus the driver's direct-library mirror.
class DriftDriver {
 public:
  DriftDriver(TpcdTenant* tenant, uint64_t seed)
      : tenant_(tenant),
        seed_(seed),
        w7_(TpcdWorkload(*tenant->schema, 7)),
        w10_(TpcdWorkload(*tenant->schema, 10)),
        probe7_(SampleQueries(*tenant->schema, w7_, kProbeQueries,
                              SubSeed(seed, 2))),
        probe10_(SampleQueries(*tenant->schema, w10_, kProbeQueries,
                               SubSeed(seed, 3))),
        advisor_(tenant->schema) {
    // The mirror state starts where the tenant's did: advised on workload 7.
    (void)Mirror(w7_);
  }

  const Workload& w7() const { return w7_; }
  const Workload& w10() const { return w10_; }

  /// Epoch `e`: ingest queries drawn from its source workload (10 on even
  /// epochs, 7 on odd ones; registration was under 7), close it, wait for
  /// the recluster, then Advise. Checks the advice against the mirror.
  /// With `probe`, prices the published layout on the source's probe (and
  /// with `reference_check` also against a packed copy of that layout).
  std::optional<EpochRecord> RunEpoch(int e, bool probe, bool reference_check,
                                      SpanLog* log, DriverSample* sample,
                                      RunResult* result);

 private:
  Recommendation Mirror(const Workload& mu) {
    EvaluationRequest request{mu};
    request.num_threads = 1;
    return advisor_.AdviseIncremental(request, &mirror_).ValueOrDie();
  }

  TpcdTenant* tenant_;
  uint64_t seed_;
  Workload w7_;
  Workload w10_;
  std::vector<GridQuery> probe7_;
  std::vector<GridQuery> probe10_;
  ClusteringAdvisor advisor_;
  snakes::IncrementalAdvisorState mirror_;
};

std::optional<EpochRecord> DriftDriver::RunEpoch(int e, bool probe,
                                                 bool reference_check,
                                                 SpanLog* log,
                                                 DriverSample* sample,
                                                 RunResult* result) {
  AdvisorService& service = *tenant_->service;
  const snakes::TenantId id = tenant_->id;
  const bool to10 = e % 2 == 0;
  const auto fail = [&](const std::string& what) {
    std::optional<EpochRecord> none;
    result->Fail("epoch " + std::to_string(e) + ": " + what);
    return none;
  };

  for (const GridQuery& query :
       SampleQueries(*tenant_->schema, to10 ? w10_ : w7_, kIngestsPerEpoch,
                     SubSeed(seed_, 100 + static_cast<uint64_t>(e)))) {
    ++result->attempted;
    const Clock::time_point start = Clock::now();
    const snakes::Status s = service.Ingest(id, query);
    sample->ingest_us.push_back(MicrosBetween(start, Clock::now()));
    if (!s.ok()) return fail("Ingest: " + s.ToString());
  }
  result->attempted += 3;
  const auto closed = service.EndEpoch(id);
  if (!closed.ok()) return fail("EndEpoch: " + closed.status().ToString());

  const uint64_t root = log != nullptr ? log->BeginRequest("drift.epoch") : 0;
  std::shared_ptr<const snakes::TenantEpoch> before;
  if (log != nullptr) {
    log->Time(root, "service.PinEpoch",
              [&] { before = service.PinEpoch(id).value(); });
  }
  snakes::Result<snakes::EpochReport> report =
      snakes::Status::Internal("not reclustered");
  const auto recluster = [&] { report = service.SubmitRecluster(id).get(); };
  double recluster_us = 0.0;
  if (log != nullptr) {
    recluster_us = log->Time(root, "service.SubmitRecluster", recluster);
  } else {
    const Clock::time_point start = Clock::now();
    recluster();
    recluster_us = MicrosBetween(start, Clock::now());
  }
  sample->recluster_us.push_back(recluster_us);
  if (!report.ok()) return fail("recluster: " + report.status().ToString());

  Clock::time_point start = Clock::now();
  const snakes::Result<Recommendation> advice = service.Advise(id);
  sample->advise_us.push_back(MicrosBetween(start, Clock::now()));
  if (!advice.ok()) return fail("Advise: " + advice.status().ToString());

  // The recluster re-advised incrementally on the smoothed workload; the
  // mirror does the same from outside, then packs and prices the proposed
  // layout when the engine did.
  const Workload mu = service.SmoothedWorkload(id).value();
  std::optional<Recommendation> direct;
  double covered_us = 0.0;
  if (log != nullptr) {
    covered_us += log->Time(root, "core.AdviseIncremental",
                            [&] { direct = Mirror(mu); });
    const snakes::EpochReport& r = report.value();
    if (r.movement.total_cells > 0 && r.recommendation.has_value()) {
      TraceRelayoutLayers(log, root, StorageBackendKind::kMicroPartition,
                          before->linearization,
                          r.recommendation->best().linearization,
                          tenant_->facts, &sample->relayout, result);
      covered_us += 1e3 * (sample->relayout.pack_ms.back() +
                           sample->relayout.movement_ms.back());
    }
    sample->covered_us += covered_us;
    sample->wall_us += recluster_us;
    if (sample->advise.dp_ms.size() < 2) {
      TraceAdviseLayers(log, root, tenant_->schema, mu,
                        service.config().obs, &sample->advise, result);
    }
    log->EndRequest();
  } else {
    direct = Mirror(mu);
  }
  ++result->attempted;
  if (!snakes::BitIdenticalRecommendations(advice.value(), *direct)) {
    return fail("Advise differs from AdviseIncremental on the smoothed "
                "workload");
  }

  EpochRecord record;
  record.decision = report.value().decision;
  record.pages_moved = report.value().movement.pages_moved();
  record.evaluations = report.value().cost_evaluations;
  if (probe) {
    std::shared_ptr<const snakes::StorageBackend> packed;
    std::optional<snakes::QueryEngine> reference;
    const auto pinned = service.PinEpoch(id).value();
    record.expected = ExpectedIo(*pinned->backend, to10 ? w10_ : w7_);
    if (reference_check) {
      // Answers from the micro-partition epoch must be bit-identical to a
      // packed backend of the same linearization.
      packed = snakes::MakeStorageBackend(StorageBackendKind::kPacked,
                                          pinned->linearization,
                                          tenant_->facts)
                   .ValueOrDie();
      reference.emplace(*packed);
    }
    record.probe = ServeProbe(service, id, to10 ? probe10_ : probe7_,
                              reference ? &*reference : nullptr, result);
  }
  return record;
}

/// Drives epochs from this thread while kClients - 1 readers query.
struct DriftPhase {
  DriverSample driver;
  ReadSample reads;
  std::vector<EpochRecord> records;
  double elapsed_s = 0.0;
};

DriftPhase RunDriftPhase(TpcdTenant& tenant, DriftDriver& driver,
                         const snakes::StorageBackend& reference, uint64_t seed,
                         double seconds, int* next_epoch, int min_epochs,
                         int exact_epochs, TraceOutput* trace,
                         RunResult* result) {
  DriftPhase phase;
  std::atomic<bool> stop{false};
  SpanLog* reader_log =
      trace != nullptr ? trace->NewLog(kKeptRequests) : nullptr;
  SpanLog* driver_log =
      trace != nullptr ? trace->NewLog(kKeptRequests) : nullptr;
  const Clock::time_point start = Clock::now();
  std::thread reader([&] {
    ReadLoopArgs args;
    args.service = tenant.service.get();
    args.id = tenant.id;
    args.schema = tenant.schema.get();
    args.mix = {driver.w7(), driver.w10()};
    args.seed = seed;
    args.keep_going = [&stop] { return !stop.load(); };
    args.reference = &reference;
    args.log = reader_log;
    ReadLoop(args, &phase.reads);
  });
  for (int done = 0; done < min_epochs || SecondsSince(start) < seconds;
       ++done) {
    const int e = (*next_epoch)++;
    const bool exact = e < exact_epochs;
    auto record = driver.RunEpoch(e, exact, false, driver_log, &phase.driver,
                                  result);
    if (!record.has_value()) break;
    if (exact) phase.records.push_back(*record);
  }
  stop.store(true);
  reader.join();
  phase.elapsed_s = SecondsSince(start);
  return phase;
}

}  // namespace

void RunDriftRecluster(const Options& options, RunResult* result,
                       TraceOutput* trace) {
  const bool traced = trace != nullptr;
  std::vector<double> setup_s;
  std::vector<double> dbgen_ms;
  std::unique_ptr<TpcdTenant> tenant;
  const auto set_up = [&]() -> bool {
    tenant.reset();  // one warehouse in memory at a time
    auto made = SetUpTpcdTenant(options.seed,
                                StorageBackendKind::kMicroPartition,
                                /*window_epochs=*/1, traced);
    if (!made.ok()) {
      ++result->attempted;
      result->Fail("set-up: " + made.status().ToString());
      return false;
    }
    tenant = std::move(made).value();
    return true;
  };
  for (int i = 0; i < kSetups; ++i) {
    if (!set_up()) return;
    setup_s.push_back(tenant->setup_s);
    dbgen_ms.push_back(tenant->dbgen_ms);
  }

  // Count/sum oracle for the reader: answers do not depend on the layout.
  const auto initial = tenant->service->PinEpoch(tenant->id).value();
  const auto reference_backend =
      snakes::MakeStorageBackend(StorageBackendKind::kPacked,
                                 initial->linearization, tenant->facts)
          .ValueOrDie();

  DriftDriver driver(tenant.get(), options.seed);
  int next_epoch = 0;
  const DriftPhase phase = RunDriftPhase(
      *tenant, driver, *reference_backend, SubSeed(options.seed, 4),
      traced ? options.seconds / 2 : options.seconds, &next_epoch,
      kExactEpochs, kExactEpochs, nullptr, result);
  AddFailures(phase.reads, result);

  const auto status = tenant->service->StatusOf(tenant->id).value();
  const double query_p50 = Quantile(phase.reads.query_us, 0.5);
  uint64_t adoptions = 0;
  double pages_moved = 0.0, evaluations = 0.0, seeks = 0.0, norm = 0.0;
  for (const EpochRecord& r : phase.records) {
    seeks += r.expected.expected_seeks;
    norm += r.expected.expected_normalized_blocks;
    adoptions += r.decision == snakes::ReclusterDecision::kAdopt ? 1 : 0;
    pages_moved += static_cast<double>(r.pages_moved);
    evaluations += static_cast<double>(r.evaluations);
  }
  const double n_exact = static_cast<double>(kExactEpochs);
  const double reads_per_s =
      static_cast<double>(phase.reads.query_us.size()) / phase.elapsed_s;

  std::optional<PerLayer> layers;
  if (traced) {
    DriftPhase traced_phase = RunDriftPhase(
        *tenant, driver, *reference_backend, SubSeed(options.seed, 5),
        options.seconds / 2, &next_epoch, 2, 0, trace, result);
    AddFailures(traced_phase.reads, result);
    layers.emplace();
    layers->SetReads(traced_phase.reads.layers);
    layers->SetAdvise(traced_phase.driver.advise);
    if (traced_phase.driver.relayout.movement_ms.empty()) {
      // No epoch of the traced phase priced a move: time the relayout
      // between the two workloads' layouts instead.
      SpanLog* log = trace->NewLog(kKeptRequests);
      const ClusteringAdvisor advisor(tenant->schema);
      const auto best = [&](const Workload& mu) {
        EvaluationRequest request{mu};
        request.num_threads = 1;
        return advisor.Advise(request).ValueOrDie().best().linearization;
      };
      const uint64_t root = log->BeginRequest("layers.relayout");
      TraceRelayoutLayers(log, root, StorageBackendKind::kMicroPartition,
                          best(driver.w7()), best(driver.w10()),
                          tenant->facts, &traced_phase.driver.relayout,
                          result);
      log->EndRequest();
    }
    layers->SetRelayout(traced_phase.driver.relayout);
    layers->pages_moved = pages_moved / n_exact;
    layers->evaluations = evaluations / n_exact;
    layers->adopt_ratio = static_cast<double>(adoptions) / n_exact;
    layers->SetCacheHitRatio(*tenant->metrics);
    layers->dbgen_ms = Quantile(dbgen_ms, 0.5);
    layers->overhead_pct =
        100.0 * (Quantile(traced_phase.reads.query_us, 0.5) / query_p50 - 1.0);
    const ReadLayers& reads = traced_phase.reads.layers;
    layers->coverage_pct =
        100.0 * (reads.covered_us + traced_phase.driver.covered_us) /
        (reads.wall_us + traced_phase.driver.wall_us);
  }

  // Exact-repeat check: a fresh set-up from the same seed replays the first
  // epochs to the same decisions, movement, evaluations and probe I/O, and
  // its micro-partition answers match a packed copy of each layout.
  if (!set_up()) return;
  DriftDriver replay(tenant.get(), options.seed);
  for (int e = 0; e < kExactEpochs; ++e) {
    DriverSample unused;
    const auto record = replay.RunEpoch(e, true, true, nullptr, &unused,
                                        result);
    if (!record.has_value()) break;
    if (static_cast<size_t>(e) >= phase.records.size() ||
        !(*record == phase.records[static_cast<size_t>(e)])) {
      result->Fail("epoch " + std::to_string(e) +
                   " did not repeat exactly on a fresh set-up");
    }
  }
  if (phase.reads.query_us.empty() || phase.driver.recluster_us.empty()) {
    result->Fail("no Query or no recluster completed");
    return;
  }

  if (!traced) {
    result->Add("setup_s", Quantile(setup_s, 0.5), "s");
    result->Add("main_p50_us", query_p50, "us");
    result->Add("main_tail_us", Quantile(phase.reads.query_us, 0.99), "us");
    result->Add("aux_p50_us", Quantile(phase.driver.recluster_us, 0.5), "us");
    result->Add("seeks_per_query", seeks / n_exact, "count");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    layers->Emit(result);
  }
  result->Detail("setup_s", Quantile(setup_s, 0.5), "s");
  result->Detail("query_p50_us", query_p50, "us");
  result->Detail("query_p99_us", Quantile(phase.reads.query_us, 0.99), "us");
  result->Detail("query_samples",
                 static_cast<double>(phase.reads.query_us.size()), "count");
  result->Detail("ingest_p50_us", Quantile(phase.driver.ingest_us, 0.5),
                 "us");
  result->Detail("advise_warm_p50_us", Quantile(phase.driver.advise_us, 0.5),
                 "us");
  result->Detail("recluster_p50_ms",
                 Quantile(phase.driver.recluster_us, 0.5) / 1e3, "ms");
  result->Detail("epochs",
                 static_cast<double>(phase.driver.recluster_us.size()),
                 "count");
  result->Detail("adoptions", static_cast<double>(status.recluster_adoptions),
                 "count");
  result->Detail("read_ops_per_s", reads_per_s, "1/s");
  result->Detail("seeks_per_query", seeks / n_exact, "count");
  result->Detail("norm_blocks", norm / n_exact, "ratio");
  result->Detail("exact_adoptions", static_cast<double>(adoptions), "count");
  result->Detail("exact_pages_moved", pages_moved, "count");
  result->Detail("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
