// serve-tpcd: the steady read path on one packed TPC-D tenant.

#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace perfbench {

using snakes::StorageBackendKind;
using snakes::Workload;

namespace {

// Runs kClients readers for `seconds`; returns their merged sample and sets
// `elapsed_s` to the phase's wall time.
ReadSample ReadPhase(TpcdTenant& tenant, const Workload& mu, double seconds,
                     uint64_t seed, const snakes::StorageBackend* reference,
                     TraceOutput* trace, double* elapsed_s) {
  std::vector<ReadSample> samples(kClients);
  std::vector<SpanLog*> logs(kClients, nullptr);
  if (trace != nullptr) {
    for (SpanLog*& log : logs) log = trace->NewLog(kKeptRequests);
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ReadLoopArgs args;
      args.service = tenant.service.get();
      args.id = tenant.id;
      args.schema = tenant.schema.get();
      args.mix = {mu};
      args.measure_share = 0.2;
      args.seed = SubSeed(seed, static_cast<uint64_t>(c));
      args.keep_going = [deadline] { return Clock::now() < deadline; };
      args.reference = reference;
      args.log = logs[static_cast<size_t>(c)];
      ReadLoop(args, &samples[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& t : clients) t.join();
  *elapsed_s = SecondsSince(start);
  ReadSample merged;
  for (const ReadSample& s : samples) merged.Merge(s);
  return merged;
}

}  // namespace

void RunServeTpcd(const Options& options, RunResult* result,
                  TraceOutput* trace) {
  const bool traced = trace != nullptr;
  std::vector<double> setup_s;
  std::vector<double> dbgen_ms;
  std::unique_ptr<TpcdTenant> tenant;
  std::vector<snakes::GridQuery> probe;
  std::optional<ProbeRecord> first_probe;
  std::optional<snakes::WorkloadIoStats> expected;
  std::shared_ptr<const snakes::StorageBackend> reference_backend;

  // Several set-ups from the same seed: setup_s is their median, and the
  // first two must serve the probe at exactly the same I/O (the
  // exact-repeat check).
  for (int i = 0; i < kSetups; ++i) {
    tenant.reset();  // one warehouse in memory at a time
    auto made = SetUpTpcdTenant(options.seed, StorageBackendKind::kPacked,
                                snakes::ServiceConfig{}.window_epochs, traced);
    if (!made.ok()) {
      ++result->attempted;
      result->Fail("set-up: " + made.status().ToString());
      return;
    }
    tenant = std::move(made).value();
    setup_s.push_back(tenant->setup_s);
    dbgen_ms.push_back(tenant->dbgen_ms);
    if (i >= 2) continue;
    if (probe.empty()) {
      probe = SampleQueries(*tenant->schema, TpcdWorkload(*tenant->schema, 7),
                            kProbeQueries, SubSeed(options.seed, 2));
    }
    // An independently packed backend of the served layout: the oracle
    // every probe answer must match bit for bit.
    const auto epoch = tenant->service->PinEpoch(tenant->id).value();
    reference_backend =
        snakes::MakeStorageBackend(StorageBackendKind::kPacked,
                                   epoch->linearization, tenant->facts)
            .ValueOrDie();
    const snakes::QueryEngine reference(*reference_backend);
    const ProbeRecord record =
        ServeProbe(*tenant->service, tenant->id, probe, &reference, result);
    const snakes::WorkloadIoStats io =
        ExpectedIo(*epoch->backend, TpcdWorkload(*tenant->schema, 7));
    if (!first_probe.has_value()) {
      first_probe = record;
      expected = io;
    } else if (record != *first_probe ||
               !SameBits(io.expected_seeks, expected->expected_seeks) ||
               !SameBits(io.expected_normalized_blocks,
                         expected->expected_normalized_blocks)) {
      result->Fail("served I/O differs between set-ups of one seed");
    }
    const auto status = tenant->service->StatusOf(tenant->id).value();
    if (status.recluster_adoptions != 1) {
      result->Fail("registration adopted " +
                   std::to_string(status.recluster_adoptions) +
                   " layouts, want 1");
    }
  }

  const Workload w7 = TpcdWorkload(*tenant->schema, 7);
  const snakes::QueryEngine reference(*reference_backend);
  double elapsed_s = 0.0;
  // Warm-up: lazy set-up and caches settle before anything is timed.
  (void)ReadPhase(*tenant, w7, 0.3, SubSeed(options.seed, 3),
                  reference_backend.get(),
                  nullptr, &elapsed_s);

  const double untraced_s = traced ? options.seconds / 2 : options.seconds;
  const ReadSample reads = ReadPhase(*tenant, w7, untraced_s,
                                     SubSeed(options.seed, 4),
                                     reference_backend.get(),
                                     nullptr, &elapsed_s);
  AddFailures(reads, result);
  const double reads_per_s =
      static_cast<double>(reads.query_us.size() + reads.measure_us.size()) /
      elapsed_s;

  // The layout never changes here, so the probe costs the same afterwards.
  const ProbeRecord after =
      ServeProbe(*tenant->service, tenant->id, probe, &reference, result);
  if (after != *first_probe) {
    result->Fail("probe I/O changed while serving a fixed layout");
  }
  if (reads.query_us.empty() || reads.measure_us.empty()) {
    result->Fail("no Query or no Measure completed");
    return;
  }

  const double query_p50 = Quantile(reads.query_us, 0.5);
  if (!traced) {
    result->Add("setup_s", Quantile(setup_s, 0.5), "s");
    result->Add("main_p50_us", query_p50, "us");
    result->Add("main_tail_us", Quantile(reads.query_us, 0.99), "us");
    result->Add("aux_p50_us", Quantile(reads.measure_us, 0.5), "us");
    result->Add("seeks_per_query", expected->expected_seeks, "count");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  result->Detail("setup_s", Quantile(setup_s, 0.5), "s");
  result->Detail("query_p50_us", query_p50, "us");
  result->Detail("query_p99_us", Quantile(reads.query_us, 0.99), "us");
  result->Detail("query_samples", static_cast<double>(reads.query_us.size()),
                 "count");
  result->Detail("measure_p50_us", Quantile(reads.measure_us, 0.5), "us");
  result->Detail("measure_samples",
                 static_cast<double>(reads.measure_us.size()), "count");
  result->Detail("read_ops_per_s", reads_per_s, "1/s");
  result->Detail("seeks_per_query", expected->expected_seeks, "count");
  result->Detail("norm_blocks", expected->expected_normalized_blocks, "ratio");
  result->Detail("peak_rss_mb", PeakRssMb(), "MB");
  if (!traced) return;

  // Traced phase: every read is decomposed into its layers.
  const ReadSample traced_reads =
      ReadPhase(*tenant, w7, options.seconds / 2, SubSeed(options.seed, 5),
                reference_backend.get(), trace, &elapsed_s);
  AddFailures(traced_reads, result);
  PerLayer layers;
  layers.SetReads(traced_reads.layers);
  layers.coverage_pct =
      100.0 * traced_reads.layers.covered_us / traced_reads.layers.wall_us;
  layers.overhead_pct =
      100.0 * (Quantile(traced_reads.query_us, 0.5) / query_p50 - 1.0);

  // The advise and relayout inputs of this workload: registration advised
  // on workload 7 and packed its best layout.
  SpanLog* log = trace->NewLog(kKeptRequests);
  AdviseLayers advise;
  RelayoutLayers relayout;
  const auto epoch = tenant->service->PinEpoch(tenant->id).value();
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t root = log->BeginRequest("layers.registration");
    TraceAdviseLayers(log, root, tenant->schema, w7,
                      tenant->service->config().obs, &advise, result);
    TraceRelayoutLayers(log, root, StorageBackendKind::kPacked,
                        epoch->linearization, epoch->linearization,
                        tenant->facts, &relayout, result);
    log->EndRequest();
  }
  for (double e : advise.evaluations) {
    if (e != advise.evaluations.front()) {
      result->Fail("cost evaluations differ between identical advises");
    }
  }
  layers.SetAdvise(advise);
  layers.SetRelayout(relayout);
  layers.SetCacheHitRatio(*tenant->metrics);
  const auto status = tenant->service->StatusOf(tenant->id).value();
  layers.adopt_ratio = static_cast<double>(status.recluster_adoptions) /
                       static_cast<double>(status.recluster_epochs);
  layers.dbgen_ms = Quantile(dbgen_ms, 0.5);
  layers.Emit(result);
}

}  // namespace perfbench
