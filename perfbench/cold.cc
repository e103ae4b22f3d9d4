// advise-cold: onboarding fresh analytic TPC-D tenants and advising them.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common.h"
#include "core/advisor.h"
#include "tpcd/dbgen.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"
#include "tpcd/workloads.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using snakes::AdvisorService;
using snakes::ClusteringAdvisor;
using snakes::EvaluationRequest;
using snakes::Recommendation;
using snakes::StarSchema;
using snakes::Workload;

namespace {

/// The 27 Section-6 workloads plus the equal-weight TPC-D query mix.
std::vector<Workload> OnboardingWorkloads(const StarSchema& schema) {
  const snakes::QueryClassLattice lattice(schema);
  std::vector<Workload> out =
      snakes::tpcd::AllSectionSixWorkloads(lattice).ValueOrDie();
  out.push_back(snakes::tpcd::BenchmarkMixWorkload(lattice).ValueOrDie());
  return out;
}

/// What one onboarded tenant produced.
struct Onboarded {
  size_t workload = 0;
  std::string best;
  double best_cost = 0.0;
  std::optional<Recommendation> warm;
  std::optional<Workload> smoothed;
  /// Traced phase: cache misses of the cold class-cost fill.
  double evaluations = 0.0;
};

/// Everything the passes of one phase measured.
struct ColdPhase {
  std::vector<double> register_us;
  std::vector<double> cold_us;
  std::vector<double> warm_us;
  std::vector<Onboarded> tenants;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  double elapsed_s = 0.0;
  int passes = 0;
  // Traced phase only.
  AdviseLayers advise;
  std::vector<double> pin_us;
  double covered_us = 0.0;
  double wall_us = 0.0;
  uint64_t adoptions = 0;
  uint64_t epochs = 0;
};

/// One pass: a fresh service onboards every workload once, in a seeded
/// order, from kClients threads.
void ColdPass(const std::shared_ptr<const StarSchema>& schema,
              const std::vector<Workload>& workloads, uint64_t seed,
              snakes::MetricsRegistry* metrics, TraceOutput* trace,
              ColdPhase* phase) {
  std::vector<size_t> order(workloads.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  snakes::Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }

  snakes::ServiceConfig config;
  config.obs.metrics = metrics;
  AdvisorService service(config);
  std::atomic<size_t> next{0};
  std::mutex mu;  // guards `phase`
  const int pass = phase->passes++;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    SpanLog* log = trace != nullptr ? trace->NewLog(kKeptRequests) : nullptr;
    clients.emplace_back([&, log] {
      for (size_t i; (i = next.fetch_add(1)) < order.size();) {
        const size_t w = order[i];
        snakes::TenantSpec spec;
        spec.name = "p" + std::to_string(pass) + "w" + std::to_string(w);
        spec.schema = schema;
        spec.initial_workload = workloads[w];
        const uint64_t root =
            log != nullptr ? log->BeginRequest("cold.onboard") : 0;
        const snakes::Status unserved = snakes::Status::Internal("unserved");
        snakes::Result<snakes::TenantId> id = unserved;
        snakes::Result<Recommendation> cold = unserved;
        snakes::Result<Recommendation> warm = unserved;
        // Each call is timed on its own; in the traced phase the same
        // clock readings become the request's service spans.
        const auto timed = [&](const char* name, const auto& fn) {
          if (log != nullptr) return log->Time(root, name, fn);
          const Clock::time_point start = Clock::now();
          fn();
          return MicrosBetween(start, Clock::now());
        };
        const double reg_us = timed("service.RegisterTenant", [&] {
          id = service.RegisterTenant(std::move(spec));
        });
        double cold_us = 0.0, warm_us = 0.0;
        if (id.ok()) {
          cold_us = timed("service.Advise.cold",
                          [&] { cold = service.Advise(id.value()); });
          warm_us = timed("service.Advise.warm",
                          [&] { warm = service.Advise(id.value()); });
        }
        std::string error;
        Onboarded done;
        done.workload = w;
        if (!id.ok()) {
          error = "RegisterTenant: " + id.status().ToString();
        } else if (!cold.ok() || !warm.ok()) {
          error = "Advise: " + (cold.ok() ? warm : cold).status().ToString();
        } else if (!cold.value().has_best()) {
          error = "cold Advise ranked no strategy";
        } else {
          done.best = cold.value().best().name;
          done.best_cost = cold.value().best().expected_cost;
          done.warm = warm.value();
          done.smoothed = service.SmoothedWorkload(id.value()).value();
        }

        // Traced: the same advise input handed to each layer in turn.
        AdviseLayers advise;
        RunResult trace_errors;
        double pin_us = 0.0, covered_us = 0.0;
        uint64_t adoptions = 0, epochs = 0;
        if (log != nullptr && error.empty()) {
          pin_us = log->Time(root, "service.PinEpoch", [&] {
            (void)service.PinEpoch(id.value());
          });
          covered_us = TraceAdviseLayers(log, root, schema, *done.smoothed,
                                         config.obs, &advise, &trace_errors);
          if (!trace_errors.errors.empty()) error = trace_errors.errors[0];
          if (!advise.evaluations.empty()) {
            done.evaluations = advise.evaluations.front();
          }
          const auto status = service.StatusOf(id.value()).value();
          adoptions = status.recluster_adoptions;
          epochs = status.recluster_epochs;
        }
        if (log != nullptr) log->EndRequest();

        std::lock_guard<std::mutex> lock(mu);
        phase->attempted += 3;
        phase->register_us.push_back(reg_us);
        if (!error.empty()) {
          ++phase->failed;
          if (phase->errors.size() < 4) phase->errors.push_back(error);
          continue;
        }
        phase->cold_us.push_back(cold_us);
        phase->warm_us.push_back(warm_us);
        phase->tenants.push_back(std::move(done));
        if (log != nullptr) {
          phase->advise.Merge(advise);
          phase->pin_us.push_back(pin_us);
          phase->covered_us += covered_us;
          phase->wall_us += cold_us;
          phase->adoptions += adoptions;
          phase->epochs += epochs;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

/// Whole passes until `seconds` have passed (at least one).
ColdPhase RunColdPhase(const std::shared_ptr<const StarSchema>& schema,
                       const std::vector<Workload>& workloads, uint64_t seed,
                       double seconds, snakes::MetricsRegistry* metrics,
                       TraceOutput* trace) {
  ColdPhase phase;
  const Clock::time_point start = Clock::now();
  do {
    ColdPass(schema, workloads,
             SubSeed(seed, static_cast<uint64_t>(phase.passes)), metrics,
             trace, &phase);
  } while (SecondsSince(start) < seconds);
  phase.elapsed_s = SecondsSince(start);
  return phase;
}

/// Checks every onboarded tenant against direct library calls: the cold
/// best strategy against a fresh Advise on the workload, the warm
/// recommendation bit for bit against AdviseIncremental on the tenant's
/// smoothed workload. Also the exact-repeat check: each workload's best
/// strategy and its cost repeat bit for bit across passes.
void VerifyOnboarded(const std::shared_ptr<const StarSchema>& schema,
                     const std::vector<Workload>& workloads,
                     const std::vector<Onboarded>& tenants,
                     RunResult* result) {
  const ClusteringAdvisor advisor(schema);
  std::vector<std::string> fresh_best;
  for (const Workload& mu : workloads) {
    EvaluationRequest request{mu};
    request.num_threads = 1;
    fresh_best.push_back(advisor.Advise(request).ValueOrDie().best().name);
  }
  std::map<size_t, double> cost_by_workload;
  snakes::IncrementalAdvisorState state;
  for (const Onboarded& t : tenants) {
    ++result->attempted;
    EvaluationRequest request{*t.smoothed};
    request.num_threads = 1;
    const Recommendation direct =
        advisor.AdviseIncremental(request, &state).ValueOrDie();
    const auto [seen, inserted] =
        cost_by_workload.emplace(t.workload, t.best_cost);
    std::string error;
    if (t.best != fresh_best[t.workload]) {
      error = "cold Advise best " + t.best + " differs from fresh Advise " +
              fresh_best[t.workload];
    } else if (!inserted && !SameBits(seen->second, t.best_cost)) {
      error = "best expected cost differs between passes";
    } else if (!snakes::BitIdenticalRecommendations(*t.warm, direct)) {
      error = "warm Advise differs from AdviseIncremental";
    }
    if (!error.empty()) {
      result->Fail(error + " (workload " + std::to_string(t.workload) + ")");
    }
  }
}

double ColdSeeksPerQuery(const std::vector<Onboarded>& tenants) {
  double sum = 0.0;
  for (const Onboarded& t : tenants) sum += t.best_cost;
  return tenants.empty() ? 0.0 : sum / static_cast<double>(tenants.size());
}

void AddPhaseFailures(const ColdPhase& phase, RunResult* result) {
  result->attempted += phase.attempted;
  result->failed += phase.failed;
  for (const std::string& e : phase.errors) result->Error(e);
}

}  // namespace

void RunAdviseCold(const Options& options, RunResult* result,
                   TraceOutput* trace) {
  const bool traced = trace != nullptr;
  // Set-up is the schema and the onboarding workloads: sub-millisecond, so
  // it is repeated and its median reported.
  std::vector<double> setup_s;
  std::shared_ptr<const StarSchema> schema;
  std::vector<Workload> workloads;
  for (int i = 0; i < 201; ++i) {
    const Clock::time_point start = Clock::now();
    schema = snakes::tpcd::BuildSharedSchema(snakes::tpcd::Config{})
                 .ValueOrDie();
    workloads = OnboardingWorkloads(*schema);
    setup_s.push_back(SecondsSince(start));
  }

  std::unique_ptr<snakes::MetricsRegistry> metrics;
  if (traced) metrics = std::make_unique<snakes::MetricsRegistry>();
  const ColdPhase phase =
      RunColdPhase(schema, workloads, SubSeed(options.seed, 10),
                   traced ? options.seconds / 2 : options.seconds,
                   metrics.get(), nullptr);
  AddPhaseFailures(phase, result);
  VerifyOnboarded(schema, workloads, phase.tenants, result);
  if (phase.cold_us.empty()) {
    result->Fail("no tenant was onboarded");
    return;
  }

  const double ops = static_cast<double>(phase.register_us.size() +
                                         phase.cold_us.size() +
                                         phase.warm_us.size());
  const double cold_p50 = Quantile(phase.cold_us, 0.5);
  const double seeks = ColdSeeksPerQuery(phase.tenants);
  if (!traced) {
    result->Add("setup_s", Quantile(setup_s, 0.5), "s");
    result->Add("main_p50_us", cold_p50, "us");
    result->Add("main_tail_us", Quantile(phase.cold_us, 0.9), "us");
    result->Add("aux_p50_us", Quantile(phase.register_us, 0.5), "us");
    result->Add("seeks_per_query", seeks, "count");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  result->Detail("setup_s", Quantile(setup_s, 0.5), "s");
  result->Detail("register_p50_ms", Quantile(phase.register_us, 0.5) / 1e3,
                 "ms");
  result->Detail("advise_cold_p50_ms", cold_p50 / 1e3, "ms");
  result->Detail("advise_cold_p90_ms", Quantile(phase.cold_us, 0.9) / 1e3,
                 "ms");
  result->Detail("advise_warm_p50_us", Quantile(phase.warm_us, 0.5), "us");
  result->Detail("tenants", static_cast<double>(phase.cold_us.size()),
                 "count");
  result->Detail("passes", static_cast<double>(phase.passes), "count");
  result->Detail("ops_per_s", ops / phase.elapsed_s, "1/s");
  result->Detail("seeks_per_query", seeks, "count");
  result->Detail("peak_rss_mb", PeakRssMb(), "MB");
  if (!traced) return;

  // Traced phase: every cold advise is decomposed into its layers.
  const ColdPhase traced_phase =
      RunColdPhase(schema, workloads, SubSeed(options.seed, 11),
                   options.seconds / 2, metrics.get(), trace);
  AddPhaseFailures(traced_phase, result);
  VerifyOnboarded(schema, workloads, traced_phase.tenants, result);
  PerLayer layers;
  layers.SetAdvise(traced_phase.advise);
  layers.pin_epoch_us = Quantile(traced_phase.pin_us, 0.5);
  layers.coverage_pct =
      100.0 * traced_phase.covered_us / traced_phase.wall_us;
  layers.overhead_pct =
      100.0 * (Quantile(traced_phase.cold_us, 0.5) / cold_p50 - 1.0);
  layers.adopt_ratio = static_cast<double>(traced_phase.adoptions) /
                       static_cast<double>(traced_phase.epochs);
  layers.SetCacheHitRatio(*metrics);
  // Exact-repeat: a workload's cold fill costs the same classes every time.
  std::map<size_t, double> evaluations;
  for (const Onboarded& t : traced_phase.tenants) {
    const auto [it, inserted] = evaluations.emplace(t.workload, t.evaluations);
    if (!inserted && it->second != t.evaluations) {
      result->Fail("cost evaluations differ between passes on workload " +
                   std::to_string(t.workload));
    }
  }

  // Analytic tenants touch no storage. The storage, relayout and dbgen
  // layers are timed on what serving this advice would take: the TPC-D
  // facts packed under the best layouts of two seed-chosen onboarding
  // workloads, queried through a packed tenant registered under the first.
  const size_t first = SubSeed(options.seed, 13) % workloads.size();
  const size_t second = (first + 1) % workloads.size();
  std::vector<double> dbgen_ms;
  std::shared_ptr<const snakes::FactTable> facts;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point start = Clock::now();
    auto warehouse = snakes::tpcd::GenerateWarehouse(snakes::tpcd::Config{},
                                                     SubSeed(options.seed, 1))
                         .ValueOrDie();
    dbgen_ms.push_back(MicrosBetween(start, Clock::now()) / 1e3);
    // A warehouse over its own (identical) schema instance.
    facts = warehouse.facts;
    schema = warehouse.schema;
  }
  layers.dbgen_ms = Quantile(dbgen_ms, 0.5);

  snakes::ServiceConfig config;
  config.obs.metrics = metrics.get();
  AdvisorService service(config);
  snakes::TenantSpec spec;
  spec.name = "served";
  spec.schema = schema;
  spec.facts = facts;
  spec.initial_workload = workloads[first];
  const snakes::TenantId id = service.RegisterTenant(std::move(spec)).value();
  ReadSample reads;
  int left = kProbeQueries;
  ReadLoopArgs args;
  args.service = &service;
  args.id = id;
  args.schema = schema.get();
  args.mix = {workloads[first]};
  args.measure_share = 0.2;
  args.seed = SubSeed(options.seed, 12);
  args.keep_going = [&left] { return left-- > 0; };
  args.log = trace->NewLog(kKeptRequests);
  ReadLoop(args, &reads);
  AddFailures(reads, result);
  // The epoch pin stays the onboarded tenants' own.
  const double pin_epoch_us = layers.pin_epoch_us;
  layers.SetReads(reads.layers);
  layers.pin_epoch_us = pin_epoch_us;

  // The layouts are recomputed on this schema instance (the recommendation
  // strategies above hold the analytic schema).
  SpanLog* log = trace->NewLog(kKeptRequests);
  RelayoutLayers relayout;
  const ClusteringAdvisor advisor(schema);
  const auto best_lin = [&](size_t w) {
    EvaluationRequest request{workloads[w]};
    request.num_threads = 1;
    return advisor.Advise(request).ValueOrDie().best().linearization;
  };
  const auto from = best_lin(first);
  const auto to = best_lin(second);
  for (int rep = 0; rep < kSetups; ++rep) {
    const uint64_t root = log->BeginRequest("layers.relayout");
    TraceRelayoutLayers(log, root, snakes::StorageBackendKind::kPacked, from,
                        to, facts, &relayout, result);
    log->EndRequest();
  }
  layers.SetRelayout(relayout);
  layers.Emit(result);
}

}  // namespace perfbench
