// Serial-vs-pooled Advise wall time on the Table-3 fanout-sweep schemas
// (the toy 2-D schema at fanouts 2, 4, 32 — up to a 1M-cell grid). Every
// candidate strategy is an independent scoring task, so the pooled run
// should approach min(strategies, threads)-way speedup on sufficient cores.
//
//   $ ./micro_parallel_advise [--threads N]   (default 4; 0 = all cores)
//
// Emits BENCH_parallel_advise.json (in the working directory) to seed the
// perf trajectory, and prints the same numbers as a table.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/advisor.h"
#include "core/evaluation.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "tools/flags.h"
#include "util/logging.h"
#include "util/text_table.h"
#include "util/thread_pool.h"

namespace snakes {
namespace {

double AdviseWallMs(const ClusteringAdvisor& advisor, const Workload& mu,
                    int num_threads, int reps) {
  double best_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    EvaluationRequest request(mu);
    request.num_threads = num_threads;
    const auto start = std::chrono::steady_clock::now();
    const auto rec = advisor.Advise(request);
    const auto stop = std::chrono::steady_clock::now();
    SNAKES_CHECK(rec.ok()) << rec.status().ToString();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

void Run(int threads) {
  // 0 means hardware concurrency, matching EvaluationRequest::num_threads
  // semantics.
  if (threads == 0) threads = ThreadPool::DefaultThreads();
  std::printf(
      "parallel Advise on the Table-3 fanout-sweep schemas "
      "(serial vs %d-thread pool; %d hardware thread(s))\n\n",
      threads, ThreadPool::DefaultThreads());

  TextTable table({"fanout", "cells", "strategies", "serial ms",
                   "pooled ms", "speedup"});
  std::string json = "{\n  \"bench\": \"parallel_advise\",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"hardware_threads\": " +
          std::to_string(ThreadPool::DefaultThreads()) + ",\n";
  json += "  \"schemas\": [\n";

  const std::vector<uint64_t> fanouts = {2, 4, 32};
  for (size_t i = 0; i < fanouts.size(); ++i) {
    const uint64_t fanout = fanouts[i];
    auto schema = bench::ToySchema(fanout);
    const ClusteringAdvisor advisor(schema);
    const Workload mu = Workload::Uniform(advisor.Lattice());
    const auto plan = advisor.Plan(EvaluationRequest(mu));
    SNAKES_CHECK(plan.ok()) << plan.status().ToString();
    const size_t strategies = plan->strategies.size();
    // The 1M-cell grid takes ~1s per Advise; one rep is representative
    // there, smaller grids get best-of-3.
    const int reps = fanout >= 32 ? 1 : 3;

    std::fprintf(stderr, "fanout %llu: %llu cells, %zu strategies...\n",
                 static_cast<unsigned long long>(fanout),
                 static_cast<unsigned long long>(schema->num_cells()),
                 strategies);
    const double serial_ms = AdviseWallMs(advisor, mu, 1, reps);
    const double pooled_ms = AdviseWallMs(advisor, mu, threads, reps);
    const double speedup = pooled_ms > 0.0 ? serial_ms / pooled_ms : 0.0;

    table.AddRow({std::to_string(fanout),
                  std::to_string(schema->num_cells()),
                  std::to_string(strategies), FormatDouble(serial_ms, 2),
                  FormatDouble(pooled_ms, 2), FormatDouble(speedup, 2)});
    json += "    {\"fanout\": " + std::to_string(fanout) +
            ", \"cells\": " + std::to_string(schema->num_cells()) +
            ", \"strategies\": " + std::to_string(strategies) +
            ", \"serial_ms\": " + FormatDouble(serial_ms, 3) +
            ", \"pooled_ms\": " + FormatDouble(pooled_ms, 3) +
            ", \"speedup\": " + FormatDouble(speedup, 3) + "}";
    json += i + 1 < fanouts.size() ? ",\n" : "\n";
  }
  json += "  ],\n";

  // One instrumented pooled Advise on the largest schema, embedded as a
  // work profile next to the wall times (queue-wait vs compute, DP cell
  // relaxations, strategies evaluated) — kept out of the timed reps so the
  // timings stay backend-free.
  {
    auto schema = bench::ToySchema(fanouts.back());
    const ClusteringAdvisor advisor(schema);
    const Workload mu = Workload::Uniform(advisor.Lattice());
    MetricsRegistry metrics;
    EvaluationRequest request(mu);
    request.num_threads = threads;
    request.obs = ObsSink{&metrics, nullptr};
    const auto rec = advisor.Advise(request);
    SNAKES_CHECK(rec.ok()) << rec.status().ToString();
    json += "  \"metrics\": " + metrics.Snapshot().ToJson(/*pretty=*/false) +
            "\n";
  }
  json += "}\n";

  std::printf("%s\n", table.Render().c_str());
  const char* path = "BENCH_parallel_advise.json";
  std::ofstream out(path);
  out << json;
  SNAKES_CHECK(out.good()) << "failed to write " << path;
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace snakes

int main(int argc, char** argv) {
  int threads = 4;
  snakes::FlagSet flags("micro_parallel_advise");
  flags.Int("--threads", &threads, "pooled-run threads (0: all cores)");
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;
  snakes::Run(threads);
  return 0;
}
