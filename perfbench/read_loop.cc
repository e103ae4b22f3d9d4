// The closed-loop reader and the traced decomposition of one read.

#include <memory>
#include <optional>

#include "common.h"
#include "storage/executor.h"
#include "util/rng.h"

namespace perfbench {

using snakes::GridQuery;
using snakes::QueryAnswer;
using snakes::QueryIo;
using snakes::Result;

namespace {

// Invariants of any served I/O, whatever the layout.
std::string IoError(const QueryIo& io) {
  if (io.pages < io.min_pages) return "pages < min_pages";
  if (io.records > 0 && io.seeks == 0) return "records read without a seek";
  if (io.seeks > io.pages) return "more seeks than pages";
  return "";
}

struct ReadOutcome {
  double wall_us = 0.0;
  std::string error;
  bool has_answer = false;
  QueryAnswer answer;
};

// Serves one read; in the traced phase the same query is then handed to
// each layer below the service: the epoch pin, QueryEngine::Execute on the
// pinned backend, IoSimulator::Measure and Linearization::AppendRuns.
ReadOutcome Read(const ReadLoopArgs& args, const GridQuery& query,
                 bool measure, ReadLayers* layers,
                 std::vector<snakes::RankRun>* scratch) {
  ReadOutcome out;
  SpanLog* log = args.log;
  const char* request = measure ? "read.measure" : "read.query";
  const uint64_t root = log != nullptr ? log->BeginRequest(request) : 0;
  Result<QueryIo> io = snakes::Status::Internal("not served");
  Result<QueryAnswer> answer = snakes::Status::Internal("not served");
  const auto serve = [&] {
    if (measure) {
      io = args.service->Measure(args.id, query);
    } else {
      answer = args.service->Query(args.id, query);
    }
  };
  const auto check = [&] {
    if (measure) {
      out.error = io.ok() ? IoError(io.value()) : io.status().ToString();
    } else if (!answer.ok()) {
      out.error = answer.status().ToString();
    } else {
      out.has_answer = true;
      out.answer = answer.value();
      out.error = IoError(out.answer.io);
      if (out.error.empty() && out.answer.count != out.answer.io.records) {
        out.error = "count differs from records read";
      }
    }
  };
  if (log == nullptr) {
    const Clock::time_point start = Clock::now();
    serve();
    out.wall_us = MicrosBetween(start, Clock::now());
    check();
    return out;
  }
  // Whichever runs second finds the query's cells in cache, so odd
  // requests time the layers first and even ones the service call first.
  const bool layers_first = log->requests() % 2 == 1;
  const auto serve_traced = [&] {
    out.wall_us =
        log->Time(root, measure ? "service.Measure" : "service.Query", serve);
  };
  if (!layers_first) serve_traced();

  std::shared_ptr<const snakes::TenantEpoch> epoch;
  const double pin_us = log->Time(root, "service.PinEpoch", [&] {
    auto pinned = args.service->PinEpoch(args.id);
    if (pinned.ok()) epoch = pinned.value();
  });
  if (epoch == nullptr || epoch->backend == nullptr) {
    if (layers_first) serve_traced();
    log->EndRequest();
    check();
    if (out.error.empty()) out.error = "no pinned backend to trace";
    return out;
  }
  const snakes::StorageBackend& backend = *epoch->backend;
  // The same sink the service hands its own engine, so both sides record
  // the same storage counters.
  const snakes::ObsSink& obs = args.service->config().obs;
  double exec_us = 0.0;
  if (!measure) {
    exec_us = log->Time(root, "storage.Execute", [&] {
      const snakes::QueryEngine engine(backend, obs);
      (void)engine.Execute(query);
    });
  }
  snakes::PruneStats prune;
  const double measure_us = log->Time(root, "storage.Measure", [&] {
    const snakes::IoSimulator simulator(backend, obs);
    (void)simulator.Measure(query, &prune);
  });
  const snakes::CellBox box = snakes::BoxOf(backend.linearization().schema(),
                                            query);
  const double runs_us = log->Time(root, "curves.AppendRuns", [&] {
    scratch->clear();
    backend.linearization().AppendRuns(box, scratch);
  });
  if (layers_first) serve_traced();
  log->EndRequest();
  check();

  ++layers->reads;
  layers->pin_us.push_back(pin_us);
  layers->measure_us.push_back(measure_us);
  layers->append_runs_us.push_back(runs_us);
  layers->cells += static_cast<double>(box.NumCells());
  layers->runs += static_cast<double>(scratch->size());
  layers->partitions += prune.partitions;
  layers->pruned += prune.pruned;
  layers->wall_us += out.wall_us;
  if (measure) {
    layers->covered_us += pin_us + measure_us;
  } else {
    layers->covered_us += pin_us + exec_us;
    layers->query_overhead_us.push_back(out.wall_us - exec_us);
    layers->aggregate_us.push_back(exec_us - measure_us);
  }
  return out;
}

}  // namespace

void ReadLayers::Merge(const ReadLayers& o) {
  const auto append = [](std::vector<double>* to,
                         const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&query_overhead_us, o.query_overhead_us);
  append(&pin_us, o.pin_us);
  append(&aggregate_us, o.aggregate_us);
  append(&measure_us, o.measure_us);
  append(&append_runs_us, o.append_runs_us);
  reads += o.reads;
  cells += o.cells;
  runs += o.runs;
  partitions += o.partitions;
  pruned += o.pruned;
  covered_us += o.covered_us;
  wall_us += o.wall_us;
}

void ReadSample::Merge(const ReadSample& o) {
  query_us.insert(query_us.end(), o.query_us.begin(), o.query_us.end());
  measure_us.insert(measure_us.end(), o.measure_us.begin(),
                    o.measure_us.end());
  attempted += o.attempted;
  failed += o.failed;
  for (const std::string& e : o.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
  layers.Merge(o.layers);
}

void ReadLoop(const ReadLoopArgs& args, ReadSample* out) {
  snakes::Rng rng(args.seed);
  std::vector<snakes::RankRun> scratch;
  std::optional<snakes::QueryEngine> reference;
  if (args.reference != nullptr) reference.emplace(*args.reference);
  uint64_t queries = 0;
  while (args.keep_going()) {
    const snakes::Workload& mu =
        args.mix[args.mix.size() == 1 ? 0 : rng.Below(args.mix.size())];
    const GridQuery query =
        snakes::SampleQuery(*args.schema, mu.Sample(&rng), &rng);
    const bool measure = rng.NextDouble() < args.measure_share;
    ++out->attempted;
    ReadOutcome outcome = Read(args, query, measure, &out->layers, &scratch);
    if (measure) {
      out->measure_us.push_back(outcome.wall_us);
    } else {
      out->query_us.push_back(outcome.wall_us);
      if (outcome.has_answer && outcome.error.empty() &&
          reference.has_value() && queries++ % 32 == 0) {
        const QueryAnswer ref = reference->Execute(query);
        if (ref.count != outcome.answer.count ||
            !SameBits(ref.sum, outcome.answer.sum) ||
            ref.io.records != outcome.answer.io.records ||
            ref.io.min_pages != outcome.answer.io.min_pages) {
          outcome.error = "answer differs from the reference";
        }
      }
    }
    if (!outcome.error.empty()) {
      ++out->failed;
      if (out->errors.size() < 4) {
        out->errors.push_back(outcome.error + " on " + query.ToString());
      }
    }
  }
}

void AddFailures(const ReadSample& sample, RunResult* result) {
  result->attempted += sample.attempted;
  result->failed += sample.failed;
  for (const std::string& e : sample.errors) result->Error(e);
}

}  // namespace perfbench
