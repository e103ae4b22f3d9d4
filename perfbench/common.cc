#include "common.h"

#include <cstring>

#include "tpcd/dbgen.h"
#include "tpcd/workloads.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using snakes::AdvisorService;
using snakes::GridQuery;
using snakes::QueryAnswer;
using snakes::QueryEngine;
using snakes::QueryIo;
using snakes::Result;
using snakes::Rng;
using snakes::StarSchema;
using snakes::Workload;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool SameIo(const QueryIo& a, const QueryIo& b) {
  return a.records == b.records && a.pages == b.pages && a.seeks == b.seeks &&
         a.min_pages == b.min_pages;
}

bool SameAnswer(const QueryAnswer& a, const QueryAnswer& b) {
  return a.count == b.count && SameBits(a.sum, b.sum) && SameIo(a.io, b.io);
}

Workload TpcdWorkload(const StarSchema& schema, int id) {
  const snakes::QueryClassLattice lattice(schema);
  return snakes::tpcd::SectionSixWorkload(lattice, id).ValueOrDie();
}

Result<std::unique_ptr<TpcdTenant>> SetUpTpcdTenant(
    uint64_t seed, snakes::StorageBackendKind kind, int window_epochs,
    bool with_metrics) {
  auto tenant = std::make_unique<TpcdTenant>();
  const Clock::time_point start = Clock::now();
  SNAKES_ASSIGN_OR_RETURN(
      snakes::tpcd::Warehouse warehouse,
      snakes::tpcd::GenerateWarehouse(snakes::tpcd::Config{},
                                      SubSeed(seed, 1)));
  tenant->dbgen_ms = MicrosBetween(start, Clock::now()) / 1e3;
  tenant->schema = warehouse.schema;
  tenant->facts = warehouse.facts;

  snakes::ServiceConfig config;
  config.window_epochs = window_epochs;
  // The drift driver submits every recluster itself and waits on it.
  config.recluster_on_epoch_close = false;
  if (with_metrics) {
    tenant->metrics = std::make_unique<snakes::MetricsRegistry>();
    config.obs.metrics = tenant->metrics.get();
  }
  tenant->service = std::make_unique<AdvisorService>(config);

  snakes::TenantSpec spec;
  spec.name = "tpcd";
  spec.schema = tenant->schema;
  spec.facts = tenant->facts;
  spec.backend = kind;
  spec.initial_workload = TpcdWorkload(*tenant->schema, 7);
  SNAKES_ASSIGN_OR_RETURN(tenant->id,
                          tenant->service->RegisterTenant(std::move(spec)));
  tenant->setup_s = SecondsSince(start);
  return tenant;
}

std::vector<GridQuery> SampleQueries(const StarSchema& schema,
                                     const Workload& mu, int count,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<GridQuery> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(snakes::SampleQuery(schema, mu.Sample(&rng), &rng));
  }
  return out;
}

snakes::WorkloadIoStats ExpectedIo(const snakes::StorageBackend& backend,
                                   const Workload& mu) {
  const snakes::IoSimulator simulator(backend);
  return snakes::IoSimulator::Expect(mu, simulator.MeasureAllClasses());
}

ProbeRecord ServeProbe(AdvisorService& service, snakes::TenantId id,
                       const std::vector<GridQuery>& probe,
                       const QueryEngine* reference, RunResult* result) {
  ProbeRecord record;
  for (const GridQuery& query : probe) {
    ++result->attempted;
    const Result<QueryAnswer> answer = service.Query(id, query);
    const Result<QueryIo> io = service.Measure(id, query);
    std::string error;
    if (!answer.ok()) {
      error = "probe Query: " + answer.status().ToString();
    } else if (!io.ok()) {
      error = "probe Measure: " + io.status().ToString();
    } else if (!SameIo(answer.value().io, io.value())) {
      error = "Query io differs from Measure io on " + query.ToString();
    } else if (io.value().pages < io.value().min_pages) {
      error = "pages < min_pages on " + query.ToString();
    } else if (reference != nullptr &&
               !SameAnswer(answer.value(), reference->Execute(query))) {
      error = "answer differs from the packed reference on " +
              query.ToString();
    }
    if (!error.empty()) {
      result->Fail(error);
      continue;
    }
    ++record.queries;
    record.seeks += io.value().seeks;
    record.pages += io.value().pages;
    record.min_pages += io.value().min_pages;
  }
  return record;
}

}  // namespace perfbench
