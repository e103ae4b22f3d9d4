// snakes_cli — command-line front end for the clustering advisor.
//
//   snakes_cli <command> [--flag value]...
//
// `snakes_cli --help` lists the commands (kCommands below), `snakes_cli
// <command> --help` a command's flags. Every command parses its flags
// through tools/flags.h: an unknown flag, a flag without a value, or a
// malformed or out-of-range number exits 2 before any work.
//
// Schema and workload files use the spec format of src/core/spec.h.
// `advise` prints the advisor report; with --export-order it writes the
// recommended clustering as CSV rows "rank,cell_id,<coord per dimension>"
// ready for a bulk loader's ORDER BY.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/advisor.h"
#include "core/spec.h"
#include "tools/flags.h"
#include "tpcd/schema.h"
#include "tpcd/workloads.h"
#include "util/result.h"

namespace snakes {

// Subcommands defined in their own files.
int RunReport(int argc, char** argv);     // obs_report.cc
int RunTelemetry(int argc, char** argv);  // telemetry_report.cc
int RunCalibrate(int argc, char** argv);  // calibrate_cost.cc
int RunRecluster(int argc, char** argv);  // recluster_sim.cc

namespace {

Status ExportOrder(const Linearization& order, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  const StarSchema& schema = order.schema();
  out << "rank,cell_id";
  for (int d = 0; d < schema.num_dims(); ++d) {
    out << "," << schema.dim(d).name();
  }
  out << "\n";
  order.Walk([&](uint64_t rank, const CellCoord& coord) {
    out << rank << "," << schema.Flatten(coord);
    for (size_t d = 0; d < coord.size(); ++d) out << "," << coord[d];
    out << "\n";
  });
  return out.good() ? Status::OK() : Status::Internal("write failed: " + path);
}

int RunAdvise(int argc, char** argv) {
  std::string schema_path, workload_path, csv_path;
  FlagSet flags("snakes_cli advise");
  flags.Text("--schema", &schema_path, "schema spec file (required)");
  flags.Text("--workload", &workload_path, "workload spec file (required)");
  flags.Text("--export-order", &csv_path,
             "also write the recommended order as CSV to this path");
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;
  if (schema_path.empty() || workload_path.empty()) {
    return flags.UsageError("--schema and --workload are required");
  }

  auto schema_text = ReadFileToString(schema_path);
  if (!schema_text.ok()) return Fail(schema_text.status());
  auto schema = ParseSchemaSpec(schema_text.value());
  if (!schema.ok()) return Fail(schema.status());
  auto shared = std::make_shared<StarSchema>(std::move(schema).value());

  const ClusteringAdvisor advisor(shared);
  auto workload_text = ReadFileToString(workload_path);
  if (!workload_text.ok()) return Fail(workload_text.status());
  auto mu = ParseWorkloadSpec(advisor.Lattice(), workload_text.value());
  if (!mu.ok()) return Fail(mu.status());

  auto rec = advisor.Advise(EvaluationRequest{mu.value()});
  if (!rec.ok()) return Fail(rec.status());
  std::printf("%s", rec->ToString().c_str());

  if (!csv_path.empty()) {
    auto order = advisor.RecommendedOrder(mu.value());
    if (!order.ok()) return Fail(order.status());
    const Status written = ExportOrder(*order.value(), csv_path);
    if (!written.ok()) return Fail(written);
    std::printf("\nwrote %llu rows to %s\n",
                static_cast<unsigned long long>(shared->num_cells()),
                csv_path.c_str());
  }
  return 0;
}

int RunLattice(int argc, char** argv) {
  std::string schema_path;
  FlagSet flags("snakes_cli lattice");
  flags.Text("--schema", &schema_path, "schema spec file (required)");
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;
  if (schema_path.empty()) return flags.UsageError("--schema is required");

  auto schema_text = ReadFileToString(schema_path);
  if (!schema_text.ok()) return Fail(schema_text.status());
  auto schema = ParseSchemaSpec(schema_text.value());
  if (!schema.ok()) return Fail(schema.status());
  const QueryClassLattice lattice(schema.value());
  std::printf("%d dimensions, %llu cells, %llu query classes:\n",
              schema->num_dims(),
              static_cast<unsigned long long>(schema->num_cells()),
              static_cast<unsigned long long>(lattice.size()));
  for (uint64_t i = 0; i < lattice.size(); ++i) {
    const QueryClass c = lattice.ClassAt(i);
    uint64_t queries = 1;
    for (int d = 0; d < schema->num_dims(); ++d) {
      queries *= schema->dim(d).num_blocks(c.level(d));
    }
    std::printf("  %-12s %llu queries\n", c.ToString().c_str(),
                static_cast<unsigned long long>(queries));
  }
  return 0;
}

int RunDemo(int argc, char** argv) {
  int id = 7;
  FlagSet flags("snakes_cli demo");
  flags.Int("--workload", &id, "TPC-D Section-6 workload id", 1,
            tpcd::kNumWorkloads);
  if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;

  tpcd::Config config;
  auto schema = tpcd::BuildSharedSchema(config);
  if (!schema.ok()) return Fail(schema.status());
  const ClusteringAdvisor advisor(schema.value());
  auto mu = tpcd::SectionSixWorkload(advisor.Lattice(), id);
  if (!mu.ok()) return Fail(mu.status());
  std::printf("TPC-D LineItem schema, workload %d (%s)\n\n", id,
              tpcd::DescribeWorkload(id).c_str());
  auto rec = advisor.Advise(EvaluationRequest{mu.value()});
  if (!rec.ok()) return Fail(rec.status());
  std::printf("%s", rec->ToString().c_str());
  return 0;
}

struct Command {
  const char* name;
  const char* summary;
  int (*run)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"advise", "rank strategies for schema and workload specs", RunAdvise},
    {"lattice", "list a schema's query classes", RunLattice},
    {"demo", "advise on a TPC-D Section-6 workload", RunDemo},
    {"report", "instrumented advise: metrics.json, trace.json", RunReport},
    {"telemetry", "a small advisor service's live telemetry", RunTelemetry},
    {"calibrate", "fit cost-model coefficients to measurements", RunCalibrate},
    {"recluster", "a drifting TPC-D trace through the engine", RunRecluster},
};

int Main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  for (const Command& c : kCommands) {
    if (name == c.name) return c.run(argc - 1, argv + 1);
  }
  const bool help = name == "--help" || name == "-h";
  if (!help && !name.empty()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
  }
  std::FILE* out = help ? stdout : stderr;
  std::fprintf(out, "usage: snakes_cli <command> [--flag value]...\n");
  for (const Command& c : kCommands) {
    std::fprintf(out, "  %-10s %s\n", c.name, c.summary);
  }
  std::fprintf(out, "`snakes_cli <command> --help` lists its flags.\n");
  return help ? 0 : 2;
}

}  // namespace
}  // namespace snakes

int main(int argc, char** argv) { return snakes::Main(argc, argv); }
