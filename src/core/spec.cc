#include "core/spec.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

namespace snakes {

namespace {

// Strips comments and surrounding whitespace; returns the payload.
std::string CleanLine(std::string line) {
  const size_t hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const size_t last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

Result<uint64_t> ParseUint(const std::string& token, int line_no) {
  try {
    size_t used = 0;
    const unsigned long long v = std::stoull(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return static_cast<uint64_t>(v);
  } catch (...) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": expected an integer, got '" + token +
                                   "'");
  }
}

Result<double> ParseDouble(const std::string& token, int line_no) {
  try {
    size_t used = 0;
    const double v = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (...) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": expected a number, got '" + token + "'");
  }
}

}  // namespace

Result<StarSchema> ParseSchemaSpec(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string raw;
  std::vector<Hierarchy> dims;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = CleanLine(raw);
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string keyword;
    tokens >> keyword;
    if (keyword != "dimension") {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected 'dimension', got '" +
                                     keyword + "'");
    }
    std::string name;
    if (!(tokens >> name)) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": dimension needs a name");
    }
    std::vector<uint64_t> fanouts;
    std::string token;
    while (tokens >> token) {
      SNAKES_ASSIGN_OR_RETURN(uint64_t fanout, ParseUint(token, line_no));
      fanouts.push_back(fanout);
    }
    SNAKES_ASSIGN_OR_RETURN(Hierarchy h,
                            Hierarchy::Uniform(name, std::move(fanouts)));
    dims.push_back(std::move(h));
  }
  if (dims.empty()) {
    return Status::InvalidArgument("schema spec declares no dimensions");
  }
  return StarSchema::Make("spec", std::move(dims));
}

Result<Workload> ParseWorkloadSpec(const QueryClassLattice& lattice,
                                   std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string raw;
  std::vector<std::pair<QueryClass, double>> masses;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = CleanLine(raw);
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string keyword, levels_token, weight_token;
    tokens >> keyword;
    if (keyword != "class") {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected 'class', got '" + keyword +
                                     "'");
    }
    if (!(tokens >> levels_token >> weight_token)) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) +
          ": expected 'class l1,l2,... weight'");
    }
    QueryClass cls(lattice.num_dims());
    {
      std::istringstream levels(levels_token);
      std::string item;
      int dim = 0;
      while (std::getline(levels, item, ',')) {
        SNAKES_ASSIGN_OR_RETURN(uint64_t level, ParseUint(item, line_no));
        if (dim >= lattice.num_dims() ||
            level > static_cast<uint64_t>(lattice.levels(dim))) {
          return Status::OutOfRange("line " + std::to_string(line_no) +
                                    ": class outside the lattice");
        }
        cls.set_level(dim, static_cast<int>(level));
        ++dim;
      }
      if (dim != lattice.num_dims()) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": class needs one level per "
                                       "dimension");
      }
    }
    SNAKES_ASSIGN_OR_RETURN(double weight, ParseDouble(weight_token, line_no));
    if (weight <= 0.0) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": weights must be positive");
    }
    masses.emplace_back(cls, weight);
  }
  if (masses.empty()) {
    return Status::InvalidArgument("workload spec declares no classes");
  }
  return Workload::FromMasses(lattice, masses, /*normalize=*/true);
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  return out ? Status::OK() : Status::Internal("failed to write " + path);
}

}  // namespace snakes
