#ifndef SNAKES_CORE_SPEC_H_
#define SNAKES_CORE_SPEC_H_

#include <memory>
#include <string>
#include <string_view>

#include "hierarchy/star_schema.h"
#include "lattice/workload.h"
#include "util/result.h"

namespace snakes {

/// Plain-text schema and workload specs for the CLI and for configuration
/// files. Line-oriented; `#` starts a comment; blank lines are ignored.
///
/// Schema spec — one `dimension` line per dimension, fanouts listed from the
/// leaf level up:
///
///   # TPC-D LineItem
///   dimension parts    40 5     # part -> mfgr -> all
///   dimension supplier 10       # supplier -> all
///   dimension time     12 7     # month -> year -> all
///
/// Workload spec — one `class` line per query class with positive weight
/// (weights are normalized); levels are comma-separated, one per dimension:
///
///   class 2,0,1  0.5            # all parts, one supplier, one year
///   class 1,1,1  0.3
///   class 0,0,0  0.2
Result<StarSchema> ParseSchemaSpec(std::string_view text);

/// Parses a workload spec against `lattice` (see ParseSchemaSpec).
Result<Workload> ParseWorkloadSpec(const QueryClassLattice& lattice,
                                   std::string_view text);

/// Reads a whole file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `content` as the whole file at `path`, replacing it.
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace snakes

#endif  // SNAKES_CORE_SPEC_H_
