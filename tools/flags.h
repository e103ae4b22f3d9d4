#ifndef SNAKES_TOOLS_FLAGS_H_
#define SNAKES_TOOLS_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace snakes {

/// One command's flags, declared once and parsed strictly: every flag is
/// `--name value`, and anything else is an error before the command runs.
/// The declarations also generate the `--help` usage.
///
///   int epochs = 12;  // the default
///   FlagSet flags("snakes_cli recluster");
///   flags.Int("--epochs", &epochs, "epochs in the trace", 2);
///   if (auto exit = flags.ParseCommandLine(argc, argv)) return *exit;
class FlagSet {
 public:
  /// `command` is how the user invokes the command; it heads the usage.
  explicit FlagSet(std::string command) : command_(std::move(command)) {}

  /// Declarations bind a flag to a variable that holds its default and
  /// receives its value. Integers take no sign and no trailing junk; every
  /// number must be finite and lie in [min, max].
  void Text(const char* name, std::string* value, const char* help);
  void Int(const char* name, int* value, const char* help, int min = 0,
           int max = std::numeric_limits<int>::max());
  void Uint64(const char* name, uint64_t* value, const char* help);
  void Double(const char* name, double* value, const char* help, double min,
              double max);

  /// Parses flag/value pairs (argv after the command name) in order.
  /// `--help` / `-h` stops parsing and sets help_requested(). An unknown
  /// flag, a flag without a value, or a malformed or out-of-range number is
  /// InvalidArgument naming the flag.
  Status Parse(const std::vector<std::string>& args);
  bool help_requested() const { return help_requested_; }

  /// One line per flag: name, help, default and declared range.
  std::string Usage() const;

  /// Parses argv[1, argc). Returns the exit status when the command must
  /// stop now — 0 after printing the usage for `--help`, 2 after
  /// UsageError — or nullopt when it should run.
  std::optional<int> ParseCommandLine(int argc, char** argv);

  /// Reports a flag error the declarations cannot express: prints
  /// `error: <message>` and the usage to stderr and returns 2.
  int UsageError(const std::string& message) const;

 private:
  struct Flag {
    std::string name, usage_line;
    std::function<Status(const std::string&)> set;
  };
  void Add(const char* name, const char* meta, const char* help,
           const std::string& default_text, const std::string& range,
           std::function<Status(const std::string&)> set);

  std::string command_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

/// Prints `error: <status>` to stderr and returns exit status 1: the
/// failure path of a command whose flags parsed but whose work failed.
int Fail(const Status& status);

}  // namespace snakes

#endif  // SNAKES_TOOLS_FLAGS_H_
