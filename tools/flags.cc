#include "tools/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "util/logging.h"

namespace snakes {

namespace {

std::string Range(const std::string& lo, const std::string& hi) {
  return "[" + lo + ", " + hi + "]";
}

/// The flag's value as a non-negative integer in [min, max].
Status ParseUint(const std::string& name, const std::string& text,
                 uint64_t min, uint64_t max, uint64_t* out) {
  const char* end = text.data() + text.size();
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && ptr == end && (v < min || v > max))) {
    return Status::InvalidArgument(
        name + " must be in " +
        Range(std::to_string(min), std::to_string(max)) + ", got '" + text +
        "'");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(
        name + " takes a non-negative integer, got '" + text + "'");
  }
  *out = v;
  return Status::OK();
}

}  // namespace

void FlagSet::Add(const char* name, const char* meta, const char* help,
                  const std::string& default_text, const std::string& range,
                  std::function<Status(const std::string&)> set) {
  for (const Flag& f : flags_) {
    SNAKES_CHECK(f.name != name) << "flag " << name << " declared twice";
  }
  std::string line = std::string("  ") + name + " " + meta;
  line.resize(std::max<size_t>(line.size() + 2, 26), ' ');
  line += help;
  if (!default_text.empty()) {
    line += " (default " + default_text;
    if (!range.empty()) line += ", in " + range;
    line += ")";
  }
  flags_.push_back(Flag{name, line + "\n", std::move(set)});
}

void FlagSet::Text(const char* name, std::string* value, const char* help) {
  Add(name, "VALUE", help, *value, "", [value](const std::string& text) {
    *value = text;
    return Status::OK();
  });
}

void FlagSet::Int(const char* name, int* value, const char* help, int min,
                  int max) {
  SNAKES_CHECK(0 <= min && min <= max) << name;
  Add(name, "N", help, std::to_string(*value),
      Range(std::to_string(min), std::to_string(max)),
      [=](const std::string& text) {
        uint64_t v = 0;
        SNAKES_RETURN_IF_ERROR(ParseUint(name, text, min, max, &v));
        *value = static_cast<int>(v);
        return Status::OK();
      });
}

void FlagSet::Uint64(const char* name, uint64_t* value, const char* help) {
  Add(name, "N", help, std::to_string(*value), "",
      [=](const std::string& text) {
        return ParseUint(name, text, 0, std::numeric_limits<uint64_t>::max(),
                         value);
      });
}

void FlagSet::Double(const char* name, double* value, const char* help,
                     double min, double max) {
  SNAKES_CHECK(min <= max) << name;
  const std::string range = Range(JsonNumber(min), JsonNumber(max));
  Add(name, "X", help, JsonNumber(*value), range,
      [=](const std::string& text) {
        const char* end = text.data() + text.size();
        double v = 0.0;
        const auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
          return Status::InvalidArgument(
              std::string(name) + " takes a finite number, got '" + text + "'");
        }
        if (v < min || v > max) {
          return Status::InvalidArgument(std::string(name) + " must be in " +
                                         range + ", got '" + text + "'");
        }
        *value = v;
        return Status::OK();
      });
}

Status FlagSet::Parse(const std::vector<std::string>& args) {
  for (size_t i = 0; i < args.size(); i += 2) {
    if (args[i] == "--help" || args[i] == "-h") {
      help_requested_ = true;
      return Status::OK();
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == args[i]) flag = &f;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag " + args[i]);
    }
    if (i + 1 == args.size()) {
      return Status::InvalidArgument(args[i] + " needs a value");
    }
    SNAKES_RETURN_IF_ERROR(flag->set(args[i + 1]));
  }
  return Status::OK();
}

std::string FlagSet::Usage() const {
  std::string out = "usage: " + command_ + " [--flag value]...\n";
  for (const Flag& f : flags_) out += f.usage_line;
  return out;
}

std::optional<int> FlagSet::ParseCommandLine(int argc, char** argv) {
  const Status parsed = Parse(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) return UsageError(parsed.message());
  if (!help_requested_) return std::nullopt;
  std::printf("%s", Usage().c_str());
  return 0;
}

int FlagSet::UsageError(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), Usage().c_str());
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace snakes
