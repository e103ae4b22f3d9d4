// The shared strict flag parser (tools/flags.h): declared defaults survive
// an empty command line, every rejection class names the offending flag,
// and the usage is generated from the declarations.

#include "tools/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace snakes {
namespace {

struct Parsed {
  std::string text = "packed";
  int count = 12;
  uint64_t seed = 1999;
  double alpha = 0.4;
  FlagSet flags{"tool sub"};

  Parsed() {
    flags.Text("--backend", &text, "storage backend");
    flags.Int("--count", &count, "how many", 2, 100);
    flags.Uint64("--seed", &seed, "rng seed");
    flags.Double("--alpha", &alpha, "smoothing weight", 0.0, 1.0);
  }
};

std::string Rejection(const std::vector<std::string>& args) {
  Parsed p;
  const Status status = p.flags.Parse(args);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  return status.message();
}

TEST(FlagSetTest, DefaultsSurviveAnEmptyCommandLine) {
  Parsed p;
  ASSERT_TRUE(p.flags.Parse({}).ok());
  EXPECT_FALSE(p.flags.help_requested());
  EXPECT_EQ(p.text, "packed");
  EXPECT_EQ(p.count, 12);
  EXPECT_EQ(p.seed, 1999u);
  EXPECT_EQ(p.alpha, 0.4);
}

TEST(FlagSetTest, ParsesEveryKindAtItsBounds) {
  Parsed p;
  ASSERT_TRUE(p.flags
                  .Parse({"--backend", "micropartition", "--count", "100",
                          "--seed", "18446744073709551615", "--alpha", "0"})
                  .ok());
  EXPECT_EQ(p.text, "micropartition");
  EXPECT_EQ(p.count, 100);
  EXPECT_EQ(p.seed, UINT64_MAX);
  EXPECT_EQ(p.alpha, 0.0);
  // A later occurrence wins, as on any command line.
  ASSERT_TRUE(p.flags.Parse({"--count", "2", "--count", "3"}).ok());
  EXPECT_EQ(p.count, 3);
}

TEST(FlagSetTest, HelpStopsParsingBeforeLaterErrors) {
  for (const char* help : {"--help", "-h"}) {
    Parsed p;
    ASSERT_TRUE(p.flags.Parse({"--count", "5", help, "--bogus"}).ok());
    EXPECT_TRUE(p.flags.help_requested());
    EXPECT_EQ(p.count, 5);
  }
}

TEST(FlagSetTest, RejectsUnknownFlagsAndMissingValues) {
  EXPECT_EQ(Rejection({"--bogus", "1"}), "unknown flag --bogus");
  EXPECT_EQ(Rejection({"7"}), "unknown flag 7");  // no positional arguments
  EXPECT_EQ(Rejection({"--seed"}), "--seed needs a value");
  EXPECT_EQ(Rejection({"--count", "3", "--backend"}),
            "--backend needs a value");
}

TEST(FlagSetTest, RejectsMalformedIntegers) {
  EXPECT_EQ(Rejection({"--count", "12x"}),
            "--count takes a non-negative integer, got '12x'");
  EXPECT_EQ(Rejection({"--count", "-3"}),
            "--count takes a non-negative integer, got '-3'");
  EXPECT_EQ(Rejection({"--seed", "+3"}),
            "--seed takes a non-negative integer, got '+3'");
  EXPECT_EQ(Rejection({"--seed", " 3"}),
            "--seed takes a non-negative integer, got ' 3'");
  EXPECT_EQ(Rejection({"--seed", ""}),
            "--seed takes a non-negative integer, got ''");
  EXPECT_EQ(Rejection({"--count", "abc"}),
            "--count takes a non-negative integer, got 'abc'");
}

TEST(FlagSetTest, RejectsIntegersOutsideTheirRange) {
  EXPECT_EQ(Rejection({"--count", "101"}),
            "--count must be in [2, 100], got '101'");
  EXPECT_EQ(Rejection({"--count", "1"}),
            "--count must be in [2, 100], got '1'");
  EXPECT_EQ(Rejection({"--seed", "18446744073709551616"}),  // 2^64
            "--seed must be in [0, 18446744073709551615], got "
            "'18446744073709551616'");
}

TEST(FlagSetTest, RejectsNonFiniteAndOutOfRangeDoubles) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "0.5x", "", "+0.5"}) {
    EXPECT_EQ(Rejection({"--alpha", bad}),
              std::string("--alpha takes a finite number, got '") + bad + "'");
  }
  EXPECT_EQ(Rejection({"--alpha", "1.5"}),
            "--alpha must be in [0, 1], got '1.5'");
  EXPECT_EQ(Rejection({"--alpha", "-0.1"}),
            "--alpha must be in [0, 1], got '-0.1'");
}

TEST(FlagSetTest, RejectionLeavesEarlierFlagsParsedAndLaterOnesDefault) {
  Parsed p;
  EXPECT_FALSE(p.flags.Parse({"--count", "5", "--seed", "x", "--alpha", "1"})
                   .ok());
  EXPECT_EQ(p.count, 5);
  EXPECT_EQ(p.alpha, 0.4);
}

TEST(FlagSetTest, UsageIsGeneratedFromTheDeclarations) {
  Parsed p;
  EXPECT_EQ(p.flags.Usage(),
            "usage: tool sub [--flag value]...\n"
            "  --backend VALUE         storage backend (default packed)\n"
            "  --count N               how many (default 12, in [2, 100])\n"
            "  --seed N                rng seed (default 1999)\n"
            "  --alpha X               smoothing weight (default 0.4, in "
            "[0, 1])\n");
}

TEST(FlagSetTest, CommandLineExitStatuses) {
  {
    Parsed p;
    char prog[] = "sub", help[] = "--help";
    char* argv[] = {prog, help};
    testing::internal::CaptureStdout();
    EXPECT_EQ(p.flags.ParseCommandLine(2, argv), 0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), p.flags.Usage());
  }
  {
    Parsed p;
    char prog[] = "sub", flag[] = "--count", value[] = "0";
    char* argv[] = {prog, flag, value};
    testing::internal::CaptureStderr();
    EXPECT_EQ(p.flags.ParseCommandLine(3, argv), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "error: --count must be in [2, 100], got '0'\n" +
                  p.flags.Usage());
  }
  {
    Parsed p;
    char prog[] = "sub", flag[] = "--count", value[] = "9";
    char* argv[] = {prog, flag, value};
    EXPECT_EQ(p.flags.ParseCommandLine(3, argv), std::nullopt);
    EXPECT_EQ(p.count, 9);
  }
}

}  // namespace
}  // namespace snakes
