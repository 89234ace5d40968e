// Tests for the declarative flag table (harness/flags.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/flags.hpp"

namespace rlb::harness {
namespace {

/// Run try_parse over `args` (argv[0] = "/bin/prog").
Flags::Outcome run(Flags& flags, std::vector<const char*> args,
                   std::string& message) {
  args.insert(args.begin(), "/bin/prog");
  return flags.try_parse(static_cast<int>(args.size()), args.data(), message);
}

/// Environment variable set for one test's lifetime.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Flags, ParsesTypedValues) {
  std::uint64_t m = 64;
  std::uint16_t port = 4117;
  double p = 0.5;
  std::string host = "127.0.0.1";
  bool repair = false;
  Flags flags;
  flags.num("--m", "servers", "servers", m)
      .num("--port", "p", "port", port)
      .num("--p", "p", "probability", p, 0.0, 1.0)
      .text("--host", "addr", "host", host)
      .toggle("--repair", "repair", repair);
  std::string message;
  ASSERT_EQ(run(flags,
                {"--m", "128", "--port", "0", "--p", "0.25", "--host", "h",
                 "--repair"},
                message),
            Flags::Outcome::kOk)
      << message;
  EXPECT_EQ(m, 128u);
  EXPECT_EQ(port, 0u);
  EXPECT_DOUBLE_EQ(p, 0.25);
  EXPECT_EQ(host, "h");
  EXPECT_TRUE(repair);
}

TEST(Flags, RejectsWithOneLineNamingTheFlag) {
  std::uint64_t m = 64;
  std::uint16_t port = 4117;
  std::uint64_t heartbeat = 100;
  Flags flags;
  flags.num("--m", "servers", "servers", m)
      .num("--port", "p", "port", port)
      .num("--heartbeat-ms", "ms", "period", heartbeat, 1);
  const struct {
    std::vector<const char*> args;
    const char* message;
  } cases[] = {
      {{"--m"}, "prog: --m: missing value <servers>"},
      {{"--port", "abc"}, "prog: --port: 'abc' is not a non-negative integer"},
      {{"--m", "-1"}, "prog: --m: '-1' is not a non-negative integer"},
      {{"--m", " 5"}, "prog: --m: ' 5' is not a non-negative integer"},
      {{"--port", "70000"}, "prog: --port: '70000' is above the maximum 65535"},
      {{"--m", "99999999999999999999"},
       "prog: --m: '99999999999999999999' is above the maximum "
       "18446744073709551615"},
      {{"--heartbeat-ms", "0"},
       "prog: --heartbeat-ms: '0' is below the minimum 1"},
      {{"--fail-rte", "0.1"}, "prog: --fail-rte: unknown flag (see --help)"},
      {{"extra"}, "prog: extra: unknown flag (see --help)"},
  };
  for (const auto& c : cases) {
    std::string message;
    EXPECT_EQ(run(flags, c.args, message), Flags::Outcome::kError)
        << c.message;
    EXPECT_EQ(message, c.message);
  }
  EXPECT_EQ(m, 64u);
  EXPECT_EQ(port, 4117u);
  EXPECT_EQ(heartbeat, 100u);
}

TEST(Flags, RealValuesAreCheckedToo) {
  double rate = 0.0;
  Flags flags;
  flags.num("--p", "p", "probability", rate, 0.0, 1.0);
  std::string message;
  EXPECT_EQ(run(flags, {"--p", "1.5"}, message), Flags::Outcome::kError);
  EXPECT_EQ(message, "prog: --p: '1.5' is above the maximum 1");
  EXPECT_EQ(run(flags, {"--p", "0.5x"}, message), Flags::Outcome::kError);
  EXPECT_EQ(message, "prog: --p: '0.5x' is not a number");
  EXPECT_EQ(run(flags, {"--p", "nan"}, message), Flags::Outcome::kError);
  EXPECT_EQ(message, "prog: --p: 'nan' is not a number");
}

TEST(Flags, RepeatableFlagCollectsEveryValue) {
  std::vector<std::string> span_files;
  Flags flags;
  flags.list("--span-file", "path", "span JSONL", span_files);
  std::string message;
  ASSERT_EQ(run(flags, {"--span-file", "a.jsonl", "--span-file", "b.jsonl"},
                message),
            Flags::Outcome::kOk);
  EXPECT_EQ(span_files, (std::vector<std::string>{"a.jsonl", "b.jsonl"}));
}

TEST(Flags, OptionalOperandIsTakenOnlyWhenItIsNotAFlag) {
  bool watch = false;
  std::string operand = "unset";
  bool json = false;
  const auto make = [&](Flags& flags) {
    flags
        .custom("--watch", "s", "refresh period", "",
                [&](const std::string& value) {
                  watch = true;
                  operand = value;
                  return std::string();
                })
        .optional_value()
        .toggle("--json", "json", json);
  };
  std::string message;
  {
    Flags flags;
    make(flags);
    ASSERT_EQ(run(flags, {"--watch", "5", "--json"}, message),
              Flags::Outcome::kOk);
    EXPECT_TRUE(watch);
    EXPECT_EQ(operand, "5");
    EXPECT_TRUE(json);
  }
  {
    watch = false;
    json = false;
    Flags flags;
    make(flags);
    ASSERT_EQ(run(flags, {"--watch", "--json"}, message), Flags::Outcome::kOk);
    EXPECT_TRUE(watch);
    EXPECT_EQ(operand, "");
    EXPECT_TRUE(json);
  }
  {
    watch = false;
    Flags flags;
    make(flags);
    ASSERT_EQ(run(flags, {"--watch"}, message), Flags::Outcome::kOk);
    EXPECT_TRUE(watch);
    EXPECT_EQ(operand, "");
  }
}

TEST(Flags, EnvironmentFirstThenTheFlagOverrides) {
  const ScopedEnv env("RLB_FLAGS_TEST_SEED", "7");
  const ScopedEnv on("RLB_FLAGS_TEST_ON", "1");
  const ScopedEnv off("RLB_FLAGS_TEST_OFF", "0");
  std::uint64_t seed = 1;
  bool on_flag = false;
  bool off_flag = false;
  const auto make = [&](Flags& flags) {
    flags.num("--seed", "s", "seed", seed)
        .env("RLB_FLAGS_TEST_SEED")
        .toggle("--on", "on", on_flag)
        .env("RLB_FLAGS_TEST_ON")
        .toggle("--off", "off", off_flag)
        .env("RLB_FLAGS_TEST_OFF");
  };
  std::string message;
  {
    Flags flags;
    make(flags);
    ASSERT_EQ(run(flags, {}, message), Flags::Outcome::kOk);
    EXPECT_EQ(seed, 7u);
    EXPECT_TRUE(on_flag);
    EXPECT_FALSE(off_flag);
  }
  {
    Flags flags;
    make(flags);
    ASSERT_EQ(run(flags, {"--seed", "9"}, message), Flags::Outcome::kOk);
    EXPECT_EQ(seed, 9u);
  }
  {
    const ScopedEnv bad("RLB_FLAGS_TEST_SEED", "x");
    Flags flags;
    make(flags);
    EXPECT_EQ(run(flags, {}, message), Flags::Outcome::kError);
    EXPECT_EQ(message,
              "prog: RLB_FLAGS_TEST_SEED: 'x' is not a non-negative integer");
  }
}

TEST(Flags, TypedValuesFailBeforeAnyCustomParseRuns) {
  std::uint16_t port = 4117;
  int custom_runs = 0;
  Flags flags;
  flags
      .custom("--json", "path", "json", "",
              [&](const std::string&) {
                ++custom_runs;
                return std::string();
              })
      .num("--port", "p", "port", port);
  std::string message;
  EXPECT_EQ(run(flags, {"--json", "x.json", "--port", "70000"}, message),
            Flags::Outcome::kError);
  EXPECT_EQ(custom_runs, 0);
}

TEST(Flags, CustomParseReasonIsReported) {
  Flags flags;
  flags.custom("--backends", "list", "endpoints", "",
               [](const std::string& value) {
                 return value == "ok" ? std::string()
                                      : "bad endpoint '" + value + "'";
               });
  std::string message;
  EXPECT_EQ(run(flags, {"--backends", "ok"}, message), Flags::Outcome::kOk);
  EXPECT_EQ(run(flags, {"--backends", "x"}, message), Flags::Outcome::kError);
  EXPECT_EQ(message, "prog: --backends: bad endpoint 'x'");
}

TEST(Flags, PassThroughForwardsPrefixedArguments) {
  std::vector<std::string> forwarded;
  std::string json;
  Flags flags;
  flags.text("--json", "path", "json", json)
      .pass_through("--benchmark_", "google-benchmark", forwarded);
  std::string message;
  ASSERT_EQ(run(flags,
                {"--benchmark_filter=x", "--json", "o.json",
                 "--benchmark_min_time=0.1"},
                message),
            Flags::Outcome::kOk);
  EXPECT_EQ(json, "o.json");
  EXPECT_EQ(forwarded, (std::vector<std::string>{"--benchmark_filter=x",
                                                 "--benchmark_min_time=0.1"}));
}

TEST(Flags, HelpListsEveryDeclaredFlagExactlyOnce) {
  std::uint64_t m = 64;
  std::string policy = "greedy";
  bool repair = false;
  std::vector<std::string> files;
  Flags flags("A test binary.");
  flags.num("--m", "servers", "total servers", m)
      .text("--policy", "name", "routing policy", policy)
      .toggle("--repair", "enable repair", repair)
      .env("RLB_REPAIR")
      .list("--span-file", "path", "spans", files)
      .action("--probes", "probe table", [] {});
  std::string message;
  ASSERT_EQ(run(flags, {"--m", "3", "--help"}, message), Flags::Outcome::kHelp);
  EXPECT_EQ(m, 64u);  // help returns before any flag takes effect
  EXPECT_EQ(message.rfind("usage: prog [flags]\nA test binary.\n", 0), 0u);
  for (const std::string name :
       {"--m", "--policy", "--repair", "--span-file", "--probes", "--help"}) {
    const std::string token = " " + name + " ";
    const std::size_t first = message.find(token);
    ASSERT_NE(first, std::string::npos) << name;
    EXPECT_EQ(message.find(token, first + 1), std::string::npos) << name;
  }
  EXPECT_NE(message.find("--m <servers>"), std::string::npos);
  EXPECT_NE(message.find("total servers (default 64)"), std::string::npos);
  EXPECT_NE(message.find("(default greedy)"), std::string::npos);
  EXPECT_NE(message.find("[env RLB_REPAIR]"), std::string::npos);
  EXPECT_EQ(run(flags, {"-h"}, message), Flags::Outcome::kHelp);
}

TEST(Flags, DeclaringANameTwiceIsRejected) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Flags flags;
  flags.num("--d", "n", "replication", a);
  EXPECT_THROW(flags.num("--d", "n", "again", b), std::logic_error);
  EXPECT_THROW(flags.num("--help", "n", "reserved", b), std::logic_error);
}

}  // namespace
}  // namespace rlb::harness
