// Strict CLI validation shared by the daemons and examples: unknown
// flags must be rejected (usage + nonzero exit), not silently ignored
// — a mistyped --fault-strat=300 must not run a fault-free experiment.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "../examples/example_util.h"

namespace asdf::examples {
namespace {

int argcOf(std::initializer_list<const char*> args) {
  return static_cast<int>(args.size());
}

char** argvOf(std::vector<std::string>& storage,
              std::vector<char*>& ptrs,
              std::initializer_list<const char*> args) {
  storage.assign(args.begin(), args.end());
  ptrs.clear();
  for (std::string& s : storage) ptrs.push_back(s.data());
  return ptrs.data();
}

TEST(CheckFlags, AcceptsKnownFlagsInBothForms) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs,
                       {"prog", "--port=4588", "--verbose", "--seed=7"});
  EXPECT_TRUE(checkFlags(argcOf({"prog", "--port=4588", "--verbose",
                                 "--seed=7"}),
                         argv, {"port", "verbose", "seed"}, "usage\n"));
}

TEST(CheckFlags, RejectsUnknownFlag) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv =
      argvOf(storage, ptrs, {"prog", "--port=1", "--fault-strat=300"});
  EXPECT_FALSE(checkFlags(3, argv, {"port", "fault-start"}, "usage\n"));
}

TEST(CheckFlags, RejectsPrefixOfKnownFlag) {
  // Value lookups match by prefix, so validation must be exact: --sla
  // is not --slaves.
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs, {"prog", "--sla=4"});
  EXPECT_FALSE(checkFlags(2, argv, {"slaves"}, "usage\n"));
}

TEST(CheckFlags, RejectsPositionalAndSingleDashArguments) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs, {"prog", "serve"});
  EXPECT_FALSE(checkFlags(2, argv, {"port"}, "usage\n"));
  argv = argvOf(storage, ptrs, {"prog", "-port=1"});
  EXPECT_FALSE(checkFlags(2, argv, {"port"}, "usage\n"));
}

TEST(CheckFlags, ValidatesSubcommandFlagsPastPositionals) {
  // asdf_archive-style dispatch: "prog <command> <dir> [flags]" calls
  // checkFlags(argc - 2, argv + 2) so the dir positional sits in the
  // skipped element 0 and only real flags are validated.
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs,
                       {"asdf_archive", "query", "/tmp/a", "--node=3",
                        "--metric=cpu_user_pct", "--from=100", "--to=200"});
  EXPECT_TRUE(checkFlags(7 - 2, argv + 2,
                         {"node", "metric", "from", "to", "resolution",
                          "csv"},
                         "usage\n"));
  argv = argvOf(storage, ptrs,
                {"asdf_archive", "query", "/tmp/a", "--node=3",
                 "--metrc=cpu_user_pct"});
  EXPECT_FALSE(checkFlags(5 - 2, argv + 2,
                          {"node", "metric", "from", "to", "resolution",
                           "csv"},
                          "usage\n"));
  // A stray second positional after the dir is rejected too.
  argv = argvOf(storage, ptrs, {"asdf_archive", "verify", "/tmp/a", "extra"});
  EXPECT_FALSE(checkFlags(4 - 2, argv + 2, {}, "usage\n"));
}

// --shards is parsed strictly (asdf_rpcd / asdf_aggd): a daemon
// silently running single-shard when the operator asked for 8 would be
// a perf bug nobody notices, so anything but a positive integer in
// range is a hard startup error.
TEST(ParseShards, DefaultsToOneWhenAbsent) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs, {"prog", "--port=1"});
  int shards = -1;
  EXPECT_TRUE(parseShards(2, argv, shards));
  EXPECT_EQ(shards, 1);
}

TEST(ParseShards, AcceptsPositiveIntegersUpToTheCap) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int shards = 0;
  char** argv = argvOf(storage, ptrs, {"prog", "--shards=4"});
  EXPECT_TRUE(parseShards(2, argv, shards));
  EXPECT_EQ(shards, 4);
  argv = argvOf(storage, ptrs, {"prog", "--shards=1"});
  EXPECT_TRUE(parseShards(2, argv, shards));
  EXPECT_EQ(shards, 1);
  argv = argvOf(storage, ptrs, {"prog", "--shards=64"});
  EXPECT_TRUE(parseShards(2, argv, shards));
  EXPECT_EQ(shards, 64);
}

TEST(ParseShards, RejectsZeroNegativeNonNumericAndOverCap) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  for (const char* bad :
       {"--shards=0", "--shards=-2", "--shards=two", "--shards=4x",
        "--shards=", "--shards=65", "--shards=1e3"}) {
    int shards = 0;
    char** argv = argvOf(storage, ptrs, {"prog", bad});
    EXPECT_FALSE(parseShards(2, argv, shards)) << bad;
  }
}

// parseBoundedInt is the generic strict parser parseShards is built on
// and the topology flags (--racks / --nodes-per-rack / --uplink-gbps)
// use directly: absent falls back, present must be a clean in-range
// integer.
TEST(ParseBoundedInt, AbsentFlagFallsBack) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs, {"prog", "--other=9"});
  long out = -1;
  EXPECT_TRUE(parseBoundedInt(2, argv, "racks", 1, 1024, 3, out));
  EXPECT_EQ(out, 3);
}

TEST(ParseBoundedInt, AcceptsBoundaryValues) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  long out = 0;
  char** argv = argvOf(storage, ptrs, {"prog", "--racks=1"});
  EXPECT_TRUE(parseBoundedInt(2, argv, "racks", 1, 1024, 3, out));
  EXPECT_EQ(out, 1);
  argv = argvOf(storage, ptrs, {"prog", "--racks=1024"});
  EXPECT_TRUE(parseBoundedInt(2, argv, "racks", 1, 1024, 3, out));
  EXPECT_EQ(out, 1024);
  // Zero is fine when the range admits it (--nodes-per-rack=0 derives).
  argv = argvOf(storage, ptrs, {"prog", "--nodes-per-rack=0"});
  EXPECT_TRUE(parseBoundedInt(2, argv, "nodes-per-rack", 0, 1024, 0, out));
  EXPECT_EQ(out, 0);
}

TEST(ParseBoundedInt, RejectsMalformedAndOutOfRangeValues) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  for (const char* bad :
       {"--racks", "--racks=", "--racks=0", "--racks=-3", "--racks=two",
        "--racks=4x", "--racks=1025", "--racks=1e2"}) {
    long out = -1;
    char** argv = argvOf(storage, ptrs, {"prog", bad});
    EXPECT_FALSE(parseBoundedInt(2, argv, "racks", 1, 1024, 3, out)) << bad;
  }
}

TEST(ParseBoundedInt, LastOccurrenceWins) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv =
      argvOf(storage, ptrs, {"prog", "--racks=2", "--racks=5"});
  long out = 0;
  EXPECT_TRUE(parseBoundedInt(3, argv, "racks", 1, 1024, 3, out));
  EXPECT_EQ(out, 5);
}

// flagInt / flagDouble / flagPort read every numeric flag of the
// daemons, examples, tools and benches by parseBoundedInt's rules, and
// exit 2 naming the flag instead of returning a partial or wrapped
// value: --slaves=abc used to run with 0 slaves, --ticks=5O with 5
// ticks, and --port=70000 served on port 4464.
TEST(NumericFlag, ReadsWholeValuesAndFallsBackWhenAbsent) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs,
                       {"prog", "--slaves=12", "--seed=-3", "--scale=2.5",
                        "--rate=1e6", "--port=65535", "--listen=0"});
  EXPECT_EQ(flagInt(7, argv, "slaves", 4), 12);
  EXPECT_EQ(flagInt(7, argv, "seed", 42), -3);
  EXPECT_EQ(flagInt(7, argv, "threads", 4), 4);
  EXPECT_DOUBLE_EQ(flagDouble(7, argv, "scale", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(flagDouble(7, argv, "rate", 0.0), 1e6);
  EXPECT_DOUBLE_EQ(flagDouble(7, argv, "duration", 600.0), 600.0);
  EXPECT_EQ(flagPort(7, argv, "port", 4588), 65535);
  EXPECT_EQ(flagPort(7, argv, "listen", 4588), 0);
  EXPECT_EQ(flagPort(7, argv, "absent", 4588), 4588);
}

TEST(NumericFlagDeathTest, MalformedIntegerExitsTwoNamingTheFlag) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  for (const char* bad : {"--slaves=abc", "--slaves=5O", "--slaves=",
                          "--slaves", "--slaves=2.5",
                          "--slaves=99999999999999999999"}) {
    char** argv = argvOf(storage, ptrs, {"prog", bad});
    EXPECT_EXIT(flagInt(2, argv, "slaves", 16), ::testing::ExitedWithCode(2),
                "--slaves must be an integer")
        << bad;
  }
}

TEST(NumericFlagDeathTest, MalformedNumberExitsTwoNamingTheFlag) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  for (const char* bad : {"--scale=fast", "--scale=2x", "--scale=",
                          "--scale", "--scale=nan", "--scale=inf",
                          "--scale=1e999"}) {
    char** argv = argvOf(storage, ptrs, {"prog", bad});
    EXPECT_EXIT(flagDouble(2, argv, "scale", 20.0),
                ::testing::ExitedWithCode(2), "--scale must be a number")
        << bad;
  }
}

TEST(NumericFlagDeathTest, PortPastTheRangeExitsTwoNamingTheFlag) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  for (const char* bad : {"--port=70000", "--port=65536", "--port=-1"}) {
    char** argv = argvOf(storage, ptrs, {"prog", bad});
    EXPECT_EXIT(flagPort(2, argv, "port", 4588), ::testing::ExitedWithCode(2),
                "--port must be an integer in \\[0, 65535\\]")
        << bad;
  }
}

// --groups and --channels read comma-separated lists item by item by
// parseBoundedInt's rules: "--groups=4x,4" used to read 4 and a
// non-numeric item 0.
TEST(NumericFlag, ReadsIntegerListsAndFallsBackWhenAbsent) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs, {"prog", "--groups=4,4,2",
                                       "--channels=64"});
  EXPECT_EQ(flagIntList(3, argv, "groups", 1, 100, {}),
            (std::vector<long>{4, 4, 2}));
  EXPECT_EQ(flagIntList(3, argv, "channels", 1, 1024, {1, 8}),
            (std::vector<long>{64}));
  EXPECT_EQ(flagIntList(3, argv, "absent", 1, 1024, {1, 8, 64}),
            (std::vector<long>{1, 8, 64}));
}

TEST(NumericFlagDeathTest, MalformedListItemExitsTwoNamingTheFlag) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  for (const char* bad : {"--groups=4x,4", "--groups=4,x", "--groups=4,,4",
                          "--groups=4,", "--groups=", "--groups",
                          "--groups=4,0", "--groups=4,101", "--groups=2.5"}) {
    char** argv = argvOf(storage, ptrs, {"prog", bad});
    EXPECT_EXIT(flagIntList(2, argv, "groups", 1, 100, {}),
                ::testing::ExitedWithCode(2),
                "--groups item must be an integer in \\[1, 100\\]")
        << bad;
  }
}

TEST(CheckFlags, AcceptsEmptyCommandLine) {
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  char** argv = argvOf(storage, ptrs, {"prog"});
  EXPECT_TRUE(checkFlags(1, argv, {"port"}, "usage\n"));
}

}  // namespace
}  // namespace asdf::examples
