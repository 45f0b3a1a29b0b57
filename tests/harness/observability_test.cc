// Testbed observability wiring: what ObservabilityOptions reads from the
// flags, that a default testbed records nothing and writes no file, how
// dumps to one path are numbered across testbeds (and flight dumps across
// simulations), and that a sharded testbed writes a health page for every
// shard.
#include "harness/observability.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/sharded_testbed.h"
#include "harness/testbed.h"
#include "sim/simulation.h"

namespace kvcsd::harness {
namespace {

namespace fs = std::filesystem;

Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

// A fresh, empty directory for one test's dump files.
fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Result<JsonValue> ParseFile(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return ParseJson(text.str());
}

// One keyspace and one PUT: enough for the simulation to record spans.
sim::Task<void> PutOne(client::Client* db) {
  auto ks = co_await db->CreateKeyspace("ks");
  KVCSD_CO_ASSERT_OK(ks);
  KVCSD_CO_ASSERT_OK(co_await ks->Put("key", "value"));
}

TEST(ObservabilityOptionsTest, FromFlagsReadsTheSevenFlags) {
  const ObservabilityOptions o = ObservabilityOptions::FromFlags(MakeFlags(
      {"--trace=t.json", "--telemetry=m.json", "--telemetry_interval_us=250",
       "--health=h.json", "--flight_dump=f", "--flight_slo_us=40",
       "--flight_busy"}));
  EXPECT_EQ(o.trace_path, "t.json");
  EXPECT_EQ(o.telemetry_path, "m.json");
  EXPECT_EQ(o.telemetry_interval, Microseconds(250));
  EXPECT_EQ(o.health_path, "h.json");
  EXPECT_EQ(o.flight.dump_path, "f");
  EXPECT_EQ(o.flight.slo_exec_ns, Microseconds(40));
  EXPECT_TRUE(o.flight.dump_on_busy);
}

TEST(ObservabilityOptionsTest, DefaultTestbedRecordsNothingAndWritesNoFile) {
  const ObservabilityOptions o =
      ObservabilityOptions::FromFlags(MakeFlags({"--keys=10"}));
  EXPECT_TRUE(o.trace_path.empty());
  EXPECT_TRUE(o.telemetry_path.empty());
  EXPECT_TRUE(o.health_path.empty());
  EXPECT_TRUE(o.flight.dump_path.empty());
  EXPECT_EQ(o.flight.slo_exec_ns, 0u);
  EXPECT_FALSE(o.flight.dump_on_busy);

  // Every file a dump writes is reported on stdout.
  testing::internal::CaptureStdout();
  {
    TestbedConfig config = TestbedConfig::Scaled();
    config.observability = o;
    CsdTestbed bed(config);
    EXPECT_FALSE(bed.sim().tracer().enabled());
    EXPECT_FALSE(bed.sim().telemetry().enabled());
    testutil::RunSim(bed.sim(), PutOne(&bed.client()));
    EXPECT_EQ(bed.sim().tracer().size(), 0u);
    EXPECT_EQ(bed.sim().telemetry().size(), 0u);
  }
  {
    LsmTestbed bed(TestbedConfig::Scaled());
    EXPECT_FALSE(bed.sim().tracer().enabled());
    EXPECT_FALSE(bed.sim().telemetry().enabled());
  }
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

TEST(ObservabilityOptionsTest, DumpsToOnePathAreNumberedAcrossTestbeds) {
  const fs::path dir = FreshDir("observability_numbering");
  TestbedConfig config = TestbedConfig::Scaled();
  config.observability.trace_path = (dir / "run.trace.json").string();
  config.observability.telemetry_path = (dir / "run.telemetry.json").string();
  config.observability.health_path = (dir / "run.health.json").string();
  for (int i = 0; i < 2; ++i) {
    CsdTestbed bed(config);
    EXPECT_TRUE(bed.sim().tracer().enabled());
    testutil::RunSim(bed.sim(), PutOne(&bed.client()));
  }
  {
    // Never runs: no span and no sample, so no trace or telemetry file;
    // its device still has a health page.
    CsdTestbed idle(config);
  }
  for (const char* name : {"run.trace.json", "run.telemetry.json"}) {
    const fs::path first = dir / name;
    EXPECT_TRUE(ParseFile(first).ok()) << first;
    EXPECT_TRUE(ParseFile(first.string() + ".1").ok()) << first << ".1";
    EXPECT_FALSE(fs::exists(first.string() + ".2")) << first << ".2";
  }
  for (const char* suffix : {"", ".1", ".2"}) {
    const fs::path page = (dir / "run.health.json").string() + suffix;
    EXPECT_TRUE(ParseFile(page).ok()) << page;
  }
  EXPECT_FALSE(fs::exists((dir / "run.health.json").string() + ".3"));
}

TEST(ObservabilityOptionsTest, EachSimulationGetsItsOwnFlightDumpBase) {
  const fs::path dir = FreshDir("observability_flight_bases");
  ObservabilityOptions o;
  o.flight.dump_path = (dir / "run.flight").string();
  for (int i = 0; i < 2; ++i) {
    sim::Simulation sim;
    o.Attach(&sim);
    sim.flight().Dump("test");  // each simulation trips once
  }
  const fs::path files[] = {dir / "run.flight.1.json",
                            dir / "run.flight.1.1.json"};
  for (const fs::path& file : files) EXPECT_TRUE(ParseFile(file).ok()) << file;
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), fs::directory_iterator()),
            2);
  // The options themselves keep the path they were given.
  EXPECT_EQ(o.flight.dump_path, (dir / "run.flight").string());
}

TEST(ObservabilityOptionsTest, ShardedTestbedWritesOneHealthPagePerShard) {
  const fs::path dir = FreshDir("observability_sharded_health");
  const std::string path = (dir / "fleet.health.json").string();
  ShardedTestbedConfig config;
  config.num_shards = 2;
  config.shard.observability.health_path = path;
  {
    ShardedTestbed bed(config);
    testutil::RunSim(bed.sim(),
                     [](ShardedTestbed* b) -> sim::Task<void> {
                       auto ks = co_await b->router().CreateKeyspace("fleet");
                       KVCSD_CO_ASSERT_OK(ks);
                     }(&bed));
  }
  const std::string pages[] = {path, path + ".1"};
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    auto page = ParseFile(pages[shard]);
    ASSERT_TRUE(page.ok()) << pages[shard];
    const JsonValue* gauges = page->Find("gauges");
    ASSERT_NE(gauges, nullptr);
    // Built piecewise: "shard" + std::to_string(n) trips a false-positive
    // -Wrestrict in GCC 12 at -O3.
    std::string own = "shard";
    own += std::to_string(shard);
    own += '.';
    std::string other = "shard";
    other += std::to_string(1 - shard);
    other += '.';
    EXPECT_NE(gauges->Find(own + "device.inflight_cmds"), nullptr);
    EXPECT_NE(gauges->Find(own + "device.ks.fleet.state"), nullptr);
    EXPECT_EQ(gauges->Find(other + "device.inflight_cmds"), nullptr);
  }
  EXPECT_FALSE(fs::exists(path + ".2"));
}

}  // namespace
}  // namespace kvcsd::harness
