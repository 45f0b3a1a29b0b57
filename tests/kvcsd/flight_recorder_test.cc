// The simulation's flight recorder seen from the device path (DESIGN.md
// §14): every completed command lands in the one Simulation-owned ring,
// an SLO rule or a power cut dumps it, and because the Simulation owns it
// the ring survives Device::Restart and holds every shard of a fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "harness/sharded_testbed.h"
#include "kvcsd/device.h"
#include "sim/fault.h"
#include "sim/flight_recorder.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = KiB(256);
  c.zns.num_zones = 64;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(2);
  c.output_batch_bytes = KiB(16);
  return c;
}

// Same restartable fixture shape as observability_test.cc.
struct Fixture {
  sim::Simulation sim;
  sim::FaultInjector faults{11};
  DeviceConfig cfg;
  std::vector<std::unique_ptr<nvme::QueueSet>> qps;
  std::vector<std::unique_ptr<Device>> devs;
  sim::CpuPool host{&sim, "host", 8};
  std::unique_ptr<client::Client> db;

  explicit Fixture(sim::FlightRecorder::Options flight = {})
      : cfg(SmallDevice()) {
    sim.flight().set_options(std::move(flight));
    cfg.zns.faults = &faults;
    qps.push_back(std::make_unique<nvme::QueueSet>(&sim, nvme::PcieConfig{}));
    devs.push_back(std::make_unique<Device>(&sim, cfg, qps.back().get()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }

  Device* dev() { return devs.back().get(); }

  void Restart() {
    qps.push_back(std::make_unique<nvme::QueueSet>(&sim, nvme::PcieConfig{}));
    devs.push_back(
        Device::Restart(&sim, cfg, qps.back().get(), *devs.back()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }
};

sim::Task<void> PutSome(client::Client* db, const std::string& name,
                        std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(
        co_await ks->Put(MakeFixedKey(i), "v" + std::to_string(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// Best-effort writes for crashing runs: statuses are ignored because the
// power cut fails everything in flight.
sim::Task<void> PutIgnoringErrors(client::Client* db, const std::string& name,
                                  std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  if (!ks.ok()) co_return;
  for (std::uint64_t i = 0; i < count; ++i) {
    (void)co_await ks->Put(MakeFixedKey(i), "v" + std::to_string(i));
  }
  (void)co_await ks->Sync();
}

using Kind = sim::FlightRecorder::Entry::Kind;

std::size_t CountCommands(const sim::FlightRecorder& flight) {
  std::size_t n = 0;
  for (const auto& e : flight.Entries()) n += e.kind == Kind::kCommand;
  return n;
}

// The "tick" of every entry in a dump, in document order.
std::vector<Tick> DumpEntryTicks(const std::string& dump) {
  std::vector<Tick> ticks;
  const std::string key = "\"tick\": ";
  std::size_t pos = dump.find("\"entries\"");
  while ((pos = dump.find("{\"seq\": ", pos)) != std::string::npos) {
    pos = dump.find(key, pos) + key.size();
    ticks.push_back(std::stoull(dump.substr(pos)));
  }
  return ticks;
}

TEST(FlightRecorderDeviceTest, SloBreachTripsDumpAndCounter) {
  sim::FlightRecorder::Options flight;
  flight.slo_exec_ns = 1;  // every command breaches
  // A dump path makes every trip also land on disk (<path>.<trip>.json) —
  // the files CI uploads as artifacts when a job fails.
  flight.dump_path = "flight_recorder_test.flight";
  Fixture f(flight);
  testutil::RunSim(f.sim, PutSome(f.db.get(), "slo", 20));

  const sim::FlightRecorder& rec = f.sim.flight();
  EXPECT_GT(rec.trips(), 0u);
  // One trip count: the health gauge reads the recorder's.
  EXPECT_EQ(f.dev()->BuildHealthPage().Gauge("device.flight.trips"),
            rec.trips());
  const std::string& dump = rec.last_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"slo_exec\""), std::string::npos);
  EXPECT_NE(dump.find("\"utilization\""), std::string::npos);
  EXPECT_NE(dump.find("util.dispatch.dispatch"), std::string::npos);

  std::ifstream on_disk("flight_recorder_test.flight." +
                        std::to_string(rec.trips()) + ".json");
  ASSERT_TRUE(on_disk.good());
  std::string file_dump((std::istreambuf_iterator<char>(on_disk)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(file_dump, dump);
}

TEST(FlightRecorderDeviceTest, SweptCrashPointDumpsAndRingSurvivesRestart) {
  // Warm up once without faults armed to learn how many crash points the
  // workload hits, then re-run with the cut armed mid-sweep.
  std::uint64_t hits = 0;
  {
    Fixture warm;
    testutil::RunSim(warm.sim, PutSome(warm.db.get(), "cp", 40));
    hits = warm.faults.hits();
  }
  ASSERT_GT(hits, 0u);

  Fixture f;
  f.faults.ArmCrashAtHit(hits / 2 + 1);
  testutil::RunSim(f.sim, PutIgnoringErrors(f.db.get(), "cp", 40));
  ASSERT_TRUE(f.faults.crashed());
  EXPECT_FALSE(f.faults.crash_point().empty());

  // The injector dumped the ring with the crash point attached.
  const sim::FlightRecorder& rec = f.sim.flight();
  EXPECT_GE(rec.trips(), 1u);
  const std::string dump = rec.last_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find(f.faults.crash_point()), std::string::npos);

  // The ring outlives the device: pre-crash entries stay readable and
  // post-restart commands append after them.
  const std::uint64_t before = rec.total_written();
  ASSERT_GT(before, 0u);
  const Tick last_precrash_tick = rec.Entries().back().tick;
  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim, PutSome(f.db.get(), "cp2", 10));
  EXPECT_GT(rec.total_written(), before);
  // Sim time is monotonic across the power cycle, so new entries sort
  // after the pre-crash tail.
  EXPECT_GT(rec.Entries().back().tick, last_precrash_tick);
}

// A power cut yields exactly one dump, and it holds both the commands that
// ran before the cut and the injector's crash-point and power-cut
// breadcrumbs, all in one tick order.
TEST(FlightRecorderDeviceTest, PowerCutDumpsCommandsAndBreadcrumbsInOrder) {
  Fixture f;
  f.faults.ArmCrashAtPoint("flush.between_logs", 2);
  testutil::RunSim(f.sim, PutIgnoringErrors(f.db.get(), "cut", 400));
  ASSERT_TRUE(f.faults.crashed());

  const sim::FlightRecorder& rec = f.sim.flight();
  EXPECT_EQ(rec.trips(), 1u);
  const std::string& dump = rec.last_dump();
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find("\"crash_point\": \"flush.between_logs\""),
            std::string::npos);
  const std::size_t tripped =
      dump.find("crash point 'flush.between_logs' tripped");
  const std::size_t cut = dump.find("power cut at 'flush.between_logs'");
  ASSERT_NE(tripped, std::string::npos);
  ASSERT_NE(cut, std::string::npos);
  EXPECT_LT(tripped, cut);
  // Acknowledged puts precede the breadcrumbs.
  const std::size_t first_cmd = dump.find("\"kind\": \"cmd\"");
  ASSERT_NE(first_cmd, std::string::npos);
  EXPECT_LT(first_cmd, tripped);
  EXPECT_NE(dump.find("\"op\": \"kv_store\""), std::string::npos);

  const std::vector<Tick> ticks = DumpEntryTicks(dump);
  ASSERT_GT(ticks.size(), 2u);
  EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end()));
}

// One ring per simulation: a 2-shard fleet records both shards' commands
// in it, and a dump's utilization reads the live devices — including the
// incarnation that replaced a power-cycled one.
TEST(FlightRecorderDeviceTest, OneRingHoldsEveryShardAndTheLiveDevice) {
  harness::ShardedTestbedConfig config;
  config.shard.device = SmallDevice();
  config.num_shards = 2;
  harness::ShardedTestbed bed(config);
  testutil::RunSim(bed.sim(),
                   [](harness::ShardedTestbed* b) -> sim::Task<void> {
                     auto ks = co_await b->router().CreateKeyspace("fleet");
                     KVCSD_CO_ASSERT_OK(ks);
                     for (std::uint64_t i = 0; i < 32; ++i) {
                       KVCSD_CO_ASSERT_OK(co_await ks->Put(
                           MakeFixedKey(i), "v" + std::to_string(i)));
                     }
                   }(&bed));
  std::uint64_t per_shard[2] = {0, 0};
  for (std::uint32_t i = 0; i < 2; ++i) {
    const std::string p = "shard" + std::to_string(i) + ".device.cmd.";
    per_shard[i] = bed.sim().stats().counter_value(p + "kv_store") +
                   bed.sim().stats().counter_value(p + "keyspace_create");
    EXPECT_GT(per_shard[i], 0u) << "shard " << i << " saw no commands";
  }
  EXPECT_EQ(CountCommands(bed.sim().flight()), per_shard[0] + per_shard[1]);
  const std::string fleet = bed.sim().flight().Dump("probe");
  EXPECT_NE(fleet.find("shard0.device.ks.fleet.num_kvs"), std::string::npos);
  EXPECT_NE(fleet.find("shard1.device.ks.fleet.num_kvs"), std::string::npos);

  // After a power cycle the dump shows the new incarnation: only it has
  // the keyspace created after the restart.
  Fixture f;
  testutil::RunSim(f.sim, PutSome(f.db.get(), "before", 10));
  f.faults.Crash();
  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim, PutSome(f.db.get(), "after", 10));
  const std::string live = f.sim.flight().Dump("probe");
  EXPECT_NE(live.find("\"device.ks.after.num_kvs\": 10"), std::string::npos);
  EXPECT_NE(live.find("\"device.ks.before.num_kvs\": 10"),
            std::string::npos);
}

}  // namespace
}  // namespace kvcsd::device
