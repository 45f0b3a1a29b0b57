// Core-parallel pushdown evaluation (DESIGN.md §13): the SoC filter work
// of a SELECT/AGGREGATE is split into fixed-size row chunks spread over
// the SoC cores, while the predicate, projection and fold run once in
// scan order. So the core count may change how long a scan takes, never
// what it returns: aggregates stay bit-identical, selects return the same
// rows in the same order, and the device.select.* counters agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "kvcsd/device.h"
#include "nvme/skey.h"
#include "sim/fault.h"

namespace kvcsd::device {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

// Eight 1024-row filter chunks, so four cores get two each.
constexpr std::uint64_t kKeys = 8192;
constexpr float kSelectFrom = 250.0f;  // sidx lower bound: ~37% of rows
constexpr float kAggBelow = 750.0f;    // aggregate predicate: ~87% of rows

// An unordered energy per key: odd keys in [0, 1000), even keys below
// 1e-4. The mix spans more exponents than a double's mantissa holds, so
// the sum rounds and depends on the order the values are added in.
float EnergyOf(std::uint64_t i) {
  const float e = static_cast<float>((i * 2654435761u) % 100003u) / 100.003f;
  return i % 2 == 1 ? e : e * 1e-7f;
}

// value = 28 pad bytes + f32 energy (little-endian) — the VPIC layout.
std::string EnergyValue(float energy) {
  std::string v(28, 'p');
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
}

struct Fixture {
  sim::Simulation sim;
  sim::FaultInjector faults{11};
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev;
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  explicit Fixture(std::uint32_t soc_cores)
      : dev(&sim, Config(soc_cores, &faults), &qp) {
    dev.Start();
  }

  static DeviceConfig Config(std::uint32_t soc_cores,
                             sim::FaultInjector* faults) {
    DeviceConfig c;
    c.zns.zone_size = MiB(1);
    c.zns.num_zones = 256;
    c.zns.nand.channels = 8;
    c.zns.faults = faults;
    c.dram_bytes = MiB(2);
    c.write_buffer_bytes = KiB(64);
    c.soc_cores = soc_cores;
    return c;
  }
};

// Loads kKeys energy records, compacts, and builds the "energy" index.
sim::Task<void> Load(client::Client* db) {
  auto ks = (co_await db->CreateKeyspace("par")).value();
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(MakeFixedKey(i), EnergyValue(EnergyOf(i))));
  }
  KVCSD_CO_ASSERT_OK(co_await ks.Compact());
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  KVCSD_CO_ASSERT_OK(co_await ks.CreateSecondaryIndexF32("energy", 28));
}

nvme::AggregateSpec EnergySum() {
  nvme::AggregateSpec agg;
  agg.func = nvme::AggregateFunc::kSum;
  agg.value_offset = 28;
  agg.value_length = 4;
  agg.type = nvme::SecondaryKeyType::kF32;
  return agg;
}

struct Outcome {
  nvme::AggregateResult agg;
  Tick agg_latency = 0;
  Rows full;       // index-driven select, whole records
  Rows projected;  // the same select, projected to the energy field
  Rows limited;    // the same select, capped past one chunk
  std::map<std::string, std::uint64_t> counters;  // device.select.*
};

sim::Task<void> Queries(client::Client* db, sim::Simulation* sim,
                        Outcome* out) {
  auto ks = co_await db->OpenKeyspace("par");
  KVCSD_CO_ASSERT_OK(ks);

  client::KeyspaceHandle::SelectOptions agg_opts;
  agg_opts.pred = nvme::PredicateF32(nvme::PredicateOp::kLt, 28, kAggBelow);
  const Tick begin = sim->Now();
  auto agg = co_await ks->Aggregate("", "\x7f", EnergySum(), agg_opts);
  out->agg_latency = sim->Now() - begin;
  KVCSD_CO_ASSERT_OK(agg);
  out->agg = *agg;

  client::KeyspaceHandle::SelectOptions opts;
  opts.index_name = "energy";
  const std::string lo = nvme::EncodeSecondaryF32(kSelectFrom);
  const std::string hi = nvme::EncodeSecondaryF32(INFINITY);
  KVCSD_CO_ASSERT_OK(co_await ks->Select(lo, hi, opts, &out->full));
  opts.proj.enabled = true;
  opts.proj.offset = 28;
  opts.proj.length = 4;
  KVCSD_CO_ASSERT_OK(co_await ks->Select(lo, hi, opts, &out->projected));
  opts.proj.enabled = false;
  opts.limit = 1500;
  KVCSD_CO_ASSERT_OK(co_await ks->Select(lo, hi, opts, &out->limited));

  for (const char* name :
       {"device.select.rows_scanned", "device.select.rows_matched",
        "device.select.bytes_scanned", "device.select.bytes_returned",
        "device.select.short_values"}) {
    out->counters[name] = sim->stats().counter_value(name);
  }
}

Outcome RunAt(std::uint32_t soc_cores) {
  Fixture f(soc_cores);
  testutil::RunSim(f.sim, Load(&f.db));
  Outcome out;
  testutil::RunSim(f.sim, Queries(&f.db, &f.sim, &out));
  return out;
}

// Bitwise equality, so -0.0 vs 0.0 or a last-ulp difference both fail.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(PushdownParallelTest, AnswersDoNotDependOnCoreCount) {
  // The host model: the energy < kAggBelow fold in primary-key order.
  nvme::AggregateResult want;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const double e = EnergyOf(i);
    if (e >= kAggBelow) continue;
    want.min = want.rows == 0 ? e : std::min(want.min, e);
    want.max = want.rows == 0 ? e : std::max(want.max, e);
    want.sum += e;
    ++want.rows;
  }
  ASSERT_GT(want.rows, 2 * 1024u);

  const Outcome one = RunAt(1);
  ASSERT_GT(one.full.size(), 2 * 1024u);
  ASSERT_EQ(one.limited.size(), 1500u);
  ASSERT_EQ(one.projected.size(), one.full.size());
  for (std::size_t i = 0; i < one.full.size(); ++i) {
    ASSERT_EQ(one.projected[i].first, one.full[i].first);
    ASSERT_EQ(one.projected[i].second, one.full[i].second.substr(28));
  }
  EXPECT_EQ(one.limited, Rows(one.full.begin(), one.full.begin() + 1500));
  EXPECT_EQ(one.agg.rows, want.rows);
  EXPECT_TRUE(SameBits(one.agg.min, want.min));
  EXPECT_TRUE(SameBits(one.agg.max, want.max));
  EXPECT_TRUE(SameBits(one.agg.sum, want.sum));

  for (std::uint32_t cores : {2u, 4u}) {
    SCOPED_TRACE(cores);
    const Outcome many = RunAt(cores);
    EXPECT_EQ(many.agg.rows, one.agg.rows);
    EXPECT_TRUE(SameBits(many.agg.min, one.agg.min));
    EXPECT_TRUE(SameBits(many.agg.max, one.agg.max));
    EXPECT_TRUE(SameBits(many.agg.sum, one.agg.sum));
    EXPECT_EQ(many.full, one.full);
    EXPECT_EQ(many.projected, one.projected);
    EXPECT_EQ(many.limited, one.limited);
  }
}

TEST(PushdownParallelTest, SelectCountersDoNotDependOnCoreCount) {
  const Outcome one = RunAt(1);
  // The aggregate scans every key and the predicate-free selects scan
  // the index range, but the limited one stops its scan at the limit.
  EXPECT_EQ(one.counters.at("device.select.rows_scanned"),
            kKeys + 2 * one.full.size() + 1500);
  for (std::uint32_t cores : {2u, 4u}) {
    SCOPED_TRACE(cores);
    EXPECT_EQ(RunAt(cores).counters, one.counters);
  }
}

TEST(PushdownParallelTest, AggregateLatencyFallsWithCores) {
  const Tick one = RunAt(1).agg_latency;
  const Tick two = RunAt(2).agg_latency;
  const Tick four = RunAt(4).agg_latency;
  EXPECT_LT(two, one);
  EXPECT_LT(four, two);
  EXPECT_LE(static_cast<double>(four), 0.45 * static_cast<double>(one))
      << "1 core " << one << " ns, 4 cores " << four << " ns";
}

TEST(PushdownParallelTest, MidScanCrashPointStillFires) {
  Fixture f(4);
  testutil::RunSim(f.sim, Load(&f.db));
  f.faults.ArmCrashAtPoint("select.mid_scan", 1);
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("par");
    KVCSD_CO_ASSERT_OK(ks);
    auto agg = co_await ks->Aggregate("", "\x7f", EnergySum());
    KVCSD_CO_ASSERT(agg.status().code() == StatusCode::kIoError);
  }(&f.db));
  EXPECT_TRUE(f.faults.crashed());
  EXPECT_EQ(f.faults.crash_point(), "select.mid_scan");
  // The scan stopped before any filter chunk ran.
  EXPECT_EQ(f.sim.stats().counter_value("device.select.rows_scanned"), 0u);
}

}  // namespace
}  // namespace kvcsd::device
