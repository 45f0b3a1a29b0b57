// In-device query pushdown (DESIGN.md §13): SELECT with value predicates,
// byte-range projection, and count/min/max/sum aggregation. Covers the
// happy paths plus the edge cases the wire format makes possible:
// predicates over values too short to hold the attribute, projections past
// the value end, aggregates over zero matches, pushdown against a keyspace
// with a live delta (tombstones must not count), a PUT and a fold commit
// landing while a select's filter runs, and a power cut in the middle of a
// select scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
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

DeviceConfig SmallDevice() {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);
  return c;
}

struct CsdFixture {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev{&sim, SmallDevice(), &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  CsdFixture() { dev.Start(); }

  // value = 28 pad bytes + f32 energy (little-endian) — the VPIC layout.
  static std::string EnergyValue(float energy) {
    std::string v(28, 'p');
    char buf[4];
    std::memcpy(buf, &energy, 4);
    v.append(buf, 4);
    return v;
  }
};

// Loads keys [0, count) with EnergyValue(i) and compacts.
sim::Task<client::KeyspaceHandle> LoadCompacted(client::Client* db,
                                                const std::string& name,
                                                std::uint64_t count) {
  auto ks = (co_await db->CreateKeyspace(name)).value();
  for (std::uint64_t i = 0; i < count; ++i) {
    auto put =
        co_await ks.Put(MakeFixedKey(i), CsdFixture::EnergyValue(
                                             static_cast<float>(i)));
    EXPECT_TRUE(put.ok());
  }
  EXPECT_TRUE((co_await ks.Compact()).ok());
  EXPECT_TRUE((co_await ks.WaitCompaction()).ok());
  co_return ks;
}

nvme::AggregateSpec EnergyAgg(nvme::AggregateFunc func) {
  nvme::AggregateSpec agg;
  agg.func = func;
  agg.value_offset = 28;
  agg.value_length = 4;
  agg.type = nvme::SecondaryKeyType::kF32;
  return agg;
}

// --------------------------------------------------------------------------
// Baseline: a primary-range select with an energy predicate returns exactly
// the host-model rows, and only those bytes cross the link.
// --------------------------------------------------------------------------
TEST(PushdownTest, SelectFiltersOnDevice) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 500;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "sel", kKeys);

    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 400.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 100);  // energies 400..499
    for (std::uint64_t i = 0; i < rows.size(); ++i) {
      KVCSD_CO_ASSERT(rows[i].first == MakeFixedKey(400 + i));
      KVCSD_CO_ASSERT(rows[i].second ==
                      CsdFixture::EnergyValue(static_cast<float>(400 + i)));
    }

    // Device-side accounting: every value was scanned, 1/5 matched.
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.rows_scanned") == kKeys);
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.rows_matched") == 100);
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.bytes_scanned") ==
        kKeys * 32);

    // A limit caps matches, not scanned rows.
    opts.limit = 7;
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 7);
    KVCSD_CO_ASSERT(rows[0].first == MakeFixedKey(400));

    // Futures variant agrees with the sync one.
    opts.limit = 0;
    auto fut = co_await ks.SelectAsync("", "\x7f", opts);
    auto async_rows = co_await fut.Await();
    KVCSD_CO_ASSERT_OK(async_rows);
    KVCSD_CO_ASSERT(async_rows->size() == 100);
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Secondary-index-driven pushdown: the sidx narrows the scan, the predicate
// filters on a *different* byte range of the value.
// --------------------------------------------------------------------------
TEST(PushdownTest, SelectThroughSecondaryIndex) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 400;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("sidx")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      // Pad byte differs for even/odd keys so a bytes-predicate can split
      // the sidx window in half.
      std::string v(28, i % 2 == 0 ? 'e' : 'o');
      const float energy = static_cast<float>(i);
      char buf[4];
      std::memcpy(buf, &energy, 4);
      v.append(buf, 4);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), v));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks.CreateSecondaryIndexF32("energy", 28));

    // Sidx window [100, 200) = 100 rows; even pad keeps 50 of them.
    client::KeyspaceHandle::SelectOptions opts;
    opts.index_name = "energy";
    opts.pred = nvme::PredicateBytes(nvme::PredicateOp::kEq, 0, "e");
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select(
        nvme::EncodeSecondaryF32(100.0f), nvme::EncodeSecondaryF32(199.5f),
        opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 50);
    for (const auto& [key, value] : rows) {
      KVCSD_CO_ASSERT(value[0] == 'e');
    }

    // Same window, aggregated: count matches without shipping any rows.
    auto agg = co_await ks.Aggregate(nvme::EncodeSecondaryF32(100.0f),
                                     nvme::EncodeSecondaryF32(199.5f),
                                     EnergyAgg(nvme::AggregateFunc::kCount),
                                     opts);
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == 50);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: predicate over a value shorter than the attribute window.
// Short values can never match — they are skipped, counted, and must not
// fail the command.
// --------------------------------------------------------------------------
TEST(PushdownTest, PredicateOverShortValue) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("short")).value();
    // 10 full-width records, 5 short ones (too short for offset 28 + 4).
    for (std::uint64_t i = 0; i < 10; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
    }
    for (std::uint64_t i = 10; i < 15; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), "tiny"));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // energy >= 0 matches every full-width record but no short one, even
    // though the predicate itself accepts the minimum f32.
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 0.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 10);
    KVCSD_CO_ASSERT(
        sim->stats().counter_value("device.select.short_values") == 5);

    // Aggregating over the same predicate: the 5 short values are not rows.
    auto agg = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kSum), opts);
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == 10);
    KVCSD_CO_ASSERT(agg->valid);
    KVCSD_CO_ASSERT(agg->sum == 45.0);  // 0+1+...+9
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Edge case: projection range past the value end. The device clamps rather
// than faulting: a window straddling the end truncates, a window starting
// at or past the end yields an empty value (the key still ships).
// --------------------------------------------------------------------------
TEST(PushdownTest, ProjectionPastValueEnd) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("proj")).value();
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(1), "abcdef"));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(2), "xy"));
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // Window [4, 4+8) truncates "abcdef" to "ef" and empties "xy".
    client::KeyspaceHandle::SelectOptions opts;
    opts.proj.enabled = true;
    opts.proj.offset = 4;
    opts.proj.length = 8;
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 2);
    KVCSD_CO_ASSERT(rows[0].second == "ef");
    KVCSD_CO_ASSERT(rows[1].second.empty());

    // In-bounds window for contrast.
    opts.proj.offset = 1;
    opts.proj.length = 2;
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows[0].second == "bc");
    KVCSD_CO_ASSERT(rows[1].second == "y");

    // Projection is a select feature: an aggregate with one is rejected.
    auto agg = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT(agg.status().code() == StatusCode::kInvalidArgument);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: aggregate over zero matches. rows == 0, valid == false, and
// the scalars stay at their zero defaults instead of inventing extrema.
// --------------------------------------------------------------------------
TEST(PushdownTest, AggregateOverZeroMatches) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "zero", 50);

    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGt, 28, 1e9f);
    for (const auto func :
         {nvme::AggregateFunc::kCount, nvme::AggregateFunc::kMin,
          nvme::AggregateFunc::kMax, nvme::AggregateFunc::kSum}) {
      auto agg = co_await ks.Aggregate("", "\x7f", EnergyAgg(func), opts);
      KVCSD_CO_ASSERT_OK(agg);
      KVCSD_CO_ASSERT(agg->rows == 0);
      KVCSD_CO_ASSERT(!agg->valid);
      KVCSD_CO_ASSERT(agg->sum == 0.0);
      KVCSD_CO_ASSERT(agg->min == 0.0 && agg->max == 0.0);
    }

    // An empty primary range (not just an unmatched predicate) agrees.
    auto agg = co_await ks.Aggregate(MakeFixedKey(1000), MakeFixedKey(2000),
                                     EnergyAgg(nvme::AggregateFunc::kCount));
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == 0 && !agg->valid);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: pushdown against a keyspace with a live delta. The overwrite
// must be seen at its new energy, the tombstoned record must not count, and
// the fresh insert must count — for both select and aggregate.
// --------------------------------------------------------------------------
TEST(PushdownTest, LiveDeltaTombstoneDoesNotCount) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 300;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "delta", kKeys);

    // Baseline over energies >= 250: keys 250..299.
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 250.0f);
    auto before = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT_OK(before);
    KVCSD_CO_ASSERT(before->rows == 50);

    // Delta mutations: kill one match, demote another below the threshold,
    // promote a low-energy key above it, and insert a brand-new match.
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(260)));
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(MakeFixedKey(270), CsdFixture::EnergyValue(1.5f)));
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(MakeFixedKey(10), CsdFixture::EnergyValue(900.0f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 7),
                                       CsdFixture::EnergyValue(901.0f)));

    // 50 - tombstone - demotion + promotion + insert = 50.
    auto after = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT_OK(after);
    KVCSD_CO_ASSERT(after->rows == 50);

    // The select row set names the survivors exactly.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == 50);
    bool saw_promoted = false;
    bool saw_inserted = false;
    for (const auto& [key, value] : rows) {
      KVCSD_CO_ASSERT(key != MakeFixedKey(260));  // tombstoned
      KVCSD_CO_ASSERT(key != MakeFixedKey(270));  // demoted
      if (key == MakeFixedKey(10)) saw_promoted = true;
      if (key == MakeFixedKey(kKeys + 7)) saw_inserted = true;
    }
    KVCSD_CO_ASSERT(saw_promoted);
    KVCSD_CO_ASSERT(saw_inserted);

    // max reflects the delta insert, not just the compacted run.
    auto max = co_await ks.Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kMax), opts);
    KVCSD_CO_ASSERT_OK(max);
    KVCSD_CO_ASSERT(max->valid);
    KVCSD_CO_ASSERT(max->max == 901.0);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: power cut during a select scan. The in-flight command fails,
// the crash point fires, and after restart + recovery the same select runs
// to completion against intact data.
// --------------------------------------------------------------------------
DeviceConfig SmallFaultyDevice() {
  DeviceConfig c;
  c.zns.zone_size = KiB(256);
  c.zns.num_zones = 64;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(2);
  c.output_batch_bytes = KiB(16);
  return c;
}

struct PowerCycleFixture {
  sim::Simulation sim;
  sim::FaultInjector faults{7};
  DeviceConfig cfg;
  std::vector<std::unique_ptr<nvme::QueueSet>> qps;
  std::vector<std::unique_ptr<Device>> devs;
  sim::CpuPool host{&sim, "host", 8};
  std::unique_ptr<client::Client> db;

  PowerCycleFixture() : cfg(SmallFaultyDevice()) {
    cfg.zns.faults = &faults;
    faults.set_torn_tail_keep(0.5);
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

TEST(PushdownTest, PowerCutDuringSelectScan) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 200;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("pcut")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  }(f.db.get()));

  // Arm the crash inside the select path, after row collection.
  f.faults.ArmCrashAtPoint("select.mid_scan", 1);
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::FaultInjector* faults) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("pcut");
    KVCSD_CO_ASSERT_OK(ks);
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 150.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    auto st = co_await ks->Select("", "\x7f", opts, &rows);
    KVCSD_CO_ASSERT(!st.ok());
    KVCSD_CO_ASSERT(faults->crashed());
  }(f.db.get(), &f.faults));
  ASSERT_TRUE(f.faults.crashed());
  ASSERT_EQ(f.faults.crash_point(), "select.mid_scan");

  // Power cycle; the same select now completes against recovered data.
  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev,
                             client::Client* db) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
    auto ks = co_await db->OpenKeyspace("pcut");
    KVCSD_CO_ASSERT_OK(ks);
    auto stat = co_await ks->GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    if (stat->state != "COMPACTED") {
      KVCSD_CO_ASSERT_OK(co_await ks->Compact());
      KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    }
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 150.0f);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Select("", "\x7f", opts, &rows));
    KVCSD_CO_ASSERT(rows.size() == kKeys - 150);
    auto agg = co_await ks->Aggregate(
        "", "\x7f", EnergyAgg(nvme::AggregateFunc::kCount), opts);
    KVCSD_CO_ASSERT_OK(agg);
    KVCSD_CO_ASSERT(agg->rows == kKeys - 150);
  }(f.dev(), f.db.get()));
}

// --------------------------------------------------------------------------
// Wire-format validation: malformed descriptors fail fast with
// InvalidArgument instead of scanning.
// --------------------------------------------------------------------------
TEST(PushdownTest, RejectsMalformedDescriptors) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await LoadCompacted(db, "bad", 10);

    // Typed predicate whose length disagrees with its type.
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 1.0f);
    opts.pred.value_length = 8;
    std::vector<std::pair<std::string, std::string>> rows;
    auto st = co_await ks.Select("", "\x7f", opts, &rows);
    KVCSD_CO_ASSERT(st.code() == StatusCode::kInvalidArgument);

    // Aggregate without a function.
    nvme::AggregateSpec no_func;
    auto agg = co_await ks.Aggregate("", "\x7f", no_func);
    KVCSD_CO_ASSERT(agg.status().code() == StatusCode::kInvalidArgument);

    // min/max/sum over a bytes attribute.
    nvme::AggregateSpec bytes_sum;
    bytes_sum.func = nvme::AggregateFunc::kSum;
    bytes_sum.value_offset = 0;
    bytes_sum.value_length = 4;
    bytes_sum.type = nvme::SecondaryKeyType::kBytes;
    agg = co_await ks.Aggregate("", "\x7f", bytes_sum);
    KVCSD_CO_ASSERT(agg.status().code() == StatusCode::kInvalidArgument);
  }(&f.db));
}

// --------------------------------------------------------------------------
// Edge case: the scan's rows outlive its reader count. QueryPushdown's
// filter awaits the SoC cores after the range scan has returned, so a PUT
// can rewrite a delta entry and a fold commit can drop the whole delta
// index in that window. The answer must be the rows as scanned: the rows
// own their bytes and never alias the delta.
// --------------------------------------------------------------------------

// EnergyValue(energy) padded to `size` bytes: big values make one filter
// chunk (fewer than 1024 rows) hold one SoC core for milliseconds while
// the other three run the fold.
std::string PaddedEnergyValue(float energy, std::size_t size) {
  std::string v = CsdFixture::EnergyValue(energy);
  v.resize(size, 'q');
  return v;
}

void RunScanLifetimeRace(bool via_sidx, bool aggregate) {
  SCOPED_TRACE(std::string(via_sidx ? "sidx " : "primary ") +
               (aggregate ? "aggregate" : "select"));
  CsdFixture f;
  testutil::RunSim(f.sim, [](CsdFixture* fx, bool sidx,
                             bool agg) -> sim::Task<void> {
    constexpr std::uint64_t kKeys = 900;
    constexpr std::size_t kValueBytes = 4096;
    auto ks = (co_await fx->db.CreateKeyspace("race")).value();
    std::map<std::string, std::string> model;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      model[MakeFixedKey(i)] =
          PaddedEnergyValue(static_cast<float>(i), kValueBytes);
      KVCSD_CO_ASSERT_OK(
          co_await ks.Put(MakeFixedKey(i), model[MakeFixedKey(i)]));
    }
    nvme::SecondaryIndexSpec spec;
    spec.name = "energy";
    spec.value_offset = 28;
    spec.value_length = 4;
    spec.type = nvme::SecondaryKeyType::kF32;
    // Only the index-driven case builds the index: a fold extracts every
    // live delta value's secondary key, and the short value below has none.
    std::vector<nvme::SecondaryIndexSpec> specs;
    if (sidx) specs.push_back(spec);
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(specs));
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // An in-range delta: an overwrite, a tombstone, an insert and, where
    // no secondary key has to be extracted, a value shorter than 16 bytes.
    const std::string overwritten = MakeFixedKey(10);
    model[overwritten] = CsdFixture::EnergyValue(5000.0f);
    KVCSD_CO_ASSERT_OK(co_await ks.Put(overwritten, model[overwritten]));
    model.erase(MakeFixedKey(30));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(30)));
    model[MakeFixedKey(kKeys + 5)] = CsdFixture::EnergyValue(6000.0f);
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 5),
                                       model[MakeFixedKey(kKeys + 5)]));
    if (!sidx) {
      model[MakeFixedKey(20)] = "tiny";
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(20), "tiny"));
    }

    client::KeyspaceHandle::SelectOptions opts;
    std::string lo;
    std::string hi(1, '\x7f');
    if (sidx) {
      opts.index_name = "energy";
      lo = nvme::EncodeSecondaryF32(0.0f);
      hi = nvme::EncodeSecondaryF32(1e9f);
    }
    client::SelectFuture select;
    client::AggregateFuture sum;
    if (agg) {
      sum = co_await ks.AggregateAsync(
          lo, hi, EnergyAgg(nvme::AggregateFunc::kSum), opts);
    } else {
      select = co_await ks.SelectAsync(lo, hi, opts);
    }
    auto completed = [&] {
      return agg ? sum.completed() : select.completed();
    };

    // The scan holds the keyspace's reader count; once it drops back to
    // zero with no answer yet, the filter is running.
    Keyspace* raw = fx->dev.keyspaces().Find("race").value();
    bool scanned = false;
    while (!completed()) {
      if (raw->active_readers > 0) {
        scanned = true;
      } else if (scanned) {
        break;
      }
      co_await fx->sim.Delay(Microseconds(1));
    }
    KVCSD_CO_ASSERT(scanned && !completed());

    // A PUT to a scanned delta key, then a whole fold, which seals and
    // drops every delta entry at its commit.
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(overwritten, CsdFixture::EnergyValue(7000.0f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    const Status folded = co_await ks.WaitCompaction();
    KVCSD_CO_ASSERT_OK(folded);
    KVCSD_CO_ASSERT(raw->delta_index.empty());
    KVCSD_CO_ASSERT(!completed());  // both landed during the filter

    if (agg) {
      auto got = co_await sum.Await();
      KVCSD_CO_ASSERT_OK(got);
      double expected = 0;
      for (const auto& [key, value] : model) {
        float energy = 0;
        if (value.size() < 32) continue;
        std::memcpy(&energy, value.data() + 28, 4);
        expected += energy;
      }
      KVCSD_CO_ASSERT(got->rows == model.size());
      KVCSD_CO_ASSERT(got->sum == expected);
    } else {
      auto got = co_await select.Await();
      KVCSD_CO_ASSERT_OK(got);
      // Secondary order is by energy; compare as a key-ordered set.
      std::sort(got->begin(), got->end());
      const std::vector<std::pair<std::string, std::string>> want(
          model.begin(), model.end());
      KVCSD_CO_ASSERT(*got == want);
    }

    // A later scan sees the raced PUT, now folded into the run.
    std::vector<std::pair<std::string, std::string>> after;
    client::KeyspaceHandle::SelectOptions pick;
    pick.pred = nvme::PredicateF32(nvme::PredicateOp::kEq, 28, 7000.0f);
    KVCSD_CO_ASSERT_OK(co_await ks.Select("", "\x7f", pick, &after));
    KVCSD_CO_ASSERT(after.size() == 1 && after[0].first == overwritten);
  }(&f, via_sidx, aggregate));
}

TEST(PushdownTest, SelectAnswersRowsAsScannedAcrossPutAndFold) {
  RunScanLifetimeRace(/*via_sidx=*/false, /*aggregate=*/false);
  RunScanLifetimeRace(/*via_sidx=*/true, /*aggregate=*/false);
}

TEST(PushdownTest, AggregateAnswersRowsAsScannedAcrossPutAndFold) {
  RunScanLifetimeRace(/*via_sidx=*/false, /*aggregate=*/true);
  RunScanLifetimeRace(/*via_sidx=*/true, /*aggregate=*/true);
}

}  // namespace
}  // namespace kvcsd::device
