// Mutable-keyspace semantics (DESIGN.md §12): last-writer-wins overwrites
// within the WRITABLE phase, point deletes, delta-log mutations after
// compaction, merged reads across the sorted run and the live delta, and
// the incremental re-compaction that folds the delta back into the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/crc32c.h"
#include "common/keys.h"
#include "common/random.h"
#include "kvcsd/device.h"
#include "nvme/log_page.h"
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
  c.write_buffer_bytes = KiB(8);  // tiny: overwrites span many flushes
  return c;
}

struct CsdFixture {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev{&sim, SmallDevice(), &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};

  CsdFixture() { dev.Start(); }

  // value = 28 pad bytes + f32 energy (little-endian).
  static std::string EnergyValue(float energy) {
    std::string v(28, 'p');
    char buf[4];
    std::memcpy(buf, &energy, 4);
    v.append(buf, 4);
    return v;
  }
};

std::uint32_t Fingerprint(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::uint32_t crc = 0;
  for (const auto& [key, value] : rows) {
    crc = crc32c::Extend(crc, key.data(), key.size());
    crc = crc32c::Extend(crc, value.data(), value.size());
  }
  return crc;
}

// --------------------------------------------------------------------------
// Satellite 1: LWW for duplicate PUTs within the WRITABLE phase. The same
// key is overwritten many times with filler traffic in between, so the
// versions land in different flush batches (and, with a tiny write buffer,
// different KLOG zones). Compaction must keep only the newest by KLOG seq.
// --------------------------------------------------------------------------
TEST(MutabilityTest, LwwOverwriteAcrossZoneBoundaries) {
  CsdFixture f;
  constexpr std::uint64_t kFiller = 3000;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("lww")).value();
    // Interleave: overwrite key 7 every 500 filler puts; the filler pushes
    // each version of key 7 into a different flush batch / zone region.
    std::uint32_t version = 0;
    for (std::uint64_t i = 0; i < kFiller; ++i) {
      KVCSD_CO_ASSERT_OK(
          co_await ks.Put(MakeFixedKey(i), "filler-" + std::to_string(i)));
      if (i % 500 == 0) {
        ++version;
        KVCSD_CO_ASSERT_OK(co_await ks.Put(
            MakeFixedKey(7), "version-" + std::to_string(version)));
      }
    }
    // Final overwrite, then compact.
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(7), "version-final"));
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    auto got = co_await ks.Get(MakeFixedKey(7));
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(*got == "version-final");

    // Duplicates collapse: num_kvs counts unique keys.
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == kFiller);

    // Fingerprint the full scan and compare against a model built from the
    // newest versions only — a stale version of key 7 anywhere in the run
    // changes the crc.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == kFiller);
    std::vector<std::pair<std::string, std::string>> model;
    for (std::uint64_t i = 0; i < kFiller; ++i) {
      model.emplace_back(MakeFixedKey(i), i == 7 ? "version-final"
                                                 : "filler-" + std::to_string(i));
    }
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));
  }(&f.db));
}

// --------------------------------------------------------------------------
// Satellite 2: point deletes carry correct statuses. A delete in the
// WRITABLE phase is a blind tombstone (Ok even for absent keys) that
// suppresses the key at compaction; the per-opcode counter ticks.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeleteBeforeCompactionSuppressesKey) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("del")).value();
    for (std::uint64_t i = 0; i < 100; ++i) {
      std::string value = "v";
      value += std::to_string(i);  // not "v" + ...: GCC 12 -Wrestrict
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
    }
    // Blind delete of an absent key is Ok (tombstone over nothing).
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(999999)));
    // Delete key 42, then put-after-delete on key 43 (newest wins).
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(42)));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(43)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(43), "resurrected"));
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    auto gone = co_await ks.Get(MakeFixedKey(42));
    KVCSD_CO_ASSERT(gone.status().IsNotFound());
    auto back = co_await ks.Get(MakeFixedKey(43));
    KVCSD_CO_ASSERT_OK(back);
    KVCSD_CO_ASSERT(*back == "resurrected");

    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == 99);  // 100 puts - deleted 42

    // Range scan agrees.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 99);

    // Per-opcode accounting: 3 deletes were dispatched.
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.cmd.kv_delete") == 3);
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Tentpole: after compaction the keyspace accepts PUT/DELETE into a delta
// log; point, primary-range, and secondary-range queries all merge the
// sorted run with the live delta under last-writer-wins.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeltaMutationsVisibleInAllQueryTypes) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 2000;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("delta")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
    }
    nvme::SecondaryIndexSpec energy;
    energy.name = "energy";
    energy.value_offset = 28;
    energy.value_length = 4;
    energy.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(energy);
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // Mutations into the delta: overwrite key 100 (energy 100 -> 5000.5),
    // delete key 200, insert brand-new key kKeys+1 (energy 6000.5).
    KVCSD_CO_ASSERT_OK(
        co_await ks.Put(MakeFixedKey(100), CsdFixture::EnergyValue(5000.5f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(200)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 1),
                                       CsdFixture::EnergyValue(6000.5f)));

    // Point lookups: delta wins over the run.
    auto updated = co_await ks.Get(MakeFixedKey(100));
    KVCSD_CO_ASSERT_OK(updated);
    KVCSD_CO_ASSERT(*updated == CsdFixture::EnergyValue(5000.5f));
    auto deleted = co_await ks.Get(MakeFixedKey(200));
    KVCSD_CO_ASSERT(deleted.status().IsNotFound());
    auto fresh = co_await ks.Get(MakeFixedKey(kKeys + 1));
    KVCSD_CO_ASSERT_OK(fresh);
    KVCSD_CO_ASSERT(*fresh == CsdFixture::EnergyValue(6000.5f));
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.query.delta_hits") >= 2);

    // num_kvs = run entries + live delta entries. Until the delta is
    // folded the device cannot tell an overwrite from an insert without
    // reading the run, so the overwrite of key 100 double-counts and the
    // tombstone over key 200 does not subtract: 2000 + 2.
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == kKeys + 2);

    // Primary range over [90, 210]: sees the overwrite, hides the delete.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(
        co_await ks.Scan(MakeFixedKey(90), MakeFixedKey(210), 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 120);  // 121 keys in range minus key 200
    bool saw_updated = false;
    for (const auto& [k, v] : rows) {
      KVCSD_CO_ASSERT(k != MakeFixedKey(200));
      if (k == MakeFixedKey(100)) {
        saw_updated = true;
        KVCSD_CO_ASSERT(v == CsdFixture::EnergyValue(5000.5f));
      }
    }
    KVCSD_CO_ASSERT(saw_updated);

    // Limit cut still honours the client limit after tombstone suppression.
    rows.clear();
    KVCSD_CO_ASSERT_OK(
        co_await ks.Scan(MakeFixedKey(195), MakeFixedKey(300), 10, &rows));
    KVCSD_CO_ASSERT(rows.size() == 10);
    KVCSD_CO_ASSERT(rows[5].first == MakeFixedKey(201));  // 200 suppressed

    // Secondary range: the overwritten tuple moved from skey 100 to
    // 5000.5, the deleted tuple vanished from skey 200, the new tuple
    // appears at 6000.5.
    rows.clear();
    KVCSD_CO_ASSERT_OK(
        co_await ks.QuerySecondaryRangeF32("energy", 99.5f, 100.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());  // old tuple for key 100 is stale
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 199.5f,
                                                          200.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());  // deleted
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 4000.0f,
                                                          7000.0f, 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 2);
    KVCSD_CO_ASSERT(rows[0].first == MakeFixedKey(100));
    KVCSD_CO_ASSERT(rows[0].second == CsdFixture::EnergyValue(5000.5f));
    KVCSD_CO_ASSERT(rows[1].first == MakeFixedKey(kKeys + 1));
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Tentpole: incremental re-compaction folds the delta into the existing
// run without a full re-sort — most PIDX blocks are retained by reference,
// the delta is reclaimed, and every query type stays correct afterwards.
// --------------------------------------------------------------------------
TEST(MutabilityTest, IncrementalRecompactionFoldsDelta) {
  CsdFixture f;
  constexpr std::uint64_t kKeys = 4000;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("fold")).value();
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
    }
    nvme::SecondaryIndexSpec energy;
    energy.name = "energy";
    energy.value_offset = 28;
    energy.value_length = 4;
    energy.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(energy);
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // A clustered batch of delta mutations (keys 500..519 overwritten,
    // 600..604 deleted, 2 inserts beyond the old max key).
    for (std::uint64_t i = 500; i < 520; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i) + 0.25f)));
    }
    for (std::uint64_t i = 600; i < 605; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 10),
                                       CsdFixture::EnergyValue(9000.0f)));
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(kKeys + 11),
                                       CsdFixture::EnergyValue(9001.0f)));

    // Fingerprint the merged view BEFORE the fold...
    std::vector<std::pair<std::string, std::string>> before;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &before));

    // ...fold the delta into the run...
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.recompact.done") == 1);
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.recompact.delta_keys") ==
                    27);
    // Incremental, not a re-sort: the untouched majority of PIDX blocks is
    // carried over by reference.
    const std::uint64_t retained =
        sim->stats().counter_value("device.recompact.pidx_blocks_retained");
    const std::uint64_t rebuilt =
        sim->stats().counter_value("device.recompact.pidx_blocks_rebuilt");
    KVCSD_CO_ASSERT(retained > 0);
    KVCSD_CO_ASSERT(rebuilt > 0);
    KVCSD_CO_ASSERT(retained > rebuilt);

    // ...and the folded run is byte-identical to the merged view.
    std::vector<std::pair<std::string, std::string>> after;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &after));
    KVCSD_CO_ASSERT(after.size() == before.size());
    KVCSD_CO_ASSERT(Fingerprint(after) == Fingerprint(before));

    // num_kvs is exact again (delta reclaimed into run_entries).
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->num_kvs == kKeys + 2 - 5);

    // Point reads: updated value from the run, deleted key truly gone
    // (tombstone reclaimed, not just masked), insert served from the run.
    auto updated = co_await ks.Get(MakeFixedKey(500));
    KVCSD_CO_ASSERT_OK(updated);
    KVCSD_CO_ASSERT(*updated == CsdFixture::EnergyValue(500.25f));
    auto gone = co_await ks.Get(MakeFixedKey(600));
    KVCSD_CO_ASSERT(gone.status().IsNotFound());
    auto fresh = co_await ks.Get(MakeFixedKey(kKeys + 10));
    KVCSD_CO_ASSERT_OK(fresh);

    // Secondary index was folded too.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 500.1f,
                                                          519.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 20);  // the 20 re-tagged tuples
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 599.5f,
                                                          604.5f, 0, &rows));
    KVCSD_CO_ASSERT(rows.empty());
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 8999.0f,
                                                          9002.0f, 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == 2);

    // The keyspace is mutable again after the fold: a second round of
    // delta traffic and a second fold both work.
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(500)));
    auto regone = co_await ks.Get(MakeFixedKey(500));
    KVCSD_CO_ASSERT(regone.status().IsNotFound());
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(sim->stats().counter_value("device.recompact.done") == 2);
    regone = co_await ks.Get(MakeFixedKey(500));
    KVCSD_CO_ASSERT(regone.status().IsNotFound());
  }(&f.db, &f.sim));
}

// --------------------------------------------------------------------------
// Satellite 3: a drop acknowledged while the keyspace is RECOMPACTING must
// defer until the fold finishes, then complete — never freeing the
// Keyspace under the running fold, never resurrecting the keyspace.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DropDuringRecompactionDefers) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = (co_await db->CreateKeyspace("dropfold")).value();
    for (std::uint64_t i = 0; i < 2000; ++i) {
      std::string value = "v";
      value += std::to_string(i);  // not "v" + ...: GCC 12 -Wrestrict
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(1), "delta"));
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(2)));
    // Kick off the fold; the command acks immediately, the fold runs on.
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    // Drop while RECOMPACTING: acknowledged, deferred.
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("dropfold"));
    // New mutations race the deferred drop; whatever their status, the
    // device must not crash and the drop must win.
    (void)co_await ks.Put(MakeFixedKey(3), "race");
    (void)co_await ks.WaitCompaction();
    auto gone = co_await db->OpenKeyspace("dropfold");
    KVCSD_CO_ASSERT(gone.status().code() == StatusCode::kNotFound);
    // Zones were reclaimed: a fresh keyspace takes their place.
    auto fresh = co_await db->CreateKeyspace("fresh");
    KVCSD_CO_ASSERT_OK(fresh);
    KVCSD_CO_ASSERT_OK(co_await fresh->Put(MakeFixedKey(1), "v"));
    KVCSD_CO_ASSERT_OK(co_await fresh->Sync());
  }(&f.db));
}

// --------------------------------------------------------------------------
// Satellite 4: mutability across power cycles. Delta mutations synced
// before a power cut must replay from the delta log on recovery, with
// merged query results identical to the pre-crash view; a crash at every
// named point in the re-compaction path must recover to the same bytes.
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

  explicit PowerCycleFixture(DeviceConfig config = SmallFaultyDevice())
      : cfg(config) {
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

constexpr std::uint64_t kPcKeys = 600;

// Load + compact + mutate (overwrite / delete / insert) + sync.
sim::Task<void> LoadCompactMutate(client::Client* db, const std::string& name) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < kPcKeys; ++i) {
    KVCSD_CO_ASSERT_OK(
        co_await ks->Put(MakeFixedKey(i), "value-" + std::to_string(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Compact());
  KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(10), "overwritten"));
  KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(20)));
  KVCSD_CO_ASSERT_OK(
      co_await ks->Put(MakeFixedKey(kPcKeys + 5), "inserted"));
  // Overwrite-then-delete and delete-then-overwrite chains: replay must
  // respect per-key seq order, not log-append order.
  KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(30), "doomed"));
  KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(30)));
  KVCSD_CO_ASSERT_OK(co_await ks->Delete(MakeFixedKey(40)));
  KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(40), "reborn"));
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// The merged view every recovery (and the no-crash run) must agree on.
sim::Task<void> VerifyMutatedView(client::Client* db, const std::string& name,
                                  std::uint32_t* fingerprint) {
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto updated = co_await ks->Get(MakeFixedKey(10));
  KVCSD_CO_ASSERT_OK(updated);
  KVCSD_CO_ASSERT(*updated == "overwritten");
  auto deleted = co_await ks->Get(MakeFixedKey(20));
  KVCSD_CO_ASSERT(deleted.status().IsNotFound());
  auto doomed = co_await ks->Get(MakeFixedKey(30));
  KVCSD_CO_ASSERT(doomed.status().IsNotFound());
  auto reborn = co_await ks->Get(MakeFixedKey(40));
  KVCSD_CO_ASSERT_OK(reborn);
  KVCSD_CO_ASSERT(*reborn == "reborn");
  auto inserted = co_await ks->Get(MakeFixedKey(kPcKeys + 5));
  KVCSD_CO_ASSERT_OK(inserted);
  KVCSD_CO_ASSERT(*inserted == "inserted");
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  KVCSD_CO_ASSERT(rows.size() == kPcKeys - 1);  // -20, -30, +505, +40 net -1
  *fingerprint = Fingerprint(rows);
}

TEST(MutabilityTest, DeltaMutationsSurvivePowerCut) {
  // Reference fingerprint from a run that never crashes.
  std::uint32_t reference = 0;
  {
    PowerCycleFixture ref;
    testutil::RunSim(ref.sim, LoadCompactMutate(ref.db.get(), "pc"));
    testutil::RunSim(ref.sim,
                     VerifyMutatedView(ref.db.get(), "pc", &reference));
  }
  ASSERT_NE(reference, 0u);

  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadCompactMutate(f.db.get(), "pc"));
  f.faults.Crash();  // lights out after the sync: delta log is durable
  f.Restart();
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "pc", &recovered));
  EXPECT_EQ(recovered, reference);

  // The replayed delta folds cleanly: re-compact and verify again.
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("pc");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get()));
  std::uint32_t folded = 0;
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "pc", &folded));
  EXPECT_EQ(folded, reference);
}

// Crash at every named point in the re-compaction path; recovery must
// produce the same merged bytes regardless of where the fold died.
class RecompactCrashPointTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RecompactCrashPointTest, RecoversToSameBytes) {
  const char* point = GetParam();

  std::uint32_t reference = 0;
  {
    PowerCycleFixture ref;
    testutil::RunSim(ref.sim, LoadCompactMutate(ref.db.get(), "rc"));
    testutil::RunSim(ref.sim,
                     VerifyMutatedView(ref.db.get(), "rc", &reference));
  }
  ASSERT_NE(reference, 0u);

  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadCompactMutate(f.db.get(), "rc"));
  f.faults.ArmCrashAtPoint(point, 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("rc");
        KVCSD_CO_ASSERT_OK(ks);
        Status s = co_await ks->Compact();
        if (s.ok()) (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));
  ASSERT_EQ(f.faults.crash_point(), point);

  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "rc", &recovered));
  EXPECT_EQ(recovered, reference) << point;

  // And the fold completes cleanly on the recovered state.
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("rc");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get()));
  std::uint32_t folded = 0;
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "rc", &folded));
  EXPECT_EQ(folded, reference) << point;
}

// Reads the mutated view back to back until the power is cut: every
// answer that arrives before the cut must be the merged view.
struct CrashReaders {
  std::uint32_t reference = 0;
  std::uint64_t reads = 0;
  bool wrong = false;
};

sim::Task<void> ReadUntilCrash(client::Client* db, sim::FaultInjector* faults,
                               CrashReaders* log) {
  auto ks = co_await db->OpenKeyspace("rc");
  KVCSD_CO_ASSERT_OK(ks);
  while (!faults->crashed()) {
    auto got = co_await ks->Get(MakeFixedKey(10));
    if (got.ok()) {
      if (*got != "overwritten") log->wrong = true;
      ++log->reads;
    } else if (!faults->crashed()) {
      log->wrong = true;
    }
    std::vector<std::pair<std::string, std::string>> rows;
    Status scanned = co_await ks->Scan("", "\x7f", 0, &rows);
    if (scanned.ok()) {
      if (Fingerprint(rows) != log->reference) log->wrong = true;
      ++log->reads;
    } else if (!faults->crashed()) {
      log->wrong = true;
    }
  }
}

// The same sweep with readers streaming throughout the fold: they are in
// flight (or held at the commit gate) whenever the power is cut, and
// recovery still lands on the same bytes.
TEST_P(RecompactCrashPointTest, RecoversToSameBytesWithReadersInFlight) {
  const char* point = GetParam();

  CrashReaders log;
  {
    PowerCycleFixture ref;
    testutil::RunSim(ref.sim, LoadCompactMutate(ref.db.get(), "rc"));
    testutil::RunSim(ref.sim,
                     VerifyMutatedView(ref.db.get(), "rc", &log.reference));
  }
  ASSERT_NE(log.reference, 0u);

  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadCompactMutate(f.db.get(), "rc"));
  f.faults.ArmCrashAtPoint(point, 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults, sim::Simulation* sim,
         CrashReaders* readers) -> sim::Task<void> {
        for (int r = 0; r < 2; ++r) {
          sim->Spawn(ReadUntilCrash(db, faults, readers));
        }
        // Start the fold only once the reader stream is running.
        while (readers->reads == 0) co_await sim->Delay(Microseconds(10));
        auto ks = co_await db->OpenKeyspace("rc");
        KVCSD_CO_ASSERT_OK(ks);
        Status s = co_await ks->Compact();
        if (s.ok()) (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults, &f.sim, &log));
  ASSERT_EQ(f.faults.crash_point(), point);
  EXPECT_GT(log.reads, 0u);
  EXPECT_FALSE(log.wrong) << point;

  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim, VerifyMutatedView(f.db.get(), "rc", &recovered));
  EXPECT_EQ(recovered, log.reference) << point;
}

// LWW model of the keyspace as the writer stream below sees it. A key
// maps to its value, or to nullopt once deleted.
using Model = std::map<std::string, std::optional<std::string>>;

Model ModelOf(const std::vector<std::pair<std::string, std::string>>& rows) {
  Model model;
  for (const auto& [key, value] : rows) model[key] = value;
  return model;
}

// PUT/DELETE rounds, each closed by a Sync, until the power is cut.
// `acked` is the model as of the last acknowledged Sync; `pending` holds
// what was issued since, which a crash may or may not have made durable.
struct CrashWriters {
  Model acked;
  Model pending;
  std::uint64_t synced = 0;
  std::uint64_t during_fold = 0;  // writes acked while RECOMPACTING
  bool wrong = false;  // a write or Sync failed with the power still on
};

sim::Task<void> WriteUntilCrash(client::Client* db, sim::FaultInjector* faults,
                                const Keyspace* target, CrashWriters* log) {
  auto ks = co_await db->OpenKeyspace("rc");
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t round = 0; !faults->crashed(); ++round) {
    // An overwrite of a run key, an insert past the run, and a delete.
    const std::string suffix = std::to_string(round);
    const std::vector<std::pair<std::string, std::optional<std::string>>> ops{
        {MakeFixedKey(100 + round % 200), "over-" + suffix},
        {MakeFixedKey(kPcKeys + 100 + round), "fresh-" + suffix},
        {MakeFixedKey(300 + round % 200), std::nullopt}};
    for (const auto& [key, value] : ops) {
      log->pending[key] = value;
      Status s = Status::Ok();
      if (value.has_value()) {
        s = co_await ks->Put(key, *value);
      } else {
        s = co_await ks->Delete(key);
      }
      if (!s.ok()) {
        if (!faults->crashed()) log->wrong = true;
        co_return;
      }
      if (target->state == KeyspaceState::kRecompacting) ++log->during_fold;
    }
    Status s = co_await ks->Sync();
    if (!s.ok()) {
      if (!faults->crashed()) log->wrong = true;
      co_return;
    }
    for (auto& [key, value] : log->pending) log->acked[key] = std::move(value);
    log->pending.clear();
    ++log->synced;
  }
}

// The sweep with PUT/DELETE + Sync rounds streaming through the fold:
// every write a Sync acknowledged before the cut survives recovery, so
// the recovered scan equals the LWW model of the acked writes — except
// that a key written after the last acked Sync may hold either version.
TEST_P(RecompactCrashPointTest, RecoversAckedWritesWithWritersInFlight) {
  const char* point = GetParam();

  PowerCycleFixture f;
  CrashWriters log;
  testutil::RunSim(f.sim, LoadCompactMutate(f.db.get(), "rc"));
  testutil::RunSim(f.sim, [](client::Client* db,
                             CrashWriters* writers) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("rc");
    KVCSD_CO_ASSERT_OK(ks);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    writers->acked = ModelOf(rows);
  }(f.db.get(), &log));
  f.faults.ArmCrashAtPoint(point, 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults, sim::Simulation* sim,
         const Keyspace* target, CrashWriters* writers) -> sim::Task<void> {
        sim->Spawn(WriteUntilCrash(db, faults, target, writers));
        // Start the fold only once the writer stream is running.
        while (writers->synced == 0) co_await sim->Delay(Microseconds(10));
        auto ks = co_await db->OpenKeyspace("rc");
        KVCSD_CO_ASSERT_OK(ks);
        Status s = co_await ks->Compact();
        if (s.ok()) (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults, &f.sim, f.dev()->keyspaces().Find("rc").value(),
        &log));
  ASSERT_EQ(f.faults.crash_point(), point);
  EXPECT_FALSE(log.wrong) << point;
  EXPECT_GT(log.during_fold, 0u) << point;  // writes ran through the fold

  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  auto check = [&](const char* when) {
    Model recovered;
    testutil::RunSim(f.sim, [](client::Client* db,
                               Model* out) -> sim::Task<void> {
      auto ks = co_await db->OpenKeyspace("rc");
      KVCSD_CO_ASSERT_OK(ks);
      std::vector<std::pair<std::string, std::string>> rows;
      KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
      *out = ModelOf(rows);
    }(f.db.get(), &recovered));
    Model keys = log.acked;
    keys.insert(recovered.begin(), recovered.end());
    keys.insert(log.pending.begin(), log.pending.end());
    for (const auto& [key, unused] : keys) {
      auto at = [key](const Model& m) -> std::optional<std::string> {
        auto it = m.find(key);
        return it == m.end() ? std::nullopt : it->second;
      };
      const std::optional<std::string> got = at(recovered);
      const bool in_flight = log.pending.contains(key);
      EXPECT_TRUE(got == at(log.acked) || (in_flight && got == at(log.pending)))
          << point << " " << when << ": key " << key;
    }
  };
  check("after recovery");

  // And the fold completes cleanly on the recovered state.
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("rc");
    KVCSD_CO_ASSERT_OK(ks);
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get()));
  check("after the fold");
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecompactCrashPointTest,
                         ::testing::Values("recompact.before_fold",
                                           "recompact.before_commit",
                                           "recompact.after_commit"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           std::string name = p.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// --------------------------------------------------------------------------
// Delta watermark (device.cc MaybeRequestDeltaFold): with
// delta_fold_watermark_bytes set, the device folds the delta back into the
// run on its own once the in-DRAM delta index crosses the threshold — no
// host Compact() involved. Below the watermark nothing fires; at the
// crossing the fold runs exactly once, writes keep being admitted while it
// runs, the gauge drains to exactly what was written since the seal, and
// the merged view survives the fold byte-identically.
// --------------------------------------------------------------------------
TEST(MutabilityTest, DeltaWatermarkTriggersAutomaticFold) {
  // Each delta overwrite costs kDeltaEntryOverhead(48) + 16-byte key +
  // value bytes in the index, so ~14 entries trip the fold.
  constexpr std::uint64_t kWatermark = 1024;
  constexpr std::uint64_t kKeys = 200;
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  DeviceConfig cfg = SmallDevice();
  cfg.delta_fold_watermark_bytes = kWatermark;
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::Simulation* simp) -> sim::Task<void> {
    auto ks = (co_await dbp->CreateKeyspace("wm")).value();
    std::vector<std::pair<std::string, std::string>> model;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      std::string value = "base-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
      model.emplace_back(MakeFixedKey(i), std::move(value));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // 10 delta overwrites = 710 index bytes (48 overhead + 16 key + 7
    // value each): under the watermark, so the delta accumulates (gauge
    // grows) and no fold fires.
    std::uint64_t expect_bytes = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
      model[i].second = "delta-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
      expect_bytes += kDeltaEntryOverhead + 16 + model[i].second.size();
    }
    KVCSD_CO_ASSERT(
        simp->stats().counter_value("device.delta.watermark_folds") == 0);
    KVCSD_CO_ASSERT(expect_bytes < kWatermark);
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge("device.delta.index_bytes") ==
                    expect_bytes);

    // Keep mutating until the crossing. Once the watermark trips, the
    // keyspace flips to RECOMPACTING; the fold sealed the delta, so the
    // next put is admitted into the live generation.
    std::uint64_t i = 10;
    while (simp->stats().counter_value("device.delta.watermark_folds") == 0) {
      KVCSD_CO_ASSERT(i < kKeys);  // the watermark must trip well before
      model[i].second = "delta-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
      ++i;
    }
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->state == "RECOMPACTING");
    model[i].second = "during-" + std::to_string(i);
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
    const std::uint64_t during_bytes =
        kDeltaEntryOverhead + 16 + model[i].second.size();
    KVCSD_CO_ASSERT(
        simp->stats().counter_value("device.delta.watermark_folds") == 1);
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // Folded: state is back to COMPACTED, the delta index holds only the
    // put admitted during the fold, and the merged view kept every
    // overwrite.
    stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->state == "COMPACTED");
    KVCSD_CO_ASSERT(stat->num_kvs == kKeys + 1);  // the pending overwrite
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge("device.delta.index_bytes") ==
                    during_bytes);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == kKeys);
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));

    // A second round of delta traffic re-arms the watermark: the fold is
    // recurring, not one-shot, and writes are admitted throughout.
    std::uint64_t folds = 1;
    for (std::uint64_t j = 0; j < 40 && folds < 2; ++j) {
      model[j].second = "again-" + std::to_string(j);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(j), model[j].second));
      folds = simp->stats().counter_value("device.delta.watermark_folds");
    }
    KVCSD_CO_ASSERT(folds == 2);
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));
  }(&db, &dev, &sim));
}

// A watermark-triggered fold that fails — an append error in its write
// drain — is reported like a host-requested one: WaitCompaction returns the
// error, "device.background.failures" counts it, and the keyspace is back
// in COMPACTED and writable with its delta pending. That delta is still
// over the watermark, so the next write crosses it again and that fold
// commits.
TEST(MutabilityTest, FailedWatermarkFoldRetriesAtNextCrossing) {
  constexpr std::uint64_t kWatermark = 1024;
  constexpr std::uint64_t kKeys = 200;
  sim::Simulation sim;
  sim::FaultInjector faults{5};
  DeviceConfig cfg = SmallDevice();
  cfg.zns.faults = &faults;
  cfg.delta_fold_watermark_bytes = kWatermark;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::Simulation* simp,
                           sim::FaultInjector* fi) -> sim::Task<void> {
    auto folds = [simp] {
      return simp->stats().counter_value("device.delta.watermark_folds");
    };
    auto failures = [simp] {
      return simp->stats().counter_value("device.background.failures");
    };
    auto ks = (co_await dbp->CreateKeyspace("wm")).value();
    std::vector<std::pair<std::string, std::string>> model;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      std::string value = "base-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
      model.emplace_back(MakeFixedKey(i), std::move(value));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // The delta overwrites stay in the write buffer, so the first append
    // from here is the fold's drain flushing them.
    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kAppend;
    rule.times = 1;
    fi->AddErrorRule(rule);
    std::uint64_t i = 0;
    while (folds() == 0) {
      KVCSD_CO_ASSERT(i < kKeys);  // the watermark must trip well before
      model[i].second = "delta-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
      ++i;
    }
    const Status failed = co_await ks.WaitCompaction();
    KVCSD_CO_ASSERT(failed.code() == StatusCode::kIoError);
    KVCSD_CO_ASSERT(fi->errors_injected() == 1);
    KVCSD_CO_ASSERT(failures() == 1);
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge(
                        "device.background.failures") == 1);
    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->state == "COMPACTED");
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge(
                        "device.delta.index_bytes") >= kWatermark);

    // Writable again; the write crosses the watermark once more, and this
    // fold drains the re-queued batch and commits.
    model[i].second = "retry-" + std::to_string(i);
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
    KVCSD_CO_ASSERT(folds() == 2);
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(failures() == 1);
    stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->state == "COMPACTED");
    KVCSD_CO_ASSERT(stat->num_kvs == kKeys);
    KVCSD_CO_ASSERT(devp->BuildHealthPage().Gauge(
                        "device.delta.index_bytes") == 0);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(rows.size() == kKeys);
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));
  }(&db, &dev, &sim, &faults));
}

// --------------------------------------------------------------------------
// Fold output is pinned: batching the fold's index appends and reading its
// blocks through a read-ahead window must not move a single block
// boundary. For a fixed seed, the retained/rebuilt block counts and the
// bytes one fold writes equal the values the serial fold produced, for a
// plain keyspace and for one carrying a secondary index.
// --------------------------------------------------------------------------
struct FoldOutput {
  std::uint64_t pidx_retained = 0;
  std::uint64_t pidx_rebuilt = 0;
  std::uint64_t sidx_retained = 0;
  std::uint64_t sidx_rebuilt = 0;
  std::uint64_t bytes_written = 0;
};

constexpr std::uint64_t kSeededKeys = 20000;

// Loads kSeededKeys energy-tagged keys, compacts (with the energy index
// when `with_index`), applies a seeded delta of overwrites, deletes and
// inserts, then folds it; *out receives what that one fold produced.
sim::Task<void> SeededFold(client::Client* db, Device* dev,
                           sim::Simulation* sim, std::string name,
                           bool with_index, std::uint64_t seed,
                           FoldOutput* out) {
  auto ks = (co_await db->CreateKeyspace(name)).value();
  auto writer = ks.NewBulkWriter();
  for (std::uint64_t i = 0; i < kSeededKeys; ++i) {
    KVCSD_CO_ASSERT_OK(co_await writer.Add(
        MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Flush());
  if (with_index) {
    nvme::SecondaryIndexSpec energy;
    energy.name = "energy";
    energy.value_offset = 28;
    energy.value_length = 4;
    energy.type = nvme::SecondaryKeyType::kF32;
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(energy);
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
  } else {
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
  }
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

  Rng rng(seed);
  for (int op = 0; op < 160; ++op) {
    const std::uint64_t roll = rng.Uniform(10);
    if (roll < 6) {  // overwrite with a new energy
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(rng.Uniform(kSeededKeys)),
          CsdFixture::EnergyValue(static_cast<float>(rng.Uniform(50000)))));
    } else if (roll < 8) {
      KVCSD_CO_ASSERT_OK(
          co_await ks.Delete(MakeFixedKey(rng.Uniform(kSeededKeys))));
    } else {  // insert past the run
      KVCSD_CO_ASSERT_OK(co_await ks.Put(
          MakeFixedKey(kSeededKeys + rng.Uniform(kSeededKeys)),
          CsdFixture::EnergyValue(static_cast<float>(rng.Uniform(50000)))));
    }
  }
  KVCSD_CO_ASSERT_OK(co_await ks.Sync());
  std::vector<std::pair<std::string, std::string>> before;
  KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &before));

  auto counter = [sim](const char* n) { return sim->stats().counter_value(n); };
  const FoldOutput start{counter("device.recompact.pidx_blocks_retained"),
                         counter("device.recompact.pidx_blocks_rebuilt"),
                         counter("device.recompact.sidx_blocks_retained"),
                         counter("device.recompact.sidx_blocks_rebuilt"),
                         dev->compaction_stats().bytes_written};
  KVCSD_CO_ASSERT_OK(co_await ks.Compact());
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  out->pidx_retained =
      counter("device.recompact.pidx_blocks_retained") - start.pidx_retained;
  out->pidx_rebuilt =
      counter("device.recompact.pidx_blocks_rebuilt") - start.pidx_rebuilt;
  out->sidx_retained =
      counter("device.recompact.sidx_blocks_retained") - start.sidx_retained;
  out->sidx_rebuilt =
      counter("device.recompact.sidx_blocks_rebuilt") - start.sidx_rebuilt;
  out->bytes_written =
      dev->compaction_stats().bytes_written - start.bytes_written;

  std::vector<std::pair<std::string, std::string>> after;
  KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &after));
  KVCSD_CO_ASSERT(!before.empty() && after.size() == before.size());
  KVCSD_CO_ASSERT(Fingerprint(after) == Fingerprint(before));
}

TEST(MutabilityTest, FoldOutputMatchesSerialFold) {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  DeviceConfig cfg = SmallDevice();
  cfg.output_batch_bytes = KiB(16);  // several batched appends per fold
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  FoldOutput plain;
  FoldOutput indexed;
  testutil::RunSim(sim,
                   SeededFold(&db, &dev, &sim, "plain", false, 11, &plain));
  testutil::RunSim(sim,
                   SeededFold(&db, &dev, &sim, "indexed", true, 12, &indexed));
  // Reference values: the serial fold (one read and one append per dirty
  // block) on this seed and configuration.
  EXPECT_EQ(plain.pidx_retained, 44u);
  EXPECT_EQ(plain.pidx_rebuilt, 84u);
  EXPECT_EQ(plain.sidx_retained, 0u);
  EXPECT_EQ(plain.sidx_rebuilt, 0u);
  EXPECT_EQ(plain.bytes_written, 348096u);
  EXPECT_EQ(indexed.pidx_retained, 34u);
  EXPECT_EQ(indexed.pidx_rebuilt, 94u);
  EXPECT_EQ(indexed.sidx_retained, 44u);
  EXPECT_EQ(indexed.sidx_rebuilt, 109u);
  EXPECT_EQ(indexed.bytes_written, 847968u);
}

// --------------------------------------------------------------------------
// Folds off the read path (DESIGN.md §12): while a fold runs, queries read
// the pre-fold run + delta and are held only at the short commit gate.
// --------------------------------------------------------------------------
constexpr std::uint64_t kLiveKeys = 20000;

// The merged view LoadWithScatteredDelta leaves: every 10th key
// overwritten (energy + 0.5), every 37th deleted (deletes win), the rest
// untouched. nullopt = absent.
std::optional<std::string> LiveValue(std::uint64_t i) {
  if (i % 37 == 0) return std::nullopt;
  if (i % 10 == 0) {
    return CsdFixture::EnergyValue(static_cast<float>(i) + 0.5f);
  }
  return CsdFixture::EnergyValue(static_cast<float>(i));
}

// A compacted keyspace with a delta scattered over most PIDX blocks, so a
// fold reads and rewrites many blocks.
sim::Task<Result<client::KeyspaceHandle>> LoadWithScatteredDelta(
    client::Client* db, std::string name) {
  auto ks = co_await db->CreateKeyspace(name);
  if (!ks.ok()) co_return ks.status();
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < kLiveKeys; ++i) {
    KVCSD_CO_RETURN_IF_ERROR(co_await writer.Add(
        MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await writer.Flush());
  KVCSD_CO_RETURN_IF_ERROR(co_await ks->Compact());
  KVCSD_CO_RETURN_IF_ERROR(co_await ks->WaitCompaction());
  for (std::uint64_t i = 0; i < kLiveKeys; i += 10) {
    KVCSD_CO_RETURN_IF_ERROR(co_await ks->Put(
        MakeFixedKey(i),
        CsdFixture::EnergyValue(static_cast<float>(i) + 0.5f)));
  }
  for (std::uint64_t i = 0; i < kLiveKeys; i += 37) {
    KVCSD_CO_RETURN_IF_ERROR(co_await ks->Delete(MakeFixedKey(i)));
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await ks->Sync());
  co_return std::move(*ks);
}

// Point reads of random multiples of `stride`, back to back, until
// `stop`; every answer is checked against LiveValue (the pre-fold merged
// view, which the fold preserves).
struct ReaderStream {
  bool stop = false;
  std::uint64_t reads = 0;
  std::uint64_t wrong = 0;
};

sim::Task<void> ReadUntilStopped(client::KeyspaceHandle ks, std::uint64_t seed,
                                 std::uint64_t stride, ReaderStream* stream) {
  Rng rng(seed);
  while (!stream->stop) {
    const std::uint64_t i = rng.Uniform(kLiveKeys / stride) * stride;
    auto got = co_await ks.Get(MakeFixedKey(i));
    const std::optional<std::string> want = LiveValue(i);
    const bool right = want.has_value() ? got.ok() && *got == *want
                                        : got.status().IsNotFound();
    if (!right) ++stream->wrong;
    ++stream->reads;
  }
}

const sim::HistogramSummary* FindHistogram(const nvme::StatsPage& page,
                                           const std::string& name) {
  for (const auto& [n, summary] : page.histograms) {
    if (n == name) return &summary;
  }
  return nullptr;
}

// A GET, a Scan and a pushdown Select issued after the fold starts all
// complete while the keyspace is still RECOMPACTING — before the fold's
// completion — and each answers the merged (run + delta) view.
TEST(MutabilityTest, ReadsProceedDuringFold) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db, Device* dev,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = co_await LoadWithScatteredDelta(db, "live");
    KVCSD_CO_ASSERT_OK(ks);
    const std::string lo = MakeFixedKey(1000);
    const std::string hi = MakeFixedKey(1300);
    client::KeyspaceHandle::SelectOptions opts;
    opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe, 28, 1100.0f);
    std::vector<std::pair<std::string, std::string>> scan_view;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan(lo, hi, 0, &scan_view));
    std::vector<std::pair<std::string, std::string>> select_view;
    KVCSD_CO_ASSERT_OK(co_await ks->Select(lo, hi, opts, &select_view));
    KVCSD_CO_ASSERT(scan_view.size() == 301 - 8);  // 8 multiples of 37
    KVCSD_CO_ASSERT(!select_view.empty());

    KVCSD_CO_ASSERT_OK(co_await ks->Compact());  // the fold is running
    Keyspace* live = dev->keyspaces().Find("live").value();
    KVCSD_CO_ASSERT(live->state == KeyspaceState::kRecompacting);
    const std::uint64_t folds = dev->compactions_done();

    // 1010 is served from the delta, 1011 from a dirty run block.
    auto delta_get = co_await ks->GetAsync(MakeFixedKey(1010));
    auto run_get = co_await ks->GetAsync(MakeFixedKey(1011));
    auto select = co_await ks->SelectAsync(lo, hi, opts);
    std::vector<std::pair<std::string, std::string>> scanned;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan(lo, hi, 0, &scanned));
    auto from_delta = co_await delta_get.Await();
    auto from_run = co_await run_get.Await();
    auto selected = co_await select.Await();
    // Every answer is in and the fold has not completed.
    KVCSD_CO_ASSERT(live->state == KeyspaceState::kRecompacting);
    KVCSD_CO_ASSERT(dev->compactions_done() == folds);
    const Tick reads_done = sim->Now();

    KVCSD_CO_ASSERT_OK(from_delta);
    KVCSD_CO_ASSERT(*from_delta == *LiveValue(1010));
    KVCSD_CO_ASSERT_OK(from_run);
    KVCSD_CO_ASSERT(*from_run == *LiveValue(1011));
    KVCSD_CO_ASSERT(Fingerprint(scanned) == Fingerprint(scan_view));
    KVCSD_CO_ASSERT_OK(selected);
    KVCSD_CO_ASSERT(Fingerprint(*selected) == Fingerprint(select_view));

    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    KVCSD_CO_ASSERT(sim->Now() > reads_done);
    KVCSD_CO_ASSERT(dev->compactions_done() == folds + 1);
    // The folded run answers the same.
    scanned.clear();
    KVCSD_CO_ASSERT_OK(co_await ks->Scan(lo, hi, 0, &scanned));
    KVCSD_CO_ASSERT(Fingerprint(scanned) == Fingerprint(scan_view));
  }(&f.db, &f.dev, &f.sim));
}

// A continuous reader stream cannot starve the commit: the gate stops new
// readers, the in-flight ones drain, and the fold commits. Readers were
// held at the gate (device.recompact.gate_ns, read over the stats page)
// for less than the fold took.
TEST(MutabilityTest, CommitIsNotStarvedByReaders) {
  CsdFixture f;
  ReaderStream stream;
  testutil::RunSim(f.sim, [](client::Client* db, Device* dev,
                             sim::Simulation* sim,
                             ReaderStream* readers) -> sim::Task<void> {
    auto ks = co_await LoadWithScatteredDelta(db, "busy");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t r = 0; r < 4; ++r) {
      sim->Spawn(ReadUntilStopped(*ks, 100 + r, 1, readers));
    }
    while (readers->reads < 8) co_await sim->Delay(Microseconds(10));
    const std::uint64_t before_fold = readers->reads;
    const Tick fold_begin = sim->Now();
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    const Status folded = co_await ks->WaitCompaction();
    const Tick fold_end = sim->Now();
    const std::uint64_t during_fold = readers->reads - before_fold;
    readers->stop = true;
    KVCSD_CO_ASSERT_OK(folded);
    KVCSD_CO_ASSERT(dev->compactions_done() == 2);  // compaction + fold
    KVCSD_CO_ASSERT(during_fold > 0);
    KVCSD_CO_ASSERT(fold_end - fold_begin < Milliseconds(100));

    auto page = co_await db->GetStats();
    KVCSD_CO_ASSERT_OK(page);
    const sim::HistogramSummary* gate =
        FindHistogram(*page, "device.recompact.gate_ns");
    const sim::HistogramSummary* fold =
        FindHistogram(*page, "device.recompact.fold_ns");
    KVCSD_CO_ASSERT(gate != nullptr && fold != nullptr);
    KVCSD_CO_ASSERT(gate->count > 0);
    KVCSD_CO_ASSERT(gate->max < fold->max);
  }(&f.db, &f.dev, &f.sim, &stream));
  EXPECT_EQ(stream.wrong, 0u);
}

// The commit gate stays closed until the commit persist (or its rollback)
// returns. A metadata-zone append error at the commit fails the fold while
// GETs stream: each GET — including those held at the gate across the
// failed persist — returns the pre-fold value, the fold reports the error,
// and the failure is counted on the health and stats pages.
TEST(MutabilityTest, FailedCommitKeepsReadersOnPreFoldState) {
  sim::Simulation sim;
  sim::FaultInjector faults{3};
  DeviceConfig cfg = SmallDevice();
  cfg.zns.faults = &faults;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  ReaderStream stream;
  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::Simulation* simp, sim::FaultInjector* fi,
                           ReaderStream* readers) -> sim::Task<void> {
    auto ks = co_await LoadWithScatteredDelta(dbp, "rollback");
    KVCSD_CO_ASSERT_OK(ks);
    // The fold persists twice: RECOMPACTING first (let through), then
    // the commit, which fails 50 us in. Had the gate opened for that
    // persist, GETs held at it would read the folded state and gather
    // values from the fold's fresh clusters just as the rollback
    // releases them. The readers ask only for delta keys (multiples of
    // 10), whose values live only in those clusters once folded.
    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kAppend;
    rule.zone = devp->keyspaces().current_meta_zone();
    rule.skip = 1;
    rule.times = 1;
    rule.latency = Microseconds(50);
    fi->AddErrorRule(rule);

    for (std::uint64_t r = 0; r < 4; ++r) {
      simp->Spawn(ReadUntilStopped(*ks, 200 + r, 10, readers));
    }
    while (readers->reads < 8) co_await simp->Delay(Microseconds(10));
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    const Status folded = co_await ks->WaitCompaction();
    readers->stop = true;
    KVCSD_CO_ASSERT(folded.code() == StatusCode::kIoError);
    KVCSD_CO_ASSERT(fi->errors_injected() == 1);
    KVCSD_CO_ASSERT(
        simp->stats().histogram("device.recompact.gate_ns").count() > 0);

    auto health = co_await dbp->GetHealth();
    KVCSD_CO_ASSERT_OK(health);
    KVCSD_CO_ASSERT(health->Gauge("device.background.failures") == 1);
    auto stats = co_await dbp->GetStats();
    KVCSD_CO_ASSERT_OK(stats);
    KVCSD_CO_ASSERT(stats->Counter("device.background.failures") == 1);

    // Rolled back with the delta still pending; a retried fold commits.
    auto stat = co_await ks->GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->state == "COMPACTED");
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    for (std::uint64_t i = 1000; i < 1100; ++i) {
      auto got = co_await ks->Get(MakeFixedKey(i));
      const std::optional<std::string> want = LiveValue(i);
      KVCSD_CO_ASSERT(want.has_value() ? got.ok() && *got == *want
                                       : got.status().IsNotFound());
    }
  }(&db, &dev, &sim, &faults, &stream));
  EXPECT_GT(stream.reads, 0u);
  EXPECT_EQ(stream.wrong, 0u);
}

// --------------------------------------------------------------------------
// Writes during a fold (DESIGN.md §12): the fold seals the delta at its
// start, so PUT/DELETE land in the next generation and never bounce.
// --------------------------------------------------------------------------

// The LiveValue view of LoadWithScatteredDelta as a key -> value model.
Model ScatteredModel() {
  Model model;
  for (std::uint64_t i = 0; i < kLiveKeys; ++i) {
    if (std::optional<std::string> v = LiveValue(i)) model[MakeFixedKey(i)] = *v;
  }
  return model;
}

std::vector<std::pair<std::string, std::string>> RowsOf(const Model& model) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [key, value] : model) {
    if (value.has_value()) rows.emplace_back(key, *value);
  }
  return rows;
}

// Waits until a fold of `ks` has installed its output: the state reads
// COMPACTED again. Callers check that the device's compactions_done has not
// moved yet, i.e. that the commit persist is still in flight.
sim::Task<void> AwaitCommitWindow(sim::Simulation* sim, const Keyspace* ks) {
  while (ks->state != KeyspaceState::kCompacted) {
    co_await sim->Delay(Microseconds(1));
  }
}

// PUT and DELETE issued while the keyspace is RECOMPACTING and inside the
// commit window return Ok; GET and Scan see them at once; the commit
// leaves them in the delta; the final scan equals the LWW model.
TEST(MutabilityTest, WritesProceedDuringFold) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db, Device* dev,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = co_await LoadWithScatteredDelta(db, "writes");
    KVCSD_CO_ASSERT_OK(ks);
    Model model = ScatteredModel();
    auto put = [&](std::uint64_t i, std::string value) -> sim::Task<Status> {
      model[MakeFixedKey(i)] = value;
      co_return co_await ks->Put(MakeFixedKey(i), value);
    };
    auto del = [&](std::uint64_t i) -> sim::Task<Status> {
      model[MakeFixedKey(i)] = std::nullopt;
      co_return co_await ks->Delete(MakeFixedKey(i));
    };

    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    Keyspace* live = dev->keyspaces().Find("writes").value();
    KVCSD_CO_ASSERT(live->state == KeyspaceState::kRecompacting);
    const std::uint64_t folds = dev->compactions_done();

    // Over a sealed delta key (10), over and under run keys (11, 12), a
    // delete of a sealed delta key (20) and an insert past the run.
    KVCSD_CO_ASSERT_OK(co_await put(10, "over-sealed"));
    KVCSD_CO_ASSERT_OK(co_await put(11, "over-run"));
    KVCSD_CO_ASSERT_OK(co_await del(12));
    KVCSD_CO_ASSERT_OK(co_await del(20));
    KVCSD_CO_ASSERT_OK(co_await put(kLiveKeys + 1, "inserted"));
    auto got = co_await ks->Get(MakeFixedKey(10));
    KVCSD_CO_ASSERT(got.ok() && *got == "over-sealed");
    KVCSD_CO_ASSERT((co_await ks->Get(MakeFixedKey(12))).status().IsNotFound());
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", MakeFixedKey(30), 0, &rows));
    Model low(model.begin(), model.upper_bound(MakeFixedKey(30)));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(RowsOf(low)));
    // All of that happened while the fold ran.
    KVCSD_CO_ASSERT(live->state == KeyspaceState::kRecompacting);
    KVCSD_CO_ASSERT(dev->compactions_done() == folds);

    // Inside the commit window.
    co_await AwaitCommitWindow(sim, live);
    KVCSD_CO_ASSERT(dev->compactions_done() == folds);
    KVCSD_CO_ASSERT_OK(co_await put(13, "in-commit"));
    KVCSD_CO_ASSERT_OK(co_await del(14));
    // A host fold request here must not start a second fold.
    KVCSD_CO_ASSERT((co_await ks->Compact()).code() ==
                    StatusCode::kFailedPrecondition);
    KVCSD_CO_ASSERT(dev->compactions_done() == folds);  // still committing

    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    KVCSD_CO_ASSERT(dev->compactions_done() == folds + 1);
    // The commit dropped the sealed generation only: the seven writes
    // since the seal are still pending in the delta.
    KVCSD_CO_ASSERT(live->delta_index.size() == 7);
    KVCSD_CO_ASSERT(
        dev->BuildHealthPage().Gauge("device.delta.index_bytes") > 0);
    got = co_await ks->Get(MakeFixedKey(13));
    KVCSD_CO_ASSERT(got.ok() && *got == "in-commit");
    KVCSD_CO_ASSERT((co_await ks->Get(MakeFixedKey(14))).status().IsNotFound());
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(RowsOf(model)));

    // The next fold takes them in.
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    KVCSD_CO_ASSERT(
        dev->BuildHealthPage().Gauge("device.delta.index_bytes") == 0);
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(RowsOf(model)));
  }(&f.db, &f.dev, &f.sim));
}

// The commit sets COMPACTED before its persist, and the sealed entries
// stay in the delta index until it returns, so a write in the commit
// window finds the delta over the watermark. It must not launch a second
// fold beside the committing one; the next crossing after the commit
// does.
TEST(MutabilityTest, WatermarkCrossingInCommitWindowLaunchesNoSecondFold) {
  constexpr std::uint64_t kWatermark = 1024;
  constexpr std::uint64_t kKeys = 200;
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  DeviceConfig cfg = SmallDevice();
  cfg.delta_fold_watermark_bytes = kWatermark;
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::Simulation* simp) -> sim::Task<void> {
    auto folds = [simp] {
      return simp->stats().counter_value("device.delta.watermark_folds");
    };
    auto ks = (co_await dbp->CreateKeyspace("wm")).value();
    std::vector<std::pair<std::string, std::string>> model;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      std::string value = "base-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
      model.emplace_back(MakeFixedKey(i), std::move(value));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    const std::uint64_t done = devp->compactions_done();

    std::uint64_t i = 0;
    while (folds() == 0) {
      KVCSD_CO_ASSERT(i < kKeys);
      model[i].second = "delta-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
      ++i;
    }
    Keyspace* live = devp->keyspaces().Find("wm").value();
    co_await AwaitCommitWindow(simp, live);
    KVCSD_CO_ASSERT(devp->compactions_done() == done);
    KVCSD_CO_ASSERT(live->delta_index_bytes >= kWatermark);
    model[i].second = "window-" + std::to_string(i);
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
    ++i;
    KVCSD_CO_ASSERT(devp->compactions_done() == done);  // still committing
    KVCSD_CO_ASSERT(folds() == 1);
    KVCSD_CO_ASSERT(devp->compactions_running() == 1);
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(devp->compactions_done() == done + 1);

    // Below the watermark after the commit; the next crossing folds.
    KVCSD_CO_ASSERT(live->delta_index_bytes < kWatermark);
    while (folds() == 1) {
      KVCSD_CO_ASSERT(i < kKeys);
      model[i].second = "again-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), model[i].second));
      ++i;
    }
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(devp->compactions_done() == done + 2);
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(model));
  }(&db, &dev, &sim));
}

// The one kBusy left on the delta path: while a fold runs, a write bounces
// once the delta index reaches twice the watermark. The fold is held up by
// a metadata append that fails 20 ms in; writes are admitted until the
// bound, the failed fold keeps every one of them, and the next fold
// commits them all.
TEST(MutabilityTest, FoldBackpressureAtTwiceWatermark) {
  constexpr std::uint64_t kWatermark = 2048;
  constexpr std::uint64_t kKeys = 200;
  sim::Simulation sim;
  sim::FaultInjector faults{9};
  DeviceConfig cfg = SmallDevice();
  cfg.zns.faults = &faults;
  cfg.delta_fold_watermark_bytes = kWatermark;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::Simulation* simp,
                           sim::FaultInjector* fi) -> sim::Task<void> {
    auto folds = [simp] {
      return simp->stats().counter_value("device.delta.watermark_folds");
    };
    auto index_bytes = [devp] {
      return devp->BuildHealthPage().Gauge("device.delta.index_bytes");
    };
    auto ks = (co_await dbp->CreateKeyspace("bp")).value();
    Model model;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      std::string value = "base-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), value));
      model[MakeFixedKey(i)] = std::move(value);
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

    // The fold's RECOMPACTING persist is the next metadata append.
    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kAppend;
    rule.zone = devp->keyspaces().current_meta_zone();
    rule.times = 1;
    rule.latency = Milliseconds(20);
    fi->AddErrorRule(rule);
    std::uint64_t i = 0;
    while (folds() == 0) {
      KVCSD_CO_ASSERT(i < kKeys);
      model[MakeFixedKey(i)] = "delta-" + std::to_string(i);
      KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(i), *model[MakeFixedKey(i)]));
      ++i;
    }

    // Inserts while the fold is stuck: admitted below 2x the watermark,
    // refused at it.
    Keyspace* live = devp->keyspaces().Find("bp").value();
    std::uint64_t admitted = 0;
    for (std::uint64_t k = kKeys;; ++k) {
      KVCSD_CO_ASSERT(k < 10 * kKeys);
      KVCSD_CO_ASSERT(live->state == KeyspaceState::kRecompacting);
      const std::uint64_t before = index_bytes();
      std::string value = "fresh-" + std::to_string(k);
      Status s = co_await ks.Put(MakeFixedKey(k), value);
      if (before >= 2 * kWatermark) {
        KVCSD_CO_ASSERT(s.code() == StatusCode::kBusy);
        break;
      }
      KVCSD_CO_ASSERT_OK(s);
      model[MakeFixedKey(k)] = std::move(value);
      ++admitted;
    }
    KVCSD_CO_ASSERT(admitted > 0);
    const Status failed = co_await ks.WaitCompaction();
    KVCSD_CO_ASSERT(failed.code() == StatusCode::kIoError);
    KVCSD_CO_ASSERT(fi->errors_injected() == 1);

    // The failed fold kept the writes made during it.
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(RowsOf(model)));

    // No fold runs now: the next write is admitted and starts one.
    model[MakeFixedKey(0)] = "retry";
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(0), "retry"));
    KVCSD_CO_ASSERT(folds() == 2);
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    KVCSD_CO_ASSERT(index_bytes() == 0);
    rows.clear();
    KVCSD_CO_ASSERT_OK(co_await ks.Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(RowsOf(model)));
  }(&db, &dev, &sim, &faults));
}

// --------------------------------------------------------------------------
// Commit races. (a) No other snapshot is serialized between a job's
// install and the end of its commit persist or rollback, whichever job it
// is: compaction, index build or fold share one commit. (b) A stage that
// fails midway releases the output clusters it already allocated.
// --------------------------------------------------------------------------

enum class Job { kCompaction, kIndexBuild, kFold };

const char* JobName(Job job) {
  switch (job) {
    case Job::kCompaction:
      return "compaction";
    case Job::kIndexBuild:
      return "index_build";
    case Job::kFold:
      return "fold";
  }
  return "unknown";
}

void PrintTo(Job job, std::ostream* os) { *os << JobName(job); }

std::string JobParamName(const ::testing::TestParamInfo<Job>& info) {
  return JobName(info.param);
}

// kLiveKeys energy-tagged keys, bulk-loaded and left WRITABLE.
sim::Task<Result<client::KeyspaceHandle>> LoadWritable(client::Client* db,
                                                      std::string name) {
  auto ks = co_await db->CreateKeyspace(name);
  if (!ks.ok()) co_return ks.status();
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t i = 0; i < kLiveKeys; ++i) {
    KVCSD_CO_RETURN_IF_ERROR(co_await writer.Add(
        MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await writer.Flush());
  co_return std::move(*ks);
}

Model LoadedModel() {
  Model model;
  for (std::uint64_t i = 0; i < kLiveKeys; ++i) {
    model[MakeFixedKey(i)] = CsdFixture::EnergyValue(static_cast<float>(i));
  }
  return model;
}

nvme::SecondaryIndexSpec EnergySpec() {
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  return energy;
}

// Waits until `job` on `ks` has installed its output and its commit
// persist is in flight: the state reads COMPACTED again (compaction,
// fold) or the new index is in the table (index build).
sim::Task<void> AwaitJobCommitWindow(sim::Simulation* sim, const Keyspace* ks,
                                     Job job) {
  if (job == Job::kIndexBuild) {
    while (!ks->run.secondary_indexes.contains("energy")) {
      co_await sim->Delay(Microseconds(1));
    }
  } else {
    co_await AwaitCommitWindow(sim, ks);
  }
}

// A PUT and a Sync acked inside a compaction's or fold's commit window
// survive the commit persist failing: the failed job puts the sealed logs
// back in front of the live generation the PUT landed in, and the next job
// folds it in.
class CommitWindowTest : public ::testing::TestWithParam<Job> {};

TEST_P(CommitWindowTest, WriteAckedInWindowSurvivesFailedCommit) {
  sim::Simulation sim;
  sim::FaultInjector faults{5};
  DeviceConfig cfg = SmallDevice();
  cfg.zns.faults = &faults;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();
  const Job job = GetParam();
  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::Simulation* simp, sim::FaultInjector* fi,
                           Job kind) -> sim::Task<void> {
    auto ks = kind == Job::kCompaction ? co_await LoadWritable(dbp, "window")
                                       : co_await LoadWithScatteredDelta(
                                             dbp, "window");
    KVCSD_CO_ASSERT_OK(ks);
    Model model = kind == Job::kCompaction ? LoadedModel() : ScatteredModel();
    sim::ErrorRule commit;  // the job-state persist passes, the commit fails
    commit.op = sim::FaultOp::kAppend;
    commit.zone = devp->keyspaces().current_meta_zone();
    commit.skip = 1;
    commit.times = 1;
    commit.latency = Microseconds(200);
    fi->AddErrorRule(commit);

    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    const Keyspace* meta = devp->keyspaces().Find("window").value();
    const std::uint64_t done = devp->compactions_done();
    co_await AwaitCommitWindow(simp, meta);
    const std::string key = MakeFixedKey(kLiveKeys + 1);
    model[key] = "in-window";
    KVCSD_CO_ASSERT_OK(co_await ks->Put(key, "in-window"));
    KVCSD_CO_ASSERT_OK(co_await ks->Sync());
    KVCSD_CO_ASSERT(
        (co_await ks->WaitCompaction()).code() == StatusCode::kIoError);
    KVCSD_CO_ASSERT(fi->errors_injected() == 1);
    KVCSD_CO_ASSERT(devp->compactions_done() == done);
    // The failure dump shows the job's own releases only: no cluster the
    // job had already released (its TEMP runs) is released twice.
    KVCSD_CO_ASSERT(simp->flight().last_dump().find("no such cluster") ==
                    std::string::npos);

    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    auto got = co_await ks->Get(key);
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(*got == "in-window");
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(RowsOf(model)));
  }(&db, &dev, &sim, &faults, job));
}

INSTANTIATE_TEST_SUITE_P(CommitWindow, CommitWindowTest,
                         ::testing::Values(Job::kCompaction, Job::kFold),
                         JobParamName);

// The commit persist fails 200 us in; a CreateKeyspace lands in that
// window, and the job's rollback persist fails too. Had the create's
// snapshot captured the install, recovery would load a table whose new
// index clusters the rollback released (with a compaction's or fold's
// logs gone). It waits for the window instead, so recovery rolls the job
// back.
class CommitSnapshotTest : public ::testing::TestWithParam<Job> {};

TEST_P(CommitSnapshotTest, SnapshotInCommitWindowWaitsForTheCommit) {
  PowerCycleFixture f(SmallDevice());
  const Job job = GetParam();
  testutil::RunSim(f.sim, [](client::Client* db, Device* dev,
                             sim::Simulation* sim, sim::FaultInjector* fi,
                             Job kind) -> sim::Task<void> {
    auto ks = kind == Job::kCompaction ? co_await LoadWritable(db, "race")
                                       : co_await LoadWithScatteredDelta(
                                             db, "race");
    KVCSD_CO_ASSERT_OK(ks);
    // A compaction or fold persists its job state first, then commits; an
    // index build only commits.
    const int job_persists = kind == Job::kIndexBuild ? 0 : 1;
    sim::ErrorRule commit;
    commit.op = sim::FaultOp::kAppend;
    commit.zone = dev->keyspaces().current_meta_zone();
    commit.skip = job_persists;
    commit.latency = Microseconds(200);
    fi->AddErrorRule(commit);
    sim::ErrorRule rollback = commit;  // sees the job state and the create
    rollback.skip = job_persists + 1;
    rollback.latency = 0;
    fi->AddErrorRule(rollback);

    Status built = Status::Ok();
    if (kind == Job::kIndexBuild) {
      sim->Spawn([](client::KeyspaceHandle h, Status* out) -> sim::Task<void> {
        *out = co_await h.CreateSecondaryIndex(EnergySpec());
      }(*ks, &built));
    } else {
      KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    }
    co_await AwaitJobCommitWindow(sim, dev->keyspaces().Find("race").value(),
                                  kind);
    KVCSD_CO_ASSERT_OK(co_await db->CreateKeyspace("bystander"));
    const Status finished = co_await ks->WaitCompaction();
    KVCSD_CO_ASSERT(finished.code() == StatusCode::kIoError);
    if (kind == Job::kIndexBuild) {
      KVCSD_CO_ASSERT(built.code() == StatusCode::kIoError);
    }
    KVCSD_CO_ASSERT(fi->errors_injected() == 2);
  }(f.db.get(), f.dev(), &f.sim, &f.faults, job));

  f.faults.Crash();
  f.Restart();
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim, [](client::Client* db, Job kind) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await db->OpenKeyspace("bystander"));
    auto ks = co_await db->OpenKeyspace("race");
    KVCSD_CO_ASSERT_OK(ks);
    if (kind == Job::kCompaction) {
      // Rolled back to WRITABLE: compacting again yields every key.
      KVCSD_CO_ASSERT_OK(co_await ks->Compact());
      KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
    }
    const Model model =
        kind == Job::kCompaction ? LoadedModel() : ScatteredModel();
    std::vector<std::pair<std::string, std::string>> rows;
    KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
    KVCSD_CO_ASSERT(Fingerprint(rows) == Fingerprint(RowsOf(model)));
    if (kind == Job::kIndexBuild) {
      KVCSD_CO_ASSERT_OK(co_await ks->CreateSecondaryIndex(EnergySpec()));
    }
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get(), job));
}

INSTANTIATE_TEST_SUITE_P(CommitWindow, CommitSnapshotTest,
                         ::testing::Values(Job::kCompaction, Job::kIndexBuild,
                                           Job::kFold),
                         JobParamName);

// An index build is a keyspace job, so a fold cannot start beside it: the
// kCompact sent while the build runs is refused (or, were it queued,
// serialized), and the index answers the merged run + delta view exactly.
// Built beside a fold, the index would describe the pre-fold run: deleted
// keys and stale values for every delta key.
TEST(MutabilityTest, IndexBuildDuringFoldMatchesModel) {
  CsdFixture f;
  testutil::RunSim(f.sim, [](client::Client* db,
                             sim::Simulation* sim) -> sim::Task<void> {
    auto ks = co_await LoadWithScatteredDelta(db, "sidx");
    KVCSD_CO_ASSERT_OK(ks);
    Status built = Status::Aborted("pending");
    bool build_done = false;
    sim->Spawn([](client::KeyspaceHandle h, Status* out,
                  bool* done) -> sim::Task<void> {
      *out = co_await h.CreateSecondaryIndexF32("energy", 28);
      *done = true;
    }(*ks, &built, &build_done));
    co_await sim->Delay(Microseconds(50));  // the build is on the device
    KVCSD_CO_ASSERT(!build_done);
    const Status fold = co_await ks->Compact();
    KVCSD_CO_ASSERT(fold.ok() ||
                    fold.code() == StatusCode::kFailedPrecondition);
    while (!build_done) co_await sim->Delay(Microseconds(10));
    KVCSD_CO_ASSERT_OK(built);
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());

    std::vector<std::pair<std::string, std::string>> hits;
    KVCSD_CO_ASSERT_OK(
        co_await ks->QuerySecondaryRangeF32("energy", -1.0f, 1e9f, 0, &hits));
    const Model model = ScatteredModel();
    std::uint64_t wrong = 0;
    for (const auto& [key, value] : hits) {
      auto it = model.find(key);
      if (it == model.end() || it->second != value) ++wrong;
    }
    KVCSD_CO_ASSERT(hits.size() == RowsOf(model).size());
    KVCSD_CO_ASSERT(hits.size() == 19459);
    KVCSD_CO_ASSERT(wrong == 0);
  }(&f.db, &f.sim));
}

// A delete-only delta writes no values, so the fold's appends are the
// RECOMPACTING persist, then PIDX batches. The second PIDX batch fails:
// the cluster the first one allocated must be released with the job, so
// the free-zone count returns to its pre-fold value without a restart.
TEST(MutabilityTest, FailedFoldStageReleasesItsOutput) {
  sim::Simulation sim;
  sim::FaultInjector faults{4};
  DeviceConfig cfg = SmallDevice();
  cfg.zns.faults = &faults;
  cfg.output_batch_bytes = KiB(16);
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();

  testutil::RunSim(sim, [](client::Client* dbp, Device* devp,
                           sim::FaultInjector* fi) -> sim::Task<void> {
    auto ks = (co_await dbp->CreateKeyspace("leak")).value();
    auto writer = ks.NewBulkWriter();
    for (std::uint64_t i = 0; i < kLiveKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await writer.Add(
          MakeFixedKey(i), CsdFixture::EnergyValue(static_cast<float>(i))));
    }
    KVCSD_CO_ASSERT_OK(co_await writer.Flush());
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
    for (std::uint64_t i = 0; i < kLiveKeys; i += 10) {
      KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks.Sync());
    const std::size_t free_before = devp->zones().free_zones();

    sim::ErrorRule rule;
    rule.op = sim::FaultOp::kAppend;
    rule.skip = 2;
    fi->AddErrorRule(rule);
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
    const Status folded = co_await ks.WaitCompaction();
    KVCSD_CO_ASSERT(folded.code() == StatusCode::kIoError);
    KVCSD_CO_ASSERT(fi->errors_injected() == 1);
    KVCSD_CO_ASSERT(devp->zones().free_zones() == free_before);

    auto stat = co_await ks.GetStat();
    KVCSD_CO_ASSERT_OK(stat);
    KVCSD_CO_ASSERT(stat->state == "COMPACTED");
    KVCSD_CO_ASSERT((co_await ks.Get(MakeFixedKey(10))).status().IsNotFound());
    KVCSD_CO_ASSERT_OK(co_await ks.Get(MakeFixedKey(11)));
  }(&db, &dev, &faults));
}

}  // namespace
}  // namespace kvcsd::device
