// Crash-consistent recovery of the device path (DESIGN.md §8): power
// cycles via Device::Restart + Recover over the surviving ZNS bytes, with
// crashes injected at named points by sim::FaultInjector.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/crc32c.h"
#include "common/keys.h"
#include "kvcsd/device.h"
#include "nvme/skey.h"
#include "sim/fault.h"

namespace kvcsd::device {
namespace {

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

// A device that can be power-cycled: the first incarnation runs on the
// first queue pair; each Restart() swaps in a fresh incarnation over the
// surviving flash bytes. The fixture's fault injector is always wired.
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

  // Simulated power cycle; the caller runs Recover() on the new device.
  void Restart() {
    qps.push_back(std::make_unique<nvme::QueueSet>(&sim, nvme::PcieConfig{}));
    devs.push_back(
        Device::Restart(&sim, cfg, qps.back().get(), *devs.back()));
    devs.back()->Start();
    db = std::make_unique<client::Client>(qps.back().get(), &host,
                                          hostenv::CostModel::Host());
  }
};

std::string DetValue(std::uint64_t i) { return "value-" + std::to_string(i); }

sim::Task<void> LoadAndSync(client::Client* db, const std::string& name,
                            std::uint64_t count) {
  auto ks = co_await db->CreateKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  for (std::uint64_t i = 0; i < count; ++i) {
    KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks->Sync());
}

// Recover + open + (compact if needed) + read back `count` keys.
sim::Task<void> RecoverAndVerify(Device* dev, client::Client* db,
                                 const std::string& name,
                                 std::uint64_t count) {
  KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto stat = co_await ks->GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  KVCSD_CO_ASSERT(stat->num_kvs >= count);
  if (stat->state != "COMPACTED") {
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }
  for (std::uint64_t i = 0; i < count; i += count / 7 + 1) {
    auto got = co_await ks->Get(MakeFixedKey(i));
    KVCSD_CO_ASSERT_OK(got);
    KVCSD_CO_ASSERT(*got == DetValue(i));
  }
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  KVCSD_CO_ASSERT(rows.size() >= count);
}

TEST(RecoveryTest, SyncedDataSurvivesPowerCut) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 300;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "pc", kKeys));

  f.faults.Crash();  // lights out, mid-nothing: all synced data intact
  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "pc", kKeys));
}

// A crash between the sibling-zone reset and the snapshot append must not
// lose the keyspace table: the newest intact snapshot lives in the OTHER
// metadata zone, which the ping-pong never resets.
TEST(RecoveryTest, PingPongSurvivesCrashBetweenResetAndAppend) {
  DeviceConfig cfg = SmallFaultyDevice();
  cfg.zns.zone_size = KiB(4);  // tiny metadata zones: frequent ping-pong
  cfg.write_buffer_bytes = KiB(1);
  PowerCycleFixture f(cfg);

  f.faults.ArmCrashAtPoint("meta.after_reset", 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("pp");
        KVCSD_CO_ASSERT_OK(ks);
        // Sync repeatedly; each sync persists a snapshot, filling the
        // 4 KiB metadata zone until the ping-pong (and the armed crash).
        for (std::uint64_t i = 0; i < 200 && !faults->crashed(); ++i) {
          Status put = co_await ks->Put(MakeFixedKey(i), DetValue(i));
          if (!put.ok()) break;
          Status sync = co_await ks->Sync();
          if (!sync.ok()) break;
        }
      }(f.db.get(), &f.faults));
  ASSERT_TRUE(f.faults.crashed());
  ASSERT_EQ(f.faults.crash_point(), "meta.after_reset");

  f.Restart();
  testutil::RunSim(
      f.sim, [](Device* dev, client::Client* db) -> sim::Task<void> {
        KVCSD_CO_ASSERT_OK(co_await dev->Recover());
        // The table survived in the sibling zone.
        auto ks = co_await db->OpenKeyspace("pp");
        KVCSD_CO_ASSERT_OK(ks);
        auto stat = co_await ks->GetStat();
        KVCSD_CO_ASSERT_OK(stat);
        KVCSD_CO_ASSERT(stat->num_kvs >= 1);
        // And the device persists cleanly again after recovery.
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
      }(f.dev(), f.db.get()));
}

// A power cut that tears the most recent metadata snapshot mid-append:
// recovery must fall back to the previous intact snapshot, and the next
// persist must go to the sibling zone (never appending after the torn
// tail), so a SECOND power cycle still recovers.
TEST(RecoveryTest, TornFinalSnapshotIgnoredAcrossTwoPowerCycles) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 120;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "torn", kKeys));
  // A further sync whose snapshot append is interrupted mid-write: the
  // crash fires before the commit barrier, so the torn-tail hook
  // truncates this exact snapshot.
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("torn");
        KVCSD_CO_ASSERT_OK(ks);
        for (std::uint64_t i = kKeys; i < kKeys + 40; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        faults->ArmCrashAtPoint("meta.after_append",
                                faults->hit_count("meta.after_append") + 1);
        Status sync = co_await ks->Sync();
        KVCSD_CO_ASSERT(!sync.ok());
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));
  ASSERT_EQ(f.faults.crash_point(), "meta.after_append");

  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "torn", kKeys));

  // Recover() persisted again (into the sibling zone). A second cycle
  // must land on that snapshot, not on the torn tail.
  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "torn", kKeys));
}

// A crash inside a log flush leaves a torn KLOG frame at the tail of a
// zone. Recovery must drop the fragment, truncate it off the flash (so
// later appends never follow garbage), and keep every intact record.
TEST(RecoveryTest, TornKlogTailTruncatedOnRecovery) {
  PowerCycleFixture f;
  constexpr std::uint64_t kAcked = 100;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "tk", kAcked));
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("tk");
        KVCSD_CO_ASSERT_OK(ks);
        // Crash inside the NEXT flush, right after the KLOG append: the
        // torn-tail hook then truncates that framed record mid-write.
        faults->ArmCrashAtPoint(
            "flush.after_klog",
            faults->hit_count("flush.after_klog") + 1);
        for (std::uint64_t i = kAcked; i < kAcked + 200; ++i) {
          Status put = co_await ks->Put(MakeFixedKey(i), DetValue(i));
          if (!put.ok() || faults->crashed()) break;
          if ((i - kAcked) % 16 == 15) {
            Status sync = co_await ks->Sync();
            if (!sync.ok() || faults->crashed()) break;
          }
        }
      }(f.db.get(), &f.faults));
  ASSERT_TRUE(f.faults.crashed());
  ASSERT_EQ(f.faults.crash_point(), "flush.after_klog");

  f.Restart();
  testutil::RunSim(
      f.sim, [](Device* dev, client::Client* db) -> sim::Task<void> {
        KVCSD_CO_ASSERT_OK(co_await dev->Recover());
        auto ks = co_await db->OpenKeyspace("tk");
        KVCSD_CO_ASSERT_OK(ks);
        auto stat = co_await ks->GetStat();
        KVCSD_CO_ASSERT_OK(stat);
        // Every acknowledged record replayed; the torn frame dropped.
        KVCSD_CO_ASSERT(stat->num_kvs >= kAcked);
        // The zone is clean after truncation: new writes and a full
        // compaction parse the whole chain without corruption.
        for (std::uint64_t i = 500; i < 520; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
        for (std::uint64_t i = 0; i < kAcked; i += 13) {
          auto got = co_await ks->Get(MakeFixedKey(i));
          KVCSD_CO_ASSERT_OK(got);
          KVCSD_CO_ASSERT(*got == DetValue(i));
        }
      }(f.dev(), f.db.get()));
}

std::uint32_t Fingerprint(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::uint32_t crc = 0;
  for (const auto& [key, value] : rows) {
    crc = crc32c::Extend(crc, key.data(), key.size());
    crc = crc32c::Extend(crc, value.data(), value.size());
  }
  return crc;
}

sim::Task<void> CompactAndFingerprint(client::Client* db,
                                      const std::string& name,
                                      std::uint32_t* out) {
  auto ks = co_await db->OpenKeyspace(name);
  KVCSD_CO_ASSERT_OK(ks);
  auto stat = co_await ks->GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  if (stat->state != "COMPACTED") {
    KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  KVCSD_CO_ASSERT_OK(co_await ks->Scan("", "\x7f", 0, &rows));
  *out = Fingerprint(rows);
}

// Crash mid-compaction, restart, recover, re-compact: the result must be
// byte-identical (crc32c over the full scan) to a run that never crashed.
TEST(RecoveryTest, MidCompactionRestartIsDeterministic) {
  constexpr std::uint64_t kKeys = 600;

  // Reference: the same load, compacted without any crash.
  std::uint32_t reference = 0;
  {
    PowerCycleFixture ref;
    testutil::RunSim(ref.sim, LoadAndSync(ref.db.get(), "det", kKeys));
    testutil::RunSim(ref.sim,
                     CompactAndFingerprint(ref.db.get(), "det", &reference));
  }
  ASSERT_NE(reference, 0u);

  // Crashed run: power dies after phase 1 spilled its sorted runs.
  PowerCycleFixture f;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "det", kKeys));
  f.faults.ArmCrashAtPoint("compact.after_phase1", 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("det");
        KVCSD_CO_ASSERT_OK(ks);
        Status s = co_await ks->Compact();
        if (s.ok()) (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));

  f.Restart();
  std::uint32_t recovered = 0;
  testutil::RunSim(f.sim, [](Device* dev) -> sim::Task<void> {
    KVCSD_CO_ASSERT_OK(co_await dev->Recover());
  }(f.dev()));
  testutil::RunSim(f.sim,
                   CompactAndFingerprint(f.db.get(), "det", &recovered));
  EXPECT_EQ(recovered, reference);
}

// One write drain, three callers: Sync, a full compaction and a delta
// fold all start by draining the write buffer. A transient append error
// injected into that drain's flush is surfaced exactly once — by the Sync,
// or by WaitCompaction for the two background jobs, which roll their state
// back — then cleared: the next Sync succeeds, the retried job commits
// with every key readable, and SyncWithRetry rides over another failure.
enum class DrainCaller { kSync, kCompaction, kFold };

const char* DrainCallerName(DrainCaller caller) {
  switch (caller) {
    case DrainCaller::kSync:
      return "sync";
    case DrainCaller::kCompaction:
      return "compaction";
    case DrainCaller::kFold:
      return "fold";
  }
  return "unknown";
}

void PrintTo(DrainCaller caller, std::ostream* os) {
  *os << DrainCallerName(caller);
}

class DrainRecoveryTest : public ::testing::TestWithParam<DrainCaller> {};

TEST_P(DrainRecoveryTest, FlushErrorSurfacesOnceThenClears) {
  PowerCycleFixture f;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, Device* dev, sim::FaultInjector* faults,
         DrainCaller caller) -> sim::Task<void> {
        constexpr std::uint64_t kKeys = 40;
        constexpr std::uint64_t kTail = 5;  // buffered overwrites
        auto ks = co_await db->CreateKeyspace("sticky");
        KVCSD_CO_ASSERT_OK(ks);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
        if (caller == DrainCaller::kFold) {
          KVCSD_CO_ASSERT_OK(co_await ks->Compact());
          KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
        }
        // Overwrites that stay in the write buffer until the drain.
        for (std::uint64_t i = 0; i < kTail; ++i) {
          KVCSD_CO_ASSERT_OK(
              co_await ks->Put(MakeFixedKey(i), "tail-" + std::to_string(i)));
        }
        // One injected append failure: the drain's flush fails and
        // latches the error.
        sim::ErrorRule rule;
        rule.op = sim::FaultOp::kAppend;
        rule.times = 1;
        faults->AddErrorRule(rule);
        Status failed = Status::Ok();
        if (caller == DrainCaller::kSync) {
          failed = co_await ks->Sync();
        } else {
          KVCSD_CO_ASSERT_OK(co_await ks->Compact());
          failed = co_await ks->WaitCompaction();
        }
        KVCSD_CO_ASSERT(!failed.ok());
        KVCSD_CO_ASSERT(failed.IsRetryable());
        KVCSD_CO_ASSERT(faults->errors_injected() == 1);
        auto stat = co_await ks->GetStat();
        KVCSD_CO_ASSERT_OK(stat);
        KVCSD_CO_ASSERT(stat->state == (caller == DrainCaller::kFold
                                            ? "COMPACTED"
                                            : "WRITABLE"));
        KVCSD_CO_ASSERT(
            dev->stats().counter_value("device.background.failures") ==
            (caller == DrainCaller::kSync ? 0u : 1u));

        // Surfaced once: the drain cleared the latched error, so the next
        // Sync re-flushes the re-queued batch and succeeds instead of
        // failing forever on a stale error.
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
        // The retried job (for Sync, the first compaction) commits.
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          auto got = co_await ks->Get(MakeFixedKey(i));
          KVCSD_CO_ASSERT_OK(got);
          KVCSD_CO_ASSERT(*got == (i < kTail ? "tail-" + std::to_string(i)
                                             : DetValue(i)));
        }

        // SyncWithRetry hides the transient failure entirely.
        sim::ErrorRule again;
        again.op = sim::FaultOp::kAppend;
        again.times = 1;
        faults->AddErrorRule(again);
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(kKeys), "v"));
        KVCSD_CO_ASSERT_OK(co_await ks->SyncWithRetry(3));
      }(f.db.get(), f.dev(), &f.faults, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    WriteDrain, DrainRecoveryTest,
    ::testing::Values(DrainCaller::kSync, DrainCaller::kCompaction,
                      DrainCaller::kFold),
    [](const ::testing::TestParamInfo<DrainCaller>& p) -> std::string {
      return DrainCallerName(p.param);
    });

// A flush batch that fails on an injected I/O error is re-queued into
// the write buffer: the failed Sync surfaces the error, the retried Sync
// re-flushes the SAME data, and an OK from the retry is a real
// durability promise — the batch survives an immediate power cut.
// (Without the re-queue, the retry would persist an empty buffer, return
// OK, and the batch would be silently gone.)
TEST(RecoveryTest, FailedFlushBatchSurvivesRetriedSync) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 40;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("requeue");
        KVCSD_CO_ASSERT_OK(ks);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        sim::ErrorRule rule;
        rule.op = sim::FaultOp::kAppend;
        rule.times = 1;
        faults->AddErrorRule(rule);
        Status first = co_await ks->Sync();
        KVCSD_CO_ASSERT(!first.ok());
        KVCSD_CO_ASSERT(first.IsRetryable());
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
      }(f.db.get(), &f.faults));

  // The retried Sync returned OK: everything must survive lights-out.
  f.faults.Crash();
  f.Restart();
  testutil::RunSim(f.sim,
                   RecoverAndVerify(f.dev(), f.db.get(), "requeue", kKeys));
}

// A drop acknowledged while the keyspace was compacting (deferred
// deletion) must stay dropped across a crash that kills the compaction
// before the deferred FinishDrop ever runs — the tombstone persisted
// before the ack is what recovery completes the drop from.
TEST(RecoveryTest, AckedDeferredDropStaysDroppedAcrossCrash) {
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 600;
  testutil::RunSim(f.sim, LoadAndSync(f.db.get(), "dropped", kKeys));

  f.faults.ArmCrashAtPoint("compact.after_phase1", 1);
  testutil::RunSim(
      f.sim,
      [](client::Client* db, sim::FaultInjector* faults) -> sim::Task<void> {
        auto ks = co_await db->OpenKeyspace("dropped");
        KVCSD_CO_ASSERT_OK(ks);
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        // COMPACTING, so the drop defers — but it is acknowledged, and
        // the ack lands before the armed crash kills the compaction.
        Status dropped = co_await db->DropKeyspace("dropped");
        KVCSD_CO_ASSERT_OK(dropped);
        KVCSD_CO_ASSERT(!faults->crashed());
        (void)co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(faults->crashed());
      }(f.db.get(), &f.faults));
  ASSERT_EQ(f.faults.crash_point(), "compact.after_phase1");

  f.Restart();
  testutil::RunSim(
      f.sim, [](Device* dev, client::Client* db) -> sim::Task<void> {
        KVCSD_CO_ASSERT_OK(co_await dev->Recover());
        // The acknowledged drop must not resurface.
        auto gone = co_await db->OpenKeyspace("dropped");
        KVCSD_CO_ASSERT(gone.status().code() == StatusCode::kNotFound);
        // And the device is fully usable: the dropped keyspace's zones
        // were reclaimed, so a fresh keyspace can take their place.
        auto ks = co_await db->CreateKeyspace("fresh");
        KVCSD_CO_ASSERT_OK(ks);
        KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(1), "v"));
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
      }(f.dev(), f.db.get()));
}

// Dropping a keyspace while its flushes and compaction are still in
// flight must defer, not free the Keyspace under a running coroutine
// (ASan in CI turns a regression here into a hard failure).
TEST(RecoveryTest, DropDuringInflightTrafficDefers) {
  PowerCycleFixture f;
  testutil::RunSim(f.sim, [](client::Client* db) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("dropme");
    KVCSD_CO_ASSERT_OK(ks);
    // Enough data that detached FlushIo batches are still in flight
    // when the drop lands.
    for (std::uint64_t i = 0; i < 200; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("dropme"));
    auto gone = co_await db->OpenKeyspace("dropme");
    KVCSD_CO_ASSERT(gone.status().code() == StatusCode::kNotFound);

    // And through the COMPACTING window: the drop defers to the end of
    // the compaction, then completes.
    auto ks2 = co_await db->CreateKeyspace("dropme2");
    KVCSD_CO_ASSERT_OK(ks2);
    for (std::uint64_t i = 0; i < 200; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks2->Put(MakeFixedKey(i), DetValue(i)));
    }
    KVCSD_CO_ASSERT_OK(co_await ks2->Compact());
    KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("dropme2"));
    KVCSD_CO_ASSERT_OK(co_await ks2->WaitCompaction());
    auto gone2 = co_await db->OpenKeyspace("dropme2");
    KVCSD_CO_ASSERT(gone2.status().code() == StatusCode::kNotFound);
  }(f.db.get()));
}

// A compaction's state already reads COMPACTED while its commit persist
// is in flight. A drop landing in that window must still defer behind the
// job: here the commit persist fails 200 us in and the job rolls back
// before the deferred drop runs, so the job never touches a freed
// keyspace and its failure still reaches WaitCompaction.
TEST(RecoveryTest, DropDuringCommitPersistDefersBehindJob) {
  PowerCycleFixture f;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, Device* dev, sim::FaultInjector* faults,
         sim::Simulation* sim) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("late");
        KVCSD_CO_ASSERT_OK(ks);
        for (std::uint64_t i = 0; i < 200; ++i) {
          KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), DetValue(i)));
        }
        KVCSD_CO_ASSERT_OK(co_await ks->Sync());
        // The compaction persists twice: COMPACTING first (let through),
        // then the commit, which fails 200 us after it is issued.
        sim::ErrorRule rule;
        rule.op = sim::FaultOp::kAppend;
        rule.zone = dev->keyspaces().current_meta_zone();
        rule.skip = 1;
        rule.times = 1;
        rule.latency = Microseconds(200);
        faults->AddErrorRule(rule);
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        for (;;) {
          auto stat = co_await ks->GetStat();
          KVCSD_CO_ASSERT_OK(stat);
          if (stat->state == "COMPACTED") break;  // commit persist issued
          KVCSD_CO_ASSERT(stat->state == "COMPACTING");
          co_await sim->Delay(Microseconds(2));
        }
        KVCSD_CO_ASSERT_OK(co_await db->DropKeyspace("late"));
        // Deferred: the keyspace is still there to report its job.
        const Status job = co_await ks->WaitCompaction();
        KVCSD_CO_ASSERT(job.code() == StatusCode::kIoError);
        KVCSD_CO_ASSERT(
            dev->stats().counter_value("device.background.failures") == 1);
        auto gone = co_await db->OpenKeyspace("late");
        KVCSD_CO_ASSERT(gone.status().code() == StatusCode::kNotFound);
      }(f.db.get(), f.dev(), &f.faults, &f.sim));
}

// Unknown opcodes complete with Unimplemented, never silent OK — even
// when they carry an invalid keyspace id (Unimplemented wins over
// NotFound). A KNOWN keyspace-scoped opcode with a bad id is NotFound.
TEST(RecoveryTest, UnknownOpcodeRejected) {
  PowerCycleFixture f;
  testutil::RunSim(
      f.sim,
      [](client::Client* db, nvme::QueueSet* qp) -> sim::Task<void> {
        auto ks = co_await db->CreateKeyspace("ops");
        KVCSD_CO_ASSERT_OK(ks);

        nvme::Command unknown;
        unknown.opcode = static_cast<nvme::Opcode>(0xee);
        unknown.keyspace_id = ks->id();
        auto c1 = co_await testutil::SubmitAndWait(qp->pair(0),
                                                   std::move(unknown));
        KVCSD_CO_ASSERT(c1.status.code() == StatusCode::kUnimplemented);

        // kKvDelete is a real opcode now: a blind tombstone write, Ok even
        // for a key that was never put.
        nvme::Command del;
        del.opcode = nvme::Opcode::kKvDelete;
        del.keyspace_id = ks->id();
        del.key = "never-written";
        auto c2 = co_await testutil::SubmitAndWait(qp->pair(0),
                                                   std::move(del));
        KVCSD_CO_ASSERT_OK(c2.status);

        nvme::Command bad_both;
        bad_both.opcode = static_cast<nvme::Opcode>(0xee);
        bad_both.keyspace_id = 424242;
        auto c3 = co_await testutil::SubmitAndWait(qp->pair(0),
                                                   std::move(bad_both));
        KVCSD_CO_ASSERT(c3.status.code() == StatusCode::kUnimplemented);

        nvme::Command bad_id;
        bad_id.opcode = nvme::Opcode::kSync;
        bad_id.keyspace_id = 424242;
        auto c4 = co_await testutil::SubmitAndWait(qp->pair(0),
                                                   std::move(bad_id));
        KVCSD_CO_ASSERT(c4.status.code() == StatusCode::kNotFound);
      }(f.db.get(), f.qps.back().get()));
}

// Every reader of on-flash index blocks decodes them through the one
// IndexBlockDecoder, so corrupt index metadata surfaces as Corruption from
// each of them: never an out-of-bounds read of the block header, and never
// entries out of order silently mis-cutting a scan or rewritten by a fold.
enum class IndexReader : std::uint8_t {
  kGet,             // point lookup: one PIDX block
  kScan,            // primary range scan: PIDX stream
  kSecondaryRange,  // secondary range query: SIDX stream
  kSelect,          // index-driven pushdown Select: SIDX stream
  kFold,            // delta fold: dirty-PIDX stream
  kIndexBuild,      // separate CreateSecondaryIndex: full PIDX walk
};
enum class IndexDamage : std::uint8_t {
  kUndersized,  // block_len = 1: shorter than the block header
  kSwapped,     // two sketch entries' blocks swapped: pivot mismatch
};
struct CorruptIndexCase {
  IndexReader reader;
  IndexDamage damage;
};

std::string CaseName(const CorruptIndexCase& c) {
  static const char* const kReaders[] = {"get",    "scan", "secondary_range",
                                         "select", "fold", "index_build"};
  std::string name = kReaders[static_cast<int>(c.reader)];
  name += c.damage == IndexDamage::kUndersized ? "_undersized" : "_swapped";
  return name;
}
void PrintTo(const CorruptIndexCase& c, std::ostream* os) {
  *os << CaseName(c);
}
std::string CorruptIndexCaseName(
    const ::testing::TestParamInfo<CorruptIndexCase>& info) {
  return CaseName(info.param);
}

// value = 28 pad bytes + f32 tag (the VPIC layout); tags are distinct.
std::string TaggedValue(std::uint64_t i) {
  std::string v(28, 'p');
  const float tag = static_cast<float>(i);
  char buf[4];
  std::memcpy(buf, &tag, 4);
  v.append(buf, 4);
  return v;
}

class CorruptIndexBlockRecoveryTest
    : public ::testing::TestWithParam<CorruptIndexCase> {};

TEST_P(CorruptIndexBlockRecoveryTest, ReturnsCorruption) {
  const auto [reader, damage] = GetParam();
  const bool reads_sidx = reader == IndexReader::kSecondaryRange ||
                          reader == IndexReader::kSelect;
  PowerCycleFixture f;
  constexpr std::uint64_t kKeys = 400;
  testutil::RunSim(f.sim, [](client::Client* db,
                             bool with_index) -> sim::Task<void> {
    auto ks = co_await db->CreateKeyspace("corrupt");
    KVCSD_CO_ASSERT_OK(ks);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      KVCSD_CO_ASSERT_OK(co_await ks->Put(MakeFixedKey(i), TaggedValue(i)));
    }
    if (with_index) {
      nvme::SecondaryIndexSpec spec;
      spec.name = "tag";
      spec.value_offset = 28;
      spec.value_length = 4;
      spec.type = nvme::SecondaryKeyType::kF32;
      std::vector<nvme::SecondaryIndexSpec> specs = {spec};
      KVCSD_CO_ASSERT_OK(co_await ks->CompactWithIndexes(specs));
    } else {
      KVCSD_CO_ASSERT_OK(co_await ks->Compact());
    }
    KVCSD_CO_ASSERT_OK(co_await ks->WaitCompaction());
  }(f.db.get(), reader != IndexReader::kIndexBuild));

  // Nothing has read an index block yet, so the DRAM block cache cannot
  // mask the damage.
  auto corrupt = f.dev()->keyspaces().Find("corrupt");
  ASSERT_TRUE(corrupt.ok());
  std::vector<SketchEntry>& sketch =
      reads_sidx ? (*corrupt)->run.secondary_indexes.at("tag").sketch
                 : (*corrupt)->run.pidx_sketch;
  ASSERT_GE(sketch.size(), 2u);
  if (damage == IndexDamage::kUndersized) {
    sketch[0].block_len = 1;  // the header alone is 2 bytes
  } else {
    std::swap(sketch[0].block_addr, sketch[1].block_addr);
  }

  testutil::RunSim(f.sim, [](client::Client* db,
                             IndexReader r) -> sim::Task<void> {
    auto ks = co_await db->OpenKeyspace("corrupt");
    KVCSD_CO_ASSERT_OK(ks);
    std::vector<std::pair<std::string, std::string>> rows;
    Status got;
    switch (r) {
      case IndexReader::kGet:
        got = (co_await ks->Get(MakeFixedKey(0))).status();
        break;
      case IndexReader::kScan:
        got = co_await ks->Scan("", "\x7f", 0, &rows);
        break;
      case IndexReader::kSecondaryRange:
        got = co_await ks->QuerySecondaryRangeF32("tag", 0.0f, 1e9f, 0,
                                                  &rows);
        break;
      case IndexReader::kSelect: {
        client::KeyspaceHandle::SelectOptions opts;
        opts.index_name = "tag";
        got = co_await ks->Select(nvme::EncodeSecondaryF32(0.0f),
                                  nvme::EncodeSecondaryF32(1e9f), opts,
                                  &rows);
        break;
      }
      case IndexReader::kFold:
        // Every tenth key overwritten: every PIDX block is dirty.
        for (std::uint64_t i = 0; i < kKeys; i += 10) {
          KVCSD_CO_ASSERT_OK(
              co_await ks->Put(MakeFixedKey(i), TaggedValue(i + 1)));
        }
        KVCSD_CO_ASSERT_OK(co_await ks->Compact());
        got = co_await ks->WaitCompaction();
        break;
      case IndexReader::kIndexBuild:
        got = co_await ks->CreateSecondaryIndexF32("tag", 28);
        break;
    }
    KVCSD_CO_ASSERT(got.code() == StatusCode::kCorruption);
  }(f.db.get(), reader));

  // A failed job leaves the keyspace as it was: COMPACTED, no new index.
  EXPECT_EQ((*corrupt)->state, KeyspaceState::kCompacted);
  if (reader == IndexReader::kIndexBuild) {
    EXPECT_FALSE((*corrupt)->run.secondary_indexes.contains("tag"));
  }
}

// A point Get reads one block, whose own entries are in order however its
// sketch entry was swapped; the swap shows as a first entry that is not
// the block's pivot.
INSTANTIATE_TEST_SUITE_P(
    Readers, CorruptIndexBlockRecoveryTest,
    ::testing::Values(
        CorruptIndexCase{IndexReader::kGet, IndexDamage::kUndersized},
        CorruptIndexCase{IndexReader::kGet, IndexDamage::kSwapped},
        CorruptIndexCase{IndexReader::kScan, IndexDamage::kUndersized},
        CorruptIndexCase{IndexReader::kScan, IndexDamage::kSwapped},
        CorruptIndexCase{IndexReader::kSecondaryRange,
                         IndexDamage::kUndersized},
        CorruptIndexCase{IndexReader::kSecondaryRange, IndexDamage::kSwapped},
        CorruptIndexCase{IndexReader::kSelect, IndexDamage::kUndersized},
        CorruptIndexCase{IndexReader::kSelect, IndexDamage::kSwapped},
        CorruptIndexCase{IndexReader::kFold, IndexDamage::kUndersized},
        CorruptIndexCase{IndexReader::kFold, IndexDamage::kSwapped},
        CorruptIndexCase{IndexReader::kIndexBuild, IndexDamage::kUndersized},
        CorruptIndexCase{IndexReader::kIndexBuild, IndexDamage::kSwapped}),
    CorruptIndexCaseName);

}  // namespace
}  // namespace kvcsd::device
