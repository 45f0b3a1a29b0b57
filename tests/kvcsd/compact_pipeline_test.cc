// End-to-end tests for the multi-core compaction pipeline: results must
// be bit-identical regardless of `soc_cores` (run layout, merge order and
// tie-breaks are all core-count independent), and more cores must not
// make compaction slower — parallel run generation should make it
// strictly faster.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/crc32c.h"
#include "common/keys.h"
#include "kvcsd/device.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice(std::uint32_t cores) {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);
  c.soc_cores = cores;
  return c;
}

struct Fixture {
  explicit Fixture(std::uint32_t cores) : dev{&sim, SmallDevice(cores), &qp} {
    dev.Start();
  }

  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev;
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
};

// Everything observable about a compacted keyspace that must not depend
// on the core count: entry count, both pivot sketches, and query results.
struct Outcome {
  bool ok = false;
  Tick compact_ticks = 0;
  std::uint64_t num_kvs = 0;
  std::vector<std::string> pidx_pivots;
  std::vector<std::string> sidx_pivots;
  std::vector<std::pair<std::string, std::string>> scan;
  std::vector<std::pair<std::string, std::string>> sidx_rows;
  std::vector<std::string> gets;
};

std::string EnergyValue(std::uint64_t id) {
  std::string v(28, 'p');
  const float energy = static_cast<float>(id % 97);
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
}

sim::Task<void> Workload(client::Client* db, Device* dev,
                         sim::Simulation* sim, std::uint64_t keys,
                         Outcome* out) {
  auto created = co_await db->CreateKeyspace("pipeline");
  KVCSD_CO_ASSERT_OK(created);
  auto ks = std::move(*created);

  // Shuffled insertion order so run generation sees unsorted zones.
  std::uint64_t stride = 701;
  while (keys % stride == 0) ++stride;
  auto writer = ks.NewBulkWriter();
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::uint64_t id = (i * stride) % keys;
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(id), EnergyValue(id)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Flush());

  const Tick start = sim->Now();
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  std::vector<nvme::SecondaryIndexSpec> specs;
  specs.push_back(std::move(energy));
  KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  out->compact_ticks = sim->Now() - start;

  auto stat = co_await ks.GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  out->num_kvs = stat->num_kvs;

  // Device-internal index layout.
  auto found = dev->keyspaces().Find("pipeline");
  KVCSD_CO_ASSERT_OK(found);
  for (const SketchEntry& e : (*found)->run.pidx_sketch) {
    out->pidx_pivots.push_back(e.pivot);
  }
  auto sidx = (*found)->run.secondary_indexes.find("energy");
  KVCSD_CO_ASSERT(sidx != (*found)->run.secondary_indexes.end());
  for (const SketchEntry& e : sidx->second.sketch) {
    out->sidx_pivots.push_back(e.pivot);
  }

  // Query-visible results.
  KVCSD_CO_ASSERT_OK(co_await ks.Scan(MakeFixedKey(keys / 4),
                                MakeFixedKey(keys / 4 + 100), 0, &out->scan));
  for (std::uint64_t probe = 0; probe < 16; ++probe) {
    auto v = co_await ks.Get(MakeFixedKey((probe * keys) / 16));
    KVCSD_CO_ASSERT_OK(v);
    out->gets.push_back(std::move(*v));
  }
  KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 10.0f, 14.0f, 0,
                                                  &out->sidx_rows));
  out->ok = true;
}

Outcome RunWorkload(std::uint32_t cores, std::uint64_t keys) {
  Fixture f(cores);
  Outcome out;
  testutil::RunSim(f.sim, Workload(&f.db, &f.dev, &f.sim, keys, &out));
  EXPECT_TRUE(out.ok) << "workload aborted at " << cores << " cores";
  return out;
}

constexpr std::uint64_t kKeys = 6000;

TEST(CompactPipelineTest, ResultsIdenticalAcrossCoreCounts) {
  Outcome one = RunWorkload(1, kKeys);
  Outcome four = RunWorkload(4, kKeys);
  ASSERT_TRUE(one.ok && four.ok);

  EXPECT_EQ(one.num_kvs, kKeys);
  EXPECT_EQ(four.num_kvs, one.num_kvs);
  // Index layout: same blocks split at the same pivots, in both the
  // primary and the fused secondary index.
  EXPECT_GT(one.pidx_pivots.size(), 1u);
  EXPECT_EQ(four.pidx_pivots, one.pidx_pivots);
  EXPECT_GT(one.sidx_pivots.size(), 0u);
  EXPECT_EQ(four.sidx_pivots, one.sidx_pivots);
  // Query results: scans, point gets, secondary range.
  EXPECT_EQ(one.scan.size(), 101u);
  EXPECT_EQ(four.scan, one.scan);
  EXPECT_EQ(four.gets, one.gets);
  EXPECT_GT(one.sidx_rows.size(), 0u);
  EXPECT_EQ(four.sidx_rows, one.sidx_rows);
}

TEST(CompactPipelineTest, MoreCoresCompactStrictlyFaster) {
  Outcome one = RunWorkload(1, kKeys);
  Outcome four = RunWorkload(4, kKeys);
  ASSERT_TRUE(one.ok && four.ok);
  // Phase-1 run generation fans out across cores; with a serial device
  // everything in the pipeline degrades to sequential execution.
  EXPECT_LT(four.compact_ticks, one.compact_ticks);
}

// --------------------------------------------------------------------------
// The compaction's output layout, pinned: every index block the job writes
// goes through one block writer, and moving to it must move no block. The
// reference values are those of the per-stage packers it replaced, on this
// seed and configuration (16 KiB output batches, so several batched
// appends per chain). Ticks span the job from the compact command to its
// completion (plus the index build in the separate case).
// --------------------------------------------------------------------------

// CRC over a sketch's pivots, addresses and lengths.
std::uint32_t SketchCrc(const std::vector<SketchEntry>& sketch) {
  std::string flat;
  for (const SketchEntry& e : sketch) {
    flat += e.pivot;
    flat += '@';
    flat += std::to_string(e.block_addr);
    flat += '+';
    flat += std::to_string(e.block_len);
  }
  return crc32c::Value(flat.data(), flat.size());
}

struct Layout {
  bool ok = false;
  std::size_t pidx_blocks = 0;
  std::uint32_t pidx_crc = 0;
  std::size_t sidx_blocks = 0;
  std::uint32_t sidx_crc = 0;
  std::size_t pidx_clusters = 0;
  std::size_t sidx_clusters = 0;
  std::size_t value_clusters = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  Tick ticks = 0;
};

enum class IndexMode { kNone, kFused, kSeparate };

sim::Task<void> CompactAndCapture(client::Client* db, Device* dev,
                                  sim::Simulation* sim, IndexMode mode,
                                  Layout* out) {
  auto ks = (co_await db->CreateKeyspace("layout")).value();
  std::uint64_t stride = 701;
  while (kKeys % stride == 0) ++stride;
  auto writer = ks.NewBulkWriter();
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t id = (i * stride) % kKeys;
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(id), EnergyValue(id)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Flush());

  const CompactionStats before = dev->compaction_stats();
  const Tick start = sim->Now();
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  if (mode == IndexMode::kFused) {
    std::vector<nvme::SecondaryIndexSpec> specs;
    specs.push_back(energy);
    KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
  } else {
    KVCSD_CO_ASSERT_OK(co_await ks.Compact());
  }
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  if (mode == IndexMode::kSeparate) {
    KVCSD_CO_ASSERT_OK(co_await ks.CreateSecondaryIndex(energy));
  }
  out->ticks = sim->Now() - start;
  out->bytes_read = dev->compaction_stats().bytes_read - before.bytes_read;
  out->bytes_written =
      dev->compaction_stats().bytes_written - before.bytes_written;

  const Keyspace* meta = dev->keyspaces().Find("layout").value();
  out->pidx_blocks = meta->run.pidx_sketch.size();
  out->pidx_crc = SketchCrc(meta->run.pidx_sketch);
  out->pidx_clusters = meta->run.pidx_clusters.size();
  out->value_clusters = meta->run.sorted_value_clusters.size();
  if (auto it = meta->run.secondary_indexes.find("energy");
      it != meta->run.secondary_indexes.end()) {
    out->sidx_blocks = it->second.sketch.size();
    out->sidx_crc = SketchCrc(it->second.sketch);
    out->sidx_clusters = it->second.sidx_clusters.size();
  }
  out->ok = true;
}

Layout CaptureLayout(IndexMode mode) {
  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  DeviceConfig cfg = SmallDevice(4);
  cfg.output_batch_bytes = KiB(16);
  Device dev{&sim, cfg, &qp};
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
  dev.Start();
  Layout out;
  testutil::RunSim(sim, CompactAndCapture(&db, &dev, &sim, mode, &out));
  return out;
}

TEST(CompactPipelineTest, CompactionOutputMatchesPinnedLayout) {
  const Layout plain = CaptureLayout(IndexMode::kNone);
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(plain.pidx_blocks, 39u);
  EXPECT_EQ(plain.pidx_crc, 4209933139u);
  EXPECT_EQ(plain.sidx_blocks, 0u);
  EXPECT_EQ(plain.pidx_clusters, 1u);
  EXPECT_EQ(plain.sidx_clusters, 0u);
  EXPECT_EQ(plain.value_clusters, 1u);
  EXPECT_EQ(plain.bytes_read, 540106u);
  EXPECT_EQ(plain.bytes_written, 525617u);
  EXPECT_EQ(plain.ticks, 77720623u);

  const Layout fused = CaptureLayout(IndexMode::kFused);
  ASSERT_TRUE(fused.ok);
  EXPECT_EQ(fused.pidx_blocks, 39u);
  EXPECT_EQ(fused.pidx_crc, 4209933139u);
  EXPECT_EQ(fused.sidx_blocks, 46u);
  EXPECT_EQ(fused.sidx_crc, 1178741504u);
  EXPECT_EQ(fused.pidx_clusters, 1u);
  EXPECT_EQ(fused.sidx_clusters, 1u);
  EXPECT_EQ(fused.value_clusters, 1u);
  EXPECT_EQ(fused.bytes_read, 726106u);
  EXPECT_EQ(fused.bytes_written, 900033u);
  EXPECT_EQ(fused.ticks, 94821285u);

  // The same index built separately after a plain compaction: same
  // blocks, at other addresses.
  const Layout separate = CaptureLayout(IndexMode::kSeparate);
  ASSERT_TRUE(separate.ok);
  EXPECT_EQ(separate.pidx_crc, 4209933139u);
  EXPECT_EQ(separate.sidx_blocks, 46u);
  EXPECT_EQ(separate.sidx_crc, 1387467444u);
  EXPECT_EQ(separate.sidx_clusters, 1u);
  EXPECT_EQ(separate.bytes_read, 726106u);
  EXPECT_EQ(separate.bytes_written, 900033u);
  EXPECT_EQ(separate.ticks, 100121688u);
}

}  // namespace
}  // namespace kvcsd::device
