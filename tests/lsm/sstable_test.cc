#include "lsm/sstable.h"

#include <gtest/gtest.h>

#include <map>

#include "../testutil.h"
#include "common/keys.h"
#include "lsm/iterator.h"

namespace kvcsd::lsm {
namespace {

struct SstFixture {
  sim::Simulation sim;
  sim::CpuPool cpu{&sim, "host", 4};
  storage::BlockSsd ssd{&sim, storage::BlockSsdConfig{}};
  hostenv::PageCache page_cache{MiB(64)};
  hostenv::Fs fs{&sim, &cpu, &ssd, &page_cache, hostenv::CostModel::Host()};
  LsmEnv env{&sim, &fs, &cpu, hostenv::CostModel::Host(), &sim.stats()};
  BlockCache block_cache{MiB(8)};

  // Builds a table of n sequential keys: key(i) -> "value-<i>", seq=i+1.
  std::unique_ptr<SstableReader> BuildTable(int n,
                                            const std::string& name = "t",
                                            SstableOptions opts = {}) {
    auto file = fs.Create(name).value();
    SstableBuilder builder(&env, file, opts);
    testutil::RunSim(sim, [](SstableBuilder* b, int count) -> sim::Task<void> {
      for (int i = 0; i < count; ++i) {
        std::string ikey = MakeInternalKey(
            MakeFixedKey(static_cast<std::uint64_t>(i)),
            static_cast<SequenceNumber>(i + 1), ValueType::kValue);
        EXPECT_TRUE(
            (co_await b->Add(ikey, "value-" + std::to_string(i))).ok());
      }
      EXPECT_TRUE((co_await b->Finish()).ok());
    }(&builder, n));
    auto reader =
        testutil::RunSim(sim, SstableReader::Open(&env, &block_cache, 1, name));
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    return std::move(*reader);
  }
};

TEST(SstableTest, BuildAndPointLookup) {
  SstFixture f;
  auto table = f.BuildTable(1000);
  EXPECT_EQ(table->num_entries(), 1000u);
  for (int i : {0, 1, 499, 998, 999}) {
    std::string value;
    bool found = false;
    auto s = testutil::RunSim(
        f.sim, table->Get(MakeFixedKey(static_cast<std::uint64_t>(i)),
                          kMaxSequenceNumber, &value, &found));
    ASSERT_TRUE(s.ok()) << i << ": " << s.ToString();
    EXPECT_TRUE(found);
    EXPECT_EQ(value, "value-" + std::to_string(i));
  }
}

TEST(SstableTest, AbsentKeyNotFound) {
  SstFixture f;
  auto table = f.BuildTable(100);
  std::string value;
  bool found = true;
  auto s = testutil::RunSim(
      f.sim, table->Get(MakeFixedKey(100000), kMaxSequenceNumber, &value,
                        &found));
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(found);
}

TEST(SstableTest, BloomFilterAvoidsBlockReads) {
  SstFixture f;
  auto table = f.BuildTable(2000);
  f.block_cache.Clear();
  f.page_cache.DropAll();
  const std::uint64_t before = f.fs.device_bytes_read();
  // Probe many absent keys: bloom should reject nearly all without I/O.
  int io_probes = 0;
  for (int i = 0; i < 200; ++i) {
    std::string value;
    bool found = false;
    (void)testutil::RunSim(
        f.sim,
        table->Get(MakeFixedKey(static_cast<std::uint64_t>(500000 + i)),
                   kMaxSequenceNumber, &value, &found));
    if (f.fs.device_bytes_read() > before) ++io_probes;
  }
  // Allow a few false positives; the vast majority must be filtered.
  EXPECT_LT(f.fs.device_bytes_read() - before, 10u * 4096u);
  (void)io_probes;
}

TEST(SstableTest, BlockCacheServesRepeatLookups) {
  SstFixture f;
  auto table = f.BuildTable(1000);
  f.block_cache.Clear();
  f.page_cache.DropAll();
  std::string value;
  bool found = false;
  (void)testutil::RunSim(f.sim, table->Get(MakeFixedKey(500),
                                           kMaxSequenceNumber, &value,
                                           &found));
  const std::uint64_t after_first = f.fs.device_bytes_read();
  EXPECT_GT(after_first, 0u);
  // Same block again: served by the block cache, zero new device traffic.
  (void)testutil::RunSim(f.sim, table->Get(MakeFixedKey(501),
                                           kMaxSequenceNumber, &value,
                                           &found));
  EXPECT_EQ(f.fs.device_bytes_read(), after_first);
  EXPECT_GE(f.block_cache.hits(), 1u);
}

TEST(SstableTest, SnapshotSelectsVersion) {
  SstFixture f;
  auto file = f.fs.Create("versions").value();
  SstableBuilder builder(&f.env, file, SstableOptions{});
  testutil::RunSim(f.sim, [](SstableBuilder* b) -> sim::Task<void> {
    // Same user key, two versions: seq 7 then seq 3 (descending order).
    EXPECT_TRUE((co_await b->Add(MakeInternalKey("k", 7, ValueType::kValue),
                                 "new"))
                    .ok());
    EXPECT_TRUE((co_await b->Add(MakeInternalKey("k", 3, ValueType::kValue),
                                 "old"))
                    .ok());
    EXPECT_TRUE((co_await b->Finish()).ok());
  }(&builder));
  auto reader = testutil::RunSim(
      f.sim, SstableReader::Open(&f.env, &f.block_cache, 2, "versions"));
  ASSERT_TRUE(reader.ok());

  std::string value;
  bool found = false;
  ASSERT_TRUE(testutil::RunSim(f.sim, (*reader)->Get("k", 10, &value, &found))
                  .ok());
  EXPECT_EQ(value, "new");
  ASSERT_TRUE(testutil::RunSim(f.sim, (*reader)->Get("k", 5, &value, &found))
                  .ok());
  EXPECT_EQ(value, "old");
  EXPECT_TRUE(
      testutil::RunSim(f.sim, (*reader)->Get("k", 2, &value, &found))
          .IsNotFound());
}

TEST(SstableTest, OutOfOrderAddRejected) {
  SstFixture f;
  auto file = f.fs.Create("bad").value();
  SstableBuilder builder(&f.env, file, SstableOptions{});
  testutil::RunSim(f.sim, [](SstableBuilder* b) -> sim::Task<void> {
    EXPECT_TRUE((co_await b->Add(MakeInternalKey("b", 1, ValueType::kValue),
                                 "v"))
                    .ok());
    auto s = co_await b->Add(MakeInternalKey("a", 2, ValueType::kValue), "v");
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }(&builder));
}

TEST(SstableTest, CorruptFooterDetected) {
  SstFixture f;
  auto file = f.fs.Create("tiny").value();
  testutil::RunSim(f.sim,
                   [](hostenv::Fs* fs, hostenv::FileHandle h) -> sim::Task<void> {
    std::string junk(10, 'j');
    EXPECT_TRUE((co_await fs->Append(
                     h, std::span<const std::byte>(
                            reinterpret_cast<const std::byte*>(junk.data()),
                            junk.size())))
                    .ok());
  }(&f.fs, file));
  auto reader = testutil::RunSim(
      f.sim, SstableReader::Open(&f.env, &f.block_cache, 3, "tiny"));
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(SstableTest, IteratorFullScanInOrder) {
  SstFixture f;
  auto table = f.BuildTable(3000);
  testutil::RunSim(f.sim, [](SstableReader* t) -> sim::Task<void> {
    SstableReader::Iterator it(t);
    EXPECT_TRUE((co_await it.SeekToFirst()).ok());
    int count = 0;
    std::string prev;
    while (it.Valid()) {
      if (!prev.empty()) {
        EXPECT_LT(CompareInternalKeys(Slice(prev), it.internal_key()), 0);
      }
      prev = it.internal_key().ToString();
      ++count;
      EXPECT_TRUE((co_await it.Next()).ok());
    }
    EXPECT_EQ(count, 3000);
  }(table.get()));
}

TEST(SstableTest, IteratorSeek) {
  SstFixture f;
  auto table = f.BuildTable(1000);
  testutil::RunSim(f.sim, [](SstableReader* t) -> sim::Task<void> {
    SstableReader::Iterator it(t);
    const std::string target = MakeInternalKey(
        MakeFixedKey(700), kMaxSequenceNumber, ValueType::kValue);
    EXPECT_TRUE((co_await it.Seek(target)).ok());
    EXPECT_TRUE(it.Valid());
    if (!it.Valid()) co_return;
    EXPECT_EQ(ExtractUserKey(it.internal_key()), Slice(MakeFixedKey(700)));
    EXPECT_EQ(it.value(), Slice("value-700"));

    // Seek past the end.
    const std::string beyond = MakeInternalKey(
        MakeFixedKey(10000), kMaxSequenceNumber, ValueType::kValue);
    EXPECT_TRUE((co_await it.Seek(beyond)).ok());
    EXPECT_FALSE(it.Valid());
  }(table.get()));
}

TEST(SstableTest, MergingIteratorInterleavesTables) {
  SstFixture f;
  // Table A: even keys (seq 1000+), table B: odd keys.
  auto build = [&f](const std::string& name, int start,
                    std::uint64_t file_number) {
    auto file = f.fs.Create(name).value();
    SstableBuilder builder(&f.env, file, SstableOptions{});
    testutil::RunSim(f.sim,
                     [](SstableBuilder* b, int first) -> sim::Task<void> {
      for (int i = first; i < 200; i += 2) {
        std::string value = "v";
        value += std::to_string(i);  // not "v" + ...: GCC 12 -Wrestrict
        EXPECT_TRUE((co_await b->Add(
                         MakeInternalKey(
                             MakeFixedKey(static_cast<std::uint64_t>(i)),
                             static_cast<SequenceNumber>(i + 1),
                             ValueType::kValue),
                         value))
                        .ok());
      }
      EXPECT_TRUE((co_await b->Finish()).ok());
    }(&builder, start));
    auto reader = testutil::RunSim(
        f.sim,
        SstableReader::Open(&f.env, &f.block_cache, file_number, name));
    EXPECT_TRUE(reader.ok());
    return std::shared_ptr<SstableReader>(std::move(*reader));
  };
  auto ta = build("even", 0, 10);
  auto tb = build("odd", 1, 11);

  testutil::RunSim(f.sim, [](SstableReader* a,
                             SstableReader* b) -> sim::Task<void> {
    std::vector<std::unique_ptr<InternalIterator>> children;
    children.push_back(std::make_unique<SstableIterator>(a));
    children.push_back(std::make_unique<SstableIterator>(b));
    MergingIterator merged(std::move(children));
    EXPECT_TRUE((co_await merged.SeekToFirst()).ok());
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(merged.Valid()) << i;
      if (!merged.Valid()) co_return;
      EXPECT_EQ(ExtractUserKey(merged.internal_key()),
                Slice(MakeFixedKey(static_cast<std::uint64_t>(i))));
      EXPECT_TRUE((co_await merged.Next()).ok());
    }
    EXPECT_FALSE(merged.Valid());
  }(ta.get(), tb.get()));
}

}  // namespace
}  // namespace kvcsd::lsm
