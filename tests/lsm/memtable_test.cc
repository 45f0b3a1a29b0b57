#include "lsm/memtable.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/keys.h"
#include "common/random.h"

namespace kvcsd::lsm {
namespace {

TEST(InternalKeyTest, RoundTrip) {
  std::string k = MakeInternalKey("user-key", 42, ValueType::kValue);
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(Slice(k), &parsed));
  EXPECT_EQ(parsed.user_key, Slice("user-key"));
  EXPECT_EQ(parsed.sequence, 42u);
  EXPECT_EQ(parsed.type, ValueType::kValue);
}

TEST(InternalKeyTest, OrderingUserKeyThenSeqDesc) {
  const std::string a1 = MakeInternalKey("a", 1, ValueType::kValue);
  const std::string a9 = MakeInternalKey("a", 9, ValueType::kValue);
  const std::string b1 = MakeInternalKey("b", 1, ValueType::kValue);
  EXPECT_LT(CompareInternalKeys(Slice(a9), Slice(a1)), 0);  // newer first
  EXPECT_LT(CompareInternalKeys(Slice(a1), Slice(b1)), 0);
  EXPECT_EQ(CompareInternalKeys(Slice(a1), Slice(a1)), 0);
  // Deletion (type 0) sorts after value (type 1) at the same seq.
  const std::string ad = MakeInternalKey("a", 5, ValueType::kDeletion);
  const std::string av = MakeInternalKey("a", 5, ValueType::kValue);
  EXPECT_LT(CompareInternalKeys(Slice(av), Slice(ad)), 0);
}

TEST(InternalKeyTest, MalformedKeysRejected) {
  ParsedInternalKey parsed;
  EXPECT_FALSE(ParseInternalKey(Slice("short"), &parsed));
  std::string bad_type = MakeInternalKey("k", 1, ValueType::kValue);
  bad_type[bad_type.size() - 8] = 0x7f;  // type byte out of range
  EXPECT_FALSE(ParseInternalKey(Slice(bad_type), &parsed));
}

TEST(MemTableTest, PutGet) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "alpha", "one");
  mem.Add(2, ValueType::kValue, "beta", "two");
  std::string value;
  bool found = false;
  EXPECT_TRUE(mem.Get("alpha", 10, &value, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "one");
  EXPECT_TRUE(mem.Get("beta", 10, &value, &found).ok());
  EXPECT_EQ(value, "two");
}

TEST(MemTableTest, MissingKeyNotFound) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "a", "1");
  std::string value;
  bool found = true;
  EXPECT_TRUE(mem.Get("zz", 10, &value, &found).IsNotFound());
  EXPECT_FALSE(found);
}

TEST(MemTableTest, OverwriteResolvesToNewest) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(5, ValueType::kValue, "k", "v5");
  mem.Add(3, ValueType::kValue, "k", "v3");
  std::string value;
  bool found = false;
  ASSERT_TRUE(mem.Get("k", 10, &value, &found).ok());
  EXPECT_EQ(value, "v5");
}

TEST(MemTableTest, SnapshotVisibility) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(5, ValueType::kValue, "k", "v5");
  std::string value;
  bool found = false;
  ASSERT_TRUE(mem.Get("k", 3, &value, &found).ok());  // snapshot at seq 3
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(mem.Get("k", 5, &value, &found).ok());
  EXPECT_EQ(value, "v5");
}

TEST(MemTableTest, TombstoneHidesKey) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(2, ValueType::kDeletion, "k", "");
  std::string value;
  bool found = false;
  EXPECT_TRUE(mem.Get("k", 10, &value, &found).IsNotFound());
  EXPECT_TRUE(found);  // authoritative: stop searching older tables
  // The old version is still visible at the old snapshot.
  ASSERT_TRUE(mem.Get("k", 1, &value, &found).ok());
  EXPECT_EQ(value, "v1");
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable mem;
  Rng rng(77);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 1000; ++i) {
    std::string key = MakeFixedKey(rng.Uniform(10000), 8);
    std::string value = "v";
    value += std::to_string(i);  // not "v" + ...: GCC 12 -Wrestrict
    mem.Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue, key,
            value);
    expected[key] = value;  // later seq wins
  }
  MemTable::Iterator it(&mem);
  it.SeekToFirst();
  std::string last_user;
  std::map<std::string, std::string> seen;
  while (it.Valid()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(it.internal_key(), &parsed));
    const std::string user = parsed.user_key.ToString();
    if (user != last_user) {
      // First occurrence of a user key is its newest version.
      seen[user] = it.value().ToString();
      last_user = user;
    }
    it.Next();
  }
  EXPECT_EQ(seen, expected);
}

TEST(MemTableTest, SeekPositionsAtLowerBound) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "b", "vb");
  mem.Add(2, ValueType::kValue, "d", "vd");
  MemTable::Iterator it(&mem);
  it.Seek(MakeInternalKey("c", kMaxSequenceNumber, ValueType::kValue));
  ASSERT_TRUE(it.Valid());
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(it.internal_key(), &parsed));
  EXPECT_EQ(parsed.user_key, Slice("d"));
}

TEST(MemTableTest, MemoryUsageGrows) {
  MemTable mem;
  const std::size_t before = mem.ApproximateMemoryUsage();
  EXPECT_LT(before, 8u * 1024);  // empty memtable must look nearly empty
  for (int i = 0; i < 1000; ++i) {
    mem.Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue,
            MakeFixedKey(static_cast<std::uint64_t>(i)),
            std::string(100, 'x'));
  }
  EXPECT_GT(mem.ApproximateMemoryUsage(), before + 100u * 1000);
  EXPECT_EQ(mem.num_entries(), 1000u);
}

TEST(ArenaTest, AllocationsAreDistinctAndWritable) {
  Arena arena;
  char* a = arena.Allocate(100);
  char* b = arena.Allocate(100);
  EXPECT_NE(a, b);
  std::memset(a, 0xaa, 100);
  std::memset(b, 0xbb, 100);
  EXPECT_EQ(static_cast<unsigned char>(a[99]), 0xaau);
  // Large allocations get dedicated blocks.
  char* big = arena.Allocate(1 << 20);
  std::memset(big, 0xcc, 1 << 20);
  EXPECT_GE(arena.MemoryUsage(), (1u << 20) + 200u);
}

}  // namespace
}  // namespace kvcsd::lsm
