#include "harness/workloads.h"

#include <gtest/gtest.h>

#include "harness/flags.h"
#include "harness/report.h"

namespace kvcsd::harness {
namespace {

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--keys=12345", "--scale=0.5", "--full",
                        "--name=abc", "positional"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetUint("keys", 0), 12345u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_TRUE(flags.GetBool("full"));
  EXPECT_FALSE(flags.GetBool("absent"));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetUint("missing", 42), 42u);
}

TEST(ReportTest, Formatting) {
  EXPECT_EQ(FormatSeconds(Seconds(2)), "2.00 s");
  EXPECT_EQ(FormatSeconds(Milliseconds(5)), "5.00 ms");
  EXPECT_EQ(FormatSeconds(Microseconds(3)), "3.0 us");
  EXPECT_EQ(FormatBytes(GiB(2)), "2.00 GiB");
  EXPECT_EQ(FormatBytes(KiB(3)), "3.0 KiB");
  EXPECT_EQ(FormatBytes(10), "10 B");
  EXPECT_EQ(FormatRatio(4.25), "4.2x");
  EXPECT_EQ(FormatCount(32000000), "32.0M");
  EXPECT_EQ(FormatCount(1000000000ull), "1.0B");
  EXPECT_EQ(FormatCount(12), "12");
}

TEST(WorkloadTest, CsdInsertSmokes) {
  TestbedConfig config = TestbedConfig::Scaled();
  InsertSpec spec;
  spec.total_keys = 20000;
  spec.threads = 4;
  spec.shared_keyspace = true;
  CsdInsertOutcome outcome = RunCsdInsert(config, 8, spec);
  EXPECT_GT(outcome.insert_done, 0u);
  EXPECT_GE(outcome.compaction_done, outcome.insert_done);
  EXPECT_GT(outcome.zns_bytes_written, spec.total_keys * 48);
  EXPECT_GT(outcome.pcie_h2d_bytes, spec.total_keys * 48);
}

TEST(WorkloadTest, LsmInsertModesOrdering) {
  TestbedConfig config = TestbedConfig::Scaled();
  // Shrink the tree so this small dataset triggers flushes + compactions.
  config.db_options.memtable_size = KiB(128);
  config.db_options.level_base_size = KiB(512);
  config.db_options.max_file_size = KiB(128);
  InsertSpec spec;
  spec.total_keys = 30000;
  spec.threads = 2;
  spec.shared_keyspace = true;

  LsmInsertOutcome none =
      RunLsmInsert(config, 8, spec, lsm::CompactionMode::kNone);
  LsmInsertOutcome auto_mode =
      RunLsmInsert(config, 8, spec, lsm::CompactionMode::kAuto);
  EXPECT_GT(none.total_done, 0u);
  // Compaction work can only add to the user-visible time.
  EXPECT_GT(auto_mode.total_done, none.total_done);
  EXPECT_GT(auto_mode.compactions, 0u);
  EXPECT_EQ(none.compactions, 0u);
  EXPECT_GT(auto_mode.device_bytes_written, none.device_bytes_written);
}

TEST(WorkloadTest, MultiKeyspaceInsertScalesOut) {
  TestbedConfig config = TestbedConfig::Scaled();
  InsertSpec one;
  one.total_keys = 20000;
  one.threads = 1;
  one.shared_keyspace = false;
  InsertSpec four;
  four.total_keys = 80000;  // 4x the data over 4 keyspaces
  four.threads = 4;
  four.shared_keyspace = false;

  CsdInsertOutcome t1 = RunCsdInsert(config, 32, one);
  CsdInsertOutcome t4 = RunCsdInsert(config, 32, four);
  // 4x data over 4 keyspaces should take well under 4x the time
  // (parallelism across keyspaces), demonstrating the Fig. 9 scaling.
  EXPECT_LT(t4.insert_done, 3 * t1.insert_done);
}

TEST(WorkloadTest, GetRunnersReturnTimeAndTraffic) {
  TestbedConfig config = TestbedConfig::Scaled();
  CsdTestbed bed(config);
  std::vector<client::KeyspaceHandle> handles(2);
  sim::WaitGroup wg(&bed.sim());
  wg.Add(2);
  for (std::uint32_t t = 0; t < 2; ++t) {
    bed.sim().Spawn([](CsdTestbed* b, std::uint32_t thread,
                       std::vector<client::KeyspaceHandle>* out,
                       sim::WaitGroup* done) -> sim::Task<void> {
      std::string name = "g";
      name += std::to_string(thread);  // not "g" + ...: GCC 12 -Wrestrict
      auto ks = (co_await b->client().CreateKeyspace(name)).value();
      auto writer = ks.NewBulkWriter();
      for (std::uint64_t i = 0; i < 5000; ++i) {
        (void)co_await writer.Add(MakeFixedKey(i), std::string(32, 'x'));
      }
      (void)co_await writer.Flush();
      (void)co_await ks.Compact();
      (void)co_await ks.WaitCompaction();
      (*out)[thread] = ks;
      done->Done();
    }(&bed, t, &handles, &wg));
  }
  bed.sim().Run();

  GetSpec spec;
  spec.total_gets = 500;
  spec.keys_per_keyspace = 5000;
  spec.threads = 2;
  QueryOutcome outcome = RunCsdGets(bed, handles, spec);
  EXPECT_GT(outcome.query_time, 0u);
  EXPECT_GT(outcome.device_bytes_read, 0u);
  EXPECT_GT(outcome.pcie_d2h_bytes, 500u * 32);
}

}  // namespace
}  // namespace kvcsd::harness
