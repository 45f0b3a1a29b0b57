#include "kvcsd/keyspace_manager.h"

#include <gtest/gtest.h>

#include "../testutil.h"

namespace kvcsd::device {
namespace {

storage::ZnsConfig SmallZns() {
  storage::ZnsConfig c;
  c.zone_size = KiB(64);
  c.num_zones = 8;
  return c;
}

TEST(KeyspaceManagerTest, CreateFindErase) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);

  auto ks = km.Create("particles");
  ASSERT_TRUE(ks.ok());
  EXPECT_EQ((*ks)->state, KeyspaceState::kEmpty);
  EXPECT_EQ((*ks)->name, "particles");
  EXPECT_EQ(km.Create("particles").status().code(),
            StatusCode::kAlreadyExists);

  auto found = km.Find("particles");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ks);
  EXPECT_TRUE(km.FindById((*ks)->id).ok());
  EXPECT_EQ(km.Find("nope").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(km.Erase((*ks)->id).ok());
  EXPECT_EQ(km.Find("particles").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(km.size(), 0u);
}

TEST(KeyspaceManagerTest, IdsAreUniqueAcrossNames) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  auto a = km.Create("a").value();
  auto b = km.Create("b").value();
  EXPECT_NE(a->id, b->id);
  // Keys may repeat across keyspaces without conflict: the manager only
  // namespaces by keyspace, which is the paper's point.
}

TEST(KeyspaceManagerTest, PersistAndRecoverFullState) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  {
    KeyspaceManager km(&ssd);
    Keyspace* ks = km.Create("sim_dump").value();
    ks->state = KeyspaceState::kCompacted;
    ks->num_kvs = 12345;
    ks->min_key = "aaa";
    ks->max_key = "zzz";
    ks->run.pidx_clusters = {7, 9};
    ks->run.sorted_value_clusters = {11};
    ks->run.pidx_sketch.push_back(SketchEntry{"aaa", 4096, 4096});
    ks->run.pidx_sketch.push_back(SketchEntry{"mmm", 8192, 4096});
    SecondaryIndex sidx;
    sidx.spec.name = "energy";
    sidx.spec.value_offset = 28;
    sidx.spec.value_length = 4;
    sidx.spec.type = nvme::SecondaryKeyType::kF32;
    sidx.sidx_clusters = {13};
    sidx.sketch.push_back(SketchEntry{"\x80\x00\x00\x01", 12288, 4096});
    sidx.entries = 12345;
    ks->run.secondary_indexes["energy"] = sidx;
    ks->pending_delete = true;  // deferred-drop tombstone round-trips
    ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());
  }
  // Power cycle: a fresh manager over the same SSD recovers everything.
  KeyspaceManager recovered(&ssd);
  auto count = testutil::RunSim(sim, recovered.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  Keyspace* ks = recovered.Find("sim_dump").value();
  EXPECT_EQ(ks->state, KeyspaceState::kCompacted);
  EXPECT_EQ(ks->num_kvs, 12345u);
  EXPECT_EQ(ks->min_key, "aaa");
  EXPECT_EQ(ks->max_key, "zzz");
  EXPECT_TRUE(ks->pending_delete);
  EXPECT_EQ(ks->run.pidx_clusters, (std::vector<ClusterId>{7, 9}));
  ASSERT_EQ(ks->run.pidx_sketch.size(), 2u);
  EXPECT_EQ(ks->run.pidx_sketch[1].pivot, "mmm");
  ASSERT_TRUE(ks->run.secondary_indexes.contains("energy"));
  const SecondaryIndex& sidx = ks->run.secondary_indexes.at("energy");
  EXPECT_EQ(sidx.spec.value_offset, 28u);
  EXPECT_EQ(sidx.spec.type, nvme::SecondaryKeyType::kF32);
  EXPECT_EQ(sidx.entries, 12345u);
}

TEST(KeyspaceManagerTest, LatestSnapshotWins) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  (void)km.Create("v1").value();
  ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());
  (void)km.Create("v2").value();
  ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());

  KeyspaceManager recovered(&ssd);
  auto count = testutil::RunSim(sim, recovered.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  EXPECT_TRUE(recovered.Find("v1").ok());
  EXPECT_TRUE(recovered.Find("v2").ok());
}

TEST(KeyspaceManagerTest, MetadataZoneRollsOverWhenFull) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  // Big names make snapshots chunky; persist until well past one 64 KiB
  // zone's worth of snapshots.
  for (int i = 0; i < 64; ++i) {
    (void)km.Create("keyspace-with-a-rather-long-name-" +
                    std::to_string(i))
        .value();
    ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok()) << i;
  }
  KeyspaceManager recovered(&ssd);
  auto count = testutil::RunSim(sim, recovered.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 64u);
}

TEST(KeyspaceManagerTest, RecoverOnBlankDeviceIsEmpty) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  KeyspaceManager km(&ssd);
  auto count = testutil::RunSim(sim, km.Recover());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(KeyspaceManagerTest, IdCounterSurvivesRecovery) {
  sim::Simulation sim;
  storage::ZnsSsd ssd(&sim, SmallZns());
  std::uint64_t first_id;
  {
    KeyspaceManager km(&ssd);
    first_id = km.Create("one").value()->id;
    ASSERT_TRUE(testutil::RunSim(sim, km.Persist()).ok());
  }
  KeyspaceManager recovered(&ssd);
  ASSERT_TRUE(testutil::RunSim(sim, recovered.Recover()).ok());
  auto next = recovered.Create("two").value();
  EXPECT_GT(next->id, first_id);
}

}  // namespace
}  // namespace kvcsd::device
