// Fig. 9 — "RocksDB vs KV-CSD insertion time as keyspace count and data
// size increase."
//
//   1..32 threads, each inserting into its OWN keyspace (KV-CSD) or its
//   own RocksDB instance on a shared filesystem. RocksDB runs in three
//   modes: automatic compaction, deferred compaction (one CompactRange at
//   the end), and compaction disabled.
//
// Paper's headline at 32 keyspaces: KV-CSD is 7.8x / 6.1x / 2.9x faster
// than RocksDB auto / deferred / none.
//
// Flags: --keys_per_thread=N (default 64K; paper 32M) --seed=S
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/observability.h"
#include "harness/report.h"
#include "harness/workloads.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys_per_thread =
      flags.GetUint("keys_per_thread", 64 << 10);
  const std::uint64_t seed = flags.GetUint("seed", 1);
  JsonReporter report("fig9_multi_keyspace", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  config.observability = ObservabilityOptions::FromFlags(flags);
  config.ScaleLsmTreeTo(keys_per_thread * (16 + 32));
  std::printf("%s", config.Describe().c_str());
  std::printf(
      "Workload: per-thread keyspaces, %s keys each, 16B/32B pairs\n",
      FormatCount(keys_per_thread).c_str());

  Table table("Fig 9: insertion time vs keyspace count",
              {"keyspaces", "total keys", "KV-CSD",
               "RocksDB auto", "RocksDB deferred", "RocksDB none",
               "speedup auto", "speedup deferred", "speedup none"});

  for (std::uint32_t threads : {1u, 2u, 4u, 8u, 16u, 32u}) {
    InsertSpec spec;
    spec.total_keys = keys_per_thread * threads;
    spec.threads = threads;
    spec.shared_keyspace = false;  // one keyspace / instance per thread
    spec.seed = seed;

    // All runs get the full 32-core host, per the paper's setup.
    CsdInsertOutcome csd = RunCsdInsert(config, 32, spec);
    LsmInsertOutcome rocks_auto =
        RunLsmInsert(config, 32, spec, lsm::CompactionMode::kAuto);
    LsmInsertOutcome rocks_deferred =
        RunLsmInsert(config, 32, spec, lsm::CompactionMode::kDeferred);
    LsmInsertOutcome rocks_none =
        RunLsmInsert(config, 32, spec, lsm::CompactionMode::kNone);

    const std::string point = "ks" + std::to_string(threads);
    report.AddMetric("csd.put." + point + ".keys_per_sec",
                     static_cast<double>(spec.total_keys) * 1e9 /
                         static_cast<double>(csd.insert_done));
    report.AddMetric("lsm.auto." + point + ".keys_per_sec",
                     static_cast<double>(spec.total_keys) * 1e9 /
                         static_cast<double>(rocks_auto.total_done));
    report.AddMetric("lsm.deferred." + point + ".keys_per_sec",
                     static_cast<double>(spec.total_keys) * 1e9 /
                         static_cast<double>(rocks_deferred.total_done));
    report.AddMetric("lsm.none." + point + ".keys_per_sec",
                     static_cast<double>(spec.total_keys) * 1e9 /
                         static_cast<double>(rocks_none.total_done));

    auto ratio = [&](const LsmInsertOutcome& r) {
      return FormatRatio(static_cast<double>(r.total_done) /
                         static_cast<double>(csd.insert_done));
    };
    table.AddRow({std::to_string(threads), FormatCount(spec.total_keys),
                  FormatSeconds(csd.insert_done),
                  FormatSeconds(rocks_auto.total_done),
                  FormatSeconds(rocks_deferred.total_done),
                  FormatSeconds(rocks_none.total_done), ratio(rocks_auto),
                  ratio(rocks_deferred), ratio(rocks_none)});
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();
  return 0;
}
