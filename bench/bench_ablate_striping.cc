// Ablation A1 — zone-cluster striping (paper §IV "Zone Manager").
//
// KV-CSD allocates zones in clusters and rotates writes across a cluster's
// zones from a random start offset so concurrent writers spread over SSD
// channels. This ablation varies the cluster size: with 1 zone per cluster
// every flush of a keyspace serializes on one channel; with more zones the
// flush pipeline overlaps channel work.
//
// Flags: --keys_per_thread=N (default 64K) --threads=T (default 8)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>
#include <string>

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
  const auto threads =
      static_cast<std::uint32_t>(flags.GetUint("threads", 8));
  const auto observability = ObservabilityOptions::FromFlags(flags);
  JsonReporter report("ablate_striping", flags);

  std::printf("Ablation: zone-cluster striping width, %u writers x %s keys\n",
              threads, FormatCount(keys_per_thread).c_str());

  Table table("A1: insert + offloaded compaction vs zones per cluster",
              {"zones/cluster", "insert", "compaction done", "vs width 1"});

  Tick baseline = 0;
  for (std::uint32_t width : {1u, 2u, 4u, 8u}) {
    TestbedConfig config = TestbedConfig::Scaled();
    config.observability = observability;
    config.device.zones.zones_per_cluster = width;

    InsertSpec spec;
    spec.total_keys = keys_per_thread * threads;
    spec.threads = threads;
    spec.shared_keyspace = false;
    CsdInsertOutcome outcome = RunCsdInsert(config, 32, spec);
    if (width == 1) baseline = outcome.compaction_done;

    const std::string point = "width" + std::to_string(width);
    report.AddMetric("csd.put." + point + ".keys_per_sec",
                     static_cast<double>(spec.total_keys) * 1e9 /
                         static_cast<double>(outcome.insert_done));
    report.AddMetric("csd.total." + point + ".keys_per_sec",
                     static_cast<double>(spec.total_keys) * 1e9 /
                         static_cast<double>(outcome.compaction_done));
    table.AddRow({std::to_string(width),
                  FormatSeconds(outcome.insert_done),
                  FormatSeconds(outcome.compaction_done),
                  FormatRatio(static_cast<double>(baseline) /
                              static_cast<double>(outcome.compaction_done))});
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();
  return 0;
}
