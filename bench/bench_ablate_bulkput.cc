// Ablation A2 — bulk PUT vs regular PUT (paper §V "Data Insertion").
//
// The paper reports that a 128 KB bulk-put message carrying up to 2570
// 16B/32B pairs is ~7x faster than issuing regular puts, because the
// per-command NVMe/DMA overhead amortizes over the whole frame.
//
// Flags: --keys=N (default 128K) --threads=T (default 4)
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
  const std::uint64_t keys = flags.GetUint("keys", 128 << 10);
  const auto threads = static_cast<std::uint32_t>(flags.GetUint("threads", 4));
  JsonReporter report("ablate_bulkput", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  config.observability = ObservabilityOptions::FromFlags(flags);
  std::printf("Ablation: bulk vs regular PUT, %s keys, %u threads\n",
              FormatCount(keys).c_str(), threads);

  InsertSpec bulk;
  bulk.total_keys = keys;
  bulk.threads = threads;
  bulk.shared_keyspace = true;
  bulk.use_bulk_put = true;
  CsdInsertOutcome with_bulk = RunCsdInsert(config, 32, bulk);

  InsertSpec single = bulk;
  single.use_bulk_put = false;
  CsdInsertOutcome with_single = RunCsdInsert(config, 32, single);

  Table table("A2: insert time by PUT style (paper: bulk is ~7x faster)",
              {"style", "insert time", "PCIe H2D bytes", "speedup"});
  table.AddRow({"regular PUT", FormatSeconds(with_single.insert_done),
                FormatBytes(with_single.pcie_h2d_bytes), "1.0x"});
  table.AddRow({"bulk PUT (128 KB frames)",
                FormatSeconds(with_bulk.insert_done),
                FormatBytes(with_bulk.pcie_h2d_bytes),
                FormatRatio(static_cast<double>(with_single.insert_done) /
                            static_cast<double>(with_bulk.insert_done))});
  table.Print();

  report.AddMetric("csd.bulk.keys_per_sec",
                   static_cast<double>(keys) * 1e9 /
                       static_cast<double>(with_bulk.insert_done));
  report.AddMetric("csd.single.keys_per_sec",
                   static_cast<double>(keys) * 1e9 /
                       static_cast<double>(with_single.insert_done));
  report.AddMetric("csd.bulk.pcie_h2d_bytes", with_bulk.pcie_h2d_bytes);
  report.AddMetric("csd.single.pcie_h2d_bytes", with_single.pcie_h2d_bytes);
  report.AddMetric("csd.bulk.speedup",
                   static_cast<double>(with_single.insert_done) /
                       static_cast<double>(with_bulk.insert_done));
  report.AddTable(table);
  report.WriteIfRequested();
  return 0;
}
