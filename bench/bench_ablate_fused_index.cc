// Ablation A3 — fused vs separate secondary-index construction.
//
// The paper (§V) builds the primary index and each secondary index as
// separate device operations, and notes as future work that consolidating
// them into one pass would avoid "repeatedly reading back keyspace data
// into SoC DRAM" at the cost of increased DRAM usage. Both variants are
// implemented here; this bench quantifies the trade.
//
// Flags: --keys=N (default 256K)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cstdio>
#include <string>

#include "common/keys.h"
#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/observability.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "sim/sync.h"
#include "vpic/vpic.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT

namespace {

struct Outcome {
  Tick device_done;  // compaction + index work finished
  std::uint64_t zns_reads;
  std::uint64_t zns_writes;
};

Outcome Run(bool fused, std::uint64_t keys, std::uint64_t dram_bytes,
            const ObservabilityOptions& observability) {
  TestbedConfig config = TestbedConfig::Scaled();
  config.device.dram_bytes = dram_bytes;
  config.observability = observability;
  CsdTestbed bed(config);
  Outcome outcome{};
  bed.sim().Spawn([](CsdTestbed* tb, bool fuse,
                     std::uint64_t n) -> sim::Task<void> {
    auto ks = (co_await tb->client().CreateKeyspace("a3")).value();
    auto writer = ks.NewBulkWriter();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string value(28, 'p');
      const float energy = static_cast<float>(i % 1000);
      value.append(reinterpret_cast<const char*>(&energy), 4);
      (void)co_await writer.Add(MakeFixedKey(i), value);
    }
    (void)co_await writer.Flush();

    nvme::SecondaryIndexSpec energy_spec;
    energy_spec.name = "energy";
    energy_spec.value_offset = 28;
    energy_spec.value_length = 4;
    energy_spec.type = nvme::SecondaryKeyType::kF32;
    if (fuse) {
      std::vector<nvme::SecondaryIndexSpec> specs;
      specs.push_back(std::move(energy_spec));
      (void)co_await ks.CompactWithIndexes(std::move(specs));
      (void)co_await ks.WaitCompaction();
    } else {
      (void)co_await ks.Compact();
      (void)co_await ks.WaitCompaction();
      (void)co_await ks.CreateSecondaryIndex(std::move(energy_spec));
    }
  }(&bed, fused, keys));
  bed.sim().Run();
  outcome.device_done = bed.sim().Now();
  outcome.zns_reads = bed.dev().ssd().total_bytes_read();
  outcome.zns_writes = bed.dev().ssd().total_bytes_written();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t keys = flags.GetUint("keys", 256 << 10);
  const auto observability = ObservabilityOptions::FromFlags(flags);
  JsonReporter report("ablate_fused_index", flags);

  std::printf(
      "Ablation: separate (paper design) vs fused (paper future work) "
      "index construction, %s keys\n",
      FormatCount(keys).c_str());
  Table table("A3: compaction + energy-index build",
              {"variant", "SoC DRAM", "total device time", "ZNS read",
               "ZNS written"});
  for (std::uint64_t dram : {MiB(256), MiB(16)}) {
    Outcome separate = Run(false, keys, dram, observability);
    Outcome fused = Run(true, keys, dram, observability);
    const std::string point = "dram" + std::to_string(dram >> 20);
    report.AddMetric("csd.separate." + point + ".keys_per_sec",
                     static_cast<double>(keys) * 1e9 /
                         static_cast<double>(separate.device_done));
    report.AddMetric("csd.fused." + point + ".keys_per_sec",
                     static_cast<double>(keys) * 1e9 /
                         static_cast<double>(fused.device_done));
    report.AddMetric("csd.separate." + point + ".zns_reads",
                     separate.zns_reads);
    report.AddMetric("csd.fused." + point + ".zns_reads", fused.zns_reads);
    table.AddRow({"separate", FormatBytes(dram),
                  FormatSeconds(separate.device_done),
                  FormatBytes(separate.zns_reads),
                  FormatBytes(separate.zns_writes)});
    table.AddRow({"fused", FormatBytes(dram),
                  FormatSeconds(fused.device_done),
                  FormatBytes(fused.zns_reads), FormatBytes(fused.zns_writes)});
  }
  table.Print();
  report.AddTable(table);
  report.WriteIfRequested();
  return 0;
}
