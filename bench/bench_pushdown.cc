// In-device query pushdown on VPIC (DESIGN.md §13): the Fig. 12 energy
// sweep re-run with SELECT/aggregate instead of a plain secondary-range
// query. Thresholds sweep selectivity from 0.1% to 20%; at each level the
// bench runs three device-side plans over every file keyspace and measures
// what actually crosses PCIe:
//
//   select      predicate energy >= T, full 48 B records back
//   projected   same predicate, value projected to the 4 B energy field
//   aggregate   count/min/max/sum of energy folded on the device — 32 B
//               of scalars per keyspace regardless of row count
//
// The bench is also a correctness gate and exits nonzero when the device
// diverges from the host model:
//   - select payload bytes must equal matches x 48 (and matches x 20
//     projected): host-visible bytes scale with selectivity, never with
//     dataset size, while bytes scanned device-side stay constant;
//   - per-file aggregates must be BIT-IDENTICAL to Dump::FileEnergyAggregate
//     (same scan order, same double fold — not approximately equal).
//
// Flags: --particles=N (default 1M) --files=F (default 16) --seed=S
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/observability.h"
#include "harness/report.h"
#include "nvme/skey.h"
#include "sim/sync.h"
#include "vpic_common.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT
using namespace kvcsd::bench;    // NOLINT

namespace {

struct PhaseResult {
  Tick time = 0;
  std::uint64_t hits = 0;
  std::uint64_t d2h_bytes = 0;      // completion traffic over PCIe
  std::uint64_t payload_bytes = 0;  // device.select.bytes_returned delta
  std::uint64_t scanned_bytes = 0;  // device.select.bytes_scanned delta
};

client::KeyspaceHandle::SelectOptions EnergyPred(float threshold) {
  client::KeyspaceHandle::SelectOptions opts;
  opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe,
                                 vpic::kEnergyOffset, threshold);
  return opts;
}

PhaseResult RunSelect(CsdTestbed& bed,
                      std::vector<client::KeyspaceHandle>& handles,
                      float threshold, bool projected) {
  PhaseResult r;
  const Tick start = bed.sim().Now();
  const std::uint64_t d2h0 = bed.queue().device_to_host_bytes();
  const std::uint64_t pay0 =
      bed.sim().stats().counter_value("device.select.bytes_returned");
  const std::uint64_t scan0 =
      bed.sim().stats().counter_value("device.select.bytes_scanned");

  sim::WaitGroup wg(&bed.sim());
  wg.Add(handles.size());
  for (auto& ks : handles) {
    bed.sim().Spawn([](client::KeyspaceHandle handle, float thresh,
                       bool proj, std::uint64_t* hits,
                       sim::WaitGroup* group) -> sim::Task<void> {
      auto opts = EnergyPred(thresh);
      if (proj) {
        opts.proj.enabled = true;
        opts.proj.offset = vpic::kEnergyOffset;
        opts.proj.length = 4;
      }
      std::vector<std::pair<std::string, std::string>> out;
      (void)co_await handle.Select("", "\x7f", opts, &out);
      *hits += out.size();
      group->Done();
    }(ks, threshold, projected, &r.hits, &wg));
  }
  bed.sim().Run();

  r.time = bed.sim().Now() - start;
  r.d2h_bytes = bed.queue().device_to_host_bytes() - d2h0;
  r.payload_bytes =
      bed.sim().stats().counter_value("device.select.bytes_returned") - pay0;
  r.scanned_bytes =
      bed.sim().stats().counter_value("device.select.bytes_scanned") - scan0;
  return r;
}

// One kSum aggregate per keyspace (the device fills count/min/max/sum for
// any numeric fold); every per-file result is checked bit-for-bit against
// the host model. Returns the mismatch count via *mismatches.
PhaseResult RunAggregate(CsdTestbed& bed,
                         std::vector<client::KeyspaceHandle>& handles,
                         const vpic::Dump& dump, float threshold,
                         std::uint64_t* mismatches) {
  PhaseResult r;
  const Tick start = bed.sim().Now();
  const std::uint64_t d2h0 = bed.queue().device_to_host_bytes();

  std::vector<nvme::AggregateResult> device_aggs(handles.size());
  sim::WaitGroup wg(&bed.sim());
  wg.Add(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    bed.sim().Spawn([](client::KeyspaceHandle handle, float thresh,
                       nvme::AggregateResult* out,
                       sim::WaitGroup* group) -> sim::Task<void> {
      nvme::AggregateSpec spec;
      spec.func = nvme::AggregateFunc::kSum;
      spec.value_offset = vpic::kEnergyOffset;
      spec.value_length = 4;
      spec.type = nvme::SecondaryKeyType::kF32;
      auto opts = EnergyPred(thresh);
      auto agg = co_await handle.Aggregate("", "\x7f", spec, opts);
      if (agg.ok()) *out = *agg;
      group->Done();
    }(handles[i], threshold, &device_aggs[i], &wg));
  }
  bed.sim().Run();

  r.time = bed.sim().Now() - start;
  r.d2h_bytes = bed.queue().device_to_host_bytes() - d2h0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto host = dump.FileEnergyAggregate(
        static_cast<std::uint32_t>(i), threshold);
    const auto& dev = device_aggs[i];
    r.hits += dev.rows;
    if (dev.rows != host.rows || dev.valid != host.valid ||
        dev.min != host.min || dev.max != host.max || dev.sum != host.sum) {
      ++*mismatches;
      std::printf(
          "MISMATCH file %zu: device rows=%llu min=%.17g max=%.17g "
          "sum=%.17g | host rows=%llu min=%.17g max=%.17g sum=%.17g\n",
          i, static_cast<unsigned long long>(dev.rows), dev.min, dev.max,
          dev.sum, static_cast<unsigned long long>(host.rows), host.min,
          host.max, host.sum);
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  vpic::GeneratorConfig gen;
  gen.num_particles = flags.GetUint("particles", 1 << 20);
  gen.num_files = static_cast<std::uint32_t>(flags.GetUint("files", 16));
  gen.seed = flags.GetUint("seed", 2023);
  JsonReporter report("pushdown", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  config.observability = ObservabilityOptions::FromFlags(flags);
  std::printf("%s", config.Describe().c_str());
  std::printf("Dataset: %s synthetic VPIC particles in %u files\n",
              FormatCount(gen.num_particles).c_str(), gen.num_files);

  const vpic::Dump dump(gen);
  CsdTestbed bed(config);
  std::vector<client::KeyspaceHandle> handles;
  (void)LoadVpicIntoCsd(bed, dump, &handles);

  const std::uint64_t dataset_value_bytes =
      gen.num_particles * vpic::kPayloadBytes;
  const std::uint64_t record_bytes = vpic::kIdBytes + vpic::kPayloadBytes;

  Table table("Pushdown: host-visible bytes vs selectivity",
              {"selectivity", "matches", "select B", "projected B",
               "aggregate B", "scanned B", "select", "aggregate"});
  int failures = 0;
  std::vector<std::uint64_t> select_d2h;
  std::vector<std::uint64_t> agg_d2h;
  std::vector<std::uint64_t> match_counts;
  for (double pct : {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const float threshold = dump.EnergyThresholdForSelectivity(pct / 100.0);
    const std::uint64_t expected = dump.CountAbove(threshold);

    PhaseResult sel = RunSelect(bed, handles, threshold, /*projected=*/false);
    PhaseResult proj = RunSelect(bed, handles, threshold, /*projected=*/true);
    std::uint64_t agg_mismatches = 0;
    PhaseResult agg =
        RunAggregate(bed, handles, dump, threshold, &agg_mismatches);

    // --- correctness gates ---
    if (sel.hits != expected || proj.hits != expected ||
        agg.hits != expected) {
      std::printf("FAIL %.1f%%: hits select=%llu proj=%llu agg=%llu, "
                  "host model says %llu\n", pct,
                  static_cast<unsigned long long>(sel.hits),
                  static_cast<unsigned long long>(proj.hits),
                  static_cast<unsigned long long>(agg.hits),
                  static_cast<unsigned long long>(expected));
      ++failures;
    }
    if (agg_mismatches != 0) {
      std::printf("FAIL %.1f%%: %llu per-file aggregate mismatches\n", pct,
                  static_cast<unsigned long long>(agg_mismatches));
      ++failures;
    }
    // Returned payload is exactly matches x record (or projected record):
    // host-visible bytes track selectivity, not dataset size.
    if (sel.payload_bytes != expected * record_bytes) {
      std::printf("FAIL %.1f%%: select payload %llu != matches x %llu\n",
                  pct, static_cast<unsigned long long>(sel.payload_bytes),
                  static_cast<unsigned long long>(record_bytes));
      ++failures;
    }
    if (proj.payload_bytes != expected * (vpic::kIdBytes + 4)) {
      std::printf("FAIL %.1f%%: projected payload %llu != matches x %llu\n",
                  pct, static_cast<unsigned long long>(proj.payload_bytes),
                  static_cast<unsigned long long>(vpic::kIdBytes + 4));
      ++failures;
    }
    // The device scanned the whole dataset each time, selectivity aside.
    if (sel.scanned_bytes != dataset_value_bytes) {
      std::printf("FAIL %.1f%%: scanned %llu != dataset %llu\n", pct,
                  static_cast<unsigned long long>(sel.scanned_bytes),
                  static_cast<unsigned long long>(dataset_value_bytes));
      ++failures;
    }

    select_d2h.push_back(sel.d2h_bytes);
    agg_d2h.push_back(agg.d2h_bytes);
    match_counts.push_back(expected);

    char sel_label[32];
    std::snprintf(sel_label, sizeof(sel_label), "%.1f%%", pct);
    table.AddRow({sel_label, FormatCount(expected),
                  FormatBytes(sel.d2h_bytes), FormatBytes(proj.d2h_bytes),
                  FormatBytes(agg.d2h_bytes),
                  FormatBytes(sel.scanned_bytes), FormatSeconds(sel.time),
                  FormatSeconds(agg.time)});

    char point[32];
    std::snprintf(point, sizeof(point), "sel%.1f", pct);
    const std::string prefix = std::string("csd.pushdown.") + point;
    report.AddMetric(prefix + ".matches", expected);
    report.AddMetric(prefix + ".select_d2h_bytes", sel.d2h_bytes);
    report.AddMetric(prefix + ".projected_d2h_bytes", proj.d2h_bytes);
    report.AddMetric(prefix + ".aggregate_d2h_bytes", agg.d2h_bytes);
    report.AddMetric(prefix + ".scanned_bytes", sel.scanned_bytes);
    report.AddMetric(prefix + ".select_rows_per_sec",
                     static_cast<double>(expected) * 1e9 /
                         static_cast<double>(sel.time));
    report.AddMetric(prefix + ".aggregate_rows_per_sec",
                     static_cast<double>(expected) * 1e9 /
                         static_cast<double>(agg.time));
  }
  table.Print();

  // Sweep-level shape checks. Selects must scale with selectivity: the
  // 20% level returns ~200x the matches of the 0.1% level, so it must
  // move at least 20x the bytes. Aggregates must NOT scale: the per-level
  // completion traffic is a fixed 48 B per keyspace.
  if (select_d2h.back() < select_d2h.front() * 20) {
    std::printf("FAIL: select d2h bytes do not scale with selectivity "
                "(%llu at 0.1%% vs %llu at 20%%)\n",
                static_cast<unsigned long long>(select_d2h.front()),
                static_cast<unsigned long long>(select_d2h.back()));
    ++failures;
  }
  for (std::size_t i = 1; i < agg_d2h.size(); ++i) {
    if (agg_d2h[i] != agg_d2h.front()) {
      std::printf("FAIL: aggregate d2h bytes vary with selectivity "
                  "(%llu vs %llu)\n",
                  static_cast<unsigned long long>(agg_d2h.front()),
                  static_cast<unsigned long long>(agg_d2h[i]));
      ++failures;
    }
  }
  std::printf("%s: device aggregates %s host model; select bytes scale "
              "%.0fx across a %.0fx match spread\n",
              failures == 0 ? "OK" : "FAIL",
              failures == 0 ? "bit-identical to" : "DIVERGE from",
              static_cast<double>(select_d2h.back()) /
                  static_cast<double>(select_d2h.front()),
              static_cast<double>(match_counts.back()) /
                  static_cast<double>(match_counts.front()));

  report.AddMetric("csd.pushdown.failures",
                   static_cast<std::uint64_t>(failures));
  report.AddStats(bed.sim().stats(), "device.select.");
  report.AddStats(bed.sim().stats(), "device.cmd.kv_");
  report.AddTable(table);
  report.WriteIfRequested();
  return failures == 0 ? 0 : 1;
}
