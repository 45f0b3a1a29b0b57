// Fig. 12 — "KV-CSD vs RocksDB secondary index query time" (paper §VI-C
// query phase).
//
//   After the Fig. 11 write phase, 16 reader threads query particles above
//   an energy threshold; thresholds sweep selectivity from 0.1% to 20%.
//   KV-CSD answers each query entirely in the device from the SIDX blocks
//   and streams back full particles. RocksDB runs the two-step process:
//   range-scan the auxiliary energy keys, then GET every matching primary
//   key (its caches warm within a run; the OS page cache is dropped before
//   each selectivity level, as in the paper).
//
// Paper's headline: speedup 7.4x at 0.1% selectivity, falling to 1.3x at
// 20% as RocksDB's client-side caching catches up.
//
// Flags: --particles=N (default 2M; paper 256M) --files=F (default 16)
//        --json=PATH (machine-readable report) --trace=PATH (span trace)
#include <algorithm>
#include <cstdio>

#include "harness/flags.h"
#include "harness/json_report.h"
#include "harness/observability.h"
#include "harness/report.h"
#include "sim/sync.h"
#include "vpic_common.h"

using namespace kvcsd;           // NOLINT
using namespace kvcsd::harness;  // NOLINT
using namespace kvcsd::bench;    // NOLINT

namespace {

Tick RunCsdQuery(CsdTestbed& bed,
                 std::vector<client::KeyspaceHandle>& handles,
                 float threshold, std::uint64_t* hits) {
  const Tick start = bed.sim().Now();
  sim::WaitGroup wg(&bed.sim());
  wg.Add(handles.size());
  for (auto& ks : handles) {
    bed.sim().Spawn([](client::KeyspaceHandle handle, float thresh,
                       std::uint64_t* hit_count,
                       sim::WaitGroup* group) -> sim::Task<void> {
      std::vector<std::pair<std::string, std::string>> out;
      (void)co_await handle.QuerySecondaryRangeF32("energy", thresh, 1e30f,
                                                   0, &out);
      *hit_count += out.size();
      group->Done();
    }(ks, threshold, hits, &wg));
  }
  bed.sim().Run();
  return bed.sim().Now() - start;
}

Tick RunLsmQuery(LsmTestbed& bed, std::vector<std::unique_ptr<lsm::Db>>& dbs,
                 float threshold, std::uint64_t* hits) {
  bed.page_cache().DropAll();  // paper cleans the OS cache per run
  const Tick start = bed.sim().Now();
  sim::WaitGroup wg(&bed.sim());
  wg.Add(dbs.size());
  for (auto& db : dbs) {
    bed.sim().Spawn([](lsm::Db* d, float thresh, std::uint64_t* hit_count,
                       sim::WaitGroup* group) -> sim::Task<void> {
      // Step 1: scan the auxiliary index for matching particle ids.
      std::vector<std::pair<std::string, std::string>> aux;
      (void)co_await d->RangeScan(AuxRangeStart(thresh), AuxRangeEnd(), 0,
                                  &aux);
      // Step 2: read back each full particle via its primary key.
      std::string value;
      for (const auto& [aux_key, particle_id] : aux) {
        (void)co_await d->Get(std::string(1, kPrimaryPrefix) + particle_id,
                              &value);
      }
      *hit_count += aux.size();
      group->Done();
    }(db.get(), threshold, hits, &wg));
  }
  bed.sim().Run();
  return bed.sim().Now() - start;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  vpic::GeneratorConfig gen;
  gen.num_particles = flags.GetUint("particles", 2 << 20);
  gen.num_files = static_cast<std::uint32_t>(flags.GetUint("files", 16));
  gen.seed = flags.GetUint("seed", 2023);
  JsonReporter report("fig12_vpic_query", flags);

  TestbedConfig config = TestbedConfig::Scaled();
  config.observability = ObservabilityOptions::FromFlags(flags);
  // Per-instance data: particles/files x (48 B particle + ~30 B aux pair).
  config.ScaleLsmTreeTo(gen.num_particles / gen.num_files * 78);
  // Block cache at the paper's cache:data ratio (~0.5%).
  config.block_cache_bytes =
      std::max<std::uint64_t>(MiB(1), gen.num_particles * 78 / 200);
  std::printf("%s", config.Describe().c_str());
  std::printf("Dataset: %s synthetic VPIC particles in %u files\n",
              FormatCount(gen.num_particles).c_str(), gen.num_files);

  const vpic::Dump dump(gen);

  // Write phase for both systems (not timed here; that is Fig. 11).
  CsdTestbed csd_bed(config);
  std::vector<client::KeyspaceHandle> handles;
  (void)LoadVpicIntoCsd(csd_bed, dump, &handles);
  LsmTestbed lsm_bed(config);
  std::vector<std::unique_ptr<lsm::Db>> dbs;
  (void)LoadVpicIntoLsm(lsm_bed, dump, &dbs);

  Table table("Fig 12: secondary-index query time vs selectivity",
              {"selectivity", "matches", "KV-CSD", "RocksDB", "speedup"});
  for (double pct : {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const float threshold =
        dump.EnergyThresholdForSelectivity(pct / 100.0);
    std::uint64_t csd_hits = 0, lsm_hits = 0;
    const Tick csd_time = RunCsdQuery(csd_bed, handles, threshold,
                                      &csd_hits);
    const Tick lsm_time = RunLsmQuery(lsm_bed, dbs, threshold, &lsm_hits);
    if (csd_hits != lsm_hits) {
      std::printf("WARNING: result mismatch at %.1f%%: %llu vs %llu\n", pct,
                  static_cast<unsigned long long>(csd_hits),
                  static_cast<unsigned long long>(lsm_hits));
    }
    char sel[32];
    std::snprintf(sel, sizeof(sel), "%.1f%%", pct);
    char point[32];
    std::snprintf(point, sizeof(point), "sel%.1f", pct);
    report.AddMetric(std::string("csd.query.") + point + ".hits_per_sec",
                     static_cast<double>(csd_hits) * 1e9 /
                         static_cast<double>(csd_time));
    report.AddMetric(std::string("lsm.query.") + point + ".hits_per_sec",
                     static_cast<double>(lsm_hits) * 1e9 /
                         static_cast<double>(lsm_time));
    report.AddMetric(std::string("csd.query.") + point + ".hits", csd_hits);
    table.AddRow({sel, FormatCount(csd_hits), FormatSeconds(csd_time),
                  FormatSeconds(lsm_time),
                  FormatRatio(static_cast<double>(lsm_time) /
                              static_cast<double>(csd_time))});
  }
  table.Print();
  report.AddStats(csd_bed.sim().stats(), "device.ks.");
  report.AddTable(table);
  report.WriteIfRequested();
  return 0;
}
