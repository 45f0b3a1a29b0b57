// `ingest`: the paper's write path (Fig. 7/11). Four writer coroutines
// bulk-load VPIC-shaped records (16 B key, 32 B payload) into four
// keyspaces, then CompactWithIndexes builds the fused energy index and the
// run waits until every keyspace is COMPACTED. Afterwards a full scan of
// each keyspace must fingerprint-match the generated dump, and index-driven
// energy-range counts must equal the dump's.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/crc32c.h"
#include "nvme/skey.h"

namespace perfbench {

using namespace kvcsd;  // NOLINT

namespace {

constexpr std::uint32_t kFiles = 4;
constexpr double kCheckSelectivities[] = {0.001, 0.01, 0.1};

struct FileCheck {
  std::uint32_t scan_crc = 0;
  std::uint64_t scan_rows = 0;
  std::vector<std::uint64_t> range_counts;
  bool ok = false;
};

sim::Task<void> VerifyFile(Recorder* rec, std::uint64_t phase,
                           client::KeyspaceHandle ks,
                           std::vector<float> thresholds, FileCheck* out) {
  const std::uint64_t req = rec->NewRequest();
  std::vector<std::pair<std::string, std::string>> rows;
  std::uint64_t span = rec->Open("client.scan", phase, req);
  Status s = co_await ks.Scan("", "\x7f", 0, &rows);
  rec->Close(span);
  if (!s.ok()) co_return;
  for (const auto& [key, value] : rows) {
    out->scan_crc = crc32c::Extend(out->scan_crc, key.data(), key.size());
    out->scan_crc = crc32c::Extend(out->scan_crc, value.data(), value.size());
  }
  out->scan_rows = rows.size();
  for (float t : thresholds) {
    client::KeyspaceHandle::SelectOptions opts;
    opts.index_name = "energy";
    opts.proj.enabled = true;  // zero-byte projection: counts only
    rows.clear();
    span = rec->Open("client.select", phase, req);
    s = co_await ks.Select(nvme::EncodeSecondaryF32(t),
                           nvme::EncodeSecondaryF32(INFINITY), opts, &rows);
    rec->Close(span);
    if (!s.ok()) co_return;
    out->range_counts.push_back(rows.size());
  }
  out->ok = true;
}

}  // namespace

RunResult RunIngest(const RunOptions& opts) {
  RunResult r;
  Recorder rec(opts.trace);

  const double setup_begin = HostCpuSeconds();
  const VpicFiles files =
      MakeVpicFiles(kFiles, opts.small ? 4096 : 131072, opts.seed);
  harness::CsdTestbed bed(harness::TestbedConfig::Scaled());
  rec.Bind(&bed.sim());
  const double setup_s = HostCpuSeconds() - setup_begin;

  const double user_bytes =
      static_cast<double>(files.particles) * vpic::kParticleBytes;
  const Snapshot snap = BeginWindow(bed);
  rec.set_measuring(true);
  VpicLoad load = LoadVpic(bed, rec, files);
  rec.set_measuring(false);
  r.attempted = load.attempted;
  r.failed = load.failed;
  const double host_s =
      rec.phase_host_s()["load"] + rec.phase_host_s()["compact"];
  AddDeviceLayers(bed, snap, WindowFacts{user_bytes, 0, host_s}, &r.layer);
  const double zns_written =
      static_cast<double>(bed.dev().ssd().total_bytes_written()) -
      static_cast<double>(snap.zns_written);

  // Verification against the generated dump.
  {
    Phase phase(&rec, "verify");
    // Thresholds from file 0's energy distribution, applied to every file.
    std::vector<float> thresholds;
    for (double sel : kCheckSelectivities) {
      thresholds.push_back(files.dumps[0].EnergyThresholdForSelectivity(sel));
    }
    std::vector<FileCheck> checks(kFiles);
    if (load.failed == 0) {
      for (std::uint32_t f = 0; f < kFiles; ++f) {
        // Named, then moved: a prvalue argument to a coroutine is unsafe on
        // GCC 12 (see sim/task.h).
        std::vector<float> t = thresholds;
        bed.sim().Spawn(VerifyFile(&rec, phase.id(), load.handles[f],
                                   std::move(t), &checks[f]));
      }
      bed.sim().Run();
    }
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      r.attempted += 1 + thresholds.size();
      if (!checks[f].ok) {
        ++r.failed;
        continue;
      }
      std::uint32_t crc = 0;
      std::vector<std::uint64_t> counts(thresholds.size(), 0);
      const auto& particles = files.dumps[f].all();
      for (const vpic::Particle& p : particles) {
        const std::string key = p.Key();
        const std::string value = p.Payload();
        crc = crc32c::Extend(crc, key.data(), key.size());
        crc = crc32c::Extend(crc, value.data(), value.size());
        for (std::size_t i = 0; i < thresholds.size(); ++i) {
          if (p.energy >= thresholds[i]) ++counts[i];
        }
      }
      if (opts.inject_mismatch && f == 0) ++counts[0];
      if (checks[f].scan_rows != particles.size() || checks[f].scan_crc != crc) {
        ++r.mismatches;
        std::fprintf(stderr, "ingest: file %u scan %llu rows crc %08x, dump %zu "
                     "rows crc %08x\n", f,
                     static_cast<unsigned long long>(checks[f].scan_rows),
                     checks[f].scan_crc, particles.size(), crc);
      }
      for (std::size_t i = 0; i < thresholds.size(); ++i) {
        if (checks[f].range_counts[i] != counts[i]) {
          ++r.mismatches;
          std::fprintf(stderr, "ingest: file %u energy >= %g: device %llu, "
                       "dump %llu\n", f, thresholds[i],
                       static_cast<unsigned long long>(
                           checks[f].range_counts[i]),
                       static_cast<unsigned long long>(counts[i]));
        }
      }
    }
  }

  const double load_s = Sec(static_cast<double>(load.drained - load.first_add));
  const double p99 = Us(Percentile(load.record_ack, 99));
  r.e2e["ingest_mb_per_sim_s"] = user_bytes / 1e6 / load_s;
  r.e2e["ready_sim_s"] = Sec(static_cast<double>(load.ready - load.first_add));
  r.e2e["p50_sim_us"] = Us(Percentile(load.record_ack, 50));
  r.e2e["p99_sim_us"] = p99;
  r.e2e["write_p99_sim_us"] = p99;
  r.e2e["kops_per_sim_s"] = static_cast<double>(files.particles) / load_s / 1e3;
  r.e2e["write_amp"] = zns_written / user_bytes;
  r.e2e["space_amp"] = ZoneBytesHeld(bed) / user_bytes;
  r.e2e["host_s"] = host_s;
  r.e2e["setup_s"] = setup_s;

  AddClientLayers(rec, &r.layer);
  r.layer["client.admission_wait_p99_sim_us"] = 0;
  r.layer["client.busy_retries"] = 0;
  r.layer["client.generator_lag_p50_sim_us"] = 0;
  r.layer["client.generator_lag_p99_sim_us"] = 0;
  if (opts.trace) AddLedger(bed, opts.seed, &r.layer);

  r.info["particles"] = std::to_string(files.particles);
  r.info["keyspaces"] = std::to_string(kFiles);
  r.info["record_ack_samples"] = std::to_string(load.record_ack.size());
  r.info["index_cache_bytes"] =
      std::to_string(bed.dev().config().EffectiveIndexCacheBytes());
  if (opts.trace && !rec.WriteSpans(opts.trace_path)) {
    std::fprintf(stderr, "ingest: cannot write %s\n", opts.trace_path.c_str());
  }
  r.e2e["peak_rss_mb"] = PeakRssMb();
  return r;
}

}  // namespace perfbench
