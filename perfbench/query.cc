// `query`: the paper's offloaded-query path (Fig. 12 + pushdown). A VPIC
// dataset is loaded and compacted with its energy index during set-up;
// then one analyst coroutine issues a seeded mix of synchronous queries in
// a closed loop at depth 1:
//
//   40%  index-driven Select, energy >= T, full 32 B records back
//   30%  the same Select projected to the 4 B energy field
//   30%  full-range Aggregate (count/min/max/sum of energy >= T)
//
// with T set for 0.1-20% selectivity of a randomly chosen file. Afterwards every answer is
// checked against the generated files: Select rows must be exactly the
// model's matches (order-free fingerprint over key + returned value), and
// aggregates must be bit-identical to vpic::Dump::FileEnergyAggregate.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/crc32c.h"
#include "nvme/skey.h"

namespace perfbench {

using namespace kvcsd;  // NOLINT

namespace {

constexpr std::uint32_t kFiles = 8;
constexpr double kSelectivities[] = {0.001, 0.002, 0.005, 0.01,
                                     0.02,  0.05,  0.1,   0.2};

enum class Kind { kSelect, kProjected, kAggregate };

// One query's answer, reduced to what the model check compares.
struct Answer {
  std::uint32_t file = 0;
  float threshold = 0;
  Kind kind = Kind::kSelect;
  bool ok = false;
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t crc_sum = 0;  // sum of per-row crc32c: order-free
  nvme::AggregateResult agg;
  Tick latency = 0;
};

std::uint64_t RowCrc(const std::string& key, const std::string& value) {
  std::uint32_t crc = crc32c::Extend(0, key.data(), key.size());
  return crc32c::Extend(crc, value.data(), value.size());
}

sim::Task<void> Analyst(harness::CsdTestbed* bed, Recorder* rec,
                        std::uint64_t phase, const VpicFiles* files,
                        std::vector<client::KeyspaceHandle> handles,
                        std::uint64_t seed, std::vector<Answer>* answers) {
  sim::Simulation& sim = bed->sim();
  // The mix is an exact multiset (every selectivity equally often, kinds
  // 4:3:3) in seeded order, so the work per run varies little by seed.
  constexpr Kind kKinds[] = {Kind::kSelect,    Kind::kSelect,
                             Kind::kSelect,    Kind::kSelect,
                             Kind::kProjected, Kind::kProjected,
                             Kind::kProjected, Kind::kAggregate,
                             Kind::kAggregate, Kind::kAggregate};
  constexpr std::size_t kCombos = std::size(kKinds) * std::size(kSelectivities);
  std::vector<std::size_t> order(answers->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i % kCombos;
  Rng rng(seed * 7919 + 17);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (std::size_t q = 0; q < answers->size(); ++q) {
    Answer& a = (*answers)[q];
    a.file = static_cast<std::uint32_t>(rng.Uniform(kFiles));
    const double sel = kSelectivities[order[q] % std::size(kSelectivities)];
    a.threshold = files->dumps[a.file].EnergyThresholdForSelectivity(sel);
    a.kind = kKinds[order[q] / std::size(kSelectivities)];
    client::KeyspaceHandle ks = handles[a.file];
    const std::uint64_t req = rec->NewRequest();
    const Tick begin = sim.Now();
    if (a.kind == Kind::kAggregate) {
      nvme::AggregateSpec spec{nvme::AggregateFunc::kSum, vpic::kEnergyOffset,
                               4, nvme::SecondaryKeyType::kF32};
      client::KeyspaceHandle::SelectOptions opts;
      opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe,
                                     vpic::kEnergyOffset, a.threshold);
      const std::uint64_t span = rec->Open("client.aggregate", phase, req);
      auto got = co_await ks.Aggregate("", "\x7f", spec, opts);
      rec->Close(span);
      a.ok = got.ok();
      if (a.ok) a.agg = *got;
      a.latency = sim.Now() - begin;
      rec->Op("aggregate", a.latency);
      continue;
    }
    client::KeyspaceHandle::SelectOptions opts;
    opts.index_name = "energy";
    if (a.kind == Kind::kProjected) {
      opts.proj.enabled = true;
      opts.proj.offset = vpic::kEnergyOffset;
      opts.proj.length = 4;
    }
    std::vector<std::pair<std::string, std::string>> rows;
    const std::uint64_t span = rec->Open("client.select", phase, req);
    Status s = co_await ks.Select(nvme::EncodeSecondaryF32(a.threshold),
                                  nvme::EncodeSecondaryF32(INFINITY), opts,
                                  &rows);
    rec->Close(span);
    a.ok = s.ok();
    a.latency = sim.Now() - begin;
    rec->Op("select", a.latency);
    for (const auto& [key, value] : rows) {
      ++a.rows;
      a.bytes += key.size() + value.size();
      a.crc_sum += RowCrc(key, value);
    }
  }
}

// The model's answer for `a`, computed from the generated file alone.
Answer Model(const VpicFiles& files, const Answer& a) {
  Answer m = a;
  m.rows = m.bytes = m.crc_sum = 0;
  const vpic::Dump& dump = files.dumps[a.file];
  if (a.kind == Kind::kAggregate) {
    const auto host = dump.FileEnergyAggregate(0, a.threshold);
    m.agg.rows = host.rows;
    m.agg.min = host.min;
    m.agg.max = host.max;
    m.agg.sum = host.sum;
    m.agg.valid = host.valid;
    return m;
  }
  for (const vpic::Particle& p : dump.all()) {
    if (p.energy < a.threshold) continue;
    const std::string key = p.Key();
    std::string value = p.Payload();
    if (a.kind == Kind::kProjected) value = value.substr(vpic::kEnergyOffset, 4);
    ++m.rows;
    m.bytes += key.size() + value.size();
    m.crc_sum += RowCrc(key, value);
  }
  return m;
}

bool Matches(const Answer& got, const Answer& want) {
  if (got.kind == Kind::kAggregate) {
    return got.agg.rows == want.agg.rows && got.agg.valid == want.agg.valid &&
           got.agg.min == want.agg.min && got.agg.max == want.agg.max &&
           got.agg.sum == want.agg.sum;
  }
  return got.rows == want.rows && got.bytes == want.bytes &&
         got.crc_sum == want.crc_sum;
}

}  // namespace

RunResult RunQuery(const RunOptions& opts) {
  RunResult r;
  Recorder rec(opts.trace);

  const double setup_begin = HostCpuSeconds();
  const VpicFiles files =
      MakeVpicFiles(kFiles, opts.small ? 2048 : 16384, opts.seed);
  harness::CsdTestbed bed(harness::TestbedConfig::Scaled());
  rec.Bind(&bed.sim());
  const double user_bytes =
      static_cast<double>(files.particles) * vpic::kParticleBytes;
  const std::uint64_t zns_before = bed.dev().ssd().total_bytes_written();
  const VpicLoad load = LoadVpic(bed, rec, files);
  const double setup_s = HostCpuSeconds() - setup_begin;
  const double load_zns_written = static_cast<double>(
      bed.dev().ssd().total_bytes_written() - zns_before);
  r.attempted = load.attempted;
  r.failed = load.failed;
  // Index footprint (PIDX + SIDX bytes appended), before the window resets
  // the stats registry.
  r.info["index_bytes"] = std::to_string(
      bed.sim().stats().counter_value("zns.pidx.append_bytes") +
      bed.sim().stats().counter_value("zns.sidx.append_bytes"));

  std::vector<Answer> answers(opts.small ? 160 : 1200);
  const Snapshot snap = BeginWindow(bed);
  if (load.failed == 0) {
    Phase phase(&rec, "query");
    rec.set_measuring(true);
    bed.sim().Spawn(Analyst(&bed, &rec, phase.id(), &files, load.handles,
                            opts.seed, &answers));
    bed.sim().Run();
    rec.set_measuring(false);
  }
  const Tick query_sim = bed.sim().Now() - snap.now;
  const double host_s = rec.phase_host_s()["query"];
  AddDeviceLayers(bed, snap, WindowFacts{0, 0, host_s}, &r.layer);

  std::vector<Tick> latencies;
  {
    Phase phase(&rec, "verify");
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const Answer& got = answers[i];
      ++r.attempted;
      if (!got.ok) {
        ++r.failed;
        continue;
      }
      latencies.push_back(got.latency);
      Answer want = Model(files, got);
      if (opts.inject_mismatch && i == 0) ++want.agg.rows, ++want.rows;
      if (!Matches(got, want)) {
        ++r.mismatches;
        std::fprintf(stderr,
                     "query %zu (file %u, energy >= %g, kind %d): device %llu "
                     "rows, model %llu rows\n",
                     i, got.file, got.threshold, static_cast<int>(got.kind),
                     static_cast<unsigned long long>(
                         got.kind == Kind::kAggregate ? got.agg.rows
                                                      : got.rows),
                     static_cast<unsigned long long>(
                         want.kind == Kind::kAggregate ? want.agg.rows
                                                       : want.rows));
      }
    }
  }

  const double load_s = Sec(static_cast<double>(load.drained - load.first_add));
  r.e2e["ingest_mb_per_sim_s"] = user_bytes / 1e6 / load_s;
  r.e2e["ready_sim_s"] = Sec(static_cast<double>(load.ready - load.first_add));
  r.e2e["p50_sim_us"] = Us(Percentile(latencies, 50));
  r.e2e["p99_sim_us"] = Us(Percentile(latencies, 99));
  r.e2e["write_p99_sim_us"] = Us(Percentile(load.record_ack, 99));
  r.e2e["kops_per_sim_s"] =
      static_cast<double>(answers.size()) / Sec(static_cast<double>(query_sim)) /
      1e3;
  r.e2e["write_amp"] = load_zns_written / user_bytes;
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
  r.info["queries"] = std::to_string(answers.size());
  r.info["index_cache_bytes"] =
      std::to_string(bed.dev().config().EffectiveIndexCacheBytes());
  if (opts.trace && !rec.WriteSpans(opts.trace_path)) {
    std::fprintf(stderr, "query: cannot write %s\n", opts.trace_path.c_str());
  }
  r.e2e["peak_rss_mb"] = PeakRssMb();
  return r;
}

}  // namespace perfbench
