#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "client/client.h"
#include "nvme/skey.h"
#include "vpic/vpic.h"

namespace perfbench {

using namespace kvcsd;  // NOLINT

double HostCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double HostWallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(const std::vector<Tick>& samples, double p) {
  sim::Histogram hist;
  for (Tick t : samples) hist.Record(t);
  return hist.Percentile(p);
}

// ---------------------------------------------------------------------------
// Recorder / Phase

std::uint64_t Recorder::Open(const std::string& name, std::uint64_t parent,
                             std::uint64_t request) {
  if (!trace_) return 0;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.sim_begin = sim_->Now();
  span.host_begin = HostWallSeconds();
  spans_.push_back(std::move(span));
  return spans_.size();
}

void Recorder::Close(std::uint64_t span) {
  if (span == 0) return;
  Span& s = spans_[span - 1];
  s.sim_end = sim_->Now();
  s.host_end = HostWallSeconds();
}

void Recorder::AddSpan(const std::string& name, std::uint64_t parent,
                       std::uint64_t request, Tick sim_begin,
                       double host_begin) {
  if (!trace_) return;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.sim_begin = sim_begin;
  span.sim_end = sim_->Now();
  span.host_begin = host_begin;
  span.host_end = HostWallSeconds();
  spans_.push_back(std::move(span));
}

void Recorder::Op(const std::string& op, Tick latency) {
  if (!measuring_) return;
  OpTotals& t = ops_[op];
  ++t.count;
  t.sum += latency;
}

bool Recorder::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%llu,\"request\":%llu,"
                 "\"sim_begin_ns\":%llu,\"sim_end_ns\":%llu,"
                 "\"host_begin_s\":%.9f,\"host_end_s\":%.9f}\n",
                 i + 1, s.name.c_str(),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.sim_begin),
                 static_cast<unsigned long long>(s.sim_end), s.host_begin,
                 s.host_end);
  }
  return std::fclose(f) == 0;
}

Phase::Phase(Recorder* rec, std::string name, std::uint64_t parent)
    : rec_(rec),
      name_(std::move(name)),
      span_(rec->Open("phase." + name_, parent, 0)),
      cpu_begin_(HostCpuSeconds()) {}

Phase::~Phase() {
  rec_->phase_host_s()[name_] += HostCpuSeconds() - cpu_begin_;
  rec_->Close(span_);
}

// ---------------------------------------------------------------------------
// ScrambledZipf

ScrambledZipf::ScrambledZipf(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  double zetan = 0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
  half_pow_theta_ = std::pow(0.5, theta);
}

std::uint64_t ScrambledZipf::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  std::uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + half_pow_theta_) {
    rank = 1;
  } else {
    rank = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                      std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  // splitmix64 finaliser: a fixed bijection-like scramble of the rank.
  std::uint64_t z = rank + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) % n_;
}

// ---------------------------------------------------------------------------
// Layer metrics

namespace {

Tick SumBusy(const std::array<Tick, sim::kActivityCount>& busy) {
  Tick total = 0;
  for (Tick t : busy) total += t;
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Snapshot BeginWindow(harness::CsdTestbed& bed) {
  Snapshot s;
  device::Device& dev = bed.dev();
  s.now = bed.sim().Now();
  s.h2d_bytes = bed.queue().host_to_device_bytes();
  s.d2h_bytes = bed.queue().device_to_host_bytes();
  s.h2d_busy = SumBusy(bed.queue().h2d_meter().TotalBusy());
  s.dispatch_busy = SumBusy(dev.dispatch_meter().TotalBusy());
  s.soc_busy = dev.cpu().busy_time();
  s.nand_busy = SumBusy(dev.ssd().nand().meter().TotalBusy());
  s.zns_read = dev.ssd().total_bytes_read();
  s.zns_written = dev.ssd().total_bytes_written();
  s.zns_resets = dev.ssd().total_resets();
  s.cache_hits = dev.index_cache().hits();
  s.cache_misses = dev.index_cache().misses();
  s.cache_evictions = dev.index_cache().evictions();
  s.commands = bed.queue().completed();
  s.compaction = dev.compaction_stats();
  bed.sim().stats().Reset();
  return s;
}

void AddDeviceLayers(harness::CsdTestbed& bed, const Snapshot& snap,
                     const WindowFacts& facts, Metrics* out) {
  Metrics& m = *out;
  device::Device& dev = bed.dev();
  sim::Stats& st = bed.sim().stats();
  const double elapsed = static_cast<double>(bed.sim().Now() - snap.now);
  const auto hist = [&](const char* name, double p) {
    return st.histogram(name).Percentile(p);
  };
  const auto ctr = [&](const char* name) {
    return static_cast<double>(st.counter_value(name));
  };

  // nvme: SQ wait, PCIe occupancy and bytes.
  m["nvme.sq_wait_p50_sim_us"] = Us(hist("client.stage.queue_wait_ns", 50));
  m["nvme.sq_wait_p99_sim_us"] = Us(hist("client.stage.queue_wait_ns", 99));
  m["nvme.h2d_busy_share"] = Ratio(
      static_cast<double>(SumBusy(bed.queue().h2d_meter().TotalBusy()) -
                          snap.h2d_busy),
      elapsed);
  const double d2h =
      static_cast<double>(bed.queue().device_to_host_bytes() - snap.d2h_bytes);
  m["nvme.h2d_mb"] =
      static_cast<double>(bed.queue().host_to_device_bytes() - snap.h2d_bytes) /
      1e6;
  m["nvme.d2h_mb"] = d2h / 1e6;
  m["nvme.d2h_bytes_per_match"] =
      Ratio(d2h, ctr("device.select.rows_matched"));

  // kvcsd dispatch and execution.
  m["kvcsd.dispatch.busy_share"] = Ratio(
      static_cast<double>(SumBusy(dev.dispatch_meter().TotalBusy()) -
                          snap.dispatch_busy),
      elapsed);
  m["kvcsd.dispatch.p99_sim_us"] = Us(hist("device.stage.dispatch_ns", 99));
  m["kvcsd.exec.p50_sim_us"] = Us(hist("device.stage.exec_ns", 50));
  m["kvcsd.exec.p99_sim_us"] = Us(hist("device.stage.exec_ns", 99));
  m["kvcsd.soc.busy_share"] = Ratio(
      static_cast<double>(dev.cpu().busy_time() - snap.soc_busy),
      elapsed * dev.cpu().cores());

  // kvcsd read path.
  const double hits =
      static_cast<double>(dev.index_cache().hits() - snap.cache_hits);
  const double misses =
      static_cast<double>(dev.index_cache().misses() - snap.cache_misses);
  m["kvcsd.index_cache.hit_ratio"] = Ratio(hits, hits + misses);
  m["kvcsd.index_cache.evictions"] =
      static_cast<double>(dev.index_cache().evictions() - snap.cache_evictions);
  const double negative = ctr("device.bloom.negative");
  const double maybe = ctr("device.bloom.maybe");
  m["kvcsd.bloom.negative_ratio"] = Ratio(negative, negative + maybe);
  m["kvcsd.bloom.false_positive_ratio"] =
      Ratio(ctr("device.bloom.false_positive"), maybe);
  m["kvcsd.delta_hit_ratio"] = Ratio(ctr("device.query.delta_hits"), facts.gets);

  // kvcsd compactor.
  const device::CompactionStats& cs = dev.compaction_stats();
  m["kvcsd.compact.phase1_sim_s"] =
      Sec(static_cast<double>(cs.phase1_ticks - snap.compaction.phase1_ticks));
  m["kvcsd.compact.phase2_sim_s"] =
      Sec(static_cast<double>(cs.phase2_ticks - snap.compaction.phase2_ticks));
  m["kvcsd.compact.rewrite_per_user_byte"] = Ratio(
      static_cast<double>(cs.bytes_written - snap.compaction.bytes_written),
      facts.user_bytes);
  m["kvcsd.compact.runs_spilled"] =
      static_cast<double>(cs.runs_spilled - snap.compaction.runs_spilled);

  // kvcsd recompaction (delta folds).
  m["kvcsd.recompact.folds"] = ctr("device.recompact.done");
  m["kvcsd.recompact.fold_p99_sim_ms"] =
      Ms(hist("device.recompact.fold_ns", 99));
  const double retained = ctr("device.recompact.pidx_blocks_retained");
  m["kvcsd.recompact.pidx_retained_ratio"] =
      Ratio(retained, retained + ctr("device.recompact.pidx_blocks_rebuilt"));

  // kvcsd select / gather / prefetch.
  m["kvcsd.select.match_ratio"] = Ratio(ctr("device.select.rows_matched"),
                                        ctr("device.select.rows_scanned"));
  m["kvcsd.select.returned_per_scanned_byte"] =
      Ratio(ctr("device.select.bytes_returned"),
            ctr("device.select.bytes_scanned"));
  m["kvcsd.gather.refs_per_range"] =
      Ratio(ctr("device.gather.refs"), ctr("device.gather.ranges"));
  m["kvcsd.prefetch.wasted_ratio"] =
      Ratio(ctr("device.prefetch.wasted"), ctr("device.prefetch.issued"));

  // storage.
  const storage::ZnsSsd& ssd = dev.ssd();
  m["storage.nand.busy_share"] = Ratio(
      static_cast<double>(SumBusy(ssd.nand().meter().TotalBusy()) -
                          snap.nand_busy),
      elapsed * ssd.config().nand.channels);
  m["storage.zns.read_bytes_per_get"] =
      Ratio(static_cast<double>(ssd.total_bytes_read() - snap.zns_read),
            facts.gets);
  m["storage.zns.bytes_written"] =
      static_cast<double>(ssd.total_bytes_written() - snap.zns_written);
  m["storage.zns.resets"] =
      static_cast<double>(ssd.total_resets() - snap.zns_resets);
  m["storage.zns.free_zones"] = static_cast<double>(dev.zones().free_zones());

  // sim: host CPU per completed NVMe command.
  m["sim.host_us_per_cmd"] =
      Ratio(facts.host_s * 1e6,
            static_cast<double>(bed.queue().completed() - snap.commands));
}

void AddClientLayers(const Recorder& rec, Metrics* out) {
  for (const char* op : {"get", "put", "delete", "bulk", "select",
                         "aggregate", "compact"}) {
    const auto it = rec.ops().find(op);
    const double count =
        it == rec.ops().end() ? 0.0 : static_cast<double>(it->second.count);
    const double sum =
        it == rec.ops().end() ? 0.0 : static_cast<double>(it->second.sum);
    (*out)[std::string("client.") + op + ".count"] = count;
    (*out)[std::string("client.") + op + ".mean_sim_us"] =
        Us(Ratio(sum, count));
  }
  for (const char* phase : {"load", "compact", "serve", "query", "verify"}) {
    const auto it = rec.phase_host_s().find(phase);
    (*out)[std::string("sim.host_s.") + phase] =
        it == rec.phase_host_s().end() ? 0.0 : it->second;
  }
}

double ZoneBytesHeld(harness::CsdTestbed& bed) {
  const storage::ZnsSsd& ssd = bed.dev().ssd();
  double held = 0;
  for (std::uint32_t z = 0; z < ssd.num_zones(); ++z) {
    held += static_cast<double>(ssd.write_pointer(z));
  }
  return held;
}

// ---------------------------------------------------------------------------
// VPIC bulk load

namespace {

sim::Task<void> VpicWriter(harness::CsdTestbed* bed, Recorder* rec,
                           std::uint64_t phase, const vpic::Dump* dump,
                           Tick delay, std::uint32_t file, VpicLoad* out) {
  sim::Simulation& sim = bed->sim();
  co_await sim.Delay(delay);
  const std::uint64_t req = rec->NewRequest();
  std::uint64_t span = rec->Open("client.create_keyspace", phase, req);
  auto created =
      co_await bed->client().CreateKeyspace("vpic" + std::to_string(file));
  rec->Close(span);
  if (!created.ok()) {
    ++out->failed;
    co_return;
  }
  out->handles[file] = *created;
  auto writer = created->NewBulkWriter();
  Tick pending_since = sim.Now();
  std::uint64_t pending = 0;
  for (const vpic::Particle& p : dump->all()) {
    const std::uint64_t shipped = writer.frames_sent();
    const double host_begin = rec->tracing() ? HostWallSeconds() : 0.0;
    const Tick sim_begin = sim.Now();
    Status s = co_await writer.Add(p.Key(), p.Payload());
    ++out->attempted;
    ++pending;
    if (!s.ok()) {
      ++out->failed;
      co_return;
    }
    if (writer.frames_sent() != shipped) {
      // This Add shipped the frame holding every pending record and, with
      // one frame in flight, returned on its acknowledgement.
      rec->AddSpan("client.bulk", phase, req, sim_begin, host_begin);
      rec->Op("bulk", sim.Now() - sim_begin);
      out->record_ack.insert(out->record_ack.end(), pending,
                             sim.Now() - pending_since);
      pending = 0;
      pending_since = sim.Now();
    }
  }
  const Tick drain_begin = sim.Now();
  span = rec->Open("client.bulk", phase, req);
  Status s = co_await writer.Drain();
  rec->Close(span);
  rec->Op("bulk", sim.Now() - drain_begin);
  if (!s.ok()) {
    out->failed += pending;
    co_return;
  }
  out->record_ack.insert(out->record_ack.end(), pending,
                         sim.Now() - pending_since);
  out->drained = std::max(out->drained, sim.Now());
}

sim::Task<void> VpicCompact(harness::CsdTestbed* bed, Recorder* rec,
                            std::uint64_t phase, client::KeyspaceHandle ks,
                            VpicLoad* out) {
  sim::Simulation& sim = bed->sim();
  const std::uint64_t req = rec->NewRequest();
  nvme::SecondaryIndexSpec spec{"energy", vpic::kEnergyOffset, 4,
                                nvme::SecondaryKeyType::kF32};
  std::vector<nvme::SecondaryIndexSpec> specs{spec};
  const Tick begin = sim.Now();
  std::uint64_t span = rec->Open("client.compact", phase, req);
  Status s = co_await ks.CompactWithIndexes(std::move(specs));
  rec->Close(span);
  rec->Op("compact", sim.Now() - begin);
  if (s.ok()) {
    span = rec->Open("client.wait_compaction", phase, req);
    s = co_await ks.WaitCompaction();
    rec->Close(span);
  }
  ++out->attempted;
  if (!s.ok()) ++out->failed;
  out->ready = std::max(out->ready, sim.Now());
}

}  // namespace

VpicFiles MakeVpicFiles(std::uint32_t files, std::uint64_t base,
                        std::uint64_t seed) {
  VpicFiles out;
  Rng rng(seed);
  for (std::uint32_t f = 0; f < files; ++f) {
    vpic::GeneratorConfig gen;
    gen.num_particles = static_cast<std::uint64_t>(
        static_cast<double>(base) * (0.98 + 0.04 * rng.NextDouble()));
    gen.num_files = 1;
    gen.seed = seed * 131 + f;
    out.dumps.emplace_back(gen);
    out.start_delay.push_back(static_cast<Tick>(rng.NextDouble() * 1e6));
    out.particles += gen.num_particles;
  }
  return out;
}

VpicLoad LoadVpic(harness::CsdTestbed& bed, Recorder& rec,
                  const VpicFiles& files) {
  VpicLoad out;
  const std::uint32_t n = static_cast<std::uint32_t>(files.dumps.size());
  out.handles.resize(n);
  out.first_add =
      bed.sim().Now() +
      *std::min_element(files.start_delay.begin(), files.start_delay.end());
  {
    Phase phase(&rec, "load");
    for (std::uint32_t f = 0; f < n; ++f) {
      bed.sim().Spawn(VpicWriter(&bed, &rec, phase.id(), &files.dumps[f],
                                 files.start_delay[f], f, &out));
    }
    bed.sim().Run();
  }
  if (out.failed != 0) return out;
  Phase phase(&rec, "compact");
  for (const client::KeyspaceHandle& ks : out.handles) {
    bed.sim().Spawn(VpicCompact(&bed, &rec, phase.id(), ks, &out));
  }
  bed.sim().Run();
  return out;
}

// ---------------------------------------------------------------------------
// Ledger probe

namespace {

constexpr const char* kStageHistograms[] = {
    "client.stage.submit_ns", "client.stage.queue_wait_ns",
    "client.stage.complete_ns", "device.stage.dispatch_ns",
    "device.stage.exec_ns"};

struct LedgerClass {
  double stage_ns = 0;
  double latency_ns = 0;
};

double StageSum(sim::Stats& st) {
  double sum = 0;
  for (const char* name : kStageHistograms) {
    sum += static_cast<double>(st.histogram(name).sum());
  }
  return sum;
}

// Runs `op` alone and books its stage sum and observed latency.
template <typename Fn>
sim::Task<void> Sample(harness::CsdTestbed* bed, LedgerClass* cls, Fn op) {
  sim::Stats& st = bed->sim().stats();
  const double stages0 = StageSum(st);
  const Tick t0 = bed->sim().Now();
  co_await op();
  cls->latency_ns += static_cast<double>(bed->sim().Now() - t0);
  cls->stage_ns += StageSum(st) - stages0;
}

sim::Task<void> LedgerProbe(harness::CsdTestbed* bed, const vpic::Dump* dump,
                            std::map<std::string, LedgerClass>* classes,
                            bool* ok) {
  constexpr int kSamples = 32;
  client::Client& db = bed->client();
  auto created = co_await db.CreateKeyspace("ledger_probe");
  if (!created.ok()) co_return;
  client::KeyspaceHandle ks = *created;
  auto writer = ks.NewBulkWriter();
  const auto& particles = dump->all();
  const std::size_t per_frame = particles.size() / kSamples;
  for (int f = 0; f < kSamples; ++f) {
    for (std::size_t i = f * per_frame; i < (f + 1) * per_frame; ++i) {
      if (!(co_await writer.Add(particles[i].Key(), particles[i].Payload()))
               .ok()) {
        co_return;
      }
    }
    Status s;
    co_await Sample(bed, &(*classes)["bulk"], [&]() -> sim::Task<void> {
      s = co_await writer.Flush();
    });
    if (!s.ok()) co_return;
  }
  if (!(co_await writer.Drain()).ok()) co_return;
  nvme::SecondaryIndexSpec spec{"energy", vpic::kEnergyOffset, 4,
                                nvme::SecondaryKeyType::kF32};
  std::vector<nvme::SecondaryIndexSpec> specs{spec};
  if (!(co_await ks.CompactWithIndexes(std::move(specs))).ok()) co_return;
  if (!(co_await ks.WaitCompaction()).ok()) co_return;

  bool all_ok = true;
  for (int i = 0; i < kSamples; ++i) {
    const std::string key = particles[(i * 37) % particles.size()].Key();
    co_await Sample(bed, &(*classes)["get"], [&]() -> sim::Task<void> {
      auto f = co_await ks.GetAsync(key);
      all_ok &= (co_await f.Await()).ok();
    });
  }
  for (int i = 0; i < kSamples; ++i) {
    const std::string key = particles[(i * 53) % particles.size()].Key();
    co_await Sample(bed, &(*classes)["put"], [&]() -> sim::Task<void> {
      auto f = co_await ks.PutAsync(key, std::string(vpic::kPayloadBytes, 'p'));
      all_ok &= (co_await f.Await()).ok();
    });
    co_await Sample(bed, &(*classes)["delete"], [&]() -> sim::Task<void> {
      auto f = co_await ks.DeleteAsync(key);
      all_ok &= (co_await f.Await()).ok();
    });
  }
  for (int i = 0; i < kSamples; ++i) {
    const float threshold =
        dump->EnergyThresholdForSelectivity(0.01 * (1 + i % 20));
    client::KeyspaceHandle::SelectOptions opts;
    opts.index_name = "energy";
    co_await Sample(bed, &(*classes)["select"], [&]() -> sim::Task<void> {
      std::vector<std::pair<std::string, std::string>> rows;
      all_ok &= (co_await ks.Select(
                     nvme::EncodeSecondaryF32(threshold),
                     nvme::EncodeSecondaryF32(INFINITY), opts, &rows))
                    .ok();
    });
    nvme::AggregateSpec agg{nvme::AggregateFunc::kSum, vpic::kEnergyOffset, 4,
                            nvme::SecondaryKeyType::kF32};
    co_await Sample(bed, &(*classes)["aggregate"], [&]() -> sim::Task<void> {
      all_ok &= (co_await ks.Aggregate("", "\x7f", agg)).ok();
    });
  }
  *ok = all_ok;
}

}  // namespace

void AddLedger(harness::CsdTestbed& bed, std::uint64_t seed, Metrics* out) {
  vpic::GeneratorConfig gen;
  gen.num_particles = 4096;
  gen.num_files = 1;
  gen.seed = seed;
  const vpic::Dump dump(gen);
  std::map<std::string, LedgerClass> classes;
  bool ok = false;
  bed.sim().Spawn(LedgerProbe(&bed, &dump, &classes, &ok));
  bed.sim().Run();
  for (const char* op : {"bulk", "get", "put", "delete", "select",
                         "aggregate"}) {
    const LedgerClass& c = classes[op];
    (*out)[std::string("ledger.unattributed_share.") + op] =
        ok ? 1.0 - Ratio(c.stage_ns, c.latency_ns) : -1.0;
  }
}

// ---------------------------------------------------------------------------
// Output

namespace {

void AppendMetrics(std::string* out, const Metrics& metrics) {
  *out += "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : metrics) {
    if (!first) *out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    *out += "\"" + name + "\":" + buf;
  }
  *out += "}";
}

}  // namespace

std::string ToJson(const RunResult& r) {
  std::string out = "{\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"mismatches\":" + std::to_string(r.mismatches) +
                    ",\"e2e\":";
  AppendMetrics(&out, r.e2e);
  out += ",\"layer\":";
  AppendMetrics(&out, r.layer);
  out += ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":\"" + v + "\"";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
