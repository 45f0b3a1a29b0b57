// `serve`: a compacted keyspace served open-loop by four tenants, each a
// client on its own SQ/CQ pair. Requests arrive as seeded Poisson streams
// with scrambled-zipfian keys (theta 0.99): 90% GetAsync, 8% PutAsync, 2%
// DeleteAsync. One key id in eight is never preloaded, so some GETs miss
// and some PUTs insert. The device index cache is shrunk below the
// keyspace's PIDX footprint and a small delta-fold watermark makes the
// device fold the delta several times under load; writes refused with
// kBusy during a fold are retried with backoff.
//
// Every request is timed from when it was due. The run first serves a
// fixed nominal rate (the latency metrics and the per-layer window), then
// searches offered rates for the highest one whose GET p99 stays within
// 1 ms and whose completions keep up with arrivals. Finally the delta is
// folded and a full scan must equal a last-writer-wins model of the writes.
// Writes to one key are issued in order (a per-key lock on the host), so
// issue order is commit order and the model is exact.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "common/crc32c.h"
#include "common/keys.h"

namespace perfbench {

using namespace kvcsd;  // NOLINT

namespace {

constexpr std::uint32_t kTenants = 4;
constexpr std::uint64_t kValueBytes = 64;
constexpr double kGetShare = 0.90;
constexpr double kPutShare = 0.08;  // the rest are deletes
constexpr double kZipfTheta = 0.99;
constexpr Tick kSloP99 = Milliseconds(1);
constexpr double kMinCompletionShare = 0.98;
// kBusy retries: ClientConfig's default backoff (50 us doubling to 5 ms);
// 400 attempts outlast any fold by far.
constexpr std::uint32_t kMaxWriteAttempts = 400;
constexpr Tick kBackoffBase = Microseconds(50);
constexpr Tick kBackoffCap = Milliseconds(5);

struct Sizes {
  std::uint64_t key_space;
  std::uint64_t index_cache_bytes;
  std::uint64_t fold_watermark_bytes;
  double nominal_per_s;
  std::uint64_t nominal_requests;
  // Rate-search probes fold first and issue fewer writes than the
  // watermark holds, so no fold stall lands inside a probe.
  std::uint64_t probe_requests;
};

constexpr Sizes kFull{1 << 18, MiB(1), KiB(128), 20000, 80000, 12000};
constexpr Sizes kSmall{1 << 14, KiB(64), KiB(16), 20000, 8000, 1000};

// 64 B value: big-endian id and version, then a pattern derived from both.
std::string ValueFor(std::uint64_t id, std::uint64_t version) {
  std::string v;
  v.reserve(kValueBytes);
  AppendBigEndian64(&v, id);
  AppendBigEndian64(&v, version);
  for (std::size_t i = v.size(); i < kValueBytes; ++i) {
    v.push_back(static_cast<char>('a' + (id * 131 + version * 31 + i * 7) % 26));
  }
  return v;
}

// One offered-rate point: arrivals, per-request latencies from due time.
struct Point {
  std::uint64_t offered = 0;
  Tick last_due = 0;
  std::vector<Tick> get_latency;
  std::vector<Tick> write_latency;
  std::vector<Tick> lag;        // submit start behind due time
  std::vector<Tick> admission;  // submit return behind due time
  std::vector<Tick> completed_at;
  std::uint64_t failed = 0;
  std::uint64_t write_bytes = 0;  // acknowledged user bytes

  double CompletionShare() const {
    std::uint64_t in_time = 0;
    for (Tick t : completed_at) in_time += t <= last_due + kSloP99;
    return offered ? static_cast<double>(in_time) / static_cast<double>(offered)
                   : 0.0;
  }
  bool MeetsSlo() const {
    return failed == 0 && Percentile(get_latency, 99) <= kSloP99 &&
           CompletionShare() >= kMinCompletionShare;
  }
};

struct Ctx {
  harness::CsdTestbed* bed = nullptr;
  Recorder* rec = nullptr;
  std::uint64_t phase = 0;
  std::vector<client::KeyspaceHandle> tenants;
  const ScrambledZipf* zipf = nullptr;
  Point* point = nullptr;

  // Host model: version per id (-1 = absent), applied when a write
  // commits; writes to one id commit in issue order.
  std::vector<std::int64_t> model;
  std::vector<std::uint64_t> issued_max;
  std::vector<bool> preloaded;
  std::vector<bool> ever_deleted;
  std::uint64_t next_version = 1;
  std::map<std::uint64_t, std::unique_ptr<sim::Semaphore>> key_locks;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t busy_retries = 0;

  sim::Semaphore* KeyLock(std::uint64_t id) {
    auto& lock = key_locks[id];
    if (!lock) lock = std::make_unique<sim::Semaphore>(&bed->sim(), 1);
    return lock.get();
  }

  // A GET answer is valid when it is a well-formed value of this id at a
  // version already issued, or NotFound for an id that was never loaded
  // or has been deleted.
  bool GetAnswerValid(std::uint64_t id, const Result<std::string>& got) const {
    if (!got.ok()) {
      return got.status().IsNotFound() && (!preloaded[id] || ever_deleted[id]);
    }
    const std::string& v = *got;
    if (v.size() != kValueBytes || ReadBigEndian64(v.data()) != id) return false;
    const std::uint64_t version = ReadBigEndian64(v.data() + 8);
    return version <= issued_max[id] && v == ValueFor(id, version);
  }
};

sim::Task<void> ReapGet(Ctx* c, client::GetFuture future, std::uint64_t id,
                        Tick due, Tick call_begin, std::uint64_t span) {
  sim::Simulation& sim = c->bed->sim();
  Point* pt = c->point;
  auto got = co_await future.Await();
  c->rec->Close(span);
  c->rec->Op("get", sim.Now() - call_begin);
  pt->get_latency.push_back(sim.Now() - due);
  pt->completed_at.push_back(sim.Now());
  if (!got.ok() && !got.status().IsNotFound()) {
    ++pt->failed;
    ++c->failed;
    std::fprintf(stderr, "serve: get failed: %s\n",
                 got.status().ToString().c_str());
  } else if (!c->GetAnswerValid(id, got)) {
    ++c->mismatches;
    std::fprintf(stderr, "serve: get of id %llu returned a stale or foreign "
                 "value\n", static_cast<unsigned long long>(id));
  }
}

sim::Task<void> Write(Ctx* c, std::uint32_t tenant, std::uint64_t id,
                      std::uint64_t version, bool del, Tick due,
                      std::uint64_t req) {
  sim::Simulation& sim = c->bed->sim();
  Point* pt = c->point;
  client::KeyspaceHandle ks = c->tenants[tenant];
  sim::Semaphore* lock = c->KeyLock(id);
  co_await lock->Acquire();
  const std::string key = MakeFixedKey(id);
  const std::string value = del ? std::string() : ValueFor(id, version);
  const char* op = del ? "delete" : "put";
  Status s;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const Tick call_begin = sim.Now();
    const std::uint64_t span =
        c->rec->Open(std::string("client.") + op, c->phase, req);
    client::StatusFuture future;
    if (del) {
      future = co_await ks.DeleteAsync(key);
    } else {
      future = co_await ks.PutAsync(key, value);
    }
    if (attempt == 0) pt->admission.push_back(sim.Now() - due);
    s = co_await future.Await();
    c->rec->Close(span);
    c->rec->Op(op, sim.Now() - call_begin);
    if (!s.IsBusy() || attempt + 1 >= kMaxWriteAttempts) break;
    ++c->busy_retries;
    co_await sim.Delay(std::min(kBackoffBase << std::min(attempt, 20u),
                                kBackoffCap));
  }
  if (s.ok()) c->model[id] = del ? -1 : static_cast<std::int64_t>(version);
  lock->Release();
  pt->write_latency.push_back(sim.Now() - due);
  pt->completed_at.push_back(sim.Now());
  if (!s.ok()) {
    ++pt->failed;
    ++c->failed;
    std::fprintf(stderr, "serve: %s of id %llu failed: %s\n", op,
                 static_cast<unsigned long long>(id), s.ToString().c_str());
    co_return;
  }
  pt->write_bytes += key.size() + value.size();
}

// One tenant's open-loop stream: `count` Poisson arrivals at `rate_per_s`.
sim::Task<void> Tenant(Ctx* c, std::uint32_t tenant, std::uint64_t count,
                       double rate_per_s, std::uint64_t seed) {
  sim::Simulation& sim = c->bed->sim();
  Point* pt = c->point;
  Rng rng(seed);
  client::KeyspaceHandle ks = c->tenants[tenant];
  double due_ns = static_cast<double>(sim.Now());
  for (std::uint64_t i = 0; i < count; ++i) {
    due_ns += rng.Exponential(rate_per_s) * 1e9;
    const Tick due = static_cast<Tick>(due_ns);
    if (sim.Now() < due) co_await sim.Delay(due - sim.Now());
    pt->lag.push_back(sim.Now() - due);
    pt->last_due = std::max(pt->last_due, due);
    ++pt->offered;
    ++c->attempted;
    const std::uint64_t id = c->zipf->Next(rng);
    const double roll = rng.NextDouble();
    const std::uint64_t req = c->rec->NewRequest();
    if (roll < kGetShare) {
      const Tick call_begin = sim.Now();
      const std::uint64_t span = c->rec->Open("client.get", c->phase, req);
      client::GetFuture future = co_await ks.GetAsync(MakeFixedKey(id));
      pt->admission.push_back(sim.Now() - due);
      sim.Spawn(ReapGet(c, std::move(future), id, due, call_begin, span));
      continue;
    }
    const bool del = roll >= kGetShare + kPutShare;
    const std::uint64_t version = c->next_version++;
    c->issued_max[id] = version;
    if (del) c->ever_deleted[id] = true;
    sim.Spawn(Write(c, tenant, id, version, del, due, req));
  }
}

Point RunPoint(Ctx* c, double rate_per_s, std::uint64_t requests,
               std::uint64_t seed) {
  Point pt;
  c->point = &pt;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    c->bed->sim().Spawn(Tenant(c, t, requests / kTenants,
                               rate_per_s / kTenants, seed * 64 + t));
  }
  c->bed->sim().Run();
  c->point = nullptr;
  return pt;
}

sim::Task<void> Preload(harness::CsdTestbed* bed, Recorder* rec,
                        std::uint64_t phase, const std::vector<bool>* preloaded,
                        client::KeyspaceHandle* out, Tick* drained) {
  const std::uint64_t req = rec->NewRequest();
  std::uint64_t span = rec->Open("client.create_keyspace", phase, req);
  auto created = co_await bed->client().CreateKeyspace("serve");
  rec->Close(span);
  if (!created.ok()) co_return;
  auto writer = created->NewBulkWriter();
  span = rec->Open("client.bulk", phase, req);
  for (std::uint64_t id = 0; id < preloaded->size(); ++id) {
    if (!(*preloaded)[id]) continue;
    if (!(co_await writer.Add(MakeFixedKey(id), ValueFor(id, 0))).ok()) {
      co_return;
    }
  }
  Status s = co_await writer.Drain();
  rec->Close(span);
  if (!s.ok()) co_return;
  *drained = bed->sim().Now();
  *out = *created;
}

sim::Task<void> CompactPreload(Recorder* rec, std::uint64_t phase,
                               client::KeyspaceHandle ks, bool* ok) {
  const std::uint64_t span =
      rec->Open("client.compact", phase, rec->NewRequest());
  Status s = co_await ks.Compact();
  if (s.ok()) s = co_await ks.WaitCompaction();
  rec->Close(span);
  *ok = s.ok();
}

sim::Task<void> OpenTenants(Ctx* c,
                            std::vector<std::unique_ptr<client::Client>>*
                                clients,
                            bool* ok) {
  for (auto& client : *clients) {
    auto ks = co_await client->OpenKeyspace("serve");
    if (!ks.ok()) co_return;
    c->tenants.push_back(*ks);
  }
  *ok = true;
}

// Host-requested fold of the delta into the run.
sim::Task<Status> Fold(Ctx* c) {
  client::KeyspaceHandle ks = c->tenants[0];
  const std::uint64_t span =
      c->rec->Open("client.compact", c->phase, c->rec->NewRequest());
  Status s = co_await ks.Sync();
  if (s.ok()) s = co_await ks.Compact();
  if (s.ok()) s = co_await ks.WaitCompaction();
  c->rec->Close(span);
  co_return s;
}

// Runs Fold to completion; false when it failed.
bool FoldNow(Ctx* c) {
  bool ok = false;
  c->bed->sim().Spawn([](Ctx* ctx, bool* out) -> sim::Task<void> {
    *out = (co_await Fold(ctx)).ok();
  }(c, &ok));
  c->bed->sim().Run();
  ++c->attempted;
  if (!ok) ++c->failed;
  return ok;
}

// Folds the delta, then scans everything; *crc/*rows describe the scan.
sim::Task<void> FoldAndScan(Ctx* c, std::uint32_t* crc, std::uint64_t* rows,
                            bool* ok) {
  client::KeyspaceHandle ks = c->tenants[0];
  if (!(co_await Fold(c)).ok()) co_return;
  const std::uint64_t req = c->rec->NewRequest();
  std::vector<std::pair<std::string, std::string>> out;
  const std::uint64_t span = c->rec->Open("client.scan", c->phase, req);
  Status s = co_await ks.Scan("", "\x7f", 0, &out);
  c->rec->Close(span);
  if (!s.ok()) co_return;
  for (const auto& [key, value] : out) {
    *crc = crc32c::Extend(*crc, key.data(), key.size());
    *crc = crc32c::Extend(*crc, value.data(), value.size());
  }
  *rows = out.size();
  *ok = true;
}

}  // namespace

RunResult RunServe(const RunOptions& opts) {
  RunResult r;
  Recorder rec(opts.trace);
  const Sizes& z = opts.small ? kSmall : kFull;

  // --- set-up: testbed, preload, compaction ---
  const double setup_begin = HostCpuSeconds();
  harness::TestbedConfig config = harness::TestbedConfig::Scaled();
  config.queues.num_queues = kTenants;
  config.device.index_cache_bytes = z.index_cache_bytes;
  config.device.delta_fold_watermark_bytes = z.fold_watermark_bytes;
  harness::CsdTestbed bed(config);
  rec.Bind(&bed.sim());
  const ScrambledZipf zipf(z.key_space, kZipfTheta);

  Ctx c;
  c.bed = &bed;
  c.rec = &rec;
  c.zipf = &zipf;
  c.model.assign(z.key_space, -1);
  c.issued_max.assign(z.key_space, 0);
  c.preloaded.assign(z.key_space, false);
  c.ever_deleted.assign(z.key_space, false);
  Rng load_rng(opts.seed * 1000003 + 7);
  std::uint64_t preloaded = 0;
  for (std::uint64_t id = 0; id < z.key_space; ++id) {
    if (load_rng.Uniform(8) == 7) continue;
    c.preloaded[id] = true;
    c.model[id] = 0;
    ++preloaded;
  }
  const double preload_bytes = static_cast<double>(preloaded) *
                               static_cast<double>(16 + kValueBytes);
  Tick drained = 0;
  bool loaded = false;
  const Tick load_begin = bed.sim().Now();
  client::KeyspaceHandle preload;
  {
    Phase phase(&rec, "load");
    bed.sim().Spawn(Preload(&bed, &rec, phase.id(), &c.preloaded, &preload,
                            &drained));
    bed.sim().Run();
  }
  if (preload.valid()) {
    Phase phase(&rec, "compact");
    bed.sim().Spawn(CompactPreload(&rec, phase.id(), preload, &loaded));
    bed.sim().Run();
  }
  const Tick ready = bed.sim().Now();
  r.info["pidx_bytes"] = std::to_string(
      bed.sim().stats().counter_value("zns.pidx.append_bytes"));
  std::vector<std::unique_ptr<client::Client>> clients;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    client::ClientConfig cc;
    cc.queue_id = t;
    cc.stats_prefix = "client.t" + std::to_string(t) + ".";
    clients.push_back(std::make_unique<client::Client>(
        &bed.queue(), &bed.host_cpu(), config.host_costs, cc));
  }
  bool opened = false;
  bed.sim().Spawn(OpenTenants(&c, &clients, &opened));
  bed.sim().Run();
  const double setup_s = HostCpuSeconds() - setup_begin;
  if (!loaded || !opened) {
    r.attempted = r.failed = 1;
    return r;
  }

  // --- nominal rate: latency metrics and the per-layer window ---
  const Snapshot snap = BeginWindow(bed);
  Point nominal;
  {
    Phase phase(&rec, "serve");
    c.phase = phase.id();
    rec.set_measuring(true);
    nominal = RunPoint(&c, z.nominal_per_s, z.nominal_requests, opts.seed);
    rec.set_measuring(false);
    // The window closes once its delta is folded, so write amplification
    // covers every write of the window exactly once.
    FoldNow(&c);
  }
  const std::uint64_t nominal_watermark_folds =
      bed.sim().stats().counter_value("device.delta.watermark_folds");
  const double nominal_host_s = rec.phase_host_s()["serve"];
  AddDeviceLayers(bed, snap,
                  WindowFacts{static_cast<double>(nominal.write_bytes),
                              static_cast<double>(nominal.get_latency.size()),
                              nominal_host_s},
                  &r.layer);
  r.layer["client.admission_wait_p99_sim_us"] =
      Us(Percentile(nominal.admission, 99));
  r.layer["client.busy_retries"] = static_cast<double>(c.busy_retries);
  r.layer["client.generator_lag_p50_sim_us"] = Us(Percentile(nominal.lag, 50));
  r.layer["client.generator_lag_p99_sim_us"] = Us(Percentile(nominal.lag, 99));
  const double nominal_write_amp =
      static_cast<double>(bed.dev().ssd().total_bytes_written() -
                          snap.zns_written) /
      static_cast<double>(nominal.write_bytes);

  // --- rate search: binary search over the grid nominal x 1.02^i,
  // i in [0, 255], after checking i = 0: always nine probes, so the
  // search's host cost does not depend on where the knee lies, at 2%
  // resolution. Each probe starts from a folded keyspace on the same device
  // and issues fewer writes than trigger a watermark fold, so it measures
  // the read path beside writes; fold stalls are measured at the nominal
  // rate above. ---
  std::string ladder;
  std::uint64_t probe_seed = opts.seed * 1000 + 1;
  const auto rate_at = [&](int i) { return z.nominal_per_s * std::pow(1.02, i); };
  const auto probe = [&](int i) {
    Phase phase(&rec, "serve");
    c.phase = phase.id();
    FoldNow(&c);
    const double rate = rate_at(i);
    const Point p = RunPoint(&c, rate, z.probe_requests, probe_seed++);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%.0f:%s(p99=%.0fus,done=%.3f)",
                  ladder.empty() ? "" : " ", rate, p.MeetsSlo() ? "ok" : "miss",
                  Us(Percentile(p.get_latency, 99)), p.CompletionShare());
    ladder += buf;
    return p.MeetsSlo();
  };
  double pass = 0;
  if (probe(0)) {
    int lo = 0;     // passes
    int hi = 256;   // assumed to miss (~3.1M/s offered)
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (probe(mid) ? lo : hi) = mid;
    }
    pass = rate_at(lo);
  }
  const double host_s = rec.phase_host_s()["serve"];

  // --- verification: fold, scan, compare with the model ---
  std::uint32_t scan_crc = 0;
  std::uint64_t scan_rows = 0;
  bool scanned = false;
  {
    Phase phase(&rec, "verify");
    c.phase = phase.id();
    bed.sim().Spawn(FoldAndScan(&c, &scan_crc, &scan_rows, &scanned));
    bed.sim().Run();
    std::uint32_t model_crc = 0;
    std::uint64_t live = 0;
    for (std::uint64_t id = 0; id < z.key_space; ++id) {
      if (c.model[id] < 0) continue;
      const std::string key = MakeFixedKey(id);
      const std::string value =
          ValueFor(id, static_cast<std::uint64_t>(c.model[id]));
      model_crc = crc32c::Extend(model_crc, key.data(), key.size());
      model_crc = crc32c::Extend(model_crc, value.data(), value.size());
      ++live;
    }
    if (opts.inject_mismatch) ++live;
    ++c.attempted;
    if (!scanned) {
      ++c.failed;
    } else if (scan_rows != live || scan_crc != model_crc) {
      ++c.mismatches;
      std::fprintf(stderr, "serve: scan %llu rows crc %08x, model %llu rows "
                   "crc %08x\n", static_cast<unsigned long long>(scan_rows),
                   scan_crc, static_cast<unsigned long long>(live), model_crc);
    }
    r.e2e["space_amp"] = ZoneBytesHeld(bed) /
                         (static_cast<double>(live) * (16 + kValueBytes));
  }

  r.attempted = c.attempted;
  r.failed = c.failed;
  r.mismatches = c.mismatches;
  r.e2e["ingest_mb_per_sim_s"] =
      preload_bytes / 1e6 / Sec(static_cast<double>(drained - load_begin));
  r.e2e["ready_sim_s"] = Sec(static_cast<double>(ready - load_begin));
  r.e2e["p50_sim_us"] = Us(Percentile(nominal.get_latency, 50));
  r.e2e["p99_sim_us"] = Us(Percentile(nominal.get_latency, 99));
  r.e2e["write_p99_sim_us"] = Us(Percentile(nominal.write_latency, 99));
  r.e2e["kops_per_sim_s"] = pass / 1e3;
  r.e2e["write_amp"] = nominal_write_amp;
  r.e2e["host_s"] = host_s;
  r.e2e["setup_s"] = setup_s;

  AddClientLayers(rec, &r.layer);
  if (opts.trace) AddLedger(bed, opts.seed, &r.layer);

  r.info["key_space"] = std::to_string(z.key_space);
  r.info["preloaded_keys"] = std::to_string(preloaded);
  r.info["index_cache_bytes"] = std::to_string(z.index_cache_bytes);
  r.info["fold_watermark_bytes"] = std::to_string(z.fold_watermark_bytes);
  r.info["nominal_per_s"] = std::to_string(z.nominal_per_s);
  r.info["nominal_gets"] = std::to_string(nominal.get_latency.size());
  r.info["nominal_writes"] = std::to_string(nominal.write_latency.size());
  r.info["nominal_watermark_folds"] = std::to_string(nominal_watermark_folds);
  // Must stay 0: a probe whose writes reach the watermark folds mid-probe.
  r.info["probe_watermark_folds"] = std::to_string(
      bed.sim().stats().counter_value("device.delta.watermark_folds") -
      nominal_watermark_folds);
  r.info["rate_search"] = ladder;
  if (opts.trace && !rec.WriteSpans(opts.trace_path)) {
    std::fprintf(stderr, "serve: cannot write %s\n", opts.trace_path.c_str());
  }
  r.e2e["peak_rss_mb"] = PeakRssMb();
  return r;
}

}  // namespace perfbench
