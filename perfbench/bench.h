// Shared plumbing of the end-to-end benchmark: host clocks, the
// benchmark-side span recorder, exact percentiles, a scrambled zipfian key
// generator, and the per-layer metric derivation from the program's public
// accessors. Every number here is taken from outside the program: timing
// around calls into a module's public functions, or accessors the modules
// already expose.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness/testbed.h"
#include "kvcsd/device.h"
#include "vpic/vpic.h"

namespace perfbench {

using kvcsd::Tick;

// Process CPU seconds (the host clock of every `host` metric).
double HostCpuSeconds();
// Monotonic wall seconds (span timestamps on the host clock).
double HostWallSeconds();
// Peak resident set of this process, in MB.
double PeakRssMb();


// p-th percentile (0 < p <= 100) of `samples`, estimated the way every
// report of this repository estimates one: sim::Histogram's log-linear
// buckets (~6% wide) with interpolation inside the bucket. 0 when empty.
double Percentile(const std::vector<Tick>& samples, double p);

// Benchmark-side tracing and per-call accounting.
//
// Spans: one per call into a module's public entry point (a KeyspaceHandle
// call, a Simulation::Run phase, the testbed or data-generator build), with
// start/end on both clocks, a parent span and a request id that every span
// of one request shares. Held in memory and written once at exit; only
// recorded when tracing is on.
//
// Op accounting (count and summed simulated latency per client op) and
// phase host times are kept in both modes: they are a handful of adds.
class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  bool tracing() const { return trace_; }

  // Opens a span and returns its id (0 when tracing is off).
  std::uint64_t Open(const std::string& name, std::uint64_t parent,
                     std::uint64_t request);
  void Close(std::uint64_t span);

  std::uint64_t NewRequest() { return ++last_request_; }

  // Counts one completed client op of `latency` simulated ns while a timed
  // phase is being measured.
  void Op(const std::string& op, Tick latency);
  void set_measuring(bool on) { measuring_ = on; }

  // Host CPU seconds per named phase, summed over every entry.
  std::map<std::string, double>& phase_host_s() { return phase_host_s_; }
  const std::map<std::string, double>& phase_host_s() const {
    return phase_host_s_;
  }
  struct OpTotals {
    std::uint64_t count = 0;
    Tick sum = 0;
  };
  const std::map<std::string, OpTotals>& ops() const { return ops_; }

  // Binds the simulation whose clock the spans read.
  void Bind(kvcsd::sim::Simulation* sim) { sim_ = sim; }

  // Records an already finished span that began at (sim_begin, host_begin)
  // and ends now; for calls only known to be layer entries afterwards.
  void AddSpan(const std::string& name, std::uint64_t parent,
               std::uint64_t request, Tick sim_begin, double host_begin);

  // Writes every span as one JSON object per line.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    Tick sim_begin = 0;
    Tick sim_end = 0;
    double host_begin = 0;
    double host_end = 0;
  };

  kvcsd::sim::Simulation* sim_ = nullptr;
  bool trace_;
  bool measuring_ = false;
  std::uint64_t last_request_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, OpTotals> ops_;
  std::map<std::string, double> phase_host_s_;
};

// Scoped host-timed phase: adds its CPU seconds to phase_host_s()[name]
// and, when tracing, records a span. `id()` parents the phase's requests.
class Phase {
 public:
  Phase(Recorder* rec, std::string name, std::uint64_t parent = 0);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  std::uint64_t id() const { return span_; }

 private:
  Recorder* rec_;
  std::string name_;
  std::uint64_t span_;
  double cpu_begin_;
};

// YCSB scrambled zipfian over [0, n): rank r is drawn with probability
// proportional to 1/(r+1)^theta and hashed to an id, so hot ids are
// scattered over the key space instead of sharing index blocks.
class ScrambledZipf {
 public:
  ScrambledZipf(std::uint64_t n, double theta);
  std::uint64_t Next(kvcsd::Rng& rng) const;

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double half_pow_theta_;
};

// Counters taken at the start of a measured window, so the window's share
// of each cumulative accessor is a difference. Histogram- and counter-
// based series in sim.stats() are reset at the same instant instead.
struct Snapshot {
  Tick now = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  Tick h2d_busy = 0;
  Tick dispatch_busy = 0;
  Tick soc_busy = 0;
  Tick nand_busy = 0;
  std::uint64_t zns_read = 0;
  std::uint64_t zns_written = 0;
  std::uint64_t zns_resets = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t commands = 0;
  kvcsd::device::CompactionStats compaction;
};

// Captures the snapshot and resets sim.stats() (observational only).
Snapshot BeginWindow(kvcsd::harness::CsdTestbed& bed);

// Workload facts the layer metrics are normalised by.
struct WindowFacts {
  double user_bytes = 0;     // user bytes the window wrote
  double gets = 0;           // point GETs issued in the window
  double host_s = 0;         // host CPU seconds of the window
};

using Metrics = std::map<std::string, double>;

// Every per-layer metric the device, queue and storage accessors give for
// the window [snap, now). Client- and ledger-side entries are added by
// AddClientLayers/AddLedger.
void AddDeviceLayers(kvcsd::harness::CsdTestbed& bed, const Snapshot& snap,
                     const WindowFacts& facts, Metrics* out);
void AddClientLayers(const Recorder& rec, Metrics* out);

// Bytes held in zones: the written extent of every zone (free zones have
// been reset to zero).
double ZoneBytesHeld(kvcsd::harness::CsdTestbed& bed);

// Simulated ns -> unit helpers.
inline double Us(double ns) { return ns / 1e3; }
inline double Ms(double ns) { return ns / 1e6; }
inline double Sec(double ns) { return ns / 1e9; }

// Outcome of one workload run, printed as a single JSON line.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // operations that finally failed
  std::uint64_t mismatches = 0;  // verification mismatches
  Metrics e2e;
  Metrics layer;
  std::map<std::string, std::string> info;
};

std::string ToJson(const RunResult& result);

// Workload parameters shared by all workloads.
struct RunOptions {
  std::uint64_t seed = 1;
  bool trace = false;
  bool small = false;           // reduced sizes for the benchmark's tests
  bool inject_mismatch = false; // perturbs the host model (tests only)
  std::string trace_path;
};

RunResult RunIngest(const RunOptions& opts);
RunResult RunServe(const RunOptions& opts);
RunResult RunQuery(const RunOptions& opts);

// Seeded VPIC files, one generated dump per file as the paper's loader
// reads them: file f holds `base` particles give or take 2% and starts
// its writer up to 1 ms late, both drawn from `seed`, so real dumps'
// uneven files and loader start times vary with the seed.
struct VpicFiles {
  std::vector<kvcsd::vpic::Dump> dumps;
  std::vector<Tick> start_delay;
  std::uint64_t particles = 0;
};
VpicFiles MakeVpicFiles(std::uint32_t files, std::uint64_t base,
                        std::uint64_t seed);

// Bulk-loads every file into its own keyspace ("vpic<i>"), one BulkWriter
// coroutine per file, then compacts each with the fused energy index (f32
// at payload offset 28) and waits until all are COMPACTED. Runs as two
// phases, "load" and "compact".
struct VpicLoad {
  std::vector<kvcsd::client::KeyspaceHandle> handles;
  // Per record: simulated time from the Add that buffered it to the ack of
  // the bulk frame that carried it.
  std::vector<Tick> record_ack;
  Tick first_add = 0;
  Tick drained = 0;  // every writer's Drain() returned
  Tick ready = 0;    // every keyspace COMPACTED with its index
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
VpicLoad LoadVpic(kvcsd::harness::CsdTestbed& bed, Recorder& rec,
                  const VpicFiles& files);

// The ledger probe: on a small private keyspace, issues each op class
// one request at a time and compares the summed per-stage histograms
// against the client-observed latency, per op class. Adds
// ledger.unattributed_share.<op> for bulk/get/put/delete/select/aggregate.
void AddLedger(kvcsd::harness::CsdTestbed& bed, std::uint64_t seed,
               Metrics* out);

}  // namespace perfbench
