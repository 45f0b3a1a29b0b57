// The KV-CSD device: the paper's core contribution.
//
// A Device models the Sidewinder-100 SoC running the on-device key-value
// store as an SPDK userspace driver: 4 weak ARM cores (a CpuPool), a DRAM
// budget that bounds merge-sort runs, and direct NVMe access to the ZNS
// SSD with a ~3 µs software path per I/O (no filesystem, no kernel).
//
// Request flow (paper Fig. 3b/4):
//   client --PCIe/NVMe--> main loop --> per-command handler coroutine
//     PUT/bulk PUT  -> 192 KB DRAM write buffer -> KLOG + VLOG clusters
//                      (keys and values stored separately, §V)
//     COMPACT       -> asynchronous on-device external merge sort: keys
//                      first, then values; produces PIDX +
//                      SORTED_VALUES and the in-memory pivot sketch
//     SIDX BUILD    -> asynchronous too: full scan + extract + external
//                      sort -> SIDX blocks
//     QUERIES       -> sketch -> 4 KB index blocks -> value gather; only
//                      results cross PCIe back to the host
//
// Every completed command, and every background failure the host has no
// command to hear about, lands in the simulation's flight recorder
// (sim/flight_recorder.h); the device does not own a ring of its own.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hostenv/cost_model.h"
#include "kvcsd/index_cache.h"
#include "kvcsd/keyspace_manager.h"
#include "kvcsd/zone_manager.h"
#include "nvme/log_page.h"
#include "nvme/queue.h"
#include "sim/activity.h"
#include "sim/resources.h"
#include "sim/sync.h"
#include "sim/telemetry.h"
#include "storage/zns.h"

namespace kvcsd::device {

struct DeviceConfig {
  storage::ZnsConfig zns;
  ZoneManagerConfig zones;
  std::uint32_t soc_cores = 4;
  std::uint64_t dram_bytes = GiB(8);
  std::uint64_t write_buffer_bytes = KiB(192);  // paper's prototype value
  std::uint32_t index_block_size = 4096;
  // Appends to SORTED_VALUES/PIDX/SIDX are batched to this size.
  std::uint64_t output_batch_bytes = KiB(256);
  hostenv::CostModel costs = hostenv::CostModel::Soc();

  // --- read-path acceleration (DESIGN.md §10) ---
  // DRAM carved out for the PIDX/SIDX block cache, alongside the sort
  // budget below; 0 derives dram_bytes / 8. Set index_cache_enabled=false
  // to turn the cache off regardless of size (for ablations).
  std::uint64_t index_cache_bytes = 0;
  bool index_cache_enabled = true;
  // Bloom bits per primary key for the per-keyspace filter built during
  // compaction and consulted by point lookups; 0 disables both the build
  // and the check.
  std::uint32_t bloom_bits_per_key = 10;
  // Maximum concurrent coalesced range reads per value gather; 1 recovers
  // the serial behavior. Values beyond the NAND channel count only add
  // queueing.
  std::uint32_t gather_fanout = 8;

  // Stats/telemetry/trace name prefix for this device instance. Empty (the
  // default) keeps every historical name; a fleet of devices sharing one
  // simulation uses "shard0.", "shard1.", ... so each device's counters
  // ("shard0.device.*"), utilization meters ("util.shard0.soc.*"), NAND/ZNS
  // series and trace tracks stay separable. Applied transitively to the
  // embedded ZnsConfig (zns.stats_prefix is overwritten at construction).
  std::string stats_prefix;

  // Delta-index headroom bound (DESIGN.md §12): when a COMPACTED
  // keyspace's in-DRAM delta index exceeds this many bytes after a
  // mutation, the device triggers an incremental re-compaction on its own
  // (same fold the host can request with kCompact), bounding the DRAM the
  // delta can occupy. 0 (the default) disables the watermark.
  std::uint64_t delta_fold_watermark_bytes = 0;

  // The DRAM budget of a job's external sorts (a compaction splits it
  // with its fused index sorts) and of the index build's value scan.
  std::uint64_t SortBudgetBytes() const { return dram_bytes / 4; }
  std::uint64_t EffectiveIndexCacheBytes() const {
    if (!index_cache_enabled) return 0;
    return index_cache_bytes != 0 ? index_cache_bytes : dram_bytes / 8;
  }
};

// An unsorted log entry parsed back from KLOG (key + pointer to VLOG).
// `seq` is the keyspace mutation sequence that decides last-writer-wins
// between duplicate keys; `tombstone` marks a point DELETE.
struct KlogEntry {
  std::string key;
  std::uint64_t value_addr = 0;
  std::uint32_t value_len = 0;
  std::uint64_t seq = 0;
  bool tombstone = false;
};

// A sorted run spilled to TEMP zone clusters during an external sort: a
// list of contiguous flash segments, each holding whole serialized entries.
struct SpilledRun {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> segments;
  std::uint64_t entries = 0;
};

// One record of a secondary-index external sort: the order-encoded
// secondary key, the primary key, and the value pointer.
struct SidxTuple {
  std::string skey;
  std::string pkey;
  std::uint64_t vaddr;
  std::uint32_t vlen;
};

// SIDX order: by secondary key, ties broken by primary key. Every sort,
// merge and fold of secondary-index tuples uses this one order.
inline bool SidxLess(const SidxTuple& a, const SidxTuple& b) {
  if (a.skey != b.skey) return a.skey < b.skey;
  return a.pkey < b.pkey;
}

// Compaction observability, cumulative across every compaction and
// secondary-index build the device has run. Byte counters cover the
// compaction path only (KLOG parsing, TEMP spills and re-reads, value
// gather/rewrite, index-block output), so they separate compaction I/O
// from foreground traffic. Phase ticks are summed wall intervals; they
// can overlap when several keyspaces compact concurrently.
struct CompactionStats {
  std::uint64_t bytes_read = 0;       // flash bytes read by compaction
  std::uint64_t bytes_written = 0;    // flash bytes written by compaction
  std::uint64_t runs_spilled = 0;     // sorted runs spilled to TEMP zones
  std::uint64_t max_merge_fanin = 0;  // widest k-way merge observed
  Tick phase1_ticks = 0;  // run generation: KLOG parse + sort + spill
  Tick phase2_ticks = 0;  // merge + value permutation + index build
};

class Device {
 public:
  Device(sim::Simulation* sim, const DeviceConfig& config,
         nvme::QueueSet* queues);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  ~Device();

  // Spawns the command-service loop. Call once.
  void Start();

  // Simulated power cycle: constructs a fresh Device over the surviving
  // ZNS byte state of `prior`. Resets `prior`'s fault injector (if any)
  // so the new device's I/O is live again, then clones the zone payloads.
  // The caller Start()s the new device and runs Recover() on it; `prior`
  // must stay alive (it still parks a coroutine on its old queue set)
  // but is permanently idle. `queues` must be a fresh queue set. The
  // flight recorder lives on `sim`, so its history needs no hand-off.
  static std::unique_ptr<Device> Restart(sim::Simulation* sim,
                                         const DeviceConfig& config,
                                         nvme::QueueSet* queues,
                                         const Device& prior);

  // Crash-consistent recovery (recovery.cc): loads the newest intact
  // metadata snapshot (keyspace table + zone-cluster table), rolls
  // keyspaces caught COMPACTING back to WRITABLE (releasing orphaned
  // TEMP/PIDX/SIDX output clusters), reclaims clusters referenced by no
  // keyspace and zones owned by no cluster, and replays the KLOG chains
  // of WRITABLE keyspaces to rebuild num_kvs/min_key/max_key.
  sim::Task<Status> Recover();

  // Recovers only the keyspace table from the metadata zones (for tests
  // that exercise snapshot persistence in isolation).
  sim::Task<Status> RecoverMetadata();

  KeyspaceManager& keyspaces() { return keyspace_manager_; }
  ZoneManager& zones() { return zone_manager_; }
  storage::ZnsSsd& ssd() { return ssd_; }
  sim::CpuPool& cpu() { return cpu_; }
  const DeviceConfig& config() const { return config_; }
  const IndexBlockCache& index_cache() const { return index_cache_; }

  // Prefix-scoped view over the simulation-wide stats registry (the
  // prefix is config().stats_prefix; empty for single-device sims, so
  // names are unchanged). The device records per-opcode counters
  // ("device.cmd.<op>"), aggregate latency histograms
  // ("device.cmd.<class>_ns") and per-keyspace latency histograms
  // ("device.ks.<keyspace>.<class>_ns") for the put/get/range/
  // secondary_range classes (nvme::OpcodeLatencyClass).
  sim::StatsView& stats();
  const sim::StatsView& stats() const;

  std::uint64_t compactions_done() const { return compactions_done_; }
  const CompactionStats& compaction_stats() const { return compaction_stats_; }

  // Commands popped off the SQ whose handler coroutine has not finished.
  // Returns to zero once the queue drains — including across a power
  // cycle, where the powered-off fast path completes stragglers.
  std::uint64_t inflight_commands() const { return inflight_commands_; }
  // Keyspace jobs (compactions, folds, index builds) started and not yet
  // finished.
  std::uint64_t compactions_running() const { return compactions_running_; }

  // --- in-band telemetry (DESIGN.md §14) ---
  // The device-side builders behind the kGetLogPage admin command. Public
  // so the harness can render a health dump without a queue round-trip;
  // over the wire the host receives the same pages flat-encoded
  // (nvme/log_page.h) and decodes them with Client::GetHealth()/GetStats().
  nvme::HealthPage BuildHealthPage() const;
  nvme::StatsPage BuildStatsPage() const;
  // The health page rendered as a JSON object ({"tick":..., "gauges":{}}).
  std::string HealthJson() const;

  // Windowed wall-time meter of the single-core command dispatch loop
  // (capacity 1.0): the ROADMAP's known serialization bottleneck, made
  // visible as "util.dispatch.*" gauges.
  const sim::ResourceMeter& dispatch_meter() const { return dispatch_meter_; }

 private:
  // White-box access for read-path unit tests (tests/kvcsd/*): GatherValues
  // and ReadIndexBlock are internal, but dedupe/coalescing behavior is
  // worth pinning directly.
  friend struct DeviceTestPeer;

  // --- plumbing ---
  // Services every SQ/CQ pair of the queue set: commands are popped in
  // the set's arbitration order (round-robin by default), so one full
  // queue cannot starve its neighbors.
  sim::Task<void> MainLoop();
  sim::Task<void> HandleCommand(nvme::QueuePair::Incoming incoming);
  sim::Task<nvme::Completion> Dispatch(nvme::Command& cmd);
  // Keyspace-scoped opcodes; runs with `ks` pinned (inflight counter), so
  // a concurrent drop defers instead of freeing the keyspace mid-await.
  sim::Task<nvme::Completion> DispatchKeyspaceCommand(nvme::Command& cmd,
                                                      Keyspace* ks);
  // Drops one pin (a command handler, a detached flush or a background
  // job); the last pin runs a drop that was deferred behind them.
  sim::Task<void> Unpin(Keyspace* ks);
  // Registers a pass through a named crash point; true = power is gone.
  bool CrashPoint(const char* point);

  // Appends to the last cluster of `chain`, allocating a new cluster of
  // `type` when full. `act` attributes the NAND channel time (host-write
  // for log flushes, compact/recompact for the background folds). A
  // cluster allocated here also joins `*scratch` when given: a job's
  // outputs are then released on failure however far their stage got.
  sim::Task<Result<std::uint64_t>> AppendToChain(
      std::vector<ClusterId>* chain, ZoneType type,
      std::span<const std::byte> data,
      sim::Activity act = sim::Activity::kOther,
      std::vector<ClusterId>* scratch = nullptr);

  // --- write path ---
  struct WriteEntry {
    std::string key;
    std::string value;
    std::uint64_t seq = 0;
    bool tombstone = false;
  };
  struct WriteBuffer {
    std::vector<WriteEntry> entries;
    std::uint64_t bytes = 0;
  };
  sim::Task<Status> DoPut(Keyspace* ks, std::string key, std::string value);
  sim::Task<Status> DoBulkPut(Keyspace* ks, const std::string& frame);
  // Point DELETE: a tombstone record in the (delta) log. Blind — deleting
  // an absent key is Ok. Admitted as CheckMutable says.
  sim::Task<Status> DoDelete(Keyspace* ks, std::string key);
  sim::Task<Status> FlushBuffer(Keyspace* ks);
  // Shared admission for PUT/DELETE/bulk: accepts EMPTY, WRITABLE,
  // COMPACTED and RECOMPACTING (delta mode: during a fold writes land in
  // the live generation beside the sealed one). Rejects (kBusy) during
  // the first compaction, and while a fold runs once the delta index has
  // reached twice delta_fold_watermark_bytes — its DRAM bound.
  Status CheckMutable(Keyspace* ks) const;
  // Records one mutation in the COMPACTED delta index (newest wins) and
  // refreshes num_kvs from run.entries + delta_live.
  void ApplyDeltaMutation(Keyspace* ks, const std::string& key,
                          std::string value, std::uint64_t seq,
                          bool tombstone);
  // Delta-index headroom bound: after a delta mutation, launches an
  // incremental re-compaction when delta_index_bytes has crossed
  // config_.delta_fold_watermark_bytes (and the keyspace is COMPACTED
  // with no job running). Counts "device.delta.watermark_folds" per
  // trigger.
  void MaybeRequestDeltaFold(Keyspace* ks);
  // Under the write lock, flushes whatever is still buffered; then waits
  // for every in-flight flush and returns — and clears — the flush
  // failure latched since the last drain. Sync, compaction and fold all
  // start with it. With `keep_lock` the lock is held across the wait and,
  // on success, handed to the caller to release: no write slips in
  // between the drain and what the caller does next.
  sim::Task<Status> DrainWrites(Keyspace* ks, bool keep_lock = false);

  // --- keyspace jobs: compaction, delta fold, secondary-index build ---
  // At most one job runs per keyspace. A full compaction (kCompacting,
  // from EMPTY/WRITABLE) and a delta fold (kRecompacting, from COMPACTED)
  // are deferred and offloaded (paper §V "Compaction"): the command
  // asking for one completes at once and the host awaits the outcome
  // with kCompactWait. An index build leaves the keyspace COMPACTED; its
  // kSecondaryBuild command waits for the job itself.
  enum class JobKind : std::uint8_t { kCompaction, kFold, kIndexBuild };
  // Starts a job: moves the keyspace to kCompacting or kRecompacting (an
  // index build keeps it COMPACTED), pins it (a drop defers until the job
  // ends), resets the completion event, opens the flow hop from the
  // trigger command when `trigger_cmd_id` != 0, and spawns RunJob.
  // `specs` are the fused indexes of a compaction, or the one index to
  // build.
  void LaunchJob(Keyspace* ks, JobKind job,
                 std::vector<nvme::SecondaryIndexSpec> specs = {},
                 std::uint64_t trigger_cmd_id = 0);
  // Runs the job body inside the job's trace span. On failure it releases
  // the body's scratch clusters (best-effort — after a power cut recovery
  // reclaims the orphans instead), puts the sealed chains back in front
  // of the live ones, rolls the state back (EMPTY/WRITABLE after a
  // compaction; COMPACTED after a fold), persists the rollback and
  // reports the failure. Then it records last_compaction, sets the
  // completion event — a waiter never hangs on a failed job — and unpins.
  sim::Task<void> RunJob(Keyspace* ks, JobKind job,
                         std::vector<nvme::SecondaryIndexSpec> specs,
                         std::uint64_t trigger_cmd_id);
  // The one seal: under the write lock, flushes the buffered tail and
  // waits for every flush in flight (DrainWrites), then moves the live
  // log chains and their byte counts into the sealed generation. Returns
  // the seal sequence (next_seq at the seal) with the write lock still
  // held; the caller releases it once it has taken what it needs.
  sim::Task<Result<std::uint64_t>> SealLogs(Keyspace* ks);
  // The one commit of every job. Closes the commit gate and drains the
  // readers, opens the table's commit window, swaps `next` in for the run
  // layout and clears the sealed chains, and persists. A failed persist
  // swaps the old layout and the sealed chains back (the state returns to
  // the job's, for RunJob to roll back). Once the persist succeeded, the
  // delta entries below `seal_seq` — the sealed generation, now in the
  // run — are dropped and num_kvs is refreshed. Either way the index
  // cache forgets the keyspace's old blocks, the window closes and the
  // gate reopens. Returns what the commit made garbage: the sealed
  // chains, then every old-layout cluster `next` no longer references.
  sim::Task<Result<std::vector<ClusterId>>> CommitRun(Keyspace* ks,
                                                      JobKind job,
                                                      RunLayout next,
                                                      std::uint64_t seal_seq);

  // --- compaction (compactor.cc) ---
  // Sorts the keyspace; when `fused_specs` is non-empty, also builds those
  // secondary indexes in the same pass (the paper's §V future-work
  // optimization) by extracting keys from values already in DRAM.
  //
  // The implementation is a multi-core pipeline (see DESIGN.md §7): run
  // generation fans out across the CpuPool, the key merge runs on a loser
  // tree over double-buffered TEMP readers, and PIDX building + fused
  // extraction of one value batch overlaps the gather/write of the next.
  //
  // The compaction job body. `scratch` collects every cluster the
  // compaction allocates, for RunJob to release on failure.
  sim::Task<Status> RunCompaction(Keyspace* ks,
                                  std::vector<nvme::SecondaryIndexSpec>
                                      fused_specs,
                                  std::vector<ClusterId>* scratch);

  // Phase 1 worker: streams one KLOG zone in bounded chunks, accumulates
  // entries up to `run_budget` bytes, and spills sorted runs to TEMP
  // clusters owned by *out (and listed in *scratch). Independent per
  // zone, safe to fan out.
  struct RunGenOutput;
  sim::Task<Status> GenerateZoneRuns(std::uint32_t zone,
                                     std::uint64_t run_budget,
                                     RunGenOutput* out,
                                     std::vector<ClusterId>* scratch);

  // Phase 2 consumer stage: pops gathered value batches off a bounded
  // channel and builds PIDX blocks plus fused secondary-key tuples while
  // the producer gathers and writes the next batch.
  struct ValueBatch;
  struct PidxPipeline;
  sim::Task<Status> IndexBuildStage(PidxPipeline* pipe);

  // Appends `values` in order to `chain` in output_batch_bytes appends (a
  // value never straddles two) and sets (*addrs)[i] to value i's new
  // address. The one sorted-value writer: compaction's batches and a
  // fold's delta values both go out through it.
  sim::Task<Status> WriteSortedValues(std::vector<ClusterId>* chain,
                                      const std::vector<std::string>& values,
                                      std::vector<std::uint64_t>* addrs,
                                      sim::Activity act,
                                      std::vector<ClusterId>* scratch);

  // The one index-block writer, for one PIDX or SIDX chain (compactor.cc):
  // packs entries into index blocks, batches closed blocks into
  // output_batch_bytes appends, and pushes each block's sketch entry as
  // the block opens — its address is patched once the append holding it
  // lands, so a fold can push retained sketch entries in between. Every
  // cluster it allocates joins `scratch`. Callers Flush() whenever
  // batch_full(), then once at the end; a fold also closes the open block
  // at the end of every rebuilt group (a group never shares a block with
  // its neighbour).
  class IndexBlockWriter {
   public:
    IndexBlockWriter(Device* device, std::vector<ClusterId>* chain,
                     ZoneType type, std::vector<SketchEntry>* sketch,
                     sim::Activity act, std::vector<ClusterId>* scratch);
    // The open block, with room for one more entry of `entry_size` bytes
    // (the caller serializes it there): the current block is closed first
    // when the entry does not fit, and `pivot` names a freshly opened one.
    std::string* Entry(std::size_t entry_size, const Slice& pivot);
    void CloseBlock();
    bool batch_full() const {
      return batch_.size() >= device_->config_.output_batch_bytes;
    }
    // Appends the closed blocks as one write and patches their addresses.
    sim::Task<Status> Flush();

   private:
    Device* device_;
    std::vector<ClusterId>* chain_;
    ZoneType type_;
    std::vector<SketchEntry>* sketch_;
    sim::Activity act_;
    std::vector<ClusterId>* scratch_;
    const std::uint32_t block_size_;
    std::string block_;
    std::uint16_t count_ = 0;
    std::size_t open_slot_ = 0;  // sketch index of the open block
    std::string batch_;          // closed blocks awaiting their append
    std::vector<std::size_t> batch_slots_;
  };

  // --- secondary index (compactor.cc) ---
  // External sort state for <skey, pkey, value pointer> tuples. Spilled
  // TEMP clusters are also listed in the job's `scratch`.
  struct SidxSortState {
    std::vector<ClusterId> temp_clusters;
    std::vector<ClusterId>* scratch = nullptr;
    std::vector<SpilledRun> runs;
    std::vector<SidxTuple> current;
    std::uint64_t current_bytes = 0;
    std::uint64_t run_budget = 0;
  };
  sim::Task<Status> SidxAdd(SidxSortState* state, SidxTuple tuple);
  sim::Task<Status> SidxSpill(SidxSortState* state);
  // Merges the spilled runs into SIDX blocks + sketch in *out, whose
  // clusters join the state's scratch list. Releases the state's TEMP
  // clusters on success.
  sim::Task<Status> SidxMergeToBlocks(SidxSortState* state,
                                      const nvme::SecondaryIndexSpec& spec,
                                      SecondaryIndex* out);

  // The index-build job body (the paper's implemented design): a full
  // scan of the COMPACTED run, extract, external sort, then the commit.
  // `scratch` as for RunCompaction.
  sim::Task<Status> BuildSecondaryIndex(Keyspace* ks,
                                        const nvme::SecondaryIndexSpec& spec,
                                        std::vector<ClusterId>* scratch);

  // --- incremental re-compaction (recompact.cc) ---
  // Folds a COMPACTED keyspace's delta into the existing sorted run:
  // seals the delta, rewrites only the PIDX/SIDX blocks the sealed keys
  // touch (untouched blocks stay in place, their old clusters retained),
  // appends the sealed values to fresh SORTED_VALUES clusters, adds new
  // keys to the bloom filter in place, and commits by persisting the
  // merged table — DESIGN.md §12. Writes land in the live delta
  // generation throughout; queries keep reading the pre-fold state, held
  // only at the short commit gate. The fold job body; `scratch` as for
  // RunCompaction.
  sim::Task<Status> RunRecompaction(Keyspace* ks,
                                    std::vector<ClusterId>* scratch);
  // Loads a delta entry's value bytes (inline if the device never lost
  // power since the PUT, otherwise gathered from the VLOG delta).
  sim::Task<Result<std::string>> LoadDeltaValue(
      const DeltaEntry& entry, sim::Activity act = sim::Activity::kHostRead);
  // Admits a query: a COMPACTED or RECOMPACTING keyspace is queryable (a
  // fold leaves the pre-fold structures untouched until its commit), and
  // a query only waits while a fold's commit gate is closed. Each wait is
  // recorded in "device.recompact.gate_ns".
  sim::Task<Status> AwaitQueryable(Keyspace* ks);

  // --- explicit persistence ---
  // Drains the write buffer and persists the table. Ok at once during the
  // first compaction (it sealed the logs and bounces writes); during a
  // fold the snapshot lists the sealed and live chains, and inside any
  // job's commit window Persist waits for the commit to finish first.
  sim::Task<Status> DoSync(Keyspace* ks);

  // --- queries (query.cc) ---
  sim::Task<Result<std::string>> QueryPoint(Keyspace* ks,
                                            const std::string& key);
  // The one range scan: [lo, hi] of the primary index (`index_name`
  // null) or of the named secondary index, whose range is over its
  // order-encoded keys. Returns (pkey, value) rows in pkey or (skey, pkey)
  // order, at most `limit` of them (0 = no limit), with the run merged
  // with the delta index. `act` attributes the scan's flash reads and SoC
  // compute: host-read for client-issued scans, pushdown when
  // QueryPushdown drives them.
  sim::Task<Status> QueryRange(
      Keyspace* ks, const std::string* index_name, const std::string& lo,
      const std::string& hi, std::uint32_t limit,
      std::vector<std::pair<std::string, std::string>>* out,
      sim::Activity act = sim::Activity::kHostRead);

  // --- pushdown (select.cc) ---
  // kKvSelect / kKvAggregate: collects candidate rows through the regular
  // range machinery above (bloom/cache/prefetch on the run side,
  // delta-merge with tombstone suppression, coalesced gather fan-out),
  // then filters on cmd.pred, projects per cmd.proj or folds cmd.agg —
  // all device-side, so only survivors or scalars cross PCIe. Records
  // "device.select.*" counters and a "query" trace span carrying the
  // bytes-scanned vs bytes-returned split.
  sim::Task<Status> QueryPushdown(Keyspace* ks, const nvme::Command& cmd,
                                  nvme::Completion* out);

  // Reads one 4 KB index block (PIDX or SIDX) given its sketch entry,
  // consulting the DRAM index cache first; `keyspace_id` scopes the cache
  // key so recycled block addresses can never alias across keyspaces.
  sim::Task<Result<std::string>> ReadIndexBlock(
      std::uint64_t keyspace_id, const SketchEntry& entry,
      sim::Activity act = sim::Activity::kHostRead);

  // Reads a list of index blocks in list order with up to `window` reads
  // in flight: while Next() hands back block i, blocks i+1 ..
  // i+window-1 are already being read; a window of 1 reads inline. The
  // one way the device streams a run of index blocks — range scans
  // (window 2) and a fold's dirty-PIDX and SIDX streams (gather_fanout).
  // A streaming window, never a read-everything-first buffer. The owner
  // MUST co_await Drain() before the stream dies: detached reads write
  // into its slots.
  class IndexBlockStream {
   public:
    IndexBlockStream(Device* device, std::uint64_t keyspace_id,
                     std::vector<const SketchEntry*> blocks,
                     std::uint32_t window, sim::Activity act);
    IndexBlockStream(const IndexBlockStream&) = delete;
    IndexBlockStream& operator=(const IndexBlockStream&) = delete;

    bool done() const { return next_ >= blocks_.size(); }
    // The next block in list order (call only while !done()).
    sim::Task<Result<std::string>> Next();
    // Awaits every read still in flight; returns how many were never
    // handed out (a scan cut short).
    sim::Task<std::uint64_t> Drain();
    // Reads issued ahead of the block being awaited.
    std::uint64_t issued_ahead() const { return issued_ahead_; }

   private:
    struct Slot {
      bool active = false;
      Result<std::string> block{Status::Aborted("read pending")};
      std::unique_ptr<sim::Event> done;
    };
    static sim::Task<void> Read(Device* device, std::uint64_t keyspace_id,
                                SketchEntry entry, sim::Activity act,
                                Slot* slot);

    Device* device_;
    std::uint64_t keyspace_id_;
    std::vector<const SketchEntry*> blocks_;
    sim::Activity act_;
    std::vector<Slot> slots_;  // block i reads into slots_[i % window]
    std::size_t next_ = 0;     // next block Next() hands out
    std::size_t issued_ = 0;   // blocks whose read has been issued
    std::uint64_t issued_ahead_ = 0;
  };
  // Drains a range scan's stream and adds its read-ahead to the
  // "device.prefetch.issued" / "device.prefetch.wasted" counters.
  sim::Task<void> DrainScan(IndexBlockStream* blocks);

  // Gathers values for (addr, len) requests: identical refs are deduped,
  // address-adjacent reads are coalesced into ranges, and the range reads
  // fan out across NAND channels (config_.gather_fanout inflight).
  // Results are returned in request order regardless of I/O timing.
  struct ValueRef {
    std::uint64_t addr;
    std::uint32_t len;
  };
  sim::Task<Result<std::vector<std::string>>> GatherValues(
      std::vector<ValueRef> refs,
      sim::Activity act = sim::Activity::kHostRead);

  // --- deletion ---
  // Defers while the keyspace is pinned (a command handler, a detached
  // flush or a background job); otherwise completes the drop inline.
  sim::Task<Status> DropKeyspace(Keyspace* ks);
  // The drop itself. Removes the table entry synchronously (before any
  // suspension, so no new command can find the dying keyspace), persists
  // the removal — the commit point — then releases the clusters.
  sim::Task<Status> FinishDrop(Keyspace* ks);
  // Releases every cluster in `ids`; a failure (NotFound after a double
  // release, I/O errors after a power cut) is only recorded as a warning.
  sim::Task<void> ReleaseClustersBestEffort(std::vector<ClusterId> ids);
  // Releases clusters a job is done with before its commit (TEMP runs)
  // and takes them off the job's scratch list, so a later failure of the
  // job does not release them a second time.
  sim::Task<void> ReleaseScratch(std::vector<ClusterId> ids,
                                 std::vector<ClusterId>* scratch);

  // --- background failures, which no command answers for ---
  // A warn breadcrumb in the flight recorder when `s` is not Ok.
  void WarnDiscarded(std::string_view what, const Status& s);
  // A failed compaction or fold (`job`): counts "device.background.failures"
  // (also a health-page gauge), leaves an error breadcrumb naming the
  // keyspace and status, and a "background_error" dump unless the power
  // is already cut (the crash dump covers that).
  void ReportBackgroundFailure(std::string_view job, const Keyspace& ks,
                               const Status& s);

  // --- recovery helpers (recovery.cc) ---
  // Streams a WRITABLE keyspace's KLOG chain to rebuild num_kvs, min_key,
  // max_key, klog_bytes and vlog_bytes after a restart.
  sim::Task<Status> ReplayKlogChains(Keyspace* ks);
  // Streams a COMPACTED keyspace's KLOG *delta* chain to rebuild the
  // in-DRAM delta index (newest seq per key), next_seq, and the byte
  // counters, truncating any torn tail.
  sim::Task<Status> ReplayDeltaChains(Keyspace* ks);

  // --- per-keyspace runtime state ---
  // Flush pipelining: at most this many log flushes per keyspace are in
  // flight; DrainWrites waits for them.
  static constexpr std::uint64_t kMaxInflightFlushes = 4;
  // Everything the device keeps per keyspace beside its table entry: DRAM
  // only, never persisted. Created on first use by Runtime() and freed
  // with the keyspace in FinishDrop.
  struct KeyspaceRuntime {
    explicit KeyspaceRuntime(sim::Simulation* sim);
    // The DRAM write buffer; the write lock serializes every append to it
    // and every swap of it into a flush.
    WriteBuffer buffer;
    sim::Semaphore write_lock;
    sim::Semaphore flush_slots;     // kMaxInflightFlushes permits
    sim::WaitGroup flush_inflight;  // detached FlushIo batches
    // First flush failure since the last DrainWrites, which returns and
    // clears it.
    Status flush_error = Status::Ok();
    // Set while no background job runs: LaunchJob resets it and RunJob
    // sets it once the job — a failed one's rollback included — is over.
    // kCompactWait waits here.
    sim::Event job_done;
    // Set when the keyspace's active_readers count drops to zero; a job's
    // commit waits on it (CommitRun).
    sim::Event readers_idle;
    // Open (set) except while a job commits: CommitRun closes it, drains
    // active_readers, installs and persists the new layout (or rolls it
    // back), then reopens it. Queries wait on it in AwaitQueryable; writes
    // never do — they land in the live log generation, which the commit
    // leaves alone.
    sim::Event commit_gate;
  };
  KeyspaceRuntime& Runtime(const Keyspace* ks);

  // Applies config.stats_prefix transitively (zns.stats_prefix) before
  // the members below are constructed from config_.
  static DeviceConfig Prefixed(DeviceConfig config);

  sim::Simulation* sim_;
  DeviceConfig config_;
  // Prefix-scoped stats recording for everything device-side; transparent
  // pass-through when config_.stats_prefix is empty.
  sim::StatsView stats_view_;
  // Trace track names, carrying config_.stats_prefix so per-device spans
  // stay separable ("shard0.device", "shard0.compaction", ...).
  std::string trk_device_;
  std::string trk_nvme_sq_;
  std::string trk_compaction_;
  std::string trk_query_;
  std::string trk_recovery_;
  nvme::QueueSet* queues_;
  storage::ZnsSsd ssd_;
  ZoneManager zone_manager_;
  KeyspaceManager keyspace_manager_;
  sim::CpuPool cpu_;
  IndexBlockCache index_cache_;
  // Mirrors config_.zns.faults (not owned); nullptr = no fault injection.
  sim::FaultInjector* faults_ = nullptr;
  // Wall time of the single dispatch core (MainLoop), per activity class.
  sim::ResourceMeter dispatch_meter_;

  // Keyed by keyspace id; map nodes never move, so a runtime's address
  // is stable for the keyspace's life.
  std::map<std::uint64_t, KeyspaceRuntime> runtimes_;
  // The timed I/O part of a flush, runs detached per batch.
  sim::Task<void> FlushIo(Keyspace* ks, WriteBuffer batch);

  // Appends this device's gauges ((name, value) pairs) for one telemetry
  // sample: NVMe SQ depth and in-flight counts, per-keyspace state and log
  // bytes, free/used zones per role, compaction progress.
  void CollectTelemetry(sim::TelemetrySampler::Gauges* out) const;

  std::uint64_t compactions_done_ = 0;
  std::uint64_t inflight_commands_ = 0;
  std::uint64_t compactions_running_ = 0;
  CompactionStats compaction_stats_;
  std::uint64_t telemetry_token_ = 0;
  bool started_ = false;
};

}  // namespace kvcsd::device
