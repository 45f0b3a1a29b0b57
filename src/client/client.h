// KV-CSD host client library — the public API of this repository.
//
// This is the "lightweight client library" of the paper (Fig. 1, §VI): a
// userspace driver that packs key-value calls into NVMe commands and DMAs
// them to the device, bypassing the host kernel entirely. All methods are
// simulation coroutines; a typical application process looks like:
//
//   sim::Task<void> App(client::Client* db) {
//     auto ks = (co_await db->CreateKeyspace("particles")).value();
//     auto writer = ks.NewBulkWriter();
//     for (...) co_await writer.Add(key, value);
//     co_await writer.Drain();
//     co_await ks.Compact();          // returns immediately (offloaded)
//     co_await ks.WaitCompaction();   // barrier before querying
//     co_await ks.CreateSecondaryIndexF32("energy", 28);
//     std::vector<std::pair<std::string, std::string>> hits;
//     co_await ks.QuerySecondaryRangeF32("energy", 1.2f, 9e9f, 0, &hits);
//   }
//
// Every call, sync or async, takes one path (DESIGN.md §11): the command
// is stamped, takes an admission-window permit (config.max_inflight),
// pays the userspace driver cost and rings one doorbell; a per-client
// reactor coroutine reaps completions off the client's CQ ring. The
// *Async methods return a future right after the submission DMA, and each
// sync method is its async twin plus Await() — so sync and async traffic
// from one client share the same window, and many commands can ride the
// wire concurrently:
//
//   std::deque<client::StatusFuture> window;
//   for (...) {
//     if (window.size() >= depth) {
//       co_await window.front().Await();
//       window.pop_front();
//     }
//     window.push_back(co_await ks.PutAsync(key, value));
//   }
//   while (!window.empty()) {
//     co_await window.front().Await();
//     window.pop_front();
//   }
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hostenv/cost_model.h"
#include "nvme/command.h"
#include "nvme/log_page.h"
#include "nvme/queue.h"
#include "nvme/skey.h"
#include "sim/resources.h"
#include "sim/task.h"

namespace kvcsd::client {

struct ClientConfig {
  // Bulk-put frame capacity (the paper's prototype uses 128 KB messages).
  std::uint64_t bulk_frame_bytes = KiB(128);

  // --- admission and pipelining ---
  // Admission window: a call (sync or async) blocks before submission once
  // this many commands from this client are submitted-but-unreaped (bounds
  // memory and queue depth).
  std::uint32_t max_inflight = 64;
  // BulkWriter pipelining: how many bulk frames may be in flight at once.
  // 1 recovers the fully synchronous flush-per-frame behavior.
  std::uint32_t bulk_inflight_frames = 1;
  // Pin every command from this client to one SQ of the queue set;
  // kAnyQueue spreads submissions round-robin across all pairs.
  static constexpr std::uint32_t kAnyQueue = 0xffffffffu;
  std::uint32_t queue_id = kAnyQueue;
  // Prefix for this client's stats ("client." -> client.cmd.put_ns).
  // Multi-tenant benches use distinct prefixes (client.t3.) so per-tenant
  // latency distributions stay separable.
  std::string stats_prefix = "client.";

  // SyncWithRetry backoff: base doubles per retryable failure, capped.
  Tick retry_backoff_base = Microseconds(50);
  Tick retry_backoff_cap = Milliseconds(5);
};

class Client;

// Awaitable handle to one in-flight command; Await() decodes the
// completion to T, one decode per T (the aliases below list them all).
// Copyable (shared state); Await() the same future once — the completion
// payload is moved out.
template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }
  // True once the device's completion has DMA'd back (Await won't block).
  bool completed() const { return state_ != nullptr && state_->completed; }

  sim::Task<T> Await() { return AwaitImpl(state_); }

 private:
  friend class Client;
  friend class KeyspaceHandle;
  template <typename>
  friend class Future;
  explicit Future(std::shared_ptr<nvme::ReplyState> state)
      : state_(std::move(state)) {}
  // The same command under another decode (F is a Future<U>).
  template <typename F>
  F As() && {
    return F(std::move(state_));
  }
  // Static so the coroutine frame owns its own reference and the future
  // object itself may die while the await is pending.
  static sim::Task<T> AwaitImpl(std::shared_ptr<nvme::ReplyState> state);
  std::shared_ptr<nvme::ReplyState> state_;
};

// Matched (key, value) rows of a pushdown select.
using SelectRows = std::vector<std::pair<std::string, std::string>>;

using CallFuture = Future<nvme::Completion>;  // the raw completion
using StatusFuture = Future<Status>;
using GetFuture = Future<Result<std::string>>;
using SelectFuture = Future<Result<SelectRows>>;
using AggregateFuture = Future<Result<nvme::AggregateResult>>;
// Decoded device log pages.
using HealthFuture = Future<Result<nvme::HealthPage>>;
using StatsPageFuture = Future<Result<nvme::StatsPage>>;

// A handle to one keyspace. Cheap to copy.
class KeyspaceHandle {
 public:
  KeyspaceHandle() = default;

  std::uint64_t id() const { return id_; }
  bool valid() const { return client_ != nullptr; }

  // --- writes ---
  sim::Task<Status> Put(const std::string& key, const std::string& value);
  // Async variant: returns after the submission DMA; the device's answer
  // arrives through the future.
  sim::Task<StatusFuture> PutAsync(const std::string& key,
                                   const std::string& value);
  // Batched async puts: every pair ships in one doorbell ring (the
  // per-command request latency is paid once per batch).
  sim::Task<std::vector<StatusFuture>> PutBatchAsync(
      std::vector<std::pair<std::string, std::string>> pairs);

  // Blind point delete: writes a tombstone; deleting an absent key is Ok.
  // Valid while the keyspace is WRITABLE and after compaction (delta
  // mode, also while a fold runs); kBusy during the first compaction, or
  // when a fold's delta index is at its DRAM bound.
  sim::Task<Status> Delete(const std::string& key);
  sim::Task<StatusFuture> DeleteAsync(const std::string& key);

  // Accumulates pairs into bulk frames; each full frame ships as one
  // NVMe command. With config.bulk_inflight_frames > 1, Flush() only
  // *launches* the frame and errors surface on a later Flush/Drain —
  // always Drain() before Compact() or reading your own writes.
  class BulkWriter {
   public:
    sim::Task<Status> Add(const std::string& key, const std::string& value);
    sim::Task<Status> Flush();
    // Flushes the partial frame and awaits every in-flight frame; returns
    // the first error any of them produced. Terminal barrier — call
    // before Compact()/Sync().
    sim::Task<Status> Drain();
    std::uint64_t frames_sent() const { return frames_sent_; }
    std::uint64_t frames_inflight() const { return window_.size(); }

   private:
    friend class KeyspaceHandle;
    BulkWriter(Client* client, std::uint64_t keyspace_id)
        : client_(client), keyspace_id_(keyspace_id) {}
    // Awaits the oldest in-flight frame, folding its status into
    // first_error_.
    sim::Task<void> ReapOldest();
    Client* client_;
    std::uint64_t keyspace_id_;
    std::string frame_;
    std::uint64_t frames_sent_ = 0;
    std::deque<CallFuture> window_;
    Status first_error_ = Status::Ok();
  };
  BulkWriter NewBulkWriter() { return BulkWriter(client_, id_); }

  // Explicit fsync: persists buffered PUTs to the device's log zones
  // before returning (paper §VI; most bulk-load pipelines skip this and
  // rely on checkpoint-restart instead).
  //
  // Status classification: kIoError and kBusy are RETRYABLE — the write
  // may not have reached flash, but the request is safe to reissue
  // (Sync/Put are idempotent at the log level). Anything else
  // (kInvalidArgument, kNotFound, kOutOfSpace, ...) is FATAL for the
  // request: retrying cannot succeed. Status::IsRetryable() encodes the
  // split.
  sim::Task<Status> Sync();

  // Sync with bounded retries on retryable failures (transient injected
  // I/O errors), sleeping with exponential backoff between attempts
  // (config.retry_backoff_base doubling up to retry_backoff_cap) and
  // counting each retry in "<stats_prefix>sync.retries". The device
  // re-queues a failed flush batch into the keyspace's write buffer, so
  // the retry re-flushes the same entries and re-persists — success here
  // means everything put so far IS durable, not merely that the retry
  // found an empty buffer.
  sim::Task<Status> SyncWithRetry(std::uint32_t attempts = 3);

  // --- lifecycle ---
  // Triggers compaction; the device runs it asynchronously and this call
  // returns as soon as the command completes.
  sim::Task<Status> Compact();
  // Fused variant (paper §V future work): compaction plus the given
  // secondary indexes, built in one pass without re-reading the keyspace.
  sim::Task<Status> CompactWithIndexes(
      std::vector<nvme::SecondaryIndexSpec> specs);
  // Blocks until no (re)compaction of this keyspace is running, then
  // returns the status of the last one — a failed background compaction
  // (e.g. kOutOfSpace) surfaces here. Ok if none has run.
  sim::Task<Status> WaitCompaction();

  // --- secondary indexes ---
  sim::Task<Status> CreateSecondaryIndex(nvme::SecondaryIndexSpec spec);
  // Convenience: float32 key at byte `value_offset` of every value.
  sim::Task<Status> CreateSecondaryIndexF32(const std::string& name,
                                            std::uint32_t value_offset);

  // --- queries (keyspace must be COMPACTED) ---
  sim::Task<Result<std::string>> Get(const std::string& key);
  sim::Task<GetFuture> GetAsync(const std::string& key);
  sim::Task<Status> Scan(const std::string& lo, const std::string& hi,
                         std::uint32_t limit,
                         std::vector<std::pair<std::string, std::string>>*
                             out);
  // Secondary range with pre-encoded bounds.
  sim::Task<Status> QuerySecondaryRange(
      const std::string& index_name, const std::string& lo_encoded,
      const std::string& hi_encoded, std::uint32_t limit,
      std::vector<std::pair<std::string, std::string>>* out);
  sim::Task<Status> QuerySecondaryRangeF32(
      const std::string& index_name, float lo, float hi, std::uint32_t limit,
      std::vector<std::pair<std::string, std::string>>* out);

  // --- query pushdown (DESIGN.md §13) ---
  // Shared scan shape for Select/Aggregate. With `index_name` empty the
  // device runs a primary range scan over [lo, hi]; set it to drive the
  // scan through that secondary index instead (lo/hi are then
  // order-encoded secondary keys, e.g. nvme::EncodeSecondaryF32). `pred`
  // filters on raw value bytes beyond the scan bounds — build typed
  // predicates with nvme::PredicateF32 / PredicateBytes. `proj` trims
  // each select match to a byte range before it crosses PCIe (ignored —
  // rejected — by Aggregate). `limit` caps *matched* rows.
  struct SelectOptions {
    nvme::ValuePredicate pred;
    nvme::Projection proj;
    std::uint32_t limit = 0;
    std::string index_name;
  };
  // Device-filtered scan: only matching (possibly projected) records
  // cross the link. These are deliberately NOT coroutines: they encode
  // the descriptor structs into the wire command synchronously and hand
  // a self-contained nvme::Command to the private *Call coroutines, so
  // caller temporaries (e.g. a literal `{}` for opts) never become
  // coroutine parameters.
  sim::Task<Status> Select(const std::string& lo, const std::string& hi,
                           const SelectOptions& opts,
                           std::vector<std::pair<std::string, std::string>>*
                               out);
  sim::Task<SelectFuture> SelectAsync(const std::string& lo,
                                      const std::string& hi,
                                      const SelectOptions& opts);
  // Device-computed count/min/max/sum over an attribute of every match;
  // the completion carries four scalars regardless of row count. The
  // opts-free overloads scan unfiltered over the primary range — prefer
  // them over spelling `SelectOptions{}` at the call site.
  sim::Task<Result<nvme::AggregateResult>> Aggregate(
      const std::string& lo, const std::string& hi,
      const nvme::AggregateSpec& agg, const SelectOptions& opts);
  sim::Task<Result<nvme::AggregateResult>> Aggregate(
      const std::string& lo, const std::string& hi,
      const nvme::AggregateSpec& agg);
  sim::Task<AggregateFuture> AggregateAsync(const std::string& lo,
                                            const std::string& hi,
                                            const nvme::AggregateSpec& agg,
                                            const SelectOptions& opts);
  sim::Task<AggregateFuture> AggregateAsync(const std::string& lo,
                                            const std::string& hi,
                                            const nvme::AggregateSpec& agg);

  // --- metadata ---
  struct Stat {
    std::uint64_t num_kvs = 0;
    std::string state;
  };
  sim::Task<Result<Stat>> GetStat();

 private:
  friend class Client;
  KeyspaceHandle(Client* client, std::uint64_t id)
      : client_(client), id_(id) {}

  // Coroutine bodies behind Select/Aggregate and their async twins: own
  // the fully-built command by value, so no argument lifetime leaks into
  // the frame.
  sim::Task<Status> SelectCall(
      nvme::Command cmd,
      std::vector<std::pair<std::string, std::string>>* out);
  sim::Task<SelectFuture> SelectCallAsync(nvme::Command cmd);
  sim::Task<Result<nvme::AggregateResult>> AggregateCall(nvme::Command cmd);
  sim::Task<AggregateFuture> AggregateCallAsync(nvme::Command cmd);

  Client* client_ = nullptr;
  std::uint64_t id_ = 0;
};

class Client {
 public:
  Client(nvme::QueueSet* queues, sim::CpuPool* host_cpu,
         const hostenv::CostModel& host_costs, ClientConfig config = {});

  sim::Task<Result<KeyspaceHandle>> CreateKeyspace(const std::string& name);
  sim::Task<Result<KeyspaceHandle>> OpenKeyspace(const std::string& name);
  sim::Task<Status> DropKeyspace(const std::string& name);

  // --- in-band telemetry (DESIGN.md §14) ---
  // Pulls a device log page over the wire (kGetLogPage) and decodes it.
  // Health: point-in-time gauges (zone pool, per-role zns.* usage, util.*
  // windowed utilization, delta-index sizes, inflight/compaction state).
  // Stats: device.* counters and histogram digests, encoded at one tick —
  // a same-tick host snapshot of the device series matches exactly.
  sim::Task<Result<nvme::HealthPage>> GetHealth();
  sim::Task<Result<nvme::StatsPage>> GetStats();
  sim::Task<HealthFuture> GetHealthAsync();
  sim::Task<StatsPageFuture> GetStatsAsync();

  const ClientConfig& config() const { return config_; }
  nvme::QueueSet& queue() { return *queues_; }

  // The simulation-wide stats registry. The client records host-visible
  // round-trip latency histograms ("<prefix>cmd.<class>_ns") for the
  // put/get/range/secondary_range classes.
  sim::Stats& stats();

  // Commands submitted and not yet reaped (admission-window permits held).
  std::uint64_t inflight() const { return inflight_; }

 private:
  friend class KeyspaceHandle;

  // CallAsync + Await: the round trip an application measures.
  sim::Task<nvme::Completion> Call(nvme::Command command);
  // A batch of one: returns once the command is on the device's SQ;
  // completion arrives through the future, reaped by the reactor.
  sim::Task<CallFuture> CallAsync(nvme::Command command);
  // Splits `commands` into admission-window-sized chunks and submits each
  // with one doorbell on one SQ, so the per-command DMA-setup latency
  // amortizes across the chunk.
  sim::Task<std::vector<CallFuture>> CallBatchAsync(
      std::vector<nvme::Command> commands);
  // The one submission coroutine behind every call: stamps each command,
  // acquires one window permit per command, charges the driver cost once
  // and rings one doorbell. `commands` must fit the window; chunks of more
  // than one command serialize their permit acquisition on batch_gate_.
  sim::Task<std::vector<CallFuture>> Submit(
      std::vector<nvme::Command> commands);

  // Reaps completions off cq_ring_: records round-trip latency, releases
  // the admission window, and resolves the future. Parked forever once
  // the simulation drains (reclaimed by ~Simulation).
  sim::Task<void> Reactor();
  void EnsureReactor();
  // The SQ this client submits on next (config.queue_id, or rotating).
  nvme::QueuePair* SubmitPair();
  // Stamps cmd_id/submit_tick and opens the causal flow for one command.
  void StampCommand(nvme::Command* command, Tick begin);

  nvme::QueueSet* queues_;
  sim::CpuPool* host_cpu_;
  hostenv::CostModel costs_;
  ClientConfig config_;
  sim::Semaphore window_;
  // Serializes window-permit acquisition across concurrent multi-command
  // submissions (see Submit). Single commands bypass it.
  sim::Semaphore batch_gate_;
  nvme::CqRing cq_ring_;
  bool reactor_started_ = false;
  std::uint32_t rr_cursor_ = 0;
  std::uint64_t inflight_ = 0;
};

}  // namespace kvcsd::client
