#include "client/client.h"

#include <algorithm>
#include <iterator>
#include <type_traits>

#include "common/coding.h"
#include "sim/simulation.h"

namespace kvcsd::client {

Client::Client(nvme::QueueSet* queues, sim::CpuPool* host_cpu,
               const hostenv::CostModel& host_costs, ClientConfig config)
    : queues_(queues),
      host_cpu_(host_cpu),
      costs_(host_costs),
      config_(std::move(config)),
      window_(queues->sim(), std::max<std::uint32_t>(config_.max_inflight, 1)),
      batch_gate_(queues->sim(), 1),
      cq_ring_(queues->sim()) {}

sim::Stats& Client::stats() { return queues_->sim()->stats(); }

nvme::QueuePair* Client::SubmitPair() {
  const std::uint32_t n = queues_->num_queues();
  if (config_.queue_id != ClientConfig::kAnyQueue) {
    return queues_->pair(config_.queue_id % n);
  }
  const std::uint32_t q = rr_cursor_;
  rr_cursor_ = (rr_cursor_ + 1) % n;
  return queues_->pair(q);
}

void Client::StampCommand(nvme::Command* command, Tick begin) {
  sim::Simulation* sim = queues_->sim();
  // Stamp the causal id: everything this command touches — queue wait,
  // dispatch, execution, any compaction it spawns — traces back to it.
  command->cmd_id = sim->AllocateCmdId();
  command->submit_tick = begin;
  if (sim->tracer().enabled()) {
    sim->tracer().FlowBegin(sim->tracer().Track("client"), "cmd",
                            command->cmd_id, begin);
  }
}

sim::Task<nvme::Completion> Client::Call(nvme::Command command) {
  CallFuture call = co_await CallAsync(std::move(command));
  co_return co_await call.Await();
}

sim::Task<void> Client::Reactor() {
  sim::Simulation* sim = queues_->sim();
  for (;;) {
    std::shared_ptr<nvme::ReplyState> state = co_await cq_ring_.Pop();
    const Tick now = sim->Now();
    // Host-visible round trip from the submit stamp, including the
    // client-side driver compute — what an application would measure
    // around a Put/Get call.
    if (const char* cls = nvme::OpcodeLatencyClass(state->opcode)) {
      sim->stats()
          .histogram(config_.stats_prefix + "cmd." + cls + "_ns")
          .Record(now - state->submit_begin);
    }
    if (sim->tracer().enabled() && state->cmd_id != 0) {
      // The client span: submit stamp -> reap.
      sim->tracer().CompleteSpan(
          sim->tracer().Track("client"), nvme::OpcodeName(state->opcode),
          state->submit_begin, now,
          {{"cmd_id", std::to_string(state->cmd_id)}});
    }
    --inflight_;
    window_.Release();
    state->done.Set();
  }
}

void Client::EnsureReactor() {
  if (reactor_started_) return;
  reactor_started_ = true;
  queues_->sim()->Spawn(Reactor());
}

sim::Task<CallFuture> Client::CallAsync(nvme::Command command) {
  std::vector<nvme::Command> batch;
  batch.push_back(std::move(command));
  std::vector<CallFuture> futures = co_await Submit(std::move(batch));
  co_return std::move(futures.front());
}

sim::Task<std::vector<CallFuture>> Client::CallBatchAsync(
    std::vector<nvme::Command> commands) {
  std::vector<CallFuture> futures;
  futures.reserve(commands.size());
  const std::size_t window_cap =
      std::max<std::uint32_t>(config_.max_inflight, 1);
  for (std::size_t next = 0; next < commands.size();) {
    // Chunk to the admission window so Submit's permit acquisition can
    // never wait on completions of this very chunk.
    const std::size_t chunk =
        std::min<std::size_t>(commands.size() - next, window_cap);
    std::vector<nvme::Command> batch(
        std::make_move_iterator(commands.begin() + next),
        std::make_move_iterator(commands.begin() + next + chunk));
    std::vector<CallFuture> submitted = co_await Submit(std::move(batch));
    for (auto& future : submitted) futures.push_back(std::move(future));
    next += chunk;
  }
  co_return futures;
}

sim::Task<std::vector<CallFuture>> Client::Submit(
    std::vector<nvme::Command> commands) {
  sim::Simulation* sim = queues_->sim();
  EnsureReactor();
  // Only one multi-command submission may hold partial window permits at
  // a time. With several batch submitters racing, interleaved acquisition
  // could carve the window up among callers that each park waiting for
  // the rest — nothing submitted, nothing completes, nothing released.
  // The gate holder's missing permits always come from commands that are
  // already in flight (if none were, the window would be whole and the
  // chunk-sized acquisition below could not block), so holding the gate
  // across the acquisition loop cannot stall. A single command never
  // holds a partial set, so it skips the gate.
  const bool gated = commands.size() > 1;
  if (gated) co_await batch_gate_.Acquire();
  const Tick begin = sim->Now();
  for (nvme::Command& command : commands) StampCommand(&command, begin);
  for (std::size_t i = 0; i < commands.size(); ++i) {
    co_await window_.Acquire();
    ++inflight_;
  }
  // All permits held: release the gate before the doorbell so concurrent
  // batches pipeline on the submit path instead of serializing behind
  // each other's DMA setup.
  if (gated) batch_gate_.Release();
  // Userspace driver work on the host: packing + one doorbell ring for
  // the whole chunk. No kernel.
  co_await host_cpu_->Compute(costs_.syscall_overhead);
  std::vector<std::shared_ptr<nvme::ReplyState>> states =
      co_await SubmitPair()->Submit(std::move(commands), &cq_ring_);
  std::vector<CallFuture> futures;
  futures.reserve(states.size());
  for (auto& state : states) futures.push_back(CallFuture(std::move(state)));
  co_return futures;
}

namespace {

// One decode per awaited type; std::type_identity picks the overload.
nvme::Completion Decode(std::type_identity<nvme::Completion>,
                        nvme::Completion c) {
  return c;
}

Status Decode(std::type_identity<Status>, nvme::Completion c) {
  return c.status;
}

Result<std::string> Decode(std::type_identity<Result<std::string>>,
                           nvme::Completion c) {
  if (!c.status.ok()) return c.status;
  return std::move(c.value);
}

Result<SelectRows> Decode(std::type_identity<Result<SelectRows>>,
                          nvme::Completion c) {
  if (!c.status.ok()) return c.status;
  return std::move(c.results);
}

Result<nvme::AggregateResult> Decode(
    std::type_identity<Result<nvme::AggregateResult>>, nvme::Completion c) {
  if (!c.status.ok()) return c.status;
  return c.agg;
}

Result<nvme::HealthPage> Decode(std::type_identity<Result<nvme::HealthPage>>,
                                nvme::Completion c) {
  if (!c.status.ok()) return c.status;
  nvme::HealthPage page;
  if (!nvme::DecodeHealthPage(c.value, &page)) {
    return Status::Corruption("bad health log page");
  }
  return page;
}

Result<nvme::StatsPage> Decode(std::type_identity<Result<nvme::StatsPage>>,
                               nvme::Completion c) {
  if (!c.status.ok()) return c.status;
  nvme::StatsPage page;
  if (!nvme::DecodeStatsPage(c.value, &page)) {
    return Status::Corruption("bad stats log page");
  }
  return page;
}

}  // namespace

template <typename T>
sim::Task<T> Future<T>::AwaitImpl(std::shared_ptr<nvme::ReplyState> state) {
  co_await state->done.Wait();
  co_return Decode(std::type_identity<T>{}, std::move(state->completion));
}

template class Future<nvme::Completion>;
template class Future<Status>;
template class Future<Result<std::string>>;
template class Future<Result<SelectRows>>;
template class Future<Result<nvme::AggregateResult>>;
template class Future<Result<nvme::HealthPage>>;
template class Future<Result<nvme::StatsPage>>;

sim::Task<Result<KeyspaceHandle>> Client::CreateKeyspace(
    const std::string& name) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kKeyspaceCreate;
  cmd.name = name;
  auto completion = co_await Call(std::move(cmd));
  if (!completion.status.ok()) co_return completion.status;
  co_return KeyspaceHandle(this, completion.keyspace_id);
}

sim::Task<Result<KeyspaceHandle>> Client::OpenKeyspace(
    const std::string& name) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kKeyspaceOpen;
  cmd.name = name;
  auto completion = co_await Call(std::move(cmd));
  if (!completion.status.ok()) co_return completion.status;
  co_return KeyspaceHandle(this, completion.keyspace_id);
}

sim::Task<Status> Client::DropKeyspace(const std::string& name) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kKeyspaceDrop;
  cmd.name = name;
  auto completion = co_await Call(std::move(cmd));
  co_return completion.status;
}

sim::Task<Result<nvme::HealthPage>> Client::GetHealth() {
  HealthFuture health = co_await GetHealthAsync();
  co_return co_await health.Await();
}

sim::Task<Result<nvme::StatsPage>> Client::GetStats() {
  StatsPageFuture stats_page = co_await GetStatsAsync();
  co_return co_await stats_page.Await();
}

sim::Task<HealthFuture> Client::GetHealthAsync() {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kGetLogPage;
  cmd.log_page = nvme::LogPageId::kHealth;
  CallFuture call = co_await CallAsync(std::move(cmd));
  co_return std::move(call).As<HealthFuture>();
}

sim::Task<StatsPageFuture> Client::GetStatsAsync() {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kGetLogPage;
  cmd.log_page = nvme::LogPageId::kStats;
  CallFuture call = co_await CallAsync(std::move(cmd));
  co_return std::move(call).As<StatsPageFuture>();
}

// ---------------------------------------------------------------------------
// KeyspaceHandle
// ---------------------------------------------------------------------------

sim::Task<Status> KeyspaceHandle::Put(const std::string& key,
                                      const std::string& value) {
  StatusFuture put = co_await PutAsync(key, value);
  co_return co_await put.Await();
}

sim::Task<StatusFuture> KeyspaceHandle::PutAsync(const std::string& key,
                                                 const std::string& value) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kKvStore;
  cmd.keyspace_id = id_;
  cmd.key = key;
  cmd.value = value;
  CallFuture call = co_await client_->CallAsync(std::move(cmd));
  co_return std::move(call).As<StatusFuture>();
}

sim::Task<Status> KeyspaceHandle::Delete(const std::string& key) {
  StatusFuture del = co_await DeleteAsync(key);
  co_return co_await del.Await();
}

sim::Task<StatusFuture> KeyspaceHandle::DeleteAsync(const std::string& key) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kKvDelete;
  cmd.keyspace_id = id_;
  cmd.key = key;
  CallFuture call = co_await client_->CallAsync(std::move(cmd));
  co_return std::move(call).As<StatusFuture>();
}

sim::Task<std::vector<StatusFuture>> KeyspaceHandle::PutBatchAsync(
    std::vector<std::pair<std::string, std::string>> pairs) {
  std::vector<nvme::Command> commands;
  commands.reserve(pairs.size());
  for (auto& [key, value] : pairs) {
    nvme::Command cmd;
    cmd.opcode = nvme::Opcode::kKvStore;
    cmd.keyspace_id = id_;
    cmd.key = std::move(key);
    cmd.value = std::move(value);
    commands.push_back(std::move(cmd));
  }
  std::vector<CallFuture> calls =
      co_await client_->CallBatchAsync(std::move(commands));
  std::vector<StatusFuture> futures;
  futures.reserve(calls.size());
  for (auto& call : calls) {
    futures.push_back(std::move(call).As<StatusFuture>());
  }
  co_return futures;
}

sim::Task<GetFuture> KeyspaceHandle::GetAsync(const std::string& key) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kKvRetrieve;
  cmd.keyspace_id = id_;
  cmd.key = key;
  CallFuture call = co_await client_->CallAsync(std::move(cmd));
  co_return std::move(call).As<GetFuture>();
}

sim::Task<Status> KeyspaceHandle::BulkWriter::Add(const std::string& key,
                                                  const std::string& value) {
  // Frame format consumed by Device::DoBulkPut: length-prefixed key then
  // length-prefixed value, repeated.
  PutLengthPrefixedSlice(&frame_, Slice(key));
  PutLengthPrefixedSlice(&frame_, Slice(value));
  if (frame_.size() >= client_->config().bulk_frame_bytes) {
    co_return co_await Flush();
  }
  co_return Status::Ok();
}

sim::Task<void> KeyspaceHandle::BulkWriter::ReapOldest() {
  CallFuture oldest = std::move(window_.front());
  window_.pop_front();
  nvme::Completion completion = co_await oldest.Await();
  if (first_error_.ok() && !completion.status.ok()) {
    first_error_ = completion.status;
  }
}

sim::Task<Status> KeyspaceHandle::BulkWriter::Flush() {
  if (frame_.empty()) co_return first_error_;
  // Client-side packing cost for the whole frame.
  co_await client_->host_cpu_->ComputeBytes(
      frame_.size(), client_->costs_.memcpy_bytes_per_sec);
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kBulkStore;
  cmd.keyspace_id = keyspace_id_;
  cmd.value = std::move(frame_);
  frame_.clear();
  ++frames_sent_;
  const std::uint32_t depth =
      std::max<std::uint32_t>(client_->config().bulk_inflight_frames, 1);
  if (depth <= 1) {
    auto completion = co_await client_->Call(std::move(cmd));
    co_return completion.status;
  }
  // Pipelined: keep up to `depth` frames on the wire; ship this frame as
  // soon as a window slot frees. Errors from earlier frames surface here
  // (and definitively at Drain()).
  while (window_.size() >= depth) co_await ReapOldest();
  CallFuture future = co_await client_->CallAsync(std::move(cmd));
  window_.push_back(std::move(future));
  co_return first_error_;
}

sim::Task<Status> KeyspaceHandle::BulkWriter::Drain() {
  Status flush_status = co_await Flush();
  while (!window_.empty()) co_await ReapOldest();
  if (!flush_status.ok()) co_return flush_status;
  co_return std::exchange(first_error_, Status::Ok());
}

sim::Task<Status> KeyspaceHandle::Sync() {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kSync;
  cmd.keyspace_id = id_;
  auto completion = co_await client_->Call(std::move(cmd));
  co_return completion.status;
}

sim::Task<Status> KeyspaceHandle::SyncWithRetry(std::uint32_t attempts) {
  sim::Simulation* sim = client_->queues_->sim();
  const ClientConfig& config = client_->config();
  Status last = Status::Ok();
  const std::uint32_t bounded = std::max<std::uint32_t>(attempts, 1);
  for (std::uint32_t i = 0; i < bounded; ++i) {
    if (i > 0) {
      // Exponential backoff before each retry: base << (attempt-1),
      // capped. Hammering immediate retries would re-flush into the same
      // transient fault window.
      const std::uint32_t shift = std::min<std::uint32_t>(i - 1, 20);
      const Tick backoff = std::min<Tick>(
          config.retry_backoff_base << shift, config.retry_backoff_cap);
      client_->stats().counter(config.stats_prefix + "sync.retries")
          .Increment();
      co_await sim->Delay(backoff);
    }
    last = co_await Sync();
    if (last.ok() || !last.IsRetryable()) co_return last;
  }
  co_return last;
}

sim::Task<Status> KeyspaceHandle::CompactWithIndexes(
    std::vector<nvme::SecondaryIndexSpec> specs) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kCompactWithIndexes;
  cmd.keyspace_id = id_;
  cmd.sidx_list = std::move(specs);
  auto completion = co_await client_->Call(std::move(cmd));
  co_return completion.status;
}

sim::Task<Status> KeyspaceHandle::Compact() {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kCompact;
  cmd.keyspace_id = id_;
  auto completion = co_await client_->Call(std::move(cmd));
  co_return completion.status;
}

sim::Task<Status> KeyspaceHandle::WaitCompaction() {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kCompactWait;
  cmd.keyspace_id = id_;
  auto completion = co_await client_->Call(std::move(cmd));
  co_return completion.status;
}

sim::Task<Status> KeyspaceHandle::CreateSecondaryIndex(
    nvme::SecondaryIndexSpec spec) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kSecondaryBuild;
  cmd.keyspace_id = id_;
  cmd.sidx = std::move(spec);
  auto completion = co_await client_->Call(std::move(cmd));
  co_return completion.status;
}

sim::Task<Status> KeyspaceHandle::CreateSecondaryIndexF32(
    const std::string& name, std::uint32_t value_offset) {
  nvme::SecondaryIndexSpec spec;
  spec.name = name;
  spec.value_offset = value_offset;
  spec.value_length = 4;
  spec.type = nvme::SecondaryKeyType::kF32;
  co_return co_await CreateSecondaryIndex(std::move(spec));
}

sim::Task<Result<std::string>> KeyspaceHandle::Get(const std::string& key) {
  GetFuture get = co_await GetAsync(key);
  co_return co_await get.Await();
}

sim::Task<Status> KeyspaceHandle::Scan(
    const std::string& lo, const std::string& hi, std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kQueryPrimaryRange;
  cmd.keyspace_id = id_;
  cmd.key = lo;
  cmd.key_end = hi;
  cmd.limit = limit;
  auto completion = co_await client_->Call(std::move(cmd));
  if (!completion.status.ok()) co_return completion.status;
  for (auto& pair : completion.results) out->push_back(std::move(pair));
  co_return Status::Ok();
}

sim::Task<Status> KeyspaceHandle::QuerySecondaryRange(
    const std::string& index_name, const std::string& lo_encoded,
    const std::string& hi_encoded, std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kQuerySecondaryRange;
  cmd.keyspace_id = id_;
  cmd.sidx.name = index_name;
  cmd.key = lo_encoded;
  cmd.key_end = hi_encoded;
  cmd.limit = limit;
  auto completion = co_await client_->Call(std::move(cmd));
  if (!completion.status.ok()) co_return completion.status;
  for (auto& pair : completion.results) out->push_back(std::move(pair));
  co_return Status::Ok();
}

sim::Task<Status> KeyspaceHandle::QuerySecondaryRangeF32(
    const std::string& index_name, float lo, float hi, std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  co_return co_await QuerySecondaryRange(
      index_name, nvme::EncodeSecondaryF32(lo), nvme::EncodeSecondaryF32(hi),
      limit, out);
}

namespace {

nvme::Command MakePushdownCommand(std::uint64_t keyspace_id, nvme::Opcode op,
                                  const std::string& lo,
                                  const std::string& hi,
                                  const KeyspaceHandle::SelectOptions& opts) {
  nvme::Command cmd;
  cmd.opcode = op;
  cmd.keyspace_id = keyspace_id;
  cmd.key = lo;
  cmd.key_end = hi;
  cmd.limit = opts.limit;
  cmd.pred = opts.pred;
  cmd.proj = opts.proj;
  cmd.sidx.name = opts.index_name;
  return cmd;
}

}  // namespace

sim::Task<Status> KeyspaceHandle::Select(
    const std::string& lo, const std::string& hi, const SelectOptions& opts,
    std::vector<std::pair<std::string, std::string>>* out) {
  nvme::Command cmd =
      MakePushdownCommand(id_, nvme::Opcode::kKvSelect, lo, hi, opts);
  return SelectCall(std::move(cmd), out);
}

sim::Task<SelectFuture> KeyspaceHandle::SelectAsync(
    const std::string& lo, const std::string& hi, const SelectOptions& opts) {
  nvme::Command cmd =
      MakePushdownCommand(id_, nvme::Opcode::kKvSelect, lo, hi, opts);
  return SelectCallAsync(std::move(cmd));
}

sim::Task<Result<nvme::AggregateResult>> KeyspaceHandle::Aggregate(
    const std::string& lo, const std::string& hi,
    const nvme::AggregateSpec& agg, const SelectOptions& opts) {
  nvme::Command cmd =
      MakePushdownCommand(id_, nvme::Opcode::kKvAggregate, lo, hi, opts);
  cmd.agg = agg;
  return AggregateCall(std::move(cmd));
}

sim::Task<AggregateFuture> KeyspaceHandle::AggregateAsync(
    const std::string& lo, const std::string& hi,
    const nvme::AggregateSpec& agg, const SelectOptions& opts) {
  nvme::Command cmd =
      MakePushdownCommand(id_, nvme::Opcode::kKvAggregate, lo, hi, opts);
  cmd.agg = agg;
  return AggregateCallAsync(std::move(cmd));
}

sim::Task<Result<nvme::AggregateResult>> KeyspaceHandle::Aggregate(
    const std::string& lo, const std::string& hi,
    const nvme::AggregateSpec& agg) {
  SelectOptions opts;
  return Aggregate(lo, hi, agg, opts);
}

sim::Task<AggregateFuture> KeyspaceHandle::AggregateAsync(
    const std::string& lo, const std::string& hi,
    const nvme::AggregateSpec& agg) {
  SelectOptions opts;
  return AggregateAsync(lo, hi, agg, opts);
}

sim::Task<Status> KeyspaceHandle::SelectCall(
    nvme::Command cmd,
    std::vector<std::pair<std::string, std::string>>* out) {
  SelectFuture select = co_await SelectCallAsync(std::move(cmd));
  Result<SelectRows> rows = co_await select.Await();
  if (!rows.ok()) co_return rows.status();
  for (auto& pair : *rows) out->push_back(std::move(pair));
  co_return Status::Ok();
}

sim::Task<SelectFuture> KeyspaceHandle::SelectCallAsync(nvme::Command cmd) {
  CallFuture call = co_await client_->CallAsync(std::move(cmd));
  co_return std::move(call).As<SelectFuture>();
}

sim::Task<Result<nvme::AggregateResult>> KeyspaceHandle::AggregateCall(
    nvme::Command cmd) {
  AggregateFuture aggregate = co_await AggregateCallAsync(std::move(cmd));
  co_return co_await aggregate.Await();
}

sim::Task<AggregateFuture> KeyspaceHandle::AggregateCallAsync(
    nvme::Command cmd) {
  CallFuture call = co_await client_->CallAsync(std::move(cmd));
  co_return std::move(call).As<AggregateFuture>();
}

sim::Task<Result<KeyspaceHandle::Stat>> KeyspaceHandle::GetStat() {
  nvme::Command cmd;
  cmd.opcode = nvme::Opcode::kKeyspaceStat;
  cmd.keyspace_id = id_;
  auto completion = co_await client_->Call(std::move(cmd));
  if (!completion.status.ok()) co_return completion.status;
  Stat stat;
  stat.num_kvs = completion.count;
  stat.state = std::move(completion.value);
  co_return stat;
}

}  // namespace kvcsd::client
