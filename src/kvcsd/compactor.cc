// Deferred compaction and secondary-index construction (paper §V).
//
// Compaction sorts a keyspace in two steps, exactly as the paper
// describes: (1) sort the keys — an external merge sort whose run size is
// bounded by SoC DRAM, with intermediate runs stored in temporarily
// allocated TEMP zone clusters; (2) use the sorted keys to sort the values
// — a DRAM-batched external permutation that gathers values with
// address-coalesced reads and streams them out in key order. The result is
// the SORTED_VALUES + PIDX clusters and an in-memory pivot sketch (one
// entry per 4 KB PIDX block) kept in the keyspace table.
//
// Both steps are pipelined across the SoC cores (DESIGN.md §7):
//
//  * Phase 1 fans run generation out over the KLOG zones with
//    sim::ParallelFor — each worker streams its zone in bounded chunks,
//    sorts, and spills independently. The sort budget is split into a
//    FIXED number of shares (kRunGenShares), not `soc_cores`, so the run
//    layout — and therefore the merged output — is identical no matter
//    how many cores execute the fan-out; core count changes timing only.
//  * Phase 2 merges the runs through a loser tree over double-buffered
//    TEMP readers (merge.h) and hands each gathered value batch to a
//    concurrent index-build stage over a bounded channel, so PIDX
//    building + fused extraction of batch N overlap the value gather and
//    sorted-value writes of batch N+1.
//
// Secondary indexes are built either separately (the paper's implemented
// design: a full scan of the compacted keyspace, extract, external sort)
// or fused into the compaction pass (the paper's §V future-work variant:
// keys are extracted while the values are already in DRAM during phase 2,
// skipping the re-read at the cost of extra DRAM pressure). Fused per-spec
// merges run concurrently in a TaskGroup.
//
// Values are never copied on their way through phase 2 or the index
// build: a ValueBatch keeps the GatheredValues of its gather (views into
// the range buffers it owns), WriteSortedValues appends straight from
// those views, and fused and separate key extraction read them. The batch
// travels through the channel whole, by unique_ptr, so the views move
// with their bytes (DESIGN.md §10).
//
// Output: every index block any job writes (PIDX and SIDX, compaction,
// index build and fold alike) goes through the one IndexBlockWriter, and
// every sorted value through WriteSortedValues, so block boundaries,
// batching and sketch addressing have one definition. Every cluster a
// job allocates joins its scratch list as it is allocated; RunJob
// releases them if the job fails. Both jobs here end in CommitRun.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/bloom.h"
#include "common/keys.h"
#include "kvcsd/device.h"
#include "kvcsd/klog_stream.h"
#include "kvcsd/merge.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/fault.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// The phase-1 sort budget divides into this many fixed shares; each
// concurrent run-generation worker owns one share, and the worker count
// is min(soc_cores, kRunGenShares) so at most `run_budget` bytes of
// run-building state exist at once. A fixed divisor (rather than
// `soc_cores`) keeps the run layout independent of the core count.
constexpr std::uint64_t kRunGenShares = 4;

}  // namespace

// ---------------------------------------------------------------------------
// Phase 1: parallel run generation
// ---------------------------------------------------------------------------

// Runs and TEMP clusters produced from one KLOG zone. Each worker owns its
// output slot, so the fan-out shares no mutable state.
struct Device::RunGenOutput {
  std::vector<SpilledRun> runs;
  std::vector<ClusterId> temp_clusters;
};

sim::Task<Status> Device::GenerateZoneRuns(std::uint32_t zone,
                                           std::uint64_t run_budget,
                                           RunGenOutput* out,
                                           std::vector<ClusterId>* scratch) {
  // One track per worker share keeps concurrent run-gen spans on separate
  // viewer rows (zone index mod the share count matches the fan-out width).
  sim::TraceSpan span(sim_,
                      config_.stats_prefix + "compact.gen." +
                          std::to_string(zone % kRunGenShares),
                      "run_gen");
  span.Arg("zone", static_cast<std::uint64_t>(zone));
  std::vector<KlogEntry> current;
  std::uint64_t current_bytes = 0;

  auto spill_current = [&]() -> sim::Task<Status> {
    if (current.empty()) co_return Status::Ok();
    co_await cpu_.ComputeBytes(current_bytes,
                               config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
    // (key, seq): duplicate keys stay newest-last within the run, matching
    // KlogMergeTraits so the merge's last-writer-wins pass sees every
    // version of a key adjacently in seq order.
    std::sort(current.begin(), current.end(),
              [](const KlogEntry& a, const KlogEntry& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.seq < b.seq;
              });
    SpilledRun spilled;
    std::string chunk;
    chunk.reserve(config_.output_batch_bytes);
    auto flush_chunk = [&]() -> sim::Task<Status> {
      if (chunk.empty()) co_return Status::Ok();
      co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kCompact);
      auto addr = co_await AppendToChain(&out->temp_clusters, ZoneType::kTemp,
                                         Slice(chunk).bytes(),
                                         sim::Activity::kCompact, scratch);
      if (!addr.ok()) co_return addr.status();
      compaction_stats_.bytes_written += chunk.size();
      spilled.segments.emplace_back(*addr,
                                    static_cast<std::uint32_t>(chunk.size()));
      chunk.clear();
      co_return Status::Ok();
    };
    for (const KlogEntry& e : current) {
      if (chunk.size() + e.key.size() + 20 > config_.output_batch_bytes) {
        KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
      }
      wire::AppendKlogEntry(&chunk, e.key, e.value_addr, e.value_len, e.seq,
                            e.tombstone);
      ++spilled.entries;
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
    ++compaction_stats_.runs_spilled;
    out->runs.push_back(std::move(spilled));
    current.clear();
    current_bytes = 0;
    co_return Status::Ok();
  };

  KlogZoneStream stream(&ssd_, zone, config_.output_batch_bytes,
                        &compaction_stats_.bytes_read,
                        sim::Activity::kCompact);
  std::vector<KlogEntry> parsed;
  for (;;) {
    parsed.clear();
    auto more = co_await stream.NextBatch(&parsed);
    if (!more.ok()) co_return more.status();
    if (!*more) break;
    for (KlogEntry& e : parsed) {
      current_bytes += e.key.size() + 12;
      current.push_back(std::move(e));
      if (current_bytes >= run_budget) {
        KVCSD_CO_RETURN_IF_ERROR(co_await spill_current());
      }
    }
  }
  co_return co_await spill_current();
}

// ---------------------------------------------------------------------------
// Job output: the one index-block writer and the one sorted-value writer
// ---------------------------------------------------------------------------

Device::IndexBlockWriter::IndexBlockWriter(Device* device,
                                           std::vector<ClusterId>* chain,
                                           ZoneType type,
                                           std::vector<SketchEntry>* sketch,
                                           sim::Activity act,
                                           std::vector<ClusterId>* scratch)
    : device_(device),
      chain_(chain),
      type_(type),
      sketch_(sketch),
      act_(act),
      scratch_(scratch),
      block_size_(device->config_.index_block_size) {
  wire::BeginIndexBlock(&block_);
  batch_.reserve(device->config_.output_batch_bytes);
}

std::string* Device::IndexBlockWriter::Entry(std::size_t entry_size,
                                             const Slice& pivot) {
  if (block_.size() + entry_size > block_size_) CloseBlock();
  if (count_ == 0) {
    open_slot_ = sketch_->size();
    sketch_->push_back(SketchEntry{pivot.ToString(), 0, block_size_});
  }
  ++count_;
  return &block_;
}

void Device::IndexBlockWriter::CloseBlock() {
  if (count_ == 0) return;
  wire::FinishIndexBlock(&block_, count_, block_size_);
  batch_ += block_;
  batch_slots_.push_back(open_slot_);
  wire::BeginIndexBlock(&block_);
  count_ = 0;
}

sim::Task<Status> Device::IndexBlockWriter::Flush() {
  if (batch_.empty()) co_return Status::Ok();
  co_await device_->cpu_.Compute(device_->config_.costs.io_path_overhead,
                                 act_);
  auto addr = co_await device_->AppendToChain(
      chain_, type_, Slice(batch_).bytes(), act_, scratch_);
  if (!addr.ok()) co_return addr.status();
  device_->compaction_stats_.bytes_written += batch_.size();
  for (std::size_t i = 0; i < batch_slots_.size(); ++i) {
    (*sketch_)[batch_slots_[i]].block_addr = *addr + i * block_size_;
  }
  batch_.clear();
  batch_slots_.clear();
  co_return Status::Ok();
}

sim::Task<Status> Device::WriteSortedValues(
    std::vector<ClusterId>* chain, const std::vector<Slice>& values,
    std::vector<std::uint64_t>* addrs, sim::Activity act,
    std::vector<ClusterId>* scratch) {
  addrs->assign(values.size(), 0);
  std::string chunk;
  chunk.reserve(config_.output_batch_bytes);
  std::size_t chunk_first = 0;
  auto flush = [&](std::size_t upto) -> sim::Task<Status> {
    if (chunk.empty()) co_return Status::Ok();
    co_await cpu_.Compute(config_.costs.io_path_overhead, act);
    auto addr = co_await AppendToChain(chain, ZoneType::kSortedValues,
                                       Slice(chunk).bytes(), act, scratch);
    if (!addr.ok()) co_return addr.status();
    compaction_stats_.bytes_written += chunk.size();
    std::uint64_t offset = 0;
    for (std::size_t i = chunk_first; i < upto; ++i) {
      (*addrs)[i] = *addr + offset;
      offset += values[i].size();
    }
    chunk.clear();
    chunk_first = upto;
    co_return Status::Ok();
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (chunk.size() + values[i].size() > config_.output_batch_bytes &&
        !chunk.empty()) {
      KVCSD_CO_RETURN_IF_ERROR(co_await flush(i));
    }
    chunk.append(values[i].data(), values[i].size());
  }
  co_return co_await flush(values.size());
}

sim::Task<void> Device::ReleaseScratch(std::vector<ClusterId> ids,
                                      std::vector<ClusterId>* scratch) {
  const std::set<ClusterId> done(ids.begin(), ids.end());
  std::erase_if(*scratch, [&done](ClusterId id) { return done.contains(id); });
  co_await ReleaseClustersBestEffort(std::move(ids));
}

// ---------------------------------------------------------------------------
// SIDX external sort (shared by the separate and fused index builds)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::SidxSpill(SidxSortState* state) {
  if (state->current.empty()) co_return Status::Ok();
  co_await cpu_.ComputeBytes(state->current_bytes,
                             config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
  std::sort(state->current.begin(), state->current.end(), SidxLess);
  SpilledRun spilled;
  std::string chunk;
  auto flush_chunk = [&]() -> sim::Task<Status> {
    if (chunk.empty()) co_return Status::Ok();
    co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kCompact);
    auto addr = co_await AppendToChain(&state->temp_clusters,
                                       ZoneType::kTemp, Slice(chunk).bytes(),
                                       sim::Activity::kCompact, state->scratch);
    if (!addr.ok()) co_return addr.status();
    compaction_stats_.bytes_written += chunk.size();
    spilled.segments.emplace_back(*addr,
                                  static_cast<std::uint32_t>(chunk.size()));
    chunk.clear();
    co_return Status::Ok();
  };
  for (const SidxTuple& t : state->current) {
    if (chunk.size() + wire::SidxEntrySize(t.skey, t.pkey) >
        config_.output_batch_bytes) {
      KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
    }
    wire::AppendSidxEntry(&chunk, t.skey, t.pkey, t.vaddr, t.vlen);
    ++spilled.entries;
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await flush_chunk());
  ++compaction_stats_.runs_spilled;
  state->runs.push_back(std::move(spilled));
  state->current.clear();
  state->current_bytes = 0;
  co_return Status::Ok();
}

sim::Task<Status> Device::SidxAdd(SidxSortState* state, SidxTuple tuple) {
  state->current_bytes += tuple.skey.size() + tuple.pkey.size() + 12;
  state->current.push_back(std::move(tuple));
  if (state->current_bytes >= state->run_budget) {
    KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(state));
  }
  co_return Status::Ok();
}

sim::Task<Status> Device::SidxMergeToBlocks(
    SidxSortState* state, const nvme::SecondaryIndexSpec& spec,
    SecondaryIndex* out) {
  KVCSD_CO_RETURN_IF_ERROR(co_await SidxSpill(state));

  compaction_stats_.max_merge_fanin = std::max<std::uint64_t>(
      compaction_stats_.max_merge_fanin, state->runs.size());
  RunMerger<SidxMergeTraits> merger(sim_, &ssd_);
  KVCSD_CO_RETURN_IF_ERROR(
      co_await merger.Init(state->runs, &compaction_stats_.bytes_read));

  SecondaryIndex& sidx = *out;
  sidx.spec = spec;
  IndexBlockWriter writer(this, &sidx.sidx_clusters, ZoneType::kSidx,
                          &sidx.sketch, sim::Activity::kCompact,
                          state->scratch);
  std::uint64_t merged = 0;
  while (!merger.Empty()) {
    SidxTuple t;
    KVCSD_CO_RETURN_IF_ERROR(co_await merger.Pop(&t));

    merged += t.skey.size() + t.pkey.size() + 12;
    if (merged >= MiB(1)) {
      co_await cpu_.ComputeBytes(merged, config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
      merged = 0;
    }
    wire::AppendSidxEntry(
        writer.Entry(wire::SidxEntrySize(t.skey, t.pkey), t.skey), t.skey,
        t.pkey, t.vaddr, t.vlen);
    ++sidx.entries;
    if (writer.batch_full()) {
      KVCSD_CO_RETURN_IF_ERROR(co_await writer.Flush());
    }
  }
  if (merged > 0) {
    co_await cpu_.ComputeBytes(merged, config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
  }
  writer.CloseBlock();
  KVCSD_CO_RETURN_IF_ERROR(co_await writer.Flush());

  co_await ReleaseScratch(std::move(state->temp_clusters), state->scratch);
  state->temp_clusters.clear();
  state->runs.clear();
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 2: merge + value permutation, pipelined with index building
// ---------------------------------------------------------------------------

// One unit of hand-off between the gather/write stage and the index-build
// stage: a run of merged entries with their gathered values and the
// addresses the values were rewritten to. The values are views into
// buffers the batch owns (see the header).
struct Device::ValueBatch {
  std::vector<KlogEntry> entries;
  GatheredValues values;
  std::vector<std::uint64_t> new_addrs;
  std::uint64_t value_bytes = 0;
};

struct Device::PidxPipeline {
  sim::BoundedChannel<std::unique_ptr<ValueBatch>>* channel = nullptr;
  const std::vector<nvme::SecondaryIndexSpec>* specs = nullptr;
  std::vector<SidxSortState>* sidx_states = nullptr;
  // When non-null, every merged key is also added to the keyspace's bloom
  // filter here — the one moment all primary keys stream through DRAM in
  // order, so the filter build costs no extra I/O (DESIGN.md §10).
  BloomFilterBuilder* bloom = nullptr;
  std::vector<SketchEntry> sketch;
  std::vector<ClusterId> pidx_clusters;
  std::vector<ClusterId>* scratch = nullptr;
  std::uint64_t entries_total = 0;
  // Set when the consumer fails; the producer stops feeding new batches.
  bool failed = false;
};

sim::Task<Status> Device::IndexBuildStage(PidxPipeline* pipe) {
  IndexBlockWriter writer(this, &pipe->pidx_clusters, ZoneType::kPidx,
                          &pipe->sketch, sim::Activity::kCompact,
                          pipe->scratch);

  auto process = [&](ValueBatch& b) -> sim::Task<Status> {
    // Fused secondary-key extraction touches every value byte while the
    // batch sits in DRAM anyway (no keyspace re-read).
    if (!pipe->specs->empty()) {
      co_await cpu_.ComputeBytes(b.value_bytes,
                                 config_.costs.extract_bytes_per_sec, sim::Activity::kCompact);
    }
    std::uint64_t bloom_key_bytes = 0;
    for (std::size_t i = 0; i < b.entries.size(); ++i) {
      const KlogEntry& e = b.entries[i];
      wire::AppendPidxEntry(writer.Entry(wire::PidxEntrySize(e.key), e.key),
                            e.key, b.new_addrs[i], e.value_len);
      if (writer.batch_full()) {
        KVCSD_CO_RETURN_IF_ERROR(co_await writer.Flush());
      }
      if (pipe->bloom != nullptr) {
        pipe->bloom->AddKey(Slice(e.key));
        bloom_key_bytes += e.key.size();
      }

      for (std::size_t spec_index = 0; spec_index < pipe->specs->size();
           ++spec_index) {
        auto skey = nvme::ExtractSecondaryKey(b.values[i],
                                              (*pipe->specs)[spec_index]);
        if (!skey.ok()) co_return skey.status();
        SidxTuple tuple{std::move(*skey), e.key, b.new_addrs[i], e.value_len};
        KVCSD_CO_RETURN_IF_ERROR(co_await SidxAdd(
            &(*pipe->sidx_states)[spec_index], std::move(tuple)));
      }
    }
    pipe->entries_total += b.entries.size();
    if (pipe->bloom != nullptr && bloom_key_bytes > 0) {
      // Hashing each key into the filter costs about one checksum pass.
      co_await cpu_.ComputeBytes(bloom_key_bytes,
                                 config_.costs.checksum_bytes_per_sec, sim::Activity::kCompact);
    }
    co_return Status::Ok();
  };

  Status result = Status::Ok();
  for (;;) {
    auto item = co_await pipe->channel->Pop();
    if (!item.has_value()) break;
    if (!result.ok()) continue;  // drain so a blocked producer always wakes
    Status s = co_await process(**item);
    if (!s.ok()) {
      result = s;
      pipe->failed = true;
    }
  }
  if (result.ok()) {
    writer.CloseBlock();
    result = co_await writer.Flush();
  }
  if (!result.ok()) pipe->failed = true;
  co_return result;
}

// ---------------------------------------------------------------------------
// Compaction (optionally fused with secondary-index construction)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::RunCompaction(
    Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
    std::vector<ClusterId>* scratch) {
  // Seal the logs: compaction consumes exactly the sealed generation, and
  // no install touches the live chains (writes bounce while COMPACTING,
  // but the commit window already admits them into the live delta).
  auto sealed = co_await SealLogs(ks);
  KVCSD_CO_RETURN_IF_ERROR(sealed.status());
  const std::uint64_t seal_seq = *sealed;
  Runtime(ks).write_lock.Release();

  // Make the COMPACTING state and the sealed log extents durable before
  // any output is written: recovery must know to roll this keyspace back
  // and which clusters hold its logs.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());

  // The DRAM budget splits between the key sort and any fused index sorts
  // (the paper's stated cost of consolidating index construction).
  const std::uint64_t budget_shares = 1 + fused_specs.size();
  const std::uint64_t run_budget =
      config_.SortBudgetBytes() / budget_shares;

  std::vector<SidxSortState> fused_states(fused_specs.size());
  for (auto& state : fused_states) {
    state.run_budget = run_budget;
    state.scratch = scratch;
  }

  // ---- Phase 1: parallel run generation over the KLOG zones ----
  const Tick phase1_start = sim_->Now();
  std::vector<std::uint32_t> klog_zones;
  for (ClusterId cluster : ks->sealed_klog_clusters) {
    for (std::uint32_t zone : zone_manager_.cluster_zones(cluster)) {
      klog_zones.push_back(zone);
    }
  }

  const std::uint64_t gen_budget =
      std::max<std::uint64_t>(run_budget / kRunGenShares, KiB(4));
  const std::uint32_t gen_workers = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max<std::uint32_t>(config_.soc_cores, 1),
                              kRunGenShares));

  std::vector<RunGenOutput> gen_outputs(klog_zones.size());
  auto gen_fn = [&](std::size_t i) -> sim::Task<Status> {
    return GenerateZoneRuns(klog_zones[i], gen_budget, &gen_outputs[i],
                            scratch);
  };
  const Status gen_status =
      co_await sim::ParallelFor(sim_, klog_zones.size(), gen_workers, gen_fn);

  // Concatenate in zone order — NOT completion order — so run indexes
  // (the merge tie-break) are reproducible across core counts.
  std::vector<SpilledRun> runs;
  std::vector<ClusterId> temp_clusters;
  for (RunGenOutput& out : gen_outputs) {
    for (SpilledRun& run : out.runs) runs.push_back(std::move(run));
    temp_clusters.insert(temp_clusters.end(), out.temp_clusters.begin(),
                         out.temp_clusters.end());
  }
  KVCSD_CO_RETURN_IF_ERROR(gen_status);
  if (CrashPoint("compact.after_phase1")) {
    co_return Status::IoError("simulated power loss after run generation");
  }
  compaction_stats_.phase1_ticks += sim_->Now() - phase1_start;
  stats()
      .histogram("device.compact.phase1_ns")
      .Record(sim_->Now() - phase1_start);
  if (sim_->tracer().enabled()) {
    sim_->tracer().CompleteSpan(
        sim_->tracer().Track(trk_compaction_), "phase1.run_gen", phase1_start,
        sim_->Now(),
        {{"keyspace", ks->name}, {"runs", std::to_string(runs.size())}});
  }

  // ---- Phase 2: loser-tree merge feeding the index-build stage ----
  const Tick phase2_start = sim_->Now();
  compaction_stats_.max_merge_fanin =
      std::max<std::uint64_t>(compaction_stats_.max_merge_fanin, runs.size());

  RunMerger<KlogMergeTraits> merger(sim_, &ssd_);
  KVCSD_CO_RETURN_IF_ERROR(
      co_await merger.Init(runs, &compaction_stats_.bytes_read));

  std::vector<ClusterId> value_clusters;
  sim::BoundedChannel<std::unique_ptr<ValueBatch>> batches(sim_, 1);
  std::optional<BloomFilterBuilder> bloom;
  if (config_.bloom_bits_per_key > 0) {
    bloom.emplace(static_cast<int>(config_.bloom_bits_per_key));
  }
  PidxPipeline pipe;
  pipe.channel = &batches;
  pipe.specs = &fused_specs;
  pipe.sidx_states = &fused_states;
  pipe.bloom = bloom.has_value() ? &*bloom : nullptr;
  pipe.scratch = scratch;
  sim::TaskGroup index_stage(sim_);
  index_stage.Spawn(IndexBuildStage(&pipe));

  // Up to three batches can be DRAM-resident at once (one being built,
  // one queued, one being indexed), so each takes a third of the budget.
  const std::uint64_t batch_budget = std::max<std::uint64_t>(
      config_.SortBudgetBytes() / budget_shares / 3, KiB(64));

  // Gathers the batch's values, rewrites them in key order (recording the
  // new addresses), and hands the batch to the index-build stage.
  auto emit_batch = [&](std::unique_ptr<ValueBatch> b) -> sim::Task<Status> {
    if (b->entries.empty()) co_return Status::Ok();
    std::vector<ValueRef> refs;
    refs.reserve(b->entries.size());
    for (const KlogEntry& e : b->entries) {
      refs.push_back(ValueRef{e.value_addr, e.value_len});
    }
    auto values = co_await GatherValues(std::move(refs), sim::Activity::kCompact);
    if (!values.ok()) co_return values.status();
    compaction_stats_.bytes_read += b->value_bytes;
    co_await cpu_.ComputeBytes(b->value_bytes,
                               config_.costs.memcpy_bytes_per_sec, sim::Activity::kCompact);
    b->values = std::move(*values);
    KVCSD_CO_RETURN_IF_ERROR(co_await WriteSortedValues(
        &value_clusters, b->values.slices(), &b->new_addrs,
        sim::Activity::kCompact, scratch));

    co_await batches.Push(std::move(b));
    co_return Status::Ok();
  };

  Status pipeline_status = Status::Ok();
  {
    auto batch = std::make_unique<ValueBatch>();
    std::uint64_t merged_bytes = 0;
    // Last-writer-wins: the merge yields every version of a key
    // adjacently in ascending mutation-seq order (KlogMergeTraits), so
    // only the final entry of an equal-key group is live. `pending` holds
    // the group's newest version so far; it is admitted when the key
    // changes — unless it is a tombstone, which simply vanishes along
    // with every older version it shadowed.
    std::optional<KlogEntry> pending;
    auto admit = [&](KlogEntry&& entry) -> sim::Task<Status> {
      batch->value_bytes += entry.value_len;
      batch->entries.push_back(std::move(entry));
      if (batch->value_bytes >= batch_budget) {
        Status emitted = co_await emit_batch(std::move(batch));
        batch = std::make_unique<ValueBatch>();
        KVCSD_CO_RETURN_IF_ERROR(emitted);
      }
      co_return Status::Ok();
    };
    while (!merger.Empty() && !pipe.failed) {
      KlogEntry entry;
      Status s = co_await merger.Pop(&entry);
      if (!s.ok()) {
        pipeline_status = s;
        break;
      }
      merged_bytes += entry.key.size() + 12;
      if (merged_bytes >= MiB(1)) {
        co_await cpu_.ComputeBytes(merged_bytes,
                                   config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
        merged_bytes = 0;
      }
      if (pending.has_value() && pending->key != entry.key &&
          !pending->tombstone) {
        Status admitted = co_await admit(std::move(*pending));
        if (!admitted.ok()) {
          pipeline_status = admitted;
          break;
        }
      }
      pending = std::move(entry);
    }
    if (pipeline_status.ok() && !pipe.failed) {
      if (pending.has_value() && !pending->tombstone) {
        pipeline_status = co_await admit(std::move(*pending));
      }
      if (merged_bytes > 0) {
        co_await cpu_.ComputeBytes(merged_bytes,
                                   config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
      }
      if (pipeline_status.ok()) {
        pipeline_status = co_await emit_batch(std::move(batch));
      }
    }
  }
  // Always close + join: the consumer must see end-of-stream even on the
  // error paths, or one side would wait forever.
  batches.Close();
  Status index_status = co_await index_stage.Wait();
  KVCSD_CO_RETURN_IF_ERROR(pipeline_status);
  KVCSD_CO_RETURN_IF_ERROR(index_status);

  // ---- Fused secondary indexes: concurrent per-spec merges ----
  std::map<std::string, SecondaryIndex> fused_indexes;
  if (!fused_specs.empty()) {
    std::vector<SecondaryIndex> fused_out(fused_specs.size());
    sim::TaskGroup merges(sim_);
    for (std::size_t i = 0; i < fused_specs.size(); ++i) {
      merges.Spawn(
          SidxMergeToBlocks(&fused_states[i], fused_specs[i], &fused_out[i]));
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await merges.Wait());
    for (std::size_t i = 0; i < fused_specs.size(); ++i) {
      fused_indexes[fused_specs[i].name] = std::move(fused_out[i]);
    }
  }
  compaction_stats_.phase2_ticks += sim_->Now() - phase2_start;
  stats()
      .histogram("device.compact.phase2_ns")
      .Record(sim_->Now() - phase2_start);
  if (sim_->tracer().enabled()) {
    sim_->tracer().CompleteSpan(
        sim_->tracer().Track(trk_compaction_), "phase2.merge_index",
        phase2_start,
        sim_->Now(),
        {{"keyspace", ks->name}, {"fanin", std::to_string(runs.size())}});
  }

  // ---- Commit ----
  // Phase-1 temporaries are dead weight either way; drop them first.
  co_await ReleaseScratch(std::move(temp_clusters), scratch);
  RunLayout next;
  next.pidx_clusters = std::move(pipe.pidx_clusters);
  next.sorted_value_clusters = std::move(value_clusters);
  next.pidx_sketch = std::move(pipe.sketch);
  // The bloom filter rides the same snapshot as the sketch, so recovery
  // restores both or neither; empty when bloom is disabled.
  next.pidx_bloom = bloom.has_value() ? bloom->Finish() : std::string();
  next.secondary_indexes = std::move(fused_indexes);
  // After the LWW pass, entries_total is the exact count of distinct live
  // keys in the run (duplicates collapsed, tombstone winners dropped).
  next.entries = pipe.entries_total;
  auto garbage = co_await CommitRun(ks, JobKind::kCompaction, std::move(next),
                                    seal_seq);
  KVCSD_CO_RETURN_IF_ERROR(garbage.status());

  // Past the commit point the compaction HAS happened; a crash here loses
  // nothing (recovery reclaims the old logs as unreferenced clusters) and
  // the release below is best-effort for the same reason.
  (void)CrashPoint("compact.after_commit");
  co_await ReleaseClustersBestEffort(std::move(*garbage));
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Separate secondary-index construction (the paper's implemented design)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::BuildSecondaryIndex(
    Keyspace* ks, const nvme::SecondaryIndexSpec& spec,
    std::vector<ClusterId>* scratch) {
  SidxSortState state;
  state.run_budget = config_.SortBudgetBytes();
  state.scratch = scratch;

  // Step 1 (paper): full scan extracting <skey, pkey> pairs. Walk PIDX
  // blocks via the sketch; gather values batch-wise; extract.
  std::vector<ValueRef> batch_refs;
  std::vector<std::pair<std::string, std::uint64_t>> batch_meta;
  std::vector<std::uint32_t> batch_lens;
  std::uint64_t batch_bytes = 0;

  auto process_scan_batch = [&]() -> sim::Task<Status> {
    if (batch_refs.empty()) co_return Status::Ok();
    auto values = co_await GatherValues(batch_refs, sim::Activity::kCompact);
    if (!values.ok()) co_return values.status();
    co_await cpu_.ComputeBytes(batch_bytes,
                               config_.costs.extract_bytes_per_sec, sim::Activity::kCompact);
    for (std::size_t i = 0; i < values->size(); ++i) {
      auto skey = nvme::ExtractSecondaryKey((*values)[i], spec);
      if (!skey.ok()) co_return skey.status();
      SidxTuple tuple{std::move(*skey), batch_meta[i].first,
                      batch_meta[i].second, batch_lens[i]};
      KVCSD_CO_RETURN_IF_ERROR(co_await SidxAdd(&state, std::move(tuple)));
    }
    batch_refs.clear();
    batch_meta.clear();
    batch_lens.clear();
    batch_bytes = 0;
    co_return Status::Ok();
  };

  wire::IndexBlockDecoder decoder(wire::IndexKind::kPidx);
  for (const SketchEntry& block_ref : ks->run.pidx_sketch) {
    auto block = co_await ReadIndexBlock(ks->id, block_ref, sim::Activity::kCompact);
    if (!block.ok()) co_return block.status();
    KVCSD_CO_RETURN_IF_ERROR(decoder.Open(std::move(*block), block_ref.pivot));
    while (!decoder.done()) {
      wire::IndexEntry entry;
      KVCSD_CO_RETURN_IF_ERROR(decoder.Next(&entry));
      batch_refs.push_back(ValueRef{entry.vaddr, entry.vlen});
      batch_meta.emplace_back(entry.pkey.ToString(), entry.vaddr);
      batch_lens.push_back(entry.vlen);
      batch_bytes += entry.vlen;
      if (batch_bytes >= config_.SortBudgetBytes()) {
        KVCSD_CO_RETURN_IF_ERROR(co_await process_scan_batch());
      }
    }
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await process_scan_batch());

  // Step 2: merge runs into SIDX blocks + sketch.
  SecondaryIndex sidx;
  KVCSD_CO_RETURN_IF_ERROR(co_await SidxMergeToBlocks(&state, spec, &sidx));

  // Step 3: commit the run with the index added. No other job can have
  // changed the run meanwhile, and the index adds clusters only, so the
  // commit makes no garbage.
  RunLayout next = ks->run;
  next.secondary_indexes[spec.name] = std::move(sidx);
  co_return (co_await CommitRun(ks, JobKind::kIndexBuild, std::move(next),
                                /*seal_seq=*/0))
      .status();
}

}  // namespace kvcsd::device
