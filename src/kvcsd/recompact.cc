// Incremental re-compaction (DESIGN.md §12): folds a COMPACTED keyspace's
// delta log back into its sorted run WITHOUT re-sorting the run.
//
// The delta index (newest mutation per key, key-ordered) is small relative
// to the run, so the fold touches only what the delta keys touch:
//
//  * Values — live delta values are appended to FRESH SORTED_VALUES
//    clusters in key order; untouched run values stay where they are.
//  * PIDX — each delta key maps to exactly one covering 4 KB block
//    (pivots are unique primary keys). Only those dirty blocks are read,
//    merged two-pointer with the delta (last-writer-wins: a delta PUT
//    replaces the run entry, a tombstone removes it), and rewritten to
//    fresh PIDX clusters. Clean blocks are retained by reference: their
//    sketch entries — and therefore their old clusters — carry over.
//  * SIDX — membership of a stale tuple (pkey overwritten or deleted) is
//    only discoverable by reading each block, so the fold streams every
//    block but REWRITES only dirty regions: maximal runs of consecutive
//    blocks that lost a tuple or that a new tuple sorts into. Regions
//    (not single blocks) are the rebuild unit because secondary keys tie
//    across block boundaries; a region's span provably brackets every
//    tuple tied with the new ones, so the global (skey, pkey) order the
//    scans assert survives. Clean blocks are retained by reference.
//  * Bloom — new keys are OR-ed into the serialized filter in place
//    (BloomFilterAddKey). Deleted keys leave their bits set: that only
//    ever costs false positives, never false negatives.
//
// Fold I/O: the dirty blocks (PIDX) and every block (SIDX) are read
// through an IndexBlockStream, gather_fanout reads in flight, and rebuilt
// blocks go out through a FoldBlockWriter in output_batch_bytes appends
// whose sketch addresses are patched as each append lands. Batching moves
// no block boundary: each rebuilt group still starts a fresh block.
//
// Seal: under the write lock the fold drains the write buffer and every
// flush in flight, records seal_seq = next_seq, moves the delta's log
// chains into the keyspace's sealed generation and snapshots the delta
// index as the fold's items. From then on writes land in fresh chains and
// in the same delta index with seq >= seal_seq: an overwrite since the
// seal already shadows its sealed entry, so reads need no second index.
//
// Commit protocol: the RECOMPACTING state is persisted before any output
// is written (recovery rolls it straight back to COMPACTED and replays
// the sealed ++ live chains the snapshot lists; new clusters are
// reclaimed as unreferenced). Until the commit the fold writes only fresh
// clusters, so the pre-fold run and sketches stay fixed and queries keep
// reading them. The commit closes the keyspace's commit gate (new queries
// wait; writes do not), drains the in-flight readers, opens the table's
// commit window (no other snapshot is serialized until it closes),
// installs the mixed old + new sketch and persists it with one table
// persist, then reopens the gate — only after the persist, or its
// rollback, returned, so no reader ever sees a state that may still be
// rolled back. The install swaps the run, sketches, bloom and sealed
// chains only; once the persist succeeded the delta index drops the
// entries below seal_seq, and the live generation stays pending. Past
// that point the sealed logs and any old index cluster no retained block
// references are released. A crash anywhere leaves either the old state
// (both generations pending) or the new state (sealed generation folded)
// — never a blend.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bloom.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/fault.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// One delta mutation prepared for the fold, in key order.
struct FoldItem {
  std::string key;
  bool tombstone = false;
  std::string value;           // loaded bytes (empty for a tombstone)
  std::uint64_t new_addr = 0;  // where the value was re-appended
};

struct PidxRec {
  std::string key;
  std::uint64_t vaddr = 0;
  std::uint32_t vlen = 0;
};

// Appends the entries of one PIDX block to `out`, adding their merge
// bytes to `*fold_bytes`.
Status ParsePidxBlock(const std::string& block, std::vector<PidxRec>* out,
                      std::uint64_t* fold_bytes) {
  std::uint16_t count = 0;
  Slice in;
  if (!wire::OpenIndexBlock(block, &count, &in)) {
    return Status::Corruption("undersized PIDX block in fold");
  }
  out->reserve(out->size() + count);
  for (std::uint16_t i = 0; i < count; ++i) {
    wire::PidxEntry entry;
    if (!wire::ParsePidxEntry(&in, &entry)) {
      return Status::Corruption("bad PIDX block in fold");
    }
    out->push_back(PidxRec{entry.key.ToString(), entry.vaddr, entry.vlen});
    *fold_bytes += entry.key.size() + 12;
  }
  return Status::Ok();
}

std::vector<const SketchEntry*> Pointers(
    const std::vector<SketchEntry>& sketch) {
  std::vector<const SketchEntry*> out;
  out.reserve(sketch.size());
  for (const SketchEntry& e : sketch) out.push_back(&e);
  return out;
}

}  // namespace

// The fold's output side for one index chain: packs entries into index
// blocks, batches closed blocks into output_batch_bytes appends, and
// pushes each block's sketch entry as the block opens — its address is
// patched once the append holding it lands, so retained sketch entries
// can be pushed in between. Callers close the open block at the end of
// every rebuilt group (a group never shares a block with its neighbour)
// and Flush() whenever batch_full(), then once at the end.
class Device::FoldBlockWriter {
 public:
  FoldBlockWriter(Device* device, std::vector<ClusterId>* chain, ZoneType type,
                  std::vector<SketchEntry>* sketch,
                  std::vector<ClusterId>* scratch)
      : device_(device),
        chain_(chain),
        type_(type),
        sketch_(sketch),
        scratch_(scratch),
        block_size_(device->config_.index_block_size) {
    wire::BeginIndexBlock(&block_);
    batch_.reserve(device->config_.output_batch_bytes);
  }

  // The open block, with room for one more entry of `entry_size` bytes
  // (the caller serializes it there): the current block is closed first
  // when the entry does not fit, and `pivot` names a freshly opened one.
  std::string* Entry(std::size_t entry_size, const std::string& pivot) {
    if (block_.size() + entry_size > block_size_) CloseBlock();
    if (count_ == 0) {
      open_slot_ = sketch_->size();
      sketch_->push_back(SketchEntry{pivot, 0, block_size_});
    }
    ++count_;
    return &block_;
  }

  void CloseBlock() {
    if (count_ == 0) return;
    wire::FinishIndexBlock(&block_, count_, block_size_);
    batch_ += block_;
    batch_slots_.push_back(open_slot_);
    wire::BeginIndexBlock(&block_);
    count_ = 0;
  }

  bool batch_full() const {
    return batch_.size() >= device_->config_.output_batch_bytes;
  }

  // Appends the closed blocks as one write and patches their addresses.
  sim::Task<Status> Flush() {
    if (batch_.empty()) co_return Status::Ok();
    co_await device_->cpu_.Compute(device_->config_.costs.io_path_overhead,
                                   sim::Activity::kRecompact);
    auto addr = co_await device_->AppendToChain(
        chain_, type_, Slice(batch_).bytes(), sim::Activity::kRecompact,
        scratch_);
    if (!addr.ok()) co_return addr.status();
    device_->compaction_stats_.bytes_written += batch_.size();
    for (std::size_t i = 0; i < batch_slots_.size(); ++i) {
      (*sketch_)[batch_slots_[i]].block_addr = *addr + i * block_size_;
    }
    batch_.clear();
    batch_slots_.clear();
    co_return Status::Ok();
  }

 private:
  Device* device_;
  std::vector<ClusterId>* chain_;
  ZoneType type_;
  std::vector<SketchEntry>* sketch_;
  std::vector<ClusterId>* scratch_;
  const std::uint32_t block_size_;
  std::string block_;
  std::uint16_t count_ = 0;
  std::size_t open_slot_ = 0;  // sketch index of the open block
  std::string batch_;          // closed blocks awaiting their append
  std::vector<std::size_t> batch_slots_;
};

sim::Task<Result<std::string>> Device::LoadDeltaValue(const DeltaEntry& entry,
                                                      sim::Activity act) {
  if (entry.has_value) co_return entry.value;
  if (entry.vlen == 0) co_return std::string();
  std::vector<ValueRef> one;
  one.push_back(ValueRef{entry.vaddr, entry.vlen});
  auto values = co_await GatherValues(std::move(one), act);
  if (!values.ok()) co_return values.status();
  co_return std::move((*values)[0]);
}

sim::Task<Status> Device::RunRecompaction(Keyspace* ks,
                                          std::vector<ClusterId>* scratch) {
  const Tick fold_start = sim_->Now();
  // ---- Seal the delta ----
  // Drain the buffered tail and every flush in flight while holding the
  // write lock (writes queue behind it meanwhile): the sealed generation
  // must be the complete delta log the fold consumes, for recovery's sake.
  KVCSD_CO_RETURN_IF_ERROR(co_await DrainWrites(ks, /*keep_lock=*/true));
  const std::uint64_t seal_seq = ks->next_seq;
  ks->sealed_klog_clusters = std::exchange(ks->klog_clusters, {});
  ks->sealed_vlog_clusters = std::exchange(ks->vlog_clusters, {});
  ks->sealed_klog_bytes = std::exchange(ks->klog_bytes, 0);
  ks->sealed_vlog_bytes = std::exchange(ks->vlog_bytes, 0);
  std::vector<FoldItem> items;
  items.reserve(ks->delta_index.size());
  // Values that only survive as VLOG pointers (post-restart entries) are
  // batch-loaded below from the sealed VLOG chain, which stays allocated
  // until the commit; values written this power cycle ride inline.
  std::vector<ValueRef> refs;
  std::vector<std::size_t> ref_slot;
  for (const auto& [key, entry] : ks->delta_index) {
    FoldItem item;
    item.key = key;
    item.tombstone = entry.tombstone;
    if (!entry.tombstone) {
      if (entry.has_value) {
        item.value = entry.value;
      } else {
        refs.push_back(ValueRef{entry.vaddr, entry.vlen});
        ref_slot.push_back(items.size());
      }
    }
    items.push_back(std::move(item));
  }
  Runtime(ks).write_lock.Release();

  // Make RECOMPACTING and the sealed delta-log extents durable before any
  // output is written: recovery must know to roll this keyspace back to
  // COMPACTED and which clusters hold its (still authoritative) delta.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());
  if (CrashPoint("recompact.before_fold")) {
    co_return Status::IoError("simulated power loss before delta fold");
  }
  if (!refs.empty()) {
    auto values = co_await GatherValues(std::move(refs), sim::Activity::kRecompact);
    if (!values.ok()) co_return values.status();
    for (std::size_t i = 0; i < ref_slot.size(); ++i) {
      items[ref_slot[i]].value = std::move((*values)[i]);
    }
  }

  // ---- Re-append live delta values in key order to fresh clusters ----
  std::vector<ClusterId> new_value_clusters;
  {
    std::string chunk;
    chunk.reserve(config_.output_batch_bytes);
    std::vector<std::size_t> chunk_items;
    auto flush_values = [&]() -> sim::Task<Status> {
      if (chunk.empty()) co_return Status::Ok();
      co_await cpu_.Compute(config_.costs.io_path_overhead, sim::Activity::kRecompact);
      auto addr = co_await AppendToChain(&new_value_clusters,
                                         ZoneType::kSortedValues,
                                         Slice(chunk).bytes(),
                                         sim::Activity::kRecompact, scratch);
      if (!addr.ok()) co_return addr.status();
      compaction_stats_.bytes_written += chunk.size();
      std::uint64_t offset = 0;
      for (std::size_t idx : chunk_items) {
        items[idx].new_addr = *addr + offset;
        offset += items[idx].value.size();
      }
      chunk.clear();
      chunk_items.clear();
      co_return Status::Ok();
    };
    std::uint64_t value_bytes = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].tombstone) continue;
      if (chunk.size() + items[i].value.size() > config_.output_batch_bytes &&
          !chunk.empty()) {
        KVCSD_CO_RETURN_IF_ERROR(co_await flush_values());
      }
      chunk += items[i].value;
      chunk_items.push_back(i);
      value_bytes += items[i].value.size();
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await flush_values());
    co_await cpu_.ComputeBytes(value_bytes,
                               config_.costs.memcpy_bytes_per_sec, sim::Activity::kRecompact);
  }

  // ---- PIDX fold: rebuild only the blocks the delta keys land in ----
  const std::vector<SketchEntry>& old_sketch = ks->pidx_sketch;
  // Delta keys per covering block, in key order. A key preceding every
  // pivot folds into block 0 (its rebuild simply grows a smaller pivot);
  // with no run at all, everything lands in one from-scratch region.
  std::vector<std::vector<const FoldItem*>> per_block(old_sketch.size());
  std::vector<const FoldItem*> orphan_items;  // run has no blocks
  for (const FoldItem& item : items) {
    if (old_sketch.empty()) {
      orphan_items.push_back(&item);
      continue;
    }
    std::size_t pos = SketchLowerBlock(old_sketch, item.key);
    if (pos >= old_sketch.size()) pos = 0;
    per_block[pos].push_back(&item);
  }

  std::vector<ClusterId> new_pidx_clusters;
  std::vector<SketchEntry> new_sketch;
  new_sketch.reserve(old_sketch.size());
  std::int64_t run_entries_delta = 0;
  std::uint64_t pidx_retained = 0;
  std::uint64_t pidx_rebuilt = 0;
  FoldBlockWriter pidx_out(this, &new_pidx_clusters, ZoneType::kPidx,
                           &new_sketch, scratch);

  // Two-pointer LWW merge of one dirty block with its delta keys.
  auto merge_block = [&](const std::vector<PidxRec>& old_recs,
                         const std::vector<const FoldItem*>& delta,
                         std::vector<PidxRec>* out) {
    std::size_t i = 0, j = 0;
    while (i < old_recs.size() || j < delta.size()) {
      if (j >= delta.size() ||
          (i < old_recs.size() && old_recs[i].key < delta[j]->key)) {
        out->push_back(old_recs[i]);
        ++i;
        continue;
      }
      const FoldItem* d = delta[j];
      const bool match = i < old_recs.size() && old_recs[i].key == d->key;
      if (match) ++i;
      if (d->tombstone) {
        if (match) --run_entries_delta;  // removed a run key
      } else {
        out->push_back(PidxRec{d->key, d->new_addr,
                               static_cast<std::uint32_t>(d->value.size())});
        if (!match) ++run_entries_delta;  // inserted a new key
      }
      ++j;
    }
  };
  // Packs one rebuilt group; it ends with its own block.
  auto pack = [&](const std::vector<PidxRec>& recs) -> sim::Task<Status> {
    for (const PidxRec& rec : recs) {
      wire::AppendPidxEntry(
          pidx_out.Entry(wire::PidxEntrySize(rec.key), rec.key), rec.key,
          rec.vaddr, rec.vlen);
      if (pidx_out.batch_full()) {
        KVCSD_CO_RETURN_IF_ERROR(co_await pidx_out.Flush());
      }
    }
    pidx_out.CloseBlock();
    co_return Status::Ok();
  };

  // Stream the dirty blocks (retained ones are never read) with
  // gather_fanout reads in flight; appends overlap the reads ahead.
  std::vector<const SketchEntry*> dirty_list;
  for (std::size_t pos = 0; pos < old_sketch.size(); ++pos) {
    if (!per_block[pos].empty()) dirty_list.push_back(&old_sketch[pos]);
  }
  const std::uint32_t fanout =
      std::max<std::uint32_t>(config_.gather_fanout, 1);
  IndexBlockStream dirty_blocks(this, ks->id, std::move(dirty_list), fanout,
                                sim::Activity::kRecompact);
  std::uint64_t fold_bytes = 0;
  Status pidx_status = Status::Ok();
  for (std::size_t pos = 0; pos < old_sketch.size(); ++pos) {
    if (per_block[pos].empty()) {
      new_sketch.push_back(old_sketch[pos]);  // retained by reference
      ++pidx_retained;
      continue;
    }
    ++pidx_rebuilt;
    auto block = co_await dirty_blocks.Next();
    if (!block.ok()) {
      pidx_status = block.status();
      break;
    }
    compaction_stats_.bytes_read += old_sketch[pos].block_len;
    std::vector<PidxRec> old_recs;
    pidx_status = ParsePidxBlock(*block, &old_recs, &fold_bytes);
    if (!pidx_status.ok()) break;
    std::vector<PidxRec> merged;
    merged.reserve(old_recs.size() + per_block[pos].size());
    merge_block(old_recs, per_block[pos], &merged);
    pidx_status = co_await pack(merged);
    if (!pidx_status.ok()) break;
  }
  co_await dirty_blocks.Drain();
  KVCSD_CO_RETURN_IF_ERROR(pidx_status);
  if (!orphan_items.empty()) {
    // Empty run: the delta becomes the run.
    std::vector<PidxRec> merged;
    merge_block({}, orphan_items, &merged);
    KVCSD_CO_RETURN_IF_ERROR(co_await pack(merged));
    ++pidx_rebuilt;
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await pidx_out.Flush());
  if (fold_bytes > 0) {
    co_await cpu_.ComputeBytes(fold_bytes, config_.costs.merge_bytes_per_sec, sim::Activity::kRecompact);
  }

  // ---- SIDX fold: stream all blocks, rewrite only dirty regions ----
  // Every delta key's old tuple (if any) is stale: a tombstone removes
  // it, an overwrite re-points it (and may change its secondary key).
  std::set<std::string> delta_keys;
  for (const FoldItem& item : items) delta_keys.insert(item.key);

  struct SidxFold {
    std::vector<ClusterId> new_clusters;
    std::vector<SketchEntry> new_sketch;
    std::uint64_t new_entries = 0;
    std::uint64_t retained = 0;
    std::uint64_t rebuilt = 0;
  };
  std::map<std::string, SidxFold> sidx_folds;
  std::uint64_t sidx_retained_total = 0;
  std::uint64_t sidx_rebuilt_total = 0;

  for (auto& [name, sidx] : ks->secondary_indexes) {
    SidxFold& fold = sidx_folds[name];
    const std::vector<SketchEntry>& sketch = sidx.sketch;
    FoldBlockWriter sidx_out(this, &fold.new_clusters, ZoneType::kSidx,
                             &fold.new_sketch, scratch);

    // New tuples from the live delta values, sorted by (skey, pkey).
    std::vector<SidxTuple> fresh;
    for (const FoldItem& item : items) {
      if (item.tombstone) continue;
      auto skey = nvme::ExtractSecondaryKey(Slice(item.value), sidx.spec);
      if (!skey.ok()) co_return skey.status();
      fresh.push_back(SidxTuple{
          std::move(*skey), item.key, item.new_addr,
          static_cast<std::uint32_t>(item.value.size())});
    }
    std::sort(fresh.begin(), fresh.end(), SidxLess);

    // Pre-mark the insertion span of each fresh tuple dirty. The span
    // [a, b] brackets every block that can hold tuples tied with the
    // tuple's secondary key: blocks before `a` end strictly below it,
    // blocks after `b` start strictly above it, so rebuilding the
    // consecutive dirty run containing [a, b] preserves global order.
    std::vector<bool> dirty(sketch.size(), false);
    std::vector<std::size_t> fresh_start(fresh.size(), 0);
    for (std::size_t f = 0; f < fresh.size(); ++f) {
      if (sketch.empty()) break;
      const std::string& skey = fresh[f].skey;
      auto lo = std::lower_bound(
          sketch.begin(), sketch.end(), skey,
          [](const SketchEntry& e, const std::string& k) {
            return e.pivot < k;
          });
      std::size_t a = lo == sketch.begin()
                          ? 0
                          : static_cast<std::size_t>(lo - sketch.begin()) - 1;
      auto hi = std::upper_bound(
          sketch.begin(), sketch.end(), skey,
          [](const std::string& k, const SketchEntry& e) {
            return k < e.pivot;
          });
      std::size_t b = hi == sketch.begin()
                          ? 0
                          : static_cast<std::size_t>(hi - sketch.begin()) - 1;
      if (b < a) b = a;
      fresh_start[f] = a;
      for (std::size_t p = a; p <= b; ++p) dirty[p] = true;
    }

    std::vector<SidxTuple> region;  // surviving tuples of the open region
    bool region_open = false;
    std::size_t region_start = 0;
    std::size_t fresh_cursor = 0;
    std::uint64_t removed = 0;

    auto emit_region = [&](std::size_t region_end) -> sim::Task<Status> {
      // Merge the region's survivors with the fresh tuples whose
      // insertion span starts inside it, then re-pack as SIDX blocks.
      std::vector<SidxTuple> incoming;
      while (fresh_cursor < fresh.size() &&
             (sketch.empty() || (fresh_start[fresh_cursor] >= region_start &&
                                 fresh_start[fresh_cursor] <= region_end))) {
        incoming.push_back(std::move(fresh[fresh_cursor]));
        ++fresh_cursor;
      }
      if (region.empty() && incoming.empty()) co_return Status::Ok();
      std::vector<SidxTuple> merged;
      merged.reserve(region.size() + incoming.size());
      std::merge(std::make_move_iterator(region.begin()),
                 std::make_move_iterator(region.end()),
                 std::make_move_iterator(incoming.begin()),
                 std::make_move_iterator(incoming.end()),
                 std::back_inserter(merged), SidxLess);
      region.clear();
      for (const SidxTuple& t : merged) {
        wire::AppendSidxEntry(
            sidx_out.Entry(wire::SidxEntrySize(t.skey, t.pkey), t.skey),
            t.skey, t.pkey, t.vaddr, t.vlen);
        if (sidx_out.batch_full()) {
          KVCSD_CO_RETURN_IF_ERROR(co_await sidx_out.Flush());
        }
      }
      sidx_out.CloseBlock();
      co_return Status::Ok();
    };

    // Every block is read (stale tuples hide anywhere), gather_fanout
    // reads in flight; survivors of dirty blocks join the open region.
    IndexBlockStream blocks(this, ks->id, Pointers(sketch), fanout,
                            sim::Activity::kRecompact);
    Status sidx_status = Status::Ok();
    for (std::size_t pos = 0; pos < sketch.size(); ++pos) {
      auto block = co_await blocks.Next();
      if (!block.ok()) {
        sidx_status = block.status();
        break;
      }
      compaction_stats_.bytes_read += sketch[pos].block_len;
      std::uint16_t count = 0;
      Slice in;
      if (!wire::OpenIndexBlock(*block, &count, &in)) {
        sidx_status = Status::Corruption("undersized SIDX block in fold");
        break;
      }
      std::vector<SidxTuple> survivors;
      survivors.reserve(count);
      bool lost_tuple = false;
      for (std::uint16_t i = 0; i < count; ++i) {
        wire::SidxEntry entry;
        if (!wire::ParseSidxEntry(&in, &entry)) {
          sidx_status = Status::Corruption("bad SIDX block in fold");
          break;
        }
        if (delta_keys.contains(entry.pkey.ToString())) {
          lost_tuple = true;
          ++removed;
          continue;
        }
        survivors.push_back(SidxTuple{entry.skey.ToString(),
                                      entry.pkey.ToString(), entry.vaddr,
                                      entry.vlen});
      }
      if (!sidx_status.ok()) break;
      if (dirty[pos] || lost_tuple) {
        // Dirty: survivors join the open region (opening one if needed).
        if (!region_open) {
          region_open = true;
          region_start = pos;
        }
        region.insert(region.end(),
                      std::make_move_iterator(survivors.begin()),
                      std::make_move_iterator(survivors.end()));
        ++fold.rebuilt;
      } else {
        if (region_open) {
          sidx_status = co_await emit_region(pos - 1);
          if (!sidx_status.ok()) break;
          region_open = false;
        }
        fold.new_sketch.push_back(sketch[pos]);  // retained by reference
        ++fold.retained;
      }
    }
    co_await blocks.Drain();
    KVCSD_CO_RETURN_IF_ERROR(sidx_status);
    if (region_open) {
      KVCSD_CO_RETURN_IF_ERROR(co_await emit_region(
          sketch.empty() ? 0 : sketch.size() - 1));
      region_open = false;
    }
    if (fresh_cursor < fresh.size()) {
      // Remaining fresh tuples (empty index, or a tail span): one final
      // from-scratch region.
      region_start = sketch.size();
      KVCSD_CO_RETURN_IF_ERROR(
          co_await emit_region(sketch.empty() ? 0 : sketch.size() - 1));
      ++fold.rebuilt;
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await sidx_out.Flush());
    fold.new_entries = sidx.entries - removed + fresh.size();
    sidx_retained_total += fold.retained;
    sidx_rebuilt_total += fold.rebuilt;
  }

  // ---- Bloom: fold the new keys into the serialized filter in place ----
  std::string new_bloom = ks->pidx_bloom;
  if (!new_bloom.empty()) {
    std::uint64_t bloom_key_bytes = 0;
    for (const FoldItem& item : items) {
      if (item.tombstone) continue;
      BloomFilterAddKey(&new_bloom, Slice(item.key));
      bloom_key_bytes += item.key.size();
    }
    if (bloom_key_bytes > 0) {
      co_await cpu_.ComputeBytes(bloom_key_bytes,
                                 config_.costs.checksum_bytes_per_sec, sim::Activity::kRecompact);
    }
  }

  // ---- Commit ----
  // Close the gate, then drain the readers still in flight: the install
  // below swaps clusters and sketches a running scan may be
  // dereferencing. Queries arriving from here wait in AwaitQueryable
  // until the persist or its rollback is done; writes keep landing in
  // the live generation.
  KeyspaceRuntime& rt = Runtime(ks);
  sim::Event* gate = &rt.commit_gate;
  gate->Reset();
  while (ks->active_readers > 0) {
    rt.readers_idle.Reset();
    if (ks->active_readers == 0) break;
    co_await rt.readers_idle.Wait();
  }

  if (CrashPoint("recompact.before_commit")) {
    gate->Set();
    co_return Status::IoError("simulated power loss before recompact commit");
  }
  // From the install until the commit persist or its rollback returns, no
  // other snapshot may capture the table.
  co_await keyspace_manager_.BeginCommit();

  // Partition each old index chain into clusters a retained block still
  // references (they stay in the keyspace) and dead ones (released past
  // the commit point). A cluster is referenced iff one of its zones holds
  // a retained block; new-cluster zones can never alias old ones.
  const std::uint64_t zone_size = ssd_.zone_size();
  auto partition = [&](const std::vector<ClusterId>& old_chain,
                       const std::vector<SketchEntry>& sketch,
                       std::vector<ClusterId>* live,
                       std::vector<ClusterId>* dead) {
    std::set<std::uint64_t> zones;
    for (const SketchEntry& e : sketch) zones.insert(e.block_addr / zone_size);
    for (ClusterId id : old_chain) {
      bool referenced = false;
      for (std::uint32_t z : zone_manager_.cluster_zones(id)) {
        if (zones.contains(z)) {
          referenced = true;
          break;
        }
      }
      (referenced ? live : dead)->push_back(id);
    }
  };

  std::vector<ClusterId> pidx_live, pidx_dead;
  partition(ks->pidx_clusters, new_sketch, &pidx_live, &pidx_dead);
  std::map<std::string, std::pair<std::vector<ClusterId>,
                                  std::vector<ClusterId>>> sidx_parts;
  for (const auto& [name, sidx] : ks->secondary_indexes) {
    auto& [live, dead] = sidx_parts[name];
    partition(sidx.sidx_clusters, sidx_folds[name].new_sketch, &live, &dead);
  }

  // Save the old state for a symmetric un-install on persist failure. The
  // live delta generation and the delta index are not part of the install.
  std::vector<ClusterId> old_klog = std::move(ks->sealed_klog_clusters);
  std::vector<ClusterId> old_vlog = std::move(ks->sealed_vlog_clusters);
  const std::uint64_t old_klog_bytes = std::exchange(ks->sealed_klog_bytes, 0);
  const std::uint64_t old_vlog_bytes = std::exchange(ks->sealed_vlog_bytes, 0);
  std::vector<ClusterId> old_pidx = std::move(ks->pidx_clusters);
  std::vector<SketchEntry> old_pidx_sketch = std::move(ks->pidx_sketch);
  std::string old_bloom = std::move(ks->pidx_bloom);
  const std::uint64_t old_run_entries = ks->run_entries;
  std::map<std::string, std::pair<std::vector<ClusterId>,
                                  std::vector<SketchEntry>>> old_sidx;
  for (auto& [name, sidx] : ks->secondary_indexes) {
    old_sidx[name] = {std::move(sidx.sidx_clusters), std::move(sidx.sketch)};
  }
  const std::uint64_t old_value_count = ks->sorted_value_clusters.size();

  // Install the folded state. The old sorted-value clusters all stay:
  // retained and rebuilt blocks alike still point at unchanged run values.
  ks->sealed_klog_clusters.clear();
  ks->sealed_vlog_clusters.clear();
  ks->pidx_clusters = pidx_live;
  ks->pidx_clusters.insert(ks->pidx_clusters.end(), new_pidx_clusters.begin(),
                           new_pidx_clusters.end());
  ks->sorted_value_clusters.insert(ks->sorted_value_clusters.end(),
                                   new_value_clusters.begin(),
                                   new_value_clusters.end());
  ks->pidx_sketch = std::move(new_sketch);
  ks->pidx_bloom = std::move(new_bloom);
  ks->run_entries = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(ks->run_entries) + run_entries_delta);
  for (auto& [name, sidx] : ks->secondary_indexes) {
    SidxFold& fold = sidx_folds[name];
    sidx.sidx_clusters = sidx_parts[name].first;
    sidx.sidx_clusters.insert(sidx.sidx_clusters.end(),
                              fold.new_clusters.begin(),
                              fold.new_clusters.end());
    sidx.sketch = std::move(fold.new_sketch);
    sidx.entries = fold.new_entries;
  }
  ks->state = KeyspaceState::kCompacted;
  Status commit = co_await keyspace_manager_.PersistCommit();
  if (!commit.ok()) {
    ks->sealed_klog_clusters = std::move(old_klog);
    ks->sealed_vlog_clusters = std::move(old_vlog);
    ks->sealed_klog_bytes = old_klog_bytes;
    ks->sealed_vlog_bytes = old_vlog_bytes;
    ks->pidx_clusters = std::move(old_pidx);
    ks->pidx_sketch = std::move(old_pidx_sketch);
    ks->pidx_bloom = std::move(old_bloom);
    ks->run_entries = old_run_entries;
    ks->sorted_value_clusters.resize(old_value_count);
    for (auto& [name, sidx] : ks->secondary_indexes) {
      sidx.sidx_clusters = std::move(old_sidx[name].first);
      sidx.sketch = std::move(old_sidx[name].second);
    }
    ks->state = KeyspaceState::kRecompacting;  // RunJob rolls back
    keyspace_manager_.EndCommit();
    gate->Set();  // readers resume on the restored pre-fold state
    co_return commit;
  }
  // The sealed generation is in the run now: drop its entries. Entries
  // written since the seal carry seq >= seal_seq and stay pending.
  for (auto it = ks->delta_index.begin(); it != ks->delta_index.end();) {
    const DeltaEntry& entry = it->second;
    if (entry.seq >= seal_seq) {
      ++it;
      continue;
    }
    ks->delta_index_bytes -=
        kDeltaEntryOverhead + it->first.size() + entry.value.size();
    if (!entry.tombstone) --ks->delta_live;
    it = ks->delta_index.erase(it);
  }
  ks->num_kvs = ks->run_entries + ks->delta_live;
  ++compactions_done_;
  scratch->clear();  // the outputs are now owned by the durable snapshot
  // Retained blocks kept their addresses, but rebuilt and dead blocks
  // must never be served from DRAM again; drop the keyspace's cache.
  index_cache_.EraseKeyspace(ks->id);
  keyspace_manager_.EndCommit();
  gate->Set();

  stats().counter("device.recompact.done").Increment();
  stats().counter("device.recompact.delta_keys").Add(items.size());
  stats().counter("device.recompact.pidx_blocks_retained").Add(pidx_retained);
  stats().counter("device.recompact.pidx_blocks_rebuilt").Add(pidx_rebuilt);
  stats()
      .counter("device.recompact.sidx_blocks_retained")
      .Add(sidx_retained_total);
  stats()
      .counter("device.recompact.sidx_blocks_rebuilt")
      .Add(sidx_rebuilt_total);
  stats().histogram("device.recompact.fold_ns").Record(sim_->Now() -
                                                       fold_start);

  // Past the commit point the fold HAS happened; the sealed logs and any
  // old index cluster with no retained block are garbage (a crash here
  // leaks them to recovery's unreferenced-cluster sweep).
  (void)CrashPoint("recompact.after_commit");
  co_await ReleaseClustersBestEffort(std::move(old_klog));
  co_await ReleaseClustersBestEffort(std::move(old_vlog));
  co_await ReleaseClustersBestEffort(std::move(pidx_dead));
  for (auto& [name, parts] : sidx_parts) {
    co_await ReleaseClustersBestEffort(std::move(parts.second));
  }
  co_return Status::Ok();
}

}  // namespace kvcsd::device
