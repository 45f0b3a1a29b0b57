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
// through an IndexBlockStream, gather_fanout reads in flight, and decoded
// by the one wire::IndexBlockDecoder, which fails a stream whose entries
// break the index order (a fold would otherwise rewrite them); rebuilt
// blocks go out through the one IndexBlockWriter in output_batch_bytes
// appends whose sketch addresses are patched as each append lands.
// Batching moves no block boundary: each rebuilt group still starts a
// fresh block.
//
// Seal (SealLogs, shared with compaction): under the write lock the fold
// drains the write buffer and every flush in flight, records seal_seq =
// next_seq, moves the delta's log chains into the keyspace's sealed
// generation and snapshots the delta index as the fold's items. From then
// on writes land in fresh chains and in the same delta index with seq >=
// seal_seq: an overwrite since the seal already shadows its sealed entry,
// so reads need no second index.
//
// Commit protocol: the RECOMPACTING state is persisted before any output
// is written (recovery rolls it straight back to COMPACTED and replays
// the sealed ++ live chains the snapshot lists; new clusters are
// reclaimed as unreferenced). Until the commit the fold writes only fresh
// clusters, so the pre-fold run and sketches stay fixed and queries keep
// reading them. The fold then hands the mixed old + new layout to
// CommitRun, the commit every keyspace job shares: it swaps the layout in
// behind the closed commit gate and the table's commit window, persists,
// drops the sealed generation's delta entries once the persist succeeded
// (the live generation stays pending), and returns the sealed logs and
// every old index cluster no retained block references, released here.
// A crash anywhere leaves either the old state (both generations pending)
// or the new state (sealed generation folded) — never a blend.
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

std::vector<const SketchEntry*> Pointers(
    const std::vector<SketchEntry>& sketch) {
  std::vector<const SketchEntry*> out;
  out.reserve(sketch.size());
  for (const SketchEntry& e : sketch) out.push_back(&e);
  return out;
}

}  // namespace

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
  // Writes queue behind the write lock until the items are taken: the
  // sealed generation must be the complete delta log the fold consumes,
  // for recovery's sake.
  auto sealed = co_await SealLogs(ks);
  KVCSD_CO_RETURN_IF_ERROR(sealed.status());
  const std::uint64_t seal_seq = *sealed;
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
    // The live values move out for the write and back after it.
    std::vector<std::string> values;
    std::vector<std::size_t> value_items;
    std::uint64_t value_bytes = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].tombstone) continue;
      value_bytes += items[i].value.size();
      values.push_back(std::move(items[i].value));
      value_items.push_back(i);
    }
    std::vector<std::uint64_t> addrs;
    const Status written =
        co_await WriteSortedValues(&new_value_clusters, values, &addrs,
                                   sim::Activity::kRecompact, scratch);
    for (std::size_t k = 0; k < value_items.size(); ++k) {
      items[value_items[k]].value = std::move(values[k]);
      items[value_items[k]].new_addr = addrs[k];
    }
    KVCSD_CO_RETURN_IF_ERROR(written);
    co_await cpu_.ComputeBytes(value_bytes,
                               config_.costs.memcpy_bytes_per_sec, sim::Activity::kRecompact);
  }

  // ---- PIDX fold: rebuild only the blocks the delta keys land in ----
  const std::vector<SketchEntry>& old_sketch = ks->run.pidx_sketch;
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
  IndexBlockWriter pidx_out(this, &new_pidx_clusters, ZoneType::kPidx,
                            &new_sketch, sim::Activity::kRecompact, scratch);

  // Two-pointer LWW merge of one dirty block with its delta keys. The
  // merged entries alias the decoded block and the fold items.
  auto merge_block = [&](const std::vector<wire::IndexEntry>& old_recs,
                         const std::vector<const FoldItem*>& delta,
                         std::vector<wire::IndexEntry>* out) {
    std::size_t i = 0, j = 0;
    while (i < old_recs.size() || j < delta.size()) {
      if (j >= delta.size() ||
          (i < old_recs.size() && old_recs[i].pkey < Slice(delta[j]->key))) {
        out->push_back(old_recs[i]);
        ++i;
        continue;
      }
      const FoldItem* d = delta[j];
      const bool match =
          i < old_recs.size() && old_recs[i].pkey == Slice(d->key);
      if (match) ++i;
      if (d->tombstone) {
        if (match) --run_entries_delta;  // removed a run key
      } else {
        out->push_back(wire::IndexEntry{
            Slice(), Slice(d->key), d->new_addr,
            static_cast<std::uint32_t>(d->value.size())});
        if (!match) ++run_entries_delta;  // inserted a new key
      }
      ++j;
    }
  };
  // Packs one rebuilt group; it ends with its own block.
  auto pack =
      [&](const std::vector<wire::IndexEntry>& recs) -> sim::Task<Status> {
    for (const wire::IndexEntry& rec : recs) {
      wire::AppendPidxEntry(
          pidx_out.Entry(wire::PidxEntrySize(rec.pkey), rec.pkey), rec.pkey,
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
  wire::IndexBlockDecoder pidx_decoder(wire::IndexKind::kPidx);
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
    pidx_status = pidx_decoder.Open(std::move(*block));
    std::vector<wire::IndexEntry> old_recs;
    while (pidx_status.ok() && !pidx_decoder.done()) {
      wire::IndexEntry rec;
      pidx_status = pidx_decoder.Next(&rec);
      if (!pidx_status.ok()) break;
      old_recs.push_back(rec);
      fold_bytes += rec.pkey.size() + 12;
    }
    if (!pidx_status.ok()) break;
    std::vector<wire::IndexEntry> merged;
    merged.reserve(old_recs.size() + per_block[pos].size());
    merge_block(old_recs, per_block[pos], &merged);
    pidx_status = co_await pack(merged);
    if (!pidx_status.ok()) break;
  }
  co_await dirty_blocks.Drain();
  KVCSD_CO_RETURN_IF_ERROR(pidx_status);
  if (!orphan_items.empty()) {
    // Empty run: the delta becomes the run.
    std::vector<wire::IndexEntry> merged;
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

  for (const auto& [name, sidx] : ks->run.secondary_indexes) {
    SidxFold& fold = sidx_folds[name];
    const std::vector<SketchEntry>& sketch = sidx.sketch;
    IndexBlockWriter sidx_out(this, &fold.new_clusters, ZoneType::kSidx,
                              &fold.new_sketch, sim::Activity::kRecompact,
                              scratch);

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
    wire::IndexBlockDecoder decoder(wire::IndexKind::kSidx);
    Status sidx_status = Status::Ok();
    for (std::size_t pos = 0; pos < sketch.size(); ++pos) {
      auto block = co_await blocks.Next();
      if (!block.ok()) {
        sidx_status = block.status();
        break;
      }
      compaction_stats_.bytes_read += sketch[pos].block_len;
      sidx_status = decoder.Open(std::move(*block));
      std::vector<SidxTuple> survivors;
      bool lost_tuple = false;
      while (sidx_status.ok() && !decoder.done()) {
        wire::IndexEntry entry;
        sidx_status = decoder.Next(&entry);
        if (!sidx_status.ok()) break;
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
  std::string new_bloom = ks->run.pidx_bloom;
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
  // The next layout keeps each old index cluster a retained block still
  // references (a cluster is referenced iff one of its zones holds a
  // retained block; new-cluster zones can never alias old ones), then the
  // fold's new clusters. The old sorted-value clusters all stay: retained
  // and rebuilt blocks alike still point at unchanged run values.
  const std::uint64_t zone_size = ssd_.zone_size();
  auto chain = [&](const std::vector<ClusterId>& old_chain,
                   const std::vector<SketchEntry>& sketch,
                   const std::vector<ClusterId>& fresh) {
    std::set<std::uint64_t> zones;
    for (const SketchEntry& e : sketch) zones.insert(e.block_addr / zone_size);
    std::vector<ClusterId> out;
    for (ClusterId id : old_chain) {
      for (std::uint32_t z : zone_manager_.cluster_zones(id)) {
        if (zones.contains(z)) {
          out.push_back(id);
          break;
        }
      }
    }
    out.insert(out.end(), fresh.begin(), fresh.end());
    return out;
  };
  RunLayout next;
  next.pidx_clusters =
      chain(ks->run.pidx_clusters, new_sketch, new_pidx_clusters);
  next.sorted_value_clusters = ks->run.sorted_value_clusters;
  next.sorted_value_clusters.insert(next.sorted_value_clusters.end(),
                                    new_value_clusters.begin(),
                                    new_value_clusters.end());
  next.pidx_sketch = std::move(new_sketch);
  next.pidx_bloom = std::move(new_bloom);
  next.entries = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(ks->run.entries) + run_entries_delta);
  for (const auto& [name, sidx] : ks->run.secondary_indexes) {
    SidxFold& fold = sidx_folds[name];
    SecondaryIndex& folded = next.secondary_indexes[name];
    folded.spec = sidx.spec;
    folded.sidx_clusters =
        chain(sidx.sidx_clusters, fold.new_sketch, fold.new_clusters);
    folded.sketch = std::move(fold.new_sketch);
    folded.entries = fold.new_entries;
  }
  auto garbage =
      co_await CommitRun(ks, JobKind::kFold, std::move(next), seal_seq);
  KVCSD_CO_RETURN_IF_ERROR(garbage.status());

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
  co_await ReleaseClustersBestEffort(std::move(*garbage));
  co_return Status::Ok();
}

}  // namespace kvcsd::device
