// Offloaded query processing (paper §V "Query Processing").
//
// All queries start from the in-memory pivot sketch in the keyspace table:
// binary-search the sketch, read the covering 4 KB PIDX/SIDX block(s) from
// flash, then gather exactly the matching values. Because everything runs
// in the device, only results travel back over PCIe — the mechanism behind
// the paper's selectivity-dependent speedups (Fig. 12). Primary and
// secondary range queries share one scan body, QueryRange; every index
// block any reader fetches is decoded by wire::IndexBlockDecoder.
//
// Read acceleration (DESIGN.md §10):
//   - ReadIndexBlock fronts a DRAM index-block cache; a hit pays only the
//     in-block search CPU, no flash read.
//   - QueryPoint consults the keyspace's compaction-built bloom filter so
//     negative lookups usually skip flash entirely.
//   - Range scans keep the next sketch block's read in flight while the
//     current one is parsed (an IndexBlockStream with a window of two).
//   - GatherValues dedupes identical refs, coalesces address-adjacent
//     reads, and fans the coalesced ranges out across NAND channels.
//
// Mutability (DESIGN.md §12): a COMPACTED keyspace carries a delta index
// of post-compaction mutations. Point lookups consult it first (it is
// strictly newer than the run); range scans two-way merge the sorted run
// with the ordered delta rows under last-writer-wins, with tombstones
// suppressing run entries. An incremental re-compaction (fold)
// seals the delta at its start and writes only fresh clusters; writes
// admitted while it runs join the same delta index as a newer generation,
// so the pre-fold run stays fixed and queries keep reading it, merged
// with the whole delta, until the commit. Queries wait in AwaitQueryable
// only while the fold's commit gate is closed; every admitted query holds
// a reader count, which the commit drains before it swaps the on-flash
// structures.
#include <algorithm>
#include <tuple>

#include "common/bloom.h"
#include "kvcsd/device.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// Pins the keyspace's COMPACTED structures for the lifetime of one query
// coroutine; the destructor runs on every exit path (including error
// co_returns) and wakes a re-compaction commit waiting for readers to
// drain.
class ReaderGuard {
 public:
  ReaderGuard(Keyspace* ks, sim::Event* idle) : ks_(ks), idle_(idle) {
    ++ks_->active_readers;
  }
  ReaderGuard(const ReaderGuard&) = delete;
  ReaderGuard& operator=(const ReaderGuard&) = delete;
  ~ReaderGuard() {
    if (--ks_->active_readers == 0) idle_->Set();
  }

 private:
  Keyspace* ks_;
  sim::Event* idle_;
};

// First block that can contain entries >= lo, correct even when several
// consecutive blocks share the same pivot (tied secondary keys): position
// at the FIRST block whose pivot >= lo and step back one block, since the
// preceding block's tail may still hold keys >= lo.
std::size_t SketchRangeStart(const std::vector<SketchEntry>& sketch,
                             const std::string& lo) {
  auto it = std::lower_bound(
      sketch.begin(), sketch.end(), lo,
      [](const SketchEntry& e, const std::string& k) { return e.pivot < k; });
  if (it != sketch.begin()) --it;
  return static_cast<std::size_t>(it - sketch.begin());
}

// The sketch blocks a range scan over [lo, hi] reads, in order: from the
// first block that can hold keys >= lo up to the last whose pivot <= hi.
std::vector<const SketchEntry*> ScanBlocks(
    const std::vector<SketchEntry>& sketch, const std::string& lo,
    const std::string& hi) {
  std::vector<const SketchEntry*> blocks;
  if (sketch.empty()) return blocks;
  for (std::size_t pos = SketchRangeStart(sketch, lo);
       pos < sketch.size() && !(sketch[pos].pivot > hi); ++pos) {
    blocks.push_back(&sketch[pos]);
  }
  return blocks;
}

}  // namespace

sim::Task<Result<std::string>> Device::ReadIndexBlock(
    std::uint64_t keyspace_id, const SketchEntry& entry, sim::Activity act) {
  if (index_cache_.enabled()) {
    std::string cached;
    if (index_cache_.Lookup(keyspace_id, entry.block_addr, &cached)) {
      stats().counter("device.read_cache.hits").Increment();
      co_await cpu_.Compute(config_.costs.block_search, act);
      co_return cached;
    }
    stats().counter("device.read_cache.misses").Increment();
  }
  std::string block(entry.block_len, '\0');
  co_await cpu_.Compute(config_.costs.io_path_overhead, act);
  KVCSD_CO_RETURN_IF_ERROR(co_await ssd_.Read(
      entry.block_addr,
      std::span<std::byte>(reinterpret_cast<std::byte*>(block.data()),
                           block.size()),
      act));
  co_await cpu_.Compute(config_.costs.block_search, act);
  index_cache_.Insert(keyspace_id, entry.block_addr, block);
  co_return block;
}

Device::IndexBlockStream::IndexBlockStream(
    Device* device, std::uint64_t keyspace_id,
    std::vector<const SketchEntry*> blocks, std::uint32_t window,
    sim::Activity act)
    : device_(device),
      keyspace_id_(keyspace_id),
      blocks_(std::move(blocks)),
      act_(act),
      slots_(std::max<std::uint32_t>(window, 1)) {
  for (Slot& slot : slots_) {
    slot.done = std::make_unique<sim::Event>(device_->sim_);
  }
}

sim::Task<void> Device::IndexBlockStream::Read(Device* device,
                                               std::uint64_t keyspace_id,
                                               SketchEntry entry,
                                               sim::Activity act, Slot* slot) {
  slot->block = co_await device->ReadIndexBlock(keyspace_id, entry, act);
  slot->done->Set();
}

sim::Task<Result<std::string>> Device::IndexBlockStream::Next() {
  const std::size_t window = slots_.size();
  if (window == 1) {
    // Nothing to overlap: read inline.
    co_return co_await device_->ReadIndexBlock(keyspace_id_,
                                               *blocks_[next_++], act_);
  }
  // Top the window up: block issued_ reuses the slot of block
  // issued_ - window, which the caller has already consumed.
  while (issued_ < blocks_.size() && issued_ < next_ + window) {
    Slot& slot = slots_[issued_ % window];
    slot.active = true;
    slot.done->Reset();
    if (issued_ > next_) ++issued_ahead_;
    device_->sim_->Spawn(
        Read(device_, keyspace_id_, *blocks_[issued_], act_, &slot));
    ++issued_;
  }
  Slot& slot = slots_[next_ % window];
  ++next_;
  co_await slot.done->Wait();
  slot.active = false;
  co_return std::move(slot.block);
}

sim::Task<std::uint64_t> Device::IndexBlockStream::Drain() {
  std::uint64_t unconsumed = 0;
  for (Slot& slot : slots_) {
    if (!slot.active) continue;
    co_await slot.done->Wait();
    slot.active = false;
    ++unconsumed;
  }
  co_return unconsumed;
}

sim::Task<void> Device::DrainScan(IndexBlockStream* blocks) {
  const std::uint64_t wasted = co_await blocks->Drain();
  if (blocks->issued_ahead() > 0) {
    stats().counter("device.prefetch.issued").Add(blocks->issued_ahead());
  }
  if (wasted > 0) stats().counter("device.prefetch.wasted").Add(wasted);
}

sim::Task<Result<std::vector<std::string>>> Device::GatherValues(
    std::vector<ValueRef> refs, sim::Activity act) {
  std::vector<std::string> out(refs.size());
  if (refs.empty()) co_return out;

  std::vector<std::size_t> order(refs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&refs](std::size_t a, std::size_t b) {
    if (refs[a].addr != refs[b].addr) return refs[a].addr < refs[b].addr;
    if (refs[a].len != refs[b].len) return refs[a].len < refs[b].len;
    return a < b;
  });

  // Dedupe identical (addr, len) refs: repeated hits on the same value
  // (e.g. retried point gets batched together) must not issue redundant
  // flash reads or break a coalesced range at the size limit.
  std::vector<std::size_t> uniq;  // indexes into refs, one per distinct ref
  std::vector<std::size_t> owner(refs.size());  // refs index -> uniq slot
  uniq.reserve(order.size());
  std::uint64_t dup_refs = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const ValueRef& r = refs[order[k]];
    if (uniq.empty() || refs[uniq.back()].addr != r.addr ||
        refs[uniq.back()].len != r.len) {
      uniq.push_back(order[k]);
    } else {
      ++dup_refs;
    }
    owner[order[k]] = uniq.size() - 1;
  }

  // Coalesce distinct refs into ranges whose gap stays below a page, that
  // stay inside one zone, and that stay under 1 MiB. Plain CPU work: the
  // I/O is issued afterwards so ranges on different NAND channels overlap.
  const std::uint64_t zone_size = ssd_.zone_size();
  constexpr std::uint64_t kMaxGap = 4096;
  constexpr std::uint64_t kMaxRange = MiB(1);

  struct Range {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::size_t first = 0;  // [first, last) into uniq
    std::size_t last = 0;
  };
  std::vector<Range> ranges;
  std::size_t i = 0;
  while (i < uniq.size()) {
    const std::uint64_t range_start = refs[uniq[i]].addr;
    const std::uint64_t zone_end = (range_start / zone_size + 1) * zone_size;
    std::uint64_t range_end = range_start + refs[uniq[i]].len;
    std::size_t j = i + 1;
    while (j < uniq.size()) {
      const ValueRef& next = refs[uniq[j]];
      const std::uint64_t next_end = next.addr + next.len;
      if (next.addr > range_end + kMaxGap) break;
      if (next_end > zone_end) break;
      if (next_end - range_start > kMaxRange) break;
      range_end = std::max(range_end, next_end);
      ++j;
    }
    ranges.push_back(Range{range_start, range_end, i, j});
    i = j;
  }

  stats().counter("device.gather.refs").Add(refs.size());
  stats().counter("device.gather.dup_refs").Add(dup_refs);
  stats().counter("device.gather.ranges").Add(ranges.size());

  // Fan the range reads out with a bounded inflight. Each worker writes
  // disjoint uniq_values slots, so results are independent of completion
  // order — parallelism changes timing, never contents.
  std::vector<std::string> uniq_values(uniq.size());
  auto read_range = [&](std::size_t r) -> sim::Task<Status> {
    const Range& range = ranges[r];
    std::string buffer(range.end - range.start, '\0');
    co_await cpu_.Compute(config_.costs.io_path_overhead, act);
    KVCSD_CO_RETURN_IF_ERROR(co_await ssd_.Read(
        range.start,
        std::span<std::byte>(reinterpret_cast<std::byte*>(buffer.data()),
                             buffer.size()),
        act));
    for (std::size_t u = range.first; u < range.last; ++u) {
      const ValueRef& ref = refs[uniq[u]];
      uniq_values[u] = buffer.substr(ref.addr - range.start, ref.len);
    }
    co_return Status::Ok();
  };
  KVCSD_CO_RETURN_IF_ERROR(co_await sim::ParallelFor(
      sim_, ranges.size(), std::max<std::uint32_t>(config_.gather_fanout, 1),
      read_range));

  for (std::size_t k = 0; k < refs.size(); ++k) out[k] = uniq_values[owner[k]];
  co_return out;
}

sim::Task<Status> Device::AwaitQueryable(Keyspace* ks) {
  // A fold is transparent to readers: they read the pre-fold state while
  // it runs and wait only while its commit gate is closed. Any other
  // non-COMPACTED state is a caller error, same as before keyspaces were
  // mutable.
  sim::Event& gate = Runtime(ks).commit_gate;
  if (!gate.is_set()) {
    const Tick held = sim_->Now();
    do {
      co_await gate.Wait();
    } while (!gate.is_set());
    stats().histogram("device.recompact.gate_ns").Record(sim_->Now() - held);
  }
  if (ks->state != KeyspaceState::kCompacted &&
      ks->state != KeyspaceState::kRecompacting) {
    co_return Status::FailedPrecondition(
        "keyspace is not queryable (state " +
        std::string(KeyspaceStateName(ks->state)) + ")");
  }
  co_return Status::Ok();
}

sim::Task<Result<std::string>> Device::QueryPoint(Keyspace* ks,
                                                  const std::string& key) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  ReaderGuard reader(ks, &Runtime(ks).readers_idle);
  sim::TraceSpan span(sim_, trk_query_, "point_lookup");
  // The delta index is authoritative for every key it holds — strictly
  // newer than anything in the run.
  if (auto it = ks->delta_index.find(key); it != ks->delta_index.end()) {
    co_await cpu_.Compute(config_.costs.block_search,
                          sim::Activity::kHostRead);
    if (it->second.tombstone) {
      span.Arg("src", "delta_tombstone");
      stats().counter("device.query.delta_hits").Increment();
      co_return Status::NotFound();
    }
    span.Arg("src", "delta");
    stats().counter("device.query.delta_hits").Increment();
    co_return co_await LoadDeltaValue(it->second);
  }
  // Bloom first: a definite negative answers from DRAM alone, skipping
  // both the index-block read and the value gather.
  bool bloom_said_maybe = false;
  if (!ks->run.pidx_bloom.empty()) {
    co_await cpu_.Compute(config_.costs.bloom_check,
                          sim::Activity::kHostRead);
    if (!BloomFilterMayContain(Slice(ks->run.pidx_bloom), Slice(key))) {
      stats().counter("device.bloom.negative").Increment();
      span.Arg("src", "bloom_negative");
      co_return Status::NotFound();
    }
    bloom_said_maybe = true;
    stats().counter("device.bloom.maybe").Increment();
  }
  const std::size_t pos = SketchLowerBlock(ks->run.pidx_sketch, key);
  if (pos >= ks->run.pidx_sketch.size()) {
    span.Arg("src", "miss");
    co_return Status::NotFound();
  }

  auto block = co_await ReadIndexBlock(ks->id, ks->run.pidx_sketch[pos]);
  if (!block.ok()) co_return block.status();
  wire::IndexBlockDecoder decoder(wire::IndexKind::kPidx);
  KVCSD_CO_RETURN_IF_ERROR(decoder.Open(std::move(*block)));
  while (!decoder.done()) {
    wire::IndexEntry entry;
    KVCSD_CO_RETURN_IF_ERROR(decoder.Next(&entry));
    if (entry.pkey == Slice(key)) {
      std::vector<ValueRef> one;
      one.push_back(ValueRef{entry.vaddr, entry.vlen});
      auto values = co_await GatherValues(std::move(one));
      if (!values.ok()) co_return values.status();
      span.Arg("src", "run");
      co_return std::move((*values)[0]);
    }
    if (Slice(key) < entry.pkey) break;  // sorted: key is absent
  }
  if (bloom_said_maybe) {
    stats().counter("device.bloom.false_positive").Increment();
  }
  span.Arg("src", "miss");
  co_return Status::NotFound();
}

sim::Task<Status> Device::QueryRange(
    Keyspace* ks, const std::string* index_name, const std::string& lo,
    const std::string& hi, std::uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    sim::Activity act) {
  KVCSD_CO_RETURN_IF_ERROR(co_await AwaitQueryable(ks));
  ReaderGuard reader(ks, &Runtime(ks).readers_idle);
  const SecondaryIndex* sidx = nullptr;
  if (index_name != nullptr) {
    auto it = ks->run.secondary_indexes.find(*index_name);
    if (it == ks->run.secondary_indexes.end()) {
      co_return Status::NotFound("no such secondary index: " + *index_name);
    }
    sidx = &it->second;
  }

  // Both sides of the merge are ordered by (skey, pkey); PIDX rows leave
  // skey empty, so they order by pkey alone. A PIDX delta row reads its
  // entry when it is merged and gathered, as the delta stands then; a SIDX
  // delta row carries the value it was loaded with.
  struct DeltaRow {
    std::string skey;
    std::string pkey;
    const DeltaEntry* entry = nullptr;  // PIDX
    std::string value;                  // SIDX
  };
  struct RunRow {
    std::string skey;
    std::string pkey;
    ValueRef ref;
  };
  std::vector<DeltaRow> delta;
  // Extra run rows to collect so the merge can still fill `limit` after
  // the delta has suppressed some of them.
  std::uint32_t scan_limit = limit;
  if (sidx == nullptr) {
    // The in-range slice of the delta, already key-ordered. Every in-range
    // tombstone can suppress one run row. DeltaEntry pointers stay valid
    // across awaits: the map is node-based and the commit that clears it
    // drains active_readers first.
    for (auto it = ks->delta_index.lower_bound(lo);
         it != ks->delta_index.end() && it->first <= hi; ++it) {
      delta.push_back(DeltaRow{{}, it->first, &it->second, {}});
      if (limit != 0 && it->second.tombstone) ++scan_limit;
    }
  } else {
    // Every delta key's run tuple (if any) is stale — an overwrite may
    // have moved the row's secondary key, a tombstone removed it — so the
    // scan drops run tuples whose pkey appears in the delta, and this loop
    // contributes the replacements: load each live delta value, extract
    // its secondary key, keep the in-range ones. Any delta key may hide
    // one run tuple anywhere in range.
    for (const auto& [pkey, entry] : ks->delta_index) {
      if (limit != 0) ++scan_limit;
      if (entry.tombstone) continue;
      auto value = co_await LoadDeltaValue(entry, act);
      if (!value.ok()) co_return value.status();
      auto skey = nvme::ExtractSecondaryKey(Slice(*value), sidx->spec);
      if (!skey.ok()) co_return skey.status();
      if (*skey < lo || hi < *skey) continue;
      delta.push_back(
          DeltaRow{std::move(*skey), pkey, nullptr, std::move(*value)});
    }
    std::sort(delta.begin(), delta.end(),
              [](const DeltaRow& a, const DeltaRow& b) {
                return std::tie(a.skey, a.pkey) < std::tie(b.skey, b.pkey);
              });
  }

  // Block pos+1's read stays in flight while block pos is decoded; the
  // stream never reads past `hi`, so at most one read (a mid-block limit
  // cut) is wasted. Every error exit breaks to the drain below, since
  // detached reads write into the stream. The decoder fails a block out
  // of order: that would silently mis-cut `limit`, which for SIDX keeps
  // the smallest pkeys of a tied secondary key.
  IndexBlockStream blocks(this, ks->id,
                          ScanBlocks(sidx != nullptr ? sidx->sketch
                                                     : ks->run.pidx_sketch,
                                     lo, hi),
                          /*window=*/2, act);
  wire::IndexBlockDecoder decoder(sidx != nullptr ? wire::IndexKind::kSidx
                                                  : wire::IndexKind::kPidx);
  Status scan_status = Status::Ok();
  std::vector<RunRow> run;
  bool cut = false;
  while (!cut && !blocks.done()) {
    Result<std::string> block = co_await blocks.Next();
    scan_status = block.ok() ? decoder.Open(std::move(*block))
                             : block.status();
    while (scan_status.ok() && !cut && !decoder.done()) {
      wire::IndexEntry entry;
      scan_status = decoder.Next(&entry);
      if (!scan_status.ok()) break;
      const Slice range_key = sidx != nullptr ? entry.skey : entry.pkey;
      if (range_key < Slice(lo)) continue;
      cut = Slice(hi) < range_key;
      if (cut) break;
      if (sidx != nullptr && ks->delta_index.contains(entry.pkey.ToString())) {
        continue;  // stale: this row was overwritten or deleted
      }
      run.push_back(RunRow{entry.skey.ToString(), entry.pkey.ToString(),
                           ValueRef{entry.vaddr, entry.vlen}});
      cut = scan_limit != 0 && run.size() >= scan_limit;
    }
    if (!scan_status.ok()) break;
  }
  co_await DrainScan(&blocks);
  KVCSD_CO_RETURN_IF_ERROR(scan_status);

  // Two-way merge cut at `limit`: on a tie the delta row replaces the
  // run row (it is strictly newer), a delta tombstone emits nothing, and
  // delta-only rows slot into order.
  struct Row {
    std::string pkey;
    ValueRef ref{0, 0};
    DeltaRow* delta = nullptr;  // null for a run row
  };
  std::vector<Row> rows;
  rows.reserve(run.size() + delta.size());
  std::size_t ri = 0;
  std::size_t di = 0;
  while ((ri < run.size() || di < delta.size()) &&
         (limit == 0 || rows.size() < limit)) {
    const bool run_left = ri < run.size();
    if (di < delta.size() &&
        (!run_left || std::tie(delta[di].skey, delta[di].pkey) <=
                          std::tie(run[ri].skey, run[ri].pkey))) {
      DeltaRow& d = delta[di++];
      if (run_left && d.skey == run[ri].skey && d.pkey == run[ri].pkey) {
        ++ri;  // the run row is stale
      }
      if (d.entry != nullptr && d.entry->tombstone) continue;
      rows.push_back(Row{std::move(d.pkey), ValueRef{0, 0}, &d});
    } else {
      rows.push_back(Row{std::move(run[ri].pkey), run[ri].ref, nullptr});
      ++ri;
    }
  }

  // One batched gather covers everything that lives on flash: run values
  // plus PIDX delta values that only survive as VLOG pointers after a
  // power cycle. Inline delta values copy straight from DRAM.
  std::vector<ValueRef> refs;
  std::vector<std::size_t> ref_slot;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const DeltaRow* d = rows[r].delta;
    if (d == nullptr) {
      refs.push_back(rows[r].ref);
    } else if (d->entry != nullptr && !d->entry->has_value &&
               d->entry->vlen > 0) {
      refs.push_back(ValueRef{d->entry->vaddr, d->entry->vlen});
    } else {
      continue;
    }
    ref_slot.push_back(r);
  }
  auto values = co_await GatherValues(std::move(refs), act);
  if (!values.ok()) co_return values.status();
  std::vector<std::string> vals(rows.size());
  for (std::size_t k = 0; k < ref_slot.size(); ++k) {
    vals[ref_slot[k]] = std::move((*values)[k]);
  }
  out->reserve(out->size() + rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (DeltaRow* d = rows[r].delta; d != nullptr) {
      if (d->entry == nullptr) {
        vals[r] = std::move(d->value);
      } else if (d->entry->has_value) {
        vals[r] = d->entry->value;
      }
    }
    out->emplace_back(std::move(rows[r].pkey), std::move(vals[r]));
  }
  co_return Status::Ok();
}

}  // namespace kvcsd::device
