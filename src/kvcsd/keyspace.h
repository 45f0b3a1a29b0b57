// Keyspace metadata (paper §IV "Keyspace Manager").
//
// A keyspace is a named container of key-value pairs with the lifecycle
//   EMPTY -> WRITABLE -> COMPACTING -> COMPACTED <-> RECOMPACTING
// Only COMPACTED (and RECOMPACTING) keyspaces are queryable. The keyspace
// table also stores the per-block pivot "sketches" that primary and
// secondary queries start from.
//
// A COMPACTED keyspace stays mutable (DESIGN.md §12): PUT/DELETE traffic
// lands in a fresh KLOG/VLOG *delta log* (reusing the klog/vlog chains,
// empty right after compaction) with an in-DRAM per-key delta index for
// merged reads. kCompact on a COMPACTED keyspace folds the delta back
// into the sorted run incrementally (RECOMPACTING), rewriting only the
// index blocks the delta touches.
//
// Compaction, fold and secondary-index build are the device's keyspace
// jobs, one at a time per keyspace, and all take one path (DESIGN.md §7):
// a compaction or fold seals the logs at its start (the chains move to
// sealed_klog_clusters/sealed_vlog_clusters, so later writes land in a
// fresh live generation), the job writes its output to fresh clusters
// only, and one commit swaps the new RunLayout in for the old one. An
// index build seals nothing and keeps the keyspace COMPACTED throughout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kvcsd/zone_manager.h"
#include "nvme/command.h"

namespace kvcsd::device {

enum class KeyspaceState : std::uint8_t {
  kEmpty = 0,
  kWritable,
  kCompacting,
  kCompacted,
  // Incremental re-compaction in progress: the sorted run and the sealed
  // delta are intact and unchanged until the commit, so queries keep
  // reading them; writes land in the live delta generation. A crash rolls
  // straight back to kCompacted.
  kRecompacting,
};

std::string_view KeyspaceStateName(KeyspaceState state);

// One entry per 4 KB index block: the block's first (pivot) key and its
// device address + length. Kept in SoC DRAM as part of the keyspace table.
struct SketchEntry {
  std::string pivot;
  std::uint64_t block_addr = 0;
  std::uint32_t block_len = 0;
};

// Index of the sketch block that could contain `key`: the last block whose
// pivot (first key) is <= key. Returns sketch.size() if key precedes all.
// Only valid when pivots are unique (primary keys); range queries over
// secondary keys must use SketchRangeStart (query.cc) instead.
inline std::size_t SketchLowerBlock(const std::vector<SketchEntry>& sketch,
                                    const std::string& key) {
  auto it = std::upper_bound(
      sketch.begin(), sketch.end(), key,
      [](const std::string& k, const SketchEntry& e) { return k < e.pivot; });
  if (it == sketch.begin()) return sketch.size();  // key < first pivot
  return static_cast<std::size_t>(it - sketch.begin()) - 1;
}

struct SecondaryIndex {
  nvme::SecondaryIndexSpec spec;
  std::vector<ClusterId> sidx_clusters;
  std::vector<SketchEntry> sketch;  // pivot = order-encoded secondary key
  std::uint64_t entries = 0;
};

// The sorted run of a COMPACTED keyspace: everything a job's commit swaps
// in as one value and a failed commit swaps back out. Jobs build the next
// layout in fresh clusters (a fold or index build starts from a copy of
// the current one, retaining what it does not rewrite); queries read only
// the installed one.
struct RunLayout {
  std::vector<ClusterId> pidx_clusters;
  std::vector<ClusterId> sorted_value_clusters;
  std::vector<SketchEntry> pidx_sketch;
  // Serialized bloom filter over the primary keys (common/bloom.h format),
  // built while compaction streams the merged keys through the index
  // builder and persisted with the metadata snapshot so recovery restores
  // it. Empty = no filter (bloom disabled at compaction time, or the
  // keyspace is not COMPACTED); point lookups then probe flash directly.
  std::string pidx_bloom;
  std::map<std::string, SecondaryIndex> secondary_indexes;
  // Live entries in the run (exact count produced by the last LWW-deduped
  // compaction or fold; persisted). num_kvs for a COMPACTED keyspace is
  // this plus the delta's live (non-tombstone) key count — an estimate,
  // since a delta PUT may overwrite a run key.
  std::uint64_t entries = 0;

  // Every cluster the layout references: PIDX, sorted values, then each
  // secondary index's SIDX chain in name order.
  std::vector<ClusterId> Clusters() const {
    std::vector<ClusterId> out = pidx_clusters;
    out.insert(out.end(), sorted_value_clusters.begin(),
               sorted_value_clusters.end());
    for (const auto& [name, sidx] : secondary_indexes) {
      out.insert(out.end(), sidx.sidx_clusters.begin(),
                 sidx.sidx_clusters.end());
    }
    return out;
  }
};

// Newest live mutation for one key of a COMPACTED keyspace's delta log.
// The durable form is the KLOG/VLOG delta; this index is the DRAM view
// merged reads consult first, rebuilt by delta replay after a power cut.
// While the device stays up the value rides inline (written by the PUT
// before its flush lands); after a replay only the VLOG pointer survives
// and readers gather the value from flash.
// Fixed DRAM cost charged per delta-index entry (map node + DeltaEntry
// fields) when maintaining Keyspace::delta_index_bytes, on top of the key
// and inline value bytes. An estimate — the gauge bounds headroom, it does
// not bill exact allocator bytes.
inline constexpr std::uint64_t kDeltaEntryOverhead = 48;

struct DeltaEntry {
  std::uint64_t seq = 0;
  std::uint64_t vaddr = 0;
  std::uint32_t vlen = 0;
  bool tombstone = false;
  bool has_value = false;  // value below is the authoritative bytes
  std::string value;
};

struct Keyspace {
  std::uint64_t id = 0;
  std::string name;
  KeyspaceState state = KeyspaceState::kEmpty;

  std::uint64_t num_kvs = 0;
  std::string min_key;
  std::string max_key;

  // WRITABLE-phase storage, and the live delta log once COMPACTED.
  std::vector<ClusterId> klog_clusters;
  std::vector<ClusterId> vlog_clusters;
  std::uint64_t klog_bytes = 0;
  std::uint64_t vlog_bytes = 0;
  // The log generation a running compaction or fold sealed (DESIGN.md
  // §7, §12): its chains, moved here at the job's start. Empty outside a
  // job. The commit releases them; a failed job puts them back in front
  // of the live chains. Snapshots list sealed ++ live as one chain list,
  // so the on-media format has no generations.
  std::vector<ClusterId> sealed_klog_clusters;
  std::vector<ClusterId> sealed_vlog_clusters;
  std::uint64_t sealed_klog_bytes = 0;
  std::uint64_t sealed_vlog_bytes = 0;

  // COMPACTED-phase storage.
  RunLayout run;

  // Next mutation sequence. Must stay monotone across a seal: the sealed
  // and live generations share delta_index, and the commit drops exactly
  // the entries below the seal's sequence. NOT persisted:
  // recovery derives it as (max replayed seq + 1) over every chain the
  // snapshot lists, sealed ones included, so it restarts above every
  // sequence still on flash.
  std::uint64_t next_seq = 1;

  // COMPACTED-phase delta (DESIGN.md §12): newest mutation per key across
  // the sealed and live generations, rebuilt from the klog/vlog delta
  // chains at recovery. Number of non-tombstone entries is tracked in
  // delta_live.
  std::map<std::string, DeltaEntry> delta_index;
  std::uint64_t delta_live = 0;
  // Approximate DRAM footprint of delta_index (key + inline value bytes
  // plus a fixed per-entry overhead), maintained by every mutation and
  // recomputed by delta replay. Exported as the "device.delta.index_bytes"
  // gauge and compared against DeviceConfig::delta_fold_watermark_bytes to
  // trigger watermark folds. Not persisted.
  std::uint64_t delta_index_bytes = 0;

  // Deletion requested while a keyspace job was running (paper:
  // "deletion may be deferred due to on-going compaction"). Persisted in
  // the metadata snapshot before the drop is acknowledged, so recovery
  // completes a deferred drop a crash interrupted.
  bool pending_delete = false;

  // Pins on this keyspace: command handlers, detached log flushes and a
  // running keyspace job each hold one for their whole span, so a
  // concurrent drop cannot free it mid-await; DropKeyspace defers until
  // this drains.
  std::uint32_t inflight = 0;

  // Queries that passed AwaitQueryable and are reading the run, delta
  // and sketches right now — during a fold, the pre-fold ones. A job's
  // commit closes the keyspace's commit gate (new readers then wait in
  // AwaitQueryable) and waits for this to drain, so the cluster swap can
  // never happen under an in-flight scan. Not persisted.
  std::uint32_t active_readers = 0;

  // Outcome of the most recent keyspace job (compaction, fold or index
  // build), set before its completion event fires and returned by
  // kCompactWait (and by the kSecondaryBuild that launched a build), so a
  // failure that rolled the state back still reaches the host. Not
  // persisted.
  Status last_compaction = Status::Ok();
};

}  // namespace kvcsd::device
