// Keyspace table: name -> Keyspace, persisted to the reserved metadata
// zones of the ZNS SSD (paper §IV: "an in-memory keyspace table backed by a
// metadata zone in the underlying ZNS SSD for data persistence").
//
// Persistence model: every mutation appends a full serialized snapshot of
// the table (and, when wired to a ZoneManager, the zone-cluster allocation
// table) to the current metadata zone. Snapshots carry a monotonic
// sequence number. When the current zone fills, persistence ping-pongs to
// the other metadata zone: the sibling is reset and the newest snapshot is
// rewritten there. Because the switch never resets the zone holding the
// latest intact snapshot, a power cut inside the Reset-then-Append window
// cannot lose the table — recovery scans both zones and loads the intact
// snapshot with the highest sequence number.
//
// Commit window: between a keyspace job's install and the end of its
// commit persist (or its rollback), the in-memory table holds state that
// may still be undone, so no other snapshot may capture it (DESIGN.md §8,
// §12). The one job commit (Device::CommitRun) opens the window with
// BeginCommit, persists with PersistCommit and closes it with EndCommit;
// every other Persist — create, drop, sync, other keyspaces' jobs — waits
// until it is closed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "kvcsd/keyspace.h"
#include "kvcsd/zone_manager.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace kvcsd::device {

class KeyspaceManager {
 public:
  // `zones` may be null (table-only persistence, used by unit tests); when
  // set, the zone-cluster allocation table is persisted and recovered
  // alongside the keyspace table so cluster ids in snapshots stay
  // meaningful across a restart.
  explicit KeyspaceManager(storage::ZnsSsd* ssd,
                           ZoneManager* zones = nullptr,
                           std::uint32_t metadata_zone_a = 0,
                           std::uint32_t metadata_zone_b = 1)
      : ssd_(ssd), zones_(zones), meta_zone_a_(metadata_zone_a),
        meta_zone_b_(metadata_zone_b), current_meta_zone_(metadata_zone_a),
        commit_idle_(ssd->sim()) {
    commit_idle_.Set();
  }

  Result<Keyspace*> Create(const std::string& name);
  Result<Keyspace*> Find(const std::string& name);
  Result<Keyspace*> FindById(std::uint64_t id);
  // Removes the in-memory entry (zone clusters are the device's job).
  Status Erase(std::uint64_t id);

  std::size_t size() const { return by_id_.size(); }
  const std::map<std::uint64_t, std::unique_ptr<Keyspace>>& all() const {
    return by_id_;
  }

  // Appends a table snapshot to the current metadata zone, ping-ponging to
  // the sibling zone when it no longer fits. Waits for an open commit
  // window to close before it serializes the table.
  sim::Task<Status> Persist();

  // The commit window (see the file comment). BeginCommit waits for any
  // other open window, then opens one; PersistCommit is the window
  // owner's own persist and does not wait; EndCommit closes the window.
  sim::Task<void> BeginCommit();
  sim::Task<Status> PersistCommit();
  void EndCommit() { commit_idle_.Set(); }

  // Rebuilds the table from the newest intact snapshot across both
  // metadata zones. Returns the number of keyspaces recovered.
  sim::Task<Result<std::uint64_t>> Recover();

  // Sequence number of the last persisted/recovered snapshot.
  std::uint64_t persist_seq() const { return persist_seq_; }
  std::uint32_t current_meta_zone() const { return current_meta_zone_; }

 private:
  std::string SerializeTable(std::uint64_t seq) const;
  Status DeserializeTable(const std::string& raw, std::uint64_t* seq);
  // Scans one metadata zone's snapshot log; keeps (seq, body) of its last
  // intact snapshot if newer than *best_seq.
  sim::Task<Status> ScanZone(std::uint32_t zone, bool* found,
                             std::uint64_t* best_seq, std::string* best_body,
                             std::uint32_t* best_zone);

  storage::ZnsSsd* ssd_;
  ZoneManager* zones_;
  std::uint32_t meta_zone_a_;
  std::uint32_t meta_zone_b_;
  std::uint32_t current_meta_zone_;
  // Set by Recover(): the current zone must be reset before the next
  // append. Recovery redirects persistence to the sibling of the zone the
  // best snapshot came from — that zone may end in a torn snapshot, and a
  // record appended after garbage would be invisible to the next scan.
  bool reset_before_append_ = false;
  std::uint64_t persist_seq_ = 0;
  // Set while no commit window is open.
  sim::Event commit_idle_;
  std::map<std::uint64_t, std::unique_ptr<Keyspace>> by_id_;
  std::map<std::string, std::uint64_t> by_name_;
  std::uint64_t next_id_ = 1;
};

}  // namespace kvcsd::device
