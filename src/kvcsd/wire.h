// On-flash record formats shared by the write path, the compactor, and
// the query engine.
//
//   KLOG entry   := varint32 klen | key | fixed64 vaddr | varint32 vlen |
//                   varint64 seq | uint8 flags
//   KLOG frame   := fixed32 magic | fixed32 masked_crc | varint32 len |
//                   len bytes of KLOG entries (one frame per flush batch)
//
// `seq` is the keyspace-wide mutation sequence assigned at PUT/DELETE
// admission. Up to kMaxInflightFlushes flush batches are in flight at
// once, so KLOG append order is NOT admission order — last-writer-wins
// resolution (compaction dedupe, delta replay) always compares seq, never
// log position. flags bit 0 marks a tombstone (a point DELETE); tombstone
// entries carry vaddr = 0, vlen = 0.
//   PIDX block   := fixed16 count | count * (varint32 klen | key |
//                   fixed64 vaddr | varint32 vlen) | zero pad to 4 KB
//   SIDX block   := fixed16 count | count * (varint32 sklen | skey_enc |
//                   varint32 pklen | pkey | fixed64 vaddr | varint32 vlen)
//                   | zero pad to 4 KB
//
// skey_enc is the order-preserving encoding of the typed secondary key
// (common/keys.h), so memcmp order == numeric order.
//
// KLOG frames exist for crash consistency: the CRC lives in the frame
// HEADER, so a power cut mid-append always yields an incomplete payload
// (a torn tail recovery silently drops), never a frame that parses but
// carries garbage. A complete frame whose CRC mismatches is genuine
// corruption.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/slice.h"
#include "common/status.h"

namespace kvcsd::device::wire {

constexpr std::uint8_t kKlogFlagTombstone = 0x01;

inline void AppendKlogEntry(std::string* out, const Slice& key,
                            std::uint64_t vaddr, std::uint32_t vlen,
                            std::uint64_t seq, bool tombstone = false) {
  PutVarint32(out, static_cast<std::uint32_t>(key.size()));
  out->append(key.data(), key.size());
  PutFixed64(out, vaddr);
  PutVarint32(out, vlen);
  PutVarint64(out, seq);
  out->push_back(static_cast<char>(tombstone ? kKlogFlagTombstone : 0));
}

struct ParsedKlogEntry {
  Slice key;
  std::uint64_t vaddr;
  std::uint32_t vlen;
  std::uint64_t seq;
  bool tombstone;
};

inline bool ParseKlogEntry(Slice* in, ParsedKlogEntry* out) {
  std::uint32_t klen = 0;
  if (!GetVarint32(in, &klen) || in->size() < klen) return false;
  out->key = Slice(in->data(), klen);
  in->remove_prefix(klen);
  if (!GetFixed64(in, &out->vaddr) || !GetVarint32(in, &out->vlen)) {
    return false;
  }
  if (!GetVarint64(in, &out->seq) || in->empty()) return false;
  out->tombstone =
      (static_cast<std::uint8_t>((*in)[0]) & kKlogFlagTombstone) != 0;
  in->remove_prefix(1);
  return true;
}

// --- KLOG frames ---

constexpr std::uint32_t kKlogFrameMagic = 0x4b4c4f47;  // "KLOG"

// Wraps one flush batch of KLOG entries in a framed record.
inline void AppendKlogFrame(std::string* out, const Slice& payload) {
  PutFixed32(out, kKlogFrameMagic);
  PutFixed32(out,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutVarint32(out, static_cast<std::uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
}

enum class KlogFrameResult : std::uint8_t {
  kFrame = 0,   // *payload holds one complete, CRC-verified frame
  kNeedMore,    // input ends mid-frame (torn tail or short read)
  kBadMagic,    // not a frame boundary — corruption
  kBadCrc,      // complete frame, payload does not match its CRC
};

// Consumes one frame from *in. On kFrame the frame is consumed and
// *payload aliases *in's buffer; on kNeedMore nothing is consumed (the
// caller fetches more bytes or treats the remainder as a torn tail); on
// kBadMagic/kBadCrc nothing is consumed.
inline KlogFrameResult ParseKlogFrame(Slice* in, Slice* payload) {
  if (in->size() < 8) return KlogFrameResult::kNeedMore;
  Slice probe = *in;
  std::uint32_t magic = 0, masked_crc = 0, len = 0;
  GetFixed32(&probe, &magic);
  if (magic != kKlogFrameMagic) return KlogFrameResult::kBadMagic;
  GetFixed32(&probe, &masked_crc);
  if (!GetVarint32(&probe, &len)) {
    // A varint32 needs at most 5 bytes; fewer available means the header
    // itself is torn, more means it is garbage.
    return probe.size() < 5 ? KlogFrameResult::kNeedMore
                            : KlogFrameResult::kBadMagic;
  }
  if (probe.size() < len) return KlogFrameResult::kNeedMore;
  Slice body(probe.data(), len);
  if (crc32c::Unmask(masked_crc) !=
      crc32c::Value(body.data(), body.size())) {
    return KlogFrameResult::kBadCrc;
  }
  *payload = body;
  in->remove_prefix(static_cast<std::size_t>(probe.data() - in->data()) +
                    len);
  return KlogFrameResult::kFrame;
}

// --- PIDX ---

// One PIDX or SIDX entry as a reader decodes it; a PIDX entry leaves skey
// empty. The slices alias the block the entry was parsed from.
struct IndexEntry {
  Slice skey;  // order-encoded secondary key
  Slice pkey;
  std::uint64_t vaddr = 0;
  std::uint32_t vlen = 0;
};

inline std::size_t PidxEntrySize(const Slice& key) {
  return static_cast<std::size_t>(VarintLength(key.size())) + key.size() +
         8 + 5;  // worst-case vlen varint
}

inline void AppendPidxEntry(std::string* out, const Slice& key,
                            std::uint64_t vaddr, std::uint32_t vlen) {
  PutVarint32(out, static_cast<std::uint32_t>(key.size()));
  out->append(key.data(), key.size());
  PutFixed64(out, vaddr);
  PutVarint32(out, vlen);
}

inline bool ParsePidxEntry(Slice* in, IndexEntry* out) {
  std::uint32_t klen = 0;
  if (!GetVarint32(in, &klen) || in->size() < klen) return false;
  out->skey = Slice();
  out->pkey = Slice(in->data(), klen);
  in->remove_prefix(klen);
  return GetFixed64(in, &out->vaddr) && GetVarint32(in, &out->vlen);
}

// --- SIDX ---

// SIDX blocks are written by compaction in nondecreasing (skey, pkey)
// order: entries sort by the order-encoded secondary key first, with the
// primary key breaking ties. Readers depend on this — a secondary range
// scan with a row limit cuts the result at the limit, so when many rows
// share the boundary secondary key, the survivors are deterministically
// the ones with the smallest primary keys. IndexBlockDecoder checks the
// invariant on every block it decodes and fails Corruption on violation.
inline std::size_t SidxEntrySize(const Slice& skey, const Slice& pkey) {
  return static_cast<std::size_t>(VarintLength(skey.size())) + skey.size() +
         static_cast<std::size_t>(VarintLength(pkey.size())) + pkey.size() +
         8 + 5;
}

inline void AppendSidxEntry(std::string* out, const Slice& skey,
                            const Slice& pkey, std::uint64_t vaddr,
                            std::uint32_t vlen) {
  PutVarint32(out, static_cast<std::uint32_t>(skey.size()));
  out->append(skey.data(), skey.size());
  PutVarint32(out, static_cast<std::uint32_t>(pkey.size()));
  out->append(pkey.data(), pkey.size());
  PutFixed64(out, vaddr);
  PutVarint32(out, vlen);
}

inline bool ParseSidxEntry(Slice* in, IndexEntry* out) {
  std::uint32_t sklen = 0;
  if (!GetVarint32(in, &sklen) || in->size() < sklen) return false;
  out->skey = Slice(in->data(), sklen);
  in->remove_prefix(sklen);
  std::uint32_t pklen = 0;
  if (!GetVarint32(in, &pklen) || in->size() < pklen) return false;
  out->pkey = Slice(in->data(), pklen);
  in->remove_prefix(pklen);
  return GetFixed64(in, &out->vaddr) && GetVarint32(in, &out->vlen);
}

// Index blocks start with a fixed16 entry count.
inline void BeginIndexBlock(std::string* block) {
  block->clear();
  PutFixed16(block, 0);  // patched by FinishIndexBlock
}

inline void FinishIndexBlock(std::string* block, std::uint16_t count,
                             std::uint32_t block_size) {
  EncodeFixed16(block->data(), count);
  block->resize(block_size, '\0');
}

// --- reading index blocks ---

enum class IndexKind : std::uint8_t { kPidx, kSidx };

// The one index-block reader: decodes the blocks of one PIDX or SIDX
// stream in stream order, and checks that every entry keeps the order the
// writer emits — nondecreasing pkey for PIDX, (skey, pkey) for SIDX —
// against the entry before it, across block boundaries too. A fetched
// block's bytes are not trusted (injected errors and crashes can hand
// garbage back, a corrupt sketch entry the wrong block), and a silent
// order break would mis-cut a scan's `limit` or corrupt a fold's output:
// an undersized block, a truncated entry and an order violation are all
// Corruption. So is a block whose first entry differs from the sketch
// pivot it was reached through (IndexBlockWriter makes every pivot its
// block's first key: pkey for PIDX, skey for SIDX), which catches a sketch
// entry pointing at another valid block even when one block is read alone,
// as a point lookup does. Entries decode one at a time, so a reader that
// stops early (a point lookup, a scan past `hi`) decodes no further.
class IndexBlockDecoder {
 public:
  explicit IndexBlockDecoder(IndexKind kind) : kind_(kind) {}
  // prev_ may alias the decoder's own strings.
  IndexBlockDecoder(const IndexBlockDecoder&) = delete;
  IndexBlockDecoder& operator=(const IndexBlockDecoder&) = delete;

  // Takes the stream's next block, reached through the sketch entry whose
  // pivot is `pivot` (it must outlive the block's first Next); Corruption
  // when it is too small to hold its own header.
  Status Open(std::string block, const Slice& pivot) {
    if (have_prev_) {
      // The entry the new block continues must outlive its own block.
      prev_skey_ = prev_.skey.ToString();
      prev_pkey_ = prev_.pkey.ToString();
      prev_.skey = prev_skey_;
      prev_.pkey = prev_pkey_;
    }
    block_ = std::move(block);
    pivot_ = pivot;
    first_ = true;
    left_ = 0;
    if (block_.size() < 2) return Corrupt("block undersized");
    left_ = DecodeFixed16(block_.data());
    in_ = Slice(block_.data() + 2, block_.size() - 2);
    return Status::Ok();
  }

  // Whether the open block has no entries left to decode.
  bool done() const { return left_ == 0; }

  // Decodes the open block's next entry (call only while !done()); it
  // aliases the block until the next Open.
  Status Next(IndexEntry* entry) {
    const bool parsed = kind_ == IndexKind::kPidx
                            ? ParsePidxEntry(&in_, entry)
                            : ParseSidxEntry(&in_, entry);
    if (!parsed) return Corrupt("entry truncated");
    if (first_) {
      first_ = false;
      const Slice& range_key =
          kind_ == IndexKind::kPidx ? entry->pkey : entry->skey;
      if (range_key != pivot_) return Corrupt("block does not match its pivot");
    }
    if (have_prev_ &&
        (entry->skey < prev_.skey ||
         (entry->skey == prev_.skey && entry->pkey < prev_.pkey))) {
      return Corrupt("entries out of order");
    }
    prev_ = *entry;
    have_prev_ = true;
    --left_;
    return Status::Ok();
  }

 private:
  Status Corrupt(const char* what) {
    left_ = 0;
    std::string msg = kind_ == IndexKind::kPidx ? "PIDX " : "SIDX ";
    msg += what;
    return Status::Corruption(std::move(msg));
  }

  IndexKind kind_;
  std::string block_;
  Slice in_;               // the open block's undecoded entries
  Slice pivot_;            // the open block's sketch pivot
  bool first_ = false;     // the open block's first entry is next
  std::uint16_t left_ = 0;
  IndexEntry prev_;        // the last entry decoded
  bool have_prev_ = false;
  std::string prev_skey_;  // prev_'s bytes once its block is replaced
  std::string prev_pkey_;
};

// --- pushdown (kKvSelect / kKvAggregate) ---

// Extracts the attribute byte range a predicate or aggregate addresses.
// Returns false when the value is too short to hold it — such a record is
// skipped (and counted by the caller), never an error: heterogeneous
// value sizes are legal in one keyspace.
inline bool ExtractAttribute(const Slice& value, std::uint32_t offset,
                             std::uint32_t length, Slice* out) {
  const std::uint64_t end = std::uint64_t{offset} + length;
  if (end > value.size()) return false;
  *out = Slice(value.data() + offset, length);
  return true;
}

// Clamps a projection range to the bytes the value actually holds: a
// range starting at or past the end projects zero bytes, one reaching
// past the end is trimmed to what exists.
inline Slice ClampProjection(const Slice& value, std::uint32_t offset,
                             std::uint32_t length) {
  if (offset >= value.size()) return Slice(value.data(), 0);
  const std::size_t avail = value.size() - offset;
  return Slice(value.data() + offset,
               std::min<std::size_t>(length, avail));
}

}  // namespace kvcsd::device::wire
