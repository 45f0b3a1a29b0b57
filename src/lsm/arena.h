// Bump allocator backing the memtable skiplist (LevelDB-style): node and
// entry memory is freed wholesale when the memtable is dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace kvcsd::lsm {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(std::size_t bytes) {
    if (bytes <= remaining_) {
      char* out = ptr_;
      ptr_ += bytes;
      remaining_ -= bytes;
      return out;
    }
    return AllocateNewBlock(bytes);
  }

  // Like Allocate, but aligned for structs that hold pointers (skip-list
  // nodes), as LevelDB's AllocateAligned: the bump pointer skips up to
  // kAlign - 1 bytes of slop. Fresh blocks come from new[], so they are
  // aligned already.
  char* AllocateAligned(std::size_t bytes) {
    constexpr std::size_t kAlign = sizeof(void*) > 8 ? sizeof(void*) : 8;
    static_assert((kAlign & (kAlign - 1)) == 0, "alignment is a power of 2");
    const std::size_t mod =
        reinterpret_cast<std::uintptr_t>(ptr_) & (kAlign - 1);
    const std::size_t slop = mod == 0 ? 0 : kAlign - mod;
    if (bytes + slop <= remaining_) {
      char* out = ptr_ + slop;
      ptr_ += bytes + slop;
      remaining_ -= bytes + slop;
      return out;
    }
    return AllocateNewBlock(bytes);
  }

  // Total heap memory reserved by the arena.
  std::size_t MemoryUsage() const { return memory_usage_; }

 private:
  // 4 KB like LevelDB: a fresh arena must stay far below any realistic
  // memtable budget, or an empty memtable would immediately trip the
  // "memtable full" switch.
  static constexpr std::size_t kBlockSize = 4 * 1024;

  char* AllocateNewBlock(std::size_t bytes) {
    const std::size_t block_size = bytes > kBlockSize / 4 ? bytes : kBlockSize;
    blocks_.push_back(std::make_unique<char[]>(block_size));
    memory_usage_ += block_size;
    char* block = blocks_.back().get();
    if (block_size > bytes && block_size - bytes > remaining_) {
      // Keep the tail of this block as the active bump region.
      ptr_ = block + bytes;
      remaining_ = block_size - bytes;
    }
    return block;
  }

  char* ptr_ = nullptr;
  std::size_t remaining_ = 0;
  std::size_t memory_usage_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
};

}  // namespace kvcsd::lsm
