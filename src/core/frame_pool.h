// Size-bucketed free-list allocator for coroutine frames.
//
// Simulated processes are coroutines, and batch/simmpi studies spawn and
// retire them by the hundred thousand: spawn → a few resumes → destroy.
// Every frame otherwise costs one malloc + one free on the general-purpose
// allocator. The pool recycles frames by size class instead: after warm-up,
// frame allocation is a pointer pop and deallocation a pointer push — the
// allocation-counting test in tests/test_engine_alloc.cpp holds the
// steady-state spawn/resume/destroy cycle at zero heap allocations.
//
// Design:
//   - Power-of-two buckets from 64 B to 2 KiB (every ctesim process frame
//     measured today is 100–600 B); larger frames pass straight through to
//     ::operator new, counted in Stats::oversize.
//   - One pool per thread (thread_local). Engines are single-threaded and
//     the server runs one engine per worker thread, so there is no locking
//     on the hot path and TSan sees no shared state. A frame freed on a
//     different thread than it was allocated on (which ctesim never does
//     today) would simply migrate to the freeing thread's pool — safe,
//     because blocks are plain ::operator new memory either way.
//   - Task's promise operator new/delete (core/task.h) route every
//     coroutine frame here; nothing else needs to opt in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace ctesim::sim::frame_pool {

inline constexpr std::size_t kMinBlock = 64;    ///< bucket 0 block size
inline constexpr std::size_t kMaxBlock = 2048;  ///< largest pooled frame
inline constexpr std::size_t kBuckets = 6;      ///< 64,128,256,512,1024,2048

/// Per-thread pool counters — a test/diagnostic hook, not a control knob.
struct Stats {
  std::uint64_t pool_hits = 0;    ///< allocations served from a free list
  std::uint64_t pool_misses = 0;  ///< pooled sizes that had to call new
  std::uint64_t oversize = 0;     ///< frames beyond kMaxBlock (unpooled)
  std::uint64_t live = 0;         ///< pooled blocks currently handed out
  std::size_t free_blocks = 0;    ///< blocks parked across all free lists
};

namespace detail {

/// Bucket index for a frame of `size` bytes, or kBuckets if unpooled.
constexpr std::size_t bucket_of(std::size_t size) noexcept {
  std::size_t bucket = 0;
  std::size_t block = kMinBlock;
  while (block < size && bucket < kBuckets) {
    block <<= 1;
    ++bucket;
  }
  return bucket;
}

constexpr std::size_t block_size(std::size_t bucket) noexcept {
  return kMinBlock << bucket;
}

static_assert(bucket_of(1) == 0 && bucket_of(kMinBlock) == 0);
static_assert(bucket_of(kMinBlock + 1) == 1);
static_assert(bucket_of(kMaxBlock) == kBuckets - 1);
static_assert(bucket_of(kMaxBlock + 1) == kBuckets);

class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() { release_free_lists(); }

  void* allocate(std::size_t size) {
    const std::size_t bucket = bucket_of(size);
    if (bucket >= kBuckets) {
      ++stats_.oversize;
      return ::operator new(size);
    }
    ++stats_.live;
    if (FreeNode* node = free_[bucket]) {
      free_[bucket] = node->next;
      --stats_.free_blocks;
      ++stats_.pool_hits;
      node->~FreeNode();
      return node;
    }
    ++stats_.pool_misses;
    return ::operator new(block_size(bucket));
  }

  void deallocate(void* ptr, std::size_t size) noexcept {
    const std::size_t bucket = bucket_of(size);
    if (bucket >= kBuckets) {
      ::operator delete(ptr);
      return;
    }
    --stats_.live;
    free_[bucket] = ::new (ptr) FreeNode{free_[bucket]};
    ++stats_.free_blocks;
  }

  const Stats& stats() const noexcept { return stats_; }

  /// Return every parked block to the system (test hook; frames still in
  /// use are untouched — the pool never owns live memory).
  void release_free_lists() noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      FreeNode* node = free_[b];
      free_[b] = nullptr;
      while (node != nullptr) {
        FreeNode* next = node->next;
        node->~FreeNode();
        ::operator delete(node, block_size(b));
        node = next;
      }
    }
    stats_.free_blocks = 0;
  }

 private:
  /// Freed blocks store the free-list link in their own first bytes; every
  /// bucket block is >= kMinBlock >= sizeof(FreeNode).
  struct FreeNode {
    FreeNode* next;
  };
  static_assert(sizeof(FreeNode) <= kMinBlock);

  FreeNode* free_[kBuckets] = {};
  Stats stats_;
};

inline Pool& local_pool() {
  thread_local Pool pool;
  return pool;
}

}  // namespace detail

inline void* allocate(std::size_t size) {
  return detail::local_pool().allocate(size);
}

inline void deallocate(void* ptr, std::size_t size) noexcept {
  detail::local_pool().deallocate(ptr, size);
}

/// This thread's pool counters.
inline Stats stats() { return detail::local_pool().stats(); }

/// Release this thread's parked blocks (test hook).
inline void release_free_lists() {
  detail::local_pool().release_free_lists();
}

}  // namespace ctesim::sim::frame_pool
