// A sharded LRU buffer pool over a PageDevice — the main-memory half of
// the paper's Section-4 storage contract. Attribute pages live on
// "secondary memory" (the device); queries pin the pages they touch, the
// pool reads each page at most once while it stays resident, and dirty
// pages are written back on eviction or an explicit flush. Pinned pages
// are never evicted, so a PageRef's bytes stay valid for its whole
// lifetime even while other threads fault pages in and out.
//
// Concurrency: the frame table is split into power-of-two shards keyed
// by a page-id hash, each with its own shared_mutex, LRU clock, and free
// list. Pinning a resident page takes only the shard's shared lock plus
// an atomic pin-count increment, so concurrent readers of hot pages
// never serialize; misses, evictions, and writebacks take the shard's
// exclusive lock and run device I/O under it (devices tolerate
// concurrent reads, so distinct shards fault pages in parallel).
// Unpin is lock-free: an atomic decrement plus an LRU-tick store.
// Small pools (capacity < 32 frames) collapse to one shard so their
// eviction order is the exact global LRU the tests and cold-cache
// benchmarks rely on.
//
// Every frame owns a private page buffer filled by ReadPage, so
// uncommitted scribbles live only in pool memory until writeback and
// DiscardAll really discards them (crash simulation stays honest). The
// buffer is allocated on a frame's first load and reused across
// evictions.
//
// Hit, miss, eviction, and writeback counts are kept per shard and
// aggregated at export time, so the historical storage.buffer_pool.*
// metric names stay stable; storage.buffer_pool.shard_conflicts and the
// storage.buffer_pool.shard_occupancy histogram expose contention and
// skew across shards (compiled out under MODB_NO_METRICS).

#ifndef MODB_STORAGE_BUFFER_POOL_H_
#define MODB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "storage/page_store.h"

namespace modb {

/// Snapshot of the pool's lifetime counters, aggregated across shards.
struct BufferPoolStats {
  std::uint64_t hits = 0;        // pin found the page resident
  std::uint64_t misses = 0;      // pin had to read the device
  std::uint64_t evictions = 0;   // resident page dropped to make room
  std::uint64_t writebacks = 0;  // dirty page written back to the device
  std::uint64_t read_errors = 0;
  std::uint64_t write_errors = 0;
};

/// Fixed-capacity page cache with pin/unpin and dirty-page writeback.
class BufferPool {
 public:
  /// `device` must outlive the pool. `capacity` is the frame count (the
  /// pool's memory budget is capacity * kPageSize). The shard count is
  /// chosen from the capacity: 1 below 32 frames, up to 8 for large
  /// pools.
  BufferPool(PageDevice* device, std::size_t capacity);

  /// As above with an explicit shard count (rounded down to a power of
  /// two and clamped to [1, capacity]). Tests use 1 to get a global
  /// LRU at any capacity.
  BufferPool(PageDevice* device, std::size_t capacity, std::size_t shards);

  /// Flushes dirty pages, swallowing errors; call FlushAll() first to
  /// observe them.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  struct Frame;  // private in all but name; PageRef carries one
  struct Shard;

  /// An RAII pin on one resident page. While any PageRef for a page is
  /// alive, the page cannot be evicted and data() stays valid. Writing
  /// through mutable_data() marks the page dirty; the dirty bit is
  /// applied when the ref releases.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& o) noexcept { *this = std::move(o); }
    PageRef& operator=(PageRef&& o) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef() { Release(); }

    explicit operator bool() const { return pool_ != nullptr; }
    std::uint32_t page_id() const { return page_; }
    const char* data() const { return data_; }
    char* mutable_data() {
      dirty_ = true;
      return data_;
    }
    void MarkDirty() { dirty_ = true; }

    /// Early unpin; the ref becomes empty.
    void Release();

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, Frame* frame, std::uint32_t page)
        : pool_(pool), frame_(frame), data_(frame->data.get()), page_(page) {}

    BufferPool* pool_ = nullptr;
    Frame* frame_ = nullptr;
    char* data_ = nullptr;
    std::uint32_t page_ = 0;
    bool dirty_ = false;
  };

  /// Pins `page`, reading it from the device if not resident (possibly
  /// evicting the least-recently-used unpinned page of its shard, with
  /// writeback if it is dirty). Fails with FailedPrecondition when every
  /// frame of the shard is pinned, and propagates device read/writeback
  /// errors — a failed pin changes no cached state, so the caller can
  /// retry.
  Result<PageRef> Pin(std::uint32_t page);

  /// Writes every dirty resident page back to the device, then syncs the
  /// device (fdatasync) so the bytes are durable — the store's
  /// two-phase commit relies on this being a real barrier.
  Status FlushAll();

  /// Flushes and evicts every resident page. Fails with
  /// FailedPrecondition if any page is still pinned. Turns the next pins
  /// cold — used by tests and the cold-cache benchmarks.
  Status DropAll();

  /// Evicts every resident page *without* writing anything back — dirty
  /// bytes are lost, exactly as if the process had crashed with them
  /// still in memory. Crash-simulation harnesses use this to abandon a
  /// store mid-commit; never call it on a pool you intend to keep using
  /// as a cache of durable state. Fails with FailedPrecondition if any
  /// page is still pinned.
  Status DiscardAll();

  bool IsResident(std::uint32_t page) const;
  std::size_t capacity() const { return capacity_; }
  /// Page count of the backing device — the bound readers must validate
  /// untrusted locators against before sizing any allocation. Devices
  /// keep this readable concurrently with growth.
  std::size_t NumDevicePages() const { return device_->NumPages(); }
  std::size_t NumResident() const;
  /// Frames currently holding at least one pin.
  std::size_t NumPinned() const;
  std::size_t num_shards() const { return shards_count_; }
  BufferPoolStats stats() const;

  /// Forwards a sequential-readahead hint to the device (fire and
  /// forget). Callers pass device page ranges they are about to Pin.
  void Prefetch(std::uint32_t first_page, std::uint32_t num_pages) const {
    device_->Prefetch(first_page, num_pages);
  }

  struct Frame {
    std::uint32_t page = 0;
    std::atomic<std::uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    bool resident = false;
    std::atomic<std::uint64_t> lru_tick{0};  // larger = more recently used
    std::unique_ptr<char[]> data;  // kPageSize bytes once first loaded
    Shard* home = nullptr;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::uint32_t, Frame*> table;
    std::vector<Frame*> free_frames;
    std::unique_ptr<Frame[]> frames;
    std::size_t num_frames = 0;
    std::atomic<std::uint64_t> tick{0};
    // Aggregated into BufferPoolStats at export; atomics so the
    // shared-lock fast path can bump hits.
    std::atomic<std::uint64_t> hits{0}, misses{0}, evictions{0},
        writebacks{0}, read_errors{0}, write_errors{0};
  };

 private:
  Shard& ShardFor(std::uint32_t page) const;
  void Unpin(Frame* f, bool dirty);
  /// Writes frame's page back; on success clears its dirty bit. Caller
  /// holds the shard's exclusive lock.
  Status WritebackLocked(Shard* s, Frame* f);

  PageDevice* device_;
  std::size_t capacity_;
  std::size_t shards_count_;
  std::uint32_t shard_shift_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace modb

#endif  // MODB_STORAGE_BUFFER_POOL_H_
