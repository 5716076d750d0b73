#include "storage/buffer_pool.h"

#include <limits>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace modb {

namespace {
std::size_t FloorPow2(std::size_t n) {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

// Small pools stay single-sharded so eviction order is a global LRU;
// large pools split into up to 8 shards of >= 16 frames each.
std::size_t AutoShards(std::size_t capacity) {
  if (capacity < 32) return 1;
  return FloorPow2(std::min<std::size_t>(8, capacity / 16));
}
}  // namespace

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = std::exchange(o.pool_, nullptr);
    frame_ = std::exchange(o.frame_, nullptr);
    data_ = std::exchange(o.data_, nullptr);
    page_ = o.page_;
    dirty_ = std::exchange(o.dirty_, false);
  }
  return *this;
}

void BufferPool::PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, dirty_);
    pool_ = nullptr;
    frame_ = nullptr;
    data_ = nullptr;
    dirty_ = false;
  }
}

BufferPool::BufferPool(PageDevice* device, std::size_t capacity)
    : BufferPool(device, capacity, AutoShards(capacity == 0 ? 1 : capacity)) {}

BufferPool::BufferPool(PageDevice* device, std::size_t capacity,
                       std::size_t shards)
    : device_(device), capacity_(capacity == 0 ? 1 : capacity) {
  shards_count_ = FloorPow2(
      std::max<std::size_t>(1, std::min(shards == 0 ? 1 : shards, capacity_)));
  std::uint32_t bits = 0;
  while ((std::size_t(1) << bits) < shards_count_) ++bits;
  shard_shift_ = 32 - bits;
  shards_ = std::make_unique<Shard[]>(shards_count_);
  const std::size_t base = capacity_ / shards_count_;
  const std::size_t rem = capacity_ % shards_count_;
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    s.num_frames = base + (i < rem ? 1 : 0);
    s.frames = std::make_unique<Frame[]>(s.num_frames);
    s.free_frames.reserve(s.num_frames);
    // Hand frames out in index order (pop_back): 0, 1, 2, ...
    for (std::size_t j = s.num_frames; j > 0; --j) {
      s.frames[j - 1].home = &s;
      s.free_frames.push_back(&s.frames[j - 1]);
    }
  }
}

BufferPool::~BufferPool() { FlushAll().ok(); }

BufferPool::Shard& BufferPool::ShardFor(std::uint32_t page) const {
  if (shards_count_ == 1) return shards_[0];
  // Fibonacci-style multiplicative hash; the upper bits decorrelate the
  // sequential page ids spill extents produce.
  const std::uint32_t h = page * 2654435761u;
  return shards_[h >> shard_shift_];
}

Result<BufferPool::PageRef> BufferPool::Pin(std::uint32_t page) {
  Shard& s = ShardFor(page);
  {
    // Fast path: a resident page needs only the shared lock and an
    // atomic pin bump, so concurrent pins of hot pages never serialize.
    std::shared_lock<std::shared_mutex> lock(s.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      MODB_COUNTER_INC("storage.buffer_pool.shard_conflicts");
      lock.lock();
    }
    auto it = s.table.find(page);
    if (it != s.table.end()) {
      Frame* f = it->second;
      f->pins.fetch_add(1, std::memory_order_acq_rel);
      f->lru_tick.store(s.tick.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
      s.hits.fetch_add(1, std::memory_order_relaxed);
      MODB_COUNTER_INC("storage.buffer_pool.hits");
      return PageRef(this, f, page);
    }
  }

  std::unique_lock<std::shared_mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    MODB_COUNTER_INC("storage.buffer_pool.shard_conflicts");
    lock.lock();
  }
  // Another thread may have faulted the page in while we dropped the
  // shared lock.
  auto it = s.table.find(page);
  if (it != s.table.end()) {
    Frame* f = it->second;
    f->pins.fetch_add(1, std::memory_order_acq_rel);
    f->lru_tick.store(s.tick.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    s.hits.fetch_add(1, std::memory_order_relaxed);
    MODB_COUNTER_INC("storage.buffer_pool.hits");
    return PageRef(this, f, page);
  }
  s.misses.fetch_add(1, std::memory_order_relaxed);
  MODB_COUNTER_INC("storage.buffer_pool.misses");

  Frame* f = nullptr;
  if (!s.free_frames.empty()) {
    f = s.free_frames.back();
    s.free_frames.pop_back();
  } else {
    // Evict the least-recently-used unpinned frame of this shard.
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < s.num_frames; ++i) {
      Frame& c = s.frames[i];
      if (c.resident && c.pins.load(std::memory_order_acquire) == 0 &&
          c.lru_tick.load(std::memory_order_relaxed) < best) {
        best = c.lru_tick.load(std::memory_order_relaxed);
        f = &c;
      }
    }
    if (f == nullptr) {
      MODB_COUNTER_INC("storage.buffer_pool.pin_exhausted");
      return Status::FailedPrecondition(
          "buffer pool exhausted: every frame is pinned");
    }
    if (f->dirty.load(std::memory_order_acquire)) {
      Status wb = WritebackLocked(&s, f);
      if (!wb.ok()) {
        // The dirty victim stays resident — failing the pin must not
        // lose its unwritten bytes.
        s.write_errors.fetch_add(1, std::memory_order_relaxed);
        return wb;
      }
    }
    s.table.erase(f->page);
    f->resident = false;
    s.evictions.fetch_add(1, std::memory_order_relaxed);
    MODB_COUNTER_INC("storage.buffer_pool.evictions");
  }

  if (!f->data) f->data = std::make_unique<char[]>(kPageSize);
  Status read = device_->ReadPage(page, f->data.get());
  if (!read.ok()) {
    s.read_errors.fetch_add(1, std::memory_order_relaxed);
    s.free_frames.push_back(f);
    return read;
  }
  f->page = page;
  f->pins.store(1, std::memory_order_relaxed);
  f->dirty.store(false, std::memory_order_relaxed);
  f->resident = true;
  f->lru_tick.store(s.tick.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  s.table.emplace(page, f);
  MODB_HISTOGRAM_RECORD("storage.buffer_pool.shard_occupancy",
                        s.table.size());
  return PageRef(this, f, page);
}

void BufferPool::Unpin(Frame* f, bool dirty) {
  // Lock-free: the dirty bit is published before the pin drops, so an
  // evictor that observes pins == 0 under the exclusive lock also sees
  // the dirty bit.
  if (dirty) f->dirty.store(true, std::memory_order_release);
  Shard* s = f->home;
  const std::uint64_t tick =
      s->tick.fetch_add(1, std::memory_order_relaxed) + 1;
  f->lru_tick.store(tick, std::memory_order_relaxed);
  f->pins.fetch_sub(1, std::memory_order_acq_rel);
}

Status BufferPool::WritebackLocked(Shard* s, Frame* f) {
  Status st = device_->WritePage(f->page, f->data.get());
  if (!st.ok()) return st;
  s->writebacks.fetch_add(1, std::memory_order_relaxed);
  MODB_COUNTER_INC("storage.buffer_pool.writebacks");
  f->dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::unique_lock<std::shared_mutex> lock(s.mu);
    for (std::size_t j = 0; j < s.num_frames; ++j) {
      Frame& f = s.frames[j];
      if (f.resident && f.dirty.load(std::memory_order_acquire)) {
        Status st = WritebackLocked(&s, &f);
        if (!st.ok()) {
          s.write_errors.fetch_add(1, std::memory_order_relaxed);
          return st;
        }
      }
    }
  }
  // The durability barrier: written pages must survive a crash before
  // the caller (e.g. the two-phase commit) proceeds.
  return device_->Sync();
}

Status BufferPool::DropAll() {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_count_);
  for (std::size_t i = 0; i < shards_count_; ++i) {
    locks.emplace_back(shards_[i].mu);
  }
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    for (std::size_t j = 0; j < s.num_frames; ++j) {
      const Frame& f = s.frames[j];
      if (f.resident && f.pins.load(std::memory_order_acquire) > 0) {
        return Status::FailedPrecondition("cannot drop: pages are pinned");
      }
    }
  }
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    for (std::size_t j = 0; j < s.num_frames; ++j) {
      Frame& f = s.frames[j];
      if (!f.resident) continue;
      if (f.dirty.load(std::memory_order_acquire)) {
        Status st = WritebackLocked(&s, &f);
        if (!st.ok()) {
          s.write_errors.fetch_add(1, std::memory_order_relaxed);
          return st;
        }
      }
      s.table.erase(f.page);
      f.resident = false;
      f.data.reset();
      s.evictions.fetch_add(1, std::memory_order_relaxed);
      MODB_COUNTER_INC("storage.buffer_pool.evictions");
      s.free_frames.push_back(&f);
    }
  }
  Status sync = device_->Sync();
  if (!sync.ok()) return sync;
  return Status::OK();
}

Status BufferPool::DiscardAll() {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_count_);
  for (std::size_t i = 0; i < shards_count_; ++i) {
    locks.emplace_back(shards_[i].mu);
  }
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    for (std::size_t j = 0; j < s.num_frames; ++j) {
      const Frame& f = s.frames[j];
      if (f.resident && f.pins.load(std::memory_order_acquire) > 0) {
        return Status::FailedPrecondition("cannot discard: pages are pinned");
      }
    }
  }
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    for (std::size_t j = 0; j < s.num_frames; ++j) {
      Frame& f = s.frames[j];
      if (!f.resident) continue;
      s.table.erase(f.page);
      f.resident = false;
      f.dirty.store(false, std::memory_order_relaxed);
      f.data.reset();
      s.evictions.fetch_add(1, std::memory_order_relaxed);
      MODB_COUNTER_INC("storage.buffer_pool.evictions");
      s.free_frames.push_back(&f);
    }
  }
  return Status::OK();
}

bool BufferPool::IsResident(std::uint32_t page) const {
  Shard& s = ShardFor(page);
  std::shared_lock<std::shared_mutex> lock(s.mu);
  return s.table.count(page) != 0;
}

std::size_t BufferPool::NumResident() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::shared_lock<std::shared_mutex> lock(s.mu);
    n += s.table.size();
  }
  return n;
}

std::size_t BufferPool::NumPinned() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::shared_lock<std::shared_mutex> lock(s.mu);
    for (std::size_t j = 0; j < s.num_frames; ++j) {
      const Frame& f = s.frames[j];
      if (f.resident && f.pins.load(std::memory_order_acquire) > 0) ++n;
    }
  }
  return n;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (std::size_t i = 0; i < shards_count_; ++i) {
    const Shard& s = shards_[i];
    out.hits += s.hits.load(std::memory_order_relaxed);
    out.misses += s.misses.load(std::memory_order_relaxed);
    out.evictions += s.evictions.load(std::memory_order_relaxed);
    out.writebacks += s.writebacks.load(std::memory_order_relaxed);
    out.read_errors += s.read_errors.load(std::memory_order_relaxed);
    out.write_errors += s.write_errors.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace modb
