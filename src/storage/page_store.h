// An in-process emulation of the DBMS block environment the paper's data
// structures target (Section 4): attribute values must live in "a small
// number of memory blocks that can be moved efficiently between secondary
// and main memory". PageStore hands out page extents; DbArray-style
// variable-size components are placed either inline in the tuple or in a
// page extent depending on size, following [DG98].
//
// The PageDevice interface is the block-device contract the buffer pool
// (storage/buffer_pool.h) caches over: fixed-size pages addressed by id,
// with fallible page-granular reads and writes. PageStore implements it
// in memory; FilePageDevice implements it directly against a file so
// pages are only brought into main memory on demand ("secondary memory"
// proper — a relation accessed through it can exceed RAM). Both
// devices route every page I/O through the fault injector
// (storage/fault.h).

#ifndef MODB_STORAGE_PAGE_STORE_H_
#define MODB_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace modb {

inline constexpr std::size_t kPageSize = 4096;

/// The on-disk page file header: magic u64, num_pages u64, bytes_used
/// u64 (all LE). Shared by PageStore::SaveToFile and FilePageDevice —
/// page `p` lives at byte offset
/// kPageFileHeaderSize + p * kPageSize. See docs/STORAGE_FORMAT.md §2.
inline constexpr std::size_t kPageFileHeaderSize = 24;

/// A contiguous run of pages holding one database array.
struct PageExtent {
  uint32_t first_page = 0;
  uint32_t num_pages = 0;
  uint32_t num_bytes = 0;
};

/// The block-device contract: fixed-size pages addressed by id. All
/// operations are fallible; implementations must not abort on I/O errors.
///
/// Thread safety: ReadPage, WritePage, and Prefetch must
/// tolerate concurrent calls (the sharded buffer pool issues page I/O
/// from several shards at once). AllocatePages and Sync are
/// writer-side operations: callers must serialize them against each
/// other, but reads may proceed concurrently with both.
class PageDevice {
 public:
  virtual ~PageDevice() = default;

  virtual std::size_t NumPages() const = 0;

  /// Appends `n` zeroed pages; returns the id of the first.
  virtual Result<uint32_t> AllocatePages(uint32_t n) = 0;

  /// Copies page `page` into out[0, kPageSize).
  virtual Status ReadPage(uint32_t page, char* out) const = 0;

  /// Overwrites page `page` with data[0, kPageSize).
  virtual Status WritePage(uint32_t page, const char* data) = 0;

  /// Advises the device that [first_page, first_page + num_pages) is
  /// about to be read sequentially. Purely a hint; never fails.
  virtual void Prefetch(uint32_t first_page, uint32_t num_pages) const {
    (void)first_page;
    (void)num_pages;
  }

  /// Forces previously written pages down to durable storage
  /// (fdatasync). A no-op for in-memory devices.
  virtual Status Sync() { return Status::OK(); }
};

/// A trivially simple in-memory page allocator with read/write access by
/// extent and by page.
class PageStore : public PageDevice {
 public:
  PageStore() = default;

  // Page stores own bulk data; copying one is almost always a bug.
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;
  PageStore(PageStore&&) = default;
  PageStore& operator=(PageStore&&) = default;

  /// Copies `bytes` into freshly allocated pages.
  PageExtent Write(std::string_view bytes);

  /// Reads an extent back.
  Result<std::string> Read(const PageExtent& extent) const;

  // PageDevice:
  std::size_t NumPages() const override { return pages_.size(); }
  Result<uint32_t> AllocatePages(uint32_t n) override;
  Status ReadPage(uint32_t page, char* out) const override;
  Status WritePage(uint32_t page, const char* data) override;

  /// Persists all pages to a file ("secondary memory": previously issued
  /// extents remain valid against the reloaded store). The file layout is
  /// specified in docs/STORAGE_FORMAT.md and shared with FilePageDevice.
  Status SaveToFile(const std::string& path) const;

  /// Reloads a store persisted with SaveToFile.
  static Result<PageStore> LoadFromFile(const std::string& path);

  std::size_t BytesAllocated() const { return pages_.size() * kPageSize; }
  std::size_t BytesUsed() const { return bytes_used_; }

 private:
  std::vector<std::string> pages_;
  std::size_t bytes_used_ = 0;
};

/// A file-backed page device over the PageStore file format: pages are
/// read and written in place with positioned I/O (pread/pwrite), one
/// page per call, so only the pages a query actually touches ever occupy
/// main memory and concurrent reads never contend on a shared file
/// offset. Cache it behind a BufferPool to amortize the per-page seeks.
///
/// Short reads/writes and EINTR are retried in a loop; only true
/// truncation — the file ends before the bytes the header admits — is
/// reported as kDataLoss, with the path, offset, and expected/got byte
/// counts so recovery can decide to heal rather than retry.
class FilePageDevice : public PageDevice {
 public:
  /// Creates (truncating) an empty device file.
  static Result<FilePageDevice> Create(const std::string& path);

  /// Opens an existing device file (e.g. one written by
  /// PageStore::SaveToFile).
  static Result<FilePageDevice> Open(const std::string& path);

  ~FilePageDevice() override;

  FilePageDevice(const FilePageDevice&) = delete;
  FilePageDevice& operator=(const FilePageDevice&) = delete;
  FilePageDevice(FilePageDevice&& other) noexcept;
  FilePageDevice& operator=(FilePageDevice&& other) noexcept;

  // PageDevice:
  std::size_t NumPages() const override {
    return std::size_t(num_pages_.load(std::memory_order_acquire));
  }
  Result<uint32_t> AllocatePages(uint32_t n) override;
  Status ReadPage(uint32_t page, char* out) const override;
  Status WritePage(uint32_t page, const char* data) override;
  void Prefetch(uint32_t first_page, uint32_t num_pages) const override;
  Status Sync() override;

  const std::string& path() const { return path_; }

 private:
  FilePageDevice() = default;

  Status WriteHeader();

  std::string path_;
  int fd_ = -1;
  // Readers race benignly with the writer's growth; acquire/release so
  // a page id observed in-range has its backing bytes visible too.
  std::atomic<uint64_t> num_pages_{0};
  uint64_t bytes_used_ = 0;
};

}  // namespace modb

#endif  // MODB_STORAGE_PAGE_STORE_H_
