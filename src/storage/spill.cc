#include "storage/spill.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "obs/metrics.h"

namespace modb {

namespace {

// Per-page header, docs/STORAGE_FORMAT.md. Packed little-endian by
// memcpy of the individual fields (matching ByteWriter's conventions).
struct SpillPageHeader {
  std::uint32_t magic;
  std::uint8_t version;
  std::uint8_t flags;
  std::uint16_t payload_len;
  std::uint32_t seq;
  std::uint32_t crc;
};
static_assert(sizeof(SpillPageHeader) == kSpillHeaderSize);

void PutHeader(char* page, const SpillPageHeader& h) {
  std::memcpy(page, &h, sizeof h);
}

SpillPageHeader GetHeader(const char* page) {
  SpillPageHeader h;
  std::memcpy(&h, page, sizeof h);
  return h;
}

// Frames one page of `blob` (the slice starting at page index `seq`)
// into `page`: zero fill, payload copy, checksummed header.
void FillSpillPage(char* page, std::uint32_t seq, std::string_view blob) {
  std::size_t off = std::size_t(seq) * kSpillPayloadSize;
  std::size_t len =
      off < blob.size() ? std::min(kSpillPayloadSize, blob.size() - off) : 0;
  std::memset(page, 0, kPageSize);
  std::memcpy(page + kSpillHeaderSize, blob.data() + off, len);
  SpillPageHeader h;
  h.magic = kSpillMagic;
  h.version = kSpillVersion;
  h.flags = seq == 0 ? kSpillFlagFirstPage : 0;
  h.payload_len = std::uint16_t(len);
  h.seq = seq;
  h.crc = Crc32(page + kSpillHeaderSize, len);
  PutHeader(page, h);
}

std::uint32_t PagesForBlob(std::string_view blob) {
  std::uint32_t n =
      std::uint32_t((blob.size() + kSpillPayloadSize - 1) / kSpillPayloadSize);
  return n == 0 ? 1 : n;  // an empty value still roots
}

}  // namespace

std::uint32_t SpillPagesNeeded(std::size_t num_bytes) {
  std::uint32_t n =
      std::uint32_t((num_bytes + kSpillPayloadSize - 1) / kSpillPayloadSize);
  return n == 0 ? 1 : n;
}

// Slicing-by-8 CRC-32 (same polynomial and values as the classic
// bytewise loop — table[0] is exactly that table, so the two agree on
// every input): processes 8 bytes per step instead of 1, which matters
// because verification runs over every page a scan pulls through the
// pool, on top of the device read.
std::uint32_t Crc32(const char* data, std::size_t n) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Little-endian reads of the next two words; memcpy keeps it legal
    // on any alignment and compiles to plain loads.
    std::uint32_t lo, hi;
    std::memcpy(&lo, data + i, 4);
    std::memcpy(&hi, data + i + 4, 4);
    lo ^= crc;
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; i < n; ++i) {
    crc = tables[0][(crc ^ std::uint8_t(data[i])) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<SpillLocator> SpillBlob(PageDevice* device, std::string_view blob) {
  SpillLocator loc;
  loc.num_bytes = std::uint32_t(blob.size());
  loc.num_pages = PagesForBlob(blob);
  Result<std::uint32_t> first = device->AllocatePages(loc.num_pages);
  if (!first.ok()) return first.status();
  loc.first_page = *first;

  char page[kPageSize];
  for (std::uint32_t i = 0; i < loc.num_pages; ++i) {
    FillSpillPage(page, i, blob);
    MODB_RETURN_IF_ERROR(device->WritePage(loc.first_page + i, page));
  }
  MODB_COUNTER_INC("storage.spill.values_spilled");
  MODB_COUNTER_ADD("storage.spill.pages_spilled", loc.num_pages);
  MODB_COUNTER_ADD("storage.spill.bytes_spilled", blob.size());
  return loc;
}

Result<SpillLocator> SpillBlobToPages(BufferPool* pool,
                                      std::uint32_t first_page,
                                      std::string_view blob) {
  SpillLocator loc;
  loc.first_page = first_page;
  loc.num_bytes = std::uint32_t(blob.size());
  loc.num_pages = PagesForBlob(blob);
  if (std::size_t(first_page) + loc.num_pages > pool->NumDevicePages()) {
    return Status::OutOfRange("spill target pages beyond the device");
  }
  for (std::uint32_t i = 0; i < loc.num_pages; ++i) {
    Result<BufferPool::PageRef> ref = pool->Pin(first_page + i);
    if (!ref.ok()) return ref.status();
    FillSpillPage(ref->mutable_data(), i, blob);
  }
  MODB_COUNTER_INC("storage.spill.values_spilled");
  MODB_COUNTER_ADD("storage.spill.pages_spilled", loc.num_pages);
  MODB_COUNTER_ADD("storage.spill.bytes_spilled", blob.size());
  return loc;
}

Result<std::string> ReadSpilledBlob(BufferPool* pool,
                                    const SpillLocator& loc) {
  if (loc.num_pages == 0) {
    // Even an empty value roots one page (SpillPagesNeeded(0) == 1); a
    // zero-page locator never came from a spill.
    return Status::InvalidArgument("spill locator with zero pages");
  }
  if (std::size_t(loc.num_bytes) >
      std::size_t(loc.num_pages) * kSpillPayloadSize) {
    return Status::InvalidArgument("spill locator byte count exceeds pages");
  }
  // Validate an untrusted locator against the device before sizing any
  // allocation: a fuzzed num_pages/num_bytes must yield an error, not a
  // multi-gigabyte reserve (bad_alloc).
  if (std::size_t(loc.first_page) + loc.num_pages > pool->NumDevicePages()) {
    MODB_COUNTER_INC("storage.spill.header_rejects");
    return Status::OutOfRange("spill locator pages beyond the device");
  }
  // The pin loop below touches the run strictly in sequence; hint the
  // whole run up front so the device (madvise/fadvise WILLNEED) can
  // overlap the later faults with the first pages' decode.
  if (loc.num_pages > 1) pool->Prefetch(loc.first_page, loc.num_pages);
  std::string out;
  out.reserve(loc.num_bytes);
  for (std::uint32_t i = 0; i < loc.num_pages; ++i) {
    Result<BufferPool::PageRef> ref = pool->Pin(loc.first_page + i);
    if (!ref.ok()) return ref.status();
    const char* page = ref->data();
    const SpillPageHeader h = GetHeader(page);
    if (h.magic != kSpillMagic) {
      MODB_COUNTER_INC("storage.spill.header_rejects");
      return Status::InvalidArgument("not a spill page (bad magic)");
    }
    if (h.version != kSpillVersion) {
      MODB_COUNTER_INC("storage.spill.header_rejects");
      return Status::InvalidArgument("unsupported spill page version");
    }
    if (h.seq != i || ((h.flags & kSpillFlagFirstPage) != 0) != (i == 0)) {
      MODB_COUNTER_INC("storage.spill.header_rejects");
      return Status::InvalidArgument("spill page sequence mismatch");
    }
    const std::size_t expect =
        std::min(kSpillPayloadSize, std::size_t(loc.num_bytes) - out.size());
    if (std::size_t(h.payload_len) != expect) {
      MODB_COUNTER_INC("storage.spill.header_rejects");
      return Status::InvalidArgument("spill page payload length mismatch");
    }
    if (Crc32(page + kSpillHeaderSize, h.payload_len) != h.crc) {
      MODB_COUNTER_INC("storage.spill.checksum_rejects");
      return Status::InvalidArgument(
          "spill page checksum mismatch (torn or corrupt write)");
    }
    out.append(page + kSpillHeaderSize, h.payload_len);
  }
  if (out.size() != loc.num_bytes) {
    return Status::InvalidArgument("spilled value shorter than its locator");
  }
  MODB_COUNTER_INC("storage.spill.values_loaded");
  MODB_COUNTER_ADD("storage.spill.bytes_loaded", out.size());
  return out;
}

}  // namespace modb
