// Experiment S1/F7 (Section 4): flat attribute representations — root
// record + database arrays, subarrays shared across the units of a
// mapping, inline-vs-paged placement per [DG98]. Measures (de)serialization
// throughput and reports representation sizes as counters.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <system_error>
#include <vector>

#include "gen/region_gen.h"
#include "gen/trajectory_gen.h"
#include "storage/buffer_pool.h"
#include "storage/flat.h"
#include "storage/page_store.h"
#include "storage/recovery.h"
#include "storage/spill.h"

namespace modb {
namespace {

MovingPoint MakeTrack(int units) {
  std::mt19937_64 rng(17);
  TrajectoryOptions opts;
  opts.num_units = units;
  return *RandomWalkPoint(rng, opts);
}

MovingRegion MakeStorm(int units) {
  std::mt19937_64 rng(19);
  MovingRegionOptions opts;
  opts.shape.num_vertices = 16;
  opts.shape.radius = 40;
  opts.num_units = units;
  opts.unit_duration = 2;
  opts.drift = Point(5, 5);
  opts.drift_alternation = Point(2, 1);
  return *GenerateMovingRegion(rng, opts);
}

void BM_Serialize_MovingPoint(benchmark::State& state) {
  MovingPoint mp = MakeTrack(int(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    FlatValue f = ToFlat(mp);
    std::string blob = SerializeFlat(f);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["blob_bytes"] = double(bytes);
  state.counters["bytes_per_unit"] = double(bytes) / double(mp.NumUnits());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Serialize_MovingPoint)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_Deserialize_MovingPoint(benchmark::State& state) {
  MovingPoint mp = MakeTrack(int(state.range(0)));
  std::string blob = SerializeFlat(ToFlat(mp));
  for (auto _ : state) {
    auto back = MovingPointFromFlat(*ParseFlat(blob));
    benchmark::DoNotOptimize(back);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Deserialize_MovingPoint)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_Serialize_MovingRegion(benchmark::State& state) {
  MovingRegion mr = MakeStorm(int(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    FlatValue f = ToFlat(mr);
    std::string blob = SerializeFlat(f);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["blob_bytes"] = double(bytes);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Serialize_MovingRegion)->RangeMultiplier(2)->Range(2, 32)
    ->Complexity(benchmark::oN);

void BM_Deserialize_MovingRegion(benchmark::State& state) {
  MovingRegion mr = MakeStorm(int(state.range(0)));
  std::string blob = SerializeFlat(ToFlat(mr));
  for (auto _ : state) {
    auto back = MovingRegionFromFlat(*ParseFlat(blob));
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_Deserialize_MovingRegion)->RangeMultiplier(2)->Range(2, 32);

// [DG98] placement: tuple stays small, arrays page out past the
// threshold.
void BM_AttributeStore_PutGet(benchmark::State& state) {
  MovingPoint mp = MakeTrack(int(state.range(0)));
  FlatValue f = ToFlat(mp);
  std::size_t tuple_bytes = 0, pages = 0;
  for (auto _ : state) {
    AttributeStore store(256);
    std::string tuple = store.Put(f);
    auto back = store.Get(tuple);
    tuple_bytes = tuple.size();
    pages = store.page_store().NumPages();
    benchmark::DoNotOptimize(back);
  }
  state.counters["tuple_bytes"] = double(tuple_bytes);
  state.counters["pages"] = double(pages);
}
BENCHMARK(BM_AttributeStore_PutGet)->RangeMultiplier(4)->Range(4, 4096);

// -- device scan experiments (EXPERIMENTS.md) ---------------------------------
//
// One MODBPAGE file of spilled blobs, scanned through a BufferPool far
// smaller than the working set, so every scan pays real device reads:
// a pread syscall + copy-in per page. "Warm" means the OS page cache is
// primed — the steady state of a resident server. "Cold" re-opens the
// device and pool per iteration, adding the open + first-read cost.

constexpr int kScanBlobs = 64;
constexpr std::size_t kScanBlobBytes = 3 * kSpillPayloadSize + 1000;

struct ScanFile {
  std::string path;
  std::vector<SpillLocator> locs;
  bool ok = false;
};

// Written once per process; every scan bench opens the same file.
const ScanFile& GetScanFile() {
  static const ScanFile* file = [] {
    auto* f = new ScanFile;
    f->path = (std::filesystem::temp_directory_path() /
               "modb_bench_device_scan.bin")
                  .string();
    std::error_code ec;
    std::filesystem::remove(f->path, ec);  // stale copy from a prior run
    auto dev = FilePageDevice::Create(f->path);
    if (!dev.ok()) return f;
    for (int i = 0; i < kScanBlobs; ++i) {
      std::string blob(kScanBlobBytes, char('a' + i % 26));
      auto loc = SpillBlob(&*dev, blob);
      if (!loc.ok()) return f;
      f->locs.push_back(*loc);
    }
    f->ok = dev->Sync().ok();
    return f;
  }();
  return *file;
}

// Page-granular sequential scan: pin every data page in order through
// the pool (with a readahead hint window) and read every byte. This is
// the device contract itself and the shape a read of spilled values
// (ReadSpilledBlob) puts on the pool.
bool ScanPagesOnce(BufferPool* pool, std::uint32_t num_pages) {
  constexpr std::uint32_t kWindow = 16;
  std::uint64_t sum = 0;
  for (std::uint32_t p = 0; p < num_pages; ++p) {
    if (p % kWindow == 0) {
      pool->Prefetch(p, std::min(kWindow, num_pages - p));
    }
    auto ref = pool->Pin(p);
    if (!ref.ok()) return false;
    const char* d = ref->data();
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < kPageSize; ++i) s += std::uint8_t(d[i]);
    sum += s;
  }
  benchmark::DoNotOptimize(sum);
  return true;
}

void BM_SpilledScanWarm_File(benchmark::State& state) {
  const ScanFile& f = GetScanFile();
  if (!f.ok) {
    state.SkipWithError("scan file setup failed");
    return;
  }
  Result<FilePageDevice> dev = FilePageDevice::Open(f.path);
  if (!dev.ok()) {
    state.SkipWithError("device open failed");
    return;
  }
  const std::uint32_t num_pages = std::uint32_t(dev->NumPages());
  BufferPool pool(&*dev, 8);  // << working set: every scan hits the device
  if (!ScanPagesOnce(&pool, num_pages)) {  // prime the OS cache
    state.SkipWithError("prime scan failed");
    return;
  }
  for (auto _ : state) {
    if (!ScanPagesOnce(&pool, num_pages)) state.SkipWithError("scan failed");
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * num_pages);
  state.SetBytesProcessed(int64_t(state.iterations()) * num_pages *
                          int64_t(kPageSize));
}
BENCHMARK(BM_SpilledScanWarm_File);

void BM_SpilledScanCold_File(benchmark::State& state) {
  const ScanFile& f = GetScanFile();
  if (!f.ok) {
    state.SkipWithError("scan file setup failed");
    return;
  }
  for (auto _ : state) {
    Result<FilePageDevice> dev = FilePageDevice::Open(f.path);
    if (!dev.ok()) {
      state.SkipWithError("device open failed");
      return;
    }
    BufferPool pool(&*dev, 8);
    if (!ScanPagesOnce(&pool, std::uint32_t(dev->NumPages()))) {
      state.SkipWithError("scan failed");
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SpilledScanCold_File);

// Blob-level warm scan: the same pages pulled through ReadSpilledBlob,
// adding per-page header verification (CRC over the payload) and the
// payload reassembly copy on top of the device read. Informational —
// it shows how much of the end-to-end spill read the device itself is.
void BM_SpilledBlobScanWarm_File(benchmark::State& state) {
  const ScanFile& f = GetScanFile();
  if (!f.ok) {
    state.SkipWithError("scan file setup failed");
    return;
  }
  Result<FilePageDevice> dev = FilePageDevice::Open(f.path);
  if (!dev.ok()) {
    state.SkipWithError("device open failed");
    return;
  }
  BufferPool pool(&*dev, 8);
  for (auto _ : state) {
    std::size_t bytes = 0;
    for (const SpillLocator& loc : f.locs) {
      auto blob = ReadSpilledBlob(&pool, loc);
      if (!blob.ok()) state.SkipWithError("blob read failed");
      bytes += blob->size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kScanBlobs);
  state.SetBytesProcessed(int64_t(state.iterations()) * kScanBlobs *
                          int64_t(kScanBlobBytes));
}
BENCHMARK(BM_SpilledBlobScanWarm_File);

// Epoch-pinned snapshot readers against a committed store: each
// operation pins the current epoch, reads one root through the pin,
// and releases — the per-request pattern Db::Run uses. Run at 4 threads
// to expose the lock-free pin-read path; the items/s floor in
// bench_compare --storage warn-skips on hosts with fewer than 4 CPUs.
void BM_EpochPinnedReaders(benchmark::State& state) {
  static VersionedSpillStore* store = [] {
    const std::string path = (std::filesystem::temp_directory_path() /
                              "modb_bench_pin_store.bin")
                                 .string();
    VersionedSpillStore::Options options;
    options.pool_capacity = 64;
    auto created = VersionedSpillStore::Create(path, options);
    if (!created.ok()) return static_cast<VersionedSpillStore*>(nullptr);
    auto* s = new VersionedSpillStore(std::move(*created));
    for (int i = 0; i < 8; ++i) {
      if (!s->StageBlob(std::string(5000, char('a' + i)),
                        SpillValueType::kOpaque)
               .ok()) {
        return static_cast<VersionedSpillStore*>(nullptr);
      }
    }
    if (!s->Commit().ok()) return static_cast<VersionedSpillStore*>(nullptr);
    return s;
  }();
  if (store == nullptr) {
    state.SkipWithError("store setup failed");
    return;
  }
  std::size_t i = std::size_t(state.thread_index());
  for (auto _ : state) {
    VersionedSpillStore::EpochPin pin = store->PinEpoch();
    auto blob = store->ReadRootBlob(pin, i++ % pin.NumRoots());
    if (!blob.ok()) state.SkipWithError("pinned read failed");
    benchmark::DoNotOptimize(blob->data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_EpochPinnedReaders)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace modb

