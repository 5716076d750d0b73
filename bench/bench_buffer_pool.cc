// Buffer-pool experiments (EXPERIMENTS.md P3): raw pool pin throughput at
// several capacity/working-set ratios, which is where the LRU hit rate
// shows up, and the in-memory AtInstantBatch sweep the P3 spilled
// regimes were measured against.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "gen/trajectory_gen.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "temporal/batch_ops.h"

namespace modb {
namespace {

MovingPoint Trajectory(int units, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TrajectoryOptions opts;
  opts.num_units = units;
  return *RandomWalkPoint(rng, opts);
}

std::vector<Instant> SortedInstants(int k, int units, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(0.0, double(units));
  std::vector<Instant> out(std::size_t(k), 0.0);
  for (Instant& t : out) t = d(rng);
  std::sort(out.begin(), out.end());
  return out;
}

// Raw pin throughput: a zipf-ish skewed page access stream against pools
// whose capacity is range(1) percent of the working set. The hit/miss/
// eviction counters land in METRICS_buffer_pool.json.
void BM_BufferPool_PinThroughput(benchmark::State& state) {
  const int pages = int(state.range(0));
  const std::size_t capacity =
      std::size_t(std::max<int64_t>(1, pages * state.range(1) / 100));
  PageStore store;
  (void)*store.AllocatePages(uint32_t(pages));
  BufferPool pool(&store, capacity);

  // Skewed stream: 80% of accesses hit the first 20% of pages.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<uint32_t> stream(4096);
  for (uint32_t& p : stream) {
    if (coin(rng) < 0.8) {
      p = uint32_t(coin(rng) * pages * 0.2);
    } else {
      p = uint32_t(coin(rng) * pages);
    }
    if (p >= uint32_t(pages)) p = uint32_t(pages) - 1;
  }

  std::size_t i = 0;
  for (auto _ : state) {
    auto ref = pool.Pin(stream[i++ & 4095]);
    if (!ref.ok()) state.SkipWithError("pin failed");
    benchmark::DoNotOptimize(ref->data()[0]);
  }
  BufferPoolStats stats = pool.stats();
  state.counters["hit_rate"] = benchmark::Counter(
      double(stats.hits) / double(std::max<std::uint64_t>(
                               1, stats.hits + stats.misses)));
  state.counters["evictions"] = benchmark::Counter(double(stats.evictions));
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BufferPool_PinThroughput)
    ->ArgsProduct({{4096}, {5, 25, 100}})
    ->ArgNames({"pages", "cap_pct"});

// The in-memory atinstant sweep over one long trajectory.
void BM_AtInstantBatch_InMemory(benchmark::State& state) {
  const int units = int(state.range(0));
  const int k = int(state.range(1));
  MovingPoint mp = Trajectory(units, 7);
  std::vector<Instant> instants = SortedInstants(k, units, 13);
  std::vector<Intime<Point>> out;
  for (auto _ : state) {
    if (!AtInstantBatchInto(mp, instants, &out).ok()) {
      state.SkipWithError("batch failed");
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * k);
}
BENCHMARK(BM_AtInstantBatch_InMemory)
    ->ArgsProduct({{10000}, {1000}})
    ->ArgNames({"units", "k"});

}  // namespace
}  // namespace modb
