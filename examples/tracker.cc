// Building sliced representations from sampled observations — the
// ingestion path of a moving objects database: GPS fixes arrive as
// (instant, position) pairs; consecutive fixes become upoint units; the
// MappingBuilder keeps the representation minimal by merging units whose
// motion does not change (the uniqueness/minimality constraints of
// Section 3.2.4).
//
// Also demonstrates the storage layer: each track becomes one tuple whose
// large unit array lives in page extents ([DG98] behavior), and the
// simplified fleet is committed to a crash-consistent VersionedSpillStore
// and read back through a pinned epoch.
//
// Build & run:  ./build/examples/tracker

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <system_error>
#include <vector>

#include "ext/simplify.h"
#include "storage/flat.h"
#include "storage/recovery.h"
#include "temporal/lifted_ops.h"
#include "temporal/moving.h"

using namespace modb;

namespace {

struct Fix {
  Instant t;
  Point pos;
};

// A vehicle driving a Manhattan-style grid: long straight stretches mean
// many samples share one motion — the builder merges them.
std::vector<Fix> SimulateGpsTrack(std::mt19937_64& rng, int num_fixes) {
  std::vector<Fix> fixes;
  Point pos(0, 0);
  Point dir(1, 0);
  std::uniform_int_distribution<int> turn(0, 9);
  std::normal_distribution<double> gps_noise(0, 1.5);  // Receiver jitter.
  for (int i = 0; i < num_fixes; ++i) {
    fixes.push_back(
        {double(i), Point(pos.x + gps_noise(rng), pos.y + gps_noise(rng))});
    if (turn(rng) == 0) {
      dir = (dir.x != 0) ? Point(0, turn(rng) % 2 ? 1 : -1)
                         : Point(turn(rng) % 2 ? 1 : -1, 0);
    }
    pos = pos + dir * 10.0;
  }
  return fixes;
}

Result<MovingPoint> IngestTrack(const std::vector<Fix>& fixes) {
  MappingBuilder<UPoint> builder;
  for (std::size_t i = 0; i + 1 < fixes.size(); ++i) {
    bool last = (i + 2 == fixes.size());
    auto iv = TimeInterval::Make(fixes[i].t, fixes[i + 1].t, true, last);
    if (!iv.ok()) return iv.status();
    auto unit = UPoint::FromEndpoints(*iv, fixes[i].pos, fixes[i + 1].pos);
    if (!unit.ok()) return unit.status();
    MODB_RETURN_IF_ERROR(builder.Append(*unit));
  }
  return builder.Build();
}

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: tracker\n");
    return 2;
  }
  std::mt19937_64 rng(7);
  AttributeStore store;
  std::vector<MovingPoint> fleet;

  std::size_t total_fixes = 0, total_units = 0, total_tuple_bytes = 0;
  for (int vehicle = 0; vehicle < 5; ++vehicle) {
    std::vector<Fix> fixes = SimulateGpsTrack(rng, 2000);
    MovingPoint track = *IngestTrack(fixes);
    total_fixes += fixes.size();
    total_units += track.NumUnits();

    // Lossy second stage: simplify with a 5 m synchronous error bound.
    MovingPoint simplified = *SimplifyTrajectory(track, 5.0);

    std::string tuple = store.Put(ToFlat(simplified));
    total_tuple_bytes += tuple.size();

    // A few queries on the ingested track.
    Line path = Trajectory(track);
    MovingReal dist = *LiftedDistance(track, fixes.front().pos);
    std::printf(
        "vehicle %d: %4zu fixes -> %3zu units -> %3zu units @5m "
        "(%.0fx total), path %6.0f m, ends %4.0f m from start\n",
        vehicle, fixes.size(), track.NumUnits(), simplified.NumUnits(),
        double(fixes.size()) / double(simplified.NumUnits()), path.Length(),
        dist.Final().val());
    fleet.push_back(std::move(simplified));
  }

  std::printf(
      "\ningest summary: %zu fixes -> %zu units; tuples %zu bytes, "
      "page store %zu pages (%zu KiB)\n",
      total_fixes, total_units, total_tuple_bytes,
      store.page_store().NumPages(), store.page_store().BytesAllocated() / 1024);

  // Durability: commit the simplified fleet to a versioned store, then
  // reopen it and read every track back through a pinned epoch — the
  // read path concurrent queries would use while the next day's ingest
  // commits.
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "modb_tracker.store").string();
  std::error_code ec;
  std::filesystem::remove(store_path, ec);
  Result<VersionedSpillStore> created = VersionedSpillStore::Create(store_path);
  if (!created.ok()) {
    std::fprintf(stderr, "tracker: creating store: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  for (const MovingPoint& track : fleet) {
    if (Result<std::size_t> slot = created->StageValue(track); !slot.ok()) {
      std::fprintf(stderr, "tracker: staging track: %s\n",
                   slot.status().ToString().c_str());
      return 1;
    }
  }
  if (Status s = created->Commit(); !s.ok()) {
    std::fprintf(stderr, "tracker: commit: %s\n", s.ToString().c_str());
    return 1;
  }

  Result<VersionedSpillStore> reopened = VersionedSpillStore::Open(store_path);
  if (!reopened.ok()) {
    std::fprintf(stderr, "tracker: reopening store: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  VersionedSpillStore::EpochPin pin = reopened->PinEpoch();
  std::size_t loaded_units = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    Result<MovingPoint> back = reopened->LoadRoot<MovingPoint>(pin, i);
    if (!back.ok() || back->NumUnits() != fleet[i].NumUnits()) {
      std::fprintf(stderr, "tracker: track %zu did not survive the store\n",
                   i);
      return 1;
    }
    loaded_units += back->NumUnits();
  }
  std::printf(
      "durable fleet: %zu tracks (%zu units) committed at epoch %llu and "
      "reloaded through a pinned epoch\n",
      fleet.size(), loaded_units, (unsigned long long)reopened->epoch());
  std::filesystem::remove(store_path, ec);
  return 0;
}
