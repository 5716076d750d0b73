#include "storage/crash_campaign.h"

#include <optional>
#include <utility>

#include "core/range_set.h"
#include "storage/fault.h"
#include "storage/recovery.h"
#include "temporal/const_unit.h"
#include "temporal/moving.h"

namespace modb {

namespace {

RetryPolicy FastRetry() {
  RetryPolicy p;
  p.base_delay_micros = 0;  // hundreds of runs; no real sleeping
  return p;
}

VersionedSpillStore::Options StoreOptions() {
  VersionedSpillStore::Options o;
  // Small pool: staging must evict through the device, so writeback
  // paths sit inside the enumerated fault window too.
  o.pool_capacity = 8;
  o.retry = FastRetry();
  return o;
}

std::string OpaqueBlob(std::size_t n, unsigned seed) {
  std::string b(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = char((seed + i * 131u) & 0xffu);
  }
  return b;
}

Result<std::string> MovingIntBlob(int gen) {
  std::vector<UInt> units;
  for (int i = 0; i < 4 + gen; ++i) {
    Result<TimeInterval> iv =
        TimeInterval::Make(i * 2.0, i * 2.0 + 1.0, true, false);
    if (!iv.ok()) return iv.status();
    Result<UInt> u = UInt::Make(*iv, 100 * gen + i);
    if (!u.ok()) return u.status();
    units.push_back(*u);
  }
  Result<MovingInt> m = MovingInt::Make(std::move(units));
  if (!m.ok()) return m.status();
  Result<FlatValue> flat = spill_internal::EncodeToFlat(*m);
  if (!flat.ok()) return flat.status();
  return SerializeFlat(*flat);
}

Result<std::string> PeriodsBlob() {
  Result<TimeInterval> a = TimeInterval::Make(0.0, 1.0, true, true);
  if (!a.ok()) return a.status();
  Result<TimeInterval> b = TimeInterval::Make(3.0, 5.0, true, false);
  if (!b.ok()) return b.status();
  Periods p = Periods::FromIntervals({*a, *b});
  Result<FlatValue> flat = spill_internal::EncodeToFlat(p);
  if (!flat.ok()) return flat.status();
  return SerializeFlat(*flat);
}

/// One committed epoch's full expected state: type tag + exact bytes
/// per root. Derived from the script alone (the workload is
/// deterministic), never from reading a store back.
struct EpochState {
  std::uint64_t epoch = 0;
  std::vector<std::pair<SpillValueType, std::string>> roots;
};

/// The scripted workload's inputs and the state after each commit.
struct Script {
  std::string a, b, c, d, e;  // opaque blobs (multi-page and sub-page)
  std::string mi0, mi1, per;
  std::vector<EpochState> expected;  // index == epoch 0..4
};

Result<Script> BuildScript() {
  Script s;
  s.a = OpaqueBlob(9000, 1);   // 3 pages
  s.b = OpaqueBlob(15000, 2);  // 4 pages — forces growth over A's run
  s.c = OpaqueBlob(100, 3);
  s.d = OpaqueBlob(500, 4);  // 1 page — reuses freed shadow pages
  Result<std::string> mi0 = MovingIntBlob(0);
  if (!mi0.ok()) return mi0.status();
  s.mi0 = *mi0;
  Result<std::string> mi1 = MovingIntBlob(1);
  if (!mi1.ok()) return mi1.status();
  s.mi1 = *mi1;
  Result<std::string> per = PeriodsBlob();
  if (!per.ok()) return per.status();
  s.per = *per;
  s.e = OpaqueBlob(6000, 5);  // 2 pages — epoch 4 of the pinned workload

  using VT = SpillValueType;
  s.expected.resize(5);
  for (std::size_t e = 0; e < 5; ++e) s.expected[e].epoch = e;
  s.expected[1].roots = {{VT::kOpaque, s.a},
                         {VT::kMovingInt, s.mi0},
                         {VT::kPeriods, s.per}};
  s.expected[2].roots = {{VT::kOpaque, s.b},
                         {VT::kMovingInt, s.mi0},
                         {VT::kPeriods, s.per},
                         {VT::kOpaque, s.c}};
  s.expected[3].roots = {{VT::kOpaque, s.d},
                         {VT::kMovingInt, s.mi1},
                         {VT::kPeriods, s.per},
                         {VT::kOpaque, s.c}};
  // Epoch 4 exists only in the pinned-reader workload: one more value
  // on top of epoch 3, so its commit must allocate around the pages a
  // live pin still protects.
  s.expected[4].roots = s.expected[3].roots;
  s.expected[4].roots.push_back({VT::kOpaque, s.e});
  return s;
}

/// What one (possibly crashed) workload run observed.
struct RunOutcome {
  bool fired = false;
  bool completed = false;
  const char* site = nullptr;
  /// Index into Script::expected of the last cleanly committed epoch
  /// (-1: the fault hit before even the Create commit completed).
  int last_ok = -1;
  /// Epoch index being staged/committed when the fault fired.
  int attempted = -1;
};

// Runs one step; if the armed plan fired during it the run "crashed":
// record where, throw the unflushed cache away, and end the run as a
// success (the crash is the point). A non-OK status without a fired
// plan is a genuine bug and fails the campaign.
#define MODB_CAMPAIGN_STEP(expr, epoch_idx)                               \
  do {                                                                    \
    Status _step = (expr);                                                \
    if (FaultInjector::Global().FiredCount() > 0) {                       \
      out->fired = true;                                                  \
      out->site = FaultInjector::Global().last_fired_site();              \
      out->attempted = (epoch_idx);                                       \
      if (store) store->Abandon().ok();                                   \
      return Status::OK();                                                \
    }                                                                     \
    if (!_step.ok()) {                                                    \
      if (store) store->Abandon().ok();                                   \
      return Status::Internal("workload failed without an armed fault: " + \
                              _step.ToString());                          \
    }                                                                     \
  } while (0)

Status RunWorkload(const std::string& path,
                   const VersionedSpillStore::Options& sopts,
                   const Script& script, RunOutcome* out) {
  using VT = SpillValueType;
  std::optional<VersionedSpillStore> store;

  {
    Result<VersionedSpillStore> created =
        VersionedSpillStore::Create(path, sopts);
    if (created.ok()) store.emplace(std::move(*created));
    MODB_CAMPAIGN_STEP(created.ok() ? Status::OK() : created.status(), 0);
  }
  out->last_ok = 0;  // Create() durably committed the empty epoch 0

  // epoch 1: three fresh values.
  MODB_CAMPAIGN_STEP(store->StageBlob(script.a, VT::kOpaque).status(), 1);
  MODB_CAMPAIGN_STEP(store->StageBlob(script.mi0, VT::kMovingInt).status(), 1);
  MODB_CAMPAIGN_STEP(store->StageBlob(script.per, VT::kPeriods).status(), 1);
  MODB_CAMPAIGN_STEP(store->Commit(), 1);
  out->last_ok = 1;

  // epoch 2: replace root 0 with a larger version, add one more value.
  MODB_CAMPAIGN_STEP(store->RestageBlob(0, script.b, VT::kOpaque), 2);
  MODB_CAMPAIGN_STEP(store->StageBlob(script.c, VT::kOpaque).status(), 2);
  MODB_CAMPAIGN_STEP(store->Commit(), 2);
  out->last_ok = 2;

  // epoch 3: shrink root 0 (reuses freed shadow pages) and swap root 1.
  MODB_CAMPAIGN_STEP(store->RestageBlob(1, script.mi1, VT::kMovingInt), 3);
  MODB_CAMPAIGN_STEP(store->RestageBlob(0, script.d, VT::kOpaque), 3);
  MODB_CAMPAIGN_STEP(store->Commit(), 3);
  out->last_ok = 3;

  out->completed = true;
  return Status::OK();
}

/// Byte-compares everything visible through `pin` against `expect`.
Status VerifyPinView(VersionedSpillStore* store,
                     const VersionedSpillStore::EpochPin& pin,
                     const EpochState& expect) {
  if (pin.epoch() != expect.epoch || pin.NumRoots() != expect.roots.size()) {
    return Status::Internal("pinned view shape changed under the reader");
  }
  for (std::size_t i = 0; i < expect.roots.size(); ++i) {
    if (pin.roots()[i].type != expect.roots[i].first) {
      return Status::Internal("pinned root " + std::to_string(i) +
                              " changed its type tag under the reader");
    }
    Result<std::string> blob = store->ReadRootBlob(pin, i);
    if (!blob.ok()) return blob.status();
    if (*blob != expect.roots[i].second) {
      return Status::Internal(
          "pinned root " + std::to_string(i) +
          " is no longer byte-identical to its pinned epoch");
    }
  }
  return Status::OK();
}

/// The concurrent-reader schedule: pin epoch 2, then keep proving the
/// pinned view untouched while epochs 3 and 4 stage, commit, or crash
/// over it. `views` counts pinned-view checks that completed cleanly.
Status RunPinnedWorkload(const std::string& path,
                         const VersionedSpillStore::Options& sopts,
                         const Script& script, RunOutcome* out,
                         std::uint64_t* views) {
  using VT = SpillValueType;
  std::optional<VersionedSpillStore> store;

  {
    Result<VersionedSpillStore> created =
        VersionedSpillStore::Create(path, sopts);
    if (created.ok()) store.emplace(std::move(*created));
    MODB_CAMPAIGN_STEP(created.ok() ? Status::OK() : created.status(), 0);
  }
  out->last_ok = 0;

  MODB_CAMPAIGN_STEP(store->StageBlob(script.a, VT::kOpaque).status(), 1);
  MODB_CAMPAIGN_STEP(store->StageBlob(script.mi0, VT::kMovingInt).status(), 1);
  MODB_CAMPAIGN_STEP(store->StageBlob(script.per, VT::kPeriods).status(), 1);
  MODB_CAMPAIGN_STEP(store->Commit(), 1);
  out->last_ok = 1;

  MODB_CAMPAIGN_STEP(store->RestageBlob(0, script.b, VT::kOpaque), 2);
  MODB_CAMPAIGN_STEP(store->StageBlob(script.c, VT::kOpaque).status(), 2);
  MODB_CAMPAIGN_STEP(store->Commit(), 2);
  out->last_ok = 2;

  // The reader arrives: pin epoch 2 and take its fingerprint.
  VersionedSpillStore::EpochPin pin = store->PinEpoch();
  MODB_CAMPAIGN_STEP(VerifyPinView(&*store, pin, script.expected[2]), 3);
  ++*views;

  // Epoch 3 stages shadow pages; staging must not disturb the pin.
  MODB_CAMPAIGN_STEP(store->RestageBlob(1, script.mi1, VT::kMovingInt), 3);
  MODB_CAMPAIGN_STEP(store->RestageBlob(0, script.d, VT::kOpaque), 3);
  MODB_CAMPAIGN_STEP(VerifyPinView(&*store, pin, script.expected[2]), 3);
  ++*views;
  // Commit retires the pages epoch 3 replaced — but the pin holds them.
  MODB_CAMPAIGN_STEP(store->Commit(), 3);
  out->last_ok = 3;
  MODB_CAMPAIGN_STEP(VerifyPinView(&*store, pin, script.expected[2]), 3);
  ++*views;

  // Epoch 4 allocates fresh runs; retired pages must not be handed out.
  MODB_CAMPAIGN_STEP(store->StageBlob(script.e, VT::kOpaque).status(), 4);
  MODB_CAMPAIGN_STEP(store->Commit(), 4);
  out->last_ok = 4;
  MODB_CAMPAIGN_STEP(VerifyPinView(&*store, pin, script.expected[2]), 4);
  ++*views;

  // Reader leaves: the parked pages drain and the books must balance.
  pin.Release();
  if (store->NumRetiredPages() != 0) {
    store->Abandon().ok();
    return Status::Internal(
        "retired pages survived the last pin draining");
  }
  MODB_CAMPAIGN_STEP(store->VerifyAccounting(), 4);

  out->completed = true;
  return Status::OK();
}

#undef MODB_CAMPAIGN_STEP

Status VerifyState(VersionedSpillStore* store, const EpochState& expect) {
  if (store->NumRoots() != expect.roots.size()) {
    return Status::Internal("recovered root count " +
                            std::to_string(store->NumRoots()) +
                            " != committed " +
                            std::to_string(expect.roots.size()));
  }
  for (std::size_t i = 0; i < expect.roots.size(); ++i) {
    if (store->roots()[i].type != expect.roots[i].first) {
      return Status::Internal("recovered root " + std::to_string(i) +
                              " has the wrong type tag");
    }
    Result<std::string> blob = store->ReadRootBlob(i);
    if (!blob.ok()) {
      return Status::Internal("recovered root " + std::to_string(i) +
                              " unreadable: " + blob.status().ToString());
    }
    if (*blob != expect.roots[i].second) {
      return Status::Internal(
          "recovered root " + std::to_string(i) +
          " is not byte-identical to any committed version");
    }
  }
  return store->VerifyAccounting();
}

Status VerifyAfterRun(const std::string& path,
                      const VersionedSpillStore::Options& sopts,
                      const Script& script, const RunOutcome& run,
                      CrashCampaignReport* report) {
  FaultInjector::Global().Disarm();
  const std::string where =
      run.site != nullptr ? std::string(run.site) : std::string("(none)");
  Result<VersionedSpillStore> reopened =
      VersionedSpillStore::Open(path, sopts);
  if (!reopened.ok()) {
    if (run.last_ok < 0) {
      // The crash predates the first commit point; "the store never
      // existed" is a legal outcome as long as it is a clean Status.
      ++report->preinit_reopen_failures;
      return Status::OK();
    }
    return Status::Internal("recovery failed after crash at " + where + ": " +
                            reopened.status().ToString());
  }
  VersionedSpillStore& store = *reopened;

  const EpochState* match = nullptr;
  for (int idx : {run.attempted, run.last_ok}) {
    if (idx >= 0 && idx < int(script.expected.size()) &&
        script.expected[idx].epoch == store.epoch()) {
      match = &script.expected[idx];
      break;
    }
  }
  if (match == nullptr) {
    return Status::Internal(
        "crash at " + where + ": recovered epoch " +
        std::to_string(store.epoch()) +
        " is neither the last committed nor the in-flight state");
  }
  Status state = VerifyState(&store, *match);
  if (!state.ok()) {
    return Status::Internal("crash at " + where + ": " + state.ToString());
  }

  report->orphans_reclaimed += store.recovery_info().orphans_reclaimed;
  report->pages_healed += store.recovery_info().pages_healed;

  // Liveness: a recovered store (healed pages included) must still
  // accept and durably commit new work with clean accounting.
  Result<std::size_t> idx = store.StageBlob(OpaqueBlob(64, 7),
                                            SpillValueType::kOpaque);
  if (!idx.ok()) {
    return Status::Internal("post-recovery stage failed after crash at " +
                            where + ": " + idx.status().ToString());
  }
  Status commit = store.Commit();
  if (!commit.ok()) {
    return Status::Internal("post-recovery commit failed after crash at " +
                            where + ": " + commit.ToString());
  }
  MODB_RETURN_IF_ERROR(store.VerifyAccounting());

  ++report->recoveries_verified;
  return Status::OK();
}

}  // namespace

Result<CrashCampaignReport> RunCrashCampaign(
    const CrashCampaignOptions& options) {
  if (!kFaultsEnabled) {
    return Status::Unimplemented(
        "crash campaign needs fault injection (build with MODB_FAULTS=ON)");
  }
  FaultInjector& inj = FaultInjector::Global();
  CrashCampaignReport report;
  report.tear_modes = options.tear_keep_bytes.size();
  const VersionedSpillStore::Options sopts = StoreOptions();

  Result<Script> script = BuildScript();
  if (!script.ok()) return script.status();

  // Clean pass: establish the deterministic I/O site counts.
  inj.Disarm();
  {
    RunOutcome clean;
    RunOutcome* out = &clean;
    MODB_RETURN_IF_ERROR(RunWorkload(options.path, sopts, *script, out));
    if (!clean.completed) {
      return Status::Internal("clean workload run did not complete");
    }
  }
  report.write_sites = inj.OpCount(FaultOp::kWrite);
  report.read_sites = inj.OpCount(FaultOp::kRead);

  inj.Disarm();
  {
    Result<VersionedSpillStore> opened =
        VersionedSpillStore::Open(options.path, sopts);
    if (!opened.ok()) return opened.status();
    MODB_RETURN_IF_ERROR(VerifyState(&*opened, script->expected[3]));
  }
  report.open_read_sites = inj.OpCount(FaultOp::kRead);

  auto run_with_arm = [&](auto&& arm) -> Status {
    inj.Disarm();
    arm();
    inj.HaltAfterFire();
    RunOutcome run;
    Status s = RunWorkload(options.path, sopts, *script, &run);
    if (!s.ok()) return s;
    ++report.runs;
    if (run.fired) ++report.crashes;
    return VerifyAfterRun(options.path, sopts, *script, run, &report);
  };

  // Every write site × {hard failure, each torn-write mode}.
  for (std::uint64_t w = 0; w < report.write_sites; ++w) {
    MODB_RETURN_IF_ERROR(
        run_with_arm([&] { inj.FailNth(FaultOp::kWrite, w); }));
    for (std::size_t keep : options.tear_keep_bytes) {
      MODB_RETURN_IF_ERROR(run_with_arm([&] { inj.TearNth(w, keep); }));
    }
  }
  // Every read site × hard failure.
  for (std::uint64_t r = 0; r < report.read_sites; ++r) {
    MODB_RETURN_IF_ERROR(
        run_with_arm([&] { inj.FailNth(FaultOp::kRead, r); }));
  }

  // Concurrent-reader schedules: the pinned workload, crashed at every
  // write site (hard failure; the torn modes above already exercised
  // the byte-level write paths).
  inj.Disarm();
  {
    RunOutcome clean;
    std::uint64_t views = 0;
    MODB_RETURN_IF_ERROR(
        RunPinnedWorkload(options.path, sopts, *script, &clean, &views));
    if (!clean.completed) {
      return Status::Internal("clean pinned-reader run did not complete");
    }
    report.pinned_views_verified += views;
  }
  report.pinned_write_sites = inj.OpCount(FaultOp::kWrite);
  for (std::uint64_t w = 0; w < report.pinned_write_sites; ++w) {
    inj.Disarm();
    inj.FailNth(FaultOp::kWrite, w);
    inj.HaltAfterFire();
    RunOutcome run;
    std::uint64_t views = 0;
    Status s = RunPinnedWorkload(options.path, sopts, *script, &run, &views);
    if (!s.ok()) return s;
    ++report.runs;
    ++report.pinned_reader_runs;
    report.pinned_views_verified += views;
    if (run.fired) ++report.crashes;
    MODB_RETURN_IF_ERROR(
        VerifyAfterRun(options.path, sopts, *script, run, &report));
  }

  // Transient-read sweep: a single flaky (non-crash) read at every site
  // of a recovery Open must be absorbed by the retry policy.
  inj.Disarm();
  {
    RunOutcome rebuild;
    MODB_RETURN_IF_ERROR(RunWorkload(options.path, sopts, *script, &rebuild));
    if (!rebuild.completed) {
      return Status::Internal("rebuild workload run did not complete");
    }
  }
  for (std::uint64_t r = 0; r < report.open_read_sites; ++r) {
    inj.Disarm();
    inj.FailNth(FaultOp::kRead, r);
    Result<VersionedSpillStore> opened =
        VersionedSpillStore::Open(options.path, sopts);
    ++report.runs;
    if (!opened.ok()) {
      return Status::Internal(
          "recovery open did not absorb a transient read fault at read op " +
          std::to_string(r) + ": " + opened.status().ToString());
    }
    MODB_RETURN_IF_ERROR(VerifyState(&*opened, script->expected[3]));
    ++report.retried_opens;
  }
  inj.Disarm();
  return report;
}

}  // namespace modb
