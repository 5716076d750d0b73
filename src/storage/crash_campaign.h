// The crash-point enumeration campaign: proof-by-exhaustion that the
// versioned spill store (storage/recovery.h) is crash-consistent.
//
// A scripted workload (create → spill three values → commit → mutate →
// commit → mutate again → commit) is first run clean to count its
// device I/O sites. The campaign then re-runs it once per crash point:
// for every write operation a hard failure and one torn write per
// configured keep-length, and for every read operation a hard failure —
// each with crash semantics (FaultInjector::HaltAfterFire: after the
// fault, all further I/O fails, modeling the process dying mid-I/O).
// The in-memory cache is discarded (never flushed), the file is
// reopened, and recovery must land on a committed state that is
// byte-identical to the pre-crash or in-flight epoch, pass validation,
// account for every device page (zero leaks), and still accept a fresh
// commit. A final sweep arms a transient read failure at every read
// site of a clean Open and requires recovery to succeed via the retry
// policy.
//
// A second, concurrent-reader enumeration runs a workload that pins an
// epoch mid-stream and keeps re-verifying the pinned view — byte for
// byte — while later epochs are staged, committed, and crashed at
// every write site: deferred reclamation must keep every page the pin
// references untouched, and once the pin drains the accounting must
// show zero retired pages and zero leaks.
//
// Exposed as a library so both the storage tests and tools/crashloop
// (the CI entry point, wired into tools/verify.sh) run the same
// enumeration.

#ifndef MODB_STORAGE_CRASH_CAMPAIGN_H_
#define MODB_STORAGE_CRASH_CAMPAIGN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "storage/recovery.h"

namespace modb {

struct CrashCampaignOptions {
  /// Device file the workload runs against (recreated for every run).
  std::string path = "crash_campaign.modb";
  /// Torn-write prefix lengths to inject at every write site. 0 tears
  /// everything away, a mid-header cut and a mid-page cut catch
  /// different parser paths.
  std::vector<std::size_t> tear_keep_bytes = {0, 16, 2048};
};

struct CrashCampaignReport {
  /// Device write / read operations in one clean workload.
  std::uint64_t write_sites = 0;
  std::uint64_t read_sites = 0;
  /// Device reads in one clean Open of the final store.
  std::uint64_t open_read_sites = 0;
  std::uint64_t tear_modes = 0;
  /// Injected runs executed / runs where the armed plan actually fired.
  std::uint64_t runs = 0;
  std::uint64_t crashes = 0;
  /// Post-crash recoveries that reopened, byte-matched a committed
  /// epoch, validated, leaked zero pages, and committed again.
  std::uint64_t recoveries_verified = 0;
  /// Crashes so early the store never committed anything; reopen is
  /// allowed to fail with a clean Status then.
  std::uint64_t preinit_reopen_failures = 0;
  /// Opens that hit an injected transient read fault and succeeded
  /// through the retry policy.
  std::uint64_t retried_opens = 0;
  /// Totals across all verified recoveries.
  std::uint64_t orphans_reclaimed = 0;
  std::uint64_t pages_healed = 0;
  /// Concurrent-reader schedule: device writes in one clean run of the
  /// pinned-reader workload, injected runs of it, and pinned-view
  /// byte-identity checks that passed across all of them.
  std::uint64_t pinned_write_sites = 0;
  std::uint64_t pinned_reader_runs = 0;
  std::uint64_t pinned_views_verified = 0;
};

/// Runs the full enumeration. Returns the report, or the first
/// violation found (a crash point recovery could not undo, a byte
/// mismatch, a leaked page, ...). Unimplemented when the build has
/// fault injection compiled out (MODB_FAULTS=OFF).
Result<CrashCampaignReport> RunCrashCampaign(
    const CrashCampaignOptions& options);

}  // namespace modb

#endif  // MODB_STORAGE_CRASH_CAMPAIGN_H_
