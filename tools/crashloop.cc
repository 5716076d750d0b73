// crashloop: the CI entry point for the crash-point enumeration
// campaign (storage/crash_campaign.h). Runs the full write/read ×
// {fail, tear} sweep against a scratch store and prints a one-line
// JSON summary on success — wired into tools/verify.sh and validated
// there with tools/json_check. Any crash point recovery cannot undo
// (byte mismatch, leaked page, failed validation, dead store) exits
// nonzero with the violating site in the error.
//
// Usage: crashloop [PATH]
//   PATH: scratch device file, default under /tmp

#include <cstdio>
#include <string>

#include "storage/crash_campaign.h"
#include "storage/fault.h"

int main(int argc, char** argv) {
  modb::CrashCampaignOptions options;
  options.path = "/tmp/modb_crashloop.bin";
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: crashloop [PATH]\n");
    return 2;
  }
  if (argc == 2) options.path = argv[1];

  modb::Result<modb::CrashCampaignReport> report =
      modb::RunCrashCampaign(options);
  modb::FaultInjector::Global().Disarm();
  if (!report.ok()) {
    if (report.status().code() == modb::StatusCode::kUnimplemented) {
      // MODB_FAULTS=OFF builds cannot enumerate crash points; report a
      // skip (valid JSON, distinct exit code) so CI wiring can tell
      // "not applicable" from "failed".
      std::printf("{\"crashloop\": \"skipped\", \"reason\": \"%s\"}\n",
                  "fault injection compiled out");
      return 0;
    }
    std::fprintf(stderr, "crashloop: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const modb::CrashCampaignReport& r = *report;
  std::printf(
      "{\"crashloop\": \"ok\", "
      "\"write_sites\": %llu, \"read_sites\": %llu, "
      "\"open_read_sites\": %llu, \"tear_modes\": %llu, \"runs\": %llu, "
      "\"crashes\": %llu, \"recoveries_verified\": %llu, "
      "\"preinit_reopen_failures\": %llu, \"retried_opens\": %llu, "
      "\"orphans_reclaimed\": %llu, \"pages_healed\": %llu, "
      "\"pinned_write_sites\": %llu, \"pinned_reader_runs\": %llu, "
      "\"pinned_views_verified\": %llu}\n",
      (unsigned long long)r.write_sites, (unsigned long long)r.read_sites,
      (unsigned long long)r.open_read_sites, (unsigned long long)r.tear_modes,
      (unsigned long long)r.runs, (unsigned long long)r.crashes,
      (unsigned long long)r.recoveries_verified,
      (unsigned long long)r.preinit_reopen_failures,
      (unsigned long long)r.retried_opens,
      (unsigned long long)r.orphans_reclaimed,
      (unsigned long long)r.pages_healed,
      (unsigned long long)r.pinned_write_sites,
      (unsigned long long)r.pinned_reader_runs,
      (unsigned long long)r.pinned_views_verified);
  return 0;
}
