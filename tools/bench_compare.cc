// bench_compare: perf gates over google-benchmark JSON export files.
//
// Modes:
//   bench_compare BASELINE.json CURRENT.json [--threshold=0.15]
//       Regression gate. Benchmarks are matched by name (aggregate rows
//       like *_mean are ignored); a benchmark whose cpu_time grew by
//       more than the threshold relative to the baseline fails the run.
//       Benchmarks present in only one file are reported but never fail
//       — the suite is allowed to grow.
//   bench_compare --scaling FILE.json [--min-speedup=2.0]
//       Thread-scaling gate over a bench_scaling export: the pipelined
//       Select+Join plan must be at least min-speedup faster (real
//       time) at 4 threads than at 1. Hosts with fewer than 4 CPUs
//       cannot honestly run this check, so it warns and passes there.
//   bench_compare --serving FILE.json [--max-p99-ms=5000] [--min-qps=25]
//       Serving gate over a loadgen BENCH_serving.json export: the run
//       must have completed requests and zero hard errors (typed
//       admission rejections are NOT errors), and every */p99 latency
//       row must stay under max-p99-ms. The qps floor is a throughput
//       gate, so — like --scaling — it warns and passes on hosts with
//       fewer than 4 CPUs, where throughput numbers are not honest.
//   bench_compare --ingest FILE.json [--max-p99-ms=5000]
//       [--min-fix-rate=1000]
//       Ingest gate over a loadgen --ingest BENCH_ingest.json export:
//       fixes must have been accepted with zero hard errors, every
//       */p99 row (ingest batches AND concurrent live queries) must
//       stay under max-p99-ms, and the sustained fix rate must clear
//       the floor — which, like the qps floor, warns and passes on
//       hosts with fewer than 4 CPUs.
//   bench_compare --storage FILE.json [--min-reader-items=50000]
//       Storage gate over a bench_storage export: the epoch-pinned
//       concurrent-reader items/s must clear the floor, which warns and
//       passes on hosts with fewer than 4 CPUs. The spilled-scan rows
//       are printed for the record.
//   --require-release (composable with every mode, or alone with one
//       file) rejects a run whose JSON context was not produced by a
//       Release build. The authoritative key is "modb_build_type"
//       (stamped by bench_main from the CMake config that compiled the
//       binary); "library_build_type" only describes how libbenchmark
//       itself was built, so it is a fallback.
//
//   exit 0  all gates passed (or were honestly skipped with a warning)
//   exit 1  a gate failed
//   exit 2  usage / parse error
//
// tools/verify.sh runs this against the repo-root BENCH_*.json
// snapshots so a perf regression fails CI the same way a test failure
// does.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

struct BenchRow {
  std::string name;
  double cpu_time = 0;  // normalized to nanoseconds
  double real_time = 0;
  double items_per_second = 0;  // 0 when the bench reported none
};

struct BenchContext {
  std::string build_type;  // lowercased; empty when absent
  int num_cpus = 0;
};

double UnitToNs(const std::string& unit) {
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;  // ns (google-benchmark's default)
}

std::string LowerCase(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = char(c - 'A' + 'a');
  }
  return s;
}

bool LoadFile(const char* path, std::vector<BenchRow>* rows,
              BenchContext* context) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = modb::obs::JsonValue::Parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  if (const modb::obs::JsonValue* ctx = parsed->Find("context")) {
    const modb::obs::JsonValue* build = ctx->Find("modb_build_type");
    if (build == nullptr) build = ctx->Find("library_build_type");
    if (build != nullptr) context->build_type = LowerCase(build->string_value());
    if (const modb::obs::JsonValue* cpus = ctx->Find("num_cpus")) {
      context->num_cpus = int(cpus->number_value());
    }
  }
  const modb::obs::JsonValue* benches = parsed->Find("benchmarks");
  if (benches == nullptr ||
      benches->kind() != modb::obs::JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_compare: %s has no \"benchmarks\" array\n",
                 path);
    return false;
  }
  for (const modb::obs::JsonValue& b : benches->items()) {
    if (b.kind() != modb::obs::JsonValue::Kind::kObject) continue;
    const modb::obs::JsonValue* run_type = b.Find("run_type");
    if (run_type != nullptr && run_type->string_value() != "iteration") {
      continue;  // skip _mean/_median/_stddev aggregates
    }
    const modb::obs::JsonValue* name = b.Find("name");
    const modb::obs::JsonValue* cpu = b.Find("cpu_time");
    const modb::obs::JsonValue* real = b.Find("real_time");
    if (name == nullptr || cpu == nullptr || real == nullptr) continue;
    double scale = 1.0;
    if (const modb::obs::JsonValue* unit = b.Find("time_unit")) {
      scale = UnitToNs(unit->string_value());
    }
    double items = 0;
    if (const modb::obs::JsonValue* ips = b.Find("items_per_second")) {
      items = ips->number_value();
    }
    rows->push_back({name->string_value(), cpu->number_value() * scale,
                     real->number_value() * scale, items});
  }
  return true;
}

const BenchRow* FindRow(const std::vector<BenchRow>& rows,
                        const std::string& name) {
  for (const BenchRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

// 0 = pass, 1 = fail.
int CheckRelease(const char* path, const BenchContext& context) {
  if (context.build_type == "release") return 0;
  std::fprintf(stderr,
               "bench_compare: %s was not recorded from a release build "
               "(modb_build_type=\"%s\"); rebuild with --preset release\n",
               path, context.build_type.c_str());
  return 1;
}

int RunScalingGate(const char* path, double min_speedup, bool require_release) {
  std::vector<BenchRow> rows;
  BenchContext context;
  if (!LoadFile(path, &rows, &context)) return 2;
  if (require_release && CheckRelease(path, context) != 0) return 1;
  // UseRealTime() benchmarks report as "<name>/T/real_time"; accept the
  // bare name too so hand-rolled exports still gate.
  const char* kPlan = "BM_Scaling_PipelinedSelectJoin";
  auto find_threads = [&rows](const std::string& base) -> const BenchRow* {
    if (const BenchRow* r = FindRow(rows, base + "/real_time")) return r;
    return FindRow(rows, base);
  };
  const BenchRow* one = find_threads(std::string(kPlan) + "/1");
  const BenchRow* four = find_threads(std::string(kPlan) + "/4");
  if (one == nullptr || four == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s is missing %s/1 or %s/4 (run "
                 "bench_scaling with --modb_threads including 1 and 4)\n",
                 path, kPlan, kPlan);
    return 2;
  }
  const double speedup =
      four->real_time > 0 ? one->real_time / four->real_time : 0;
  std::printf("  scaling  %-50s %12.0f -> %12.0f ns  (%.2fx @ 4 threads)\n",
              kPlan, one->real_time, four->real_time, speedup);
  if (context.num_cpus < 4) {
    std::printf(
        "bench_compare: WARNING: host has %d CPUs (< 4); scaling gate "
        "skipped — the %.1fx floor only applies on >= 4 cores\n",
        context.num_cpus, min_speedup);
    return 0;
  }
  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "bench_compare: scaling gate FAILED: %.2fx at 4 threads "
                 "(floor %.1fx on a %d-CPU host)\n",
                 speedup, min_speedup, context.num_cpus);
    return 1;
  }
  std::printf("bench_compare: scaling gate passed (%.2fx >= %.1fx)\n", speedup,
              min_speedup);
  return 0;
}

int RunServingGate(const char* path, double max_p99_ms, double min_qps,
                   bool require_release) {
  std::vector<BenchRow> rows;
  BenchContext context;
  if (!LoadFile(path, &rows, &context)) return 2;
  if (require_release && CheckRelease(path, context) != 0) return 1;

  // Pull the serving summary out of the context block.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = modb::obs::JsonValue::Parse(buf.str());
  if (!parsed.ok()) return 2;
  const modb::obs::JsonValue* ctx = parsed->Find("context");
  const modb::obs::JsonValue* serving =
      ctx != nullptr ? ctx->Find("modb_serving") : nullptr;
  if (serving == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s has no context.modb_serving block (not "
                 "a loadgen export?)\n",
                 path);
    return 2;
  }
  auto num = [serving](const char* key) -> double {
    const modb::obs::JsonValue* v = serving->Find(key);
    return v != nullptr ? v->number_value() : 0;
  };
  const double completed = num("completed");
  const double errors = num("errors");
  const double rejected = num("rejected");
  const double qps = num("qps");
  std::printf(
      "  serving  completed=%.0f errors=%.0f rejected=%.0f qps=%.1f\n",
      completed, errors, rejected, qps);

  int failures = 0;
  if (completed <= 0) {
    std::fprintf(stderr, "bench_compare: serving gate FAILED: no request "
                         "completed\n");
    ++failures;
  }
  if (errors != 0) {
    std::fprintf(stderr,
                 "bench_compare: serving gate FAILED: %.0f hard errors "
                 "(typed rejections are counted separately: %.0f)\n",
                 errors, rejected);
    ++failures;
  }
  const double max_p99_ns = max_p99_ms * 1e6;
  for (const BenchRow& r : rows) {
    const std::string suffix = "/p99";
    if (r.name.size() < suffix.size() ||
        r.name.compare(r.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
      continue;
    }
    const bool bad = r.real_time > max_p99_ns;
    std::printf("  %-8s %-50s %12.0f ns\n", bad ? "SLOW" : "ok",
                r.name.c_str(), r.real_time);
    if (bad) {
      std::fprintf(stderr,
                   "bench_compare: serving gate FAILED: %s = %.1f ms exceeds "
                   "--max-p99-ms=%.0f\n",
                   r.name.c_str(), r.real_time / 1e6, max_p99_ms);
      ++failures;
    }
  }
  if (qps < min_qps) {
    if (context.num_cpus < 4) {
      std::printf(
          "bench_compare: WARNING: host has %d CPUs (< 4); qps floor "
          "skipped — %.1f qps measured, %.1f required on >= 4 cores\n",
          context.num_cpus, qps, min_qps);
    } else {
      std::fprintf(stderr,
                   "bench_compare: serving gate FAILED: %.1f qps below the "
                   "%.1f floor on a %d-CPU host\n",
                   qps, min_qps, context.num_cpus);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("bench_compare: serving gate passed\n");
  }
  return failures == 0 ? 0 : 1;
}

int RunIngestGate(const char* path, double max_p99_ms, double min_fix_rate,
                  bool require_release) {
  std::vector<BenchRow> rows;
  BenchContext context;
  if (!LoadFile(path, &rows, &context)) return 2;
  if (require_release && CheckRelease(path, context) != 0) return 1;

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = modb::obs::JsonValue::Parse(buf.str());
  if (!parsed.ok()) return 2;
  const modb::obs::JsonValue* ctx = parsed->Find("context");
  const modb::obs::JsonValue* ingest =
      ctx != nullptr ? ctx->Find("modb_ingest") : nullptr;
  if (ingest == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s has no context.modb_ingest block (not "
                 "a loadgen --ingest export?)\n",
                 path);
    return 2;
  }
  auto num = [ingest](const char* key) -> double {
    const modb::obs::JsonValue* v = ingest->Find(key);
    return v != nullptr ? v->number_value() : 0;
  };
  const double accepted = num("fixes_accepted");
  const double errors = num("errors");
  const double queries = num("queries_completed");
  const double fix_rate = num("fix_rate");
  std::printf(
      "  ingest   accepted=%.0f errors=%.0f queries=%.0f fix_rate=%.0f/s\n",
      accepted, errors, queries, fix_rate);

  int failures = 0;
  if (accepted <= 0) {
    std::fprintf(stderr,
                 "bench_compare: ingest gate FAILED: no fix accepted\n");
    ++failures;
  }
  if (errors != 0) {
    std::fprintf(stderr,
                 "bench_compare: ingest gate FAILED: %.0f hard errors\n",
                 errors);
    ++failures;
  }
  const double max_p99_ns = max_p99_ms * 1e6;
  for (const BenchRow& r : rows) {
    const std::string suffix = "/p99";
    if (r.name.size() < suffix.size() ||
        r.name.compare(r.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
      continue;
    }
    const bool bad = r.real_time > max_p99_ns;
    std::printf("  %-8s %-50s %12.0f ns\n", bad ? "SLOW" : "ok",
                r.name.c_str(), r.real_time);
    if (bad) {
      std::fprintf(stderr,
                   "bench_compare: ingest gate FAILED: %s = %.1f ms exceeds "
                   "--max-p99-ms=%.0f\n",
                   r.name.c_str(), r.real_time / 1e6, max_p99_ms);
      ++failures;
    }
  }
  if (fix_rate < min_fix_rate) {
    if (context.num_cpus < 4) {
      std::printf(
          "bench_compare: WARNING: host has %d CPUs (< 4); fix-rate floor "
          "skipped — %.0f fixes/s measured, %.0f required on >= 4 cores\n",
          context.num_cpus, fix_rate, min_fix_rate);
    } else {
      std::fprintf(stderr,
                   "bench_compare: ingest gate FAILED: %.0f fixes/s below "
                   "the %.0f floor on a %d-CPU host\n",
                   fix_rate, min_fix_rate, context.num_cpus);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("bench_compare: ingest gate passed\n");
  }
  return failures == 0 ? 0 : 1;
}

int RunStorageGate(const char* path, double min_reader_items,
                   bool require_release) {
  std::vector<BenchRow> rows;
  BenchContext context;
  if (!LoadFile(path, &rows, &context)) return 2;
  if (require_release && CheckRelease(path, context) != 0) return 1;

  for (const char* scan :
       {"BM_SpilledScanWarm_File", "BM_SpilledScanCold_File"}) {
    if (const BenchRow* row = FindRow(rows, scan)) {
      std::printf("  storage  %-50s %12.0f ns\n", row->name.c_str(),
                  row->real_time);
    }
  }

  // Concurrent pinned readers: a throughput floor, honest only with
  // enough cores to actually run the reader threads in parallel.
  const BenchRow* readers = nullptr;
  for (const BenchRow& r : rows) {
    if (r.name.rfind("BM_EpochPinnedReaders", 0) == 0) {
      readers = &r;
      break;
    }
  }
  if (readers == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s is missing BM_EpochPinnedReaders\n", path);
    return 2;
  }
  std::printf("  storage  %-50s %12.0f items/s\n", readers->name.c_str(),
              readers->items_per_second);
  int failures = 0;
  if (readers->items_per_second < min_reader_items) {
    if (context.num_cpus < 4) {
      std::printf(
          "bench_compare: WARNING: host has %d CPUs (< 4); pinned-reader "
          "floor skipped — %.0f items/s measured, %.0f required on >= 4 "
          "cores\n",
          context.num_cpus, readers->items_per_second, min_reader_items);
    } else {
      std::fprintf(stderr,
                   "bench_compare: storage gate FAILED: %.0f pinned reads/s "
                   "below the %.0f floor on a %d-CPU host\n",
                   readers->items_per_second, min_reader_items,
                   context.num_cpus);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("bench_compare: storage gate passed\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.15;
  double min_speedup = 2.0;
  double max_p99_ms = 5000;
  double min_qps = 25;
  double min_fix_rate = 1000;
  double min_reader_items = 50000;
  bool scaling = false;
  bool serving = false;
  bool ingest = false;
  bool storage = false;
  bool require_release = false;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      threshold = std::atof(argv[i] + 12);
      if (threshold <= 0) {
        std::fprintf(stderr, "bench_compare: bad threshold %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
      if (min_speedup <= 0) {
        std::fprintf(stderr, "bench_compare: bad min-speedup %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--max-p99-ms=", 13) == 0) {
      max_p99_ms = std::atof(argv[i] + 13);
      if (max_p99_ms <= 0) {
        std::fprintf(stderr, "bench_compare: bad max-p99-ms %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--min-qps=", 10) == 0) {
      min_qps = std::atof(argv[i] + 10);
      if (min_qps <= 0) {
        std::fprintf(stderr, "bench_compare: bad min-qps %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--min-fix-rate=", 15) == 0) {
      min_fix_rate = std::atof(argv[i] + 15);
      if (min_fix_rate <= 0) {
        std::fprintf(stderr, "bench_compare: bad min-fix-rate %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--min-reader-items=", 19) == 0) {
      min_reader_items = std::atof(argv[i] + 19);
      if (min_reader_items <= 0) {
        std::fprintf(stderr, "bench_compare: bad min-reader-items %s\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--scaling") == 0) {
      scaling = true;
    } else if (std::strcmp(argv[i], "--serving") == 0) {
      serving = true;
    } else if (std::strcmp(argv[i], "--ingest") == 0) {
      ingest = true;
    } else if (std::strcmp(argv[i], "--storage") == 0) {
      storage = true;
    } else if (std::strcmp(argv[i], "--require-release") == 0) {
      require_release = true;
    } else {
      files.push_back(argv[i]);
    }
  }

  if (storage) {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --storage FILE.json "
                   "[--min-reader-items=50000] [--require-release]\n");
      return 2;
    }
    return RunStorageGate(files[0], min_reader_items, require_release);
  }

  if (ingest) {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --ingest FILE.json "
                   "[--max-p99-ms=5000] [--min-fix-rate=1000] "
                   "[--require-release]\n");
      return 2;
    }
    return RunIngestGate(files[0], max_p99_ms, min_fix_rate, require_release);
  }

  if (serving) {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --serving FILE.json "
                   "[--max-p99-ms=5000] [--min-qps=25] "
                   "[--require-release]\n");
      return 2;
    }
    return RunServingGate(files[0], max_p99_ms, min_qps, require_release);
  }

  if (scaling) {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --scaling FILE.json "
                   "[--min-speedup=2.0] [--require-release]\n");
      return 2;
    }
    return RunScalingGate(files[0], min_speedup, require_release);
  }

  if (files.size() == 1 && require_release) {
    // Build-type check only.
    std::vector<BenchRow> rows;
    BenchContext context;
    if (!LoadFile(files[0], &rows, &context)) return 2;
    if (CheckRelease(files[0], context) != 0) return 1;
    std::printf("bench_compare: %s is a release-build record\n", files[0]);
    return 0;
  }

  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CURRENT.json "
                 "[--threshold=0.15] [--require-release]\n"
                 "       bench_compare --scaling FILE.json "
                 "[--min-speedup=2.0]\n"
                 "       bench_compare --require-release FILE.json\n");
    return 2;
  }
  std::vector<BenchRow> baseline, current;
  BenchContext base_ctx, cur_ctx;
  if (!LoadFile(files[0], &baseline, &base_ctx) ||
      !LoadFile(files[1], &current, &cur_ctx)) {
    return 2;
  }
  if (require_release && CheckRelease(files[1], cur_ctx) != 0) return 1;
  int regressions = 0, compared = 0;
  for (const BenchRow& cur : current) {
    const BenchRow* base = FindRow(baseline, cur.name);
    if (base == nullptr) {
      std::printf("  NEW      %-50s %12.0f ns\n", cur.name.c_str(),
                  cur.cpu_time);
      continue;
    }
    ++compared;
    const double ratio =
        base->cpu_time > 0 ? cur.cpu_time / base->cpu_time : 1.0;
    const bool bad = ratio > 1.0 + threshold;
    std::printf("  %-8s %-50s %12.0f -> %12.0f ns  (%+.1f%%)\n",
                bad ? "REGRESS" : "ok", cur.name.c_str(), base->cpu_time,
                cur.cpu_time, (ratio - 1.0) * 100.0);
    if (bad) ++regressions;
  }
  for (const BenchRow& base : baseline) {
    if (FindRow(current, base.name) == nullptr) {
      std::printf("  GONE     %s\n", base.name.c_str());
    }
  }
  std::printf("bench_compare: %d compared, %d regressed (threshold %+.0f%%)\n",
              compared, regressions, threshold * 100.0);
  return regressions == 0 ? 0 : 1;
}
