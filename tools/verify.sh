#!/usr/bin/env bash
# CI driver: configure, build, and test the three configurations that
# must stay green —
#   default       RelWithDebInfo, metrics off by default, fault hooks on
#   asan-metrics  ASan+UBSan with the metrics registry enabled
#   nometrics     metrics AND fault hooks compiled out (stub paths)
# then runs the threaded suites under ThreadSanitizer (tsan preset), and
# a Release (-O3 -DNDEBUG) build runs the perf smoke + thread scaling
# gates, re-recording the repo-root BENCH_*.json snapshots.
# Usage: tools/verify.sh [preset ...]   (defaults to all three)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-metrics nometrics)
fi

declare -A preset_dirs=(
  [default]=build [release]=build-release [asan]=build-asan
  [asan-metrics]=build-asan-metrics [nometrics]=build-nometrics
)

# Crash-point enumeration (storage/crash_campaign.h): every device I/O
# of a commit workload is crashed — hard fail and torn write — and
# recovery must land on a committed state with zero leaked pages. Runs
# on every fault-enabled preset (crashloop self-reports a skip on
# nometrics, where the hooks are compiled out). The one-line JSON
# summary is gated through json_check like the bench exports.
run_crashloop() {
  local preset="$1" dir="${preset_dirs[$1]:-build}"
  [ -x "$dir/tools/crashloop" ] || return 0
  echo "==== [$preset] crash campaign ===="
  local out="$dir/CRASHLOOP_${preset}.json"
  "$dir/tools/crashloop" "$dir/crashloop_scratch.bin" | tee "$out"
  "$dir/tools/json_check" "$out"
  rm -f "$dir/crashloop_scratch.bin"
}

jobs=$(nproc 2>/dev/null || echo 4)
for preset in "${presets[@]}"; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$jobs"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$jobs"
  if [ "$preset" = default ]; then
    # Flake hunt: the suites that run work on pool threads, repeated
    # five times under full ctest parallelism, so a load-dependent test
    # fails here rather than once in a hundred runs.
    echo "==== [$preset] repeat exec/db/serve suites ===="
    ctest --preset "$preset" -j "$jobs" -L '^(exec|db|serve)$' \
      --repeat until-fail:5
  fi
  run_crashloop "$preset"
done

# ThreadSanitizer over the code that moves query work onto pool
# threads and the storage tier readers share with ingest: the exec, db,
# storage and ingest suites (sharded pool, epoch pins, live ingest and
# its commits beside pinned readers), the temporal suite (the unit
# arrays copies of a trail share) and the serving tests.
echo "==== [tsan] configure + build + test ===="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs" -L '^(exec|db|storage|ingest|temporal)$'
ctest --preset tsan -j "$jobs" -R '^ServerTest\.'

# Perf smoke on a Release (-O3 -DNDEBUG) build: export the key
# query/batch benchmarks to repo-root BENCH_*.json snapshots and gate
# them with bench_compare — >15% cpu_time growth on any benchmark that
# also exists in the previous snapshot fails, same as a test failure.
# bench_compare --require-release rejects records whose JSON context was
# not stamped by a release binary, so the snapshots can never silently
# drift back to a debug build.
release_dir=build-release
run_perf_smoke() {
  local name="$1" binary="$2" filter="$3"
  local out="BENCH_${name}.json"
  local prev=""
  if [ -f "$out" ]; then
    prev="$(mktemp)"
    cp "$out" "$prev"
  fi
  "$release_dir/bench/${binary}" \
    --benchmark_filter="$filter" \
    --benchmark_min_time=0.1 \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json
  "$release_dir/tools/json_check" "$out"
  if [ -n "$prev" ]; then
    "$release_dir/tools/bench_compare" "$prev" "$out" \
      --threshold=0.15 --require-release
    rm -f "$prev"
  else
    "$release_dir/tools/bench_compare" --require-release "$out"
    echo "perf-smoke: no previous $out snapshot, regression gate skipped"
  fi
}

echo "==== [release] configure + build (perf smoke) ===="
cmake --preset release
cmake --build --preset release -j "$jobs" \
  --target bench_queries bench_batch bench_scaling bench_storage \
  bench_compare json_check

echo "==== perf smoke (release build) ===="
# The reply codec rides along: encode and decode of the atinstant xy
# reply (1024 flights x 49 instants) and of the 256-flight Q2 join rows.
# So does Q2's EverWithin kernel alone, on planes(64) and on one pair of
# 1250-unit trails, and the fleet's Q2: the index join over 8 trails of
# 4600 units and the encode and decode of its reply. And planes_scan's
# window, present and atinstant requests through Db::Run on one worker.
run_perf_smoke queries bench_queries \
  'BM_Q1_TrajectoryLength/64|BM_Q2_Join_RTree/64|BM_Q2_Join_RTree_Prebuilt/64|BM_Q2_EverWithinOnly|BM_EncodeReply_XY|BM_DecodeReply_XY|BM_EncodeReply_JoinRows|BM_DecodeReply_JoinRows|BM_IndexJoinProbe_FleetTrails|BM_EncodeReply_FleetJoinRows|BM_DecodeReply_FleetJoinRows|BM_WindowAggregate_Planes/1024|BM_PresentBatch_Planes/1024|BM_AtInstantBatchXY_Planes/1024'
# One row per resolve regime: /10000/64 takes the gallop, /10000/1024
# and /16384/16384 the two-pointer merge.
run_perf_smoke batch bench_batch \
  'BM_AtInstant_Batch/10000/64|BM_AtInstant_Batch/10000/1024|BM_AtInstant_Batch/16384/16384'

# Storage gate: warm and cold page-granular scans through the buffer
# pool, plus the 4-thread epoch-pinned reader bench. bench_compare
# --storage enforces the reader throughput floor on hosts with >= 4
# CPUs and warn-skips it below.
run_perf_smoke storage bench_storage \
  'BM_Serialize_MovingPoint/256|BM_SpilledScanWarm|BM_SpilledScanCold|BM_SpilledBlobScanWarm|BM_EpochPinnedReaders'
"$release_dir/tools/bench_compare" --storage BENCH_storage.json \
  --require-release

# Thread-scaling sweep + gate: the pipelined Select+Join plan must hit
# 2x at 4 threads vs 1 on hosts with >= 4 CPUs (bench_compare warns and
# skips on smaller hosts — the floor would be dishonest there).
echo "==== scaling sweep (release build) ===="
"$release_dir/bench/bench_scaling" \
  --modb_threads=1,2,4,8 \
  --benchmark_min_time=0.1 \
  --benchmark_format=json \
  --benchmark_out=BENCH_scaling.json \
  --benchmark_out_format=json
"$release_dir/tools/json_check" BENCH_scaling.json
"$release_dir/tools/bench_compare" --scaling BENCH_scaling.json \
  --require-release

# Serving smoke (release build): modbd + loadgen end to end. The load
# generator re-executes every query against an in-process Db and fails
# on any byte difference vs the server's result blocks (--verify);
# json_check and bench_compare --serving gate the recorded latency
# snapshot (p99 ceiling; the qps floor warn-skips on small CI hosts);
# the overload probe (1-thread budget, no queue, 2-thread requests)
# must yield typed rejections only; SIGTERM must drain and exit 0.
echo "==== serving smoke (release build) ===="
cmake --build --preset release -j "$jobs" --target modbd loadgen
serving_pid=""
chaos_pid=""
cleanup_serving() {
  if [ -n "$serving_pid" ]; then kill "$serving_pid" 2>/dev/null || true; fi
  if [ -n "$chaos_pid" ]; then kill "$chaos_pid" 2>/dev/null || true; fi
}
trap cleanup_serving EXIT

start_modbd() {
  local log="$1"
  shift
  "$release_dir/tools/modbd" "$@" > "$log" &
  serving_pid=$!
  modbd_port=""
  for _ in $(seq 1 100); do
    modbd_port=$(sed -n 's/^modbd listening on .*:\([0-9][0-9]*\)$/\1/p' "$log")
    [ -n "$modbd_port" ] && return 0
    kill -0 "$serving_pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "modbd failed to start:"
  cat "$log"
  return 1
}

start_modbd "$release_dir/modbd.log" --port=0
"$release_dir/tools/loadgen" --port="$modbd_port" --clients=2 --requests=10 \
  --verify --out=BENCH_serving.json --metrics-out="$release_dir/metrics.json"
"$release_dir/tools/json_check" BENCH_serving.json
"$release_dir/tools/json_check" "$release_dir/metrics.json"
"$release_dir/tools/bench_compare" --serving BENCH_serving.json \
  --require-release
kill -TERM "$serving_pid"
wait "$serving_pid"  # graceful drain: modbd must exit 0
serving_pid=""

start_modbd "$release_dir/modbd_overload.log" --port=0 \
  --thread-budget=1 --queue-capacity=0
"$release_dir/tools/loadgen" --port="$modbd_port" --clients=4 --requests=10 \
  --num-threads=2 --expect-rejections \
  --out="$release_dir/BENCH_serving_overload.json"
kill -TERM "$serving_pid"
wait "$serving_pid"
serving_pid=""

# Ingest smoke (release build): the PR-8 closed ingest+query loop.
# modbd hosts a store-backed live relation; loadgen streams
# deterministic fixes while concurrent clients query it, then replays
# the identical batches into a local Db and byte-compares every query
# kind (--verify). The recorded BENCH_ingest.json is gated like the
# serving snapshot. Then the crash-consistency drill: SIGTERM lands
# mid-ingest (the drain seals and commits a final epoch — loadgen's
# severed connection is expected, hence || true), modbd must still exit
# 0, and a restart on the same store must print the recovered epoch.
echo "==== ingest smoke (release build) ===="
fleet_store="$release_dir/fleet.store"
rm -f "$fleet_store"
start_modbd "$release_dir/modbd_ingest.log" --port=0 \
  --live=fleet --store="$fleet_store" --merge-interval-ms=100
"$release_dir/tools/loadgen" --ingest --port="$modbd_port" \
  --objects=8 --fixes=2048 --batch=32 --clients=2 --verify \
  --out=BENCH_ingest.json
"$release_dir/tools/json_check" BENCH_ingest.json
"$release_dir/tools/bench_compare" --ingest BENCH_ingest.json \
  --require-release
kill -TERM "$serving_pid"
wait "$serving_pid"
serving_pid=""

start_modbd "$release_dir/modbd_drain.log" --port=0 \
  --live=fleet --store="$fleet_store" --merge-interval-ms=100
grep -q "modbd recovered epoch" "$release_dir/modbd_drain.log" || {
  echo "modbd did not recover the ingest store:"
  cat "$release_dir/modbd_drain.log"
  exit 1
}
"$release_dir/tools/loadgen" --ingest --port="$modbd_port" \
  --objects=8 --fixes=65536 --batch=16 --clients=1 --t0=10000 \
  --out="$release_dir/BENCH_ingest_drain.json" &
loadgen_pid=$!
sleep 0.7  # let the ingest stream get going, then cut it mid-flight
kill -TERM "$serving_pid"
wait "$serving_pid"  # the drain must still exit 0
serving_pid=""
wait "$loadgen_pid" || true  # severed mid-ingest: failure is expected
start_modbd "$release_dir/modbd_recover.log" --port=0 \
  --live=fleet --store="$fleet_store"
grep -q "modbd recovered epoch" "$release_dir/modbd_recover.log" || {
  echo "modbd did not recover after the mid-ingest drain:"
  cat "$release_dir/modbd_recover.log"
  exit 1
}
kill -TERM "$serving_pid"
wait "$serving_pid"
serving_pid=""
rm -f "$fleet_store"

# Chaos smoke (release build): the same closed ingest+query loop, but
# through tools/chaosproxy — a deterministic seeded TCP proxy injecting
# mid-frame stalls and connection resets. loadgen --chaos retries with
# idempotency keys, re-sends acked batches to force dedup re-acks, and
# --verify asserts exactly-once ingest plus byte-identical replies vs
# the direct (unproxied) path and a local replay. The metrics JSON must
# show the dedup window actually absorbing duplicates.
echo "==== chaos smoke (release build) ===="
cmake --build --preset release -j "$jobs" --target chaosproxy
chaos_store="$release_dir/chaos_fleet.store"
rm -f "$chaos_store"
start_modbd "$release_dir/modbd_chaos.log" --port=0 \
  --live=fleet --store="$chaos_store" --merge-interval-ms=100
"$release_dir/tools/chaosproxy" --target-port="$modbd_port" --seed=42 \
  --stall-every=17 --reset-every=97 > "$release_dir/chaosproxy.log" &
chaos_pid=$!
chaos_port=""
for _ in $(seq 1 100); do
  chaos_port=$(sed -n 's/^chaosproxy listening on .*:\([0-9][0-9]*\)$/\1/p' \
    "$release_dir/chaosproxy.log")
  [ -n "$chaos_port" ] && break
  kill -0 "$chaos_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$chaos_port" ]; then
  echo "chaosproxy failed to start:"
  cat "$release_dir/chaosproxy.log"
  exit 1
fi
"$release_dir/tools/loadgen" --chaos --port="$chaos_port" \
  --direct-port="$modbd_port" --objects=8 --fixes=1024 --batch=32 \
  --clients=2 --verify --metrics-out="$release_dir/chaos_metrics.json"
"$release_dir/tools/json_check" "$release_dir/chaos_metrics.json"
dedup_hits=$(sed -n 's/.*"ingest\.dedup_hits": *\([0-9][0-9]*\).*/\1/p' \
  "$release_dir/chaos_metrics.json")
if [ -z "$dedup_hits" ] || [ "$dedup_hits" -eq 0 ]; then
  echo "chaos smoke: expected ingest.dedup_hits > 0, got '${dedup_hits:-absent}'"
  exit 1
fi
kill "$chaos_pid"
wait "$chaos_pid" || true
chaos_pid=""
kill -TERM "$serving_pid"
wait "$serving_pid"
serving_pid=""
rm -f "$chaos_store"
trap - EXIT

echo "==== all presets green: ${presets[*]} ===="
