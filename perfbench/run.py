#!/usr/bin/env python3
"""The modbd benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload planes_scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload fleet_ingest --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --report 5 --seconds 15 [--workload planes_join]

It builds modbd and the load generator (perfload) from this checkout's source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and prints a run record line and, as the last line, the result:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. --report N runs each
workload N times on seeds 1..N and prints each metric's median, quartiles
and spread instead. See README.md for what each workload and metric is.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402

WORKLOADS = ("planes_scan", "planes_join", "fleet_ingest")
# A benchmark run must end within 180 s, so perfload gets at most 170.
RUN_TIMEOUT_S = 170
OPTIMIZED = ("Release", "RelWithDebInfo")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build.


def cache_value(cache_path, key):
    with open(cache_path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    """Configures and builds modbd and perfload; returns the build dir."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/modbd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("no repository source to build: %s is missing"
                             % needed)
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("cmake configure failed")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    sanitize = cache_value(cache, "MODB_SANITIZE")
    if build_type not in OPTIMIZED or sanitize:
        raise BenchError("refusing build type '%s' with sanitizers '%s'"
                         % (build_type, sanitize))
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "modbd", "perfload",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")
    return build_dir


# ---------------------------------------------------------------------------
# One run.


def run_perfload(build_dir, workload, seed, seconds, trace):
    """Runs perfload once; returns (raw, spans or None)."""
    run_dir = os.path.join(ROOT, ".bench_run", "%s-s%d-t%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfload"),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--trace=%d" % trace,
           "--modbd=" + os.path.join(build_dir, "modb", "tools", "modbd"),
           "--run-dir=" + run_dir]
    # Its own process group, so every process it starts can be stopped
    # at once.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        raise BenchError("perfload %s" % ("timed out" if rc is None
                                          else "exited with %d" % rc))
    with open(os.path.join(run_dir, "raw.json")) as f:
        raw = json.load(f)
    spans = None
    if trace:
        with open(os.path.join(run_dir, "trace.json")) as f:
            spans = json.load(f)
    shutil.rmtree(run_dir, ignore_errors=True)
    return raw, spans


def ms(ns):
    return ns / 1e6


def latencies(raw):
    """{kind: completed latencies in ns} over every operation kind of the
    workload: its query kinds and, on fleet_ingest, the ingest batch."""
    out = {name: k["ok_ns"] for name, k in raw["kinds"].items()}
    if "ingest" in raw:
        out["ingest"] = raw["ingest"]["ok_ns"]
    return out


def end_to_end(raw, record):
    """The end-to-end metrics of one untraced run: {name: (value, unit)}.

    Every workload reports the same metrics. Latency is summarised over
    the workload's kinds as the geometric mean of each kind's median, so
    every kind weighs the same and none is percentiled with another; the
    per-kind figures go to record["detail"].
    """
    out = {}
    detail = record["detail"]
    counts = record["samples"]
    out["setup_s"] = (M.median(raw["setup_s"]), "s")
    counts["setup_s"] = len(raw["setup_s"])
    p50 = {}
    for name, ns in latencies(raw).items():
        counts[name + "_p50_ms"] = len(ns)
        if ns:
            p50[name] = ms(M.median(ns))
            detail[name + "_p50_ms"] = p50[name]
        else:
            record["problems"].append("%s: no operation completed" % name)
    out["p50_geomean_ms"] = (M.geomean(p50.values()) if p50 else 0.0, "ms")
    counts["p50_geomean_ms"] = len(p50)
    all_ns = [ns for k in raw["kinds"].values() for ns in k["ok_ns"]]
    out["queries_per_s"] = (len(all_ns) / raw["phase_s"], "1/s")
    counts["queries_per_s"] = len(all_ns)
    if all_ns:
        p99, beyond = M.percentile(all_ns, 99)
        out["query_p99_ms"] = (ms(p99), "ms")
        counts["query_p99_ms"] = {"samples": len(all_ns), "beyond": beyond}
    ops = len(all_ns)
    ingest = raw.get("ingest")
    if ingest is not None:
        ok = ingest["ok_ns"]
        ops += len(ok)
        fixes = ingest["fixes_accepted"] - ingest["history_fixes"]
        detail["fixes_per_s"] = fixes / raw["writer_s"]
        counts["fixes_per_s"] = fixes
        if ok:
            p99, beyond = M.percentile(ok, 99)
            detail["ingest_p99_ms"] = ms(p99)
            counts["ingest_p99_ms"] = {"samples": len(ok), "beyond": beyond}
    cpu_s = (M.proc_cpu_seconds(raw["after"]["stat"])
             - M.proc_cpu_seconds(raw["before"]["stat"]))
    out["server_cpu_ms_per_op"] = (ratio(cpu_s * 1e3, ops), "ms")
    counts["server_cpu_ms_per_op"] = ops
    out["server_rss_mb"] = (M.proc_peak_rss_mb(raw["after"]["status"]), "MB")
    counts["server_rss_mb"] = 1
    return out


def ratio(num, den):
    return num / den if den else 0.0


# The spans of one request's path through the layers (perfload's
# TraceQuery and its ingest counterpart).
REQUEST_LAYERS = ("client.encode", "serve.decode", "db.run", "db.apply",
                  "serve.encode", "client.decode")


def per_layer(raw, spans, record):
    """The per-layer metrics of one traced run: {name: (value, unit)}.

    Every workload reports the same metrics: per-kind figures are
    summarised over the workload's kinds as geometric means, counters
    over its whole mix. The per-kind figures, and the layers only one
    workload has (ingest, storage, merges, the temporal kernels), go to
    record["layers"].
    """
    out = {}
    layers_out = record["layers"]
    kinds = raw["kinds"]
    delta = M.metrics_delta(raw["before"]["metrics"], raw["after"]["metrics"])
    c = delta["counters"]
    queries = sum(len(k["ok_ns"]) for k in kinds.values())

    # serve: the server's own time per kind, and the rest of the round trip.
    server, client = {}, {}
    for name, iso in raw["isolation"].items():
        d = M.metrics_delta(iso["before"]["metrics"], iso["after"]["metrics"])
        count, total = d["histograms"].get("serve.request_ns", (0, 0))
        if count == 0 or not iso["ops"]["ok_ns"]:
            raise BenchError("isolation phase of %s served nothing" % name)
        server[name] = ms(total / count)
        client[name] = ms(statistics.mean(iso["ops"]["ok_ns"]))
        layers_out["serve.server_ms." + name] = server[name]
        layers_out["serve.outside_ms." + name] = client[name] - server[name]
    out["serve.server_ms"] = (M.geomean(server.values()), "ms")
    out["serve.outside_ms"] = (
        M.geomean(client.values()) - M.geomean(server.values()), "ms")
    reply_kb = {}
    for name, k in kinds.items():
        reply_kb[name] = ratio(k["reply_bytes"] / 1024.0, len(k["ok_ns"]))
        layers_out["serve.reply_kb." + name] = reply_kb[name]
    out["serve.reply_kb"] = (M.geomean(reply_kb.values()), "KiB")
    out["serve.rejected_ratio"] = (
        ratio(c.get("serve.rejected", 0), c.get("serve.requests", 0)), "ratio")

    # exec: planner cache and morsel scheduling, operator wall times.
    hits = c.get("exec.plan_cache.hits", 0)
    out["exec.plan_cache_hit_ratio"] = (
        ratio(hits, hits + c.get("exec.plan_cache.misses", 0)), "ratio")
    scheduled = c.get("exec.morsels_scheduled", 0)
    out["exec.morsels_per_query"] = (ratio(scheduled, queries), "count")
    out["exec.stolen_ratio"] = (
        ratio(c.get("exec.morsels_stolen", 0), scheduled), "ratio")
    op_ms = {}
    for name, k in kinds.items():
        op_ms[name] = M.exec_root_ms(k["exec_stats"])
        if op_ms[name] is None:
            raise BenchError("no ExecStats kept for %s" % name)
        layers_out["exec.op_ms." + name] = op_ms[name]
    out["exec.op_ms"] = (M.geomean(op_ms.values()), "ms")

    # index: the replies' ExecStats counters over the whole mix (0 where
    # no query probes an index), and per kind where one does.
    mix = M.index_counters([t for k in kinds.values() for t in k["exec_stats"]])
    out["index.candidates_per_query"] = (mix["candidates_per_query"], "count")
    out["index.hits_per_query"] = (mix["hits_per_query"], "count")
    out["index.units_scanned_per_query"] = (
        mix["units_scanned_per_query"], "count")
    if "join" in kinds:
        j = M.index_counters(kinds["join"]["exec_stats"])
        if "hit_ratio" in j:
            layers_out["index.hit_ratio"] = j["hit_ratio"]
            layers_out["temporal.refine_us_per_candidate"] = (
                j["refine_us_per_candidate"])

    # Spans: each kind's request path, layer by layer.
    layers = M.layer_self_ms(spans)
    e2e = {name: ms(M.median(ns)) for name, ns in latencies(raw).items() if ns}
    decode, encode, db, traced_ms, e2e_ms = {}, {}, {}, 0.0, 0.0
    for kind, p50 in e2e.items():
        kind_layers = {name: v for (k, name), v in layers.items()
                       if k == kind and name in REQUEST_LAYERS}
        if not kind_layers:
            raise BenchError("no traced request of kind %s" % kind)
        decode[kind] = kind_layers["serve.decode"] * 1e3
        encode[kind] = kind_layers["serve.encode"] * 1e3
        db[kind] = kind_layers.get("db.run", kind_layers.get("db.apply"))
        layers_out["serve.decode_us." + kind] = decode[kind]
        layers_out["serve.encode_us." + kind] = encode[kind]
        layers_out[("db.apply_ms" if kind == "ingest" else "db.run_ms." + kind)] = db[kind]
        layers_out["trace.unattributed_share." + kind] = M.unattributed_share(
            kind_layers.values(), p50)
        traced_ms += sum(kind_layers.values())
        e2e_ms += p50
    out["serve.decode_us"] = (M.geomean(decode.values()), "us")
    out["serve.encode_us"] = (M.geomean(encode.values()), "us")
    out["db.exec_ms"] = (M.geomean(db.values()), "ms")
    out["trace.unattributed_share"] = (1.0 - traced_ms / e2e_ms, "ratio")
    bulkload = [ms(s["end_ns"] - s["start_ns"])
                for s in spans if s["name"] == "index.bulkload"]
    if not bulkload:
        raise BenchError("no traced R-tree bulk load")
    out["index.bulkload_ms"] = (M.median(bulkload), "ms")

    # The layers of one workload only.
    for span, name in (("index.merge", "index.merge_ms"),
                       ("ingest.absorb", "ingest.absorb_ms"),
                       ("ingest.persist", "ingest.persist_ms"),
                       ("storage.commit", "storage.commit_ms")):
        values = [ms(s["end_ns"] - s["start_ns"]) for s in spans if s["name"] == span]
        if values:
            layers_out[name] = M.median(values)
    for span, name in (("temporal.atinstant", "temporal.atinstant_ns_per_cell"),
                       ("temporal.present", "temporal.present_ns_per_cell")):
        value = M.per_work_ns(spans, name=span)
        if value is not None:
            layers_out[name] = value
    ingest = raw.get("ingest")
    if "ingest" in e2e:
        batches = len(ingest["ok_ns"])
        fixes = c.get("ingest.fixes", 0)
        layers_out["db.ingest_wait_ms"] = e2e["ingest"] - db["ingest"]
        last = ingest["last_ack"]
        layers_out["index.mem_entries"] = last["mem_units"]
        layers_out["index.delta_entries"] = last["delta_entries"]
        layers_out["index.merges_per_kbatch"] = ratio(
            c.get("index.delta.merges", 0) * 1000.0, batches)
        ordered = [ns for ns in ingest["batch_ns"] if ns > 0]
        tenth = max(1, len(ordered) // 10)
        layers_out["ingest.late_over_early"] = (
            M.median(ordered[-tenth:]) / M.median(ordered[:tenth]))
        layers_out["storage.bytes_written_per_fix"] = ratio(
            c.get("storage.spill.bytes_spilled", 0), fixes)
        writes = sum(v for k, v in c.items() if k.endswith("_device.page_writes"))
        layers_out["storage.pages_written_per_batch"] = ratio(writes, batches)
        layers_out["storage.commits_per_batch"] = ratio(
            c.get("storage.recovery.commits", 0), batches)
        pool_hits = c.get("storage.buffer_pool.hits", 0)
        layers_out["storage.pool_hit_ratio"] = ratio(
            pool_hits, pool_hits + c.get("storage.buffer_pool.misses", 0))
        layers_out["storage.retired_pages"] = (
            c.get("storage.recovery.pages_retired", 0)
            - c.get("storage.recovery.retired_reclaimed", 0))
        layers_out["storage.space_amp"] = (
            ingest["store_bytes"] / (ingest["fixes_accepted"] * 32.0))
    return out


def run_once(build_dir, workload, seed, seconds, trace):
    """One benchmark run: (result, record)."""
    raw, spans = run_perfload(build_dir, workload, seed, seconds, trace)
    problems = list(raw["problems"])
    if raw["modbd_exit"] != 0:
        problems.append("modbd exited with %r" % raw["modbd_exit"])
    attempted = failed = 0
    fail_ratio = {}
    failures = {}
    parts = dict(raw["kinds"])
    if "ingest" in raw:
        parts["ingest"] = raw["ingest"]
    for name, k in parts.items():
        attempted += k["attempted"]
        failed += k["failed"]
        fail_ratio[name] = ratio(k["failed"], k["attempted"])
        if k["failures"]:
            failures[name] = k["failures"]
        if k["mismatched"]:
            problems.append("%s: %d replies differ from the reference"
                            % (name, k["mismatched"]))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": raw["nproc"], "cpus": raw["cpus"],
        "build_type": raw["build_type"],
        "modbd_flags": raw["modbd_flags"],
        "merge_interval_ms": raw["merge_interval_ms"],
        "phase_s": raw["phase_s"],
        "fail_ratio": fail_ratio, "failures": failures, "problems": problems,
        "host_steal_s": (M.host_steal_seconds(raw["after"]["host_stat"])
                         - M.host_steal_seconds(raw["before"]["host_stat"])),
        "samples": {}, "detail": {}, "layers": {},
    }
    if "ingest" in raw:
        d = M.metrics_delta(raw["before"]["metrics"], raw["after"]["metrics"])
        record["merges"] = d["counters"].get("index.delta.merges", 0)
    values = end_to_end(raw, record)
    if trace:
        values = per_layer(raw, spans, record)
    record["flags"] = sorted(
        name for name, n in record["samples"].items()
        if isinstance(n, dict) and n["beyond"] < 10)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in sorted(values.items())},
    }
    return result, record


# ---------------------------------------------------------------------------
# Steadiness report.


def report(build_dir, workloads, runs, seconds, trace):
    summary = {}
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            t0 = time.monotonic()
            result, record = run_once(build_dir, workload, seed, seconds, trace)
            log("%s seed %d: correct=%s failed=%d/%d flags=%s steal=%.2f s "
                "(%.1f s)" % (workload, seed, result["correct"], result["failed"],
                              result["attempted"], record["flags"],
                              record["host_steal_s"], time.monotonic() - t0))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The per-kind and one-workload figures behind the metrics.
            for part in ("detail", "layers"):
                for name, v in record[part].items():
                    values.setdefault(part + "." + name, []).append(v)
        rows = {}
        print("%s (%d runs)" % (workload, runs))
        print("  %-40s %12s %12s %12s %8s %8s" % (
            "metric", "median", "q1", "q3", "iqr/med", "rng/med"))
        for name, v in sorted(values.items()):
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(v) - min(v)) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "iqr_over_median": iqr, "range_over_median": rng,
                          "values": v}
            print("  %-40s %12.6g %12.6g %12.6g %8.4f %8.4f" % (
                name, med, q1, q3, iqr, rng))
        summary[workload] = rows
    print(json.dumps(summary, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, metavar="N",
                        help="run each workload N times and print the spread")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.report is None and args.workload is None:
        parser.error("--workload is required")
    try:
        build_dir = build()
        if args.report is not None:
            workloads = [args.workload] if args.workload else list(WORKLOADS)
            report(build_dir, workloads, args.report, args.seconds, args.trace)
            return 0
        result, record = run_once(build_dir, args.workload, args.seed,
                                  args.seconds, args.trace)
    except BenchError as e:
        log("perfbench:", e)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
