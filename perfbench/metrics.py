"""Turns perfload's raw samples into the benchmark's metrics.

Everything here is a pure function of perfload's output (raw.json and,
for traced runs, trace.json), so the tests in tests/ can exercise it
without a server.
"""

import json
import math
import os
import statistics

# ---------------------------------------------------------------------------
# Percentiles.


def percentile(values, p):
    """Nearest-rank percentile of `values` (0 < p <= 100).

    Returns (value, beyond): the sample at rank ceil(p/100 * n) of the
    sorted values and the number of samples strictly after that rank.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values):
    return statistics.median(values)


def geomean(values):
    """Geometric mean of positive values: a workload's summary over its
    operation kinds, where each kind weighs the same whatever its cost."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# modbd's GET /metrics document and /proc.


def parse_metrics(text):
    """{'counters': {name: int}, 'histograms': {name: (count, sum)}}."""
    doc = json.loads(text)
    hist = {name: (h["count"], h["sum"])
            for name, h in doc.get("histograms", {}).items()}
    return {"counters": dict(doc.get("counters", {})), "histograms": hist}


def metrics_delta(before_text, after_text):
    """Counter and histogram deltas between two /metrics documents.

    A name absent from `before` counts from zero (counters register on
    first use); a name absent from `after` has a delta of zero.
    """
    before = parse_metrics(before_text)
    after = parse_metrics(after_text)
    counters = {name: value - before["counters"].get(name, 0)
                for name, value in after["counters"].items()}
    hist = {}
    for name, (count, total) in after["histograms"].items():
        c0, s0 = before["histograms"].get(name, (0, 0))
        hist[name] = (count - c0, total - s0)
    return {"counters": counters, "histograms": hist}


def proc_cpu_seconds(stat_text, ticks_per_second=None):
    """utime + stime of a /proc/<pid>/stat line, in seconds."""
    if ticks_per_second is None:
        ticks_per_second = os.sysconf("SC_CLK_TCK")
    # The command name may hold spaces and parentheses; fields resume
    # after its last ')'. utime and stime are fields 14 and 15.
    fields = stat_text[stat_text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / ticks_per_second


def host_steal_seconds(proc_stat_text, ticks_per_second=None):
    """Steal time of the aggregate 'cpu' line of /proc/stat, in seconds:
    time the hypervisor ran something else while this host had work."""
    if ticks_per_second is None:
        ticks_per_second = os.sysconf("SC_CLK_TCK")
    for line in proc_stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) / ticks_per_second
    raise ValueError("no aggregate cpu line")


def proc_peak_rss_mb(status_text):
    """VmHWM of a /proc/<pid>/status document, in MiB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError("unexpected VmHWM unit " + unit)
            return int(value) / 1024.0
    raise ValueError("no VmHWM line")


# ---------------------------------------------------------------------------
# ExecStats trees (obs/exec_stats.h, as carried by each reply).


def exec_root_ms(stats_texts):
    """Median wall time in ms of the root operator over many ExecStats
    trees. Only the root of a reply's tree carries a wall time today;
    its children (pipeline stages, worker chunks) carry counters only."""
    walls = [json.loads(text).get("wall_ns", 0) / 1e6 for text in stats_texts]
    return median(walls) if walls else None


def index_counters(stats_texts):
    """Per-query means of the root's index counters over many ExecStats
    trees (0 where no query probed an index), and, where there were
    candidates, the hit ratio and the root's wall time per candidate (us)."""
    totals = {"index_candidates": 0, "index_hits": 0, "units_scanned": 0,
              "wall_ns": 0}
    queries = 0
    for text in stats_texts:
        root = json.loads(text)
        queries += 1
        for key in totals:
            totals[key] += root.get(key, 0)
    if queries == 0:
        return {}
    out = {
        "candidates_per_query": totals["index_candidates"] / queries,
        "hits_per_query": totals["index_hits"] / queries,
        "units_scanned_per_query": totals["units_scanned"] / queries,
    }
    if totals["index_candidates"] > 0:
        out["hit_ratio"] = totals["index_hits"] / totals["index_candidates"]
        out["refine_us_per_candidate"] = (
            totals["wall_ns"] / 1e3 / totals["index_candidates"])
    return out


# ---------------------------------------------------------------------------
# Spans (perfload's trace.json).


def self_times(spans):
    """Self time in ns of every span: its duration minus the part of it
    its child spans cover (children of one span never overlap)."""
    covered = [0] * len(spans)
    for span in spans:
        parent = int(span["parent"])
        if parent >= 0:
            covered[parent] += span["end_ns"] - span["start_ns"]
    return [span["end_ns"] - span["start_ns"] - covered[i]
            for i, span in enumerate(spans)]


def layer_self_ms(spans):
    """{(kind, span name): median self time in ms}."""
    selfs = self_times(spans)
    groups = {}
    for span, ns in zip(spans, selfs):
        groups.setdefault((span["kind"], span["name"]), []).append(ns / 1e6)
    return {key: median(v) for key, v in groups.items()}


def per_work_ns(spans, name):
    """Median over spans `name` of duration / work (e.g. ns per cell)."""
    values = [(s["end_ns"] - s["start_ns"]) / s["work"]
              for s in spans if s["name"] == name and s["work"] > 0]
    return median(values) if values else None


def unattributed_share(layer_ms, e2e_p50_ms):
    """1 - (sum of the layers' median self times) / end-to-end p50."""
    return 1.0 - sum(layer_ms) / e2e_p50_ms
