"""Statistics and result assembly for the end-to-end ledger.

Pure functions, no I/O: ledger/run.py feeds them the harness's raw
measurements, and ledger/selftest.py checks them.
"""

import math
import statistics

# Tail percentiles considered, highest first.
TAIL_CANDIDATES = (0.999, 0.99, 0.9)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return int(n * (1.0 - p) + 1e-9)


def tail_percentile(n):
    """The highest candidate percentile with MIN_BEYOND samples beyond it
    among n samples, or None when even the lowest has too few."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s), math.ceil(p * len(s))) - 1)]


def self_times(spans, root_id):
    """Self time (ms) of every span in root_id's subtree, keyed by
    (layer, name): duration minus the part its children cover. Children of
    one span are sequential, so the self times sum to the root's duration.
    `spans` are Chrome-trace events with args.id/args.parent."""
    children = {}
    for s in spans:
        children.setdefault(s["args"]["parent"], []).append(s)
    by_id = {s["args"]["id"]: s for s in spans}
    out = {}
    stack = [by_id[root_id]]
    while stack:
        s = stack.pop()
        kids = children.get(s["args"]["id"], [])
        own = (s["dur"] - sum(k["dur"] for k in kids)) / 1000.0
        key = (s["cat"], s["name"])
        out[key] = out.get(key, 0.0) + own
        stack.extend(kids)
    return out


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, from the harness's raw
    document: medians over the set-ups and over the untraced passes.
    peak_rss_mb is left out when a pass's peak could not be reset (null):
    its watermark would still hold the set-up peak."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    metrics = {
        "setup_s": {"value": median(raw["setup_s"]), "unit": "s"},
        "setup_rss_mb": {"value": median(raw["setup_rss_mb"]), "unit": "MB"},
        "pass_s": {"value": median([p["wall_s"] for p in passes]), "unit": "s"},
    }
    peaks = [p["peak_rss_mb"] for p in passes]
    if None not in peaks:
        metrics["peak_rss_mb"] = {"value": median(peaks), "unit": "MB"}
    return metrics


def verdict(raw):
    """(attempted, failed, failed_frac) over every pass the run made."""
    attempted = len(raw["passes"])
    failed = sum(1 for p in raw["passes"] if not p["ok"])
    return attempted, failed, (failed / attempted if attempted else 1.0)


def result_line(raw, metrics):
    attempted, failed, _ = verdict(raw)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
