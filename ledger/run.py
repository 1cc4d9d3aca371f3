#!/usr/bin/env python3
"""End-to-end performance ledger: one workload, one run.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds ledger_harness (the blackwatch
libraries from src/ plus ledger/harness.cpp, RelWithDebInfo) under
$CARGO_TARGET_DIR/ledger (default .bench_build/ledger), runs the workload,
prints a readable account and, as the last line, the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass and the layer probes (see ledger/README.md), and writes
the spans to $CARGO_TARGET_DIR/ledger-out/trace_<workload>_seed<N>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing behind under ledger/
sys.path.insert(0, HERE)

import ledger_stats  # noqa: E402

WORKLOADS = ("analyze_inram", "analyze_ooc", "replay_rolling")
DEFAULT_SEED = 7
# Set-up runs this many times, each in its own process; setup_s and
# setup_rss_mb are their medians.
SETUPS = 3
# Every process of one run must end within this many seconds.
TIME_LIMIT_S = 170

# Per-layer metrics every traced run reports, with their units.
PER_LAYER = [
    ("gen.prepare_ms", "ms"),
    ("gen.plan_ms", "ms"),
    ("gen.slices_ms", "ms"),
    ("gen.merge_ms", "ms"),
    ("gen.dataset_ms", "ms"),
    ("gen.flows", "count"),
    ("store.save_ms", "ms"),
    ("store.file_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.chunks", "count"),
    ("store.decode_all_ms", "ms"),
    ("store.decode_chunk_ms", "ms"),
    ("store.decodes", "count"),
    ("store.pruned", "count"),
    ("store.decodes_per_chunk", "ratio"),
    ("core.load_ms", "ms"),
    ("core.open_chunked_ms", "ms"),
    ("core.resident_bytes_per_flow", "B/flow"),
] + [
    ("core.stage.%s_ms" % s, "ms")
    for s in ("summary", "event_merge", "pre_rtbh", "drop_rate",
              "protocol_mix", "filtering", "participation", "port_stats",
              "radviz", "collateral", "classify", "whatif", "render")
] + [
    ("kernel.%s.scan_rows" % k, "count")
    for k in ("anomaly", "classify", "collateral", "drop_rate", "filtering",
              "port_stats", "protocol_mix", "summary")
] + [
    ("stream.batch_replay_ms", "ms"),
    ("stream.replay_ms", "ms"),
    ("stream.rolling_ms", "ms"),
    ("stream.snapshot_p50_ms", "ms"),
    ("stream.snapshot_p90_ms", "ms"),
    ("stream.snapshot_bytes", "bytes"),
    ("stream.finish_ms", "ms"),
    ("stream.delivered", "count"),
    ("stream.shed", "count"),
    ("stream.late_dropped", "count"),
    ("trace.pass_ms", "ms"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_ms", "ms"),
]


def bench_dir(root):
    """Where the ledger builds and writes: $CARGO_TARGET_DIR, else
    .bench_build, under the checkout root."""
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(root):
    """Configure once, then build the harness; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("ledger: %s has no src/ tree; run from a full checkout" % root)
    out = os.path.join(bench_dir(root), "ledger")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "ledger_harness"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("ledger: build failed (%s)" % log_path)
    return os.path.join(out, "ledger_harness")


def scenario_seed(workload, seed):
    """The corpus seed --seed stands for: itself when it is in the
    workload's pool of qualified seeds (ledger/seeds.json), else the pool
    entry at seed mod pool length."""
    with open(os.path.join(HERE, "seeds.json")) as f:
        pool = json.load(f)[workload]
    return seed if seed in pool else pool[seed % len(pool)]


def pins_for(workload, seed):
    """Digests recorded for the default scenario seed (ledger/pins.json)."""
    if seed != DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f).get(workload, {})
    return sum((["--pin-" + k, v] for k, v in sorted(pins.items())), [])


def run_harness(binary, args, timeout):
    """Run the harness to completion; returns its raw JSON document."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("ledger: harness timed out")
    if proc.returncode != 0:
        sys.exit("ledger: harness exited %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def measure(binary, workload, seed, seconds, trace, work, extra=(),
            trace_out=None):
    """SETUPS set-up processes, then the run process on their corpus.
    Returns the run's raw document with the set-up samples merged in."""
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--work-dir", work]
    base += list(extra)
    setups = [run_harness(binary, base + ["--phase", "setup"],
                          deadline - time.monotonic())
              for _ in range(SETUPS)]
    args = base + ["--phase", "run", "--seconds", str(seconds),
                   "--trace", str(trace)]
    if trace_out:
        args += ["--trace-out", trace_out]
    raw = run_harness(binary, args, deadline - time.monotonic())
    raw["setup_s"] = [s["setup_s"] for s in setups]
    raw["setup_rss_mb"] = [s["setup_rss_mb"] for s in setups]
    raw["context"]["setups"] = SETUPS
    return raw


def describe(raw):
    ctx = raw["context"]
    print("ledger context: " + json.dumps(ctx, sort_keys=True))
    walls = [p["wall_s"] for p in raw["passes"] if not p["traced"]]
    q1, q3 = ledger_stats.quartiles(walls)
    tail = ledger_stats.tail_percentile(len(walls))
    tail_text = ("p%g %.4f s" % (tail * 100, ledger_stats.percentile(walls, tail))
                 if tail else "none (fewer than %d passes beyond p90)"
                 % ledger_stats.MIN_BEYOND)
    attempted, failed, frac = ledger_stats.verdict(raw)
    print("passes: %d timed, median %.4f s, quartiles %.4f..%.4f s, tail %s"
          % (len(walls), ledger_stats.median(walls), q1, q3, tail_text))
    print("setup: %s s (median of %d)" % (
        ", ".join("%.3f" % s for s in raw["setup_s"]), len(raw["setup_s"])))
    print("failed_frac: %g (%d of %d passes failed)" % (frac, failed, attempted))
    for i, p in enumerate(raw["passes"]):
        if not p["ok"]:
            print("  pass %d failed: %s" % (i, p["reason"]))
    if any(p["peak_rss_mb"] is None for p in raw["passes"] if not p["traced"]):
        print("peak_rss_mb: missing (/proc/self/clear_refs not writable, "
              "so the peak would include set-up)")


def per_layer(raw, trace_path):
    """Per-layer metrics of a traced run plus the self-time table."""
    layers = dict(raw["layers"])
    ctx = raw["context"]
    walls = [p["wall_s"] for p in raw["passes"] if not p["traced"]]
    pass_ms = ledger_stats.median(walls) * 1000.0
    layers["trace.overhead_ms"] = layers["trace.pass_ms"] - pass_ms
    base = ctx["store_chunks"] + ctx["store_src_chunks"]
    layers["store.decodes_per_chunk"] = layers["store.decodes"] / base
    print("store.decodes_per_chunk = %d decodes / %d chunks (%d dst + %d src)"
          % (layers["store.decodes"], base, ctx["store_chunks"],
             ctx["store_src_chunks"]))
    print("traced pass %.1f ms, untraced pass_s %.1f ms: overhead %.1f ms "
          "(tracing plus the stage overlap run_pipeline has and the serial "
          "chain does not)" % (layers["trace.pass_ms"], pass_ms,
                               layers["trace.overhead_ms"]))
    if "trace.inram_pass_ms" in layers:
        # Chunk decode runs inside the program's kernels, on every pool
        # thread, so its share is judged in CPU time: cold decodes times
        # the cost of one cold dst-chunk decode, against the CPU the
        # out-of-core pass spends beyond an in-RAM analysis of the file.
        cpu_ms = ledger_stats.median(
            [p["cpu_s"] for p in raw["passes"] if not p["traced"]]) * 1000.0
        gap_cpu = cpu_ms - layers["trace.inram_cpu_ms"]
        decode_ms = layers["store.decodes"] * layers["store.decode_chunk_ms"]
        print("out-of-core pass %.0f ms wall / %.0f ms CPU; in-RAM analysis "
              "of the same file %.0f ms wall / %.0f ms CPU; gap %.0f ms wall "
              "/ %.0f ms CPU" % (pass_ms, cpu_ms, layers["trace.inram_pass_ms"],
                                 layers["trace.inram_cpu_ms"],
                                 pass_ms - layers["trace.inram_pass_ms"], gap_cpu))
        print("chunk decode: %d decodes x %.2f ms (one cold dst chunk) = "
              "%.0f ms CPU = %.0f%% of the CPU gap"
              % (layers["store.decodes"], layers["store.decode_chunk_ms"],
                 decode_ms, 100.0 * decode_ms / gap_cpu))
    with open(trace_path) as f:
        spans = json.load(f)["traceEvents"]
    root = [s for s in spans if s["cat"] == "ledger" and s["name"] == "pass"][0]
    selfs = ledger_stats.self_times(spans, root["args"]["id"])
    total = sum(selfs.values())
    print("self time of the traced pass (sums to its %.1f ms wall):" % (root["dur"] / 1000.0))
    for (layer, name), ms in sorted(selfs.items(), key=lambda kv: -kv[1]):
        label = "unaccounted" if (layer, name) == ("ledger", "pass") else name
        print("  %-8s %-24s %10.1f ms %6.1f%%" % (layer, label, ms, 100.0 * ms / total))
    missing = [n for n, _ in PER_LAYER if n not in layers]
    if missing:
        sys.exit("ledger: traced run did not report " + ", ".join(missing))
    return {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    work = os.path.join(bench_dir(root), "ledger-work",
                        "%s-%d" % (args.workload, os.getpid()))
    out_dir = os.path.join(bench_dir(root), "ledger-out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace_%s_seed%d.json"
                              % (args.workload, args.seed))
    seed = scenario_seed(args.workload, args.seed)
    print("ledger: workload %s, --seed %d -> scenario seed %d"
          % (args.workload, args.seed, seed))
    try:
        raw = measure(binary, args.workload, seed, args.seconds, args.trace,
                      work, pins_for(args.workload, seed), trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    describe(raw)
    if args.trace:
        metrics = per_layer(raw, trace_path)
        print("trace written to %s" % os.path.relpath(trace_path, root))
    else:
        metrics = ledger_stats.end_to_end(raw)
    print(json.dumps(ledger_stats.result_line(raw, metrics)))


if __name__ == "__main__":
    main()
