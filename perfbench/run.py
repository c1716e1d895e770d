#!/usr/bin/env python3
"""Host-performance benchmark for poat.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload, or "all" to run every workload in turn.

Builds perfbench/ (the poat libraries plus the poat_perfbench driver)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, runs the workload, prints a report with every metric
by name and unit, and ends the workload's report with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer
metrics of the traced run. Workloads, metrics and predictions are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

WORKLOADS = ("paper_fig9a", "replay_polb", "crash_btree", "mtpcc_cores")

# Paper reference for each sim_speedup; None = no reference.
REFERENCE = {
    "paper_fig9a": 1.96,  # in-order RANDOM Pipelined (paper Fig. 9a)
    "replay_polb": 1.58,  # OoO RANDOM Pipelined (paper Fig. 9b)
    "mtpcc_cores": None,
    "crash_btree": None,
}

# Source files whose content identifies the measured program.
DIGEST_ROOTS = ("src", "perfbench", "bench/bench_util.h", "bench/golden")

# Harness exit deadline, below the 180 s a run may take.
HARNESS_TIMEOUT_S = 170

HOST_MODULES = {
    "pmem_workloads": "pmem (incl. pmem/concurrent) + workloads",
    "sim": "sim",
    "trace_io": "trace_io",
    "fault": "fault",
    "residual": "residual (benchmark glue between calls, driver "
                "plumbing not split out, clamped derived splits)",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return a


def build():
    """Configure and build poat_perfbench; return its path."""
    for f in ("perfbench/CMakeLists.txt", "perfbench/harness.cc",
              "src/CMakeLists.txt", "bench/bench_util.h"):
        if not os.path.isfile(f):
            fail("run from the root of a poat checkout (missing %s)" % f)
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "poat_perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "poat_perfbench")
    if not os.path.isfile(exe):
        fail("build produced no " + exe)
    return bdir, exe


def manifest(args, harness_manifest, params):
    m = {"seed": args.seed, "workload": args.workload,
         "seconds": args.seconds, "trace": args.trace}
    m.update(harness_manifest)
    try:
        git = lambda *a: subprocess.run(("git",) + a, capture_output=True,
                                        text=True)
        top = git("rev-parse", "--show-toplevel")
        # Only the checkout's own repository, not one enclosing it.
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), "."):
            m["git_sha"] = git("rev-parse", "HEAD").stdout.strip()
            m["git_dirty"] = bool(git("status", "--porcelain").stdout.strip())
    except OSError:
        pass
    m.setdefault("git_sha", "unavailable (not a git checkout)")
    m.setdefault("git_dirty", "unknown")
    h = hashlib.sha256()
    for top in DIGEST_ROOTS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    m["source_sha256"] = h.hexdigest()
    m["params"] = params
    return m


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100, n
    return v[n - 11], math.floor(100.0 * (n - 10) / n), n


def end_to_end(res, out):
    t = res["timed"]
    setup = statistics.median(res["setup_s"])
    busy = t["busy_s"]
    p50 = statistics.median(t["unit_ms"])
    tl, pct, n = tail(t["unit_ms"])
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(t["pass_s"]), "s"),
        "runs_per_s": (t["work"] / busy, "1/s"),
        "exp_ms_p50": (p50, "ms"),
        "exp_ms_tail": (tl, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    out("setup: %d repetitions, median %.4f s (each: %s)" % (
        len(res["setup_s"]), setup,
        ", ".join("%.4f" % s for s in res["setup_s"])))
    out("timed phase: %d units in %.3f s busy, %d complete pass(es)" % (
        len(t["unit_ms"]), busy, len(t["pass_s"])))
    out("exp_ms_tail is p%d over %d samples" % (pct, n))
    return metrics, busy


def print_metric(out, name, value, unit, note=""):
    out("  %-32s %16.6g %-6s %s" % (name, value, unit, note))


def main():
    args = parse_args()
    bdir, exe = build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        run(args, bdir, exe)


def run(args, bdir, exe):
    """Run one workload; print its report and result line."""
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(bdir, "spans-%s-%d.jsonl" % (args.workload,
                                                           args.seed))
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", result_path, "--spans", spans_path, "--work-dir", work]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    if r.returncode != 0 or not os.path.isfile(result_path):
        fail("harness failed with exit code %d" % r.returncode)
    with open(result_path) as f:
        res = json.load(f)

    out = print
    params = {k: v for k, v in res.items()
              if k not in ("timed", "checks", "layers", "manifest",
                           "setup_s", "peak_rss_mb", "sim_speedup",
                           "sim_speedup_golden", "spans")}
    man = manifest(args, res["manifest"], params)
    out("== poat perfbench: %s, seed %d, trace %d ==" % (
        args.workload, args.seed, args.trace))
    out("manifest: " + json.dumps(man, sort_keys=True))

    checks = res["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    for why in checks["failures"]:
        out("CHECK FAILED: " + why)

    metrics = {}
    if args.trace == 0:
        e2e, busy = end_to_end(res, out)
        metrics.update(e2e)
        out("end-to-end metrics (tracing off):")
        for name, (v, unit) in e2e.items():
            print_metric(out, name, v, unit)
        t = res["timed"]
        if t["insns"] > 0:
            print_metric(out, "sim_mips", t["insns"] / busy / 1e6, "MIPS",
                         "simulated instructions per host second")
        if args.workload == "crash_btree":
            print_metric(out, "trials_per_s", t["work"] / busy, "1/s",
                         "outer + in-recovery crash trials")
        print_metric(out, "fail_frac", failed / max(attempted, 1),
                     "ratio", "%d of %d checks failed" % (failed,
                                                          attempted))
        if "sim_speedup" in res:
            sp = res["sim_speedup"]
            ref = REFERENCE[args.workload]
            note = "[%s] " % res.get("speedup_label", "")
            if ref is None:
                note += "no reference — unvalidated"
            else:
                note += "paper %.2fx, error %+.1f%%" % (
                    ref, 100.0 * (sp - ref) / ref)
            if "sim_speedup_golden" in res:
                note += "; golden %.6gx" % res["sim_speedup_golden"]
            print_metric(out, "sim_speedup", sp, "x", note)
    else:
        layers = res["layers"]
        out("per-layer metrics (traced run; 0 = layer not on this "
            "workload's path):")
        for name in sorted(layers):
            unit = layer_unit(name)
            print_metric(out, name, layers[name], unit)
            metrics[name] = (layers[name], unit)
        wall = layers["trace.wall_s"]
        total = 0.0
        out("layer accounting of the traced phase (self time, s):")
        for key, label in HOST_MODULES.items():
            v = layers["layer.%s.self_s" % key]
            total += v
            out("  %-10s %10.4f  %5.1f%%  %s" % (key, v, 100 * v / wall,
                                                 label))
        out("  sum %.4f s = traced wall_s %.4f s (difference %.2e s)" % (
            total, wall, total - wall))
        out("tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s "
            "(%+.2f%%) over %d spans" % (
                wall, layers["trace.untraced_wall_s"],
                layers["trace.overhead_s"],
                100 * layers["trace.overhead_s"] /
                layers["trace.untraced_wall_s"], res.get("spans", 0)))
        out("modules with no timed boundary: common (below every "
            "boundary), report (off the timed path), telemetry (off)")
        out("spans written to " + spans_path)

    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def layer_unit(name):
    if name.endswith("_ms_per_mb"):
        return "ms/MB"
    if name.endswith("_ns_per_insn"):
        return "ns/insn"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_created"):
        return "MB"
    if name.endswith("bytes_per_insn"):
        return "B/insn"
    if name.startswith("sim.cpi."):
        return "cycles/insn"
    if name.endswith(("_frac", "_rate", "_efficiency")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    main()
