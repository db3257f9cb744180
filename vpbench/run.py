#!/usr/bin/env python3
"""vpbench — end-to-end benchmark of the VP, the VP+ and the campaign service.

    python3 vpbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the repository's
libraries, vpdift-serve and the driver (vpbench/main.cpp) into
.bench_build/vpbench with CMake (Release). The driver runs the workload as a
closed loop for S seconds and writes raw samples; this script checks them
for correctness, prints a table of every metric with its unit, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end"),
--trace 1 the per-layer ones ("per_layer"). Raw samples, spans and a summary
with host, commit, build type, seed and sample counts are kept in
.bench_build/vpbench-out/. A failed correctness check exits with status 1.

Workloads: plain-kernels, tainted-kernels, periph-io, fi-service (see
main.cpp). Unit tests of the statistics and checks: python3
vpbench/test_analysis.py
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source tree free of __pycache__

import analysis  # noqa: E402

WORKLOADS = ("plain-kernels", "tainted-kernels", "periph-io", "fi-service")
BUILD_DIR = os.path.join(".bench_build", "vpbench")
OUT_DIR = os.path.join(".bench_build", "vpbench-out")
DEADLINE_S = 170  # the driver must finish well inside 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds; the build log stays on disk."""
    os.makedirs(".bench_build", exist_ok=True)
    log_path = os.path.join(".bench_build", "vpbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "vpbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(log_path, "w") as logf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise SystemExit("vpbench: build failed (%s)" % log_path)


def source_identity():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "vpbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_driver(args, out_path, budget_s):
    cmd = [os.path.join(BUILD_DIR, "vpbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    # Own process group, so neither a timeout nor a driver that died early
    # can leave a vpdift-serve daemon behind.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        rc = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if rc is None:
        raise SystemExit("vpbench: driver exceeded %.0f s" % budget_s)
    if rc != 0:
        raise SystemExit("vpbench: driver failed with status %d" % rc)
    with open(out_path) as f:
        return json.load(f)


def e2e_metrics(doc, traced):
    if doc["workload"] == "fi-service":
        subs = [s for s in doc["submissions"] if s["traced"] == traced]
        return analysis.fi_e2e(doc, subs)
    return analysis.kernel_e2e(doc, analysis.loop_records(doc, traced))


def user_metrics(doc):
    """The user-facing numbers named in the benchmark's design, printed for
    people (the bounded end-to-end metrics are derived from the same
    samples)."""
    out = {}
    if doc["workload"] == "fi-service":
        subs = [s for s in doc["submissions"] if not s["traced"]]
        out.update(analysis.fi_user_metrics(subs))
    else:
        mips = analysis.engine_mips(doc, analysis.loop_records(doc, False))
        names = {"vp": "vp_mips", "vpd": "vpd_mips",
                 "vpd-live": "vpd_mips"}
        if "vpd-live" in mips and "vpd" in mips:
            names["vpd"] = "vpd_permissive_mips"
        for engine, v in mips.items():
            out[names[engine]] = v
    return out


UNITS = {"guest_mips": "MIPS", "vp_mips": "MIPS", "vpd_mips": "MIPS",
         "vpd_permissive_mips": "MIPS",
         "faults_per_s": "1/s", "error_rate": "ratio", "op_ms.p50": "ms",
         "op_ms.tail": "ms"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if "_submit_s" in name:
        return "s"
    return ""


def print_program_table(doc, traced):
    """Per-program medians and counters of the kernel workloads."""
    if doc["workload"] == "fi-service":
        return
    kinds = doc["kinds"]
    groups = analysis.by_kind(analysis.loop_records(doc, traced))
    print("%-14s %-9s %4s %19s %11s %7s %9s %8s %9s" % (
        "program", "engine", "n", "ms q1/median/q3", "instret", "MIPS",
        "tainted", "lub", "bus"))
    for k, rs in sorted(groups.items()):
        st = rs[0]["stats"]
        q = analysis.quartiles([r["seconds"] * 1e3 for r in rs])
        print("%-14s %-9s %4d %5.1f/%6.1f/%6.1f %11d %7.1f %9d %8d %9d" % (
            kinds[k]["program"], kinds[k]["engine"], len(rs), q[0], q[1],
            q[2], rs[0]["instret"], analysis.median_mips(rs),
            st["tainted_variant_hits"], st["lub_calls"],
            st["bus_transactions"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    t0 = time.monotonic()
    os.chdir(ROOT)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    doc = run_driver(args, os.path.join(OUT_DIR, stem + ".json"),
                     DEADLINE_S - (time.monotonic() - t0))

    if args.workload == "fi-service":
        attempted, failures = analysis.check_submissions(doc)
    else:
        attempted, failures = analysis.check_kernel_records(doc)

    untraced = e2e_metrics(doc, traced=False)
    metrics = {}
    if args.trace:
        traced = e2e_metrics(doc, traced=True)
        values = analysis.per_layer(doc, untraced, traced)
        spec = [(n, u) for n, u, _ in analysis.per_layer_spec()]
    else:
        values = dict(untraced)
        values["setup_s"] = analysis.setup_time(doc["setup_s"])
        values["peak_rss_mb"] = doc["peak_rss_mb"]
        spec = [(n, u) for n, u, _, _ in analysis.E2E_SPEC]
    for name, unit in spec:
        v = float(values[name])
        if not math.isfinite(v):
            raise SystemExit("vpbench: metric %s is not finite" % name)
        metrics[name] = {"value": v, "unit": unit}

    user = user_metrics(doc)
    user["guest_mips"] = untraced["guest_mips"]
    user["op_ms.p50"] = untraced["op_ms.p50"]
    user["op_ms.tail"] = untraced["op_ms.tail"]
    user["error_rate"] = len(failures) / attempted
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": doc["host"],
        "commit": source_identity(),
        "samples": untraced["_samples"],
        "tail_percentile": untraced["_tail_percentile"],
        "setup_samples": len(doc["setup_s"]),
        "loop_seconds": doc["loop_seconds"],
        "user_metrics": user, "metrics": metrics,
        "failures": failures[:50],
    }
    with open(os.path.join(OUT_DIR, stem + ".summary.json"), "w") as f:
        json.dump(summary, f, indent=1)

    host = doc["host"]
    print("vpbench %s  seed %d  %.1f s loop  trace %d" % (
        args.workload, args.seed, doc["loop_seconds"], args.trace))
    print("host: %d cpus, %s; build %s; commit %s" % (
        host["nproc"], host["cpu"], host["build_type"], summary["commit"]))
    print("samples: %d timed operations (tail = p%g), %d set-up reps" % (
        summary["samples"], summary["tail_percentile"],
        summary["setup_samples"]))
    print_program_table(doc, bool(args.trace))
    for name, v in sorted(user.items()):
        if isinstance(v, str):
            print("  %-34s %s" % (name, v))
        else:
            print("  %-34s %14.6g %s" % (name, v, unit_of(name)))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    for i, why in failures[:20]:
        print("FAILED op %d: %s" % (i, why))

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
