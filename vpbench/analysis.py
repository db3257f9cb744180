"""Statistics, correctness gate and metric definitions for vpbench.

The C++ driver (main.cpp) writes raw samples; everything derived from them
lives here so it can be unit-tested without building the simulator
(test_analysis.py).

Timings are summarised per operation kind (one firmware on one engine, or
one fi suite firmware submitted cold or warm) and combined across kinds with
a geometric mean, so a kind that runs twice as long does not weigh twice as
much. A tail is the highest percentile of PERCENTILE_LADDER that still has
at least TAIL_MIN_BEYOND samples above it.

The bounded speed metric, guest_mips.p90, takes each kind's 90th-percentile
per-operation speed (its fast decile) rather than its median. On a shared
host, neighbours slow whole stretches of seconds of a run by up to 40%; a
kind's median follows those stretches (run-to-run spread over ten seeds of
plain-kernels: 31% of the median) while its fast decile is the speed the
host delivers when undisturbed (10%). Normalizing by a host-only
calibration loop timed between operations was tried and tracked the
simulator's slowdowns less well (15%); the simulating thread's CPU time
tracks its wall time within 2% in those stretches, so it is no remedy
either. What differs is which vCPU the loop runs on: at one moment one
vCPU ran the same work at 105 MIPS and another at 188, so the driver moves
the loop from CPU to CPU and the fast decile keeps the undisturbed ones.
Medians and tails of latency are still computed and printed.
"""

import math
import statistics

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
SPEED_PERCENTILE = 90.0

# ------------------------------------------------------------------ stats


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) exactly as statistics.quantiles(values, n=4) gives them;
    a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def geomean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _rank(n, p):
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    s = sorted(values)
    return s[_rank(len(s), p) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it; None when even the median has fewer."""
    for p in PERCENTILE_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def latency_summary(groups):
    """p50 and tail over groups of latencies (one group per kind).

    p50 is the geomean of the per-group medians. The tail pools every
    sample as a ratio to its group's median, takes the tail percentile of
    that pooled distribution (so mixing short and long kinds does not make
    a tail), and scales p50 by it. Returns (p50, tail, percentile, n).
    """
    groups = [g for g in groups if g]
    meds = [median(g) for g in groups]
    p50 = geomean(meds)
    ratios = [v / m for g, m in zip(groups, meds) for v in g]
    p = tail_percentile(len(ratios))
    tail = p50 * percentile(ratios, p) if p is not None else p50
    return p50, tail, (p if p is not None else 50.0), len(ratios)


def speed(groups):
    """Geomean over groups (one per kind) of the SPEED_PERCENTILE-th
    percentile of the group's per-operation speeds."""
    return geomean(percentile(g, SPEED_PERCENTILE) for g in groups if g)


def setup_time(samples):
    """setup_s: the fast decile of a run's set-up samples, which the driver
    takes spread over the whole run and every CPU. The first set-up of a
    process also faults in its heap, and a CPU shared with another tenant
    runs slow for seconds; back-to-back reps would all meet the same one
    (28 against 42 ms per process on tainted-kernels)."""
    return percentile(samples, 100.0 - SPEED_PERCENTILE)


# ---------------------------------------------------- kernel workloads

SIM_FIELDS = ("instret", "sim_ps", "exit_code", "uart_bytes", "uart_hash",
              "watchdog_resets")


def taint_problem(workload, engine, stats):
    """The policy-file taint assertion for one VP+ run; None when it holds.

    plain-kernels must never dispatch tainted (permissive classifies
    nothing live), tainted-kernels must dispatch tainted and combine tags,
    and periph-io's live policies must reach the dispatcher.
    """
    tv = stats["tainted_variant_hits"]
    if engine == "vpd":
        if tv != 0:
            return "permissive run dispatched %d tainted blocks" % tv
    elif engine == "vpd-live":
        if tv == 0:
            return "live-taint run dispatched no tainted block"
        if workload == "tainted-kernels" and stats["lub_calls"] == 0:
            return "live-taint run made no LUB call"
    return None


def check_kernel_records(doc):
    """Correctness gate: returns (attempted, failures) where failures is a
    list of (record index, reason)."""
    kinds = doc["kinds"]
    records = doc["records"]
    failures = []
    ref_by_program = {}
    ref_stats_by_kind = {}
    for i, r in enumerate(records):
        kind = kinds[r["kind"]]
        why = None
        if r["error"]:
            why = "crash: " + r["error"]
        elif r["reason"] != "exit" or r["exit_code"] != 0:
            why = "ended %s with code %d" % (r["reason"], r["exit_code"])
        else:
            ref = ref_by_program.setdefault(kind["program"], r)
            for f in SIM_FIELDS:
                if r[f] != ref[f]:
                    why = "%s differs from the program's first run" % f
                    break
        if why is None:
            ref_stats = ref_stats_by_kind.setdefault(r["kind"], r["stats"])
            if r["stats"] != ref_stats:
                why = "engine counters differ across reps"
        if why is None:
            why = taint_problem(doc["workload"], kind["engine"], r["stats"])
        if why is not None:
            failures.append((i, why))
    return len(records), failures


def loop_records(doc, traced):
    return [r for r in doc["records"][doc["reference_records"]:]
            if r["traced"] == traced]


def by_kind(records):
    groups = {}
    for r in records:
        groups.setdefault(r["kind"], []).append(r)
    return groups


def median_mips(rs):
    return rs[0]["instret"] / median([r["seconds"] for r in rs]) / 1e6


def kernel_e2e(doc, records):
    """End-to-end metrics of a kernel workload over `records`."""
    kinds = doc["kinds"]
    groups = by_kind(records)
    head = [groups[k] for k in sorted(groups) if kinds[k]["headline"]]
    p50, tail, p, n = latency_summary(
        [[r["seconds"] * 1e3 for r in rs] for rs in head])
    return {
        "guest_mips": geomean(median_mips(rs) for rs in head),
        "guest_mips.p90": speed(
            [[r["instret"] / r["seconds"] / 1e6 for r in rs] for rs in head]),
        "op_ms.p50": p50,
        "op_ms.tail": tail,
        "_tail_percentile": p,
        "_samples": n,
    }


def engine_mips(doc, records):
    """Geomean of median MIPS per engine — vp_mips / vpd_mips."""
    kinds = doc["kinds"]
    groups = by_kind(records)
    out = {}
    for engine in ("vp", "vpd", "vpd-live"):
        ks = [k for k in groups if kinds[k]["engine"] == engine]
        if ks:
            out[engine] = geomean(median_mips(groups[k]) for k in ks)
    return out


# --------------------------------------------------------- fi-service


# simple-sensor's suite retires under 2% of qsort's instructions; its
# latency is per-job set-up, snapshot restore and IPC, so its "MIPS" follows
# the faults a seed draws (1.1 to 1.6 across seeds) rather than the
# service's speed. It is submitted and checked like the others.
FI_SPEED_FIRMWARE = ("qsort", "rtos-tasks")


def sub_latency(s):
    return s["done"] - s["start"]


def check_submissions(doc):
    """Correctness gate of fi-service: returns (attempted, failures)."""
    subs = doc["submissions"]
    errors = doc["pair_errors"]
    failures = []
    for i, s in enumerate(subs):
        why = None
        if s["error"]:
            why = "error: " + s["error"]
        elif not s["ok"]:
            why = "report not ok"
        elif s["events"] != s["jobs"] or s["jobs"] != doc["faults_per_suite"]:
            why = "%d job events for %d jobs" % (s["events"], s["jobs"])
        elif i // 2 < len(errors) and errors[i // 2]:
            why = errors[i // 2]
        elif not s["warm"]:
            if s["service"]["golden_cache_misses"] < 1:
                why = "cold submission hit the golden cache"
        else:
            cold = subs[i - 1]["service"]
            warm = s["service"]
            if warm["golden_cache_hits"] < 1:
                why = "warm resubmission missed the golden cache"
            elif warm["snapshot_misses"] != 0:
                why = "warm resubmission missed %d snapshots" % (
                    warm["snapshot_misses"])
            elif warm["executed_instret"] >= cold["executed_instret"]:
                why = "warm resubmission retired no fewer instructions"
        if why is not None:
            failures.append((i, why))
    attempted = len(subs)
    if doc["driver_error"] or not subs:
        attempted += 1
        failures.append((-1, "driver: " + (doc["driver_error"] or
                                           "no submission completed")))
    return attempted, failures


def sub_groups(subs):
    """Submissions grouped by (firmware, cold|warm), in a stable order."""
    groups = {}
    for s in subs:
        groups.setdefault((s["fw"], s["warm"]), []).append(s)
    return [groups[k] for k in sorted(groups)]


def fi_e2e(doc, subs):
    """The service's speed is the suite's fixed work — what a full replay
    of its faults retires — per second of submission latency. The
    instructions the service actually executes would fall with every fork
    or cache improvement and make such a win read as a slowdown.

    A run submits one suite per firmware over and over (cold to a fresh
    daemon, then warm), so a kind's speeds are samples of one quantity and
    guest_mips.p90 takes their fast decile, as on the kernel workloads.
    Only FI_SPEED_FIRMWARE counts towards the speed; every kind counts
    towards the latencies.
    """
    groups = sub_groups(subs)
    p50, tail, p, n = latency_summary(
        [[sub_latency(s) * 1e3 for s in g] for g in groups])
    rates = [[s["replay_instret"] / sub_latency(s) / 1e6
              for s in g if s["replay_instret"]]
             for g in groups if g[0]["fw"] in FI_SPEED_FIRMWARE]
    return {
        "guest_mips": geomean(median(r) for r in rates if r),
        "guest_mips.p90": speed(rates),
        "op_ms.p50": p50,
        "op_ms.tail": tail,
        "_tail_percentile": p,
        "_samples": n,
    }


def fi_user_metrics(subs):
    """The service's user-facing numbers: submit latency and fault rate."""
    out = {}
    for warm, name in ((False, "cold_submit_s"), (True, "warm_submit_s")):
        groups = [g for g in sub_groups(subs) if g[0]["warm"] == warm]
        p50, tail, p, n = latency_summary(
            [[sub_latency(s) for s in g] for g in groups])
        out[name + ".p50"] = p50
        out[name + ".tail"] = tail
        out[name + "._tail"] = "p%g of %d" % (p, n)
    # The closed loop is busy exactly while a submission is outstanding.
    out["faults_per_s"] = (sum(s["jobs"] for s in subs) /
                           sum(sub_latency(s) for s in subs))
    return out


# ------------------------------------------------------ per-layer names

ALL_PROGRAMS = ("qsort", "dhrystone", "primes", "sha512", "sha256", "crc32",
                "matmul", "rtos-tasks", "simple-sensor", "immo-fixed")
KERNEL_KINDS = {
    "plain-kernels": [(p, e) for p in ALL_PROGRAMS[:8] for e in ("vp", "vpd")],
    "tainted-kernels": [(p, e) for p in ("sha512", "sha256", "rtos-tasks")
                        for e in ("vpd", "vpd-live")],
    "periph-io": [(p, e) for p in ("simple-sensor", "immo-fixed")
                  for e in ("vp", "vpd-live")],
}
TAG_COST_PROGRAMS = ("sha512", "sha256", "rtos-tasks")

COUNTERS = {
    # name: (DiftStats field, unit, better)
    "rv.block_hits": ("block_hits", "count", "higher"),
    "rv.block_misses": ("block_misses", "count", "lower"),
    "rv.block_invalidations": ("block_invalidations", "count", "lower"),
    "rv.chained_transfers": ("chained_transfers", "count", "higher"),
    "rv.superblock_hits": ("superblock_hits", "count", "higher"),
    "rv.superblock_transfers": ("superblock_transfers", "count", "higher"),
    "rv.decode_misses": ("decode_misses", "count", "lower"),
    "dift.tainted_variant_hits": ("tainted_variant_hits", "count", "lower"),
    "dift.plain_variant_hits": ("plain_variant_hits", "count", "higher"),
    "dift.variant_promotions": ("variant_promotions", "count", "lower"),
    "dift.lub_calls": ("lub_calls", "count", "lower"),
    "dift.flow_checks": ("flow_checks", "count", "lower"),
    "dift.load_summary_hits": ("load_summary_hits", "count", "higher"),
    "dift.mem_summary_hits": ("mem_summary_hits", "count", "higher"),
    "dift.dma_summary_hits": ("dma_summary_hits", "count", "higher"),
    "tlmlite.bus_transactions": ("bus_transactions", "count", "lower"),
}


def per_layer_spec():
    """Every per-layer metric: list of (name, unit, better). The one list
    BENCHMARK.json's per_layer section must match (see the tests)."""
    spec = [
        ("fw.build_s", "s", "lower"),
        ("dift.policy_parse_s", "s", "lower"),
        ("dift.apply_policy_s", "s", "lower"),
        ("vp.construct_s", "s", "lower"),
        ("vp.load_s", "s", "lower"),
        ("vp.snapshot_s", "s", "lower"),
        ("vp.restore_s", "s", "lower"),
        ("vp.snapshot_mb", "MB", "lower"),
    ]
    seen = set()
    for kinds in KERNEL_KINDS.values():
        for p, e in kinds:
            if (p, e) not in seen:
                seen.add((p, e))
                spec.append(("vp.run_s.%s.%s" % (p, e), "s", "lower"))
    spec += [(name, unit, better)
             for name, (_, unit, better) in COUNTERS.items()]
    spec += [
        ("rv.insns_per_dispatch", "count", "higher"),
        ("dift.tainted_dispatch_share", "ratio", "lower"),
    ]
    spec += [("dift.vpd_over_vp.%s" % p, "ratio", "lower")
             for p in ALL_PROGRAMS]
    spec += [("dift.tag_cost_s.%s" % p, "s", "lower")
             for p in TAG_COST_PROGRAMS]
    spec += [
        ("tlmlite.bus_per_kinsn", "count/kinsn", "lower"),
        ("sysc.sim_s", "s", "lower"),
        ("soc.uart_bytes", "count", "lower"),
        ("soc.watchdog_resets", "count", "lower"),
        ("campaign.job_wall_s.sum", "s", "lower"),
        ("campaign.vp_builds", "count", "lower"),
        ("campaign.vp_reuses", "count", "higher"),
        ("campaign.translation_reuses", "count", "higher"),
        ("fi.golden_instret", "count", "lower"),
        ("fi.tail_instret", "count", "lower"),
        ("fi.replay_instret", "count", "lower"),
        ("fi.snapshots", "count", "lower"),
        ("fi.fork_speedup", "ratio", "higher"),
        ("service.first_result_s", "s", "lower"),
        ("service.tail_s", "s", "lower"),
        ("service.report_kb", "KB", "lower"),
        ("service.golden_cache_hits", "count", "higher"),
        ("service.snapshot_hits", "count", "higher"),
        ("service.snapshot_misses", "count", "lower"),
        ("service.executed_instret.cold", "count", "lower"),
        ("service.executed_instret.warm", "count", "lower"),
        ("service.instret_per_core_s", "1/s", "higher"),
        ("service.warm_cold_instret_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead.op_ms.p50", "ms", "lower"),
        ("trace.overhead.guest_mips", "MIPS", "higher"),
    ]
    return spec


# The bounded end-to-end metrics. op_ms.p50 and op_ms.tail are computed and
# printed but not bounded: on a shared 4-core host their run-to-run spread
# (up to 27% and 38% of the median over five to eight seeds) exceeds any
# bound a gate could use.
E2E_SPEC = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("guest_mips.p90", "MIPS", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def span_medians(spans):
    """Median duration per span name."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s["end"] - s["start"])
    return {k: median(v) for k, v in by.items()}


def ratio(a, b):
    return a / b if b else 0.0


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(doc, untraced_e2e, traced_e2e):
    """Every per-layer metric of one traced run; 0 for layers the workload
    does not exercise."""
    m = {name: 0.0 for name, _, _ in per_layer_spec()}
    spans = span_medians(doc["spans"])
    for name, span in (("fw.build_s", "fw.build"),
                       ("dift.policy_parse_s", "dift.policy_parse"),
                       ("dift.apply_policy_s", "dift.apply_policy"),
                       ("vp.construct_s", "vp.construct"),
                       ("vp.load_s", "vp.load")):
        m[name] = spans.get(span, 0.0)
    probe = doc["probe"]
    m["vp.snapshot_s"] = median(probe["snapshot_s"])
    m["vp.restore_s"] = median(probe["restore_s"])
    m["vp.snapshot_mb"] = probe["snapshot_mb"]
    m["trace.spans"] = len(doc["spans"])
    # Traced and untraced passes alternate within the run, so host load
    # weighs on both alike; still, the difference is only resolved where it
    # exceeds the run-to-run spread of a kind's median.
    for name in ("op_ms.p50", "guest_mips"):
        m["trace.overhead." + name] = traced_e2e[name] - untraced_e2e[name]
    if doc["workload"] == "fi-service":
        fi_layers(doc, m)
    else:
        kernel_layers(doc, m)
    return m


def add_counters(m, stats_list, instret, per=1):
    """Engine counter sums divided by `per`, and the ratios derived from
    them over `instret` retired instructions."""
    tot = {}
    for st in stats_list:
        for k, v in st.items():
            tot[k] = tot.get(k, 0) + v
    for name, (field, _, _) in COUNTERS.items():
        m[name] = tot.get(field, 0) / per
    dispatches = (tot["block_hits"] + tot["block_misses"] +
                  tot["block_invalidations"] + tot["chained_transfers"])
    m["rv.insns_per_dispatch"] = ratio(instret, dispatches)
    m["dift.tainted_dispatch_share"] = ratio(
        tot["tainted_variant_hits"],
        tot["tainted_variant_hits"] + tot["plain_variant_hits"])
    m["tlmlite.bus_per_kinsn"] = ratio(tot["bus_transactions"] * 1e3, instret)


def kernel_layers(doc, m):
    """Kernel-workload layers. Counters are per pass (one run of every
    kind); times are medians over the traced half of the loop."""
    kinds = doc["kinds"]
    groups = by_kind(loop_records(doc, traced=True))
    med = {}
    for k, rs in groups.items():
        key = (kinds[k]["program"], kinds[k]["engine"])
        med[key] = median([r["seconds"] for r in rs])
        m["vp.run_s.%s.%s" % key] = med[key]
    firsts = [rs[0] for rs in groups.values()]
    add_counters(m, [r["stats"] for r in firsts],
                 sum(r["instret"] for r in firsts))
    for p in ALL_PROGRAMS:
        vp = med.get((p, "vp"))
        vpd = med.get((p, "vpd-live"), med.get((p, "vpd")))
        if vp and vpd:
            m["dift.vpd_over_vp.%s" % p] = vpd / vp
    for p in TAG_COST_PROGRAMS:
        if (p, "vpd-live") in med and (p, "vpd") in med:
            m["dift.tag_cost_s.%s" % p] = med[(p, "vpd-live")] - med[(p, "vpd")]
    m["sysc.sim_s"] = sum(r["sim_ps"] for r in firsts) / 1e12
    m["soc.uart_bytes"] = float(sum(r["uart_bytes"] for r in firsts))
    m["soc.watchdog_resets"] = float(sum(r["watchdog_resets"] for r in firsts))


def fi_layers(doc, m):
    """fi-service layers. Engine and fork counters are means per suite of
    the in-process reference runs, service counters means per submission;
    times are medians. Traced half of the loop only."""
    subs = [s for s in doc["submissions"] if s["traced"]]
    fis = [doc["fi"][i // 2] for i, s in enumerate(doc["submissions"])
           if s["traced"] and not s["warm"] and doc["fi"][i // 2]]
    # Each job's counters describe its whole composed run (golden prefix
    # plus tail), so they are per replay instruction.
    replay = sum(f["replay_instret"] for f in fis)
    executed = sum(f["golden_instret"] + f["tail_instret"] for f in fis)
    add_counters(m, [f["stats"] for f in fis], replay, max(1, len(fis)))
    m["campaign.job_wall_s.sum"] = mean(f["job_wall_s"] for f in fis)
    for f in ("golden_instret", "tail_instret", "replay_instret", "snapshots"):
        m["fi." + f] = mean(x[f] for x in fis)
    m["fi.fork_speedup"] = ratio(replay, executed)
    cold = [s["service"] for s in subs if not s["warm"]]
    warm = [s["service"] for s in subs if s["warm"]]
    for f in ("vp_builds", "vp_reuses", "translation_reuses"):
        m["campaign." + f] = mean(s["service"][f] for s in subs)
    m["service.first_result_s"] = median(
        [s["first_event"] - s["start"] for s in subs])
    m["service.tail_s"] = median([s["done"] - s["last_event"] for s in subs])
    m["service.report_kb"] = mean(s["report_bytes"] for s in subs) / 1024.0
    m["service.golden_cache_hits"] = mean(s["golden_cache_hits"] for s in warm)
    m["service.snapshot_hits"] = mean(s["snapshot_hits"] for s in warm)
    m["service.snapshot_misses"] = mean(s["snapshot_misses"] for s in cold)
    cold_x = mean(s["executed_instret"] for s in cold)
    warm_x = mean(s["executed_instret"] for s in warm)
    m["service.executed_instret.cold"] = cold_x
    m["service.executed_instret.warm"] = warm_x
    m["service.warm_cold_instret_ratio"] = ratio(warm_x, cold_x)
    m["service.instret_per_core_s"] = median(
        [s["service"]["executed_instret"] /
         (sub_latency(s) * doc["service_workers"]) for s in subs])
