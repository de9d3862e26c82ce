#!/usr/bin/env python3
"""Repository benchmark for the NoRD simulator (see README.md).

Usage, from the root of a checkout:

    python3 nordbench/run.py --workload parsec_4x4 --seed 1 --seconds 30 --trace 0
    python3 nordbench/run.py --self-test [--seed 1]

The first call builds nordbench/ (the simulator library plus the
nordbench executor) with CMake into .bench_build/nordbench. The script
turns the seed into simulation points, hands only those points to the
executor, and reduces its output to the metrics named in BENCHMARK.json.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics and writes the traced passes' spans as Chrome
trace-event JSON to .bench_build/nordbench/trace-<workload>-<seed>.json.
--self-test runs one pass of every workload and cross-checks each point
against bench_util.hh's runParsec and campaign::runPointWorker.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seed reserved for confirming a claimed gain after tuning on others.
HELD_OUT_SEED = 20121201

DESIGNS = ("No_PG", "Conv_PG", "Conv_PG_OPT", "NoRD")
PARSEC = ("blackscholes", "bodytrack", "canneal", "dedup", "ferret",
          "fluidanimate", "raytrace", "swaptions", "vips", "x264")

# Paper references for paper_latency_err_pp.
PAPER_FIG11_NORD_PCT = 15.2    # Fig. 11: NoRD latency vs No_PG, PARSEC 4x4
PAPER_FIG15_NORD_CYCLES = 44.0  # Fig. 15: NoRD latency, uniform 0.10, 8x8
PAPER_FIG15_NOPG_CYCLES = 36.0  # Fig. 15: No_PG latency, uniform 0.10, 8x8


def point(design, size, workload, seed, rate=0.0, measure=0,
          fault_rate=0.0, ckpt_every=0):
    return (f"{design} {size} {size} {workload} {rate!r} {seed} {measure} "
            f"{fault_rate!r} {ckpt_every}")


def input_sets(make, seed, count=64):
    """Executor input: `count` sets of points, numbered in order."""
    rng = random.Random(seed)
    return [f"{k} {line}" for k in range(count) for line in make(rng)]


def parsec_4x4(rng):
    """10 PARSEC models x 4 designs, 4x4, closed loop to completion."""
    points = []
    for name in PARSEC:
        seed = rng.randrange(1, 2**31)  # shared by the four designs
        points += [point(d, 4, "parsec:" + name, seed) for d in DESIGNS]
    return points


def campaign_8x8(rng):
    """One faulted resilience point with auditor and checkpoints."""
    return [point("NoRD", 8, "uniform", rng.randrange(1, 2**31), rate=0.10,
                  measure=12000, fault_rate=1e-4, ckpt_every=500)]


def sweep_10x10(rng):
    """{No_PG, NoRD} x {0.02, 0.12} open loop on 10x10, then drain."""
    seeds = {rate: rng.randrange(1, 2**31) for rate in (0.02, 0.12)}
    return [point(d, 10, "uniform", seeds[rate], rate=rate, measure=2500)
            for d in ("No_PG", "NoRD") for rate in (0.02, 0.12)]


def mean_latency(points, design):
    return statistics.fmean(p["latency"] for p in points
                            if p["design"] == design)


def parsec_paper_err(points):
    """Fig. 11: mean over models of NoRD latency / No_PG latency - 1."""
    base = {(p["set"], p["workload"]): p["latency"] for p in points
            if p["design"] == "No_PG"}
    incr = [p["latency"] / base[p["set"], p["workload"]] - 1.0
            for p in points if p["design"] == "NoRD"]
    return abs(100.0 * statistics.fmean(incr) - PAPER_FIG11_NORD_PCT)


def campaign_paper_err(points):
    """Fig. 15: NoRD latency at 0.10 on 8x8 against the paper's 44."""
    lat = mean_latency(points, "NoRD")
    return abs(100.0 * (lat / PAPER_FIG15_NORD_CYCLES - 1.0))


def sweep_paper_err(points):
    """NoRD-vs-No_PG latency increase against Fig. 15's 64-node one.

    The paper has no 100-node figure; its 64-node uniform sweep at 0.10
    (44 vs 36 cycles) is the nearest reference.
    """
    ours = mean_latency(points, "NoRD") / mean_latency(points, "No_PG")
    paper = PAPER_FIG15_NORD_CYCLES / PAPER_FIG15_NOPG_CYCLES
    return abs(100.0 * (ours - paper))


# name: (one input set, paper_latency_err_pp, input sets reported per run)
WORKLOADS = {
    "parsec_4x4": (parsec_4x4, parsec_paper_err, 4),
    "campaign_8x8": (campaign_8x8, campaign_paper_err, 8),
    "sweep_10x10": (sweep_10x10, sweep_paper_err, 4),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "nordbench"


def build(out):
    """Configure and build the executor (incrementally); returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target", "nordbench",
                 "-j", jobs]):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=840, check=False)
        if res.returncode != 0:
            raise SystemExit(f"nordbench: build step failed: {' '.join(cmd)}")
    return out / "nordbench"


def execute(exe, points, seconds, sets, scratch, trace_file=None,
            self_test=False):
    cmd = [str(exe), "--seconds", str(seconds), "--sets", str(sets),
           "--scratch", str(scratch)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    if self_test:
        cmd.append("--self-test")
    env = {k: v for k, v in os.environ.items() if k != "NORD_QUICK"}
    res = subprocess.run(cmd, input="\n".join(points) + "\n",
                         capture_output=True, text=True, env=env,
                         timeout=170, check=False)
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise SystemExit(f"nordbench: executor exited {res.returncode}")
    return json.loads(res.stdout)


def median(values):
    return statistics.median(list(values))


def per_op_ms(passes, key):
    ops = [s for p in passes for s in p[key]]
    return 1e3 * median(ops) if ops else 0.0


def end_to_end(out, paper_err):
    passes = [p for p in out["passes"] if not p["traced"]]
    pts = out["points"]
    sets = len({p["set"] for p in pts})
    created = sum(p["created"] for p in pts)
    return {
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "sim_cycles_per_s": (median(p["cycles"] / p["sim_s"]
                                    for p in passes), "1/s"),
        "peak_rss_mib": (out["peak_rss_mib"], "MiB"),
        "sim_latency_cycles": (statistics.fmean(p["latency"] for p in pts),
                               "cycles"),
        "sim_exec_cycles": (statistics.fmean(p["cycles"] for p in pts),
                            "cycles"),
        "sim_static_energy_uj": (1e6 * sum(p["static_j"] for p in pts) /
                                 sets, "uJ"),
        "delivered_fraction": (sum(p["delivered"] for p in pts) / created,
                               "fraction"),
        "paper_latency_err_pp": (paper_err(pts), "pp"),
    }


def per_layer(out):
    """Per-layer metrics; counts are per input set (one job)."""
    traced = [p for p in out["passes"] if p["traced"]]
    untraced = [p for p in out["passes"] if not p["traced"]]
    pts = out["points"]
    sets = len({p["set"] for p in pts})

    def total(key):
        return sum(p[key] for p in pts)

    def traced_median(fn):
        return median(fn(p) for p in traced)

    cycles = total("cycles")
    state_cycles = total("state_cycles")
    ckpt = [p["ckpt_bytes"] for p in pts if p["ckpt_bytes"]]
    m = {
        "topology.criticality_s": (traced_median(
            lambda p: p["criticality_s"]), "s"),
        "network.construct_s": (traced_median(lambda p: p["construct_s"]),
                                "s"),
        "sim.run_s": (traced_median(lambda p: p["sim_s"]), "s"),
    }
    for d in DESIGNS:
        m[f"sim.run_s.{d}"] = (traced_median(
            lambda p, d=d: p["sim_s_by_design"].get(d, 0.0)), "s")
    m.update({
        "sim.ticks_per_cycle": (total("ticked") / cycles, "ticks/cycle"),
        "sim.skip_fraction": (total("skipped") /
                              (total("ticked") + total("skipped")),
                              "fraction"),
        "common.allocs_per_cycle": (total("sim_allocs") / cycles,
                                    "allocs/cycle"),
        "router.xbar_per_cycle": (total("xbar") / cycles, "flits/cycle"),
        "router.grants_per_cycle": (total("grants") / cycles,
                                    "grants/cycle"),
        "router.host_ns_per_xbar": (traced_median(
            lambda p: 1e9 * p["sim_s"] / max(1, p["xbar"])), "ns"),
        "ni.bypass_forwards_per_cycle": (total("bypass_forwards") / cycles,
                                         "flits/cycle"),
        "powergate.wakeups": (total("wakeups") / sets, "count"),
        "powergate.off_fraction": (total("off_cycles") / state_cycles
                                   if state_cycles else 0.0, "fraction"),
        "verify.periodic_sweeps": (total("periodic_sweeps") / sets, "count"),
        "verify.transition_sweeps": ((total("sweeps") -
                                      total("periodic_sweeps")) / sets,
                                     "count"),
        "verify.sweep_us": (traced_median(lambda p: 1e6 * p["sweep_s"]),
                            "us"),
        "verify.est_share": (traced_median(
            lambda p: p["sweeps"] * p["sweep_s"] / p["sim_s"]), "fraction"),
        "fault.injected": (total("injected") / sets, "count"),
        "fault.e2e_retransmits": (total("retransmits") / sets, "count"),
        "fault.e2e_timeouts": (total("timeouts") / sets, "count"),
        "fault.e2e_nacks": (total("nacks") / sets, "count"),
        "ckpt.save_ms": (per_op_ms(traced, "save_s"), "ms"),
        "ckpt.load_ms": (per_op_ms(traced, "load_s"), "ms"),
        "ckpt.hash_ms": (per_op_ms(traced, "hash_s"), "ms"),
        "ckpt.bytes": (median(ckpt) if ckpt else 0, "B"),
        "trace.overhead_pct": (100.0 * (median(p["wall_s"] for p in traced) /
                                        median(p["wall_s"] for p in untraced)
                                        - 1.0), "%"),
    })
    coverage = min(p["covered_s"] / p["wall_s"] for p in traced)
    log(f"nordbench: top-level spans cover {100 * coverage:.2f}% of the "
        "traced wall time")
    return m


def self_test(exe, seed, scratch):
    ok = True
    for name, (make, _, _) in WORKLOADS.items():
        out = execute(exe, input_sets(make, seed, 1), 0, 1, scratch,
                      self_test=True)
        good = out["failed"] == 0 and out["cross_check"] is True
        log(f"nordbench self-test {name} seed {seed}: "
            f"{'ok' if good else 'FAILED'} ({out['attempted']} points, "
            f"{out['failed']} failed, cross-check {out['cross_check']})")
        ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out_dir = build_dir()
    exe = build(out_dir)
    scratch = out_dir / "scratch"
    if args.self_test:
        return 0 if self_test(exe, args.seed, scratch) else 1

    make, paper_err, sets = WORKLOADS[args.workload]
    trace_file = None
    if args.trace:
        # Each traced set runs twice (untraced, traced): half the sets.
        sets = max(1, sets // 2)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
    out = execute(exe, input_sets(make, args.seed), args.seconds, sets,
                  scratch, trace_file)
    metrics = per_layer(out) if args.trace else end_to_end(out, paper_err)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
