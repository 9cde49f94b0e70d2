#!/usr/bin/env python3
"""The tlpsim benchmark.

    python3 perfbench/run.py --workload sc_sweep|sc_long|mc_mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (an optimized build of
the simulator library plus the benchmark program) under .bench_build/,
then runs the workload in rounds, each round a fresh process that sets
the workload up, simulates every design point and checks every result.

--trace 0 repeats rounds for about --seconds (at least MIN_ROUNDS) and
reports the end-to-end metrics over the rounds: wall_s and sim_mips
pooled over the whole run, the others as medians. --trace 1 runs
one untraced round and one traced round and reports the per-layer
metrics of the traced round, including the tracing overhead against the
untraced round.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. A round fails the run's correctness if any design point
fails its checks or if rounds at one seed disagree on the stats digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "run"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = ("sc_sweep", "sc_long", "mc_mix")
MIN_ROUNDS = 3
MAX_ROUNDS = 20
ROUND_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# name -> unit, in report order. The program prints the values; these
# tables must match BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_mips": "Minstr/s",
    "peak_rss_mb": "MB",
    "tlp_ipc_ratio_pct": "%",
    "tlp_dram_ratio_pct": "%",
}
PER_LAYER = {
    "workloads.graph_s": "s",
    "workloads.record_s": "s",
    "workloads.trace_mb": "MB",
    "workloads.self_s": "s",
    "sim.construct_ms": "ms",
    "sim.point_s_p50": "s",
    "sim.point_s_tail": "s",
    "sim.point_tail_pct": "%",
    "sim.points": "count",
    "sim.host_ns_per_instr": "ns",
    "sim.cycles_per_instr": "cycles",
    "sim.idle_skip_frac": "frac",
    "sim.retired_per_nominal": "ratio",
    "sim.runner_busy_frac": "frac",
    "sim.runner_wait_s": "s",
    "sim.runner_tail_s": "s",
    "sim.self_s": "s",
    "store.save_ms": "ms",
    "store.load_ms": "ms",
    "store.row_kb": "KB",
    "store.self_s": "s",
    "core.host_share": "frac",
    "cache.l1i_host_share": "frac",
    "cache.l1d_host_share": "frac",
    "cache.l2_host_share": "frac",
    "cache.llc_host_share": "frac",
    "mem.host_share": "frac",
    "sim.next_event_share": "frac",
    "offchip.flp_ns": "ns",
    "offchip.slp_ns": "ns",
    "filter.ppf_ns": "ns",
    "prefetch.ipcp_ns": "ns",
    "prefetch.spp_ns": "ns",
    "tlb.translate_ns": "ns",
    "core.bp_ns": "ns",
    "offchip.flp_pki": "1/kinstr",
    "offchip.slp_pki": "1/kinstr",
    "filter.ppf_pki": "1/kinstr",
    "cache.l1d_pf_pki": "1/kinstr",
    "core.loads_pki": "1/kinstr",
    "cache.l1d_miss_pki": "1/kinstr",
    "cache.l1d_miss_per_load": "ratio",
    "cache.llc_miss_pki": "1/kinstr",
    "cache.l1d_pf_accuracy": "frac",
    "offchip.flp_accuracy": "frac",
    "offchip.slp_drop_frac": "frac",
    "offchip.delay_reissue_ratio": "ratio",
    "filter.ppf_reject_frac": "frac",
    "mem.dram_txn_pki": "1/kinstr",
    "mem.row_hit_frac": "frac",
    "mem.spec_useful_frac": "frac",
    "tlb.stlb_miss_pki": "1/kinstr",
    "bench.self_s": "s",
    "bench.trace_overhead_pct": "%",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the build up to date (a no-op when it
    is). Build output goes to stderr so stdout ends with the result."""
    if not (ROOT / "src").is_dir() or not (ROOT / "perfbench").is_dir():
        fail(f"no tlpsim sources under {ROOT}; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"),
                      "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR),
                  "-j", str(min(os.cpu_count() or 1, 8))])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")


def run_round(args, traced):
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--out-dir", str(OUT_DIR)]
    if traced:
        cmd.append("--trace")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"a round exceeded {ROUND_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"round exited {proc.returncode}: {' '.join(cmd)}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"round printed no result line: {lines[-1]!r}")
    result["text"] = lines[:-1]
    result["elapsed_s"] = time.monotonic() - start
    return result


def check_names(got, expected, what):
    if set(got) != set(expected):
        fail(f"{what} metrics differ from the benchmark's list: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + args.seconds
    rounds = []
    if args.trace:
        rounds.append(run_round(args, traced=False))
        rounds.append(run_round(args, traced=True))
    else:
        while len(rounds) < MAX_ROUNDS:
            if len(rounds) >= MIN_ROUNDS:
                longest = max(r["elapsed_s"] for r in rounds)
                if time.monotonic() + longest > deadline:
                    break
            rounds.append(run_round(args, traced=False))

    untraced = [r for r in rounds if not r["layers"]]
    for r in rounds:
        check_names(r["metrics"], END_TO_END, "end-to-end")
    digests = {r["digest"] for r in rounds}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = failed == 0 and len(digests) == 1

    print(rounds[0]["text"][0])   # host record
    for i, r in enumerate(rounds):
        m = r["metrics"]
        print(f"round {i + 1}{' (traced)' if r['layers'] else ''}: "
              f"wall {m['wall_s']:.3f} s, set-up {m['setup_s']:.3f} s, "
              f"{m['sim_mips']:.4f} Minstr/s, peak RSS "
              f"{m['peak_rss_mb']:.1f} MB, digest {r['digest']}")
    for r in rounds[:-1]:
        for line in r["text"]:
            if line.startswith("FAILED"):
                print(line)
    for line in rounds[-1]["text"][1:]:
        print(line)
    if len(digests) != 1:
        print(f"FAILED: rounds at seed {args.seed} disagree on the stats "
              f"digest: {sorted(digests)}")

    if args.trace:
        traced = rounds[-1]
        values = dict(traced["layers"])
        base_wall = statistics.median(r["metrics"]["wall_s"]
                                      for r in untraced)
        values["bench.trace_overhead_pct"] = (
            100.0 * (traced["metrics"]["wall_s"] / base_wall - 1.0))
        units = PER_LAYER
    else:
        values = {name: statistics.median(r["metrics"][name]
                                          for r in untraced)
                  for name in END_TO_END}
        # A shared host's speed can drift over tens of seconds, so a run's
        # few rounds each catch a different share of its fast and slow
        # spells.
        # Pooling all of them spreads less from run to run than a median
        # does: the mean round time, and every round's instructions over
        # their total simulation time (each round simulates the same
        # instructions, so that is the harmonic mean of the rates).
        values["wall_s"] = statistics.mean(r["metrics"]["wall_s"]
                                           for r in untraced)
        values["sim_mips"] = statistics.harmonic_mean(
            r["metrics"]["sim_mips"] for r in untraced)
        units = END_TO_END
    check_names(values, units, "reported")

    for name, unit in units.items():
        print(f"  {name:<30} {values[name]:>14.6g} {unit}")
    print(f"attempted {attempted}, failed {failed}, "
          f"correct {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
