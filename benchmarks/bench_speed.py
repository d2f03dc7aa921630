"""Self-timing harness: simulator speed on representative sweep points.

Measures wall time and instructions-per-second on a handful of Figure-5
points (the expensive 48/100-CPU ones plus a small control), compares
against the frozen pre-optimization baselines recorded below, and writes
``BENCH_speed.json`` next to this script so future PRs can track the
performance trajectory.

The baselines were measured on the growth seed (commit 07b7a7a) with the
same experiment parameters; ``insns``/``cycles`` double as a determinism
check — the optimized simulator must reproduce them exactly.

Run with::

    python benchmarks/bench_speed.py [--repeats N] [--output PATH]
                                     [--points NAME[,NAME...]]
                                     [--check-against PATH [--tolerance F]]
                                     [--no-write]

``--check-against`` turns the harness into a perf-regression guard: each
measured point must reach at least ``(1 - tolerance)`` of the
instructions-per-second recorded in the given report (the committed
``BENCH_speed.json``), else the exit status is 1. The determinism check
against the seed instruction/cycle counts applies in every mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.figures import UpdateExperiment, run_update_experiment

#: name -> (experiment, seed wall-time seconds, seed total instructions,
#:          seed final cycle count). Wall times are best-of-3 on the
#: reference container; instruction/cycle counts are exact.
BASELINES = {
    "update-coarse-48cpu": (
        UpdateExperiment("coarse", 48, 10_000, 4, iterations=15),
        31.605, 1_069_162, 1_450_890,
    ),
    "update-tbeginc-12cpu": (
        UpdateExperiment("tbeginc", 12, 10_000, 4, iterations=15),
        0.272, 3_264, 28_093,
    ),
    "update-tbeginc-48cpu": (
        UpdateExperiment("tbeginc", 48, 10_000, 4, iterations=15),
        1.290, 13_056, 27_557,
    ),
    "update-tbeginc-100cpu": (
        UpdateExperiment("tbeginc", 100, 10_000, 4, iterations=15),
        2.863, 27_200, 28_702,
    ),
    # The two points below were added with the spin-wait elision PR, so
    # their "seed" wall times were measured on the same container with
    # elision off (the pre-elision simulator); counts are exact.
    "update-fine-48cpu": (
        UpdateExperiment("fine", 48, 10_000, 1, iterations=15),
        0.118, 10_904, 14_569,
    ),
    "update-rwlock-48cpu": (
        UpdateExperiment("rwlock", 48, 10_000, 4, iterations=15),
        0.382, 19_536, 201_645,
    ),
}


def measure(experiment: UpdateExperiment, repeats: int):
    """Best-of-``repeats`` wall time plus the (deterministic) counts."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_update_experiment(experiment)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    insns = sum(c.instructions for c in result.cpus)
    return best, insns, result.cycles


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per point (best is kept)")
    parser.add_argument("--output",
                        default=os.path.join(os.path.dirname(__file__),
                                             "..", "BENCH_speed.json"),
                        help="where to write the JSON report")
    parser.add_argument("--points",
                        help="comma-separated subset of points to run "
                             f"(available: {', '.join(BASELINES)})")
    parser.add_argument("--check-against", metavar="PATH",
                        help="perf-regression guard: fail if a point's "
                             "insns/s falls below the report at PATH by "
                             "more than --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional insns/s drop for "
                             "--check-against (default 0.30)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and check only; do not write --output")
    args = parser.parse_args()

    if args.points:
        selected = args.points.split(",")
        unknown = [p for p in selected if p not in BASELINES]
        if unknown:
            parser.error(f"unknown point(s): {', '.join(unknown)}")
        points = {name: BASELINES[name] for name in selected}
    else:
        points = BASELINES

    committed = None
    if args.check_against:
        with open(args.check_against) as handle:
            committed = json.load(handle)["points"]

    report = {"points": {}, "repeats": args.repeats}
    print(f"{'point':<24} {'seed':>8} {'now':>8} {'speedup':>8} "
          f"{'insns/s':>10}")
    failed = False
    for name, (experiment, seed_s, seed_insns, seed_cycles) in (
            points.items()):
        best, insns, cycles = measure(experiment, args.repeats)
        if (insns, cycles) != (seed_insns, seed_cycles):
            print(f"{name}: DETERMINISM MISMATCH — "
                  f"insns {insns} (seed {seed_insns}), "
                  f"cycles {cycles} (seed {seed_cycles})")
            failed = True
        speedup = seed_s / best
        ips = insns / best
        report["points"][name] = {
            "scheme": experiment.scheme,
            "n_cpus": experiment.n_cpus,
            "pool_size": experiment.pool_size,
            "n_vars": experiment.n_vars,
            "iterations": experiment.iterations,
            "seed_seconds": seed_s,
            "seconds": round(best, 3),
            "speedup": round(speedup, 2),
            "instructions": insns,
            "cycles": cycles,
            "instructions_per_second": round(ips),
        }
        print(f"{name:<24} {seed_s:>7.2f}s {best:>7.2f}s {speedup:>7.2f}x "
              f"{ips:>10.0f}")
        if committed is not None and name in committed:
            floor = committed[name]["instructions_per_second"] * (
                1.0 - args.tolerance
            )
            if ips < floor:
                print(f"{name}: PERF REGRESSION — {ips:.0f} insns/s is "
                      f"below the committed floor of {floor:.0f} "
                      f"({committed[name]['instructions_per_second']} "
                      f"- {args.tolerance:.0%})")
                failed = True

    headline = report["points"].get("update-coarse-48cpu", {}).get("speedup")
    if headline is not None:
        report["headline_speedup_coarse_48cpu"] = headline
    if not args.no_write:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {os.path.abspath(args.output)}"
              + (f"; headline (coarse-48) speedup {headline:.2f}x"
                 if headline is not None else ""))
    if failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
