"""Profile the simulator on one sweep point and print the hot spots.

Runs a single :class:`~repro.bench.figures.UpdateExperiment` point under
:mod:`cProfile` and prints a flat :mod:`pstats` report of the functions
with the highest *total* (self) time — the place to look before touching
the simulator for performance. Optionally also prints the cumulative-time
ranking and dumps the raw stats for ``snakeviz``-style tools.

Run with::

    python benchmarks/profile_hotspots.py [--point NAME] [--top N]
                                          [--sort tottime|cumulative]
                                          [--dump PATH]

``--point`` names one of the ``bench_speed`` baseline points (default the
headline ``update-coarse-48cpu``); profiling overhead roughly doubles the
wall time, so the reported seconds are not comparable to bench_speed's.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

from bench_speed import BASELINES

from repro.bench.figures import run_update_experiment


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--point", default="update-coarse-48cpu",
                        choices=sorted(BASELINES),
                        help="baseline sweep point to profile")
    parser.add_argument("--top", type=int, default=25,
                        help="number of functions to report (default 25)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative"],
                        help="ranking order for the flat report")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write the raw pstats data to PATH")
    args = parser.parse_args()

    experiment = BASELINES[args.point][0]
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_update_experiment(experiment)
    profiler.disable()

    insns = sum(c.instructions for c in result.cpus)
    print(f"{args.point}: {insns} instructions, {result.cycles} cycles "
          f"(under profiler — wall time is inflated)")
    sched = result.sched or {}
    print("scheduler: "
          + ", ".join(f"{key}={sched.get(key, 0)}"
                      for key in ("parks", "wakes", "retry_parks",
                                  "retry_wakes", "pushpop_fusions",
                                  "broadcast_stops")))
    # Event composition: ``events`` counts every scheduled event. Plain
    # steps and parked-retry ticks pass through the queue; parked-spin
    # steps never do — the scheduler counts them in closed form at wake.
    events = sched.get("events", 0)
    retry_ticks = sched.get("retry_ticks", 0)
    spin_steps = sched.get("spin_steps", 0)
    plain = events - retry_ticks - spin_steps
    if events:
        print("event composition: "
              f"{events} events = "
              f"{spin_steps} parked-spin steps, counted not queued ("
              f"{100.0 * spin_steps / events:.1f}%) + "
              f"{retry_ticks} queued parked-retry ticks ("
              f"{100.0 * retry_ticks / events:.1f}%) + "
              f"{plain} queued plain steps ({100.0 * plain / events:.1f}%)")
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw stats written to {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
