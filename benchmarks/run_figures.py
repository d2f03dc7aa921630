"""Generate the full Figure 5 series (all panels) and print them.

This is the long-form companion to the pytest benches: it sweeps the full
CPU grid of the paper (2..100) and prints every series, suitable for
regenerating EXPERIMENTS.md. Runtime is dominated by the ~100-CPU points,
so the harness fans independent points out across worker processes and
caches computed points on disk (see :mod:`repro.bench.parallel`); both
knobs preserve bit-identical results versus a serial, uncached run.

Run with::

    python benchmarks/run_figures.py [--quick] [--workers N] [--no-cache]
                                     [--metrics] [--metrics-out FILE]
                                     [--panels 5a,5b,...]

Each panel prints its own wall time; any panel failure is reported and
turns the final exit status non-zero instead of killing the run mid-way.

``--panels`` selects a subset of panels (comma-separated among 5a..5f
and "scalars").

``--metrics`` attaches the :mod:`repro.sim.metrics` registry to every
simulation point (identical architected results, slower wall clock),
prints an aggregate abort-attribution table, and writes one JSONL record
per point plus a final aggregate record to ``--metrics-out``
(default ``metrics.jsonl``; see EXPERIMENTS.md for the schema).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from repro.bench.figures import (
    DEFAULT_CPU_GRID,
    QUICK_CPU_GRID,
    UpdateExperiment,
    format_sweep,
)
from repro.bench.lru import FootprintPoint, format_series
from repro.bench.parallel import (
    FootprintTask,
    ResultCache,
    default_cache_root,
    parallel_sweep,
    run_tasks,
)
from repro.bench.report import (
    render_abort_attribution,
    render_chart,
    series_from_points,
)
from repro.sim.metrics import merge_summaries, write_jsonl
from repro.workloads.hashtable import HashtableExperiment
from repro.workloads.queue import QueueExperiment


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="reduced CPU grid and iteration counts")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for independent points "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write the on-disk result "
                             "cache")
    parser.add_argument("--metrics", action="store_true",
                        help="collect abort-attribution metrics for every "
                             "simulation point and write them as JSONL")
    parser.add_argument("--metrics-out", default="metrics.jsonl",
                        metavar="FILE",
                        help="JSONL output path for --metrics "
                             "(default: metrics.jsonl)")
    parser.add_argument("--panels", default=None, metavar="LIST",
                        help="comma-separated subset of panels to run "
                             "(5a,5b,5c,5d,5e,5f,scalars; default: all)")
    args = parser.parse_args()

    grid = QUICK_CPU_GRID if args.quick else DEFAULT_CPU_GRID
    iters = 15 if args.quick else 25
    workers = max(1, args.workers)
    cache = None if args.no_cache else ResultCache(default_cache_root())
    use_metrics = args.metrics

    selected = None
    if args.panels:
        selected = {name.strip().lower() for name in args.panels.split(",")}
        known = {"5a", "5b", "5c", "5d", "5e", "5f", "scalars"}
        unknown = selected - known
        if unknown:
            parser.error(f"unknown panels: {', '.join(sorted(unknown))}")
    #: JSONL records in collection order (deterministic: panels run in a
    #: fixed order and run_tasks preserves submission order).
    metrics_records = []
    failures = []
    t0 = time.time()

    def note_metrics(panel_title, label, summary):
        if summary is None:
            return
        metrics_records.append({
            "record": "run",
            "panel": panel_title,
            "point": label,
            "summary": summary,
        })

    def panel(key, title, fn):
        if selected is not None and key not in selected:
            return
        banner(title)
        start = time.time()
        try:
            fn()
        except Exception:
            failures.append(title)
            print(f"PANEL FAILED: {title}")
            traceback.print_exc(file=sys.stdout)
        print(f"[panel wall time: {time.time() - start:.1f}s]")

    def sweep_panel(schemes, pool, n_vars, title="", chart=False):
        points = parallel_sweep(schemes, grid, pool, n_vars,
                                iterations=iters, workers=workers,
                                cache=cache, metrics=use_metrics)
        for p in points:
            note_metrics(title or f"pool {pool} vars {n_vars}",
                         f"{p.scheme}/{p.n_cpus}cpu", p.metrics)
        print(format_sweep(points, title))
        if chart:
            print()
            print(render_chart(series_from_points(points),
                               title="Figure 5(b) (log-log, like the paper)"))

    def fig5a():
        for pool in (1_000, 10_000):
            sweep_panel(["coarse", "tbegin", "tbeginc"], pool, 4,
                        title=f"pool {pool}")

    def fig5b():
        sweep_panel(["coarse", "fine", "tbegin", "tbeginc"], 10, 1,
                    chart=True)

    def fig5c():
        sweep_panel(["coarse", "tbegin", "tbeginc"], 10, 4)

    def fig5d():
        sweep_panel(["rwlock", "tbeginc-read"], 10_000, 4)

    def fig5e():
        threads = (1, 2, 3, 4, 5, 6, 7, 8)
        tasks = []
        for n in threads:
            tasks.append(("hashtable",
                          HashtableExperiment(n, elide=False, operations=50)))
            tasks.append(("hashtable",
                          HashtableExperiment(n, elide=True, operations=50)))
        results = run_tasks(tasks, workers=workers, cache=cache,
                            metrics=use_metrics)
        for (_, experiment), result in zip(tasks, results):
            note_metrics("fig5e",
                         f"hashtable/{experiment.n_threads}thr/"
                         f"{'elide' if experiment.elide else 'lock'}",
                         result.metrics)
        print(f"{'threads':>8} {'locks':>10} {'transactions':>13}")
        for i, n in enumerate(threads):
            locked, elided = results[2 * i], results[2 * i + 1]
            print(f"{n:>8} {locked.throughput * 1000:>10.2f} "
                  f"{elided.throughput * 1000:>13.2f}")

    def fig5f():
        counts = (50, 100, 150, 200, 250, 300, 350, 400, 500, 600, 700, 800)
        trials = 40 if args.quick else 100
        tasks = [("footprint", FootprintTask(n, False, trials=trials))
                 for n in counts]
        tasks += [("footprint", FootprintTask(n, True, trials=trials))
                  for n in counts]
        rates = run_tasks(tasks, workers=workers, cache=cache)
        without = [FootprintPoint(n, rates[i]) for i, n in enumerate(counts)]
        with_ext = [FootprintPoint(n, rates[len(counts) + i])
                    for i, n in enumerate(counts)]
        print(format_series(without, with_ext))

    def scalars():
        big_n = 48 if args.quick else 96
        tasks = [
            ("update", UpdateExperiment("coarse", 1, 1, 1, iterations=300)),
            ("update", UpdateExperiment("tbegin", 1, 1, 1, iterations=300)),
            ("update", UpdateExperiment("tbeginc", 1, 1, 1, iterations=300)),
            ("update", UpdateExperiment("none", big_n, 10_000, 4,
                                        iterations=iters)),
            ("update", UpdateExperiment("tbeginc", big_n, 10_000, 4,
                                        iterations=iters)),
            ("queue", QueueExperiment(4, use_tx=False, operations=40)),
            ("queue", QueueExperiment(4, use_tx=True, operations=40)),
        ]
        results = run_tasks(tasks, workers=workers, cache=cache,
                            metrics=use_metrics)
        for (kind, experiment), result in zip(tasks, results):
            note_metrics("scalars", f"{kind}/{experiment}",
                         getattr(result, "metrics", None))
        lock = results[0].mean_update_cycles
        tbegin = results[1].mean_update_cycles
        tbeginc = results[2].mean_update_cycles
        print(f"S1  1 CPU, pool 1: lock {lock:.1f}cy, TBEGIN {tbegin:.1f}cy "
              f"(TX wins by {lock / tbegin - 1:.0%}; paper 30%), "
              f"TBEGINC delta {abs(tbeginc - tbegin) / tbegin:.1%} "
              "(paper 0.4%)")
        none, tbc = results[3].throughput, results[4].throughput
        print(f"S2  {big_n} CPUs, pool 10k: TBEGINC at {tbc / none:.1%} of "
              "the no-locking bound (paper: 99.8% at 100 CPUs)")
        lockq, txq = results[5].throughput, results[6].throughput
        print(f"S3  queue, 4 threads: TX/lock ratio {txq / lockq:.2f}x "
              "(paper: ~2x)")

    panel("5a", "Figure 5(a): 4 random variables, pools 1k and 10k", fig5a)
    panel("5b", "Figure 5(b): 1 variable, pool 10", fig5b)
    panel("5c", "Figure 5(c): 4 variables, pool 10 (extreme contention)",
          fig5c)
    panel("5d", "Figure 5(d): 4 variables read, pool 10k", fig5d)
    panel("5e", "Figure 5(e): lock-elided hashtable", fig5e)
    panel("5f", "Figure 5(f): LRU extension vs fetch footprint", fig5f)
    panel("scalars", "Scalar results", scalars)

    if use_metrics:
        banner("Abort-attribution metrics (aggregate of all points)")
        aggregate = merge_summaries(
            record["summary"] for record in metrics_records
        )
        print(render_abort_attribution(aggregate))
        try:
            with open(args.metrics_out, "w") as stream:
                written = write_jsonl(
                    metrics_records
                    + [{"record": "aggregate", "summary": aggregate}],
                    stream,
                )
            print(f"wrote {written} JSONL records to {args.metrics_out}")
        except OSError as exc:
            failures.append("metrics-out")
            print(f"FAILED writing {args.metrics_out}: {exc}")

    mode = (f"{workers} worker{'s' if workers != 1 else ''}, "
            f"cache {'off' if cache is None else 'on'}")
    print()
    print(f"total runtime: {time.time() - t0:.0f}s ({mode})")
    if failures:
        print(f"FAILED panels: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
