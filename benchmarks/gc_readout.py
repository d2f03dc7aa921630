"""Measure what the cyclic garbage collector costs a fuzz pass.

Runs the same 600-case work list as the benchmark's ``fuzz`` workload
(seeded ``repro.verify`` cases, every fourth one a hybrid-TM case with
the STM fallback), running and checking each case, and reports through
:data:`gc.callbacks`:

- the collector's share of the pass's host time;
- the number of collections in the pass (all generations);
- the objects those collections reclaimed.

A finished machine that is still one big reference cycle is freed only
by the collector; one that :meth:`repro.sim.machine.Machine.close` has
broken apart is freed by refcounting and shows up as 0 reclaimed
objects.

Run with::

    PYTHONPATH=src python benchmarks/gc_readout.py [--seed N]
                                                 [--cases N] [--passes N]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

from repro.verify import oracle
from repro.verify.fuzzer import case_seed
from repro.verify.generator import generate_case


def build_cases(seed: int, n_cases: int):
    """The fuzz work list: three lock-fallback cases to one hybrid."""
    return [
        generate_case(case_seed(seed, index), "stm" if index % 4 == 3 else "")
        for index in range(n_cases)
    ]


def run_pass(cases) -> dict:
    """Run and check ``cases`` once; the collector readout of the pass."""
    stats = {"collections": 0, "collected": 0, "gc_s": 0.0}
    started = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
            return
        stats["gc_s"] += time.perf_counter() - started[0]
        stats["collections"] += 1
        stats["collected"] += info["collected"]

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        start = time.perf_counter()
        for case in cases:
            outcome = oracle.run_case(case)
            violations = oracle.check_outcome(case, outcome)
            if violations:
                raise SystemExit(f"oracle violation: {violations[0]}")
            del outcome
        stats["wall_s"] = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_gc)
    stats["gc_share"] = stats["gc_s"] / stats["wall_s"]
    return stats


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--cases", type=int, default=600)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()

    cases = build_cases(args.seed, args.cases)
    run_pass(cases[:4])  # warm-up: imports and lazy set-up
    passes = [run_pass(cases) for _ in range(args.passes)]
    for number, stats in enumerate(passes, 1):
        print(f"pass {number}: wall {stats['wall_s']:.3f}s, collector "
              f"{stats['gc_s']:.3f}s ({stats['gc_share']:.1%}), "
              f"{stats['collections']} collections, "
              f"{stats['collected']} objects reclaimed")
    print(f"median over {args.passes} passes: collector share "
          f"{statistics.median(s['gc_share'] for s in passes):.1%}, "
          f"{statistics.median(s['collections'] for s in passes):.0f} "
          f"collections, "
          f"{statistics.median(s['collected'] for s in passes):.0f} "
          "objects reclaimed per pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
