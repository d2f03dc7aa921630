"""Count the bytecodes the simulator executes on one sweep point.

Runs one :class:`~repro.bench.figures.UpdateExperiment` under
:func:`sys.settrace` with per-opcode events and prints the total, the
functions that executed the most bytecodes (self counts), and the
*tick path*: every bytecode executed under
``Scheduler._drain_parked`` except inside XI delivery and wakes (those
are the work the elided retry steps really do), divided by the parked
retry ticks of the run; and the *real step*: the self bytecodes of
``Scheduler._run`` and ``IsaCpu.step`` divided by the ``step()`` calls:
what the event loop and the step itself add to every step that really
executes.

Unlike a timing, the count is exact and repeatable: the same tree and
point always give the same numbers, so a change of a few percent shows
without interleaved pairs. It does not weigh bytecodes by cost, so it
complements timing rather than replacing it. Tracing slows the run
about a hundredfold (coarse 48-CPU, pool 10 runs in about a minute).

Run with::

    PYTHONPATH=src python benchmarks/bytecode_count.py \\
        [--scheme coarse] [--cpus 48] [--pool 10] [--vars 4] [--top 20]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.cpu.interpreter import IsaCpu
from repro.sim.scheduler import Scheduler

#: Where the tick path starts, and the calls under it that are not
#: tick-path work.
TICK_ROOT = "_drain_parked"
TICK_EXCLUDE = ("_send_xi", "wake_parked")

#: The real-step readout's event loop and step, and the step counted.
REAL_STEP = (Scheduler._run.__code__, IsaCpu.step.__code__)
STEP = IsaCpu.step.__code__


def count(experiment: UpdateExperiment):
    """Run ``experiment`` traced; returns (result, self counts per
    function, tick-path total, real-step total, ``step()`` calls)."""
    counts: Counter = Counter()
    tick = [0]
    steps = [0]
    names = {}
    # Frame -> whether it runs on the tick path (inherited by callees).
    on_path = {}

    def name_of(code):
        name = names.get(code)
        if name is None:
            name = names[code] = getattr(code, "co_qualname",
                                         code.co_name)
        return name

    def local(frame, event, _arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] += 1
            if on_path.get(frame):
                tick[0] += 1
        elif event == "return":
            on_path.pop(frame, None)
        return local

    def trace(frame, event, _arg):
        frame.f_trace_opcodes = True
        if frame.f_code is STEP:
            steps[0] += 1
        name = frame.f_code.co_name
        parent = on_path.get(frame.f_back, False)
        on_path[frame] = (name == TICK_ROOT
                          or (parent and name not in TICK_EXCLUDE))
        return local

    sys.settrace(trace)
    try:
        result = run_update_experiment(experiment)
    finally:
        sys.settrace(None)
    by_name: Counter = Counter()
    for code, n in counts.items():
        by_name[name_of(code)] += n
    real = sum(counts[code] for code in REAL_STEP)
    return result, by_name, tick[0], real, steps[0]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scheme", default="coarse")
    parser.add_argument("--cpus", type=int, default=48)
    parser.add_argument("--pool", type=int, default=10)
    parser.add_argument("--vars", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=15)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args()
    experiment = UpdateExperiment(args.scheme, args.cpus, args.pool,
                                  args.vars, iterations=args.iterations)
    result, by_name, tick, real, steps = count(experiment)
    total = sum(by_name.values())
    ticks = (result.sched or {}).get("retry_ticks", 0)
    print(f"{args.scheme}-{args.cpus}/pool-{args.pool}: {result.cycles} "
          f"cycles, {total:,} bytecodes")
    per_tick = f" ({tick / ticks:.1f} per tick)" if ticks else ""
    print(f"tick path: {tick:,} bytecodes over {ticks:,} ticks{per_tick}")
    per_step = f" ({real / steps:.1f} per step)" if steps else ""
    print(f"real step: {real:,} bytecodes over {steps:,} step() "
          f"calls{per_step}")
    for name, n in by_name.most_common(args.top):
        print(f"  {n:>12,}  {100.0 * n / total:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
