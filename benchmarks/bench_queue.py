"""In-text result S3: ConcurrentLinkedQueue with constrained transactions.

"In another experiment ..., the Java team has implemented the
ConcurrentLinkedQueue using constrained transactions. The throughput
using transactions exceeds locks by a factor of 2."
"""

from __future__ import annotations

from repro.workloads.queue import QueueExperiment, run_queue_experiment

N_THREADS = 4
OPERATIONS = 30


def test_queue_tx_vs_locks(benchmark):
    lock_result, tx_result = benchmark.pedantic(
        lambda: (
            run_queue_experiment(
                QueueExperiment(N_THREADS, use_tx=False, operations=OPERATIONS)
            ),
            run_queue_experiment(
                QueueExperiment(N_THREADS, use_tx=True, operations=OPERATIONS)
            ),
        ),
        rounds=1,
        iterations=1,
    )
    ratio = tx_result.throughput / lock_result.throughput
    print()
    print(f"locks: {lock_result.throughput * 1000:.2f}  "
          f"TBEGINC: {tx_result.throughput * 1000:.2f}  "
          f"ratio {ratio:.2f}x (paper: ~2x)")
    # Event-composition readout (parked placeholder advances vs plain
    # steps) for each run, so perf work can see how much placeholder
    # churn each mode leaves behind.
    for label, result in (("locks", lock_result), ("TBEGINC", tx_result)):
        sched = result.sched or {}
        events = sched.get("events", 0)
        parked = sched.get("spin_steps", 0) + sched.get("retry_ticks", 0)
        print(f"{label}: {events} events, {parked} parked placeholder "
              f"advances, {events - parked} plain steps")
        benchmark.extra_info[f"{label}_events"] = events
        benchmark.extra_info[f"{label}_parked_events"] = parked
    # Constrained transactions beat the lock by roughly a factor of 2.
    assert ratio > 1.5
    benchmark.extra_info["ratio"] = ratio
