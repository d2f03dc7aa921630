"""Capacity-vs-abort-rate curves for the pluggable footprint policies.

The Figure 5(f) experiment (:mod:`repro.bench.lru`) measures the paper's
two hard-wired configurations — LRU extension on/off. This module
generalises it to any :mod:`repro.core.footprint` policy spec: a single
CPU starts a transaction, loads ``n`` random congruence classes, and
attempts to commit; the Monte-Carlo abort rate *and* the abort-cause
attribution (via :class:`~repro.sim.metrics.CpuMetrics`) are collected
per policy, so the curves show not just where each capacity mechanism
gives out but *how* (``fetch_overflow`` vs ``store_overflow`` vs cache
conflicts).

``benchmarks/capacity_curves.py`` is the CLI wrapper; the JSON it emits
is one :func:`curves_to_payload` blob.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from ..core.engine import TxEngine
from ..errors import TransactionAbortSignal
from ..mem.fabric import CoherenceFabric
from ..mem.memory import MainMemory
from ..params import MachineParams, Topology, ZEC12
from ..sim.metrics import CpuMetrics
from .lru import _load

#: The shipped policies at their default parameters — the minimum set a
#: capacity-curve run compares.
DEFAULT_POLICIES = ("zec12", "no-lru-extension", "power-spill", "bounded")

#: Default x-axis: the Figure 5(f) range, thinned for wall-clock, plus
#: small sizes where the cardinality-bounded policy turns over (its
#: default read limit is 64 lines).
DEFAULT_LINE_COUNTS = (16, 32, 64, 96, 128, 200, 300, 400, 600, 800)


@dataclass(frozen=True)
class CapacityPoint:
    """Abort behaviour of one (policy, transaction size) point."""

    policy: str
    accessed_lines: int
    abort_rate: float
    #: Abort-cause name -> count over all trials (empty when no trial
    #: aborted); reconciles with ``abort_rate * trials``.
    abort_causes: Dict[str, int]


def _policy_params(base: MachineParams, policy: str) -> MachineParams:
    return dataclasses.replace(
        base,
        topology=Topology(cores_per_chip=1, chips_per_mcm=1, mcms=1),
        footprint_policy=policy,
        speculation=False,  # the experiment counts *architected* accesses
    )


def capacity_point(
    policy: str,
    accessed_lines: int,
    trials: int = 100,
    params: MachineParams = ZEC12,
    seed: int = 1,
) -> CapacityPoint:
    """One Monte-Carlo point: ``trials`` read-only transactions touching
    ``accessed_lines`` random congruence classes under ``policy``.

    The address sequence depends only on ``(seed, trials,
    accessed_lines)``, so different policies at the same point see the
    identical workload and their curves are directly comparable.
    """
    machine_params = _policy_params(params, policy)
    memory = MainMemory()
    fabric = CoherenceFabric(machine_params)
    # Standalone engine use (as in repro.bench.lru): a local clock the
    # load loop advances keeps the fabric's transfer serialisation happy.
    clock = [0]
    fabric.clock = lambda: clock[0]
    engine = TxEngine(0, machine_params, fabric, memory)
    metrics = CpuMetrics(0)
    engine.attach_metrics(metrics)
    rng = random.Random(seed)
    line_size = machine_params.line_size
    #: Address space far larger than the L2, so congruence classes are
    #: effectively uniform random.
    span_lines = 1 << 22

    aborts = 0
    for _ in range(trials):
        addresses = [
            0x100_0000 + rng.randrange(span_lines) * line_size
            for _ in range(accessed_lines)
        ]
        engine.tx_begin(constrained=False, ia=0)
        try:
            for addr in addresses:
                _load(engine, addr, clock)
            engine.tx_end(0)
        except TransactionAbortSignal:
            engine.process_abort()
            aborts += 1
    engine.close()
    fabric.close()
    return CapacityPoint(
        policy=policy,
        accessed_lines=accessed_lines,
        abort_rate=aborts / trials,
        abort_causes=dict(sorted(metrics.abort_causes.items())),
    )


def capacity_series(
    policy: str,
    line_counts: Sequence[int] = DEFAULT_LINE_COUNTS,
    trials: int = 100,
    params: MachineParams = ZEC12,
    seed: int = 1,
) -> List[CapacityPoint]:
    """The full curve for one policy spec."""
    return [
        capacity_point(policy, n, trials=trials, params=params, seed=seed)
        for n in line_counts
    ]


def capacity_curves(
    policies: Sequence[str] = DEFAULT_POLICIES,
    line_counts: Sequence[int] = DEFAULT_LINE_COUNTS,
    trials: int = 100,
    params: MachineParams = ZEC12,
    seed: int = 1,
) -> Dict[str, List[CapacityPoint]]:
    """Curves for several policies over the identical workload,
    keyed by policy spec in the given order."""
    return {
        policy: capacity_series(policy, line_counts, trials=trials,
                                params=params, seed=seed)
        for policy in policies
    }


def curves_to_payload(
    curves: Dict[str, List[CapacityPoint]],
    trials: int,
    seed: int,
) -> Dict[str, Any]:
    """JSON-serialisable image of a :func:`capacity_curves` result."""
    return {
        "schema": "repro.capacity_curves/1",
        "trials": trials,
        "seed": seed,
        "policies": {
            policy: [
                {
                    "accessed_lines": p.accessed_lines,
                    "abort_rate": p.abort_rate,
                    "abort_causes": p.abort_causes,
                }
                for p in points
            ]
            for policy, points in curves.items()
        },
    }


def format_curves(curves: Dict[str, List[CapacityPoint]]) -> str:
    """Side-by-side abort-rate table, one column per policy."""
    policies = list(curves)
    width = max(12, max(len(p) for p in policies) + 2)
    header = f"{'lines':>6} " + " ".join(
        f"{p:>{width}}" for p in policies
    )
    by_n: Dict[int, Dict[str, CapacityPoint]] = {}
    for policy, points in curves.items():
        for point in points:
            by_n.setdefault(point.accessed_lines, {})[policy] = point
    lines = [header]
    for n in sorted(by_n):
        row = by_n[n]
        cells = " ".join(
            f"{row[p].abort_rate:>{width}.1%}" if p in row else " " * width
            for p in policies
        )
        lines.append(f"{n:>6} {cells}")
    return "\n".join(lines)
