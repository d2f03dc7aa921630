"""Simulation results and throughput computation.

The paper measures "the time between each lock/tbegin and unlock/tend"
(excluding overhead such as random-number generation) and computes "the
system throughput as the quotient of the number of CPUs divided by the
average time per update", normalising all results "to a throughput of 100
for 2 CPUs concurrently updating a single variable from a pool of 1
variable". We reproduce exactly that pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import SimulationError


@dataclass
class CpuResult:
    """Per-CPU outcome of one simulation run."""

    cpu_id: int
    instructions: int = 0
    tx_started: int = 0
    tx_committed: int = 0
    tx_aborted: int = 0
    xi_rejects: int = 0
    #: Software (STM) transaction outcomes — hybrid-TM ``fallback_mode=
    #: "stm"`` runs only; always 0 in the default lock mode.
    sw_committed: int = 0
    sw_aborted: int = 0
    #: Measured (start, end) cycle pairs from MARK_START/MARK_END.
    intervals: List[int] = field(default_factory=list)

    @property
    def updates(self) -> int:
        return len(self.intervals)

    @property
    def abort_rate(self) -> float:
        total = self.tx_committed + self.tx_aborted
        return self.tx_aborted / total if total else 0.0


@dataclass
class SimResult:
    """Outcome of one machine run."""

    cycles: int
    cpus: List[CpuResult]
    aborted_early: bool = False
    #: Optional ``repro.sim.metrics`` summary dict when the run was
    #: executed with metrics collection on. Not part of the architected
    #: result: excluded from comparisons and repr.
    metrics: Optional[Dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )
    #: Scheduler self-observability counters: ``events`` (every queue
    #: push, plus one per parked spinner step, which is counted in
    #: closed form instead of queued; the same with parking on and
    #: off), ``parks``/``wakes`` and ``spin_steps`` for parked spinners,
    #: ``retry_parks``/``retry_wakes`` and ``retry_ticks`` for parked
    #: retry waiters, ``pushpop_fusions`` (queue pushes fused with the
    #: next pop: plain steps' and retry ticks' pushes only) and
    #: ``broadcast_stops``. Not part of the architected result — spin-wait
    #: elision changes them while leaving everything the equality above
    #: compares bit-identical.
    sched: Optional[Dict[str, int]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def n_cpus(self) -> int:
        return len(self.cpus)

    @property
    def tx_log(self) -> Optional[Dict[str, Any]]:
        """Global-order transaction-outcome log, when the run was recorded
        by a :class:`~repro.sim.metrics.TxLog` (alone, or inside a
        ``MetricsRegistry(tx_log=True)``); None otherwise.

        A dict ``{"entries": [...], "dropped": n}`` where each entry is
        ``[cpu, kind, tbegin_ia, end_ia, code, constrained, read_lines,
        write_lines]`` in the engine's serialization order (see
        :class:`repro.sim.metrics.TxLog`).
        """
        if self.metrics is None:
            return None
        return self.metrics.get("tx_log")

    def all_intervals(self) -> List[int]:
        out: List[int] = []
        for cpu in self.cpus:
            out.extend(cpu.intervals)
        return out

    @property
    def total_updates(self) -> int:
        return sum(cpu.updates for cpu in self.cpus)

    @property
    def mean_update_cycles(self) -> float:
        intervals = self.all_intervals()
        if not intervals:
            raise SimulationError("no measured intervals in this run")
        return sum(intervals) / len(intervals)

    @property
    def throughput(self) -> float:
        """CPUs divided by the average time per update (paper section IV)."""
        return self.n_cpus / self.mean_update_cycles

    def normalized_throughput(self, baseline_throughput: float) -> float:
        """Scale so the baseline run maps to 100."""
        if baseline_throughput <= 0:
            raise SimulationError("baseline throughput must be positive")
        return 100.0 * self.throughput / baseline_throughput

    # -- aggregate statistics -------------------------------------------------

    @property
    def total_committed(self) -> int:
        return sum(c.tx_committed for c in self.cpus)

    @property
    def total_aborted(self) -> int:
        return sum(c.tx_aborted for c in self.cpus)

    @property
    def abort_rate(self) -> float:
        total = self.total_committed + self.total_aborted
        return self.total_aborted / total if total else 0.0
