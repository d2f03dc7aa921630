"""Figure 5(f): effect of the LRU extension on the fetch footprint.

"The L1 cache employs a LRU-extension scheme to enhance the supported
fetch footprint beyond the L1 cache size. Figure 5(f) shows the
statistical abort rate (%) from associativity conflicts with n=1..800
accesses to random congruence classes."

We reproduce the experiment literally: a single CPU starts a transaction,
loads ``n`` random cache lines, and attempts to commit; the Monte-Carlo
abort rate is measured with the extension disabled (footprint bounded by
the 64x6 L1) and enabled (footprint bounded by the 512x8 L2).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Sequence

from ..core.engine import FetchRetry, TxEngine
from ..errors import TransactionAbortSignal
from ..mem.fabric import CoherenceFabric
from ..mem.memory import MainMemory
from ..params import MachineParams, Topology, ZEC12


@dataclass(frozen=True)
class FootprintPoint:
    """Abort rate for one transaction size."""

    accessed_lines: int
    abort_rate: float


def _single_cpu_params(
    base: MachineParams,
    lru_extension: bool,
    footprint_policy: str = "",
) -> MachineParams:
    if not footprint_policy:
        # Pin the policy explicitly so the Figure 5(f) ablation measures
        # what it names even when REPRO_FOOTPRINT_POLICY is set.
        footprint_policy = "zec12" if lru_extension else "no-lru-extension"
    return dataclasses.replace(
        base,
        topology=Topology(cores_per_chip=1, chips_per_mcm=1, mcms=1),
        lru_extension=lru_extension,
        footprint_policy=footprint_policy,
        speculation=False,  # the experiment counts *architected* accesses
    )


def footprint_abort_rate(
    accessed_lines: int,
    lru_extension: bool,
    trials: int = 100,
    params: MachineParams = ZEC12,
    seed: int = 1,
    footprint_policy: str = "",
) -> float:
    """Monte-Carlo abort rate of a read-only transaction touching
    ``accessed_lines`` random congruence classes.

    ``footprint_policy`` overrides the policy spec; when empty it is
    derived from ``lru_extension`` (the historical Figure 5(f) pair).
    """
    machine_params = _single_cpu_params(params, lru_extension,
                                        footprint_policy)
    memory = MainMemory()
    fabric = CoherenceFabric(machine_params)
    # Standalone engine use: provide a local clock that the load loop
    # advances, so the fabric's per-line transfer serialisation works.
    clock = [0]
    fabric.clock = lambda: clock[0]
    engine = TxEngine(0, machine_params, fabric, memory)
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
    return aborts / trials


def _load(engine: TxEngine, addr: int, clock) -> None:
    """Engine load with the scheduler's retry loop inlined (single CPU:
    a FetchRetry is just the interconnect wait, nobody else runs)."""
    while True:
        try:
            _value, latency = engine.load(addr, 8)
            clock[0] += latency
            return
        except FetchRetry as retry:
            clock[0] += retry.delay


def footprint_series(
    line_counts: Sequence[int],
    lru_extension: bool,
    trials: int = 100,
    params: MachineParams = ZEC12,
) -> List[FootprintPoint]:
    """The full Figure 5(f) series for one configuration."""
    return [
        FootprintPoint(n, footprint_abort_rate(n, lru_extension, trials, params))
        for n in line_counts
    ]


#: The paper's x-axis: 1 to 800 accessed cache lines.
DEFAULT_LINE_COUNTS = (50, 100, 150, 200, 250, 300, 350, 400, 500, 600, 700, 800)


def format_series(
    without_extension: Sequence[FootprintPoint],
    with_extension: Sequence[FootprintPoint],
) -> str:
    lines = [
        f"{'lines':>6} {'no LRU ext (64x6)':>18} {'LRU ext (512x8)':>16}"
    ]
    by_n = {p.accessed_lines: p for p in with_extension}
    for p in without_extension:
        q = by_n.get(p.accessed_lines)
        ext = f"{q.abort_rate:>15.1%}" if q else " " * 15
        lines.append(f"{p.accessed_lines:>6} {p.abort_rate:>17.1%} {ext}")
    return "\n".join(lines)
