"""Shared test fixtures and harnesses."""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Tuple

import pytest

from repro.core.abort import TransactionAbort
from repro.core.engine import FetchRetry, TxEngine
from repro.errors import TransactionAbortSignal
from repro.mem.fabric import CoherenceFabric
from repro.mem.memory import MainMemory
from repro.mem.paging import PageTable
from repro.params import MachineParams, Topology, ZEC12
from repro.sim.machine import Machine


def small_params(
    n_cpus: int = 1,
    lru_extension: bool = True,
    speculation: bool = False,
    **overrides,
) -> MachineParams:
    """Machine parameters sized for unit tests.

    Speculative prefetch defaults *off* so footprints are exactly the
    architected accesses (tests that want it enable it explicitly).
    """
    cores = max(2, n_cpus)
    return dataclasses.replace(
        ZEC12,
        topology=Topology(cores_per_chip=min(cores, 6),
                          chips_per_mcm=2,
                          mcms=max(1, -(-n_cpus // (min(cores, 6) * 2)))),
        lru_extension=lru_extension,
        speculation=speculation,
        **overrides,
    )


def experiment_elision(monkeypatch, spin_elide: bool) -> None:
    """Make ``run_update_experiment`` build ``Machine(spin_elide=...)``
    for the rest of the test. Workers that ``run_tasks`` forks
    afterwards inherit the patch."""
    import repro.bench.figures as figures

    monkeypatch.setattr(figures, "Machine",
                        functools.partial(Machine, spin_elide=spin_elide))


class EngineHarness:
    """Drives TxEngines directly (no ISA), with retry loops inlined.

    A shared local clock stands in for the scheduler so the fabric's
    per-line transfer serialisation works. Aborts are captured, processed
    through the millicode path, and recorded.
    """

    def __init__(self, params: Optional[MachineParams] = None,
                 n_cpus: int = 1) -> None:
        self.params = params if params is not None else small_params(n_cpus)
        self.memory = MainMemory()
        self.page_table = PageTable()
        self.fabric = CoherenceFabric(self.params)
        self.clock = [0]
        self.fabric.clock = lambda: self.clock[0]
        self.engines: List[TxEngine] = [
            TxEngine(i, self.params, self.fabric, self.memory, self.page_table)
            for i in range(n_cpus)
        ]
        self.aborts: List[TransactionAbort] = []

    def engine(self, cpu: int = 0) -> TxEngine:
        return self.engines[cpu]

    # -- retried operations --------------------------------------------------

    def _retry(self, fn):
        while True:
            try:
                return fn()
            except FetchRetry as retry:
                self.clock[0] += retry.delay

    def load(self, cpu: int, addr: int, length: int = 8) -> int:
        value, latency = self._retry(
            lambda: self.engines[cpu].load(addr, length)
        )
        self.clock[0] += latency
        return value

    def store(self, cpu: int, addr: int, value: int, length: int = 8) -> None:
        latency = self._retry(
            lambda: self.engines[cpu].store(addr, value, length)
        )
        self.clock[0] += latency

    def add(self, cpu: int, addr: int, increment: int, length: int = 8) -> int:
        value, latency = self._retry(
            lambda: self.engines[cpu].add_to_storage(addr, increment, length)
        )
        self.clock[0] += latency
        return value

    def cas(self, cpu: int, addr: int, expected: int, new: int) -> bool:
        swapped, _observed, latency = self._retry(
            lambda: self.engines[cpu].compare_and_swap(addr, expected, new)
        )
        self.clock[0] += latency
        return swapped

    def ntstg(self, cpu: int, addr: int, value: int) -> None:
        latency = self._retry(lambda: self.engines[cpu].ntstg(addr, value))
        self.clock[0] += latency

    # -- transaction control --------------------------------------------------

    def tbegin(self, cpu: int = 0, controls=None, constrained: bool = False,
               ia: int = 0x1000) -> None:
        self.clock[0] += self.engines[cpu].tx_begin(
            controls, constrained=constrained, ia=ia
        )

    def tend(self, cpu: int = 0) -> int:
        # tx_end can raise FetchRetry in stm fallback mode: the hybrid
        # publication step fetches orec/clock lines at the outermost TEND.
        latency, depth = self._retry(lambda: self.engines[cpu].tx_end(0))
        self.clock[0] += latency
        return depth

    def process_abort(self, cpu: int = 0, grs=None) -> TransactionAbort:
        abort, plan, latency = self.engines[cpu].process_abort(grs)
        self.clock[0] += latency + plan.delay_cycles
        self.aborts.append(abort)
        return abort

    def expect_abort(self, fn, cpu: int = 0) -> TransactionAbort:
        """Run ``fn`` expecting a transaction abort; processes and returns it."""
        with pytest.raises(TransactionAbortSignal):
            fn()
        return self.process_abort(cpu)

    def quiesce(self) -> None:
        for engine in self.engines:
            engine.quiesce()


@pytest.fixture
def harness() -> EngineHarness:
    return EngineHarness(n_cpus=1)


@pytest.fixture
def duo() -> EngineHarness:
    return EngineHarness(n_cpus=2)


@pytest.fixture
def quad() -> EngineHarness:
    return EngineHarness(n_cpus=4)
