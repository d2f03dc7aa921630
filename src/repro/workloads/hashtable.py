"""Figure 5(e): lock-elided hashtable workload.

"The IBM Java team has prototyped an optimization in the IBM Testarossa
JIT to automatically elide locks used for Java synchronized sections ...
such as java/util/hashtable. Multiple software threads run under z/OS,
accessing the hash table for reading and writing. The performance using
locks is flat, whereas the performance grows almost linearly with the
number of threads using transactions."

The workload: each thread performs a mix of reads and writes against one
shared :class:`~repro.htm.datastructures.HashTable`, either taking the
global lock (the "synchronized" baseline) or eliding it with TBEGIN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..htm.api import Ctx, HtmMachine
from ..htm.datastructures import HashTable
from ..params import MachineParams, ZEC12
from ..sim.metrics import MetricsRegistry
from ..sim.results import SimResult

TABLE_BASE = 0x0080_0000


@dataclass(frozen=True)
class HashtableExperiment:
    """One Figure 5(e) point."""

    n_threads: int
    elide: bool
    operations: int = 60
    read_percent: int = 80
    buckets: int = 256
    key_space: int = 512

    def __post_init__(self) -> None:
        if not 0 <= self.read_percent <= 100:
            raise ConfigurationError("read_percent must be 0..100")
        if self.n_threads < 1:
            raise ConfigurationError("need at least one thread")


def hashtable_worker(table: HashTable, experiment: HashtableExperiment):
    """Generator thread: random get/put mix, measured per operation."""

    def worker(ctx: Ctx):
        for _ in range(experiment.operations):
            key = (yield from ctx.rand(experiment.key_space)) + 1
            roll = yield from ctx.rand(100)
            yield from ctx.mark_start()
            if roll < experiment.read_percent:
                yield from table.get(ctx, key, elide=experiment.elide)
            else:
                yield from table.put(ctx, key, roll + 1,
                                     elide=experiment.elide)
            yield from ctx.mark_end()

    return worker


def run_hashtable_experiment(
    experiment: HashtableExperiment,
    params: MachineParams = ZEC12,
    max_cycles: Optional[int] = None,
    metrics: bool = False,
) -> SimResult:
    """Run one Figure 5(e) point and return the simulation result."""
    machine = HtmMachine(params.with_cpus(experiment.n_threads))
    table = HashTable(TABLE_BASE, buckets=experiment.buckets)
    for _ in range(experiment.n_threads):
        machine.spawn(hashtable_worker(table, experiment))
    registry = (
        MetricsRegistry(tx_log=(metrics == "tx_log")).attach(machine)
        if metrics else None
    )
    result = machine.run(max_cycles=max_cycles)
    if registry is not None:
        result.metrics = registry.summary()
        registry.detach()
    machine.close()
    return result
