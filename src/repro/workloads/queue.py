"""ConcurrentLinkedQueue workload (paper section IV, in-text result S3).

"The Java team has implemented the ConcurrentLinkedQueue using
constrained transactions. The throughput using transactions exceeds locks
by a factor of 2."

Each thread alternates enqueue and dequeue against one shared queue,
either under a spin lock or with constrained transactions (TBEGINC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..htm.api import Ctx, HtmMachine
from ..htm.datastructures import ConcurrentQueue
from ..params import MachineParams, ZEC12
from ..sim.metrics import MetricsRegistry
from ..sim.results import SimResult

QUEUE_BASE = 0x00C0_0000


@dataclass(frozen=True)
class QueueExperiment:
    """One queue benchmark point."""

    n_threads: int
    use_tx: bool
    operations: int = 40  # enqueue+dequeue pairs per thread

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ConfigurationError("need at least one thread")


def queue_worker(queue: ConcurrentQueue, experiment: QueueExperiment,
                 initialize: bool):
    def worker(ctx: Ctx):
        if initialize:
            yield from queue.initialize(ctx)
        else:
            # Wait for the dummy node before touching the queue.
            while (yield from ctx.load(queue.tail_addr)) == 0:
                yield from ctx.delay(50)
        for i in range(experiment.operations):
            yield from ctx.mark_start()
            yield from queue.enqueue(ctx, ctx.cpu_id * 1000 + i + 1,
                                     use_tx=experiment.use_tx)
            yield from queue.dequeue(ctx, use_tx=experiment.use_tx)
            yield from ctx.mark_end()

    return worker


def run_queue_experiment(
    experiment: QueueExperiment,
    params: MachineParams = ZEC12,
    max_cycles: Optional[int] = None,
    metrics: bool = False,
) -> SimResult:
    """Run one queue benchmark point."""
    capacity = experiment.n_threads * (experiment.operations + 2)
    machine = HtmMachine(params.with_cpus(experiment.n_threads))
    queue = ConcurrentQueue(QUEUE_BASE, capacity=capacity,
                            max_threads=experiment.n_threads)
    for index in range(experiment.n_threads):
        machine.spawn(queue_worker(queue, experiment, initialize=index == 0))
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
