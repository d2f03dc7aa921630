"""STAMP-like application kernels (paper section IV, in-text result S4).

"In [23], the IBM XL C/C++ team compares a subset of the STAMP benchmarks
using pthread locks and transactions. Depending on the benchmark
application, transactional execution improves performance by factors
between 1.2 and 7."

We reproduce the *experiment shape* with two kernels inspired by STAMP's
``vacation`` and ``kmeans``, written against the HTM API:

* **vacation** — a travel-reservation system: three relation tables
  (cars, rooms, flights), each row on its own cache line. A client
  session atomically reserves one random row from each table (check
  capacity, increment the reservation count). Baseline: one global lock
  around every session; transactional: one TBEGIN per session with the
  global lock elided.
* **kmeans** — iterative clustering: each thread processes a stream of
  points (the distance computation is pure compute, modelled as a
  delay) and then atomically folds the point into one of K centroid
  accumulators. Baseline: a global lock around the accumulation;
  transactional: a transaction per accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..htm.api import Ctx, HtmMachine
from ..mem.address import LINE_SIZE
from ..params import MachineParams, ZEC12
from ..sim.metrics import MetricsRegistry
from ..sim.results import SimResult

VACATION_BASE = 0x0200_0000
KMEANS_BASE = 0x0300_0000


# ---------------------------------------------------------------------------
# vacation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VacationExperiment:
    """One vacation benchmark point."""

    n_threads: int
    use_tx: bool
    sessions: int = 40          # reservation sessions per thread
    rows_per_table: int = 64    # cars / rooms / flights relation size
    capacity: int = 1 << 30     # effectively unlimited seats per row

    def __post_init__(self) -> None:
        if self.n_threads < 1 or self.rows_per_table < 1:
            raise ConfigurationError("bad vacation configuration")


class VacationDatabase:
    """Three relation tables; each row holds (capacity, reserved)."""

    TABLES = 3

    def __init__(self, base: int, rows: int, capacity: int) -> None:
        self.base = base
        self.rows = rows
        self.capacity = capacity
        self.lock_addr = base - LINE_SIZE

    def row_addr(self, table: int, row: int) -> int:
        return self.base + (table * self.rows + row) * LINE_SIZE

    def seed(self, ctx: Ctx):
        """Initialise row capacities (single-threaded setup)."""
        for table in range(self.TABLES):
            for row in range(self.rows):
                yield from ctx.store(self.row_addr(table, row), self.capacity)

    def reserve_session(self, ctx: Ctx, rows, use_tx: bool):
        """Atomically reserve one unit in each table's chosen row.

        Returns True when every reservation succeeded (and was applied),
        False when any row was sold out (nothing applied).
        """

        def body(t: Ctx):
            addrs = [self.row_addr(table, row)
                     for table, row in enumerate(rows)]
            remaining = []
            for addr in addrs:
                capacity = yield from t.load_ex(addr)
                reserved = yield from t.load(addr + 8)
                if reserved >= capacity:
                    return False
                remaining.append((addr, reserved))
            for addr, reserved in remaining:
                yield from t.store(addr + 8, reserved + 1)
            return True

        if use_tx:
            return (yield from ctx.transaction(body, lock=self.lock_addr))
        yield from ctx.lock(self.lock_addr)
        try:
            result = yield from body(ctx)
        finally:
            yield from ctx.unlock(self.lock_addr)
        return result


def run_vacation(experiment: VacationExperiment,
                 params: MachineParams = ZEC12,
                 metrics: bool = False) -> SimResult:
    machine = HtmMachine(params.with_cpus(experiment.n_threads))
    database = VacationDatabase(VACATION_BASE, experiment.rows_per_table,
                                experiment.capacity)

    def make_worker(tid: int):
        def worker(ctx: Ctx):
            if tid == 0:
                yield from database.seed(ctx)
                yield from ctx.store(database.lock_addr + 8, 1)  # ready flag
            else:
                while (yield from ctx.load(database.lock_addr + 8)) == 0:
                    yield from ctx.delay(200)
            for _ in range(experiment.sessions):
                rows = []
                for _table in range(VacationDatabase.TABLES):
                    rows.append((yield from ctx.rand(experiment.rows_per_table)))
                yield from ctx.mark_start()
                yield from database.reserve_session(ctx, rows,
                                                    experiment.use_tx)
                yield from ctx.mark_end()

        return worker

    for tid in range(experiment.n_threads):
        machine.spawn(make_worker(tid))
    registry = (
        MetricsRegistry(tx_log=(metrics == "tx_log")).attach(machine)
        if metrics else None
    )
    result = machine.run()
    for engine in machine.engines:
        engine.quiesce()
    if registry is not None:
        result.metrics = registry.summary()
        registry.detach()
    machine.close()
    return result


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KmeansExperiment:
    """One kmeans benchmark point."""

    n_threads: int
    use_tx: bool
    points_per_thread: int = 40
    clusters: int = 16
    #: Cycles of pure compute per point (the distance calculation).
    compute_cycles: int = 60

    def __post_init__(self) -> None:
        if self.n_threads < 1 or self.clusters < 1:
            raise ConfigurationError("bad kmeans configuration")


class KmeansAccumulators:
    """K centroid accumulators, each (sum, count) on its own line."""

    def __init__(self, base: int, clusters: int) -> None:
        self.base = base
        self.clusters = clusters
        self.lock_addr = base - LINE_SIZE

    def cluster_addr(self, cluster: int) -> int:
        return self.base + cluster * LINE_SIZE

    def accumulate(self, ctx: Ctx, cluster: int, value: int, use_tx: bool):
        addr = self.cluster_addr(cluster)

        def body(t: Ctx):
            yield from t.add(addr, value)      # sum += value
            yield from t.add(addr + 8, 1)      # count += 1

        if use_tx:
            yield from ctx.transaction(body, constrained=True)
            return
        yield from ctx.lock(self.lock_addr)
        try:
            yield from body(ctx)
        finally:
            yield from ctx.unlock(self.lock_addr)


def run_kmeans(experiment: KmeansExperiment,
               params: MachineParams = ZEC12,
               metrics: bool = False) -> SimResult:
    machine = HtmMachine(params.with_cpus(experiment.n_threads))
    accumulators = KmeansAccumulators(KMEANS_BASE, experiment.clusters)

    def worker(ctx: Ctx):
        for _ in range(experiment.points_per_thread):
            cluster = yield from ctx.rand(experiment.clusters)
            value = (yield from ctx.rand(1000)) + 1
            yield from ctx.delay(experiment.compute_cycles)  # distance calc
            yield from ctx.mark_start()
            yield from accumulators.accumulate(ctx, cluster, value,
                                               experiment.use_tx)
            yield from ctx.mark_end()

    for _ in range(experiment.n_threads):
        machine.spawn(worker)
    registry = (
        MetricsRegistry(tx_log=(metrics == "tx_log")).attach(machine)
        if metrics else None
    )
    result = machine.run()
    for engine in machine.engines:
        engine.quiesce()
    if registry is not None:
        result.metrics = registry.summary()
        registry.detach()
    machine.close()
    return result
