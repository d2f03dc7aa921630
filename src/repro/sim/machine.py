"""The top-level simulated machine.

Builds the full system — main memory, page table, coherence fabric with
L3/L4 caches, one transaction engine per CPU — and runs programs (ISA) or
HTM threads (coroutines) on it.

Typical use::

    from repro import Machine, ZEC12
    machine = Machine(ZEC12.with_cpus(4))
    machine.add_program(program)          # an assembled ISA program
    machine.add_program(program)
    result = machine.run()
    print(result.throughput)
"""

from __future__ import annotations

import os

from typing import Callable, List, Optional

from ..core.engine import TxEngine
from ..core.footprint import resolve_policy_spec
from ..stm import resolve_fallback_mode
from ..cpu.assembler import Program
from ..cpu.interpreter import IsaCpu
from ..cpu.interrupts import OsModel
from ..errors import ConfigurationError, ProtocolError
from ..mem.fabric import CoherenceFabric
from ..mem.memory import MainMemory
from ..mem.paging import PageTable
from ..params import MachineParams, ZEC12
from .results import CpuResult, SimResult
from .scheduler import Scheduler


class MarkRecorder:
    """Collects MARK_START/MARK_END interval measurements for one CPU."""

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self._start: Optional[int] = None
        self.intervals: List[int] = []

    def __call__(self, kind: str) -> None:
        now = self._clock()
        if kind == "start":
            self._start = now
        elif kind == "end" and self._start is not None:
            self.intervals.append(now - self._start)
            self._start = None


class Machine:
    """A complete simulated zEC12-like SMP machine."""

    def __init__(
        self,
        params: MachineParams = ZEC12,
        external_interrupt_interval: Optional[int] = None,
        spin_elide: Optional[bool] = None,
    ) -> None:
        self.params = params
        #: Per-machine override for spin-wait elision (None = honour the
        #: ``REPRO_SPIN_ELIDE`` environment variable, the default).
        self.spin_elide = spin_elide
        self.memory = MainMemory()
        self.page_table = PageTable()
        self.fabric = CoherenceFabric(params)
        self.os = OsModel(self.page_table)
        self.engines: List[TxEngine] = []
        self.drivers: List = []
        self._recorders: List[MarkRecorder] = []
        self.scheduler: Optional[Scheduler] = None
        self.external_interrupt_interval = external_interrupt_interval
        #: Optional ``perturb(index, latency) -> latency`` hook installed
        #: on the scheduler of every subsequent :meth:`run` (see
        #: :attr:`~repro.sim.scheduler.Scheduler.perturb`).
        self.schedule_perturb: Optional[Callable[[int, int], int]] = None
        self._next_interrupt: List[int] = []
        #: Programs attached via :meth:`add_program` (None for custom
        #: drivers) — lets ``REPRO_CHECK=1`` rebuild a reference run.
        self._programs: List[Optional[Program]] = []
        #: Set by :meth:`close`; a closed machine cannot run again.
        self._closed = False

    # ------------------------------------------------------------------

    @property
    def footprint_policy(self) -> str:
        """The resolved footprint-policy spec every engine is built with
        (``params.footprint_policy``, else ``$REPRO_FOOTPRINT_POLICY``,
        else ``"zec12"``) — see :mod:`repro.core.footprint`."""
        return resolve_policy_spec(self.params)

    @property
    def fallback_mode(self) -> str:
        """The resolved hybrid-TM fallback mode every engine is built
        with (``params.fallback_mode``, else ``$REPRO_FALLBACK_MODE``,
        else ``"lock"``) — see :mod:`repro.stm`."""
        return resolve_fallback_mode(self.params)

    def _new_engine(self) -> TxEngine:
        self._check_open()
        cpu_id = len(self.engines)
        if cpu_id >= self.params.topology.total_cores:
            raise ConfigurationError(
                f"topology supports only {self.params.topology.total_cores} "
                "CPUs; use params.with_cpus(n)"
            )
        engine = TxEngine(cpu_id, self.params, self.fabric, self.memory,
                          self.page_table)
        self.engines.append(engine)
        return engine

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("machine is closed")

    def _now(self) -> int:
        return self.scheduler.now if self.scheduler is not None else 0

    def add_program(self, program: Program) -> IsaCpu:
        """Attach a new CPU running an assembled ISA program."""
        engine = self._new_engine()
        recorder = MarkRecorder(self._now)
        cpu = IsaCpu(engine, program, self.os, mark_sink=recorder,
                     spin_elide=self.spin_elide)
        self.drivers.append(cpu)
        self._recorders.append(recorder)
        self._next_interrupt.append(0)
        self._programs.append(program)
        return cpu

    def add_driver(self, factory: Callable[[TxEngine, MarkRecorder], object]):
        """Attach a custom driver (used by the HTM coroutine API).

        ``factory(engine, recorder)`` must return an object with
        ``step() -> int``, ``done`` and ``engine`` attributes.
        """
        engine = self._new_engine()
        recorder = MarkRecorder(self._now)
        driver = factory(engine, recorder)
        self.drivers.append(driver)
        self._recorders.append(recorder)
        self._next_interrupt.append(0)
        self._programs.append(None)
        return driver

    # ------------------------------------------------------------------

    def _inject_interrupts(self, index: int, now: int) -> None:
        interval = self.external_interrupt_interval
        if not interval:
            return
        if self._next_interrupt[index] == 0:
            # De-phase the CPUs so timer pops are not synchronised.
            self._next_interrupt[index] = interval * (index + 1) // len(
                self.drivers
            ) + interval
        if now >= self._next_interrupt[index]:
            self._next_interrupt[index] = now + interval
            self.engines[index].external_interruption()

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        """Run all drivers to completion; returns the collected results."""
        self._check_open()
        if not self.drivers:
            raise ConfigurationError("no CPUs attached to the machine")
        check = (
            os.environ.get("REPRO_CHECK") == "1"
            and self.spin_elide is not False
            and all(p is not None for p in self._programs)
        )
        if check:
            import copy

            ref_perturb = copy.deepcopy(self.schedule_perturb)
            # The reference run must start from the same memory image —
            # callers may preload initial values before run().
            ref_pages = {
                page: bytearray(data)
                for page, data in self.memory._pages.items()
            }
        self.scheduler = Scheduler(self.drivers)
        # The hook is a per-step no-op without interrupt pressure — leave
        # it unset so the scheduler's inner loop skips it entirely.
        if self.external_interrupt_interval:
            self.scheduler.pre_step = self._inject_interrupts
        if self.schedule_perturb is not None:
            self.scheduler.perturb = self.schedule_perturb
        self.fabric.clock = lambda: self.scheduler.now
        cycles = self.scheduler.run(max_cycles=max_cycles)
        for engine in self.engines:
            engine.quiesce()
        aborted_early = max_cycles is not None and any(
            not d.done for d in self.drivers
        )
        sched = self.scheduler
        result = SimResult(
            cycles=cycles,
            cpus=[self._cpu_result(i) for i in range(len(self.drivers))],
            aborted_early=aborted_early,
            sched={
                "parks": sched.stats_parks,
                "wakes": sched.stats_wakes,
                "retry_parks": sched.stats_retry_parks,
                "retry_wakes": sched.stats_retry_wakes,
                "retry_ticks": sched.stats_retry_ticks,
                "spin_steps": sched.stats_spin_steps,
                "events": sched.stats_events,
                "heap_elides": sched.stats_heap_elides,
                "heap_elided_steps": sched.stats_heap_elided_steps,
                "pushpop_fusions": sched.stats_pushpop_fusions,
                "broadcast_stops": sched.stats_broadcast_stops,
            },
        )
        if check:
            self._reference_check(result, ref_perturb, ref_pages,
                                  max_cycles)
        return result

    def _reference_check(
        self,
        result: SimResult,
        ref_perturb: Optional[Callable[[int, int], int]],
        ref_pages,
        max_cycles: Optional[int],
    ) -> None:
        """``REPRO_CHECK=1``: replay the run with spin-wait and
        retry-storm elision forced off and assert the architected outcome
        is bit-identical — cycles, per-CPU statistics, intervals and
        final memory contents.

        The reference machine is built with ``spin_elide=False`` (the
        master switch for both parking mechanisms), which also keeps it
        from recursing into another check.
        """
        ref = Machine(
            self.params,
            external_interrupt_interval=self.external_interrupt_interval,
            spin_elide=False,
        )
        for program in self._programs:
            ref.add_program(program)
        ref.memory._pages.update(ref_pages)
        ref.schedule_perturb = ref_perturb
        ref_result = ref.run(max_cycles=max_cycles)
        ref.close()
        if ref_result != result:
            raise ProtocolError(
                "spin-elision divergence: elided run "
                f"{result!r} != reference {ref_result!r}"
            )
        mine = {
            page: bytes(data)
            for page, data in self.memory._pages.items()
            if any(data)
        }
        theirs = {
            page: bytes(data)
            for page, data in ref.memory._pages.items()
            if any(data)
        }
        if mine != theirs:
            diff = sorted(
                set(mine) ^ set(theirs)
                | {p for p in set(mine) & set(theirs) if mine[p] != theirs[p]}
            )
            raise ProtocolError(
                "spin-elision divergence: final memory differs on "
                f"page(s) {diff}"
            )

    def close(self) -> None:
        """Break the reference cycles of a finished machine.

        A machine that has run is one strongly connected object graph:
        each CPU's pre-decoded handlers capture the CPU, each engine
        aliases its own bound methods and is listed by the fabric, the
        fabric holds the scheduler's wake callback, and the fabric clock
        and the mark recorders call back into the machine. Only the
        cyclic garbage collector could free such a graph. ``close()``
        cuts those back-edges, so the whole machine is freed by
        refcounting the moment its owner drops it.

        After ``close()``, :attr:`memory`, :attr:`params` and every
        :class:`SimResult` already returned stay readable, as do the
        engines' and the fabric's ``stats_*`` counters; :meth:`run`,
        :meth:`add_program` and :meth:`add_driver` raise
        :class:`ConfigurationError`. Closing twice is a no-op. Owners
        that discard a machine after reading its result call it: the
        verify oracles' ``run_case``, the figure, queue, hash-table and
        STAMP experiments, and the ``REPRO_CHECK=1`` reference run.
        """
        if self._closed:
            return
        self._closed = True
        for driver in self.drivers:
            close = getattr(driver, "close", None)
            if close is not None:
                close()
        for engine in self.engines:
            engine.close()
        for recorder in self._recorders:
            recorder._clock = None
        self.fabric.close()
        if self.scheduler is not None:
            self.scheduler.pre_step = None

    def _cpu_result(self, index: int) -> CpuResult:
        engine = self.engines[index]
        driver = self.drivers[index]
        return CpuResult(
            cpu_id=index,
            instructions=getattr(driver, "stats_instructions", 0),
            tx_started=engine.stats_tx_started,
            tx_committed=engine.stats_tx_committed,
            tx_aborted=engine.stats_tx_aborted,
            xi_rejects=engine.stats_xi_rejected,
            sw_committed=engine.stats_sw_committed,
            sw_aborted=engine.stats_sw_aborted,
            intervals=list(self._recorders[index].intervals),
        )
