"""What a parked retry tick no longer tests, and what it still does.

A tick (``Scheduler._drain_parked``) reads only the state other CPUs can
change while a CPU is retry-parked: its engine's pending abort and
missing-page set, and the line's fabric entry. It relies on the rest
staying as the parking try left it:

* the CPU's L1 and L2 hold no copy of the pending line, and its
  read-only owner bit is clear (only its own fetches change them);
* its solo request stays false (only its own step sets one);
* no CPU is stopped by a broadcast while a drain runs (``_run`` wakes
  parked CPUs instead of draining them while the broadcast-stop
  machinery is engaged).

The first test checks those invariants at every wake of 48-CPU lock and
transaction points and of 200 fuzz cases. The second covers the
pending-abort test the tick keeps: an XI aborts a parked CPU's
transaction, and its very next tick wakes it. The third checks that
the scheduler's push/pop fusion count survives every way out of a run.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.core.engine import TxEngine
from repro.cpu.assembler import assemble
from repro.cpu.interpreter import IsaCpu
from repro.cpu.isa import AHI, HALT, J, JNZ, JZ, LHI, LTG, PAUSE, STG, Mem
from repro.errors import MachineStateError
from repro.params import ZEC12
from repro.sim import scheduler as scheduler_module
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler
from repro.verify.fuzzer import case_seed
from repro.verify.generator import generate_case
from repro.verify.oracle import run_case
from repro.workloads.pool import PoolLayout, build_update_program

POINTS = [
    UpdateExperiment("coarse", 48, 1000, 4, iterations=3),
    UpdateExperiment("tbegin", 48, 10, 4, iterations=3),
    UpdateExperiment("tbeginc", 48, 10, 4, iterations=3),
]


class _WakeChecker:
    """Wraps ``IsaCpu.retry_unpark`` and ``Scheduler._drain_parked`` to
    check the parked invariants at every retry wake."""

    def __init__(self, monkeypatch) -> None:
        self.wakes = 0
        self.drain_wakes = 0
        self.drains = 0
        self._in_drain = []
        unpark = IsaCpu.retry_unpark
        drain = Scheduler._drain_parked
        checker = self

        def checking_unpark(cpu):
            rec = cpu._retry_rec
            if rec is not None:
                checker.check_wake(cpu, rec)
            unpark(cpu)

        def checking_drain(scheduler, *args):
            checker.drains += 1
            checker._in_drain.append(scheduler)
            try:
                return drain(scheduler, *args)
            finally:
                checker._in_drain.pop()

        monkeypatch.setattr(IsaCpu, "retry_unpark", checking_unpark)
        monkeypatch.setattr(Scheduler, "_drain_parked", checking_drain)

    def check_wake(self, cpu, rec) -> None:
        engine = cpu.engine
        line = rec.line
        where = f"cpu {rec.cpu}, line {line:#x}"
        assert line not in engine.l1.directory._entries, where
        assert line not in engine.l2.directory._entries, where
        assert not rec.line_info.ro_owners >> rec.cpu & 1, where
        assert not engine.solo_requested, where
        self.wakes += 1
        if self._in_drain:
            self.drain_wakes += 1
            for driver in self._in_drain[-1].drivers:
                assert not driver.engine.stopped_by_broadcast, where


@pytest.mark.parametrize("experiment", POINTS,
                         ids=[f"{e.scheme}-{e.n_cpus}" for e in POINTS])
def test_parked_invariants_hold_at_every_wake(experiment, monkeypatch):
    checker = _WakeChecker(monkeypatch)
    result = run_update_experiment(experiment)
    assert checker.wakes == result.sched["retry_wakes"] > 0
    assert checker.drain_wakes > 0


@pytest.mark.parametrize("fallback_mode", ["lock", "stm"])
def test_parked_invariants_hold_in_fuzz_cases(fallback_mode, monkeypatch):
    # Fuzz cases run under schedule jitter, which keeps retry parking
    # armed; the hybrid (stm) cases add software commits.
    checker = _WakeChecker(monkeypatch)
    parks = 0
    for index in range(100):
        case = generate_case(case_seed(5, index), fallback_mode)
        parks += run_case(case).result.sched["retry_parks"]
    assert checker.wakes == parks > 0
    assert checker.drain_wakes > 0


def _tbegin_machine(spin_elide, perturb):
    machine = Machine(ZEC12.with_cpus(4), spin_elide=spin_elide)
    program = build_update_program(
        "tbegin", PoolLayout(10), n_vars=4, iterations=5,
        fallback_mode=machine.fallback_mode,
    )
    for _ in range(4):
        machine.add_program(program)
    machine.schedule_perturb = perturb
    return machine


def test_xi_abort_of_a_parked_cpu_wakes_it_at_its_next_tick(monkeypatch):
    # A perturbation hook that changes nothing counts, per CPU, the
    # steps and ticks that drew a delay; a waking tick draws none. So a
    # CPU whose count has not moved between the abort and the wake was
    # woken by the first tick after the abort.
    draws = Counter()

    def counting(index, latency):
        draws[index] += 1
        return latency

    machine = _tbegin_machine(True, counting)
    cpus = {cpu.engine.cpu_id: cpu for cpu in machine.drivers}
    aborted_at = {}
    gaps = []
    in_drain = []
    abort_now = TxEngine._abort_now
    unpark = IsaCpu.retry_unpark
    drain = Scheduler._drain_parked

    def recording_abort_now(engine, *args, **kwargs):
        before = engine.pending_abort
        abort_now(engine, *args, **kwargs)
        index = engine.cpu_id
        if (before is None and engine.pending_abort is not None
                and cpus[index]._retry_rec is not None):
            aborted_at[index] = draws[index]

    def recording_unpark(cpu):
        index = cpu.engine.cpu_id
        if index in aborted_at:
            assert in_drain, "a parked CPU's abort was not woken by a tick"
            gaps.append(draws[index] - aborted_at.pop(index))
        unpark(cpu)

    def recording_drain(scheduler, *args):
        in_drain.append(True)
        try:
            return drain(scheduler, *args)
        finally:
            in_drain.pop()

    monkeypatch.setattr(TxEngine, "_abort_now", recording_abort_now)
    monkeypatch.setattr(IsaCpu, "retry_unpark", recording_unpark)
    monkeypatch.setattr(Scheduler, "_drain_parked", recording_drain)
    parked = machine.run()
    assert gaps and set(gaps) == {0}, gaps
    assert not aborted_at
    # The aborts land exactly where the run without elision takes them.
    plain = _tbegin_machine(False, lambda index, latency: latency).run()
    assert plain.sched["retry_parks"] == 0
    assert parked == plain
    assert [c.tx_aborted for c in parked.cpus] == [
        c.tx_aborted for c in plain.cpus]


class TestFusionCountOnEveryExit:
    """``stats_pushpop_fusions`` counts the ``heappushpop`` calls of a
    run, whichever way the run ends."""

    @staticmethod
    def _count_fusions(monkeypatch):
        calls = [0]
        pushpop = scheduler_module.heappushpop

        def counting_pushpop(queue, item):
            calls[0] += 1
            return pushpop(queue, item)

        monkeypatch.setattr(scheduler_module, "heappushpop",
                            counting_pushpop)
        return calls

    def _coarse_machine(self):
        machine = Machine(ZEC12.with_cpus(48))
        program = build_update_program("coarse", PoolLayout(1000), n_vars=4,
                                       iterations=3)
        for _ in range(48):
            machine.add_program(program)
        return machine

    @pytest.mark.parametrize("budget", [None, 57_001])
    def test_finished_and_budget_stopped_runs(self, budget, monkeypatch):
        calls = self._count_fusions(monkeypatch)
        result = self._coarse_machine().run(max_cycles=budget)
        assert result.sched["retry_ticks"] > 0
        assert result.sched["pushpop_fusions"] == calls[0] > 0

    def test_run_ended_by_the_deadlock_guard(self, monkeypatch):
        calls = self._count_fusions(monkeypatch)
        # The holder takes the lock and halts; the spinner waits out a
        # delay loop, then spins on the taken lock forever.
        lock = Mem(disp=0x4000)
        holder = [LHI(1, 1), STG(1, lock), HALT()]
        spinner = [LHI(9, 100), ("delay", AHI(9, -1)), JNZ("delay"),
                   ("spin", LTG(1, lock)), JZ("out"), PAUSE(), J("spin"),
                   ("out", HALT())]
        machine = Machine(ZEC12.with_cpus(2))
        machine.add_program(assemble(holder))
        machine.add_program(assemble(spinner))
        scheduler = []
        run = Scheduler.run

        def keeping_run(self, *args, **kwargs):
            scheduler.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "run", keeping_run)
        with pytest.raises(MachineStateError):
            machine.run()
        assert scheduler[0].stats_pushpop_fusions == calls[0] > 0
