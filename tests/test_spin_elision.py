"""Tests for the spin-wait elision subsystem.

Elision is a pure wall-clock optimization under a strict bit-identity
contract: every architected outcome — cycles, per-CPU instruction
counts, transaction statistics, final memory — must be exactly the same
with elision on (the default) and off (``Machine(spin_elide=False)``). The
tests here pin that contract from several angles:

* pinned sweep points, serial and through the parallel runner, in both
  modes;
* a positive test that parking actually engages (otherwise the identity
  tests would vacuously compare two non-elided runs);
* false-positive detection: loops that mutate memory, or whose register
  effects are not idempotent, must never park;
* the ``max_cycles`` budget boundary (including budgets that stop a
  48-CPU run with every spinner parked) and the parked-deadlock guard;
* ``REPRO_CHECK=1`` differential runs, standalone and through the
  ``repro.verify`` fuzzer (whose schedule jitter disables elision — the
  check must still pass).
"""

from __future__ import annotations

import pytest

from conftest import experiment_elision

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import run_tasks
from repro.cpu.assembler import assemble
from repro.cpu.isa import AGSI, AHI, HALT, J, JNZ, JZ, LHI, LTG, Mem, PAUSE, STG
from repro.errors import MachineStateError
from repro.mem.xi import WATCH_BLOCK_MASK
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler
from repro.verify import fuzz
from repro.workloads.pool import PoolLayout, build_update_program

#: Same pinned tuples as test_dataplane: (cycles, instructions,
#: tx_aborted, xi_rejects) from the reference implementation.
PINNED_POINTS = [
    (UpdateExperiment("tbegin", 4, 10, 4, iterations=5),
     (9098, 588, 9, 107)),
    (UpdateExperiment("tbeginc", 8, 10, 4, iterations=5),
     (20410, 873, 47, 252)),
    (UpdateExperiment("coarse", 4, 100, 4, iterations=5),
     (26679, 5084, 0, 0)),
    # High-contention constrained-TX point whose retry storms put many
    # CPUs' events in the same cycle: they must run in push order, and
    # a CPU's fused push and pop must never pass an equal-time event of
    # another CPU.
    (UpdateExperiment("tbeginc", 24, 10, 4, iterations=15),
     (232667, 8164, 687, 2405)),
]

IDS = [f"{e.scheme}-{e.n_cpus}" for e, _ in PINNED_POINTS]

LOCK = Mem(disp=0x8000)
VAR = Mem(disp=0x9000)


def _summary(result):
    return (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    )


class TestPinnedBitIdentity:
    @pytest.mark.parametrize("experiment,pinned", PINNED_POINTS, ids=IDS)
    def test_serial_elided(self, experiment, pinned, monkeypatch):
        assert _summary(run_update_experiment(experiment)) == pinned

    @pytest.mark.parametrize("experiment,pinned", PINNED_POINTS, ids=IDS)
    def test_serial_unelided(self, experiment, pinned, monkeypatch):
        experiment_elision(monkeypatch, False)
        assert _summary(run_update_experiment(experiment)) == pinned

    def test_parallel_elided(self, monkeypatch):
        results = run_tasks(
            [("update", experiment) for experiment, _ in PINNED_POINTS],
            workers=2,
        )
        assert [_summary(r) for r in results] == [p for _, p in PINNED_POINTS]

    def test_parallel_unelided(self, monkeypatch):
        # Workers fork after the patch, so they inherit it.
        experiment_elision(monkeypatch, False)
        results = run_tasks(
            [("update", experiment) for experiment, _ in PINNED_POINTS],
            workers=2,
        )
        assert [_summary(r) for r in results] == [p for _, p in PINNED_POINTS]


class TestParkingEngages:
    def test_coarse_point_parks_and_wakes(self, monkeypatch):
        # Guards the identity tests against vacuity: with a contended
        # coarse lock the machinery must actually engage.
        result = run_update_experiment(PINNED_POINTS[2][0])
        assert result.sched is not None
        assert result.sched["parks"] > 0
        assert result.sched["wakes"] == result.sched["parks"]

    def test_unelided_run_never_parks(self, monkeypatch):
        experiment_elision(monkeypatch, False)
        result = run_update_experiment(PINNED_POINTS[2][0])
        assert result.sched["parks"] == 0
        assert result.sched["wakes"] == 0

    def test_machine_spin_elide_false_overrides_env(self):
        machine = Machine(ZEC12, spin_elide=False)
        machine.add_program(assemble(_spinlock_contender(holds=40)))
        machine.add_program(assemble(_spinlock_contender(holds=40)))
        result = machine.run()
        assert result.sched["parks"] == 0


def _spinlock_contender(holds: int):
    """Acquire LOCK, bump VAR ``holds`` times, release, halt."""
    from repro.sync.spinlock import acquire_lock, release_lock

    return (
        acquire_lock(LOCK, "l")
        + [AGSI(VAR, 1)] * holds
        + release_lock(LOCK)
        + [HALT()]
    )


class TestFalsePositives:
    def test_memory_mutating_loop_never_parks(self, monkeypatch):
        # The loop's AGSI disqualifies it at predecode: a spin body may
        # not mutate memory. It must never park, and its architected
        # outcome must match the unelided run exactly.
        items = [
            LHI(9, 50),
            ("loop", LTG(1, VAR)),
            AGSI(VAR, 1),
            AHI(9, -1),
            JNZ("loop"),
            HALT(),
        ]
        summaries = []
        for elide in (True, False):
            machine = Machine(ZEC12, spin_elide=elide)
            machine.add_program(assemble(items))
            machine.add_program(assemble(items))
            result = machine.run()
            assert result.sched["parks"] == 0
            summaries.append(
                (_summary(result), machine.memory.read_int(VAR.disp, 8))
            )
        assert summaries[0] == summaries[1]
        assert summaries[0][1] == 100

    def test_non_idempotent_registers_never_certify(self):
        # Statically this countdown loop qualifies (single LTG load,
        # register-only body) but AHI changes R9 every iteration, so the
        # two-identical-iterations certification can never succeed.
        items = [
            LHI(9, 200),
            ("loop", LTG(1, VAR)),
            AHI(9, -1),
            JNZ("loop"),
            HALT(),
        ]
        machine = Machine(ZEC12, spin_elide=True)
        machine.add_program(assemble(items))
        result = machine.run()
        assert result.sched["parks"] == 0
        assert result.cpus[0].instructions == 2 + 3 * 200

    def test_cas_retry_loop_never_parks(self):
        # The spinlock CSG retry range contains a store, so only the
        # read-only test loop may park; with an uncontended lock nothing
        # spins at all.
        machine = Machine(ZEC12, spin_elide=True)
        machine.add_program(assemble(_spinlock_contender(holds=1)))
        result = machine.run()
        assert result.sched["parks"] == 0


class TestBudgetAndDeadlock:
    def test_budget_boundary_is_bit_identical(self, monkeypatch):
        experiment = PINNED_POINTS[2][0]
        elided = run_update_experiment(experiment, max_cycles=9000)
        experiment_elision(monkeypatch, False)
        plain = run_update_experiment(experiment, max_cycles=9000)
        assert elided.aborted_early and plain.aborted_early
        assert _summary(elided) == _summary(plain)
        assert elided.cycles <= 9000

    def test_parked_forever_raises_with_block_diagnostic(self):
        # CPU 0 seizes the lock and halts without releasing; CPU 1
        # certifies its spin loop and parks. Once every runnable CPU is
        # done, nothing can ever touch the watched block — that's a
        # workload deadlock, and the guard must say which block.
        holder = [LHI(1, 1), STG(1, LOCK), HALT()]
        spinner = [
            # Delay loop: let the holder's lock store land first, so the
            # spin loop below really does observe a taken lock.
            LHI(9, 100),
            ("delay", AHI(9, -1)),
            JNZ("delay"),
            ("spin", LTG(1, LOCK)),
            JZ("out"),
            PAUSE(),
            J("spin"),
            ("out", HALT()),
        ]
        machine = Machine(ZEC12, spin_elide=True)
        machine.add_program(assemble(holder))
        machine.add_program(assemble(spinner))
        with pytest.raises(MachineStateError) as exc:
            machine.run()
        message = str(exc.value)
        assert "parked" in message
        assert "block 0x" in message

    def test_parked_forever_respects_max_cycles(self):
        # Same workload under a budget: the run must stop cleanly at the
        # boundary instead of raising.
        holder = [LHI(1, 1), STG(1, LOCK), HALT()]
        spinner = [
            # Delay loop: let the holder's lock store land first, so the
            # spin loop below really does observe a taken lock.
            LHI(9, 100),
            ("delay", AHI(9, -1)),
            JNZ("delay"),
            ("spin", LTG(1, LOCK)),
            JZ("out"),
            PAUSE(),
            J("spin"),
            ("out", HALT()),
        ]
        machine = Machine(ZEC12, spin_elide=True)
        machine.add_program(assemble(holder))
        machine.add_program(assemble(spinner))
        result = machine.run(max_cycles=5_000)
        assert result.aborted_early
        assert result.cycles <= 5_000

    def test_diagnostic_names_spin_watched_block(self):
        # The deadlock guard reads the LineWatchTable, not the event
        # queue: it must name the block a parked spinner watches.
        machine = Machine(ZEC12.with_cpus(4))
        cpu = machine.add_program(assemble([HALT()]))
        line = 0x8000
        cpu.engine.fabric.watches.add(0, line, line & WATCH_BLOCK_MASK)
        scheduler = Scheduler(machine.drivers)
        scheduler._parked[0] = None  # the guard only reads the indices
        with pytest.raises(MachineStateError) as exc:
            scheduler._raise_parked_deadlock()
        assert "cpu 0 parked on block 0x8000 (line 0x8000)" in str(exc.value)


def _coarse_48_machine(spin_elide):
    """The contended coarse-lock 48-CPU point (280111 cycles to finish)
    on a machine with elision pinned on or off."""
    machine = Machine(ZEC12.with_cpus(48), spin_elide=spin_elide)
    program = build_update_program(
        "coarse", PoolLayout(1000), n_vars=4, iterations=3,
        fallback_mode=machine.fallback_mode,
    )
    for _ in range(48):
        machine.add_program(program)
    return machine


class TestCycleBudgetBoundary:
    #: Budgets landing at the very start, deep inside, and just short of
    #: the end of the run — the middle ones stop with every spinner
    #: parked mid-chain.
    BUDGETS = (1000, 57_001, 137_777, 279_000)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_budget_identity_mid_chain(self, budget):
        parked = _coarse_48_machine(True).run(max_cycles=budget)
        plain = _coarse_48_machine(False).run(max_cycles=budget)
        assert parked == plain
        assert parked.aborted_early
        assert plain.sched["parks"] == plain.sched["retry_parks"] == 0

    def test_budget_truncates_parked_chains(self):
        # Guards the identity above against vacuity: at a deep mid-run
        # budget the elided run must have parked spinners whose chains
        # the clamp cut short.
        parked = _coarse_48_machine(True).run(max_cycles=137_777)
        assert parked.sched["parks"] > 0
        assert parked.sched["spin_steps"] > 0


class TestEventCountInvariant:
    """Parked spinner steps are counted, not queued: ``events`` counts
    each one as the push it stands for, and every other step is pushed.
    So ``events`` is the same with parking on and off."""

    #: Unbudgeted points and their pinned ``events``.
    POINTS = [
        (UpdateExperiment("coarse", 48, 10, 4, iterations=15), 502_148),
        (UpdateExperiment("coarse", 24, 10, 4, iterations=15), 58_230),
        (UpdateExperiment("tbegin", 24, 10, 4, iterations=15), 75_748),
    ]

    @pytest.mark.parametrize(
        "experiment,total", POINTS,
        ids=[f"{e.scheme}-{e.n_cpus}" for e, _ in POINTS],
    )
    def test_events_plus_elided_steps(self, experiment, total,
                                      monkeypatch):
        parked = run_update_experiment(experiment).sched
        experiment_elision(monkeypatch, False)
        plain = run_update_experiment(experiment).sched
        assert parked["parks"] > 0 and parked["spin_steps"] > 0
        assert plain["parks"] == 0
        assert parked["events"] == plain["events"] == total


def _spin_and_stop_machine(spin_elide):
    """Coarse-lock spinners beside contended TBEGINC CPUs: constrained
    transactions escalate to broadcast stops while spinners are
    parked."""
    machine = Machine(ZEC12.with_cpus(16), spin_elide=spin_elide)
    constrained = build_update_program(
        "tbeginc", PoolLayout(10), n_vars=4, iterations=5)
    locked = build_update_program(
        "coarse", PoolLayout(10, pool_base=0x0200_0000), n_vars=4,
        iterations=5, fallback_mode=machine.fallback_mode)
    for _ in range(8):
        machine.add_program(constrained)
    for _ in range(8):
        machine.add_program(locked)
    return machine


class TestBroadcastStopWhileParked:
    def test_stop_materializes_parked_spinners(self, monkeypatch):
        # Engaging broadcast-stop wakes every parked spinner; the run
        # must still match the elision-off run (REPRO_CHECK replays it
        # and raises on any divergence).
        woken_during_stop = []
        wake = Scheduler.wake_parked

        def watching_wake(self, index):
            rec = self._parked.get(index)
            if rec is not None and not rec.is_retry and self._solo_waiters:
                woken_during_stop.append(index)
            wake(self, index)

        monkeypatch.setattr(Scheduler, "wake_parked", watching_wake)
        monkeypatch.setenv("REPRO_CHECK", "1")
        result = _spin_and_stop_machine(True).run()
        assert result.sched["parks"] > 0
        assert result.sched["broadcast_stops"] > 0
        assert woken_during_stop
        assert result == _spin_and_stop_machine(False).run()


class TestLongParks:
    def test_long_park_reanchors_and_stays_identical(self, monkeypatch):
        # Spinners parked through a long critical section: the ordering
        # log must be pruned (re-anchoring the parked chains) rather
        # than grow with the holder's pushes, and the run must match the
        # elision-off run.
        from repro.sync.spinlock import acquire_lock, release_lock

        holder = (acquire_lock(LOCK, "l") + [LHI(9, 30_000), ("d", AHI(9, -1)), JNZ("d")]
                  + release_lock(LOCK) + [HALT()])
        waiter = acquire_lock(LOCK, "l") + release_lock(LOCK) + [HALT()]
        moved = []
        reanchor = Scheduler._reanchor

        def watching_reanchor(self, queued, logged):
            before = {i: c.g0 for i, c in self._chains.items()}
            reanchor(self, queued, logged)
            moved.extend(i for i, c in self._chains.items()
                         if c.g0 != before[i])
            assert len(self._log.times) <= self._log.cap + 1

        monkeypatch.setattr(Scheduler, "_reanchor", watching_reanchor)
        results = []
        for elide in (True, False):
            machine = Machine(ZEC12.with_cpus(4), spin_elide=elide)
            machine.add_program(assemble(holder))
            for _ in range(3):
                machine.add_program(assemble(waiter))
            results.append(machine.run())
        assert results[0].sched["parks"] > 0
        assert moved
        assert results[0] == results[1]


class TestSpinCheck:
    def test_differential_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert _summary(
            run_update_experiment(PINNED_POINTS[2][0])
        ) == PINNED_POINTS[2][1]

    def test_fuzzer_with_jitter_stays_green(self, monkeypatch):
        # Fuzz cases install schedule jitter, which disables elision for
        # that run; the differential check must still come back clean.
        monkeypatch.setenv("REPRO_CHECK", "1")
        report = fuzz(seed=0, n_cases=5, shrink=False)
        assert report.ok, [f.violations for f in report.failures]
