"""Tests for retry-storm elision.

Retry parking extends the spin-elision contract one level down: a
certified ``FetchRetry`` back-off chain is advanced by scheduler ticks
instead of re-executed instructions, under the same strict bit-identity
contract. The tests pin that contract from several angles:

* PPA delay identity at the interesting abort counts (0, 1, the
  exponent knee at 6, the clamp at 7, and far past it at 100) — the
  millicode's abort back-off, which retry parking never elides (a
  ``FetchRetry`` waits ``probe - l1_hit``, the line's busy window or
  the reject latency, and draws no RNG) — and end-to-end reject/abort
  identity on a constrained-TX point;
* certification: a chain parks at its first busy or stiff-armed try
  whose step made exactly one fetch, never at a probe raise or a
  multi-fetch step, and never while a refusal applies; a parked chain
  stays parked when the line's owner changes, and the run still equals
  the elision-off run;
* the parked-deadlock diagnostic names a retry waiter's watched block;
* pinned bit-identity on coarse/fine/rwlock 48-CPU points, serial and
  through the parallel runner, with elision on and off
  (``Machine(spin_elide=)``), plus the semantic scheduler counters of the
  elided runs;
* ``REPRO_CHECK=1`` differential replay, with and without schedule
  jitter (retry parking stays armed under jitter).
"""

from __future__ import annotations

import random

import pytest

from conftest import experiment_elision

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import run_tasks
from repro.core.engine import RetryPark
from repro.core.ppa import PpaAssist
from repro.cpu.assembler import assemble
from repro.cpu.interpreter import IsaCpu
from repro.cpu.isa import AHI, HALT, JNZ, LG, LHI, STG, TBEGIN, TEND, Mem
from repro.errors import MachineStateError
from repro.mem.fabric import CoherenceFabric
from repro.mem.memory import PAGE_SHIFT
from repro.mem.xi import WATCH_BLOCK_MASK
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler
from repro.verify.jitter import ScheduleJitter
from repro.workloads.pool import PoolLayout, build_update_program

#: (cycles, instructions, tx_aborted, xi_rejects) pinned from the
#: reference implementation — 48-CPU points over all three lock schemes
#: (fine-grained locking is single-variable by design).
PINNED_48CPU = [
    (UpdateExperiment("coarse", 48, 1000, 4, iterations=3),
     (280111, 186668, 0, 0)),
    (UpdateExperiment("fine", 48, 1000, 1, iterations=3),
     (3412, 2256, 0, 0)),
    (UpdateExperiment("rwlock", 48, 1000, 4, iterations=3),
     (51045, 3984, 0, 0)),
]

IDS = [f"{e.scheme}-{e.n_cpus}" for e, _ in PINNED_48CPU]

#: The environments every pinned point must agree across: spin/retry
#: elision on and off, over the scheduler's one heapq event queue.
#: ``tests/test_virtseq.py`` checks that the retired queue selector
#: ``REPRO_HEAP_SCHED`` stays inert.
MODES = ["1", "0"]
MODE_IDS = ["elide-heap", "plain-heap"]

#: ``SimResult.sched`` keys of the deleted queue backends and of the
#: deleted heap elision; no run may report them, whatever the
#: environment says.
RETIRED_QUEUE_COUNTERS = ("calendar_resizes", "bucket_max_occupancy",
                          "queue_switches", "heap_elides",
                          "heap_elided_steps")

#: The semantic ``SimResult.sched`` counters of the elided runs of
#: :data:`PINNED_48CPU`, pinned from the reference implementation. They
#: count what the simulated machine did (events pushed, chains parked,
#: placeholder advances), not how the event queue stored it.
PINNED_SCHED_48CPU = [
    {"events": 238278, "parks": 1537, "wakes": 1537, "retry_parks": 1468,
     "retry_wakes": 1468, "retry_ticks": 47772, "spin_steps": 178962,
     "broadcast_stops": 0},
    {"events": 2704, "parks": 0, "wakes": 0, "retry_parks": 8,
     "retry_wakes": 8, "retry_ticks": 8, "spin_steps": 0,
     "broadcast_stops": 0},
    {"events": 11881, "parks": 0, "wakes": 0, "retry_parks": 156,
     "retry_wakes": 156, "retry_ticks": 6786, "spin_steps": 0,
     "broadcast_stops": 0},
]


def _summary(result):
    return (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    )


class TestPpaBackoffIdentity:
    @pytest.mark.parametrize("count", [0, 1, 6, 7, 100])
    def test_delay_deterministic_per_seed(self, count):
        # The PPA delay stream must depend only on the seed and the
        # sequence of positive counts — never on scheduler mode — so two
        # assists with the same seed agree draw for draw.
        a = PpaAssist(ZEC12.latencies, random.Random(99))
        b = PpaAssist(ZEC12.latencies, random.Random(99))
        for _ in range(5):
            assert a.delay_cycles(count) == b.delay_cycles(count)

    @pytest.mark.parametrize("count", [0, 1, 6, 7, 100])
    def test_delay_bounds(self, count):
        unit = ZEC12.latencies.on_chip_intervention
        ppa = PpaAssist(ZEC12.latencies, random.Random(7))
        for _ in range(20):
            delay = ppa.delay_cycles(count)
            if count == 0:
                assert delay == 0
            else:
                exponent = min(count, PpaAssist.MAX_EXPONENT)
                assert unit <= delay <= unit * (1 << exponent)

    def test_clamped_counts_share_the_distribution(self):
        # Counts 7 and 100 both clamp to MAX_EXPONENT=6: same seed, same
        # draws — the back-off ceiling is retry-count independent.
        a = PpaAssist(ZEC12.latencies, random.Random(3))
        b = PpaAssist(ZEC12.latencies, random.Random(3))
        assert [a.delay_cycles(7) for _ in range(10)] == [
            b.delay_cycles(100) for _ in range(10)
        ]

    def test_constrained_point_reject_identity(self, monkeypatch):
        # End to end: a contended constrained-TX point's per-CPU reject
        # and abort counters (fed by the PPA back-off chains) must be
        # identical with retry parking on and off.
        experiment = UpdateExperiment("tbeginc", 24, 10, 4, iterations=15)
        elided = run_update_experiment(experiment)
        experiment_elision(monkeypatch, False)
        plain = run_update_experiment(experiment)
        assert [
            (c.xi_rejects, c.tx_aborted, c.instructions)
            for c in elided.cpus
        ] == [
            (c.xi_rejects, c.tx_aborted, c.instructions)
            for c in plain.cpus
        ]
        assert elided.cycles == plain.cycles


class TestTransactionalRetryParking:
    def test_constrained_point_retry_parks_identically(self, monkeypatch):
        # Back-off chains inside a transaction park like any other: the
        # pinned TBEGINC point must retry-park and still equal its
        # non-elided run in every architected number.
        experiment = UpdateExperiment("tbeginc", 8, 10, 4, iterations=5)
        elided = run_update_experiment(experiment)
        experiment_elision(monkeypatch, False)
        plain = run_update_experiment(experiment)
        assert elided.sched["retry_parks"] > 0
        assert plain.sched["retry_parks"] == 0
        assert elided == plain
        assert _summary(elided) == (20410, 873, 47, 252)


class TestRetryCertification:
    """The raise-time rule of ``IsaCpu._retry_note``."""

    LINE = 0x8000

    def _armed_cpu(self):
        machine = Machine(ZEC12.with_cpus(4), spin_elide=True)
        cpu = machine.add_program(assemble([HALT()]))
        cpu.configure_spin_elide(True)
        return cpu

    def _raise(self, cpu, fetches=1, fetch_wait=None):
        """Mimic step()'s bookkeeping around a FetchRetry raise for
        ``LINE``: ``fetches`` fetches since the step's entry snapshot,
        and ``_fetch_wait`` as the raise left it (clear after a busy or
        reject try, armed after a probe). Returns whether it parks."""
        fabric = cpu.engine.fabric
        fetch0 = fabric.stats_fetches
        fabric.stats_fetches += fetches
        cpu.engine._fetch_wait = fetch_wait
        return cpu._retry_note((self.LINE, True), fetch0)

    def _not_parked(self, cpu):
        return (cpu._retry_rec is None
                and cpu.engine.fabric.watches.retry_by_cpu == {})

    def test_try_raise_parks_and_registers_watch(self):
        cpu = self._armed_cpu()
        assert self._raise(cpu)
        assert cpu._retry_rec.key == (self.LINE, True)
        assert cpu.engine.fabric.watches.retry_by_cpu[0] == (
            self.LINE, self.LINE & WATCH_BLOCK_MASK
        )
        cpu.retry_unpark()
        assert self._not_parked(cpu)

    @pytest.mark.parametrize("fetches", [0, 1])
    def test_probe_raise_does_not_park(self, fetches):
        # The try after a probe may succeed at once. A probe raise with
        # one fetch is a two-line operation whose leading line hit.
        cpu = self._armed_cpu()
        assert not self._raise(cpu, fetches=fetches,
                               fetch_wait=(self.LINE, True))
        assert self._not_parked(cpu)

    def test_two_fetch_step_does_not_park(self):
        # A multi-line operation replays its leading L1-hit fetch every
        # retry step, which the ticks do not emulate.
        cpu = self._armed_cpu()
        assert not self._raise(cpu, fetches=2)
        assert self._not_parked(cpu)

    REFUSALS = {
        "pending_abort": lambda cpu: setattr(
            cpu.engine, "pending_abort", object()),
        "solo_requested": lambda cpu: setattr(
            cpu.engine, "solo_requested", True),
        "stopped_by_broadcast": lambda cpu: setattr(
            cpu.engine, "stopped_by_broadcast", True),
        "page_missing": lambda cpu: cpu.engine._page_missing.add(0x10),
        "per_ifetch": lambda cpu: setattr(
            cpu.engine.per, "ifetch_range", (0, 0x1000)),
        "per_branch": lambda cpu: setattr(
            cpu.engine.per, "branch_range", (0, 0x1000)),
    }

    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_refusal_blocks_parking(self, refusal):
        cpu = self._armed_cpu()
        self.REFUSALS[refusal](cpu)
        assert not self._raise(cpu)
        assert self._not_parked(cpu)

    def test_step_parks_at_first_busy_try(self):
        # A real load of a line in CPU 1's transfer window: the first
        # step's probe raise backs off without parking, the second
        # step's busy try parks, carrying its own delay (the rest of the
        # window) for the scheduler to apply.
        machine = Machine(ZEC12.with_cpus(4), spin_elide=True)
        cpu = machine.add_program(assemble([LG(1, Mem(disp=self.LINE)),
                                            HALT()]))
        machine.add_program(assemble([HALT()]))
        cpu.configure_spin_elide(True)
        fabric = cpu.engine.fabric
        assert fabric.try_fetch(1, self.LINE, True).done
        busy_until = fabric._lines[self.LINE].busy_until
        assert cpu.step() > 0
        assert cpu.engine._fetch_wait == (self.LINE, False)
        assert self._not_parked(cpu)
        with pytest.raises(RetryPark) as park:
            cpu.step()
        assert park.value.delay == busy_until - fabric.clock()
        assert park.value.rec is cpu._retry_rec
        assert cpu.stats_instructions == 0


def _tbeginc_8_machine(spin_elide):
    """A contended TBEGINC 8-CPU point whose lines change exclusive
    owner while back-off chains wait on them."""
    machine = Machine(ZEC12.with_cpus(8), spin_elide=spin_elide)
    program = build_update_program("tbeginc", PoolLayout(10), n_vars=4,
                                   iterations=5)
    for _ in range(8):
        machine.add_program(program)
    return machine


def _nonzero_bytes(memory):
    """Final memory as ``{address: byte}`` of its non-zero bytes."""
    return {
        (page << PAGE_SHIFT) + offset: byte
        for page, data in memory._pages.items()
        for offset, byte in enumerate(data) if byte
    }


class TestOwnerChangeWhileParked:
    def test_chain_stays_parked_across_owner_change(self, monkeypatch):
        # No owner condition guards the park: a parked chain's ticks
        # re-read the owner live, so it stays parked while the line
        # passes from one stiff-arming owner to another, and the run
        # equals the elision-off run in results and final memory. The
        # owners are the targets of the XIs a tick delivers (a parked
        # requester's retry watch is registered), per park.
        owners = {}
        parks = {}
        try_park = IsaCpu._retry_try_park
        send_xi = CoherenceFabric._send_xi

        def counting_park(self, info):
            parked = try_park(self, info)
            if parked:
                parks[self.cpu_id] = parks.get(self.cpu_id, 0) + 1
            return parked

        def watching_send_xi(self, xi):
            cpu = xi.requester
            if cpu in self.watches.retry_by_cpu:
                owners.setdefault((cpu, parks[cpu]), set()).add(xi.target)
            return send_xi(self, xi)

        monkeypatch.setattr(IsaCpu, "_retry_try_park", counting_park)
        monkeypatch.setattr(CoherenceFabric, "_send_xi", watching_send_xi)
        runs = []
        for elide in (True, False):
            machine = _tbeginc_8_machine(elide)
            result = machine.run()
            runs.append((result, _nonzero_bytes(machine.memory)))
            machine.close()
        (parked, parked_mem), (plain, plain_mem) = runs
        assert any(len(seen) > 1 for seen in owners.values())
        assert parked.sched["retry_parks"] > 0
        assert plain.sched["retry_parks"] == 0
        assert parked == plain
        assert parked_mem == plain_mem


def _straddle_machine(spin_elide):
    """CPU 0 loads a doubleword straddling lines A and B after caching A;
    CPU 1 holds B in a transaction; CPU 2 stores to A while CPU 0's
    fetch of B is still being turned away."""
    line_a, line_b = 0x10000, 0x10100

    def delay(count, label="d"):
        return [LHI(9, count), (label, AHI(9, -1)), JNZ(label)]

    machine = Machine(ZEC12.with_cpus(4), spin_elide=spin_elide)
    machine.add_program(assemble(
        [LG(1, Mem(disp=line_a))] + delay(60)
        + [LG(2, Mem(disp=line_b - 4)), HALT()]))
    machine.add_program(assemble(
        delay(5) + [("t", TBEGIN()), JNZ("t"), LHI(3, 5),
                    STG(3, Mem(disp=line_b))]
        + delay(600, "h") + [TEND(), HALT()]))
    machine.add_program(assemble(
        delay(150) + [LHI(4, 7), STG(4, Mem(disp=line_a)), HALT()]))
    return machine, line_b


class TestMultiLineOperations:
    def test_straddling_load_never_parks(self, monkeypatch):
        # Every re-execution of the straddling load re-fetches line A
        # before B, and once CPU 2's store has taken A away that fetch
        # misses; ticks model only B's fetch. So the chain must park
        # neither at its probe raise (one fetch: A's hit) nor at its try
        # raise (two fetches), and the run must equal the elision-off
        # run.
        notes = []
        note = IsaCpu._retry_note

        def watching_note(self, info, fetch0):
            parks = note(self, info, fetch0)
            notes.append((self.cpu_id, info and info[0], parks))
            return parks

        monkeypatch.setattr(IsaCpu, "_retry_note", watching_note)
        machine, line_b = _straddle_machine(True)
        elided = machine.run()
        machine.close()
        machine, _ = _straddle_machine(False)
        plain = machine.run()
        machine.close()
        assert elided == plain
        straddle = [parks for cpu, line, parks in notes
                    if cpu == 0 and line == line_b]
        assert len(straddle) > 2
        assert not any(straddle)


class TestDeadlockDiagnostic:
    def test_diagnostic_names_retry_watched_block(self):
        machine = Machine(ZEC12.with_cpus(4))
        cpu = machine.add_program(assemble([HALT()]))
        line = 0x8000
        cpu.engine.add_retry_watch(line, line & WATCH_BLOCK_MASK)
        scheduler = Scheduler(machine.drivers)
        scheduler._parked[0] = None  # the guard only reads the indices
        with pytest.raises(MachineStateError) as exc:
            scheduler._raise_parked_deadlock()
        message = str(exc.value)
        assert "cpu 0 retry-parked on block 0x8000" in message
        assert "line 0x8000" in message


class TestPinnedBitIdentity:
    @pytest.mark.parametrize("experiment,pinned", PINNED_48CPU, ids=IDS)
    @pytest.mark.parametrize("elide", MODES, ids=MODE_IDS)
    def test_serial(self, experiment, pinned, elide, monkeypatch):
        experiment_elision(monkeypatch, elide == "1")
        result = run_update_experiment(experiment)
        assert _summary(result) == pinned
        if elide == "0":
            assert result.sched["retry_parks"] == 0
        for key in RETIRED_QUEUE_COUNTERS:
            assert key not in result.sched

    @pytest.mark.parametrize(
        "experiment,counters",
        [(e, c) for (e, _), c in zip(PINNED_48CPU, PINNED_SCHED_48CPU)],
        ids=IDS,
    )
    def test_sched_counters(self, experiment, counters, monkeypatch):
        sched = run_update_experiment(experiment).sched
        assert {key: sched[key] for key in counters} == counters

    @pytest.mark.parametrize("elide", MODES, ids=MODE_IDS)
    def test_parallel(self, elide, monkeypatch):
        # Workers fork after the patch, so they inherit it.
        experiment_elision(monkeypatch, elide == "1")
        results = run_tasks(
            [("update", experiment) for experiment, _ in PINNED_48CPU],
            workers=2,
        )
        assert [_summary(r) for r in results] == [
            pinned for _, pinned in PINNED_48CPU
        ]

    def test_retry_parking_engages_on_coarse_point(self, monkeypatch):
        # Guards the identity matrix against vacuity: the contended CSG
        # point must actually park retry waiters (and tick them).
        result = run_update_experiment(PINNED_48CPU[0][0])
        sched = result.sched
        assert sched["retry_parks"] > 0
        assert sched["retry_wakes"] == sched["retry_parks"]
        assert sched["retry_ticks"] > 0
        assert sched["events"] > 0


class TestRetryCheck:
    def test_differential_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        experiment = UpdateExperiment("coarse", 12, 1000, 4, iterations=5)
        result = run_update_experiment(experiment)
        assert result.sched["retry_parks"] > 0

    def test_differential_under_jitter(self, monkeypatch):
        # Retry parking stays armed under schedule jitter (the ticks
        # draw the per-step perturbation in exact pop order); the
        # differential against the jittered non-elided reference must
        # come back bit-identical, with parking demonstrably engaged.
        monkeypatch.setenv("REPRO_CHECK", "1")
        for seed in (0, 7):
            machine = Machine(ZEC12.with_cpus(12))
            program = build_update_program(
                "coarse", PoolLayout(1000), n_vars=4, iterations=5
            )
            for _ in range(12):
                machine.add_program(program)
            machine.schedule_perturb = ScheduleJitter(seed, 9)
            result = machine.run()
            assert result.sched["retry_parks"] > 0
            assert result.sched["parks"] == 0  # spin parking stays off
