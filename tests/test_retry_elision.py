"""Tests for retry-storm elision.

Retry parking extends the spin-elision contract one level down: a
certified ``FetchRetry`` back-off chain is advanced by scheduler ticks
instead of re-executed instructions, under the same strict bit-identity
contract. The tests pin that contract from several angles:

* PPA back-off delay identity at the interesting abort counts (0, 1,
  the exponent knee at 6, the clamp at 7, and far past it at 100), and
  end-to-end reject/abort identity on a constrained-TX point;
* certification: the chain never arms (and never parks) when the
  watched line's exclusive owner changes mid-backoff;
* the parked-deadlock diagnostic names a retry waiter's watched block;
* pinned bit-identity on coarse/fine/rwlock 48-CPU points, serial and
  through the parallel runner, with elision on and off
  (``REPRO_SPIN_ELIDE``) and with the retired ``REPRO_HEAP_SCHED``
  queue selector left set either way, plus the semantic scheduler
  counters of the elided runs;
* ``REPRO_CHECK=1`` differential replay, with and without schedule
  jitter (retry parking stays armed under jitter).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import run_tasks
from repro.core.ppa import PpaAssist
from repro.cpu.assembler import assemble
from repro.cpu.isa import HALT
from repro.errors import MachineStateError
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

#: The four environment combinations every pinned point must agree
#: across: spin/retry elision on/off x the retired ``REPRO_HEAP_SCHED``
#: selector set to its old calendar ("0") or heap ("1") value. The
#: scheduler has a single heapq queue now, so the selector must be
#: inert: a script that still exports it gets the same figures.
MODES = [("1", "0"), ("1", "1"), ("0", "0"), ("0", "1")]
MODE_IDS = ["elide-cal", "elide-heap", "plain-cal", "plain-heap"]

#: ``SimResult.sched`` keys of the deleted queue backends; no run may
#: report them, whatever the environment says.
RETIRED_QUEUE_COUNTERS = ("calendar_resizes", "bucket_max_occupancy",
                          "queue_switches")

#: The semantic ``SimResult.sched`` counters of the elided runs of
#: :data:`PINNED_48CPU`, pinned from the reference implementation. They
#: count what the simulated machine did (events pushed, chains parked,
#: placeholder advances), not how the event queue stored it.
PINNED_SCHED_48CPU = [
    {"events": 236422, "parks": 1537, "wakes": 1537, "retry_parks": 1452,
     "retry_wakes": 1452, "retry_ticks": 45269, "spin_steps": 178962,
     "heap_elides": 923, "heap_elided_steps": 1856, "broadcast_stops": 0},
    {"events": 2632, "parks": 0, "wakes": 0, "retry_parks": 7,
     "retry_wakes": 7, "retry_ticks": 6, "spin_steps": 0,
     "heap_elides": 15, "heap_elided_steps": 72, "broadcast_stops": 0},
    {"events": 8842, "parks": 0, "wakes": 0, "retry_parks": 41,
     "retry_wakes": 41, "retry_ticks": 141, "spin_steps": 0,
     "heap_elides": 856, "heap_elided_steps": 3039, "broadcast_stops": 0},
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
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        elided = run_update_experiment(experiment)
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "0")
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
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        elided = run_update_experiment(experiment)
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "0")
        plain = run_update_experiment(experiment)
        assert elided.sched["retry_parks"] > 0
        assert plain.sched["retry_parks"] == 0
        assert elided == plain
        assert _summary(elided) == (20410, 873, 47, 252)


class TestRetryCertification:
    def _cpu_with_owned_line(self, owner):
        # spin_elide=True (not the env default) so the white-box checks
        # below behave the same in a REPRO_SPIN_ELIDE=0 run of the suite.
        machine = Machine(ZEC12.with_cpus(4), spin_elide=True)
        cpu = machine.add_program(assemble([HALT()]))
        cpu.configure_spin_elide(True)
        line = 0x8000
        cpu.engine.fabric._lines[line] = SimpleNamespace(ex_owner=owner)
        return cpu, line

    def _note_try_raise(self, cpu, ia, line):
        """Mimic step()'s bookkeeping around a busy/reject FetchRetry
        raise: snapshot the fetch counter at entry, count the one fetch
        the try step performs, then run the raise-time hook."""
        fabric = cpu.engine.fabric
        cpu._retry_fetch0 = fabric.stats_fetches
        fabric.stats_fetches += 1
        cpu.engine._fetch_wait = None
        cpu._retry_note(ia, (line, True))

    def test_owner_change_between_raises_restarts(self):
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        assert cpu._retry_trk == (0x100, line, True, 1)
        assert not cpu._retry_armed
        # The owner moves mid-backoff — the quantity the chain is
        # waiting out changed, so certification restarts from owner 2
        # instead of arming.
        cpu.engine.fabric._lines[line].ex_owner = 2
        self._note_try_raise(cpu, 0x100, line)
        assert not cpu._retry_armed
        assert cpu._retry_trk == (0x100, line, True, 2)

    def test_owner_change_before_park_point_blocks(self):
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        self._note_try_raise(cpu, 0x100, line)
        assert cpu._retry_armed
        # Armed, but the owner moves before the park point: the re-check
        # must refuse to park and drop the certificate.
        cpu.engine.fabric._lines[line].ex_owner = 3
        assert not cpu._retry_try_park(cpu._retry_trk)
        assert cpu._retry_trk is None
        assert cpu.engine.fabric.watches.retry_by_cpu == {}

    def test_stable_owner_parks_and_registers_watch(self):
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        self._note_try_raise(cpu, 0x100, line)
        assert cpu._retry_armed
        assert cpu._retry_try_park(cpu._retry_trk)
        assert cpu.engine.fabric.watches.retry_by_cpu[0] == (
            line, line & WATCH_BLOCK_MASK
        )
        cpu.retry_unpark()
        assert cpu.engine.fabric.watches.retry_by_cpu == {}

    def test_multi_line_fingerprint_blocks_arming(self):
        # Two fetches between entry and raise (a multi-line operation
        # replaying an L1 hit every retry): the fingerprint must not arm.
        cpu, line = self._cpu_with_owned_line(owner=1)
        self._note_try_raise(cpu, 0x100, line)
        fabric = cpu.engine.fabric
        cpu._retry_fetch0 = fabric.stats_fetches
        fabric.stats_fetches += 2
        cpu.engine._fetch_wait = None
        cpu._retry_note(0x100, (line, True))
        assert not cpu._retry_armed


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
    @pytest.mark.parametrize("elide,heap", MODES, ids=MODE_IDS)
    def test_serial(self, experiment, pinned, elide, heap, monkeypatch):
        monkeypatch.setenv("REPRO_SPIN_ELIDE", elide)
        monkeypatch.setenv("REPRO_HEAP_SCHED", heap)
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
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        sched = run_update_experiment(experiment).sched
        assert {key: sched[key] for key in counters} == counters

    @pytest.mark.parametrize("elide,heap", MODES, ids=MODE_IDS)
    def test_parallel(self, elide, heap, monkeypatch):
        # Workers fork after the env change, so they inherit it.
        monkeypatch.setenv("REPRO_SPIN_ELIDE", elide)
        monkeypatch.setenv("REPRO_HEAP_SCHED", heap)
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
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        result = run_update_experiment(PINNED_48CPU[0][0])
        sched = result.sched
        assert sched["retry_parks"] > 0
        assert sched["retry_wakes"] == sched["retry_parks"]
        assert sched["retry_ticks"] > 0
        assert sched["events"] > 0


class TestRetryCheck:
    def test_differential_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        experiment = UpdateExperiment("coarse", 12, 1000, 4, iterations=5)
        result = run_update_experiment(experiment)
        assert result.sched["retry_parks"] > 0

    def test_differential_under_jitter(self, monkeypatch):
        # Retry parking stays armed under schedule jitter (the ticks
        # draw the per-step perturbation in exact pop order); the
        # differential against the jittered non-elided reference must
        # come back bit-identical, with parking demonstrably engaged.
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
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
