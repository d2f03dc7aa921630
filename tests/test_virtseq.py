"""Tests that the retired scheduler modes stay retired.

The scheduler once offered virtual sequence numbering (parked chains
advanced off-queue, ``REPRO_VIRTSEQ``) and a choice of event queue
(calendar or bare heap, ``REPRO_HEAP_SCHED``), and the CPUs read
elision's default from ``REPRO_SPIN_ELIDE``. All three are gone: the
scheduler has one heapq queue, a parked retry chain keeps its pending
event in it, and a parked spinner keeps none (its chain is counted in
closed form). The contract under test is that the old switches are now inert — every
pinned 48-CPU point produces the same figures whatever an old script
exports for them, serial and parallel, no run reports the deleted
counters, and the parked-deadlock diagnostic has no off-queue
annotation left to print.

No retired switch is named anywhere in ``src/`` (checked below), so
no value of one can reach a run. Each pinned point therefore runs once
per live axis value — ``Machine(spin_elide=)`` on or off — with every
retired switch exported at its old non-default value, and the four
virt/mat x cal/heap ids of that point and elision setting all check
that one run.
"""

from __future__ import annotations

import pathlib

import pytest

import repro
from conftest import experiment_elision

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import run_tasks
from repro.cpu.assembler import assemble
from repro.cpu.isa import HALT
from repro.errors import MachineStateError
from repro.mem.xi import WATCH_BLOCK_MASK
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler

#: (cycles, instructions, tx_aborted, xi_rejects) pinned from the
#: reference implementation — the same three 48-CPU points the
#: retry-elision tests pin (fine-grained locking is single-variable by
#: design).
PINNED_48CPU = [
    (UpdateExperiment("coarse", 48, 1000, 4, iterations=3),
     (280111, 186668, 0, 0)),
    (UpdateExperiment("fine", 48, 1000, 1, iterations=3),
     (3412, 2256, 0, 0)),
    (UpdateExperiment("rwlock", 48, 1000, 4, iterations=3),
     (51045, 3984, 0, 0)),
]

IDS = [f"{e.scheme}-{e.n_cpus}" for e, _ in PINNED_48CPU]

#: The environment matrix: the retired ``REPRO_VIRTSEQ`` switch on/off x
#: spin/retry elision on/off x the retired ``REPRO_HEAP_SCHED`` selector
#: at its old calendar ("0") or heap ("1") value. Only elision is live.
VIRT_MODES = [
    (virtseq, elide, heap)
    for virtseq in ("1", "0")
    for elide in ("1", "0")
    for heap in ("0", "1")
]
VIRT_MODE_IDS = [
    f"{'virt' if v == '1' else 'mat'}-"
    f"{'elide' if e == '1' else 'plain'}-"
    f"{'heap' if h == '1' else 'cal'}"
    for v, e, h in VIRT_MODES
]

#: The retired switches at their old non-default values: materialised
#: placeholders instead of virtual numbering, the bare heap instead of
#: the calendar queue, and elision off. Exported for every run below.
RETIRED_ENV = {"REPRO_VIRTSEQ": "0", "REPRO_HEAP_SCHED": "1",
               "REPRO_SPIN_ELIDE": "0"}

#: ``SimResult.sched`` keys of the deleted virtual-sequence drain and
#: queue backends.
RETIRED_COUNTERS = ("virtual_events", "fast_forwarded_events",
                    "queue_switches", "calendar_resizes",
                    "bucket_max_occupancy")

#: One result per (pinned point id, ``spin_elide`` value), and one
#: parallel run of all pinned points.
_SERIAL_RUNS = {}
_PARALLEL_RUNS = []


def _assert_retired_switches_unnamed():
    src = pathlib.Path(repro.__file__).parent
    for path in src.rglob("*.py"):
        text = path.read_text()
        for name in RETIRED_ENV:
            assert name not in text, f"{path} names {name}"


def _summary(result):
    return (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    )


class TestFlagMatrixIdentity:
    @pytest.mark.parametrize("experiment,pinned", PINNED_48CPU, ids=IDS)
    @pytest.mark.parametrize("virtseq,elide,heap", VIRT_MODES,
                             ids=VIRT_MODE_IDS)
    def test_serial(self, experiment, pinned, virtseq, elide, heap,
                    monkeypatch):
        # ``virtseq`` and ``heap`` name values nothing reads (asserted
        # here), so every id of one point and elision setting shares
        # the run made with RETIRED_ENV exported.
        _assert_retired_switches_unnamed()
        run_key = (f"{experiment.scheme}-{experiment.n_cpus}", elide)
        if run_key not in _SERIAL_RUNS:
            for name, value in RETIRED_ENV.items():
                monkeypatch.setenv(name, value)
            experiment_elision(monkeypatch, elide == "1")
            _SERIAL_RUNS[run_key] = run_update_experiment(experiment)
        result = _SERIAL_RUNS[run_key]
        assert _summary(result) == pinned
        for key in RETIRED_COUNTERS:
            assert key not in result.sched
        if elide == "0":
            assert result.sched["parks"] == 0
            assert result.sched["retry_parks"] == 0
        elif experiment.scheme == "coarse":
            # The exported REPRO_SPIN_ELIDE=0 does not turn elision off.
            assert result.sched["retry_parks"] > 0

    @pytest.mark.parametrize("virtseq", ["1", "0"], ids=["virt", "mat"])
    def test_parallel(self, virtseq, monkeypatch):
        _assert_retired_switches_unnamed()
        if not _PARALLEL_RUNS:
            # Workers fork after the env change, so they inherit it.
            for name, value in RETIRED_ENV.items():
                monkeypatch.setenv(name, value)
            _PARALLEL_RUNS.extend(run_tasks(
                [("update", experiment) for experiment, _ in PINNED_48CPU],
                workers=2,
            ))
        assert [_summary(r) for r in _PARALLEL_RUNS] == [
            pinned for _, pinned in PINNED_48CPU
        ]


class TestDeadlockDiagnosticOffQueue:
    def test_diagnostic_without_off_queue_head(self):
        # A retry waiter and a spin waiter both stranded: the guard
        # names each watched block in CPU order, and marks no head
        # off-queue: the guard has no such annotation any more.
        machine = Machine(ZEC12.with_cpus(4))
        retry_cpu = machine.add_program(assemble([HALT()]))
        spin_cpu = machine.add_program(assemble([HALT()]))
        retry_line, spin_line = 0x8000, 0x9000
        retry_cpu.engine.add_retry_watch(
            retry_line, retry_line & WATCH_BLOCK_MASK)
        spin_cpu.engine.fabric.watches.add(
            1, spin_line, spin_line & WATCH_BLOCK_MASK)
        scheduler = Scheduler(machine.drivers)
        scheduler._parked[1] = None  # the guard only reads the indices
        scheduler._parked[0] = None
        with pytest.raises(MachineStateError) as exc:
            scheduler._raise_parked_deadlock()
        message = str(exc.value)
        assert message.endswith(
            "cpu 0 retry-parked on block 0x8000 (line 0x8000); "
            "cpu 1 parked on block 0x9000 (line 0x9000)"
        )
        assert "off-queue" not in message
