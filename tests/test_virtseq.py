"""Tests that the retired scheduler modes stay retired.

The scheduler once offered virtual sequence numbering (parked chains
advanced off-queue, ``REPRO_VIRTSEQ``) and a choice of event queue
(calendar or bare heap, ``REPRO_HEAP_SCHED``). Both are gone: parked
spin and retry chains keep real placeholder events in one heapq queue.
The contract under test is that the old switches are now inert — every
pinned 48-CPU point produces the same figures whatever an old script
exports for them, serial and parallel, no run reports the deleted
counters, and the parked-deadlock diagnostic has no off-queue
annotation left to print.
"""

from __future__ import annotations

import pytest

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
#: at its old calendar ("0") or heap ("1") value.
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

#: ``SimResult.sched`` keys of the deleted virtual-sequence drain and
#: queue backends.
RETIRED_COUNTERS = ("virtual_events", "fast_forwarded_events",
                    "queue_switches", "calendar_resizes",
                    "bucket_max_occupancy")


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
        monkeypatch.setenv("REPRO_VIRTSEQ", virtseq)
        monkeypatch.setenv("REPRO_SPIN_ELIDE", elide)
        monkeypatch.setenv("REPRO_HEAP_SCHED", heap)
        result = run_update_experiment(experiment)
        assert _summary(result) == pinned
        for key in RETIRED_COUNTERS:
            assert key not in result.sched
        if elide == "0":
            assert result.sched["parks"] == 0
            assert result.sched["retry_parks"] == 0

    @pytest.mark.parametrize("virtseq", ["1", "0"], ids=["virt", "mat"])
    def test_parallel(self, virtseq, monkeypatch):
        # Workers fork after the env change, so they inherit it.
        monkeypatch.setenv("REPRO_VIRTSEQ", virtseq)
        monkeypatch.setenv("REPRO_SPIN_ELIDE", "1")
        results = run_tasks(
            [("update", experiment) for experiment, _ in PINNED_48CPU],
            workers=2,
        )
        assert [_summary(r) for r in results] == [
            pinned for _, pinned in PINNED_48CPU
        ]


class TestDeadlockDiagnosticOffQueue:
    def test_diagnostic_without_off_queue_head(self):
        # A retry waiter and a spin waiter both stranded: the guard
        # names each watched block in CPU order, and no head is ever
        # marked off-queue since every parked chain keeps a real event.
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
