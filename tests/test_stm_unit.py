"""Unit tests for the TL2-style orec STM (:mod:`repro.stm`).

The STM is the software half of the hybrid fallback: SBEGIN opens a
software transaction whose loads validate against per-grain ownership
records, whose stores buffer in a redo log, and whose SEND runs the
acquire/validate/write-back commit against the global version clock.
These tests pin the orec address map, the fallback-mode resolution,
and the architected SBEGIN/SEND/SABORT semantics on the real
machine — single-CPU first, then software-vs-software atomicity.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cpu.assembler import assemble
from repro.cpu.isa import (
    AGSI,
    AHI,
    BRC,
    HALT,
    JNZ,
    LG,
    LHI,
    Mem,
    NTSTG,
    SABORT,
    SBEGIN,
    SEND,
    STG,
    TBEGIN,
    TEND,
)
from repro.errors import ConfigurationError
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.stm import (
    FALLBACK_MODES,
    GCLOCK_ADDR,
    OREC_GRAIN_SHIFT,
    ORECS_BASE,
    orec_address,
    resolve_fallback_mode,
)

STM_PARAMS = dataclasses.replace(ZEC12, fallback_mode="stm")

DATA = 0x10000
OUT = 0x20000


def run_stm(items, n_cpus=1, params=STM_PARAMS):
    machine = Machine(params)
    program = assemble([*items, HALT()])
    for _ in range(n_cpus):
        machine.add_program(program)
    result = machine.run()
    return machine, result


class TestOrecMap:
    def test_grain_is_128_bytes(self):
        assert 1 << OREC_GRAIN_SHIFT == 128
        assert orec_address(0) == orec_address(127)
        assert orec_address(127) != orec_address(128)

    def test_adjacent_grains_get_adjacent_orecs(self):
        assert orec_address(128) == orec_address(0) + 8
        assert orec_address(DATA) >= ORECS_BASE

    def test_table_wraps_at_its_size(self):
        # 0x4000 orecs of 8 bytes: grains 0x4000 apart share an orec
        # (false conflicts are allowed; missed conflicts are not).
        assert orec_address(0) == orec_address(0x4000 << OREC_GRAIN_SHIFT)

    def test_orec_table_is_disjoint_from_the_clock(self):
        table = range(ORECS_BASE, ORECS_BASE + 0x4000 * 8)
        assert GCLOCK_ADDR not in table


class TestFallbackModeResolution:
    def test_default_is_lock(self):
        assert resolve_fallback_mode(None) == "lock"
        assert resolve_fallback_mode(ZEC12) == "lock"

    def test_params_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FALLBACK_MODE", "stm")
        pinned = dataclasses.replace(ZEC12, fallback_mode="lock")
        assert resolve_fallback_mode(pinned) == "lock"

    def test_unknown_values_rejected(self):
        bad = dataclasses.replace(ZEC12, fallback_mode="optimistic")
        with pytest.raises(ConfigurationError):
            resolve_fallback_mode(bad)

    def test_machine_property_resolves(self):
        assert Machine(ZEC12).fallback_mode == "lock"
        assert Machine(STM_PARAMS).fallback_mode == "stm"

    def test_modes_registry(self):
        assert FALLBACK_MODES == ("lock", "stm")


class TestSbeginRequiresStmMode:
    def test_sbegin_outside_stm_mode_is_an_error(self):
        with pytest.raises(Exception, match="SBEGIN"):
            run_stm([SBEGIN(), SEND()], params=ZEC12)


class TestSoftwareTransactions:
    def test_commit_publishes_the_redo_log(self):
        machine, result = run_stm([
            LHI(3, 42),
            ("t", SBEGIN()),
            BRC(7, "t"),
            STG(3, Mem(disp=DATA)),
            SEND(),
        ])
        assert machine.memory.read_int(DATA, 8) == 42
        assert result.cpus[0].sw_committed == 1
        assert result.cpus[0].sw_aborted == 0

    def test_commit_advances_the_global_clock(self):
        machine, _ = run_stm([
            LHI(3, 1),
            ("t", SBEGIN()),
            BRC(7, "t"),
            STG(3, Mem(disp=DATA)),
            SEND(),
        ])
        assert machine.memory.read_int(GCLOCK_ADDR, 8) > 0
        # The writer's orec carries the commit's (even) write version.
        version = machine.memory.read_int(orec_address(DATA), 8)
        assert version > 0 and version % 2 == 0

    def test_read_only_commit_does_not_bump_the_clock(self):
        machine, result = run_stm([
            ("t", SBEGIN()),
            BRC(7, "t"),
            LG(2, Mem(disp=DATA)),
            SEND(),
            STG(2, Mem(disp=OUT)),
        ])
        assert result.cpus[0].sw_committed == 1
        assert machine.memory.read_int(GCLOCK_ADDR, 8) == 0

    def test_sabort_discards_buffered_stores(self):
        machine, result = run_stm([
            LHI(3, 7),
            LHI(9, 0),
            ("t", SBEGIN()),
            BRC(7, "done"),  # the SABORT resumes here with CC2
            STG(3, Mem(disp=DATA)),
            SABORT(600),
            SEND(),
            "done",
        ])
        assert machine.memory.read_int(DATA, 8) == 0
        assert result.cpus[0].sw_aborted == 1
        assert result.cpus[0].sw_committed == 0

    def test_abort_restores_the_sbegin_registers(self):
        machine, _ = run_stm([
            LHI(3, 7),
            ("t", SBEGIN()),
            BRC(7, "done"),  # the SABORT resumes here with CC2
            LHI(3, 99),
            SABORT(600),
            SEND(),
            "done",
            STG(3, Mem(disp=OUT)),
        ])
        assert machine.memory.read_int(OUT, 8) == 7

    def test_reads_see_own_buffered_writes(self):
        machine, _ = run_stm([
            LHI(3, 55),
            ("t", SBEGIN()),
            BRC(7, "t"),
            STG(3, Mem(disp=DATA)),
            LG(2, Mem(disp=DATA)),   # must observe 55 from the redo log
            SEND(),
            STG(2, Mem(disp=OUT)),
        ])
        assert machine.memory.read_int(OUT, 8) == 55

    def test_agsi_is_a_software_read_modify_write(self):
        machine, _ = run_stm([
            ("t", SBEGIN()),
            BRC(7, "t"),
            AGSI(Mem(disp=DATA), 5),
            AGSI(Mem(disp=DATA), 5),
            SEND(),
        ])
        assert machine.memory.read_int(DATA, 8) == 10

    def test_ntstg_survives_a_software_abort(self):
        machine, _ = run_stm([
            LHI(3, 88),
            ("t", SBEGIN()),
            BRC(7, "done"),
            NTSTG(3, Mem(disp=DATA)),  # non-transactional: writes through
            STG(3, Mem(disp=OUT)),     # transactional: must be discarded
            SABORT(600),
            "done",
        ])
        assert machine.memory.read_int(DATA, 8) == 88
        assert machine.memory.read_int(OUT, 8) == 0

    def test_software_vs_software_atomicity(self):
        # Pure STM contention: every increment must survive the
        # validate/write-back race between the two software committers.
        body = [
            ("t", SBEGIN()),
            BRC(7, "t"),     # StmAbort resumes after SBEGIN with CC2
            AGSI(Mem(disp=DATA), 1),
            SEND(),
        ]
        machine, result = run_stm([
            LHI(9, 10),
            "loop",
            *body,
            AHI(9, -1),
            JNZ("loop"),
        ], n_cpus=3)
        assert not result.aborted_early
        assert machine.memory.read_int(DATA, 8) == 30
        assert sum(c.sw_committed for c in result.cpus) == 30


class TestHardwarePublish:
    def test_hw_commit_bumps_written_orecs_in_stm_mode(self):
        machine, result = run_stm([
            *_hw_tx([AGSI(Mem(disp=DATA), 1)]),
        ])
        assert result.cpus[0].tx_committed == 1
        version = machine.memory.read_int(orec_address(DATA), 8)
        assert version > 0 and version % 2 == 0
        assert machine.memory.read_int(GCLOCK_ADDR, 8) >= version

    def test_hw_commit_leaves_orecs_alone_in_lock_mode(self):
        machine, result = run_stm([
            *_hw_tx([AGSI(Mem(disp=DATA), 1)]),
        ], params=ZEC12)
        assert result.cpus[0].tx_committed == 1
        assert machine.memory.read_int(orec_address(DATA), 8) == 0
        assert machine.memory.read_int(GCLOCK_ADDR, 8) == 0


class TestHardwareSubscription:
    def test_hw_read_of_a_locked_grain_aborts(self):
        # An odd orec version means a software commit holds the grain
        # between lock acquisition and release: a hardware read must
        # abort rather than observe a half-written-back commit.
        machine = Machine(STM_PARAMS)
        machine.memory.write_int(orec_address(DATA), 1, 8)
        machine.add_program(assemble([
            TBEGIN(grsm=0xFF),
            BRC(7, "out"),
            LG(2, Mem(disp=DATA)),
            TEND(),
            "out",
            HALT(),
        ]))
        cpu = machine.run().cpus[0]
        assert (cpu.tx_aborted, cpu.tx_committed) == (1, 0)


def _hw_tx(body):
    return [
        ("h", TBEGIN(grsm=0xFF)),
        BRC(7, "h"),
        *body,
        TEND(),
    ]
