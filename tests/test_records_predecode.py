"""Instruction records and the elision-gated predecode.

``Instruction``, ``Mem`` and ``Located`` are plain (unfrozen) value
records: they must keep value equality, hashing and their dataclass
repr, and must never become tuples — ``assemble()`` reads every tuple
item as a ``(label, instruction)`` pair.

The spin-candidate analysis runs once, when elision first arms. Runs
under schedule jitter never arm it, so they must build nothing; armed
runs must build exactly the layout pinned below for the ``repro.sync``
harnesses (the layout the construction-time analysis produced before it
was gated). There is no straight-line batching: an armed CPU still
retires one instruction per step, and every decoded instruction runs
its mnemonic's ``_DISPATCH`` method, bound once per CPU.
"""

from __future__ import annotations

import pytest

from repro.cpu.assembler import Located, assemble
from repro.cpu.interpreter import IsaCpu, _Decoded
from repro.cpu.isa import (
    AGR, AHI, HALT, Instruction, J, LG, LHI, Mem, STG, TBEGIN,
)
from repro.errors import AssemblyError
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sync.retry import transaction_with_fallback
from repro.sync.rwlock import (
    reader_enter, reader_exit, writer_acquire, writer_release,
)
from repro.sync.spinlock import acquire_lock, release_lock
from repro.verify import ScheduleJitter

LOCK = Mem(disp=0x8000)
DATA = Mem(disp=0x9000)
#: A body with a three-instruction register-only run at its head.
BODY = [LHI(4, 1), LHI(5, 2), AGR(4, 5), LG(2, DATA), AHI(2, 1), STG(2, DATA)]

PROGRAMS = {
    "sync/spinlock": (
        acquire_lock(LOCK, "a") + BODY + release_lock(LOCK) + [HALT()]
    ),
    "sync/rwlock": (
        writer_acquire(LOCK, "w") + BODY + writer_release(LOCK)
        + reader_enter(LOCK, "r") + [LG(2, DATA)]
        + reader_exit(LOCK, "r") + [HALT()]
    ),
    "sync/retry": (
        transaction_with_fallback(BODY, LOCK, "t", fallback_mode="lock")
        + [HALT()]
    ),
}

#: head -> (members, load address) of every spin candidate.
PINNED_HEADS = {
    "sync/spinlock": {
        0x1000: ([0x1000, 0x1006, 0x100A, 0x100E], 0x1000),
    },
    "sync/rwlock": {
        0x1000: ([0x1000, 0x1006], 0x1000),
        0x1046: ([0x1046, 0x104C], 0x1046),
    },
    "sync/retry": {
        0x1054: ([0x1054, 0x105A, 0x105E, 0x1062], 0x1054),
        0x1066: ([0x1066, 0x106C, 0x1070, 0x1074], 0x1066),
    },
}

def _cpu(name):
    machine = Machine(ZEC12.with_cpus(2), spin_elide=True)
    return machine, machine.add_program(assemble(PROGRAMS[name]))


def _layout(cpu):
    return {
        addr: (sorted(dec.spin_head.members), dec.spin_head.load_ia)
        for addr, dec in cpu._decoded.items() if dec.spin_head is not None
    }


class TestInstructionRecords:
    def test_value_equality_and_hash(self):
        a = Instruction("LHI", (1, 2))
        assert a == LHI(1, 2)
        assert hash(a) == hash(LHI(1, 2))
        assert a != LHI(1, 3)
        assert Mem(disp=8) == Mem(None, None, 8)
        assert hash(Mem(base=1, disp=8)) == hash(Mem(base=1, disp=8))
        assert len({STG(2, DATA), STG(2, Mem(disp=0x9000)), LG(2, DATA)}) == 2
        loc = Located(0x1000, LHI(1, 2))
        assert loc == Located(0x1000, LHI(1, 2))
        assert hash(loc) == hash(Located(0x1000, LHI(1, 2)))
        assert loc != Located(0x1004, LHI(1, 2))
        assert {loc: 1}[Located(0x1000, LHI(1, 2))] == 1

    def test_repr(self):
        assert repr(Mem(disp=8)) == "Mem(base=None, index=None, disp=8)"
        assert repr(LHI(1, 2)) == (
            "Instruction(mnemonic='LHI', operands=(1, 2), length=4, "
            "target=None, restricted_in_tx=False, "
            "restricted_in_constrained=False, modifies_ar=False, "
            "modifies_fpr=False, pseudo=False)"
        )
        assert repr(Located(16, HALT())).startswith(
            "Located(address=16, instruction=Instruction(mnemonic='HALT'"
        )
        assert str(J("top")) == "J  -> top"

    def test_records_are_not_tuples(self):
        for record in (LHI(1, 2), Mem(disp=8), Located(0, LHI(1, 2))):
            assert not isinstance(record, tuple)

    def test_assemble_tells_pairs_from_instructions(self):
        program = assemble([
            ("top", LHI(1, 0)),
            AHI(1, 1),
            "tail",
            J("top"),
            TBEGIN(),
        ])
        assert program.labels == {"top": 0x1000, "tail": 0x1008}
        assert [loc.instruction.mnemonic for loc in program] == [
            "LHI", "AHI", "J", "TBEGIN",
        ]
        assert [loc.address for loc in program] == [
            0x1000, 0x1004, 0x1008, 0x100C,
        ]

    @pytest.mark.parametrize("item", [("a", "b"), ("a", (1, 2)), 42, None])
    def test_assemble_rejects_non_instructions(self, item):
        with pytest.raises(AssemblyError):
            assemble([LHI(1, 0), item])


class TestElisionGatedPredecode:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_nothing_built_before_elision_arms(self, name):
        _machine, cpu = _cpu(name)
        assert _layout(cpu) == {}
        cpu.configure_spin_elide(False)
        assert _layout(cpu) == {}

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_nothing_built_under_jitter(self, name):
        machine, cpu = _cpu(name)
        machine.schedule_perturb = ScheduleJitter(7, 3)
        result = machine.run(max_cycles=200_000)
        assert not result.aborted_early
        assert _layout(cpu) == {}

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_armed_layout_is_pinned(self, name):
        _machine, cpu = _cpu(name)
        cpu.configure_spin_elide(True)
        assert _layout(cpu) == PINNED_HEADS[name]
        assert "batch" not in _Decoded.__slots__

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_unjittered_run_arms_and_builds_the_layout(self, name):
        machine, cpu = _cpu(name)
        machine.run(max_cycles=200_000)
        assert _layout(cpu) == PINNED_HEADS[name]
        assert "batch" not in _Decoded.__slots__

    def test_analysis_runs_once(self):
        _machine, cpu = _cpu("sync/spinlock")
        cpu.configure_spin_elide(True)
        cand = cpu._decoded[0x1000].spin_head
        cpu.configure_spin_elide(False)
        cpu.configure_spin_elide(True)
        assert cpu._decoded[0x1000].spin_head is cand

    def test_armed_cpu_retires_one_instruction_per_step(self):
        machine = Machine(ZEC12.with_cpus(1), spin_elide=True)
        program = assemble(BODY + [HALT()])
        cpu = machine.add_program(program)
        cpu.configure_spin_elide(True)
        # LHI, LHI, AGR: the register-only run at the head of BODY.
        run = list(program)[:3]
        for count, loc in enumerate(run, 1):
            assert cpu._psw.instruction_address == loc.address
            cpu.step()
            assert cpu.stats_instructions == count
        assert cpu._psw.instruction_address == program.next_address(
            run[-1].address
        )

    def test_master_switch_off_never_builds(self):
        machine = Machine(ZEC12.with_cpus(2), spin_elide=False)
        cpu = machine.add_program(assemble(PROGRAMS["sync/spinlock"]))
        cpu.configure_spin_elide(True)
        assert _layout(cpu) == {}

    def test_next_ia_matches_program_successors(self):
        for items in PROGRAMS.values():
            machine = Machine(ZEC12.with_cpus(2), spin_elide=True)
            program = assemble(items)
            cpu = machine.add_program(program)
            for loc in program:
                assert cpu._decoded[loc.address].next_ia == (
                    program.next_address(loc.address)
                )

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_decode_table_shares_one_bound_handler_per_mnemonic(self, name):
        _machine, cpu = _cpu(name)
        by_mnemonic = {}
        for dec in cpu._decoded.values():
            mnemonic = dec.insn.mnemonic
            handler = by_mnemonic.setdefault(mnemonic, dec.handler)
            assert dec.handler is handler, mnemonic
            assert handler.__self__ is cpu
            assert handler.__func__ is IsaCpu._DISPATCH[mnemonic]
        assert {"LG", "STG", "BRC"} <= set(by_mnemonic)
