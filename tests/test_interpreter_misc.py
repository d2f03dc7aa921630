"""Interpreter coverage for the remaining instructions and edge cases."""

import pytest

from repro.cpu.assembler import assemble
from repro.cpu.isa import (
    AGR,
    AGSI,
    AHI,
    BRC,
    HALT,
    J,
    JNZ,
    JO,
    LG,
    LHI,
    LPSW,
    LR,
    Mem,
    NOPR,
    PAUSE,
    SGR,
    STG,
    TBEGIN,
    TBEGINC,
    TEND,
)
from repro.errors import AssemblyError, MachineStateError
from repro.params import ZEC12
from repro.sim.machine import Machine


def run(items, n_cpus=1):
    machine = Machine(ZEC12)
    program = assemble([*items, HALT()])
    cpus = [machine.add_program(program) for _ in range(n_cpus)]
    result = machine.run()
    return machine, cpus[0], result


def test_pause_consumes_exactly_its_cycles():
    _, _, short = run([NOPR()])
    _, _, long = run([PAUSE(500)])
    assert long.cycles - short.cycles >= 499


def test_sgr_sets_cc():
    _, cpu, _ = run([LHI(1, 5), LHI(2, 5), SGR(1, 2)])
    assert cpu.regs.psw.condition_code == 0
    _, cpu, _ = run([LHI(1, 3), LHI(2, 5), SGR(1, 2)])
    assert cpu.regs.psw.condition_code == 1


def test_jo_branches_only_on_cc3():
    """JO is the Figure 1 'no retry if CC=3' branch."""
    # CC0 from AHI result 0: not taken.
    _, cpu, _ = run([
        LHI(1, 1),
        AHI(1, -1),
        JO("skip"),
        LHI(2, 7),
        ("skip", NOPR()),
    ])
    assert cpu.regs.get_gr(2) == 7


def test_brc_always_mask():
    _, cpu, _ = run([
        BRC(15, "skip"),
        LHI(2, 7),
        ("skip", NOPR()),
    ])
    assert cpu.regs.get_gr(2) == 0


def test_brc_never_mask():
    _, cpu, _ = run([
        BRC(0, "skip"),
        LHI(2, 7),
        ("skip", NOPR()),
    ])
    assert cpu.regs.get_gr(2) == 7


def test_bad_brc_mask_rejected():
    with pytest.raises(AssemblyError):
        BRC(16, "x")


def test_unknown_mnemonic_rejected_at_execution():
    from repro.cpu.isa import Instruction

    machine = Machine(ZEC12)
    program = assemble([Instruction("FROB", (), length=4), HALT()])
    machine.add_program(program)
    with pytest.raises(MachineStateError):
        machine.run()


def test_program_falls_off_end_halts():
    machine = Machine(ZEC12)
    program = assemble([LHI(1, 1)])  # no HALT
    cpu = machine.add_program(program)
    machine.run()
    assert cpu.done


def test_tbeginc_inside_constrained_takes_constraint_interruption():
    """TBEGINC while already constrained is a restricted instruction:
    non-filterable constraint-violation interruption."""
    machine = Machine(ZEC12)
    program = assemble([
        TBEGINC(),
        TBEGINC(),
        TEND(),
        HALT(),
    ])
    machine.add_program(program)
    with pytest.raises(MachineStateError):
        machine.run()  # the OS model raises on constraint violations


def test_agsi_while_nested_commits_once():
    machine, cpu, result = run([
        TBEGIN(),
        JNZ("out"),
        TBEGIN(),
        JNZ("out"),
        AGSI(Mem(disp=0x10000), 1),
        TEND(),
        TEND(),
        ("out", NOPR()),
    ])
    assert machine.memory.read_int(0x10000, 8) == 1
    assert result.total_committed == 1


def test_register_copies_are_independent_across_cpus():
    machine = Machine(ZEC12)
    program = assemble([LHI(1, 5), AGSI(Mem(disp=0x10000), 1), HALT()])
    a = machine.add_program(program)
    b = machine.add_program(program)
    machine.run()
    a.regs.set_gr(1, 99)
    assert b.regs.get_gr(1) == 5


def test_instruction_str_rendering():
    insn = LG(3, Mem(base=1, disp=0x100))
    assert "LG" in str(insn)
    branch = JNZ("loop")
    assert "loop" in str(branch)
