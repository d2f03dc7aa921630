"""Cross-module consistency checks.

These tie the pieces together: the workloads we *run* as constrained
transactions must also *pass* the static constraint checker, and the
engine's dynamic behaviour must agree with the checker's verdicts.
"""

import pytest

from repro.core.constraints import check_constrained_block
from repro.cpu.assembler import assemble
from repro.cpu.isa import AGSI, HALT, Mem, TBEGINC, TEND
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.workloads.layout import PoolLayout
from repro.workloads.pool import build_update_program


def constrained_blocks(program):
    return [loc.address for loc in program
            if loc.instruction.mnemonic == "TBEGINC"]


@pytest.mark.parametrize("n_vars", [1, 4])
@pytest.mark.parametrize("pool", [1, 10, 1000])
def test_tbeginc_workloads_pass_static_checks(pool, n_vars):
    """Every TBEGINC block emitted by the benchmark generator conforms
    to the architected constraints."""
    program = build_update_program("tbeginc", PoolLayout(pool),
                                   n_vars=n_vars, iterations=5)
    addresses = constrained_blocks(program)
    assert addresses
    for address in addresses:
        report = check_constrained_block(program, address, ZEC12.tx)
        assert report.ok, report.violations


def test_tbeginc_read_workload_passes_static_checks():
    program = build_update_program("tbeginc-read", PoolLayout(100),
                                   n_vars=4, iterations=5)
    for address in constrained_blocks(program):
        report = check_constrained_block(program, address, ZEC12.tx)
        assert report.ok, report.violations


def test_checker_verdict_matches_engine_behaviour():
    """A block the checker accepts runs to completion; one it rejects
    (too many octowords) triggers the engine's dynamic constraint
    interruption."""
    ok_items = [TBEGINC(), *[AGSI(Mem(disp=0x100000 + i * 256), 1)
                             for i in range(4)], TEND(), HALT()]
    ok_program = assemble(ok_items)
    report = check_constrained_block(ok_program, ok_program.entry, ZEC12.tx)
    assert report.ok
    machine = Machine(ZEC12)
    machine.add_program(ok_program)
    machine.run()
    assert machine.engines[0].stats_tx_committed == 1

    bad_items = [TBEGINC(), *[AGSI(Mem(disp=0x100000 + i * 256), 1)
                              for i in range(5)], TEND(), HALT()]
    bad_program = assemble(bad_items)
    # Statically: 5 distinct octowords cannot be proven, the static
    # checker only sees addresses when they are literal — here they are,
    # but the octoword rule is dynamic; the engine must catch it.
    machine2 = Machine(ZEC12)
    machine2.add_program(bad_program)
    from repro.errors import MachineStateError

    with pytest.raises(MachineStateError):
        machine2.run()


def test_figure1_harness_matches_paper_listing_structure():
    """The emitted Figure 1 code contains the paper's exact landmarks:
    retry-count init, TBEGIN, lock test, TABORT on busy lock, JO to the
    fallback, the retry threshold of 6, PPA, and compare-and-swap in the
    fallback."""
    # The paper's listing is the *lock* fallback.
    program = build_update_program("tbegin", PoolLayout(10), n_vars=1,
                                   iterations=1, fallback_mode="lock")
    mnemonics = [loc.instruction.mnemonic for loc in program]
    for expected in ("TBEGIN", "LTG", "TABORT", "PPA", "CSG", "TEND"):
        assert expected in mnemonics, f"missing {expected}"
    # The retry threshold: a CIJ comparing against 6.
    cijs = [loc.instruction for loc in program
            if loc.instruction.mnemonic == "CIJ"]
    assert any(insn.operands[1] == 6 for insn in cijs)
