"""Interpreter tests: instruction semantics and abort handling at the
architected (ISA) level."""

import pytest

from repro.core.abort import AbortCode
from repro.core.tdb import read_tdb
from repro.cpu.isa import (
    AGR,
    AGSI,
    AHI,
    BRC,
    CIJ,
    CIJNL,
    CSG,
    DSG,
    ETND,
    HALT,
    J,
    JNZ,
    JO,
    JZ,
    LA,
    LDR,
    LG,
    LHI,
    LPSW,
    LR,
    LTG,
    Mem,
    NOPR,
    NTSTG,
    PPA,
    SAR,
    SGR,
    SLL,
    STG,
    TABORT,
    TBEGIN,
    TBEGINC,
    TEND,
)
from repro.params import ZEC12
from repro.sim.machine import Machine


def run(items, n_cpus=1, machine=None):
    from repro.cpu.assembler import assemble

    machine = machine or Machine(ZEC12)
    program = assemble([*items, HALT()])
    cpus = [machine.add_program(program) for _ in range(n_cpus)]
    result = machine.run()
    return machine, cpus[0] if n_cpus == 1 else cpus, result


DATA = 0x10000


class TestBasicInstructions:
    def test_register_moves_and_arithmetic(self):
        _, cpu, _ = run([
            LHI(1, 10),
            LR(2, 1),
            AHI(2, 5),
            AGR(2, 1),
            SGR(2, 1),
            SLL(1, 4),
        ])
        assert cpu.regs.get_gr(2) == 15
        assert cpu.regs.get_gr(1) == 160

    def test_negative_immediates_wrap_to_64_bits(self):
        _, cpu, _ = run([LHI(1, -1)])
        assert cpu.regs.get_gr(1) == (1 << 64) - 1
        assert cpu.regs.get_gr_signed(1) == -1

    @pytest.mark.parametrize("start,imm,result,cc", [
        (-5, 2, -3, 1),
        (-1, 1, 0, 0),
        (-2, 7, 5, 2),
    ])
    def test_ahi_reads_the_register_as_signed(self, start, imm, result, cc):
        _, cpu, _ = run([LHI(1, start), AHI(1, imm)])
        assert cpu.regs.get_gr_signed(1) == result
        assert cpu.regs.psw.condition_code == cc

    def test_load_address_with_base_and_index(self):
        _, cpu, _ = run([
            LHI(2, 0x100),
            LHI(3, 0x20),
            LA(1, Mem(base=2, index=3, disp=4)),
        ])
        assert cpu.regs.get_gr(1) == 0x124

    def test_storage_operands_add_base_and_index(self):
        ea = Mem(base=2, index=3, disp=DATA)
        machine, cpu, _ = run([
            LHI(2, 0x100),
            LHI(3, 0x20),
            LHI(1, -7),
            STG(1, ea),
            LG(4, ea),
            LTG(5, ea),
            AGSI(ea, 10),        # -7 + 10 = 3
            LHI(7, 3),
            LHI(8, 42),
            CSG(7, 8, ea),       # 3 -> 42, CC0
        ])
        assert cpu.regs.get_gr_signed(4) == -7
        assert cpu.regs.get_gr_signed(5) == -7
        assert cpu.regs.psw.condition_code == 0
        assert machine.memory.read_int(DATA + 0x120, 8) == 42
        assert machine.memory.read_int(DATA + 0x100, 8) == 0
        assert machine.memory.read_int(DATA + 0x20, 8) == 0

    def test_store_load_roundtrip(self):
        _, cpu, _ = run([
            LHI(1, 1234),
            STG(1, Mem(disp=DATA)),
            LG(2, Mem(disp=DATA)),
        ])
        assert cpu.regs.get_gr(2) == 1234

    def test_ltg_sets_condition_code(self):
        machine, cpu, _ = run([
            LHI(1, -5),
            STG(1, Mem(disp=DATA)),
            LTG(2, Mem(disp=DATA)),
        ])
        assert cpu.regs.psw.condition_code == 1  # negative
        machine2, cpu2, _ = run([LTG(2, Mem(disp=DATA))])
        assert cpu2.regs.psw.condition_code == 0  # zero

    def test_agsi_read_modify_write(self):
        machine, cpu, _ = run([
            AGSI(Mem(disp=DATA), 5),
            AGSI(Mem(disp=DATA), -2),
            LG(1, Mem(disp=DATA)),
        ])
        assert cpu.regs.get_gr(1) == 3
        assert cpu.regs.psw.condition_code == 2  # positive result

    def test_csg_success_and_failure(self):
        _, cpu, _ = run([
            LHI(1, 0),
            LHI(2, 7),
            CSG(1, 2, Mem(disp=DATA)),   # 0 -> 7, CC0
            LR(3, 1),
            LHI(1, 99),
            LHI(2, 8),
            CSG(1, 2, Mem(disp=DATA)),   # miscompare: GR1 = 7, CC1
        ])
        assert cpu.regs.psw.condition_code == 1
        assert cpu.regs.get_gr(1) == 7


class TestBranches:
    def test_unconditional_and_conditional(self):
        _, cpu, _ = run([
            LHI(1, 0),
            LHI(2, 3),
            ("loop", AHI(1, 1)),
            AHI(2, -1),
            JNZ("loop"),
        ])
        assert cpu.regs.get_gr(1) == 3

    def test_jz_taken_on_cc0(self):
        _, cpu, _ = run([
            LHI(1, 5),
            AHI(1, -5),        # result 0 -> CC0
            JZ("skip"),
            LHI(2, 99),
            ("skip", NOPR()),
        ])
        assert cpu.regs.get_gr(2) == 0

    def test_cij_comparison_masks(self):
        _, cpu, _ = run([
            LHI(1, 5),
            CIJNL(1, 5, "ge"),   # 5 >= 5: taken
            LHI(2, 1),
            ("ge", CIJ(1, 9, 4, "lt")),  # 5 < 9: taken (mask CC1)
            LHI(3, 1),
            ("lt", NOPR()),
        ])
        assert cpu.regs.get_gr(2) == 0
        assert cpu.regs.get_gr(3) == 0


class TestTransactions:
    def test_committed_transaction(self):
        machine, cpu, result = run([
            TBEGIN(),
            JNZ("out"),
            AGSI(Mem(disp=DATA), 1),
            TEND(),
            ("out", NOPR()),
        ])
        assert machine.memory.read_int(DATA, 8) == 1
        assert result.cpus[0].tx_committed == 1

    def test_tabort_resumes_after_tbegin_with_cc(self):
        machine, cpu, _ = run([
            LHI(5, 0),
            TBEGIN(),
            JNZ("handler"),
            AGSI(Mem(disp=DATA), 1),
            TABORT(256),          # transient: CC2
            TEND(),
            J("done"),
            ("handler", LR(5, 0)),  # records that we got here
            LHI(5, 1),
            ("done", NOPR()),
        ])
        assert cpu.regs.get_gr(5) == 1
        assert machine.memory.read_int(DATA, 8) == 0  # store discarded
        assert cpu.aborts[0].condition_code == 2

    def test_grsm_restores_selected_pairs_only(self):
        """Pairs named in the mask are restored; others keep their
        modified values ("modified state survives the abort")."""
        _, cpu, _ = run([
            LHI(4, 11),          # pair 2 (GR4/5): saved
            LHI(6, 22),          # pair 3 (GR6/7): NOT saved
            TBEGIN(grsm=0x20),   # bit 2 -> pair (4,5) only
            JNZ("out"),
            LHI(4, 99),
            LHI(6, 99),
            TABORT(257),
            TEND(),
            ("out", NOPR()),
        ])
        assert cpu.regs.get_gr(4) == 11   # restored
        assert cpu.regs.get_gr(6) == 99   # survived the abort

    def test_constrained_transaction_retries_at_tbeginc(self):
        """TBEGINC + diagnostic mode 1: aborts retry the TBEGINC itself
        and eventually succeed (no abort path needed)."""
        machine = Machine(ZEC12)
        machine_, cpu, result = run([
            TBEGINC(),
            AGSI(Mem(disp=DATA), 1),
            TEND(),
        ], machine=machine)
        assert machine.memory.read_int(DATA, 8) == 1

    def test_etnd_extracts_depth(self):
        _, cpu, _ = run([
            ETND(1),
            TBEGIN(),
            JNZ("out"),
            TBEGIN(),
            JNZ("out"),
            ETND(2),
            TEND(),
            TEND(),
            ("out", NOPR()),
        ])
        assert cpu.regs.get_gr(1) == 0
        assert cpu.regs.get_gr(2) == 2

    def test_ppa_consumes_time(self):
        machine, cpu, result = run([
            LHI(1, 5),
            PPA(1),
        ])
        assert result.cycles > ZEC12.costs.ppa_base

    def test_tend_outside_transaction_sets_cc2(self):
        _, cpu, _ = run([TEND()])
        assert cpu.regs.psw.condition_code == 2

    def test_ntstg_survives_abort(self):
        machine, cpu, _ = run([
            LHI(1, 0x77),
            TBEGIN(),
            JNZ("out"),
            NTSTG(1, Mem(disp=DATA)),
            STG(1, Mem(disp=DATA + 256)),
            TABORT(256),
            TEND(),
            ("out", NOPR()),
        ])
        assert machine.memory.read_int(DATA, 8) == 0x77
        assert machine.memory.read_int(DATA + 256, 8) == 0


class TestRestrictedInstructions:
    def test_privileged_instruction_aborts_with_code_11(self):
        _, cpu, _ = run([
            TBEGIN(),
            JNZ("out"),
            LPSW(Mem(disp=0x4000)),
            TEND(),
            ("out", NOPR()),
        ])
        assert cpu.aborts[0].code == AbortCode.RESTRICTED_INSTRUCTION
        assert cpu.regs.psw.condition_code == 3

    def test_lpsw_allowed_outside_transaction(self):
        _, cpu, _ = run([LPSW(Mem(disp=0x4000))])
        assert not cpu.aborts

    def test_fpr_modification_blocked_by_control(self):
        _, cpu, _ = run([
            TBEGIN(allow_fpr_modification=False),
            JNZ("out"),
            LDR(0, 1),
            TEND(),
            ("out", NOPR()),
        ])
        assert cpu.aborts[0].code == AbortCode.RESTRICTED_INSTRUCTION

    def test_fpr_modification_allowed_by_default(self):
        _, cpu, _ = run([
            TBEGIN(),
            JNZ("out"),
            LDR(0, 1),
            TEND(),
            ("out", NOPR()),
        ])
        assert not cpu.aborts

    def test_ar_modification_control(self):
        _, cpu, _ = run([
            LHI(1, 42),
            TBEGIN(allow_ar_modification=False),
            JNZ("out"),
            SAR(3, 1),
            TEND(),
            ("out", NOPR()),
        ])
        assert cpu.aborts[0].code == AbortCode.RESTRICTED_INSTRUCTION

    def test_effective_control_is_and_of_nest(self):
        _, cpu, _ = run([
            TBEGIN(allow_fpr_modification=True),
            JNZ("out"),
            TBEGIN(allow_fpr_modification=False),
            JNZ("out"),
            LDR(0, 1),      # blocked: inner control wins
            TEND(),
            TEND(),
            ("out", NOPR()),
        ])
        assert cpu.aborts


class TestFilteringAtIsaLevel:
    def test_divide_by_zero_filtered_with_pifc1(self):
        _, cpu, _ = run([
            LHI(1, 10),
            LHI(2, 0),
            LHI(5, 0),
            TBEGIN(pifc=1),
            JNZ("handler"),
            DSG(1, 2),
            TEND(),
            J("done"),
            ("handler", LHI(5, 1)),
            ("done", NOPR()),
        ])
        assert cpu.regs.get_gr(5) == 1
        assert cpu.aborts[0].code == AbortCode.PROGRAM_EXCEPTION_FILTERED
        assert cpu.regs.psw.condition_code in (0, 3)  # handler saw CC3

    def test_divide_by_zero_unfiltered_interrupts_os(self):
        machine, cpu, _ = run([
            LHI(1, 10),
            LHI(2, 0),
            TBEGIN(pifc=0),
            JNZ("handler"),
            DSG(1, 2),
            TEND(),
            ("handler", NOPR()),
        ])
        assert cpu.aborts[0].code == AbortCode.PROGRAM_INTERRUPTION
        assert len(machine.os.interruptions) == 1

    def test_page_fault_resolved_by_os_then_retry_succeeds(self):
        machine = Machine(ZEC12)
        machine.page_table.unmap(DATA)
        machine_, cpu, result = run([
            TBEGIN(),
            JNZ("retry"),       # after OS page-in, CC2: fall to retry
            AGSI(Mem(disp=DATA), 1),
            TEND(),
            J("done"),
            ("retry", J("again")),
            ("again", TBEGIN()),
            JNZ("done"),
            AGSI(Mem(disp=DATA), 1),
            TEND(),
            ("done", NOPR()),
        ], machine=machine)
        assert machine.memory.read_int(DATA, 8) == 1
        assert machine.page_table.paged_in


class TestTdbAtIsaLevel:
    def test_tdb_stored_on_abort_with_grs(self):
        tdb_addr = 0x8000
        machine, cpu, _ = run([
            LHI(7, 1234),
            TBEGIN(tdb=tdb_addr),
            JNZ("out"),
            TABORT(258),
            TEND(),
            ("out", NOPR()),
        ])
        view = read_tdb(machine.memory, tdb_addr)
        assert view.valid
        assert view.abort_code == 258
        assert view.general_registers[7] == 1234

    def test_no_tdb_without_address(self):
        machine, cpu, _ = run([
            TBEGIN(),
            JNZ("out"),
            TABORT(258),
            TEND(),
            ("out", NOPR()),
        ])
        assert machine.memory.read_int(0x8000, 8) == 0
