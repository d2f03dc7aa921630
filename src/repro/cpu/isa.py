"""The simulated instruction set.

A compact, z-like ISA — enough to express the paper's code examples
(figures 1 and 3), the micro-benchmark loops, and every transactional
instruction of the TX facility. Instructions are symbolic (no binary
encodings) but carry faithful *instruction-text lengths* (2/4/6 bytes), so
the constrained-transaction constraints (at most 32 instructions within
256 bytes of instruction text, forward-pointing relative branches only)
are checkable exactly as architected.

Condition-code masks follow z/Architecture BRC conventions:
bit 8 = CC0, 4 = CC1, 2 = CC2, 1 = CC3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..errors import AssemblyError


# Instruction records are built by the thousand per assembled program,
# so they are plain (not frozen) dataclasses: a frozen ``__init__`` routes
# every field through ``object.__setattr__`` and costs several times more.
# ``unsafe_hash`` keeps value equality and hashing; treat them as values.


@dataclass(unsafe_hash=True)
class Mem:
    """A memory operand: effective address = GR[base] + GR[index] + disp.

    ``base``/``index`` of ``None`` contribute zero, so ``Mem(disp=addr)``
    is an absolute address.
    """

    base: Optional[int] = None
    index: Optional[int] = None
    disp: int = 0


Operand = Union[int, str, Mem, None]


@dataclass(unsafe_hash=True)
class Instruction:
    """One symbolic instruction."""

    mnemonic: str
    operands: Tuple[Operand, ...] = ()
    length: int = 4
    #: Branch-target label for branch instructions.
    target: Optional[str] = None
    #: Privileged / complex: always aborts a transaction (code 11).
    restricted_in_tx: bool = False
    #: Excluded from constrained transactions (constraint violation).
    restricted_in_constrained: bool = False
    #: Modifies an access register / floating-point register (subject to
    #: the TBEGIN modification controls).
    modifies_ar: bool = False
    modifies_fpr: bool = False
    #: Measurement/workload pseudo-instruction (zero architected length).
    pseudo: bool = False

    @property
    def is_branch(self) -> bool:
        return self.target is not None

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        tgt = f" -> {self.target}" if self.target else ""
        return f"{self.mnemonic} {ops}{tgt}".strip()


# ---------------------------------------------------------------------------
# condition-code masks
# ---------------------------------------------------------------------------

CC0, CC1, CC2, CC3 = 8, 4, 2, 1
ALWAYS = CC0 | CC1 | CC2 | CC3


# ---------------------------------------------------------------------------
# instruction factories
# ---------------------------------------------------------------------------

def LHI(r: int, imm: int) -> Instruction:
    """Load Halfword Immediate: GR[r] = imm."""
    return Instruction("LHI", (r, imm), length=4)


def AHI(r: int, imm: int) -> Instruction:
    """Add Halfword Immediate: GR[r] += imm; sets CC by sign."""
    return Instruction("AHI", (r, imm), length=4)


def LR(r1: int, r2: int) -> Instruction:
    """Load Register: GR[r1] = GR[r2]."""
    return Instruction("LR", (r1, r2), length=2)


def LA(r: int, mem: Mem) -> Instruction:
    """Load Address: GR[r] = effective address of mem."""
    return Instruction("LA", (r, mem), length=4)


def AGR(r1: int, r2: int) -> Instruction:
    """Add: GR[r1] += GR[r2]; sets CC by sign."""
    return Instruction("AGR", (r1, r2), length=4)


def SGR(r1: int, r2: int) -> Instruction:
    """Subtract: GR[r1] -= GR[r2]; sets CC by sign."""
    return Instruction("SGR", (r1, r2), length=4)


def SLL(r: int, amount: int) -> Instruction:
    """Shift Left Logical by a constant amount."""
    return Instruction("SLL", (r, amount), length=4)


def SRL(r: int, amount: int) -> Instruction:
    """Shift Right Logical by a constant amount."""
    return Instruction("SRL", (r, amount), length=4)


def CGR(r1: int, r2: int) -> Instruction:
    """Compare (64-bit signed): CC0 equal, CC1 low, CC2 high."""
    return Instruction("CGR", (r1, r2), length=4)


def NGR(r1: int, r2: int) -> Instruction:
    """AND: GR[r1] &= GR[r2]; CC0 zero / CC1 non-zero."""
    return Instruction("NGR", (r1, r2), length=4)


def OGR(r1: int, r2: int) -> Instruction:
    """OR: GR[r1] |= GR[r2]; CC0 zero / CC1 non-zero."""
    return Instruction("OGR", (r1, r2), length=4)


def XGR(r1: int, r2: int) -> Instruction:
    """XOR: GR[r1] ^= GR[r2]; CC0 zero / CC1 non-zero."""
    return Instruction("XGR", (r1, r2), length=4)


def MSGR(r1: int, r2: int) -> Instruction:
    """Multiply: GR[r1] *= GR[r2] (low 64 bits)."""
    return Instruction("MSGR", (r1, r2), length=4)


def BRCT(r: int, label: str) -> Instruction:
    """Branch on Count: GR[r] -= 1; branch when the result is non-zero.

    The idiomatic z loop-closing instruction.
    """
    return Instruction("BRCT", (r,), length=4, target=label)


def STCK(mem: Mem) -> Instruction:
    """Store Clock: store the current (simulated) TOD clock, in cycles.

    The paper's measurement primitive ("We use the Store Clock Fast
    instruction to measure the time between each lock/tbegin and
    unlock/tend").
    """
    return Instruction("STCK", (mem,), length=4)


def LG(r: int, mem: Mem) -> Instruction:
    """Load 8 bytes from memory."""
    return Instruction("LG", (r, mem), length=6)


def LTG(r: int, mem: Mem) -> Instruction:
    """Load and Test 8 bytes: CC0 zero, CC1 negative, CC2 positive."""
    return Instruction("LTG", (r, mem), length=6)


def STG(r: int, mem: Mem) -> Instruction:
    """Store 8 bytes to memory."""
    return Instruction("STG", (r, mem), length=6)


def CSG(r1: int, r3: int, mem: Mem) -> Instruction:
    """Compare and Swap (8 bytes): if mem == GR[r1] then mem = GR[r3],
    CC0; else GR[r1] = mem, CC1."""
    return Instruction("CSG", (r1, r3, mem), length=6)


def AGSI(mem: Mem, imm: int) -> Instruction:
    """Add Immediate to Storage (8 bytes): mem += imm; sets CC by sign.

    A single read-modify-write: the line is fetched exclusive with store
    intent, leaving no read-only window between the load and store halves
    of an increment.
    """
    return Instruction("AGSI", (mem, imm), length=6)


def NTSTG(r: int, mem: Mem) -> Instruction:
    """Nontransactional Store (8 bytes): isolated, survives aborts."""
    return Instruction("NTSTG", (r, mem), length=6)


def DSG(r1: int, r2: int) -> Instruction:
    """Divide: GR[r1] //= GR[r2]; fixed-point-divide exception on zero.

    Stands in for the paper's group-4 (filterable arithmetic) exceptions.
    """
    return Instruction("DSG", (r1, r2), length=6, restricted_in_constrained=True)


def J(label: str) -> Instruction:
    """Unconditional relative branch."""
    return Instruction("J", (), length=4, target=label)


def BRC(mask: int, label: str) -> Instruction:
    """Branch on Condition (relative)."""
    if not 0 <= mask <= 15:
        raise AssemblyError("BRC mask must be a 4-bit CC mask")
    return Instruction("BRC", (mask,), length=4, target=label)


def JZ(label: str) -> Instruction:
    """Branch if CC0 (zero/equal)."""
    return BRC(CC0, label)


def JNZ(label: str) -> Instruction:
    """Branch if CC != 0."""
    return BRC(CC1 | CC2 | CC3, label)


def JO(label: str) -> Instruction:
    """Branch if CC3 (after TBEGIN: the permanent-abort path)."""
    return BRC(CC3, label)


def CIJ(r: int, imm: int, mask: int, label: str) -> Instruction:
    """Compare Immediate and Jump: compare GR[r] with imm (CC0 equal,
    CC1 low, CC2 high), branch if CC selected by mask."""
    return Instruction("CIJ", (r, imm, mask), length=6, target=label)


def CIJNL(r: int, imm: int, label: str) -> Instruction:
    """Compare Immediate and Jump if Not Low (GR[r] >= imm)."""
    return CIJ(r, imm, CC0 | CC2, label)


def TBEGIN(
    tdb: Optional[int] = None,
    grsm: int = 0xFF,
    allow_ar_modification: bool = True,
    allow_fpr_modification: bool = True,
    pifc: int = 0,
) -> Instruction:
    """Transaction Begin (non-constrained)."""
    return Instruction(
        "TBEGIN",
        (tdb, grsm, allow_ar_modification, allow_fpr_modification, pifc),
        length=6,
        restricted_in_constrained=True,
    )


def TBEGINC(grsm: int = 0xFF) -> Instruction:
    """Transaction Begin Constrained (FPR control and PIFC do not exist
    and are considered zero)."""
    return Instruction("TBEGINC", (grsm,), length=6,
                       restricted_in_constrained=True)


def TEND() -> Instruction:
    """Transaction End."""
    return Instruction("TEND", (), length=4)


def TABORT(code: int) -> Instruction:
    """Transaction Abort with a program-specified abort code (>= 256 after
    biasing); the code's least significant bit selects CC2/CC3."""
    return Instruction("TABORT", (code,), length=6,
                       restricted_in_constrained=True)


def SBEGIN() -> Instruction:
    """Software-Transaction Begin: open an orec-STM transaction (the
    hybrid fallback path, `repro.stm`). CC0 on success; like the other
    TX-facility begin/end instructions it is not a real z instruction's
    encoding — it models the runtime's `stm_begin()` entry point at the
    cost of one instruction. Restricted inside hardware transactions
    (abort code 11): HW and SW modes never nest in one context."""
    return Instruction("SBEGIN", (), length=4, restricted_in_tx=True,
                       restricted_in_constrained=True)


def SEND() -> Instruction:
    """Software-Transaction End: TL2 commit (lock write orecs, bump the
    global clock, validate the read set, write back, release). CC0 on
    success; a failed validation aborts back to after the SBEGIN with
    CC2. Outside a software transaction: CC2 no-op (mirrors TEND)."""
    return Instruction("SEND", (), length=4, restricted_in_tx=True,
                       restricted_in_constrained=True)


def SABORT(code: int) -> Instruction:
    """Software-Transaction Abort with a program-specified code: drop
    the redo log and resume after the SBEGIN with CC2."""
    return Instruction("SABORT", (code,), length=6, restricted_in_tx=True,
                       restricted_in_constrained=True)


def ETND(r: int) -> Instruction:
    """Extract Transaction Nesting Depth into GR[r] (millicoded)."""
    return Instruction("ETND", (r,), length=4, restricted_in_constrained=True)


def PPA(r: int) -> Instruction:
    """Perform Processor Assist, function TX: random abort-count-scaled
    delay performed by millicode (GR[r] holds the abort count)."""
    return Instruction("PPA", (r,), length=4, restricted_in_constrained=True)


def NOPR() -> Instruction:
    """2-byte no-op."""
    return Instruction("NOPR", (), length=2)


def LPSW(mem: Mem) -> Instruction:
    """Load PSW — privileged; restricted inside transactions (abort 11)."""
    return Instruction("LPSW", (mem,), length=4, restricted_in_tx=True,
                       restricted_in_constrained=True)


def LDR(f1: int, f2: int) -> Instruction:
    """Load FPR — subject to the FPR-modification control."""
    return Instruction("LDR", (f1, f2), length=2, modifies_fpr=True,
                       restricted_in_constrained=True)


def SAR(ar: int, r: int) -> Instruction:
    """Set Access Register from GR — subject to the AR-modification control."""
    return Instruction("SAR", (ar, r), length=4, modifies_ar=True,
                       restricted_in_constrained=True)


def RANDOM(r: int, modulo: int) -> Instruction:
    """Workload pseudo-instruction: GR[r] = uniform integer in [0, modulo).

    Stands in for the benchmark's random-variable selection, whose
    "overhead such as random number generation" the paper excludes from
    the measured results (we do too, via MARK_START/MARK_END).
    """
    return Instruction("RANDOM", (r, modulo), length=4)


def PAUSE(cycles: int = 25) -> Instruction:
    """Spin-wait pause: consumes ``cycles`` without touching memory.

    Spin loops insert it between lock retests (like x86 PAUSE / z
    branch-prediction pacing) — it keeps waiters off the interconnect and
    the simulation event count proportional to useful work.
    """
    return Instruction("PAUSE", (cycles,), length=4)


def MARK_START() -> Instruction:
    """Measurement pseudo-op: start the per-update timer."""
    return Instruction("MARK_START", (), length=2, pseudo=True)


def MARK_END() -> Instruction:
    """Measurement pseudo-op: end the per-update timer."""
    return Instruction("MARK_END", (), length=2, pseudo=True)


def HALT() -> Instruction:
    """Stop this CPU's program (simulation control)."""
    return Instruction("HALT", (), length=2, pseudo=True)
