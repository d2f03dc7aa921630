"""The shared-variable-pool micro-benchmark programs (paper section IV).

"Each CPU repeatedly picks either 1 or 4 random variables from the pool
and increments the chosen variable(s). If the pool consists of only 1
variable, we use 4 consecutive cache lines for the tests that update 4
variables."

Every synchronisation scheme of Figure 5 is available:

===============  ==========================================================
scheme           critical section
===============  ==========================================================
``none``         no synchronisation (the upper bound used by the paper's
                 "99.8% of the throughput without any locking scheme")
``coarse``       one spin lock for the whole pool
``fine``         one spin lock per variable (single-variable updates only)
``tbegin``       Figure 1: TBEGIN + lock test, PPA back-off, 6 retries,
                 coarse-lock fallback
``tbeginc``      Figure 3: TBEGINC, no fallback path
``rwlock``       read/write lock, readers only (Figure 5(d) baseline)
``tbeginc-read`` constrained transaction reading the variables
===============  ==========================================================

Measurement marks bracket the lock/tbegin .. unlock/tend window, so the
random-number generation overhead is excluded, as in the paper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cpu.assembler import Program, assemble
from ..cpu.isa import (
    AGSI,
    AHI,
    HALT,
    JNZ,
    LG,
    LHI,
    MARK_END,
    MARK_START,
    Mem,
    RANDOM,
    SLL,
    TEND,
)
from ..errors import ConfigurationError
from ..sync.retry import constrained_transaction, transaction_with_fallback
from ..sync.rwlock import reader_enter, reader_exit
from ..sync.spinlock import acquire_lock, release_lock
from .layout import PoolLayout

#: Registers holding the byte offsets of the chosen pool variables.
OFFSET_REGISTERS = (5, 6, 7, 8)
#: Scratch register for the increment.
VALUE_REGISTER = 3
#: Loop counter register.
COUNTER_REGISTER = 9

SCHEMES = (
    "none",
    "coarse",
    "fine",
    "tbegin",
    "tbeginc",
    "rwlock",
    "tbeginc-read",
)


def _pick_variables(layout: PoolLayout, n_vars: int) -> List:
    """Emit the random-variable selection (excluded from measurement)."""
    items: List = []
    regs = OFFSET_REGISTERS[:n_vars]
    if layout.pool_size == 1 and n_vars > 1:
        # "we use 4 consecutive cache lines for the tests that update 4
        # variables"
        for i, reg in enumerate(regs):
            items.append(LHI(reg, i * layout.line_size))
    else:
        for reg in regs:
            items.append(RANDOM(reg, layout.pool_size))
            items.append(SLL(reg, 8))  # index -> byte offset (256B lines)
    return items


def _update_vars(layout: PoolLayout, n_vars: int) -> List:
    """Increment each chosen variable with an add-to-storage RMW.

    A compiler turns ``var++`` into ASI/AGSI on z, which fetches the line
    exclusive with store intent — so colliding increments serialise via XI
    stiff-arming rather than aborting each other through a read-only
    window.
    """
    return [AGSI(layout.var(reg), 1) for reg in OFFSET_REGISTERS[:n_vars]]


def _read_vars(layout: PoolLayout, n_vars: int) -> List:
    return [LG(VALUE_REGISTER, layout.var(reg))
            for reg in OFFSET_REGISTERS[:n_vars]]


def _critical_section(
    scheme: str,
    layout: PoolLayout,
    n_vars: int,
    fallback_mode: Optional[str] = None,
) -> List:
    update = _update_vars(layout, n_vars)
    if scheme == "none":
        return update
    if scheme == "coarse":
        return (
            acquire_lock(layout.coarse_lock, "cs")
            + update
            + release_lock(layout.coarse_lock)
        )
    if scheme == "fine":
        if n_vars != 1:
            raise ConfigurationError(
                "fine-grained locking is defined for single-variable "
                "updates only (lock-ordering for 4 variables is exactly "
                "the complexity the paper motivates transactions with)"
            )
        reg = OFFSET_REGISTERS[0]
        lock = layout.fine_lock(reg)
        return acquire_lock(lock, "cs") + update + release_lock(lock)
    if scheme == "tbegin":
        return transaction_with_fallback(
            update, layout.coarse_lock, prefix="cs",
            fallback_mode=fallback_mode,
        )
    if scheme == "tbeginc":
        return constrained_transaction(update)
    if scheme == "rwlock":
        return (
            reader_enter(layout.rw_lock, "cs")
            + _read_vars(layout, n_vars)
            + reader_exit(layout.rw_lock, "cs")
        )
    if scheme == "tbeginc-read":
        return constrained_transaction(_read_vars(layout, n_vars))
    raise ConfigurationError(f"unknown scheme {scheme!r}; one of {SCHEMES}")


def build_update_program(
    scheme: str,
    layout: PoolLayout,
    n_vars: int = 1,
    iterations: int = 50,
    fallback_mode: Optional[str] = None,
) -> Program:
    """Build one CPU's benchmark program.

    The loop body is: pick variables (unmeasured), MARK_START, critical
    section per ``scheme``, MARK_END, decrement the iteration counter.

    ``fallback_mode`` selects the ``tbegin`` scheme's exhausted-retry
    path (see :func:`~repro.sync.retry.transaction_with_fallback`); the
    default ``None`` means ``"lock"``. Pass the machine's
    ``fallback_mode`` so program emission and engine behaviour agree.
    """
    if n_vars not in (1, 4):
        raise ConfigurationError("the paper updates either 1 or 4 variables")
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")
    items: List = [LHI(COUNTER_REGISTER, iterations), "loop"]
    items += _pick_variables(layout, n_vars)
    items.append(MARK_START())
    items += _critical_section(scheme, layout, n_vars, fallback_mode)
    items.append(MARK_END())
    items.append(AHI(COUNTER_REGISTER, -1))
    items.append(JNZ("loop"))
    items.append(HALT())
    return assemble(items)
