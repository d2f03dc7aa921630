"""Transaction retry harnesses — the paper's Figures 1 and 3 as builders.

:func:`transaction_with_fallback` emits exactly the Figure 1 pattern:

* TBEGIN, branch to the abort handler on a non-zero condition code;
* load-and-test the fallback lock inside the transaction (every elided
  transaction "must check that the lock is free to prevent concurrent
  operation of a transactional CPU and a CPU currently in the fallback
  path") and TABORT if it is busy;
* the abort handler branches straight to the fallback on CC 3 (permanent),
  otherwise increments the retry count, gives up after ``max_retries``
  attempts, performs a PPA random delay scaled by the retry count, waits
  for the lock to become free, and retries;
* the fallback path obtains the lock with compare-and-swap, performs the
  operation non-transactionally, and releases the lock.

:func:`constrained_transaction` emits the Figure 3 pattern: TBEGINC /
operation / TEND, with no fallback path ("the CPU assures that constrained
transactions eventually end successfully").
"""

from __future__ import annotations

from typing import List, Optional

from ..cpu.isa import (
    AHI,
    BRC,
    CIJNL,
    J,
    JNZ,
    JO,
    LHI,
    LTG,
    Mem,
    PAUSE,
    PPA,
    SBEGIN,
    SEND,
    TABORT,
    TBEGIN,
    TBEGINC,
    TEND,
)
from .spinlock import acquire_lock, release_lock

#: TABORT code used when the elided lock is observed busy. Even, so the
#: abort is *transient* (CC 2) — the lock should free up, making a retry
#: worthwhile.
LOCK_BUSY_ABORT_CODE = 256

#: Register conventions of the emitted code (matching Figure 1's use of
#: R0 for the retry count and R1 for the lock test).
RETRY_COUNT_REGISTER = 0
LOCK_TEST_REGISTER = 1


def transaction_with_fallback(
    body: List,
    lock: Mem,
    prefix: str,
    fallback_body: Optional[List] = None,
    max_retries: int = 6,
    tdb_address: Optional[int] = None,
    grsm: int = 0xFF,
    pifc: int = 0,
    test_lock: bool = True,
    fallback_mode: Optional[str] = None,
) -> List:
    """Emit the Figure 1 lock-elision harness around ``body``.

    ``body`` runs transactionally; ``fallback_body`` (default: ``body``)
    runs under ``lock`` after CC 3 or ``max_retries`` transient aborts.
    Bodies must not clobber R0 (retry count) and must have unique labels.

    ``fallback_mode`` selects the exhausted-retry path: ``"lock"`` emits
    the paper's global-lock fallback exactly as before, ``"stm"`` emits
    the hybrid-TM software path (SBEGIN / fallback body / SEND with a
    PPA-backed retry loop — see :mod:`repro.stm`; the in-transaction
    lock test is dropped, since HW/SW conflict detection runs through
    orecs instead of a lock word). The default ``None`` means ``"lock"``,
    like an empty ``MachineParams.fallback_mode``; a program built for
    an stm machine must pass ``"stm"``.
    """
    p = prefix
    fallback = list(fallback_body if fallback_body is not None else body)
    items: List = [
        LHI(RETRY_COUNT_REGISTER, 0),                       # retry count = 0
        (f"{p}.loop", TBEGIN(tdb=tdb_address, grsm=grsm, pifc=pifc)),
        JNZ(f"{p}.abort"),                                  # CC != 0: aborted
    ]
    if fallback_mode == "stm":
        items += list(body)
        items += [
            TEND(),
            J(f"{p}.done"),
            (f"{p}.abort", JO(f"{p}.fallback")),            # no retry if CC=3
            AHI(RETRY_COUNT_REGISTER, 1),
            CIJNL(RETRY_COUNT_REGISTER, max_retries, f"{p}.fallback"),
            PPA(RETRY_COUNT_REGISTER),                      # random delay
            J(f"{p}.loop"),
            # Software path: a failed SEND (or any STM conflict inside
            # the body) resumes right after SBEGIN with CC 2; the JNZ
            # then routes through the PPA back-off into a fresh attempt.
            (f"{p}.fallback", SBEGIN()),
            JNZ(f"{p}.sback"),
        ]
        items += fallback
        items += [
            SEND(),
            J(f"{p}.done"),
            (f"{p}.sback", AHI(RETRY_COUNT_REGISTER, 1)),
            PPA(RETRY_COUNT_REGISTER),
            J(f"{p}.fallback"),
            f"{p}.done",
        ]
        return items
    if test_lock:
        items += [
            LTG(LOCK_TEST_REGISTER, lock),                  # load&test the lock
            JNZ(f"{p}.lckbzy"),                             # branch if busy
        ]
    items += list(body)
    items += [
        TEND(),
        J(f"{p}.done"),
    ]
    if test_lock:
        items += [
            (f"{p}.lckbzy", TABORT(LOCK_BUSY_ABORT_CODE)),  # resumes after TBEGIN
        ]
    items += [
        (f"{p}.abort", JO(f"{p}.fallback")),                # no retry if CC=3
        AHI(RETRY_COUNT_REGISTER, 1),                       # increment retry count
        CIJNL(RETRY_COUNT_REGISTER, max_retries, f"{p}.fallback"),
        PPA(RETRY_COUNT_REGISTER),                          # random delay
        # Spin site: the .wait/BRC/PAUSE/J loop below is an elidable
        # spin body (single LTG load, register-idempotent) — a waiter
        # parks under a line watch on the lock block until the fallback
        # holder's release store drains.
        (f"{p}.wait", LTG(LOCK_TEST_REGISTER, lock)),       # wait for lock free
        BRC(8, f"{p}.loop"),                                # free: retry the tx
        PAUSE(),
        J(f"{p}.wait"),
        f"{p}.fallback",                                    # OBTAIN lock ...
    ]
    items += acquire_lock(lock, f"{p}.obtain")
    items += fallback
    items += release_lock(lock)
    items.append(f"{p}.done")
    return items


def constrained_transaction(body: List, grsm: int = 0xFF) -> List:
    """Emit the Figure 3 pattern: TBEGINC / body / TEND, no fallback."""
    return [TBEGINC(grsm=grsm), *body, TEND()]
