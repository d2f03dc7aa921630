"""Cross-interrogate (XI) protocol messages.

Coherency requests in the z hierarchy are called cross interrogates and are
sent hierarchically from higher-level to lower-level caches (section III.A):

* **Exclusive XIs** transition ownership from exclusive to invalid.
* **Demote XIs** transition ownership from exclusive to read-only.
* Both need a response and may be **rejected** if the target first needs to
  evict dirty data — or, for transactional memory, as the "stiff-arm"
  mechanism that gives the target a chance to finish its transaction
  (section III.C). A rejected XI is repeated by the sender.
* **Read-only XIs** are sent to caches owning the line read-only; they
  cannot be rejected and need no response.
* **LRU XIs** result from evictions at inclusive higher-level caches.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class XiType(enum.Enum):
    EXCLUSIVE = "exclusive"
    DEMOTE = "demote"
    READ_ONLY = "read-only"
    LRU = "lru"

    @property
    def rejectable(self) -> bool:
        """Only demote and exclusive XIs may be rejected (stiff-armed)."""
        return self in (XiType.EXCLUSIVE, XiType.DEMOTE)

    @property
    def invalidates(self) -> bool:
        """Whether accepting this XI removes the line from the target."""
        return self is not XiType.DEMOTE


class XiResponse(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class Xi(NamedTuple):
    """One cross-interrogate sent to one target CPU.

    A ``NamedTuple`` rather than a frozen dataclass: every miss that
    finds an owner builds one, and a tuple is built in one C call
    instead of one ``object.__setattr__`` per field.
    """

    xi_type: XiType
    line: int
    requester: int  # CPU id of the requesting core, or -1 for LRU XIs
    target: int     # CPU id receiving the XI


#: Granularity of spin-watch registration: the store cache gathers and
#: drains in 128-byte blocks, so value changes are visible per block.
WATCH_BLOCK_SIZE = 128
WATCH_BLOCK_MASK = ~(WATCH_BLOCK_SIZE - 1)


class LineWatchTable:
    """Registry of parked CPUs watching a cache line.

    Two kinds of waiters share the table:

    * **Spinners** — a CPU whose spin loop has been elided (see
      :mod:`repro.cpu.interpreter`) registers the line and 128-byte block
      its load observes; the fabric wakes it on any XI delivered to it
      for that line, and — as a conservative safety net — on any
      ownership transition of, or store drain into, the watched block.
    * **Retry waiters** — a CPU whose ``FetchRetry`` back-off chain has
      been parked (same module) registers the line it is trying to
      acquire. Unlike a spinner, a retry waiter's parked event chain
      re-evaluates the fabric state at every tick, so it needs no wake
      to observe changes; the registration serves the deadlock
      diagnostic and the precise XI-to-target wake in
      :meth:`repro.mem.fabric.CoherenceFabric._send_xi` (defense in
      depth — a retry waiter does not own its watched line, so no XI
      normally targets it). Ownership-transition wakes are deliberately
      *not* sent to retry waiters: every exclusive grant of a contended
      line would wake every waiter into a full re-certification, which
      is exactly the churn the parking removes.

    Each CPU watches at most one block at a time in each role (a spin
    loop has exactly one load by construction; a retry chain re-executes
    exactly one instruction).
    """

    __slots__ = ("by_cpu", "by_block", "retry_by_cpu", "retry_by_block")

    def __init__(self) -> None:
        #: cpu id -> (line, block) it is spin-parked on.
        self.by_cpu: dict = {}
        #: block -> set of cpu ids spin-parked on it.
        self.by_block: dict = {}
        #: cpu id -> (line, block) it is retry-parked on.
        self.retry_by_cpu: dict = {}
        #: block -> set of cpu ids retry-parked on it.
        self.retry_by_block: dict = {}

    def add(self, cpu: int, line: int, block: int) -> None:
        self.by_cpu[cpu] = (line, block)
        self.by_block.setdefault(block, set()).add(cpu)

    def remove(self, cpu: int) -> None:
        watched = self.by_cpu.pop(cpu, None)
        if watched is None:
            return
        cpus = self.by_block.get(watched[1])
        if cpus is not None:
            cpus.discard(cpu)
            if not cpus:
                del self.by_block[watched[1]]

    def add_retry(self, cpu: int, line: int, block: int) -> None:
        self.retry_by_cpu[cpu] = (line, block)
        self.retry_by_block.setdefault(block, set()).add(cpu)

    def remove_retry(self, cpu: int) -> None:
        watched = self.retry_by_cpu.pop(cpu, None)
        if watched is None:
            return
        cpus = self.retry_by_block.get(watched[1])
        if cpus is not None:
            cpus.discard(cpu)
            if not cpus:
                del self.retry_by_block[watched[1]]

    def describe(self, cpu: int) -> Optional[str]:
        """One-line diagnostic for a parked CPU's registration, or None
        if the CPU watches nothing in either role."""
        watched = self.by_cpu.get(cpu)
        role = "parked"
        if watched is None:
            watched = self.retry_by_cpu.get(cpu)
            role = "retry-parked"
        if watched is None:
            return None
        line, block = watched
        return f"cpu {cpu} {role} on block 0x{block:x} (line 0x{line:x})"
