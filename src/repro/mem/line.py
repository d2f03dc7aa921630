"""Cache-line ownership states and directory entries.

The zEC12 manages coherency with "a variant of the MESI protocol" where
cache lines are owned *read-only* (shared) or *exclusive*; the L1/L2 are
store-through and therefore never hold dirty data (section III.A). We model
exactly those two valid states plus invalid.

For the transactional-memory implementation the L1 directory's valid bits
were moved into logic latches and supplemented with two bits per line:
``tx_read`` and ``tx_dirty`` (section III.C). Those live on
:class:`DirectoryEntry` and are only meaningful in the L1.
"""

from __future__ import annotations

import enum


class Ownership(enum.Enum):
    """Coherency state of a line within one CPU's private cache."""

    INVALID = "invalid"
    READ_ONLY = "read-only"
    EXCLUSIVE = "exclusive"

    def grants_store(self) -> bool:
        """Stores require exclusive ownership."""
        return self is Ownership.EXCLUSIVE

    def grants_load(self) -> bool:
        """Loads require any valid ownership."""
        return self is not Ownership.INVALID


class DirectoryEntry:
    """One way of one congruence class in a cache directory.

    ``lru`` is a monotonically increasing use stamp maintained by the
    directory; the way with the smallest stamp in a row is the LRU victim.
    """

    __slots__ = ("line", "state", "tx_read", "tx_dirty", "lru")

    def __init__(
        self,
        line: int,
        state: Ownership = Ownership.READ_ONLY,
        tx_read: bool = False,
        tx_dirty: bool = False,
        lru: int = 0,
    ) -> None:
        self.line = line
        self.state = state
        self.tx_read = tx_read
        self.tx_dirty = tx_dirty
        self.lru = lru

    def __repr__(self) -> str:
        return (
            f"DirectoryEntry(line={self.line:#x}, state={self.state}, "
            f"tx_read={self.tx_read}, tx_dirty={self.tx_dirty}, "
            f"lru={self.lru})"
        )

    def clear_tx(self) -> None:
        """Drop transactional marks (outermost TBEGIN decode / TEND)."""
        self.tx_read = False
        self.tx_dirty = False


class LineInfo:
    """Fabric-level bookkeeping for one line address (who owns it where).

    ``ro_owners`` is a bitmask of CPU ids: bit ``c`` is set while CPU
    ``c`` holds the line read-only. An int costs no allocation per line,
    and the fabric answers "nearest other owner" with a few mask tests
    (see :meth:`repro.mem.fabric.CoherenceFabric._miss_latency`).
    """

    __slots__ = ("ro_owners", "ex_owner", "busy_until")

    def __init__(
        self,
        ro_owners: int = 0,
        ex_owner: int = -1,
        busy_until: int = 0,
    ) -> None:
        #: Bitmask of the CPUs holding the line read-only.
        self.ro_owners = ro_owners
        #: CPU id, or -1 when nobody owns it exclusively.
        self.ex_owner = ex_owner
        #: Simulated time until which the line is in flight on the
        #: interconnect; a line cannot change hands faster than one
        #: transfer per transfer latency.
        self.busy_until = busy_until

    def __repr__(self) -> str:
        return (
            f"LineInfo(ro_owners={sorted(self.ro_cpus())}, "
            f"ex_owner={self.ex_owner}, busy_until={self.busy_until})"
        )

    def ro_cpus(self) -> set:
        """The CPUs holding the line read-only."""
        return set(cpus_of(self.ro_owners))

    def owners(self) -> set:
        """All CPUs holding the line in any valid state."""
        result = self.ro_cpus()
        if self.ex_owner >= 0:
            result.add(self.ex_owner)
        return result

    def is_unowned(self) -> bool:
        return self.ex_owner < 0 and not self.ro_owners


def cpus_of(mask: int):
    """The CPU ids whose bits are set in ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
