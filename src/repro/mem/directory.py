"""Generic set-associative cache directory with true-LRU replacement.

Used (with different geometries) for the L1 and L2 data caches and for the
shared L3/L4 tag directories. Tracks presence and ownership state only —
data values live in :class:`repro.mem.memory.MainMemory` plus the store
machinery, because the L1/L2 are store-through and the architected image is
always recoverable (see DESIGN.md, "Value storage").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ProtocolError
from ..params import CacheGeometry
from .line import DirectoryEntry, Ownership


def _lru_key(entry: DirectoryEntry) -> int:
    return entry.lru


class SetAssociativeDirectory:
    """Tag directory: ``rows`` congruence classes x ``ways`` entries."""

    __slots__ = ("geometry", "name", "ways", "_rows", "_entries", "_clock",
                 "_row_shift", "_row_mask")

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self.ways = geometry.ways
        # Rows materialise lazily and are dropped as soon as they empty:
        # large shared caches (L3/L4) have tens of thousands of congruence
        # classes, almost all of which hold at most one line in any given
        # run. A row is a plain list of at most ``ways`` entries — a dict
        # per row would cost several times the entry it holds.
        self._rows: Dict[int, List[DirectoryEntry]] = {}
        #: Flat line -> entry index over every row: the only way a line is
        #: found (lookup, install, remove), so rows are never searched.
        self._entries: Dict[int, DirectoryEntry] = {}
        self._clock = 0
        # line_size and rows are powers of two, so the congruence class is
        # a shift-and-mask of the line address.
        self._row_shift = geometry.line_size.bit_length() - 1
        self._row_mask = geometry.rows - 1

    # -- basic queries ----------------------------------------------------

    def row_of(self, line: int) -> int:
        return (line >> self._row_shift) & self._row_mask

    def lookup(self, line: int) -> Optional[DirectoryEntry]:
        """Find the entry for ``line``, without touching LRU state."""
        return self._entries.get(line)

    def contains(self, line: int) -> bool:
        return line in self._entries

    def touch(self, entry: DirectoryEntry) -> None:
        """Mark ``entry`` most recently used."""
        self._clock += 1
        entry.lru = self._clock

    def row_entries(self, row: int) -> List[DirectoryEntry]:
        return list(self._rows.get(row, ()))

    def occupancy(self) -> int:
        """Total number of valid entries (for tests and statistics)."""
        return len(self._entries)

    # -- mutation ---------------------------------------------------------

    def install(
        self,
        line: int,
        state: Ownership,
        evict: Optional[Callable[[DirectoryEntry], None]] = None,
    ) -> DirectoryEntry:
        """Install ``line``, evicting the row's LRU entry if the row is full.

        ``evict`` is called with the victim entry *before* it is removed, so
        the caller can cascade the eviction (LRU XIs, inclusivity, tx-read
        LRU-extension updates). Returns the (new or refreshed) entry.
        """
        if state is Ownership.INVALID:
            raise ProtocolError(f"{self.name}: cannot install an invalid line")
        entry = self._entries.get(line)
        if entry is None:
            index = (line >> self._row_shift) & self._row_mask
            rows = self._rows
            row = rows.get(index)
            if row is not None and len(row) >= self.ways:
                # LRU stamps are unique, so the victim is unambiguous.
                victim = min(row, key=_lru_key)
                if evict is not None:
                    evict(victim)
                    # The callback may itself have removed entries (e.g.
                    # an abort invalidating tx-dirty lines), emptying and
                    # dropping this very row — so look it up again.
                    row = rows.get(index)
                if self._entries.pop(victim.line, None) is not None:
                    row.remove(victim)
            entry = DirectoryEntry(line=line, state=state)
            if row is None:
                rows[index] = [entry]
            else:
                row.append(entry)
            self._entries[line] = entry
        else:
            entry.state = state
        self._clock += 1
        entry.lru = self._clock
        return entry

    def remove(self, line: int) -> Optional[DirectoryEntry]:
        """Invalidate ``line`` if present; returns the removed entry."""
        entry = self._entries.pop(line, None)
        if entry is not None:
            index = (line >> self._row_shift) & self._row_mask
            row = self._rows[index]
            if len(row) == 1:
                del self._rows[index]
            else:
                row.remove(entry)
        return entry

    def demote(self, line: int) -> None:
        """Transition ``line`` from exclusive to read-only if present."""
        entry = self.lookup(line)
        if entry is not None:
            entry.state = Ownership.READ_ONLY

    def clear(self) -> None:
        self._rows.clear()
        self._entries.clear()
