"""Shared store-in caches: the per-chip L3 and per-MCM L4 directories.

Each cache is inclusive of all its connected lower-level caches; evictions
caused by associativity overflow generate **LRU XIs** down the hierarchy
(section III.A). Because the L1/L2 are store-through, the architected data
is always available below, so we only need the tag directories here; dirty
(store-in) state affects latency, not correctness, in this model.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..params import CacheGeometry
from .directory import SetAssociativeDirectory
from .line import DirectoryEntry, Ownership


class SharedCache:
    """A shared inclusive cache level (used for both L3 and L4)."""

    def __init__(self, geometry: CacheGeometry, name: str, index: int) -> None:
        self.directory = SetAssociativeDirectory(geometry, name=f"{name}{index}")
        self.name = name
        self.index = index

    def contains(self, line: int) -> bool:
        return self.directory.contains(line)

    def touch(self, line: int) -> bool:
        """Refresh LRU state on a hit; returns whether the line was present."""
        entry = self.directory.lookup(line)
        if entry is None:
            return False
        self.directory.touch(entry)
        return True

    def install(
        self, line: int, on_lru_eviction: Callable[[int], None]
    ) -> None:
        """Install ``line``; evictions call back with the victim's address.

        The callback is responsible for the inclusivity cascade (sending
        LRU XIs to every lower-level cache holding the victim); it runs
        after the install, once the new line holds its way.
        """
        directory = self.directory
        entry = directory._entries.get(line)
        if entry is not None:
            # Already present (shared-cache entries are always installed
            # exclusive): refresh its LRU stamp in place.
            directory._clock += 1
            entry.lru = directory._clock
            return
        victims: List[DirectoryEntry] = []
        directory.install(line, Ownership.EXCLUSIVE, evict=victims.append)
        for victim in victims:
            on_lru_eviction(victim.line)

    def remove(self, line: int) -> Optional[DirectoryEntry]:
        return self.directory.remove(line)

    def occupancy(self) -> int:
        return self.directory.occupancy()


class L3Cache(SharedCache):
    """48MB store-in cache shared by the cores of one CP chip."""

    def __init__(self, geometry: CacheGeometry, chip: int) -> None:
        super().__init__(geometry, "L3", chip)
        self.chip = chip


class L4Cache(SharedCache):
    """384MB cache shared by the chips of one MCM."""

    def __init__(self, geometry: CacheGeometry, mcm: int) -> None:
        super().__init__(geometry, "L4", mcm)
        self.mcm = mcm
