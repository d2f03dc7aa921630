"""Backing main memory.

A sparse, byte-addressable store holding the *architected* (committed)
memory image. Pending transactional (and gathered non-transactional) stores
live in the per-CPU store queue and gathering store cache until they drain
here — see :mod:`repro.mem.storequeue` and :mod:`repro.mem.storecache`.

The image is stored as paged ``bytearray`` chunks in a sparse page dict,
so multi-byte accesses and the store-cache drain path run as C-level slice
operations instead of a Python loop per byte. A page is one 256-byte cache
line rather than 64 KiB: a sparse pool, such as Figure 5's variables at a
256-byte stride, then pays host memory only for the lines it touches. The
engine's accesses still fall in one page (aligned loads and stores of up
to 8 bytes, and store-cache runs within one 128-byte block); an access
that crosses a line takes the multi-page path. Typed accessors read and
write big-endian two's-complement integers of 1..16 bytes, matching
z/Architecture's big-endian layout; unwritten bytes read as zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..errors import ConfigurationError

#: log2 of the backing-page size: one 256-byte cache line, so resident
#: bytes track the lines a run touches rather than the span it strides.
PAGE_SHIFT = 8
PAGE_BYTES = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_BYTES - 1


class MainMemory:
    """Sparse paged byte-addressable memory. Unwritten bytes read as zero."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        #: page index (``addr >> PAGE_SHIFT``) -> ``PAGE_BYTES`` bytearray.
        self._pages: Dict[int, bytearray] = {}

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_BYTES)
            self._pages[index] = page
        return page

    def read_byte(self, addr: int) -> int:
        page = self._pages.get(addr >> PAGE_SHIFT)
        return page[addr & PAGE_MASK] if page is not None else 0

    def write_byte(self, addr: int, value: int) -> None:
        self._page(addr >> PAGE_SHIFT)[addr & PAGE_MASK] = value & 0xFF

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` raw bytes starting at ``addr``."""
        if length < 0:
            raise ConfigurationError("length must be non-negative")
        offset = addr & PAGE_MASK
        if offset + length <= PAGE_BYTES:
            # Single-page access — the overwhelmingly common case.
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return bytes(length)
            return bytes(page[offset : offset + length])
        parts = []
        index = addr >> PAGE_SHIFT
        remaining = length
        pages = self._pages
        while remaining > 0:
            take = min(PAGE_BYTES - offset, remaining)
            page = pages.get(index)
            parts.append(
                bytes(take) if page is None
                else bytes(page[offset : offset + take])
            )
            remaining -= take
            offset = 0
            index += 1
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        """Write raw bytes starting at ``addr``."""
        length = len(data)
        if length == 0:
            return
        offset = addr & PAGE_MASK
        if offset + length <= PAGE_BYTES:
            self._page(addr >> PAGE_SHIFT)[offset : offset + length] = data
            return
        view = memoryview(data)
        index = addr >> PAGE_SHIFT
        pos = 0
        while pos < length:
            take = min(PAGE_BYTES - offset, length - pos)
            self._page(index)[offset : offset + take] = view[pos : pos + take]
            pos += take
            offset = 0
            index += 1

    def read_int(self, addr: int, length: int, signed: bool = False) -> int:
        """Read a big-endian integer of ``length`` bytes."""
        offset = addr & PAGE_MASK
        if offset + length <= PAGE_BYTES:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            return int.from_bytes(
                page[offset : offset + length], "big", signed=signed
            )
        return int.from_bytes(self.read(addr, length), "big", signed=signed)

    def write_int(self, addr: int, value: int, length: int) -> None:
        """Write a big-endian integer of ``length`` bytes (two's complement)."""
        mask = (1 << (8 * length)) - 1
        self.write(addr, (value & mask).to_bytes(length, "big"))

    def apply_runs(self, runs: Iterable[Tuple[int, bytes]]) -> None:
        """Apply ``(address, data)`` runs (the store-cache drain path).

        Each run is a contiguous byte string; runs are applied in order,
        so later runs overwrite earlier ones where they overlap.
        """
        for addr, data in runs:
            self.write(addr, data)

    def footprint(self) -> int:
        """Number of bytes currently holding a non-zero value.

        Under the paged representation a byte that was only ever written
        with zero is indistinguishable from an unwritten byte (both read
        as zero), so the old "distinct bytes ever written" definition is
        unimplementable without shadow bookkeeping on the hot path. The
        footprint is therefore defined as the count of bytes whose current
        value differs from the unwritten default — i.e. the bytes that are
        observably written (tests/diagnostics only; O(resident pages)).
        """
        return sum(
            PAGE_BYTES - page.count(0) for page in self._pages.values()
        )
