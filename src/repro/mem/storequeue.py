"""Store queue (STQ) model.

In the zEC12, stores execute into the store queue and are written back to
the L1 (and forwarded to the gathering store cache) only after the store
instruction completes, at most one per cycle. During a transaction a
*transaction mark* is placed in the STQ entry; before completion and
writeback, loads access pending data by store-forwarding (section III.C).

In our instruction-atomic simulation a store "completes" at the instruction
boundary, so the queue mainly provides: (i) store-forwarding order
semantics, (ii) the tx marks that are cleared at TEND ("effectively turning
the pending stores into normal stores") or invalidated on abort ("all
pending transactional stores are invalidated from the STQ, even those
already completed"), and (iii) the XI-reject condition for queued stores.

Entries are indexed by 128-byte block (the store-cache gathering granule),
so load forwarding resolves with one dict lookup plus an overlap check per
touched block instead of scanning the queue per byte.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .address import line_address
from .storecache import BLOCK_SIZE, _BLOCK_MASK


class StoreQueueEntry:
    """One pending store: ``length`` bytes of ``data`` at ``addr``."""

    __slots__ = ("addr", "data", "tx", "ntstg")

    def __init__(self, addr: int, data: bytes, tx: bool = False,
                 ntstg: bool = False) -> None:
        self.addr = addr
        self.data = data
        self.tx = tx
        self.ntstg = ntstg

    def __repr__(self) -> str:
        return (
            f"StoreQueueEntry(addr={self.addr:#x}, data={self.data!r}, "
            f"tx={self.tx}, ntstg={self.ntstg})"
        )

    @property
    def length(self) -> int:
        return len(self.data)

    def covers(self, byte_addr: int) -> bool:
        return self.addr <= byte_addr < self.addr + self.length

    def byte_at(self, byte_addr: int) -> int:
        return self.data[byte_addr - self.addr]

    def overlay(self, addr: int, buf: bytearray) -> None:
        """Copy the bytes overlapping ``[addr, addr + len(buf))`` into buf."""
        lo = max(addr, self.addr)
        hi = min(addr + len(buf), self.addr + len(self.data))
        if lo < hi:
            buf[lo - addr : hi - addr] = (
                self.data[lo - self.addr : hi - self.addr]
            )


class StoreQueue:
    """FIFO of pending stores with store-forwarding support."""

    def __init__(self) -> None:
        self._entries: List[StoreQueueEntry] = []
        #: 128-byte block address -> entries touching that block, in
        #: program (age) order. Pure index over ``_entries``.
        self._by_block: Dict[int, List[StoreQueueEntry]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _index(self, entry: StoreQueueEntry) -> None:
        first = entry.addr & _BLOCK_MASK
        last = (entry.addr + len(entry.data) - 1) & _BLOCK_MASK
        by_block = self._by_block
        for block in range(first, last + BLOCK_SIZE, BLOCK_SIZE):
            by_block.setdefault(block, []).append(entry)

    def _reindex(self) -> None:
        self._by_block.clear()
        for entry in self._entries:
            self._index(entry)

    def push(self, addr: int, data: bytes, tx: bool = False, ntstg: bool = False) -> None:
        entry = StoreQueueEntry(addr, bytes(data), tx=tx, ntstg=ntstg)
        self._entries.append(entry)
        self._index(entry)

    def forward_byte(self, byte_addr: int) -> Optional[int]:
        """Youngest pending value for ``byte_addr``, or None."""
        candidates = self._by_block.get(byte_addr & _BLOCK_MASK)
        if candidates:
            for entry in reversed(candidates):
                if entry.addr <= byte_addr < entry.addr + len(entry.data):
                    return entry.data[byte_addr - entry.addr]
        return None

    def overlay_range(self, addr: int, buf: bytearray) -> None:
        """Overlay every pending byte of ``[addr, addr + len(buf))``.

        Entries apply in program order, so the youngest store wins.
        """
        for entry in self._entries:
            entry.overlay(addr, buf)

    def drain(self) -> List[StoreQueueEntry]:
        """Pop every entry in program order (writeback to L1/store cache)."""
        drained = self._entries[:]
        self._entries.clear()
        self._by_block.clear()
        return drained

    def clear_tx_marks(self) -> None:
        """TEND: pending transactional stores become normal stores."""
        for entry in self._entries:
            entry.tx = False

    def invalidate_tx(self) -> List[StoreQueueEntry]:
        """Abort: drop transactional stores; NTSTG entries survive."""
        kept = [e for e in self._entries if not e.tx or e.ntstg]
        dropped = [e for e in self._entries if e.tx and not e.ntstg]
        if dropped:
            self._entries[:] = kept
            self._reindex()
        return dropped

    def lines_pending(self) -> set:
        """Line addresses with queued stores (XI-reject condition)."""
        lines = set()
        for entry in self._entries:
            first = line_address(entry.addr)
            last = line_address(entry.addr + entry.length - 1)
            lines.update(range(first, last + 256, 256))
        return lines

    def __iter__(self) -> Iterator[StoreQueueEntry]:
        return iter(self._entries)
