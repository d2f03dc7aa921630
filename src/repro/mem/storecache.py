"""Gathering store cache — the transactional write buffer (section III.D).

The store cache solves two problems at once: it gathers stores to
neighbouring addresses to relieve L3 store bandwidth, and it buffers
transactional stores until the transaction ends so that neither the L2 nor
the shared L3 ever sees uncommitted data.

Modelled faithfully from the paper:

* a circular queue of **64 entries x 128 bytes** with byte-precise valid
  bits;
* non-transactional stores gather into an existing entry for the same
  128-byte block, or allocate a new entry; when free entries fall below a
  threshold the oldest entries are written back to L2/L3;
* at a new outermost TBEGIN all existing entries are **closed** (no further
  gathering) and their eviction begins; transactional stores allocate new
  entries or gather into existing *transactional* entries, and their
  writeback is blocked until the transaction ends;
* the cache is queried on every exclusive or demote XI and **rejects** the
  XI if it compares to any active entry;
* overflow — a new store that cannot merge while all 64 entries are held by
  the current transaction — aborts the transaction;
* a per-doubleword **NTSTG mark** keeps non-transactional-store data valid
  across transaction aborts.

Entries store their 128 data bytes in a ``bytearray`` with the valid bits
as an integer bitmask, so gathering, load forwarding and draining are
slice/mask operations instead of per-byte dict probes. Drained data is
emitted as contiguous ``(address, bytes)`` runs (see :meth:`take_drained`)
that :meth:`repro.mem.memory.MainMemory.apply_runs` applies with C-level
slice writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError, ProtocolError
from .address import DOUBLEWORD, LINE_SIZE, doubleword_address


BLOCK_SIZE = 128
_BLOCK_MASK = ~(BLOCK_SIZE - 1)
_FULL_DW_MASK = 0xFF  # valid bits of one doubleword


def block_address(addr: int) -> int:
    """Align ``addr`` down to a store-cache block (128 bytes)."""
    return addr & _BLOCK_MASK


class StoreCacheEntry:
    """One 128-byte gathering entry with byte-precise valid bits.

    ``data`` holds the byte values; bit ``i`` of ``valid`` says whether
    ``data[i]`` holds buffered store data (invalid bytes are never read).
    """

    __slots__ = ("block", "data", "valid", "tx", "closed",
                 "ntstg_doublewords")

    def __init__(
        self,
        block: int,
        tx: bool = False,
        closed: bool = False,
        ntstg_doublewords: Set[int] = None,  # block offsets
    ) -> None:
        self.block = block
        self.data = bytearray(BLOCK_SIZE)
        self.valid = 0
        self.tx = tx
        self.closed = closed
        self.ntstg_doublewords = (
            set() if ntstg_doublewords is None else ntstg_doublewords
        )

    def __repr__(self) -> str:
        return (
            f"StoreCacheEntry(block={self.block:#x}, tx={self.tx}, "
            f"closed={self.closed}, valid_bytes={self.valid_count()})"
        )

    def valid_count(self) -> int:
        """Number of valid bytes in the entry."""
        return bin(self.valid).count("1")

    def gather(self, addr: int, data: bytes, ntstg: bool = False) -> None:
        offset = addr - self.block
        length = len(data)
        if offset < 0 or offset + length > BLOCK_SIZE:
            raise ProtocolError("store does not fit the store-cache block")
        self.data[offset : offset + length] = data
        self.valid |= ((1 << length) - 1) << offset
        if ntstg:
            first = doubleword_address(addr) - self.block
            last = doubleword_address(addr + length - 1) - self.block
            for dw in range(first, last + DOUBLEWORD, DOUBLEWORD):
                self.ntstg_doublewords.add(dw)

    def byte_at(self, byte_addr: int) -> Optional[int]:
        offset = byte_addr - self.block
        if (self.valid >> offset) & 1:
            return self.data[offset]
        return None

    def runs(self) -> List[Tuple[int, bytes]]:
        """Contiguous ``(address, data)`` runs of the valid bytes."""
        result: List[Tuple[int, bytes]] = []
        valid = self.valid
        data = self.data
        base = self.block
        offset = 0
        while valid:
            skip = (valid & -valid).bit_length() - 1
            valid >>= skip
            offset += skip
            # Length of the run of trailing one-bits.
            run = ((valid + 1) & ~valid).bit_length() - 1
            result.append((base + offset, bytes(data[offset : offset + run])))
            valid >>= run
            offset += run
        return result

    def overlay(self, addr: int, buf: bytearray) -> None:
        """Copy the entry's valid bytes overlapping ``buf`` into it.

        ``buf`` covers the byte addresses ``[addr, addr + len(buf))``.
        Fully-valid overlaps (the common case) are one slice copy.
        """
        block = self.block
        lo = addr if addr > block else block
        end = addr + len(buf)
        block_end = block + BLOCK_SIZE
        hi = end if end < block_end else block_end
        if lo >= hi:
            return
        offset = lo - block
        length = hi - lo
        segment = ((1 << length) - 1) << offset
        valid = self.valid & segment
        if valid == segment:
            buf[lo - addr : hi - addr] = self.data[offset : offset + length]
        elif valid:
            data = self.data
            shift = block - addr
            while valid:
                bit = valid & -valid
                i = bit.bit_length() - 1
                buf[shift + i] = data[i]
                valid ^= bit

    def strip_to_ntstg(self) -> bool:
        """On abort, keep only NTSTG-marked doublewords.

        Returns True if any bytes survive.
        """
        mask = 0
        for dw in self.ntstg_doublewords:
            mask |= _FULL_DW_MASK << dw
        self.valid &= mask
        self.tx = False
        self.closed = True
        return bool(self.valid)


class StoreCacheOverflow(Exception):
    """Internal signal: a transactional store could not be buffered."""


class GatheringStoreCache:
    """The 64-entry gathering store cache of one CPU.

    ``entries`` is the store-side footprint bound. The engine sizes it
    through its :class:`~repro.core.footprint.FootprintPolicy`
    (``store_cache_entries``), which defaults to the architected
    ``TxLimits.store_cache_entries`` = 64; the overflow raised by
    :meth:`_make_room` is likewise mapped to an abort code by the policy
    (``on_store_overflow``).
    """

    __slots__ = ("capacity", "drain_threshold", "line_size", "_line_mask",
                 "_line_blocks", "_queue", "_by_block", "_drained",
                 "stats_gathered", "stats_allocated",
                 "stats_drained_entries", "stats_occupancy_hwm")

    def __init__(
        self,
        entries: int = 64,
        drain_threshold: int = 8,
        line_size: int = LINE_SIZE,
    ) -> None:
        if entries < 1:
            raise ProtocolError("store cache needs at least one entry")
        if line_size < BLOCK_SIZE:
            raise ConfigurationError(
                f"cache line size {line_size} is smaller than the "
                f"{BLOCK_SIZE}-byte store-cache gathering block"
            )
        self.capacity = entries
        self.drain_threshold = drain_threshold
        #: Cache line size of the hierarchy the XIs arrive from; a line
        #: covers ``line_size // BLOCK_SIZE`` gathering blocks.
        self.line_size = line_size
        self._line_mask = ~(line_size - 1)
        #: Block offsets within a line, so the XI compare probes the
        #: block index instead of scanning the queue.
        self._line_blocks = tuple(range(0, line_size, BLOCK_SIZE))
        self._queue: List[StoreCacheEntry] = []  # oldest first
        #: Block address -> entries for that block, in queue (age) order.
        #: Pure index over ``_queue``: load forwarding and the XI compare
        #: do one dict lookup per touched 128-byte block instead of
        #: scanning entries.
        self._by_block: Dict[int, List[StoreCacheEntry]] = {}
        #: Contiguous (address, bytes) runs drained since the last
        #: ``take_drained`` call, in drain order.
        self._drained: List[Tuple[int, bytes]] = []
        #: Statistics.
        self.stats_gathered = 0
        self.stats_allocated = 0
        self.stats_drained_entries = 0
        #: Most entries ever simultaneously valid (occupancy high-water
        #: mark over the whole run — the section III.D capacity figure).
        self.stats_occupancy_hwm = 0

    # -- basic state --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self._queue)

    def tx_entry_count(self) -> int:
        return sum(1 for e in self._queue if e.tx)

    def tx_lines(self) -> Set[int]:
        """Line addresses held transactionally (the precise write set)."""
        mask = self._line_mask
        return {e.block & mask for e in self._queue if e.tx}

    def active_lines(self) -> Set[int]:
        """Line addresses of all active entries (XI-compare set)."""
        mask = self._line_mask
        return {e.block & mask for e in self._queue}

    # -- store path ----------------------------------------------------------

    def store(self, addr: int, data: bytes, tx: bool, ntstg: bool = False) -> int:
        """Buffer a (possibly multi-block) store; returns entries drained.

        Raises :class:`StoreCacheOverflow` when a transactional store finds
        the cache full of current-transaction entries ("the LSU requests a
        transaction abort when the store cache overflows").
        """
        length = len(data)
        if length and (addr + length - 1) & _BLOCK_MASK == addr & _BLOCK_MASK:
            # Single-block store — every store up to a doubleword that
            # does not straddle a 128-byte boundary.
            return self._store_block(addr, data, tx, ntstg)
        drained = 0
        pos = 0
        while pos < length:
            block = (addr + pos) & _BLOCK_MASK
            take = min(length - pos, block + BLOCK_SIZE - (addr + pos))
            drained += self._store_block(addr + pos, data[pos : pos + take], tx, ntstg)
            pos += take
        return drained

    def _store_block(self, addr: int, data: bytes, tx: bool, ntstg: bool) -> int:
        block = addr & _BLOCK_MASK
        # Gather into the youngest open entry of the same kind: tx stores
        # only into open tx entries, non-tx stores only into open non-tx
        # ones.
        entry = None
        candidates = self._by_block.get(block)
        if candidates:
            for candidate in reversed(candidates):
                if not candidate.closed and candidate.tx == tx:
                    entry = candidate
                    break
        drained = 0
        queue = self._queue
        if entry is None:
            if len(queue) >= self.capacity:
                drained += self._make_room(tx)
            entry = StoreCacheEntry(block=block, tx=tx)
            queue.append(entry)
            # Looked up again: making room may have drained this block's
            # last entry and dropped its list.
            self._by_block.setdefault(block, []).append(entry)
            self.stats_allocated += 1
            if len(queue) > self.stats_occupancy_hwm:
                self.stats_occupancy_hwm = len(queue)
        else:
            self.stats_gathered += 1
        entry.gather(addr, data, ntstg=ntstg)
        if not tx and self.capacity - len(queue) < self.drain_threshold:
            drained += self._drain_oldest_nontx()
        return drained

    def _unindex(self, entry: StoreCacheEntry) -> None:
        """Drop ``entry`` from the block index (it left the queue)."""
        candidates = self._by_block.get(entry.block)
        if candidates is not None:
            candidates.remove(entry)
            if not candidates:
                del self._by_block[entry.block]

    def _make_room(self, tx: bool) -> int:
        """Free one entry for a new allocation."""
        drained = self._drain_oldest_nontx()
        if drained:
            return drained
        if tx:
            # Entire cache filled with stores from the current transaction.
            raise StoreCacheOverflow()
        raise ProtocolError("store cache full of tx entries on non-tx store")

    def _drain_oldest_nontx(self) -> int:
        """Write back the oldest non-transactional entry, if one exists."""
        for i, entry in enumerate(self._queue):
            if not entry.tx:
                self._drained.extend(entry.runs())
                del self._queue[i]
                self._unindex(entry)
                self.stats_drained_entries += 1
                return 1
        return 0

    # -- load path -------------------------------------------------------------

    def forward_byte(self, byte_addr: int) -> Optional[int]:
        """Youngest buffered value for ``byte_addr``, or None."""
        candidates = self._by_block.get(byte_addr & _BLOCK_MASK)
        if candidates:
            offset = byte_addr - candidates[0].block
            for entry in reversed(candidates):
                if (entry.valid >> offset) & 1:
                    return entry.data[offset]
        return None

    def overlaps_range(self, addr: int, end: int) -> bool:
        """True if any buffered entry could hold a byte of [addr, end)."""
        by_block = self._by_block
        block = addr & _BLOCK_MASK
        while block < end:
            if block in by_block:
                return True
            block += BLOCK_SIZE
        return False

    def overlay_range(self, addr: int, buf: bytearray) -> None:
        """Overlay every buffered byte of ``[addr, addr + len(buf))``.

        Entries are applied oldest-first per block, so the youngest
        buffered value wins — the store-forwarding order.
        """
        by_block = self._by_block
        end = addr + len(buf)
        block = addr & _BLOCK_MASK
        while block < end:
            candidates = by_block.get(block)
            if candidates:
                for entry in candidates:
                    entry.overlay(addr, buf)
            block += BLOCK_SIZE

    # -- transactional lifecycle --------------------------------------------

    def begin_transaction(self) -> int:
        """Outermost TBEGIN: close all entries and start their eviction.

        We drain the closed non-transactional entries immediately (the
        hardware overlaps this with execution; the caller charges the drain
        latency). Returns the number of entries drained.
        """
        drained = 0
        for entry in self._queue:
            entry.closed = True
        while any(not e.tx for e in self._queue):
            drained += self._drain_oldest_nontx()
        return drained

    def end_transaction(self) -> None:
        """TEND: transactional entries become normal, drainable entries."""
        for entry in self._queue:
            if entry.tx:
                entry.tx = False
                entry.closed = True

    def abort_transaction(self) -> Set[int]:
        """Abort: invalidate transactional entries (NTSTG bytes survive).

        Returns the set of line addresses whose buffered data was dropped.
        """
        mask = self._line_mask
        dropped_lines: Set[int] = set()
        kept: List[StoreCacheEntry] = []
        for entry in self._queue:
            if entry.tx:
                dropped_lines.add(entry.block & mask)
                if entry.strip_to_ntstg():
                    kept.append(entry)
                else:
                    self._unindex(entry)
            else:
                kept.append(entry)
        self._queue = kept
        return dropped_lines

    # -- XI interface ------------------------------------------------------------

    def xi_compare(self, line: int) -> str:
        """Classify an exclusive/demote XI for line address ``line``.

        Returns ``"clear"`` (no overlap), ``"reject"`` (overlaps a
        transactional entry — stiff-arm), or ``"drain"`` (overlaps only
        non-transactional entries, which must be written back before the XI
        can be accepted). Answered from the block index: one dict probe
        per gathering block of the line.
        """
        by_block = self._by_block
        if not by_block:
            return "clear"
        verdict = "clear"
        for offset in self._line_blocks:
            candidates = by_block.get(line + offset)
            if candidates:
                for entry in candidates:
                    if entry.tx:
                        return "reject"
                verdict = "drain"
        return verdict

    def drain_line(self, line: int) -> int:
        """Write back all non-tx entries for ``line``; returns count drained."""
        by_block = self._by_block
        doomed: List[StoreCacheEntry] = []
        blocks = 0
        for offset in self._line_blocks:
            candidates = by_block.get(line + offset)
            if candidates:
                picked = [e for e in candidates if not e.tx]
                if picked:
                    doomed += picked
                    blocks += 1
        if not doomed:
            return 0
        queue = self._queue
        if blocks > 1:
            # Each block's list is already in age order; entries of
            # different blocks drain in queue order, as a scan would.
            doomed.sort(key=queue.index)
        for entry in doomed:
            self._drained.extend(entry.runs())
            queue.remove(entry)
            self._unindex(entry)
        self.stats_drained_entries += len(doomed)
        return len(doomed)

    def drain_all(self) -> int:
        """Write back everything non-transactional (quiesce/commit path)."""
        drained = 0
        while self._drain_oldest_nontx():
            drained += 1
        return drained

    def take_drained(self) -> List[Tuple[int, bytes]]:
        """Collect the ``(address, data)`` runs drained since the last call."""
        runs, self._drained = self._drained, []
        return runs
