"""Ownership-record software transactional memory over the shared pool.

This is the *software half* of the hybrid-TM fallback (`ISSUE 9`): when a
``transaction_with_fallback`` harness exhausts its TBEGIN retries and
``fallback_mode`` is ``"stm"``, the fallback body runs under a TL2-style
orec STM instead of serialising behind the global lock — and hardware
transactions keep running *concurrently*.

Design (following TL2 / NOrec-era hybrid designs, and the cost framing of
arXiv 1405.5689):

* **Ownership records (orecs)** are ordinary 8-byte words in simulated
  main memory, in a dedicated table at :data:`ORECS_BASE` well above the
  workload pool. One orec covers a 128-byte grain
  (:data:`OREC_GRAIN_SHIFT`, the gathering-store-cache block size); the
  grain index hashes into :data:`N_ORECS` slots, so collisions are only
  ever *false* conflicts. An even orec value is a version (a global-clock
  timestamp); an odd value is a lock, ``(owner_cpu << 1) | 1``.
* **Global version clock** at :data:`GCLOCK_ADDR`, stepped by 2 with an
  interlocked compare-and-swap on commit.
* **Reads** go straight to coherent memory, then post-validate the
  covering orec: locked or newer than the transaction's read version
  ``rv`` means abort-and-retry. **Writes** buffer byte-precise in a
  redo log; read-own-writes overlays the log on the memory value.
* **Commit** acquires the write-set orecs in sorted address order with
  CSG, bumps the clock, validates the read-set orecs against ``rv``,
  writes the redo log back through the coherent store path, and releases
  the orecs at the new write version.

Because orecs live in *coherent simulated memory* and every STM access
uses the engine's real fetch path, HW/SW conflict detection composes with
the existing XI machinery for free:

* HW transactions (in stm mode) *subscribe* to the orec lines of every
  line they touch (a read-only fetch that joins a dedicated
  ``tx.orec_set``); an STM writer's lock-acquisition CSG sends an
  exclusive XI that hits the subscription and aborts the HW reader
  through the normal FETCH_CONFLICT path.
* HW commits *publish*: the outermost TEND bumps the orecs of all
  transactionally written grains to a fresh clock version (aborting
  itself if it finds a grain locked by a software transaction), so STM
  commit-time validation detects hardware stores.

Every operation here is safe to re-execute after a
:class:`~repro.core.engine.FetchRetry` — the commit sequence is an
explicit resumable state machine, and all other mutations are idempotent
or happen after an operation's last fetch.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set

from ..errors import ConfigurationError

__all__ = [
    "FALLBACK_MODES",
    "ENV_VAR",
    "GCLOCK_ADDR",
    "ORECS_BASE",
    "N_ORECS",
    "OREC_GRAIN",
    "OREC_GRAIN_SHIFT",
    "StmAbort",
    "StmRuntime",
    "orec_address",
    "resolve_fallback_mode",
]

#: Environment override for :func:`resolve_fallback_mode`.
ENV_VAR = "REPRO_FALLBACK_MODE"

#: Recognised fallback modes for retry-exhausted TBEGIN harnesses.
FALLBACK_MODES = ("lock", "stm")

#: The global version clock: one 8-byte word on its own 256-byte line,
#: just below the orec table (clear of the pool at 0x0100_0000+, the
#: verify regions around 0x10_0000-0x30_0000 and the benchmark locks).
GCLOCK_ADDR = 0x07FF_FF00

#: Base of the orec table.
ORECS_BASE = 0x0800_0000

#: Orec granularity: one orec covers a 128-byte grain (the store-cache
#: block size the paper's gathering store cache tracks).
OREC_GRAIN_SHIFT = 7
OREC_GRAIN = 1 << OREC_GRAIN_SHIFT

#: Orec table size (power of two). 16384 slots x 8 bytes = 128 KB; grain
#: indexes wrap into the table, so a larger pool only adds false
#: conflicts, never misses one.
N_ORECS = 1 << 14
_ORECS_MASK = N_ORECS - 1


def orec_address(addr: int) -> int:
    """Address of the orec word covering byte address ``addr``."""
    return ORECS_BASE + ((addr >> OREC_GRAIN_SHIFT) & _ORECS_MASK) * 8


def resolve_fallback_mode(params) -> str:
    """The fallback mode an engine built with ``params`` uses.

    Resolution order mirrors :func:`repro.core.footprint.resolve_policy_spec`:
    an explicit non-empty ``params.fallback_mode`` wins, else
    ``$REPRO_FALLBACK_MODE``, else ``"lock"`` (the bit-identical default).
    Resolved at engine construction time so the shared ``ZEC12`` params
    singleton never freezes the environment.
    """
    spec = getattr(params, "fallback_mode", "") or os.environ.get(ENV_VAR, "")
    mode = spec or "lock"
    if mode not in FALLBACK_MODES:
        raise ConfigurationError(
            f"unknown fallback mode {mode!r}; expected one of {FALLBACK_MODES}"
        )
    return mode


class StmAbort(Exception):
    """A software transaction must abort and be retried from SBEGIN.

    ``code`` follows the TABORT convention (even = transient); the
    interpreter's handler restores the SBEGIN-time register snapshot,
    sets CC 2 and resumes after the SBEGIN, where the harness's JNZ
    loops back into a fresh attempt.
    """

    def __init__(self, code: int = 0) -> None:
        # No super().__init__ — raised on every STM conflict.
        self.code = code


#: Abort codes carried by :class:`StmAbort` (all even / transient).
STM_READ_CONFLICT = 2
STM_LOCK_BUSY = 4
STM_VALIDATION_FAILED = 6


class StmRuntime:
    """Per-CPU TL2-style orec STM state machine.

    Owned by a :class:`~repro.core.engine.TxEngine` built with
    ``fallback_mode="stm"``; the engine routes ``load``/``store``/
    ``add_to_storage``/``compare_and_swap``/``ntstg`` through the
    ``tx_*`` methods here while a software transaction is active. All
    raw memory traffic goes through the engine's *original* class
    methods (captured below), so STM accesses pay real fetch latencies
    and participate in coherence without re-entering the routing.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        cls = type(engine)
        self._raw_load = cls.load.__get__(engine)
        self._raw_store = cls.store.__get__(engine)
        self._raw_cas = cls.compare_and_swap.__get__(engine)
        self._raw_ntstg = cls.ntstg.__get__(engine)
        self._line_mask = engine._line_mask
        self._l1_hit = engine._lat.l1_hit

        #: True while a software transaction is running on this CPU.
        self.active = False
        #: Address of the active SBEGIN and the resume point after it.
        self.sbegin_ia = 0
        self.resume_ia = 0
        #: GR snapshot taken at SBEGIN (restored on abort).
        self.gr_snapshot: Optional[List[int]] = None
        #: Read version: global-clock value sampled at SBEGIN.
        self.rv = 0
        #: Redo log, byte-precise: address -> byte value.
        self._wset: Dict[int, int] = {}
        #: Orecs covering reads (validated at commit) and the data lines
        #: read/written (256-byte, for the sw_commit/sw_abort log).
        self._rorecs: Set[int] = set()
        self.rlines: Set[int] = set()
        self.wlines: Set[int] = set()
        #: 128-byte grains written (each maps to one orec to lock).
        self._wgrains: Set[int] = set()
        #: Test-only fault injection: skip commit-time read validation
        #: (used by the oracle mutation tests to prove the mixed-history
        #: fuzzer catches a broken STM).
        self.test_skip_validation = (
            os.environ.get("REPRO_STM_TEST_BUG") == "1"
        )

        # Resumable commit state (see :meth:`commit`). ``_c_orecs`` is
        # None outside a commit attempt.
        self._c_orecs: Optional[List[int]] = None
        self._c_old: Dict[int, int] = {}
        self._c_acq = 0
        self._c_wv = 0
        self._c_val: List[int] = []
        self._c_val_idx = 0
        self._c_runs: List = []
        self._c_wb_idx = 0
        self._c_rel_idx = 0
        self._c_failed = False
        self._c_logged = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop the references back to the engine (it is closing)."""
        self.engine = None
        self._raw_load = None
        self._raw_store = None
        self._raw_cas = None
        self._raw_ntstg = None

    def begin(self, ia: int, resume_ia: int, gr_snapshot: List[int]) -> int:
        """SBEGIN: sample the clock and open a software transaction."""
        value, latency = self._raw_load(GCLOCK_ADDR, 8)
        # Mutations strictly after the (retryable) clock fetch.
        self.active = True
        self.sbegin_ia = ia
        self.resume_ia = resume_ia
        self.gr_snapshot = list(gr_snapshot)
        self.rv = value
        self._wset.clear()
        self._rorecs.clear()
        self.rlines.clear()
        self.wlines.clear()
        self._wgrains.clear()
        self._reset_commit_state()
        return latency + self.engine.params.costs.tbegin_base

    def finish_abort(self, ia: int, code: int) -> int:
        """Architected abort processing: log, tear down, return resume IA."""
        engine = self.engine
        m = engine.metrics
        if m is not None:
            m.note_sw_abort_sets(ia, self.sbegin_ia, code,
                                 self.rlines, self.wlines)
        engine.stats_sw_aborted += 1
        resume = self.resume_ia
        self.active = False
        self.gr_snapshot = None
        self._wset.clear()
        self._rorecs.clear()
        self.rlines.clear()
        self.wlines.clear()
        self._wgrains.clear()
        self._reset_commit_state()
        self.resume_ia = resume
        return resume

    def _reset_commit_state(self) -> None:
        self._c_orecs = None
        self._c_old = {}
        self._c_acq = 0
        self._c_wv = 0
        self._c_val = []
        self._c_val_idx = 0
        self._c_runs = []
        self._c_wb_idx = 0
        self._c_rel_idx = 0
        self._c_failed = False
        self._c_logged = False

    @property
    def commit_holds_locks(self) -> bool:
        """True while a SEND commit holds acquired write orecs (phases
        B-E, and the release tail of a failed phase A/C). The scheduler
        exempts such a CPU from broadcast-stops: a stopped CPU cannot
        release storage locks, and a solo constrained transaction
        reading a locked grain would otherwise retry forever."""
        return self._c_acq > 0

    # ------------------------------------------------------------------
    # instrumented data path
    # ------------------------------------------------------------------

    def tx_load(self, addr: int, length: int = 8,
                exclusive: bool = False):
        """Instrumented load: coherent read + orec post-validation."""
        value, latency = self._raw_load(addr, length, exclusive)
        rv = self.rv
        rorecs = self._rorecs
        first_grain = addr >> OREC_GRAIN_SHIFT
        last_grain = (addr + length - 1) >> OREC_GRAIN_SHIFT
        for grain in range(first_grain, last_grain + 1):
            oa = ORECS_BASE + (grain & _ORECS_MASK) * 8
            oversion, olat = self._raw_load(oa, 8)
            latency += olat
            if (oversion & 1 or oversion > rv) and \
                    not self.test_skip_validation:
                # Locked by a committing writer, or written since we
                # sampled the clock: this snapshot is not rv-consistent.
                raise StmAbort(STM_READ_CONFLICT)
            rorecs.add(oa)
        # Read-own-writes: overlay the redo log (byte-precise).
        wset = self._wset
        if wset:
            buf = None
            for i in range(length):
                byte = wset.get(addr + i)
                if byte is not None:
                    if buf is None:
                        buf = bytearray(
                            value.to_bytes(length, "big")
                        )
                    buf[i] = byte
            if buf is not None:
                value = int.from_bytes(buf, "big")
        line_mask = self._line_mask
        self.rlines.add(addr & line_mask)
        end_line = (addr + length - 1) & line_mask
        if end_line != addr & line_mask:
            self.rlines.add(end_line)
        return (value, latency)

    def tx_store(self, addr: int, value: int, length: int = 8) -> int:
        """Instrumented store: buffer in the redo log (no fetch)."""
        mask = (1 << (8 * length)) - 1
        data = (value & mask).to_bytes(length, "big")
        wset = self._wset
        for i, byte in enumerate(data):
            wset[addr + i] = byte
        grains = self._wgrains
        grains.add(addr >> OREC_GRAIN_SHIFT)
        grains.add((addr + length - 1) >> OREC_GRAIN_SHIFT)
        line_mask = self._line_mask
        self.wlines.add(addr & line_mask)
        self.wlines.add((addr + length - 1) & line_mask)
        return self._l1_hit

    def tx_add(self, addr: int, increment: int, length: int = 8):
        """Instrumented interlocked add (AGSI through the redo log)."""
        current, latency = self.tx_load(addr, length)
        signed = (
            current - (1 << (8 * length))
            if current >> (8 * length - 1) else current
        )
        mask = (1 << (8 * length)) - 1
        new_value = (signed + increment) & mask
        latency += self.tx_store(addr, new_value, length)
        return (new_value, latency)

    def tx_cas(self, addr: int, expected: int, new: int, length: int = 8):
        """Instrumented compare-and-swap through the redo log."""
        current, latency = self.tx_load(addr, length)
        latency += self.engine.params.costs.cas_extra
        if current == expected:
            latency += self.tx_store(addr, new, length)
            return (True, current, latency)
        return (False, current, latency)

    def tx_ntstg(self, addr: int, value: int) -> int:
        """NTSTG inside a software transaction: a real non-transactional
        store — immediately coherent, survives the STM abort, and joins
        neither the redo log nor the logged write set (mirroring the HW
        path, where NTSTG bypasses the transactional write set)."""
        return self._raw_ntstg(addr, value)

    # ------------------------------------------------------------------
    # commit (SEND) — resumable across FetchRetry re-executions
    # ------------------------------------------------------------------

    def commit(self, ia: int) -> int:
        """Commit the software transaction; raises :class:`StmAbort`
        (after releasing any acquired orecs) on validation failure.

        Structured as a state machine over instance fields so that a
        :class:`~repro.core.engine.FetchRetry` raised by any interior
        fetch resumes exactly where it left off on re-execution: every
        index/flag mutation happens after the fetches of its step.
        """
        latency = self.engine.params.costs.tend
        if self._c_orecs is None:
            if not self._wgrains:
                # Read-only transaction: every read post-validated
                # against rv, so the snapshot is already serializable
                # at the rv point. Nothing to lock or write back.
                return latency + self._finish_commit(ia)
            self._c_orecs = sorted(
                {orec_address(g << OREC_GRAIN_SHIFT) for g in self._wgrains}
            )
            self._c_val = sorted(self._rorecs)
            self._c_runs = self._redo_runs()
        orecs = self._c_orecs
        cpu_lock = (self.engine.cpu_id << 1) | 1

        # Phase A: acquire write orecs in sorted order. The version read
        # fetches with *store intent* (exclusive) — a shared L1 hit here
        # would clear the fetch-wait slot the following CSG's exclusive
        # upgrade keeps re-arming, re-probing forever.
        while not self._c_failed and self._c_acq < len(orecs):
            oa = orecs[self._c_acq]
            version, lat = self._raw_load(oa, 8, True)
            latency += lat
            if version & 1:
                self._c_failed = True
                break
            swapped, _, lat = self._raw_cas(oa, version, cpu_lock, 8)
            latency += lat
            if not swapped:
                self._c_failed = True
                break
            self._c_old[oa] = version
            self._c_acq += 1

        # Phase B: advance the global clock (interlocked; store-intent
        # read for the same reason as phase A).
        while not self._c_failed and self._c_wv == 0:
            current, lat = self._raw_load(GCLOCK_ADDR, 8, True)
            latency += lat
            swapped, _, lat = self._raw_cas(
                GCLOCK_ADDR, current, current + 2, 8
            )
            latency += lat
            if swapped:
                self._c_wv = current + 2

        # Phase C: validate the read set against rv.
        if not self.test_skip_validation:
            val = self._c_val
            while not self._c_failed and self._c_val_idx < len(val):
                oa = val[self._c_val_idx]
                owned = self._c_old.get(oa)
                if owned is not None:
                    # We hold this orec's lock; validate the version it
                    # had before we acquired it.
                    if owned > self.rv:
                        self._c_failed = True
                        break
                    self._c_val_idx += 1
                    continue
                version, lat = self._raw_load(oa, 8)
                latency += lat
                if version & 1 or version > self.rv:
                    self._c_failed = True
                    break
                self._c_val_idx += 1

        # Validation done: the commit is now inevitable (write-back and
        # release cannot fail). Log it *here*, before any written-back
        # value can be observed by another CPU — a hardware transaction
        # that reads our write-back serializes after us and must also
        # log after us, so the tx-log order stays a valid serialization
        # order for the verify oracle's replay. (``_c_logged`` guards
        # the FetchRetry re-executions of the phases below.)
        if not self._c_failed and not self._c_logged:
            engine = self.engine
            m = engine.metrics
            if m is not None:
                m.note_sw_commit_sets(ia, self.sbegin_ia,
                                      self.rlines, self.wlines)
            engine.stats_sw_committed += 1
            self._c_logged = True

        # Phase D: write back the redo log through the coherent path.
        if not self._c_failed:
            runs = self._c_runs
            while self._c_wb_idx < len(runs):
                addr, length, value = runs[self._c_wb_idx]
                latency += self._raw_store(addr, value, length)
                self._c_wb_idx += 1

        # Phase E: release — new version on success, old on failure.
        while self._c_rel_idx < len(orecs):
            oa = orecs[self._c_rel_idx]
            old = self._c_old.get(oa)
            if old is None:
                # Never acquired (we failed earlier in phase A).
                self._c_rel_idx += 1
                continue
            release = old if self._c_failed else self._c_wv
            latency += self._raw_store(oa, release, 8)
            self._c_rel_idx += 1

        if self._c_failed:
            self._reset_commit_state()
            raise StmAbort(STM_VALIDATION_FAILED)
        return latency + self._finish_commit(ia)

    # ------------------------------------------------------------------
    # hardware-transaction publication (called from TxEngine.tx_end)
    # ------------------------------------------------------------------

    def hw_publish(self, tx, tx_lines) -> tuple:
        """Outermost-TEND publication for hardware transactions.

        Bumps the orec of every transactionally written 128-byte grain
        (conservatively: every grain of every tx-written line) to a fresh
        global-clock version, so concurrent STM commit-time validation
        detects the hardware stores. Returns ``(conflict_line, latency)``
        — ``conflict_line`` is the data line whose grain was found locked
        by a committing software transaction (the HW transaction must
        abort; write-write conflict), else None.

        Resumable across FetchRetry via ``tx.stm_wv`` / ``tx.stm_pub_idx``
        (the clock advances exactly once and each orec is visited once;
        both reset by ``TransactionState.reset``). Orec updates are
        ordinary *non-transactional* buffered stores issued while the
        orec line is held exclusive: the exclusive fetch XIs — and
        thereby aborts — other subscribed hardware readers, forces any
        buffered software release-store to drain first, and the
        store-cache ordering keeps same-CPU orec writes in program
        order. The stores carry ``tx=False`` so they join neither the
        transaction's write set nor its logged footprint.
        """
        engine = self.engine
        line_mask = self._line_mask
        line_size = engine.params.line_size
        orecs = sorted({
            orec_address(line + off)
            for line in tx_lines
            for off in range(0, line_size, OREC_GRAIN)
        })
        latency = 0
        fetch = engine._fetch
        if tx.stm_wv == 0:
            # Advance the clock once. The engine operation is atomic
            # between FetchRetry boundaries and the line is held
            # exclusive, so read-increment-store is interlocked.
            latency += fetch(GCLOCK_ADDR & line_mask, True)[0]
            current = engine._read_value(GCLOCK_ADDR, 8)
            self._publish_store(GCLOCK_ADDR, current + 2)
            tx.stm_wv = current + 2
        wv = tx.stm_wv
        while tx.stm_pub_idx < len(orecs):
            oa = orecs[tx.stm_pub_idx]
            latency += fetch(oa & line_mask, True)[0]
            version = engine._read_value(oa, 8)
            if version & 1:
                tx.stm_wv = 0
                tx.stm_pub_idx = 0
                return (oa, latency)
            if version < wv:
                # A version >= wv means another commit already published
                # past our timestamp; any STM reader that could have
                # missed our store fails validation on that newer
                # version anyway, so the orec is left alone.
                self._publish_store(oa, wv)
            tx.stm_pub_idx += 1
        tx.stm_wv = 0
        tx.stm_pub_idx = 0
        return (None, latency)

    def _publish_store(self, addr: int, value: int) -> None:
        """A non-transactional buffered doubleword store (publication
        path): gathers in the store cache like any committed store, so
        it stays ordered after earlier buffered stores to the same block
        and becomes visible through the usual XI-drain mechanism."""
        engine = self.engine
        engine.store_cache.store(addr, value.to_bytes(8, "big"), tx=False)
        drained = engine.store_cache.take_drained()
        if drained:
            engine.memory.apply_runs(drained)
            fabric = engine.fabric
            if fabric.watches.by_block:
                fabric.wake_drained(drained)

    def _redo_runs(self) -> List:
        """Deterministic (addr, length, value) runs from the redo log."""
        runs: List = []
        addrs = sorted(self._wset)
        i = 0
        n = len(addrs)
        while i < n:
            start = addrs[i]
            j = i + 1
            # Merge adjacent bytes, capped at 8 so every write-back run
            # is one ordinary doubleword-or-smaller store.
            while j < n and addrs[j] == addrs[j - 1] + 1 and j - i < 8:
                j += 1
            data = bytes(self._wset[a] for a in addrs[i:j])
            runs.append((start, j - i, int.from_bytes(data, "big")))
            i = j
        return runs

    def _finish_commit(self, ia: int) -> int:
        engine = self.engine
        if not self._c_logged:
            # Read-only commit: nothing observable was published, so the
            # rv point itself is the serialization point and logging at
            # SEND completion is sound. (Writers logged at the end of
            # validation — see :meth:`commit`.)
            m = engine.metrics
            if m is not None:
                m.note_sw_commit_sets(ia, self.sbegin_ia,
                                      self.rlines, self.wlines)
            engine.stats_sw_committed += 1
        self.active = False
        self.gr_snapshot = None
        self._wset.clear()
        self._rorecs.clear()
        self.rlines.clear()
        self.wlines.clear()
        self._wgrains.clear()
        self._reset_commit_state()
        return 0
