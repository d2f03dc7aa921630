"""Conflict detection, stiff-arming, isolation and footprint overflow."""

import dataclasses

import pytest

from conftest import EngineHarness, small_params

from repro.core.abort import AbortCode
from repro.core.engine import FetchRetry
from repro.errors import TransactionAbortSignal
from repro.mem.xi import Xi, XiResponse, XiType
from repro.params import CacheGeometry

A = 0x10000
B = 0x20000


class TestReadSetConflicts:
    def test_remote_store_aborts_reader(self, duo):
        """A read-only XI (writer invalidating readers) hits the read set
        and aborts — not rejectable."""
        duo.tbegin(0)
        duo.load(0, A)
        duo.store(1, A, 9)  # CPU1 takes the line exclusive
        engine0 = duo.engine(0)
        assert engine0.pending_abort is not None
        with pytest.raises(TransactionAbortSignal):
            engine0.raise_if_pending()
        abort = duo.process_abort(0)
        assert abort.code == AbortCode.FETCH_CONFLICT
        assert abort.conflict_token == A
        assert abort.condition_code == 2

    def test_remote_load_does_not_disturb_reader(self, duo):
        """Two transactional readers share the line peacefully."""
        duo.tbegin(0)
        duo.load(0, A)
        duo.tbegin(1)
        duo.load(1, A)
        assert duo.engine(0).pending_abort is None
        assert duo.engine(1).pending_abort is None
        duo.tend(0)
        duo.tend(1)

    def test_opacity_no_partial_state_visible(self, duo):
        """Another CPU can never observe one of two tx stores (isolation
        holds even though the transaction later aborts)."""
        duo.store(0, A, 1)
        duo.store(0, B, 1)
        duo.quiesce()
        duo.tbegin(0)
        duo.store(0, A, 2)
        duo.store(0, B, 2)
        # CPU1 reads both: this conflicts, aborting CPU0 (after the
        # stiff-arm threshold), and must see the *old* values of both.
        assert duo.load(1, A) == 1
        assert duo.load(1, B) == 1


class TestWriteSetStiffArm:
    def test_write_set_xi_rejected_then_threshold_abort(self, duo):
        engine0 = duo.engine(0)
        duo.tbegin(0)
        duo.store(0, A, 7)
        threshold = duo.params.tx.xi_reject_threshold
        # Deliver exclusive XIs directly: the first (threshold-1) are
        # rejected (stiff-arm), then the engine aborts and accepts.
        for i in range(threshold - 1):
            response, _ = engine0.receive_xi(Xi(XiType.EXCLUSIVE, A, 1, 0))
            assert response is XiResponse.REJECT
        response, _ = engine0.receive_xi(Xi(XiType.EXCLUSIVE, A, 1, 0))
        assert response is XiResponse.ACCEPT
        assert engine0.pending_abort.code == AbortCode.STORE_CONFLICT

    def test_completing_instructions_resets_reject_counter(self, duo):
        engine0 = duo.engine(0)
        duo.tbegin(0)
        duo.store(0, A, 7)
        threshold = duo.params.tx.xi_reject_threshold
        for _ in range(3):
            for _ in range(threshold - 1):
                response, _ = engine0.receive_xi(Xi(XiType.EXCLUSIVE, A, 1, 0))
                assert response is XiResponse.REJECT
            engine0.note_instruction()  # completion: counter restarts
        assert engine0.pending_abort is None

    def test_stopped_cpu_does_not_stiff_arm(self, duo):
        engine0 = duo.engine(0)
        duo.tbegin(0)
        duo.store(0, A, 7)
        engine0.stopped_by_broadcast = True
        response, _ = engine0.receive_xi(Xi(XiType.EXCLUSIVE, A, 1, 0))
        assert response is XiResponse.ACCEPT
        assert engine0.pending_abort is not None

    def test_conflicting_writers_serialise_without_abort(self, duo):
        """Two CPUs incrementing the same variable with short txs: the
        stiff-arm lets each holder finish; nobody needs to abort."""
        for i in range(10):
            cpu = i % 2
            duo.tbegin(cpu)
            duo.add(cpu, A, 1)
            duo.tend(cpu)
        duo.quiesce()
        assert duo.memory.read_int(A, 8) == 10
        assert duo.engine(0).stats_tx_aborted == 0
        assert duo.engine(1).stats_tx_aborted == 0


class TestDemoteXi:
    def test_demote_conflicts_with_write_set_only(self, duo):
        engine0 = duo.engine(0)
        duo.tbegin(0)
        duo.load(0, A)  # read set only
        response, _ = engine0.receive_xi(Xi(XiType.DEMOTE, A, 1, 0))
        assert response is XiResponse.ACCEPT  # reading is still fine
        assert engine0.pending_abort is None

    def test_demote_on_write_set_rejected(self, duo):
        engine0 = duo.engine(0)
        duo.tbegin(0)
        duo.store(0, A, 1)
        response, _ = engine0.receive_xi(Xi(XiType.DEMOTE, A, 1, 0))
        assert response is XiResponse.REJECT


class TestFootprintOverflow:
    def _tiny_l1_harness(self, lru_extension: bool) -> EngineHarness:
        params = dataclasses.replace(
            small_params(
                n_cpus=1,
                lru_extension=lru_extension,
                footprint_policy="zec12" if lru_extension
                else "no-lru-extension",
            ),
            l1=CacheGeometry(ways=2, rows=2),
            l2=CacheGeometry(ways=4, rows=4),
        )
        return EngineHarness(params=params, n_cpus=1)

    def test_l1_overflow_without_extension_aborts(self):
        harness = self._tiny_l1_harness(lru_extension=False)
        harness.tbegin()
        with pytest.raises(TransactionAbortSignal):
            for i in range(5):  # 5 lines into a 4-line L1
                harness.load(0, 0x100000 + i * 256)
        abort = harness.process_abort()
        assert abort.code == AbortCode.FETCH_OVERFLOW
        assert abort.condition_code == 3

    def test_l1_overflow_with_extension_tolerated(self):
        harness = self._tiny_l1_harness(lru_extension=True)
        harness.tbegin()
        for i in range(8):  # fits the 16-line L2
            harness.load(0, 0x100000 + i * 256)
        harness.tend()
        assert harness.engine().stats_tx_committed == 1

    def test_l2_overflow_aborts_even_with_extension(self):
        harness = self._tiny_l1_harness(lru_extension=True)
        harness.tbegin()
        with pytest.raises(TransactionAbortSignal):
            for i in range(20):  # exceeds the 16-line L2
                harness.load(0, 0x100000 + i * 256)
        abort = harness.process_abort()
        assert abort.code == AbortCode.FETCH_OVERFLOW

    def test_extension_false_positive_aborts(self):
        """An XI to a *different* line in a marked extension row aborts
        (no precise address tracking exists for the extension)."""
        harness = self._tiny_l1_harness(lru_extension=True)
        engine = harness.engine()
        harness.tbegin()
        # Fill row 0 beyond L1 associativity: lines 0, 2, 4 map to row 0
        # of the 2-row L1 (line index mod 2 == 0).
        for i in (0, 2, 4):
            harness.load(0, 0x100000 + i * 256)
        assert engine.l1.extension_rows() >= 1
        # An unrelated line mapping to the same row:
        foreign = 0x500000  # line index even -> row 0
        response, _ = engine.receive_xi(Xi(XiType.READ_ONLY, foreign, 1, 0))
        assert response is XiResponse.ACCEPT
        assert engine.pending_abort is not None
        assert engine.pending_abort.code == AbortCode.FETCH_CONFLICT

    def test_store_cache_overflow_aborts(self):
        params = dataclasses.replace(small_params(n_cpus=1))
        params = dataclasses.replace(
            params, tx=dataclasses.replace(params.tx, store_cache_entries=2)
        )
        harness = EngineHarness(params=params, n_cpus=1)
        harness.tbegin()
        harness.store(0, 0x100000, 1)
        harness.store(0, 0x100000 + 128, 2)
        with pytest.raises(TransactionAbortSignal):
            harness.store(0, 0x100000 + 512, 3)
        abort = harness.process_abort()
        assert abort.code == AbortCode.STORE_OVERFLOW


class TestLruXi:
    def test_lru_xi_on_read_set_aborts(self, harness):
        engine = harness.engine()
        harness.tbegin()
        harness.load(0, A)
        response, _ = engine.receive_xi(Xi(XiType.LRU, A, -1, 0))
        assert response is XiResponse.ACCEPT
        assert engine.pending_abort.code == AbortCode.CACHE_FETCH_RELATED

    def test_lru_xi_on_clean_line_harmless(self, harness):
        engine = harness.engine()
        harness.load(0, A)
        harness.tbegin()
        response, _ = engine.receive_xi(Xi(XiType.LRU, A, -1, 0))
        assert response is XiResponse.ACCEPT
        assert engine.pending_abort is None
