"""Unit tests for the gathering store cache (paper section III.D)."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from conftest import EngineHarness, small_params

from repro.core.abort import AbortCode
from repro.core.engine import FetchRetry
from repro.errors import ConfigurationError
from repro.mem.storecache import (
    BLOCK_SIZE,
    GatheringStoreCache,
    StoreCacheOverflow,
    block_address,
)


def drained_bytes(cache):
    """Flatten the drained (address, data) runs into {byte_addr: value}."""
    out = {}
    for addr, data in cache.take_drained():
        for i, value in enumerate(data):
            out[addr + i] = value
    return out


def test_block_address():
    assert block_address(0) == 0
    assert block_address(127) == 0
    assert block_address(128) == 128
    assert block_address(300) == 256


def test_gathering_into_existing_entry():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01" * 8, tx=False)
    cache.store(8, b"\x02" * 8, tx=False)
    assert len(cache) == 1
    assert cache.stats_gathered == 1
    assert cache.forward_byte(0) == 1
    assert cache.forward_byte(8) == 2


def test_store_spanning_blocks_allocates_two_entries():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(120, b"\xaa" * 16, tx=False)
    assert len(cache) == 2
    assert cache.forward_byte(120) == 0xAA
    assert cache.forward_byte(135) == 0xAA


def test_tbegin_closes_entries_and_drains_nontx():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    drained = cache.begin_transaction()
    assert drained == 1
    assert len(cache) == 0
    assert drained_bytes(cache) == {0: 1}


def test_tx_store_does_not_gather_into_nontx_entry():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(8, b"\x02", tx=True)
    # Two entries for the same block: gathering across the tx boundary is
    # forbidden (closed entries cannot gather).
    assert len(cache) == 2


def test_forwarding_youngest_entry_wins():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(0, b"\x02", tx=True)
    assert cache.forward_byte(0) == 2


def test_commit_reopens_entries_for_gathering():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.end_transaction()
    assert cache.tx_entry_count() == 0
    # Post-transaction stores may allocate again and drain normally.
    cache.drain_all()
    assert drained_bytes(cache).get(0) == 1


def test_abort_invalidates_tx_entries():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.store(256, b"\x02", tx=True)
    dropped = cache.abort_transaction()
    assert dropped == {0, 256}
    assert len(cache) == 0
    assert cache.forward_byte(0) is None


def test_abort_preserves_ntstg_doublewords():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    cache.store(0, b"\x11" * 8, tx=True, ntstg=True)   # NTSTG doubleword
    cache.store(8, b"\x22" * 8, tx=True)               # normal tx store
    cache.abort_transaction()
    assert cache.forward_byte(0) == 0x11   # survived
    assert cache.forward_byte(8) is None   # dropped
    cache.drain_all()
    assert drained_bytes(cache).get(0) == 0x11


def test_overflow_aborts_when_full_of_tx_entries():
    cache = GatheringStoreCache(entries=2, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.store(BLOCK_SIZE, b"\x02", tx=True)
    with pytest.raises(StoreCacheOverflow):
        cache.store(2 * BLOCK_SIZE, b"\x03", tx=True)


def test_nontx_store_drains_oldest_when_full():
    cache = GatheringStoreCache(entries=2, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(BLOCK_SIZE, b"\x02", tx=False)
    cache.store(2 * BLOCK_SIZE, b"\x03", tx=False)
    assert len(cache) == 2
    assert drained_bytes(cache).get(0) == 1


def test_xi_compare_classification():
    cache = GatheringStoreCache(entries=4, drain_threshold=0)
    assert cache.xi_compare(0) == "clear"
    cache.store(0, b"\x01", tx=False)
    assert cache.xi_compare(0) == "drain"
    cache.store(8, b"\x02", tx=True)
    assert cache.xi_compare(0) == "reject"
    # A different line is unaffected.
    assert cache.xi_compare(512) == "clear"


def test_drain_line_flushes_only_nontx_entries_for_line():
    cache = GatheringStoreCache(entries=8, drain_threshold=0)
    cache.store(0, b"\x01", tx=False)
    cache.store(128, b"\x02", tx=False)   # same 256B line, second block
    cache.store(256, b"\x03", tx=False)   # different line
    drained = cache.drain_line(0)
    assert drained == 2
    assert len(cache) == 1
    writes = drained_bytes(cache)
    assert writes[0] == 1 and writes[128] == 2


def test_tx_lines_is_precise_write_set():
    cache = GatheringStoreCache(entries=8, drain_threshold=0)
    cache.store(0, b"\x01", tx=True)
    cache.store(130, b"\x02", tx=True)   # same line, different block
    cache.store(512, b"\x03", tx=False)
    assert cache.tx_lines() == {0}
    assert cache.active_lines() == {0, 512}


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=1023),
              st.integers(min_value=1, max_value=8),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=60))
def test_forwarding_matches_reference_model(stores):
    """Property: byte forwarding equals a simple last-write-wins model."""
    cache = GatheringStoreCache(entries=64)
    reference = {}
    for addr, length, value in stores:
        data = bytes([value]) * length
        cache.store(addr, data, tx=False)
        for i in range(length):
            reference[addr + i] = value
    # The address range spans at most 9 blocks, far below the drain
    # threshold, so every byte is still resident.
    assert cache.take_drained() == []
    for byte_addr, expected in reference.items():
        assert cache.forward_byte(byte_addr) == expected


@given(st.lists(st.integers(min_value=0, max_value=2047), min_size=1,
                max_size=100))
def test_drain_everything_reaches_memory_once(addresses):
    """Property: drain_all emits every resident byte exactly once."""
    cache = GatheringStoreCache(entries=64)
    expected = {}
    for i, addr in enumerate(addresses):
        cache.store(addr, bytes([i & 0xFF]), tx=False)
        expected[addr] = i & 0xFF
    cache.drain_all()
    final = drained_bytes(cache)
    for addr, value in expected.items():
        assert final.get(addr) == value


# ----------------------------------------------------------------------
# line size: the XI compare works on the hierarchy's line, whatever its
# size, and answers from the block index exactly as a queue scan would
# ----------------------------------------------------------------------

LINE_SIZES = (128, 256)


def _line_params(line_size, n_cpus=2):
    """Unit-test machine whose L1 through L4 all use ``line_size``."""
    base = small_params(n_cpus)
    return dataclasses.replace(base, **{
        level: dataclasses.replace(getattr(base, level), line_size=line_size)
        for level in ("l1", "l2", "l3", "l4")
    })


@pytest.mark.parametrize("line_size", LINE_SIZES)
def test_xi_compare_uses_the_configured_line_size(line_size):
    cache = GatheringStoreCache(entries=4, drain_threshold=0,
                                line_size=line_size)
    cache.store(0x10080, b"\x01", tx=True)
    line = 0x10080 & ~(line_size - 1)
    assert cache.xi_compare(line) == "reject"
    assert cache.tx_lines() == {line}
    assert cache.active_lines() == {line}
    assert cache.abort_transaction() == {line}


@pytest.mark.parametrize("line_size", LINE_SIZES)
def test_conflicting_store_is_stiff_armed_then_aborts_owner(line_size):
    """A foreign store to a transactionally written address is rejected
    until the hang-avoidance threshold, which aborts the owner — at every
    line size, not only the 256-byte default."""
    harness = EngineHarness(params=_line_params(line_size), n_cpus=2)
    owner, requester = harness.engine(0), harness.engine(1)
    addr = 0x10080
    harness.tbegin(0)
    harness.store(0, addr, 1)
    assert owner.store_cache.xi_compare(addr & ~(line_size - 1)) == "reject"
    threshold = harness.params.tx.xi_reject_threshold
    attempts = 0
    while True:
        attempts += 1
        try:
            harness.clock[0] += requester.store(addr, 2)
            break
        except FetchRetry as retry:
            harness.clock[0] += retry.delay
        assert attempts < 100
    assert owner.stats_xi_rejected == threshold - 1
    assert owner.pending_abort is not None
    assert owner.pending_abort.code == AbortCode.STORE_CONFLICT


def test_line_smaller_than_gathering_block_is_rejected():
    with pytest.raises(ConfigurationError):
        EngineHarness(params=_line_params(64), n_cpus=1)


def _ref_line(entry, line_size):
    return entry.block & ~(line_size - 1)


def _ref_xi_compare(cache, line):
    hits = [e for e in cache._queue if _ref_line(e, cache.line_size) == line]
    if not hits:
        return "clear"
    return "reject" if any(e.tx for e in hits) else "drain"


def _check_index(cache):
    rebuilt = {}
    for entry in cache._queue:
        rebuilt.setdefault(entry.block, []).append(entry)
    assert cache._by_block == rebuilt


@pytest.mark.parametrize("line_size", LINE_SIZES)
@pytest.mark.parametrize("seed", range(6))
def test_indexed_xi_compare_matches_queue_scan(line_size, seed):
    """Differential: random store/gather/begin/end/abort/drain sequences;
    after each step the indexed XI compare, line drain and write set
    agree with a reference scan over the queue."""
    rng = random.Random(seed)
    cache = GatheringStoreCache(entries=8, drain_threshold=2,
                                line_size=line_size)
    span = 4 * line_size
    lines = range(0, span, line_size)
    in_tx = False
    for _ in range(400):
        op = rng.choice(("store", "store", "gather", "begin", "end",
                         "abort", "drain"))
        if op in ("store", "gather"):
            if op == "gather" and cache._queue:
                block = rng.choice(cache._queue).block
                addr = block + rng.randrange(0, BLOCK_SIZE - 8)
            else:
                addr = rng.randrange(0, span - 16)
            data = bytes([rng.randrange(256)]) * rng.choice((1, 2, 4, 8, 16))
            try:
                cache.store(addr, data, tx=in_tx,
                            ntstg=in_tx and rng.random() < 0.2)
            except StoreCacheOverflow:
                cache.abort_transaction()
                in_tx = False
        elif op == "begin" and not in_tx:
            cache.begin_transaction()
            in_tx = True
        elif op == "end" and in_tx:
            cache.end_transaction()
            in_tx = False
        elif op == "abort" and in_tx:
            expected = {_ref_line(e, line_size) for e in cache._queue if e.tx}
            assert cache.abort_transaction() == expected
            in_tx = False
        elif op == "drain":
            line = rng.choice(lines)
            cache.take_drained()
            doomed = [e for e in cache._queue
                      if _ref_line(e, line_size) == line and not e.tx]
            runs = [run for e in doomed for run in e.runs()]
            kept = [e for e in cache._queue if e not in doomed]
            assert cache.drain_line(line) == len(doomed)
            assert cache.take_drained() == runs
            assert cache._queue == kept
        _check_index(cache)
        for line in lines:
            assert cache.xi_compare(line) == _ref_xi_compare(cache, line)
        assert cache.tx_lines() == {
            _ref_line(e, line_size) for e in cache._queue if e.tx
        }
