"""Tests for speculative over-marking and its millicode control."""

import dataclasses

import pytest

from conftest import EngineHarness, small_params

from repro.errors import TransactionAbortSignal

DATA = 0x100000


def speculative_harness(**overrides) -> EngineHarness:
    return EngineHarness(
        params=small_params(n_cpus=2, speculation=True, **overrides),
        n_cpus=2,
    )


def test_prefetch_over_marks_read_set_on_miss():
    """With speculation on, a missing transactional load may also pull
    the next sequential line into the read set (over-marking)."""
    # 60 architected lines + prefetches exceed the bounded policy's
    # default read cap — the test measures zec12, so it pins it.
    harness = speculative_harness(footprint_policy="zec12")
    engine = harness.engine(0)
    engine.rng.seed(1)
    harness.tbegin(0)
    architected = set()
    for i in range(0, 120, 2):  # leave gaps so prefetches are visible
        addr = DATA + i * 256
        harness.load(0, addr)
        architected.add(addr)
    assert engine.tx.read_set >= architected
    assert engine.stats_prefetches == len(engine.tx.read_set) - len(architected)
    assert engine.stats_prefetches > 0


def test_no_prefetch_on_l1_hits():
    harness = speculative_harness()
    engine = harness.engine(0)
    harness.load(0, DATA)     # warm the line (non-tx)
    harness.tbegin(0)
    before = engine.stats_prefetches
    harness.load(0, DATA)     # L1 hit: no speculation triggered
    assert engine.stats_prefetches == before


def test_speculation_disabled_flag_respected():
    harness = speculative_harness()
    engine = harness.engine(0)
    engine.speculation_active = False
    harness.tbegin(0)
    for i in range(0, 40, 2):
        harness.load(0, DATA + i * 256)
    assert engine.stats_prefetches == 0
    assert len(engine.tx.read_set) == 20


def test_constrained_millicode_disables_speculation_after_aborts():
    harness = speculative_harness()
    engine = harness.engine(0)
    assert engine.speculation_active
    from repro.core.abort import AbortCode

    for _ in range(3):  # SPECULATION_OFF_THRESHOLD is 2
        harness.tbegin(0, constrained=True)
        engine._abort_now(AbortCode.FETCH_CONFLICT)
        with pytest.raises(TransactionAbortSignal):
            engine.raise_if_pending()
        harness.process_abort(0)
    assert not engine.speculation_active

    # Success restores the machine default.
    harness.tbegin(0, constrained=True)
    harness.tend(0)
    assert engine.speculation_active


def test_prefetched_line_is_a_real_conflict_surface():
    """A line that only entered the read set speculatively still aborts
    the transaction when another CPU writes it — the cost of
    over-marking the paper describes."""
    harness = speculative_harness()
    engine = harness.engine(0)
    # Find a seed/address pair where the prefetch fires.
    harness.tbegin(0)
    target = None
    for i in range(0, 60, 2):
        addr = DATA + i * 256
        harness.load(0, addr)
        neighbour = addr + 256
        if neighbour in engine.tx.read_set:
            target = neighbour
            break
    assert target is not None, "prefetch never fired (seed drift?)"
    # CPU1 writes the speculatively-marked line: CPU0 aborts.
    harness.store(1, target, 1)
    assert engine.pending_abort is not None
