"""Shared L3/L4 cache tests: inclusivity and LRU-XI cascades."""

import dataclasses

import pytest

from conftest import EngineHarness, small_params

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.core.abort import AbortCode
from repro.errors import TransactionAbortSignal
from repro.mem.fabric import CoherenceFabric
from repro.mem.shared import L3Cache, L4Cache
from repro.params import ZEC12, CacheGeometry


class TestSharedCacheUnit:
    def test_install_and_touch(self):
        l3 = L3Cache(CacheGeometry(ways=2, rows=2), chip=0)
        l3.install(0x100, on_lru_eviction=lambda line: None)
        assert l3.contains(0x100)
        assert l3.touch(0x100)
        assert not l3.touch(0x999)

    def test_eviction_callback_fires(self):
        l3 = L3Cache(CacheGeometry(ways=1, rows=1), chip=0)
        victims = []
        l3.install(0x000, on_lru_eviction=victims.append)
        l3.install(0x100, on_lru_eviction=victims.append)
        assert victims == [0x000]
        assert l3.contains(0x100)
        assert not l3.contains(0x000)

    def test_remove(self):
        l4 = L4Cache(CacheGeometry(ways=2, rows=2), mcm=0)
        l4.install(0x100, on_lru_eviction=lambda line: None)
        assert l4.remove(0x100) is not None
        assert l4.occupancy() == 0


def tiny_l3_harness() -> EngineHarness:
    """A machine whose chip L3 holds only 4 lines, so L3 LRU evictions
    (and their LRU XIs) are easy to provoke."""
    base = small_params(n_cpus=2)
    params = dataclasses.replace(
        base,
        l3=CacheGeometry(ways=2, rows=2),
        l4=CacheGeometry(ways=8, rows=8),
    )
    return EngineHarness(params=params, n_cpus=2)


class TestLruXiCascade:
    def test_l3_eviction_invalidates_private_copies(self):
        harness = tiny_l3_harness()
        lines = [0x100000 + i * 256 for i in range(8)]
        for line in lines:
            harness.load(0, line)
        # Early lines were LRU'ed out of the L3 and, by inclusivity, out
        # of the CPU's L1/L2 too.
        l1 = harness.engine(0).l1
        l2 = harness.engine(0).l2
        assert not l2.contains(lines[0])
        assert l1.lookup(lines[0]) is None
        info = harness.fabric.line_info(lines[0])
        assert 0 not in info.owners()

    def test_l3_eviction_aborts_transaction_reading_victim(self):
        harness = tiny_l3_harness()
        target = 0x100000
        harness.tbegin(0)
        harness.load(0, target)
        # Thrash the L3 with other lines (same CPU, non-overlapping rows
        # is impossible in a 2x2 L3, so the tx line eventually falls out).
        with pytest.raises(TransactionAbortSignal):
            for i in range(1, 12):
                harness.load(0, 0x400000 + i * 256)
                harness.engine(0).raise_if_pending()
        abort = harness.process_abort(0)
        assert abort.code in (
            AbortCode.CACHE_FETCH_RELATED,   # LRU XI hit the read set
            AbortCode.FETCH_OVERFLOW,        # (or the private L2 overflowed)
        )

    def test_l4_eviction_cascades_through_l3(self):
        base = small_params(n_cpus=2)
        params = dataclasses.replace(
            base,
            l3=CacheGeometry(ways=8, rows=8),
            l4=CacheGeometry(ways=2, rows=2),
        )
        harness = EngineHarness(params=params, n_cpus=2)
        lines = [0x100000 + i * 256 for i in range(8)]
        for line in lines:
            harness.load(0, line)
        # The L4 can hold only 4 lines: the first ones are gone everywhere.
        assert not harness.fabric.l4s[0].contains(lines[0])
        assert not harness.fabric.l3s[0].contains(lines[0])
        assert 0 not in harness.fabric.line_info(lines[0]).owners()


# ----------------------------------------------------------------------
# a whole sweep point on a shrunken L3/L4: LRU cascades under contention
# ----------------------------------------------------------------------

#: ((scheme, pool, L3 geometry, L4 geometry),
#:  (cycles, instructions, tx_started, tx_aborted, xi_rejects)) — 12-CPU,
#: 4-variable, 10-iteration update points whose chip L3s and MCM L4 are
#: small enough that installs evict and cascade LRU XIs. The sweep points
#: never evict from an L3 or L4, so these are the pins that catch a
#: shared-cache LRU stamp (source-lookup touch, install refresh) choosing
#: a different victim.
EVICTION_POINTS = [
    (("tbegin", 400, CacheGeometry(ways=4, rows=16),
      CacheGeometry(ways=8, rows=16)),
     (21722, 3194, 152, 32, 57)),
    (("tbeginc", 200, CacheGeometry(ways=4, rows=8),
      CacheGeometry(ways=8, rows=8)),
     (28955, 2332, 160, 40, 176)),
]


@pytest.mark.parametrize("point,pinned", EVICTION_POINTS,
                         ids=[p[0] for p, _ in EVICTION_POINTS])
def test_eviction_point_is_pinned(point, pinned, monkeypatch):
    scheme, pool, l3, l4 = point
    cascades = {"l3": 0, "l4": 0}
    for level in cascades:
        name = f"_lru_cascade_{level}"
        original = getattr(CoherenceFabric, name)

        def counted(self, cpu, victim, _original=original, _level=level):
            cascades[_level] += 1
            return _original(self, cpu, victim)

        monkeypatch.setattr(CoherenceFabric, name, counted)
    params = dataclasses.replace(ZEC12, fallback_mode="lock", l3=l3, l4=l4)
    result = run_update_experiment(
        UpdateExperiment(scheme, 12, pool, 4, iterations=10), params=params
    )
    # The point only guards the eviction paths if they actually run.
    assert cascades["l3"] > 0 and cascades["l4"] > 0
    assert (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_started for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    ) == pinned
