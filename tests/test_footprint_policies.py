"""Pluggable footprint policies: spec parsing, per-policy capacity
semantics, nesting/aliasing edge cases, and the fabric drain-wake guard.

Policy-sensitive harnesses pin ``footprint_policy`` in their params, the
only place a machine's policy comes from.
"""

import dataclasses

import pytest

from conftest import EngineHarness, small_params

from repro.core.abort import AbortCode
from repro.core.footprint import (
    BoundedSetPolicy,
    NoLruExtensionPolicy,
    Zec12Policy,
    make_policy,
    resolve_policy_spec,
)
from repro.errors import ConfigurationError, TransactionAbortSignal
from repro.mem.fabric import CoherenceFabric
from repro.mem.xi import WATCH_BLOCK_MASK, Xi, XiResponse, XiType
from repro.params import CacheGeometry, ZEC12
from repro.sim.machine import Machine


def _tiny_l1_harness(footprint_policy: str,
                     lru_extension: bool = True) -> EngineHarness:
    """2x2 L1 (4 lines) over a 4x4 L2 (16 lines), policy pinned."""
    params = dataclasses.replace(
        small_params(n_cpus=1, lru_extension=lru_extension,
                     footprint_policy=footprint_policy),
        l1=CacheGeometry(ways=2, rows=2),
        l2=CacheGeometry(ways=4, rows=4),
    )
    return EngineHarness(params=params, n_cpus=1)


class TestSpecResolution:
    def test_default_is_zec12(self):
        assert resolve_policy_spec(ZEC12) == "zec12"
        policy = make_policy(ZEC12)
        assert isinstance(policy, Zec12Policy)
        assert policy.lru_extension is True

    def test_zec12_honours_lru_extension_param(self):
        policy = make_policy(small_params(lru_extension=False))
        assert isinstance(policy, Zec12Policy)
        assert policy.lru_extension is False

    def test_explicit_params_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FOOTPRINT_POLICY", "bounded")
        params = small_params(footprint_policy="zec12")
        assert isinstance(make_policy(params), Zec12Policy)

    def test_machine_reports_resolved_policy(self):
        assert Machine(small_params()).footprint_policy == "zec12"
        machine = Machine(small_params(footprint_policy="bounded:32,8"))
        assert machine.footprint_policy == "bounded:32,8"

    def test_spec_arguments(self):
        spill = make_policy(small_params(footprint_policy="power-spill:128"))
        assert spill.capacity == 128
        bounded = make_policy(small_params(footprint_policy="bounded:32,8"))
        assert bounded.max_read_lines == 32
        assert bounded.max_write_lines == 8
        assert isinstance(
            make_policy(small_params(footprint_policy="no-lru-extension")),
            NoLruExtensionPolicy,
        )

    @pytest.mark.parametrize("spec", [
        "nonsense",
        "zec12:5",
        "no-lru-extension:1",
        "power-spill:many",
        "power-spill:0",
        "bounded:1,2,3",
        "bounded:0",
        "bounded:8,0",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            make_policy(small_params(footprint_policy=spec))


class TestRowAliasing:
    """An XI to a *different* line aliasing a tracked L1 row: false
    positive under the imprecise zec12 extension, clean under the
    precise power-spill buffer."""

    def _evict_into_tracking(self, harness):
        harness.tbegin()
        # Lines 0, 2, 4 all map to row 0 of the 2-row L1: the third
        # load evicts one into the policy's overflow structure.
        for i in (0, 2, 4):
            harness.load(0, 0x100000 + i * 256)

    def test_zec12_aliased_row_false_positive(self):
        harness = _tiny_l1_harness("zec12")
        engine = harness.engine()
        self._evict_into_tracking(harness)
        assert engine.footprint.tracking_rows() >= 1
        foreign = 0x500000  # even line index -> row 0, never accessed
        response, _ = engine.receive_xi(Xi(XiType.READ_ONLY, foreign, 1, 0))
        assert response is XiResponse.ACCEPT
        assert engine.pending_abort is not None
        assert engine.pending_abort.code == AbortCode.FETCH_CONFLICT

    def test_power_spill_aliased_row_no_false_positive(self):
        harness = _tiny_l1_harness("power-spill")
        engine = harness.engine()
        self._evict_into_tracking(harness)
        assert engine.footprint.tracking_rows() >= 1  # precise spills
        foreign = 0x500000
        response, _ = engine.receive_xi(Xi(XiType.READ_ONLY, foreign, 1, 0))
        assert response is XiResponse.ACCEPT
        assert engine.pending_abort is None  # line-exact check missed
        harness.tend()
        assert engine.stats_tx_committed == 1

    def test_power_spill_true_conflict_still_aborts(self):
        """The spilled line itself stays conflict-checked (precise
        tracking must not *lose* the line, only sharpen the check)."""
        harness = _tiny_l1_harness("power-spill")
        engine = harness.engine()
        self._evict_into_tracking(harness)
        spilled = next(iter(engine.footprint._spill))
        response, _ = engine.receive_xi(Xi(XiType.READ_ONLY, spilled, 1, 0))
        assert response is XiResponse.ACCEPT
        assert engine.pending_abort is not None
        assert engine.pending_abort.code == AbortCode.FETCH_CONFLICT


class TestNestedTransactions:
    @pytest.mark.parametrize("policy", ["zec12", "power-spill"])
    def test_tracking_survives_nested_tbegin_tend(self, policy):
        """Flattened nesting: an inner TBEGIN/TEND pair must not reset
        the overflow tracking accumulated by the outer transaction."""
        harness = _tiny_l1_harness(policy)
        engine = harness.engine()
        harness.tbegin()
        for i in (0, 2, 4):  # force an L1 eviction into the tracker
            harness.load(0, 0x100000 + i * 256)
        rows_before = engine.footprint.tracking_rows()
        assert rows_before >= 1
        harness.tbegin()  # nested: depth 2, no state reset
        harness.load(0, 0x100000 + 6 * 256)
        assert harness.tend() == 1  # back to depth 1, still in tx
        assert engine.footprint.tracking_rows() >= rows_before
        harness.tend()
        assert engine.stats_tx_committed == 1

    def test_tracking_cleared_between_transactions(self):
        harness = _tiny_l1_harness("zec12")
        engine = harness.engine()
        harness.tbegin()
        for i in (0, 2, 4):
            harness.load(0, 0x100000 + i * 256)
        assert engine.footprint.tracking_rows() >= 1
        harness.tend()
        harness.tbegin()
        assert engine.footprint.tracking_rows() == 0
        harness.tend()


class TestStoreCacheExhaustion:
    """The 64-entry gathering store cache at its exact boundary."""

    @pytest.mark.parametrize("policy", ["zec12", "power-spill",
                                        "bounded:64,64"])
    def test_64_blocks_fit_65th_aborts(self, policy):
        harness = EngineHarness(
            params=small_params(footprint_policy=policy), n_cpus=1
        )
        harness.tbegin()
        base = 0x100000
        for i in range(64):  # 64 distinct 128-byte gathering blocks
            harness.store(0, base + i * 128, i + 1)
        assert harness.engine().pending_abort is None
        with pytest.raises(TransactionAbortSignal):
            harness.store(0, base + 64 * 128, 99)
        abort = harness.process_abort()
        assert abort.code == AbortCode.STORE_OVERFLOW

    def test_bounded_write_limit_beats_store_cache(self):
        """bounded:64,4 aborts at the 5th distinct *line* (cardinality),
        long before the 64-block store cache fills."""
        harness = EngineHarness(
            params=small_params(footprint_policy="bounded:64,4"), n_cpus=1
        )
        harness.tbegin()
        base = 0x100000
        for i in range(4):  # 4 distinct 256-byte lines
            harness.store(0, base + i * 256, i + 1)
        assert harness.engine().pending_abort is None
        with pytest.raises(TransactionAbortSignal):
            harness.store(0, base + 4 * 256, 99)
        abort = harness.process_abort()
        assert abort.code == AbortCode.STORE_OVERFLOW


class TestBoundedPolicy:
    def test_read_limit_exact_boundary(self):
        harness = EngineHarness(
            params=small_params(footprint_policy="bounded:8"), n_cpus=1
        )
        harness.tbegin()
        for i in range(8):
            harness.load(0, 0x100000 + i * 256)
        assert harness.engine().pending_abort is None
        with pytest.raises(TransactionAbortSignal):
            harness.load(0, 0x100000 + 8 * 256)
        abort = harness.process_abort()
        assert abort.code == AbortCode.FETCH_OVERFLOW
        assert abort.condition_code == 3

    def test_rereading_lines_is_free(self):
        harness = EngineHarness(
            params=small_params(footprint_policy="bounded:4"), n_cpus=1
        )
        harness.tbegin()
        for _ in range(5):  # 20 loads, 4 distinct lines
            for i in range(4):
                harness.load(0, 0x100000 + i * 256)
        harness.tend()
        assert harness.engine().stats_tx_committed == 1

    def test_l1_evictions_tolerated(self):
        """Cardinality tracking is cache-independent: 8 lines through a
        4-line L1 evict freely and still commit (they fit the L2)."""
        harness = _tiny_l1_harness("bounded:64,16")
        harness.tbegin()
        for i in range(8):
            harness.load(0, 0x100000 + i * 256)
        harness.tend()
        assert harness.engine().stats_tx_committed == 1


class TestPowerSpillPolicy:
    def test_spill_capacity_abort(self):
        harness = _tiny_l1_harness("power-spill:2")
        harness.tbegin()
        with pytest.raises(TransactionAbortSignal):
            for i in range(8):  # 4 evictions from the 4-line L1
                harness.load(0, 0x100000 + i * 256)
        abort = harness.process_abort()
        assert abort.code == AbortCode.FETCH_OVERFLOW

    def test_within_capacity_commits(self):
        harness = _tiny_l1_harness("power-spill:2")
        harness.tbegin()
        for i in range(5):  # 1 eviction <= capacity 2
            harness.load(0, 0x100000 + i * 256)
        harness.tend()
        assert harness.engine().stats_tx_committed == 1

    def test_l2_eviction_still_aborts(self):
        """Soundness floor: a line leaving the private L2 leaves the XI
        delivery scope, so even a roomy spill buffer must abort."""
        harness = _tiny_l1_harness("power-spill")  # capacity 256
        harness.tbegin()
        with pytest.raises(TransactionAbortSignal):
            for i in range(20):  # exceeds the 16-line L2
                harness.load(0, 0x100000 + i * 256)
        abort = harness.process_abort()
        assert abort.code == AbortCode.FETCH_OVERFLOW


class TestCapacityBench:
    def test_zec12_matches_fig5f_machinery(self):
        """The generic capacity runner reproduces the Figure 5(f)
        numbers exactly for the two historical configurations."""
        from repro.bench.capacity import capacity_point
        from repro.bench.lru import footprint_abort_rate

        point = capacity_point("zec12", 300, trials=10)
        assert point.abort_rate == footprint_abort_rate(
            300, lru_extension=True, trials=10
        )
        ablation = capacity_point("no-lru-extension", 300, trials=10)
        assert ablation.abort_rate == footprint_abort_rate(
            300, lru_extension=False, trials=10
        )
        assert ablation.abort_rate > point.abort_rate

    def test_abort_causes_reconcile(self):
        from repro.bench.capacity import capacity_point

        trials = 10
        point = capacity_point("bounded:16", 32, trials=trials)
        assert point.abort_rate == 1.0
        assert sum(point.abort_causes.values()) == trials
        assert point.abort_causes == {"FETCH_OVERFLOW": trials}


class TestFuzzPerPolicy:
    @pytest.mark.parametrize("policy", ["zec12", "no-lru-extension",
                                        "power-spill", "bounded"])
    def test_oracles_hold_under_policy(self, policy):
        from repro.verify.fuzzer import fuzz

        report = fuzz(seed=0, n_cases=4, shrink=False,
                      footprint_policy=policy)
        assert report.ok, [f.violations for f in report.failures]


class TestWakeDrainedGuard:
    def _fabric_with_watch(self, block: int):
        fabric = CoherenceFabric(small_params(n_cpus=2))
        woken = []
        fabric.wake_sink = woken.append
        fabric.watches.add(1, line=block & ~0xFF, block=block)
        return fabric, woken

    def test_zero_length_run_wakes_nobody(self):
        # Unaligned address: without the guard the last-block underflow
        # lands back in addr's own block and spuriously wakes CPU 1.
        addr = 130
        fabric, woken = self._fabric_with_watch(addr & WATCH_BLOCK_MASK)
        fabric.wake_drained([(addr, b"")])
        assert woken == []
        # Address 0: the underflow would go negative outright.
        fabric.wake_drained([(0, b"")])
        assert woken == []

    def test_non_empty_run_still_wakes(self):
        addr = 130
        fabric, woken = self._fabric_with_watch(addr & WATCH_BLOCK_MASK)
        fabric.wake_drained([(addr, b"\x01")])
        assert woken == [1]
