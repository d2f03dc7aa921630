"""Integration and plumbing tests for the hybrid-TM fallback modes.

The tentpole invariants, end to end on the real benchmark harness:

* under ``fallback_mode="stm"`` retry-exhausted update transactions
  commit through the software path *concurrently* with hardware
  commits, and every increment still lands (atomicity across the two
  commit protocols);
* ``fallback_mode="lock"`` — explicitly or by default — is
  bit-identical to the pre-hybrid engine (the stm machinery must cost
  nothing when off);
* the plumbing holds: bench cache keys separate the modes, and software
  commit counts surface through ``CpuResult`` and the worker-pool
  payload round-trip.
"""

from __future__ import annotations

import dataclasses

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import (
    DATA_PLANE_VERSION,
    result_from_payload,
    result_to_payload,
    task_key,
)
from repro.params import ZEC12
from repro.sim.results import CpuResult

STM_PARAMS = dataclasses.replace(ZEC12, fallback_mode="stm")
LOCK_PARAMS = dataclasses.replace(ZEC12, fallback_mode="lock")

#: A contended point: 8 CPUs, one hot variable, few retries to spare —
#: hardware attempts exhaust and the fallback path runs for real.
CONTENDED = UpdateExperiment("tbegin", 8, 4, 4, iterations=5)
#: A small point for cheap equality checks.
SMALL = UpdateExperiment("tbegin", 4, 10, 4, iterations=5)


def _summary(result):
    return (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_committed for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    )


class TestHybridExecution:
    def test_stm_fallback_preserves_every_increment(self):
        result = run_update_experiment(CONTENDED, params=STM_PARAMS)
        assert not result.aborted_early
        total = (sum(c.tx_committed for c in result.cpus)
                 + sum(c.sw_committed for c in result.cpus))
        # Every CPU commits each of its iterations exactly once, via
        # one path or the other.
        assert total == CONTENDED.n_cpus * CONTENDED.iterations

    def test_both_commit_paths_run_concurrently(self):
        result = run_update_experiment(CONTENDED, params=STM_PARAMS)
        assert sum(c.tx_committed for c in result.cpus) > 0
        assert sum(c.sw_committed for c in result.cpus) > 0

    def test_lock_mode_never_commits_in_software(self):
        result = run_update_experiment(CONTENDED, params=LOCK_PARAMS)
        assert sum(c.sw_committed for c in result.cpus) == 0
        assert sum(c.sw_aborted for c in result.cpus) == 0

    def test_explicit_lock_equals_default(self):
        default = run_update_experiment(SMALL, params=ZEC12)
        pinned = run_update_experiment(SMALL, params=LOCK_PARAMS)
        assert _summary(default) == _summary(pinned)
        assert default.cpus == pinned.cpus

    def test_stm_mode_is_deterministic(self):
        a = run_update_experiment(CONTENDED, params=STM_PARAMS)
        b = run_update_experiment(CONTENDED, params=STM_PARAMS)
        assert a.cycles == b.cycles
        assert a.cpus == b.cpus


class TestBenchPlumbing:
    def test_cache_keys_separate_fallback_modes(self):
        assert (task_key("update", SMALL, LOCK_PARAMS)
                != task_key("update", SMALL, STM_PARAMS))
        assert (task_key("update", SMALL, ZEC12)
                != task_key("update", SMALL, STM_PARAMS))

    def test_cache_keys_separate_footprint_policies(self):
        bounded = dataclasses.replace(ZEC12, footprint_policy="bounded")
        spill = dataclasses.replace(ZEC12, footprint_policy="power-spill")
        keys = {task_key("update", SMALL, params)
                for params in (ZEC12, bounded, spill)}
        assert len(keys) == 3

    def test_data_plane_version_covers_hybrid_fields(self):
        # CpuResult grew sw_committed/sw_aborted in v6; stale caches
        # from earlier data planes must never be served.
        assert DATA_PLANE_VERSION >= 6

    def test_payload_round_trips_sw_counters(self):
        result = run_update_experiment(CONTENDED, params=STM_PARAMS)
        assert sum(c.sw_committed for c in result.cpus) > 0
        restored = result_from_payload(result_to_payload(result))
        assert restored.cpus == result.cpus

    def test_cpu_result_sw_fields_default_to_zero(self):
        plain = CpuResult(cpu_id=0, instructions=1, tx_started=0,
                          tx_committed=0, tx_aborted=0, xi_rejects=0)
        assert plain.sw_committed == 0 and plain.sw_aborted == 0
        # ... and participate in equality (cache hits must not alias
        # results that differ only in software-commit counts).
        bumped = dataclasses.replace(plain, sw_committed=1)
        assert plain != bumped
