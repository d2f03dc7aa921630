"""Tests for serving sweep points: the in-process executor and its cache.

Figure sweeps run through :func:`repro.bench.parallel.run_tasks` and are
served from the on-disk :class:`~repro.bench.parallel.ResultCache` on
re-runs. The contract under test is the one the whole bench stack rests
on: **serial == parallel == cached, bit-identical payloads**. The
assertions are exact: a ``workers=2`` run equals a serial run, a warm
cache replays every point without computing any, and a torn, corrupt or
racing cache write never poisons a later read.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

import repro.bench.parallel as parallel_module
from repro.bench.figures import UpdateExperiment
from repro.bench.parallel import (
    FootprintTask,
    ResultCache,
    atomic_write_json,
    code_version,
    parallel_sweep,
    result_to_payload,
    run_tasks,
    set_code_version,
    task_key,
)
from repro.params import ZEC12
from repro.sim.metrics import merge_summaries
from repro.workloads.hashtable import HashtableExperiment
from repro.workloads.stamp import VacationExperiment

# A small but heterogeneous sweep: four task kinds, including a
# contended lock point and a scalar footprint point.
SWEEP = [
    ("update", UpdateExperiment("tbegin", 2, 10, 1, iterations=5)),
    ("update", UpdateExperiment("coarse", 3, 10, 4, iterations=4)),
    ("hashtable", HashtableExperiment(2, elide=True, operations=6)),
    ("vacation", VacationExperiment(2, use_tx=True, sessions=3)),
    ("footprint", FootprintTask(120, False, trials=3)),
]


def canonical(tasks, results):
    """Each result's payload as canonical JSON (scalars wrapped)."""
    return [
        json.dumps({"type": "scalar", "value": result}
                   if kind == "footprint" else result_to_payload(result),
                   sort_keys=True)
        for (kind, _experiment), result in zip(tasks, results)
    ]


def serial(tasks, metrics=False):
    return canonical(tasks, run_tasks(tasks, metrics=metrics))


class CountingCache(ResultCache):
    """A :class:`ResultCache` that counts its hits, misses and puts."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.hits = self.misses = self.puts = 0

    def get(self, key):
        payload = super().get(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key, payload):
        self.puts += 1
        super().put(key, payload)


def forbid_compute(monkeypatch):
    """Make any computation fail: a warm cache must serve every point."""

    def refuse(job):
        raise AssertionError(f"computed a {job[0]} point on a warm cache")

    monkeypatch.setattr(parallel_module, "_run_task", refuse)


# ----------------------------------------------------------------------
# the on-disk cache: atomic puts, tolerant reads
# ----------------------------------------------------------------------


class TestResultStore:
    PAYLOAD = {"type": "scalar", "value": 42}

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", self.PAYLOAD)
        (tmp_path / "k.json").write_text("{ torn mid-wri")
        assert cache.get("k") is None

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "k.json").write_text('["not", "a", "payload"]')
        assert cache.get("k") is None

    def test_atomic_write_leaves_no_tmp_droppings(self, tmp_path):
        path = str(tmp_path / "x.json")
        atomic_write_json(path, self.PAYLOAD)
        atomic_write_json(path, self.PAYLOAD)
        assert os.listdir(tmp_path) == ["x.json"]

    def test_concurrent_same_key_writers(self, tmp_path):
        """Racing writers (threads) never leave a torn entry."""
        cache = ResultCache(str(tmp_path))
        payload = {"type": "scalar", "value": list(range(500))}
        threads = [threading.Thread(target=cache.put, args=("k", payload))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.get("k") == payload
        assert [name for name in os.listdir(tmp_path)
                if ".tmp." in name] == []


class TestResultCacheHardening:
    def test_put_is_atomic_and_unique_tmp(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"type": "scalar", "value": 1})
        cache.put("k", {"type": "scalar", "value": 2})
        assert cache.get("k") == {"type": "scalar", "value": 2}
        assert [name for name in os.listdir(tmp_path)
                if ".tmp." in name] == []

    def test_get_tolerates_torn_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "k.json").write_text('{"type": "sim", "cycles": 12')
        assert cache.get("k") is None

    def test_get_tolerates_wrong_shape(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "k.json").write_text("[1, 2, 3]")
        assert cache.get("k") is None


# ----------------------------------------------------------------------
# determinism: parallel and cached runs equal a serial run
# ----------------------------------------------------------------------


class TestServiceDeterminism:
    def test_service_bit_identical_to_serial(self):
        assert canonical(SWEEP, run_tasks(SWEEP, workers=2)) \
            == serial(SWEEP)

    def test_store_round_trip_stays_identical(self, tmp_path, monkeypatch):
        expected = serial(SWEEP)
        cache = CountingCache(str(tmp_path))
        cold = run_tasks(SWEEP, workers=2, cache=cache)
        assert canonical(SWEEP, cold) == expected
        assert (cache.misses, cache.puts) == (len(SWEEP), len(SWEEP))
        # Second run: every point served from the cache, same bytes.
        forbid_compute(monkeypatch)
        warm_cache = CountingCache(str(tmp_path))
        warm = run_tasks(SWEEP, workers=2, cache=warm_cache)
        assert canonical(SWEEP, warm) == expected
        assert (warm_cache.hits, warm_cache.puts) == (len(SWEEP), 0)

    def test_metrics_sweep_matches_serial(self):
        tasks = SWEEP[:2]
        assert canonical(tasks, run_tasks(tasks, workers=2, metrics=True)) \
            == serial(tasks, metrics=True)

    def test_metrics_merge_service_matches_serial(self, tmp_path,
                                                  monkeypatch):
        # Metrics summaries merged from a parallel run, and from its
        # cached replay, aggregate bit-identically to a serial sweep:
        # same summaries, same submission order, same pure merge.
        tasks = SWEEP[:3]
        expected = json.dumps(merge_summaries(
            r.metrics for r in run_tasks(tasks, metrics=True)
        ), sort_keys=True)
        cache = ResultCache(str(tmp_path))
        for warm in (False, True):
            if warm:
                forbid_compute(monkeypatch)
            merged = merge_summaries(
                r.metrics for r in run_tasks(tasks, workers=2, cache=cache,
                                             metrics=True)
            )
            assert json.dumps(merged, sort_keys=True) == expected

    def test_sched_counters_ride_the_wire(self, tmp_path, monkeypatch):
        # The scheduler counter block must survive the payload
        # round-trip so cached sweeps expose the same self-observability
        # as fresh runs.
        tasks = SWEEP[:2]
        fresh = run_tasks(tasks)
        cache = ResultCache(str(tmp_path))
        run_tasks(tasks, workers=2, cache=cache)
        forbid_compute(monkeypatch)
        replayed = run_tasks(tasks, cache=cache)
        for local, stored in zip(fresh, replayed):
            assert stored.sched == local.sched
        assert replayed[1].sched["events"] > 0
        assert set(replayed[1].sched) == {
            "events", "parks", "wakes", "retry_parks", "retry_wakes",
            "retry_ticks", "spin_steps", "pushpop_fusions",
            "broadcast_stops",
        }

    def test_metrics_and_plain_are_distinct_keys(self, tmp_path):
        kind, experiment = SWEEP[0]
        assert task_key(kind, experiment, ZEC12) \
            != task_key(kind, experiment, ZEC12, metrics=True)
        cache = CountingCache(str(tmp_path))
        plain = run_tasks(SWEEP[:1], cache=cache)
        with_metrics = run_tasks(SWEEP[:1], cache=cache, metrics=True)
        assert cache.puts == 2  # no false cache hit across modes
        assert plain[0].metrics is None
        assert with_metrics[0].metrics is not None

    def test_duplicate_points_within_one_request(self, tmp_path):
        tasks = [SWEEP[0], SWEEP[1], SWEEP[0], SWEEP[0]]
        expected = serial(tasks)
        assert canonical(tasks, run_tasks(tasks, workers=2)) == expected
        cache = ResultCache(str(tmp_path))
        assert canonical(tasks, run_tasks(tasks, workers=2, cache=cache)) \
            == expected

    def test_empty_sweep(self, tmp_path):
        assert run_tasks([], workers=2) == []
        assert run_tasks([], cache=ResultCache(str(tmp_path))) == []

    def test_bad_task_reports_error(self):
        bad = [("bogus", SWEEP[0][1])]
        with pytest.raises(ValueError, match="unknown task kind"):
            run_tasks(bad)
        with pytest.raises(ValueError, match="unknown task kind"):
            run_tasks(SWEEP[:1] + bad, workers=2)


# ----------------------------------------------------------------------
# code-version seeding
# ----------------------------------------------------------------------


class TestCodeVersionSeeding:
    def test_set_code_version_short_circuits(self):
        saved = parallel_module._CODE_VERSION
        try:
            set_code_version("feedfacecafebeef")
            assert code_version() == "feedfacecafebeef"
        finally:
            parallel_module._CODE_VERSION = saved


# ----------------------------------------------------------------------
# run_figures integration: a parallel sweep is the same math
# ----------------------------------------------------------------------


class TestSweepThroughService:
    def test_parallel_sweep_runner_matches_local(self):
        schemes, grid = ["coarse", "tbeginc"], (2, 4)
        reference = parallel_sweep(schemes, grid, 10, 4, iterations=6)
        assert parallel_sweep(schemes, grid, 10, 4, iterations=6,
                              workers=2) == reference
