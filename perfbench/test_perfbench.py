"""Tests of the benchmark's own arithmetic and guards.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run

run.require_source()

import hostspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


class FakeClock:
    """A clock that advances by a fixed step per reading."""

    def __init__(self, step: int = 1) -> None:
        self.now = 0
        self.step = step

    def advance(self, ns: int) -> None:
        self.now += ns

    def __call__(self) -> int:
        self.now += self.step
        return self.now


# -- nested-span self time -------------------------------------------------


def test_nested_span_self_time():
    clock = FakeClock(step=0)
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(5)

    def inner():
        clock.advance(10)
        traced_leaf()
        clock.advance(1)

    def outer():
        clock.advance(100)
        traced_inner()
        traced_inner()

    traced_leaf = tracer.wrap(leaf, "leaf", "fabric")
    traced_inner = tracer.wrap(inner, "inner", "engine")
    traced_outer = tracer.wrap(outer, "outer", "scheduler")
    traced_outer()

    assert tracer.layer_self_s() == pytest.approx({
        **{layer: 0.0 for layer in tracer.layer_self_s()},
        "scheduler": 100e-9, "engine": 22e-9, "fabric": 10e-9,
    })
    assert tracer.calls_of("inner") == 2
    assert tracer.incl_s_of(["outer"]) == pytest.approx(132e-9)
    # Every call crossed a layer boundary, so every span was stored, and
    # the streaming arithmetic agrees with the reference definition.
    spans = [(i, parent, start, end)
             for i, (_fid, parent, start, end) in enumerate(tracer.spans)]
    by_function = {}
    for i, ns in self_times(spans).items():
        name = tracer.names[tracer.spans[i][0]]
        by_function[name] = by_function.get(name, 0) + ns
    assert by_function == {"outer": 100, "inner": 22, "leaf": 10}


def test_same_layer_recursion_counts_once():
    clock = FakeClock(step=0)
    tracer = Tracer(clock=clock)

    def countdown(n):
        clock.advance(3)
        if n:
            traced(n - 1)

    traced = tracer.wrap(countdown, "countdown", "engine")
    traced(2)
    assert tracer.self_ns == [9]
    assert tracer.incl_ns == [9]
    # Only the outermost call crosses a layer boundary.
    assert len(tracer.spans) == 1


def test_span_closes_on_exception():
    clock = FakeClock(step=0)
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(7)
        raise KeyError("x")

    traced = tracer.wrap(boom, "boom", "engine")
    with pytest.raises(KeyError):
        traced()
    assert tracer.stack == []
    assert tracer.self_ns == [7]


def test_self_times_reference():
    spans = [(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 15, 25), (3, 0, 50, 60)]
    assert self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (400, 95.0), (200, 95.0), (100, 90.0), (20, 50.0), (19, None), (4, None),
])
def test_highest_percentile(n, expected):
    assert stats.highest_percentile(n) == (
        pytest.approx(expected) if expected is not None else None)


def test_reported_percentile_leaves_ten_samples_beyond():
    rng = random.Random(5)
    for n in range(1, 600):
        samples = [rng.random() for _ in range(n)]
        label, value = stats.tail_latency(samples)
        beyond = sum(1 for s in samples if s > value)
        if label.startswith("max"):
            assert n < 20 and value == max(samples)
        else:
            assert beyond >= stats.MIN_BEYOND, (n, label)
            assert label.endswith(f"of {n}")


def test_nearest_rank():
    assert stats.nearest_rank([3, 1, 2, 4], 50) == 2
    assert stats.nearest_rank(list(range(1, 101)), 95) == 95
    # 100 * 14 / 24 * 24 / 100 rounds above 14 in binary floating point.
    assert stats.nearest_rank(list(range(24)), 100 * 14 / 24) == 13


def test_item_medians_pick_a_field():
    samples = {"a": [(1.0, 10.0), (3.0, 30.0), (2.0, 20.0)]}
    assert stats.item_medians(samples, 0) == {"a": 2.0}
    assert stats.item_medians(samples, 1) == {"a": 20.0}


def test_host_speed_scale():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref, ref) == 1.0
    # Work timed while the kernel ran at half speed counts half.
    assert hostspeed.scale(2 * ref, 2 * ref) == 0.5


def test_summarize_groups_points():
    medians = {"a": 1.0, "b": 2.0, "c": 4.0}
    metrics = stats.summarize(medians, {"a": 0, "b": 0, "c": 1}, 700)
    assert metrics["wall_s"] == 7.0
    assert metrics["point_max_s"] == 4.0
    assert metrics["sim_insns_per_s"] == 100.0
    assert metrics["cases_per_s"] == pytest.approx(3 / 7)
    assert metrics["case_p50_ms"] == 2000.0
    assert metrics["case_p95_ms"] == 4000.0  # too few samples: the max


# -- failures ---------------------------------------------------------------


def test_injected_failure_raises_failed_share():
    goldens = workloads.load_goldens()
    bench = run.Run(workloads, goldens)
    fine = "update/fine/48cpu/pool10000/vars1/it15"

    def boom():
        raise RuntimeError("injected")

    items = [
        workloads.Item("good", lambda: workloads.Observation({"x": 1})),
        workloads.Item("wrong", lambda: workloads.Observation({"x": 1}),
                       golden=fine),
        workloads.Item("crash", boom),
    ]
    bench.run_pass(items)
    assert (bench.attempted, bench.failed) == (3, 2)
    assert stats.failed_share(bench.attempted, bench.failed) == 2 / 3
    assert any("golden mismatch" in p for p in bench.problems)
    assert any("injected" in p for p in bench.problems)


def test_nondeterminism_is_a_failure():
    bench = run.Run(workloads, {})
    counter = iter(range(10))
    item = workloads.Item(
        "drift", lambda: workloads.Observation({"x": next(counter)}))
    bench.run_pass([item])
    bench.run_pass([item])
    assert (bench.attempted, bench.failed) == (2, 1)


def test_footprint_pair_invariant():
    observations = {
        "footprint/400lines/noext/trials10": workloads.Observation({}, value=0.2),
        "footprint/400lines/ext/trials10": workloads.Observation({}, value=0.5),
    }
    assert workloads.check_footprint_pairs(observations)


def test_failed_share_of_nothing():
    assert stats.failed_share(0, 0) == 0.0


# -- guards -----------------------------------------------------------------


def test_result_cache_cannot_serve(monkeypatch, tmp_path):
    from repro.bench import parallel

    monkeypatch.setattr(parallel.ResultCache, "get", parallel.ResultCache.get)
    run.forbid_result_cache()
    cache = parallel.ResultCache(str(tmp_path))
    with pytest.raises(RuntimeError, match="never serves"):
        parallel.run_tasks(
            [("update", parallel.UpdateExperiment("tbegin", 2, 1, 1, 5))],
            cache=cache)


def test_modes_mark_overrides(monkeypatch):
    monkeypatch.delenv("REPRO_VIRTSEQ", raising=False)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    assert run.resolved_modes()["comparable"]
    monkeypatch.setenv("REPRO_VIRTSEQ", "0")
    modes = run.resolved_modes()
    assert not modes["comparable"] and modes["overrides"] == ["REPRO_VIRTSEQ"]
    assert modes["virtseq"] is False


def test_goldens_agree_with_bench_speed():
    path = os.path.join(run.ROOT, "BENCH_speed.json")
    if not os.path.exists(path):
        pytest.skip("no BENCH_speed.json in this checkout")
    with open(path) as handle:
        committed = json.load(handle)["points"]
    goldens = workloads.load_goldens()
    shared = {
        "update-coarse-48cpu": "update/coarse/48cpu/pool10000/vars4/it15",
        "update-fine-48cpu": "update/fine/48cpu/pool10000/vars1/it15",
        "update-rwlock-48cpu": "update/rwlock/48cpu/pool10000/vars4/it15",
        "update-tbeginc-100cpu": "update/tbeginc/100cpu/pool10000/vars4/it15",
    }
    for speed_name, golden_name in shared.items():
        point = committed[speed_name]
        golden = goldens[golden_name]
        assert (golden["instructions"], golden["cycles"]) == (
            point["instructions"], point["cycles"]), speed_name


def test_every_golden_is_used():
    names = {item.golden for w in ("lock-storm", "tx-sweep")
             for item in workloads.build(w, workloads.DEFAULT_SEED)}
    assert names - {None} == set(workloads.load_goldens())


def test_traced_run_matches_untraced():
    item = workloads.build("tx-sweep", 1)[1]  # tbegin, 4 CPUs
    plain = item.run()
    tracer = Tracer()
    tracer.install()
    try:
        traced = item.run()
    finally:
        tracer.uninstall()
    assert traced.fingerprint == plain.fingerprint
    assert tracer.calls_of("IsaCpu.step") > 0
    assert tracer.calls_of("Scheduler.run") == 1
    # Uninstalled: the classes hold their original functions again.
    from repro.cpu.interpreter import IsaCpu
    assert not hasattr(IsaCpu.step, "__wrapped__")


def test_exits_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
