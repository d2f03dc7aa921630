"""Tests for the repro.sim.metrics registry and its bench wiring."""

import json
import sys

import pytest

from repro.bench.figures import QUICK_CPU_GRID, UpdateExperiment, run_update_experiment
from repro.bench.parallel import (
    ResultCache,
    run_tasks,
    task_key,
)
from repro.bench.report import render_abort_attribution
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.metrics import (
    SCHEMA,
    MetricsRegistry,
    jsonl_line,
    merge_summaries,
    write_jsonl,
)
from repro.sim.trace import Tracer
from repro.workloads.layout import PoolLayout
from repro.workloads.pool import build_update_program

#: A contended configuration that aborts through several causes.
CONTENDED = UpdateExperiment("tbegin", 8, 10, 4, iterations=15)


def contended_machine(n_cpus=4, iterations=10):
    program = build_update_program("tbegin", PoolLayout(10), n_vars=4,
                                   iterations=iterations)
    machine = Machine(ZEC12.with_cpus(n_cpus))
    for _ in range(n_cpus):
        machine.add_program(program)
    return machine


def assert_reconciles(result):
    """Registry totals must equal the architected CpuResult counters."""
    summary = result.metrics
    assert summary["schema"] == SCHEMA
    totals = summary["totals"]
    assert totals["aborts"] == sum(c.tx_aborted for c in result.cpus)
    assert sum(totals["abort_causes"].values()) == totals["aborts"]
    assert totals["stiff_arms"] == sum(c.xi_rejects for c in result.cpus)
    assert totals["commits"] == sum(c.tx_committed for c in result.cpus)
    assert totals["tbegins"] == sum(c.tx_started for c in result.cpus)
    for cpu_summary, cpu in zip(summary["cpus"], result.cpus):
        assert cpu_summary["aborts"] == cpu.tx_aborted
        assert sum(cpu_summary["abort_causes"].values()) == cpu.tx_aborted
        assert cpu_summary["stiff_arms"] == cpu.xi_rejects
        assert cpu_summary["commits"] == cpu.tx_committed


class TestRegistry:
    def test_off_by_default(self):
        machine = contended_machine(n_cpus=2)
        assert all(e.metrics is None for e in machine.engines)
        result = machine.run()
        assert result.metrics is None

    def test_reconciles_with_cpu_result(self):
        result = run_update_experiment(CONTENDED, metrics=True)
        assert result.metrics["totals"]["aborts"] > 0  # workload contends
        assert_reconciles(result)

    def test_results_identical_with_metrics_on(self):
        plain = run_update_experiment(CONTENDED, metrics=False)
        metered = run_update_experiment(CONTENDED, metrics=True)
        assert plain.cycles == metered.cycles
        assert [c.__dict__ for c in plain.cpus] == [
            c.__dict__ for c in metered.cpus
        ]

    def test_footprints_and_component_stats(self):
        result = run_update_experiment(CONTENDED, metrics=True)
        totals = result.metrics["totals"]
        # The update writes up to 4 variables per transaction.
        commits = totals["write_set_at_commit"]
        assert commits["count"] == totals["commits"]
        assert 1 <= commits["max"] <= 4
        assert totals["read_set_at_commit"]["count"] == totals["commits"]
        assert totals["read_set_at_abort"]["count"] == totals["aborts"]
        assert totals["store_cache_occupancy_hwm"] >= commits["max"]
        assert totals["fabric"]["fetches"] > 0
        assert sum(totals["fetch_sources"].values()) > 0
        assert "l1" in totals["fetch_sources"]

    def test_hang_counter_distributions(self):
        result = run_update_experiment(CONTENDED, metrics=True)
        totals = result.metrics["totals"]
        threshold = ZEC12.tx.xi_reject_threshold
        depths = {int(k) for k in totals["stiff_arm_depths"]}
        assert depths  # stiff-arming happened
        assert max(depths) < threshold
        assert sum(totals["stiff_arm_depths"].values()) == totals["stiff_arms"]
        assert sum(totals["hang_counter_at_abort"].values()) == totals["aborts"]

    def test_detach_stops_collection(self):
        machine = contended_machine(n_cpus=2)
        registry = MetricsRegistry().attach(machine)
        registry.detach()
        assert all(e.metrics is None for e in machine.engines)
        machine.run()
        assert registry.summary()["totals"]["commits"] == 0

    def test_attach_requires_cpus(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MetricsRegistry().attach(Machine(ZEC12))

    def test_coexists_with_tracer(self):
        machine = contended_machine(n_cpus=2)
        tracer = Tracer(machine, kinds={"commit", "abort"})
        registry = MetricsRegistry().attach(machine)
        result = machine.run()
        summary = registry.summary()
        assert summary["totals"]["commits"] == sum(
            c.tx_committed for c in [machine._cpu_result(i)
                                     for i in range(len(machine.engines))]
        )
        assert tracer.counts()["commit"] == summary["totals"]["commits"]
        assert tracer.counts()["abort"] == summary["totals"]["aborts"]
        assert result.cycles > 0


class TestMergeAndExport:
    def test_merge_is_deterministic_and_additive(self):
        a = run_update_experiment(CONTENDED, metrics=True).metrics
        b = run_update_experiment(
            UpdateExperiment("tbeginc", 4, 10, 4, iterations=10), metrics=True
        ).metrics
        merged = merge_summaries([a, b])
        assert merged["runs"] == 2
        assert merged["totals"]["aborts"] == (
            a["totals"]["aborts"] + b["totals"]["aborts"]
        )
        assert merged["totals"]["stiff_arms"] == (
            a["totals"]["stiff_arms"] + b["totals"]["stiff_arms"]
        )
        hist = merged["totals"]["write_set_at_commit"]
        assert hist["count"] == (
            a["totals"]["write_set_at_commit"]["count"]
            + b["totals"]["write_set_at_commit"]["count"]
        )
        # Pure function of its inputs: merging again is bit-identical.
        assert merge_summaries([a, b]) == merged
        # None entries (e.g. scalar tasks) are skipped.
        assert merge_summaries([None, a, None])["totals"] == \
            merge_summaries([a])["totals"]

    def test_merge_empty(self):
        merged = merge_summaries([])
        assert merged["runs"] == 0
        assert merged["totals"]["aborts"] == 0

    def test_jsonl_round_trip(self, tmp_path):
        summary = run_update_experiment(CONTENDED, metrics=True).metrics
        records = [
            {"record": "run", "point": "tbegin/8cpu", "summary": summary},
            {"record": "aggregate", "summary": merge_summaries([summary])},
        ]
        path = tmp_path / "metrics.jsonl"
        with open(path, "w") as stream:
            assert write_jsonl(records, stream) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["summary"]["totals"] == summary["totals"]
        assert parsed[1]["record"] == "aggregate"
        # Lines are deterministic (sorted keys).
        assert lines[0] == jsonl_line(records[0])

    def test_render_abort_attribution(self):
        summary = run_update_experiment(CONTENDED, metrics=True).metrics
        text = render_abort_attribution(summary)
        for cause in summary["totals"]["abort_causes"]:
            assert cause in text
        assert "stiff_arms" in text


class TestQuickSweepReconciliation:
    """Satellite: per-cause abort totals reconcile on the quick sweep."""

    TASKS = [
        ("update", UpdateExperiment("tbegin", n, 10, 4, iterations=8))
        for n in QUICK_CPU_GRID[:4]
    ] + [
        ("update", UpdateExperiment("tbeginc", n, 10, 4, iterations=8))
        for n in QUICK_CPU_GRID[:2]
    ]

    def test_serial(self):
        results = run_tasks(self.TASKS, metrics=True)
        assert any(r.metrics["totals"]["aborts"] > 0 for r in results)
        for result in results:
            assert_reconciles(result)

    def test_parallel_matches_serial(self):
        serial = run_tasks(self.TASKS, metrics=True)
        parallel = run_tasks(self.TASKS, workers=2, metrics=True)
        for s, p in zip(serial, parallel):
            assert_reconciles(p)
            # Metrics summaries (not just architected results) are
            # bit-identical across executors.
            assert s.metrics == p.metrics
            assert s.cycles == p.cycles


class TestCacheKey:
    EXPERIMENT = UpdateExperiment("tbegin", 2, 10, 4, iterations=5)

    def test_metrics_flag_changes_key(self):
        off = task_key("update", self.EXPERIMENT, ZEC12, metrics=False)
        on = task_key("update", self.EXPERIMENT, ZEC12, metrics=True)
        assert off != on
        # Default is metrics-off (backwards compatible).
        assert task_key("update", self.EXPERIMENT, ZEC12) == off

    def test_python_version_changes_key(self, monkeypatch):
        before = task_key("update", self.EXPERIMENT, ZEC12)
        monkeypatch.setattr(sys, "version_info", (3, 99, 0, "final", 0))
        assert task_key("update", self.EXPERIMENT, ZEC12) != before

    def test_flipping_metrics_misses_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        tasks = [("update", self.EXPERIMENT)]
        run_tasks(tasks, cache=cache, metrics=False)
        files_off = set(tmp_path.glob("*.json"))
        assert len(files_off) == 1
        # Metrics-on must not be served the metrics-off entry: a second
        # cache file appears and the result carries a summary.
        result_on = run_tasks(tasks, cache=cache, metrics=True)[0]
        assert result_on.metrics is not None
        files_both = set(tmp_path.glob("*.json"))
        assert len(files_both) == 2 and files_off < files_both
        # And the cached metrics-on entry round-trips the summary.
        cached = run_tasks(tasks, cache=cache, metrics=True)[0]
        assert cached.metrics == result_on.metrics
        assert set(tmp_path.glob("*.json")) == files_both


class TestTxLog:
    """The opt-in per-transaction commit/abort log (repro.verify's feed)."""

    def _metered(self, metrics):
        return run_update_experiment(CONTENDED, metrics=metrics)

    def test_absent_unless_opted_in(self):
        machine = contended_machine(n_cpus=2)
        registry = MetricsRegistry().attach(machine)
        machine.run()
        assert "tx_log" not in registry.summary()
        result = self._metered(True)
        assert result.tx_log is None

    def test_absent_without_metrics_at_all(self):
        result = self._metered(False)
        assert result.metrics is None
        assert result.tx_log is None

    def test_entries_reconcile_with_counters(self):
        result = self._metered("tx_log")
        log = result.tx_log
        assert log is not None and log["dropped"] == 0
        commits = [e for e in log["entries"] if e[1] == "commit"]
        aborts = [e for e in log["entries"] if e[1] == "abort"]
        assert len(commits) == sum(c.tx_committed for c in result.cpus)
        assert len(aborts) == sum(c.tx_aborted for c in result.cpus)

    def test_entries_are_json_native(self):
        log = self._metered("tx_log").tx_log
        assert json.loads(json.dumps(log)) == log
        for cpu, kind, tbegin_ia, end_ia, code, constrained, rl, wl in (
                log["entries"]):
            # The default lock fallback logs no software transactions.
            assert kind in ("commit", "abort")
            assert constrained in (0, 1)
            assert rl == sorted(rl) and wl == sorted(wl)

    def test_log_is_serialization_order_per_run(self):
        # The scheduler is single-threaded, so two identical runs append
        # identical logs — the property repro.verify's replay rests on.
        assert (self._metered("tx_log").tx_log
                == self._metered("tx_log").tx_log)

    def test_serial_matches_parallel_workers(self):
        tasks = [("update", CONTENDED),
                 ("update", UpdateExperiment("tbeginc", 4, 10, 4,
                                             iterations=8))]
        serial = run_tasks(tasks, workers=1, metrics="tx_log")
        parallel = run_tasks(tasks, workers=3, metrics="tx_log")
        for s, p in zip(serial, parallel):
            assert s.tx_log is not None
            assert s.tx_log == p.tx_log

    def test_limit_sets_dropped_counter(self):
        machine = contended_machine(n_cpus=2)
        registry = MetricsRegistry(tx_log=True, tx_log_limit=3)
        registry.attach(machine)
        machine.run()
        log = registry.summary()["tx_log"]
        assert len(log["entries"]) == 3
        assert log["dropped"] > 0

    def test_merge_drops_per_run_log(self):
        summary = MetricsRegistry(tx_log=True).attach(
            contended_machine(n_cpus=2)).summary()
        assert "tx_log" in summary
        assert "tx_log" not in merge_summaries([summary, summary])
