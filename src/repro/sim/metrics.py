"""Opt-in metrics registry for abort-attribution telemetry.

The paper's evaluation (sections II.E and IV) hinges on *why*
transactions abort — fetch vs. store conflicts, store-cache overflow,
hang-counter escalation, TDB abort codes — which the coarse per-CPU
counters in :class:`~repro.sim.results.CpuResult` cannot answer. A
:class:`MetricsRegistry` attached to a machine collects, per CPU:

* abort-cause histograms keyed by :class:`~repro.core.abort.AbortCode`
  names (TABORT codes appear as ``TABORT(n)``), plus conflict-line and
  hang-counter-at-abort distributions;
* XI stiff-arm counts and hang-counter depth distributions;
* store-cache occupancy high-water marks;
* read/write footprint sizes at commit and abort, and the Figure-7
  LRU-extension row counts.

The registry receives events through the engine's **explicit hook
points** (:class:`~repro.core.engine.MetricsSink`), not method wrapping,
so it observes PR 1's inlined fast paths and costs nothing when
detached. Hook sites fire at the exact program points where the
engine's ``stats_*`` counters increment, so registry totals reconcile
exactly: ``sum(abort_causes.values()) == CpuResult.tx_aborted`` and
``stiff_arms == CpuResult.xi_rejects``.

Summaries are plain dicts (schema ``repro.metrics/1``) that serialise
to JSON; :func:`merge_summaries` folds several runs' summaries together
deterministically (callers merge in submission order), and
:func:`write_jsonl` emits one sorted-key JSON record per line.

Example::

    machine = Machine(ZEC12.with_cpus(4))
    ...
    registry = MetricsRegistry()
    registry.attach(machine)
    result = machine.run()
    summary = registry.summary()
    print(summary["totals"]["abort_causes"])
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, IO, Iterable, List, Optional

from ..core.abort import AbortCode
from ..core.engine import MetricsSink
from ..errors import ConfigurationError

#: Version tag embedded in every summary / JSONL record.
SCHEMA = "repro.metrics/1"

#: Default :class:`TxLog` capacity (entries beyond it count as dropped).
TX_LOG_LIMIT = 100_000


def abort_cause_name(code: int) -> str:
    """Histogram key for an abort code (AbortCode name or ``TABORT(n)``)."""
    try:
        return AbortCode(code).name
    except ValueError:
        return f"TABORT({code})"


class _Hist(object):
    """Streaming summary of a non-negative integer quantity."""

    __slots__ = ("count", "total", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.max = 0
        self.buckets: Counter = Counter()

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self.buckets[value] += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else 0.0,
            "histogram": {str(k): v for k, v in sorted(self.buckets.items())},
        }


def _merge_hist_dicts(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    histogram = Counter({int(k): v for k, v in a.get("histogram", {}).items()})
    histogram.update({int(k): v for k, v in b.get("histogram", {}).items()})
    count = a["count"] + b["count"]
    total = a["total"] + b["total"]
    return {
        "count": count,
        "total": total,
        "max": max(a["max"], b["max"]),
        "mean": (total / count) if count else 0.0,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }


class CpuMetrics(MetricsSink):
    """Hook-point collector for one CPU's engine."""

    __slots__ = (
        "cpu_id", "tbegins", "constrained_tbegins", "commits", "aborts",
        "abort_causes", "conflict_lines", "hang_counter_at_abort",
        "stiff_arms", "stiff_arm_depths", "xi_responses", "fetch_sources",
        "read_set_at_commit", "write_set_at_commit", "read_set_at_abort",
        "write_set_at_abort", "store_cache_at_commit",
        "extension_rows_at_commit", "extension_rows_at_abort",
    )

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        self.tbegins = 0
        self.constrained_tbegins = 0
        self.commits = 0
        self.aborts = 0
        #: Abort-cause name -> count (reconciles with ``tx_aborted``).
        self.abort_causes: Counter = Counter()
        #: Conflicting line address (hex) -> count, when the TDB-style
        #: conflict token was valid.
        self.conflict_lines: Counter = Counter()
        #: Hang-counter (consecutive XI rejects) value at each abort.
        self.hang_counter_at_abort: Counter = Counter()
        #: Total rejected XIs (reconciles with ``xi_rejects``).
        self.stiff_arms = 0
        #: Hang-counter value after each individual reject.
        self.stiff_arm_depths: Counter = Counter()
        #: ``"<xi type>:<response>"`` -> count, for every XI answered.
        self.xi_responses: Counter = Counter()
        #: Fetch source -> count. Cache tiers (l1/l2/l3/l4/remote/
        #: memory), read-only upgrades ("upgrade"), and core-to-core RO
        #: sourcing by distance ("intervention" on-chip,
        #: "intervention-mcm" same-MCM, "intervention-remote" cross-MCM
        #: — previously misattributed to "l4"/"remote").
        self.fetch_sources: Counter = Counter()
        self.read_set_at_commit = _Hist()
        self.write_set_at_commit = _Hist()
        self.read_set_at_abort = _Hist()
        self.write_set_at_abort = _Hist()
        self.store_cache_at_commit = _Hist()
        # Occupancy of the footprint policy's overflow-tracking
        # structure at commit/abort: LRU-extension rows under the
        # default zec12 policy, spilled lines under power-spill, always
        # 0 for policies with no such structure (see
        # repro.core.footprint.FootprintPolicy.tracking_rows).
        self.extension_rows_at_commit = _Hist()
        self.extension_rows_at_abort = _Hist()

    # -- MetricsSink hook points -------------------------------------------

    def note_tbegin(self, constrained, ia):
        self.tbegins += 1
        if constrained:
            self.constrained_tbegins += 1

    def note_commit(self, ia, read_lines, write_lines, store_cache_used,
                    extension_rows):
        self.commits += 1
        self.read_set_at_commit.add(read_lines)
        self.write_set_at_commit.add(write_lines)
        self.store_cache_at_commit.add(store_cache_used)
        self.extension_rows_at_commit.add(extension_rows)

    def note_abort(self, abort, read_lines, write_lines, xi_rejects,
                   extension_rows):
        self.aborts += 1
        self.abort_causes[abort_cause_name(abort.code)] += 1
        if abort.conflict_token_valid:
            self.conflict_lines[f"0x{abort.conflict_token:x}"] += 1
        self.hang_counter_at_abort[xi_rejects] += 1
        self.read_set_at_abort.add(read_lines)
        self.write_set_at_abort.add(write_lines)
        self.extension_rows_at_abort.add(extension_rows)

    def note_xi(self, xi, response):
        self.xi_responses[f"{xi.xi_type.value}:{response.value}"] += 1

    def note_stiff_arm(self, xi, rejects):
        self.stiff_arms += 1
        self.stiff_arm_depths[rejects] += 1

    def note_fetch(self, line, exclusive, source):
        self.fetch_sources[source] += 1

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cpu": self.cpu_id,
            "tbegins": self.tbegins,
            "constrained_tbegins": self.constrained_tbegins,
            "commits": self.commits,
            "aborts": self.aborts,
            "abort_causes": dict(sorted(self.abort_causes.items())),
            "conflict_lines": dict(sorted(self.conflict_lines.items())),
            "hang_counter_at_abort": {
                str(k): v for k, v in sorted(self.hang_counter_at_abort.items())
            },
            "stiff_arms": self.stiff_arms,
            "stiff_arm_depths": {
                str(k): v for k, v in sorted(self.stiff_arm_depths.items())
            },
            "xi_responses": dict(sorted(self.xi_responses.items())),
            "fetch_sources": dict(sorted(self.fetch_sources.items())),
            "read_set_at_commit": self.read_set_at_commit.to_dict(),
            "write_set_at_commit": self.write_set_at_commit.to_dict(),
            "read_set_at_abort": self.read_set_at_abort.to_dict(),
            "write_set_at_abort": self.write_set_at_abort.to_dict(),
            "store_cache_at_commit": self.store_cache_at_commit.to_dict(),
            "extension_rows_at_commit": self.extension_rows_at_commit.to_dict(),
            "extension_rows_at_abort": self.extension_rows_at_abort.to_dict(),
        }


class TxLog:
    """Global-order log of transaction outcomes across every CPU.

    The scheduler resumes one driver at a time, so append order *is* the
    order in which commits reached the memory system — the serialization
    order the verify oracle replays. Entries are JSON-native lists

        ``[cpu, kind, tbegin_ia, end_ia, code, constrained,
           read_lines, write_lines]``

    with ``kind`` ``"commit"`` or ``"abort"`` (hardware transactions) or
    ``"sw_commit"`` / ``"sw_abort"`` (hybrid-TM software transactions,
    with the SBEGIN address in the ``tbegin_ia`` slot), ``end_ia`` the
    TEND/SEND (or aborting-instruction) address, ``code`` the abort code
    (0 for commits), ``constrained`` 0/1, and ``read_lines``/``write_lines``
    sorted line-address lists — so a log compares equal whether it was
    read in-process or round-tripped through a JSON payload. Unknown
    addresses are recorded as -1. The log is capped at ``limit`` entries;
    ``dropped`` counts the overflow.

    The log records on its own: :meth:`attach` taps every engine of a
    machine without the per-CPU histograms of a
    :class:`MetricsRegistry` (the verify oracles read nothing else).
    """

    __slots__ = ("entries", "limit", "dropped", "_taps")

    def __init__(self, limit: int = TX_LOG_LIMIT) -> None:
        self.entries: List[List[Any]] = []
        self.limit = limit
        self.dropped = 0
        self._taps: List = []

    def attach(self, machine) -> "TxLog":
        """Record every engine of ``machine`` (after CPUs are added)."""
        if self._taps:
            raise ConfigurationError("tx log is already attached")
        if not machine.engines:
            raise ConfigurationError(
                "attach the tx log after adding CPUs to the machine"
            )
        for engine in machine.engines:
            tap = _TxLogTap(engine.cpu_id, self)
            engine.attach_metrics(tap)
            self._taps.append((engine, tap))
        return self

    def detach(self) -> None:
        """Stop recording (the entries stay readable)."""
        for engine, tap in self._taps:
            engine.detach_metrics(tap)
        self._taps = []

    def append(self, cpu: int, kind: str, tbegin_ia, end_ia, code: int,
               constrained: bool, read_set, write_set) -> None:
        if len(self.entries) >= self.limit:
            self.dropped += 1
            return
        self.entries.append([
            cpu,
            kind,
            -1 if tbegin_ia is None else tbegin_ia,
            -1 if end_ia is None else end_ia,
            int(code),
            1 if constrained else 0,
            sorted(read_set),
            sorted(write_set),
        ])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entries": [list(entry) for entry in self.entries],
            "dropped": self.dropped,
        }


class _TxLogTap(MetricsSink):
    """Per-CPU sink feeding the shared :class:`TxLog`."""

    __slots__ = ("cpu_id", "log")

    def __init__(self, cpu_id: int, log: TxLog) -> None:
        self.cpu_id = cpu_id
        self.log = log

    def note_commit_sets(self, ia, tbegin_ia, constrained, read_set,
                         write_set):
        self.log.append(self.cpu_id, "commit", tbegin_ia, ia, 0,
                        constrained, read_set, write_set)

    def note_abort_sets(self, abort, tbegin_ia, constrained, read_set,
                        write_set):
        self.log.append(self.cpu_id, "abort", tbegin_ia, abort.aborted_ia,
                        abort.code, constrained, read_set, write_set)

    def note_sw_commit_sets(self, ia, sbegin_ia, read_set, write_set):
        self.log.append(self.cpu_id, "sw_commit", sbegin_ia, ia, 0,
                        False, read_set, write_set)

    def note_sw_abort_sets(self, ia, sbegin_ia, code, read_set, write_set):
        self.log.append(self.cpu_id, "sw_abort", sbegin_ia, ia, code,
                        False, read_set, write_set)


#: Per-CPU dict keys merged by plain integer addition.
_CPU_SUM_KEYS = ("tbegins", "constrained_tbegins", "commits", "aborts",
                 "stiff_arms")
#: Per-CPU dict keys that are flat counters (string key -> count).
_CPU_COUNTER_KEYS = ("abort_causes", "conflict_lines",
                     "hang_counter_at_abort", "stiff_arm_depths",
                     "xi_responses", "fetch_sources")
#: Per-CPU dict keys that are histogram dicts.
_CPU_HIST_KEYS = ("read_set_at_commit", "write_set_at_commit",
                  "read_set_at_abort", "write_set_at_abort",
                  "store_cache_at_commit", "extension_rows_at_commit",
                  "extension_rows_at_abort")


class MetricsRegistry:
    """Attaches one :class:`CpuMetrics` per engine and aggregates them.

    With ``tx_log=True`` a shared :class:`TxLog` additionally records
    every commit/abort in global order with its read/write line sets
    (the ``"tx_log"`` summary key), for the ``repro.verify``
    serializability oracle.
    """

    def __init__(self, tx_log: bool = False,
                 tx_log_limit: int = TX_LOG_LIMIT) -> None:
        self.cpus: List[CpuMetrics] = []
        self.tx_log: Optional[TxLog] = (
            TxLog(tx_log_limit) if tx_log else None
        )
        self._machine = None
        self._engines: List = []

    def attach(self, machine) -> "MetricsRegistry":
        """Attach to every engine of ``machine`` (after CPUs are added)."""
        if self._machine is not None:
            raise ConfigurationError("registry is already attached")
        if not machine.engines:
            raise ConfigurationError(
                "attach the registry after adding CPUs to the machine"
            )
        self._machine = machine
        for engine in machine.engines:
            collector = CpuMetrics(engine.cpu_id)
            engine.attach_metrics(collector)
            self.cpus.append(collector)
            self._engines.append(engine)
        if self.tx_log is not None:
            self.tx_log.attach(machine)
        return self

    def detach(self) -> None:
        """Detach all collectors (collected data stays readable)."""
        for engine, collector in zip(self._engines, self.cpus):
            engine.detach_metrics(collector)
        if self.tx_log is not None:
            self.tx_log.detach()
        self._engines = []
        self._machine = None

    # -- export ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Summary dict (schema ``repro.metrics/1``) for the attached run.

        Component-level statistics (store-cache high-water marks, fabric
        counters, scheduler broadcast-stops, cycles) are snapshotted at
        call time, so call after :meth:`~repro.sim.machine.Machine.run`.
        """
        machine = self._machine
        if machine is None and not self.cpus:
            raise ConfigurationError("registry was never attached")
        cpu_dicts = [c.to_dict() for c in self.cpus]
        if machine is not None:
            hwms = [e.store_cache.stats_occupancy_hwm for e in machine.engines]
            for record, hwm in zip(cpu_dicts, hwms):
                record["store_cache_occupancy_hwm"] = hwm
            fabric = {
                "fetches": machine.fabric.stats_fetches,
                "rejects": machine.fabric.stats_rejects,
                "xis": machine.fabric.stats_xis,
            }
            scheduler = machine.scheduler
            sched_stats = _scheduler_stats(scheduler)
            cycles = scheduler.now if scheduler is not None else 0
        else:
            fabric = {"fetches": 0, "rejects": 0, "xis": 0}
            sched_stats = _scheduler_stats(None)
            cycles = 0
        summary: Dict[str, Any] = {
            "schema": SCHEMA,
            "runs": 1,
            "n_cpus": len(cpu_dicts),
            "cycles": cycles,
            "totals": _totals_from_cpus(cpu_dicts, fabric, sched_stats),
            "cpus": cpu_dicts,
        }
        if self.tx_log is not None:
            summary["tx_log"] = self.tx_log.to_dict()
        return summary


def _empty_hist_dict() -> Dict[str, Any]:
    return {"count": 0, "total": 0, "max": 0, "mean": 0.0, "histogram": {}}


#: Scheduler self-observability counters surfaced in ``totals["scheduler"]``.
_SCHED_KEYS = ("parks", "wakes", "retry_parks", "retry_wakes",
               "retry_ticks", "spin_steps", "events",
               "heap_elides", "heap_elided_steps",
               "pushpop_fusions", "broadcast_stops")


def _scheduler_stats(scheduler) -> Dict[str, int]:
    if scheduler is None:
        return {key: 0 for key in _SCHED_KEYS}
    return {key: getattr(scheduler, f"stats_{key}", 0) for key in _SCHED_KEYS}


def _totals_from_cpus(cpu_dicts: List[Dict[str, Any]],
                      fabric: Dict[str, int],
                      sched_stats: Dict[str, int]) -> Dict[str, Any]:
    totals: Dict[str, Any] = {key: 0 for key in _CPU_SUM_KEYS}
    for key in _CPU_COUNTER_KEYS:
        totals[key] = Counter()
    for key in _CPU_HIST_KEYS:
        totals[key] = _empty_hist_dict()
    hwm = 0
    for record in cpu_dicts:
        for key in _CPU_SUM_KEYS:
            totals[key] += record[key]
        for key in _CPU_COUNTER_KEYS:
            totals[key].update(record[key])
        for key in _CPU_HIST_KEYS:
            totals[key] = _merge_hist_dicts(totals[key], record[key])
        hwm = max(hwm, record.get("store_cache_occupancy_hwm", 0))
    for key in _CPU_COUNTER_KEYS:
        totals[key] = dict(sorted(totals[key].items()))
    totals["store_cache_occupancy_hwm"] = hwm
    totals["fabric"] = dict(fabric)
    totals["scheduler"] = dict(sched_stats)
    totals["broadcast_stops"] = sched_stats.get("broadcast_stops", 0)
    return totals


def merge_summaries(summaries: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold several run summaries into one aggregate, deterministically.

    Callers must pass summaries in a fixed order (``repro.bench.parallel``
    returns results in task submission order); the merge itself is pure,
    so serial and parallel sweeps aggregate bit-identically. Sums counts
    and counters, merges histograms, takes the max of high-water marks,
    and accumulates cycles across runs.
    """
    merged: Optional[Dict[str, Any]] = None
    for summary in summaries:
        if summary is None:
            continue
        if summary.get("schema") != SCHEMA:
            raise ConfigurationError(
                f"cannot merge metrics schema {summary.get('schema')!r}"
            )
        if merged is None:
            merged = json.loads(json.dumps(summary))  # deep copy
            merged.pop("cpus", None)
            # The tx log is a per-run serialization order; concatenating
            # logs across runs would be meaningless.
            merged.pop("tx_log", None)
            continue
        merged["runs"] += summary.get("runs", 1)
        merged["n_cpus"] = max(merged["n_cpus"], summary["n_cpus"])
        merged["cycles"] += summary["cycles"]
        a, b = merged["totals"], summary["totals"]
        for key in _CPU_SUM_KEYS:
            a[key] += b[key]
        for key in _CPU_COUNTER_KEYS:
            counter = Counter(a[key])
            counter.update(b[key])
            a[key] = dict(sorted(counter.items()))
        for key in _CPU_HIST_KEYS:
            a[key] = _merge_hist_dicts(a[key], b[key])
        a["store_cache_occupancy_hwm"] = max(
            a["store_cache_occupancy_hwm"], b["store_cache_occupancy_hwm"]
        )
        for key in ("fetches", "rejects", "xis"):
            a["fabric"][key] += b["fabric"][key]
        # ``.get`` tolerates summaries serialized before the scheduler
        # counter block existed.
        sched_a = a.get("scheduler") or {key: 0 for key in _SCHED_KEYS}
        sched_b = b.get("scheduler") or {}
        a["scheduler"] = {
            key: sched_a.get(key, 0) + sched_b.get(key, 0)
            for key in _SCHED_KEYS
        }
        a["broadcast_stops"] = (
            a.get("broadcast_stops", 0) + b.get("broadcast_stops", 0)
        )
    if merged is None:
        merged = {
            "schema": SCHEMA,
            "runs": 0,
            "n_cpus": 0,
            "cycles": 0,
            "totals": _totals_from_cpus([], {"fetches": 0, "rejects": 0,
                                             "xis": 0},
                                        _scheduler_stats(None)),
        }
    return merged


def jsonl_line(record: Dict[str, Any]) -> str:
    """One JSONL line (sorted keys, so output is deterministic)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_jsonl(records: Iterable[Dict[str, Any]], stream: IO[str]) -> int:
    """Write records as JSON Lines; returns the number written."""
    n = 0
    for record in records:
        stream.write(jsonl_line(record))
        stream.write("\n")
        n += 1
    return n
