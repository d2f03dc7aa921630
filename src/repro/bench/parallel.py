"""Parallel experiment execution for the figure sweeps.

Every benchmark point in the Figure 5 reproduction is an independent
simulation: each machine derives all of its randomness from
``params.seed`` and the CPU ids, so a point computes the same
:class:`~repro.sim.results.SimResult` no matter which process runs it or
in which order. This module exploits that in two ways:

* a :func:`run_tasks` executor fans points out across worker processes
  with :mod:`multiprocessing` and merges the results **in submission
  order**, so serial and parallel runs are bit-identical;
* an on-disk JSON :class:`ResultCache` keyed by a hash of (experiment,
  params, code version) lets re-runs of ``benchmarks/run_figures.py``
  skip already-computed points. The code-version component hashes the
  ``repro`` package sources, so editing the simulator invalidates the
  cache automatically. Writes are atomic and a damaged entry reads as a
  miss, so concurrent or crashed sweeps never poison a later one.

A *task* is ``(kind, experiment)`` where ``kind`` selects the runner:

========== ============================================ =================
kind       experiment                                   result
========== ============================================ =================
update     :class:`~repro.bench.figures.UpdateExperiment`   ``SimResult``
hashtable  :class:`~repro.workloads.hashtable.HashtableExperiment` ``SimResult``
queue      :class:`~repro.workloads.queue.QueueExperiment`  ``SimResult``
footprint  :class:`FootprintTask`                       abort rate float
vacation   :class:`~repro.workloads.stamp.VacationExperiment` ``SimResult``
kmeans     :class:`~repro.workloads.stamp.KmeansExperiment`   ``SimResult``
========== ============================================ =================
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..params import MachineParams, ZEC12
from ..sim.results import CpuResult, SimResult
from ..workloads.hashtable import HashtableExperiment, run_hashtable_experiment
from ..workloads.queue import QueueExperiment, run_queue_experiment
from ..workloads.stamp import (
    KmeansExperiment,
    VacationExperiment,
    run_kmeans,
    run_vacation,
)
from .figures import (
    SweepPoint,
    UpdateExperiment,
    run_update_experiment,
)
from .lru import footprint_abort_rate


@dataclass(frozen=True)
class FootprintTask:
    """One Monte-Carlo point of the Figure 5(f) LRU-extension study."""

    accessed_lines: int
    lru_extension: bool
    trials: int = 100
    seed: int = 1


Task = Tuple[str, Any]

# ----------------------------------------------------------------------
# result (de)serialisation — SimResult <-> plain JSON
# ----------------------------------------------------------------------


def result_to_payload(result: SimResult) -> Dict[str, Any]:
    """A JSON-serialisable image of a :class:`SimResult`."""
    return {
        "type": "sim",
        "cycles": result.cycles,
        "aborted_early": result.aborted_early,
        "metrics": result.metrics,
        "sched": result.sched,
        "cpus": [
            {
                "cpu_id": c.cpu_id,
                "instructions": c.instructions,
                "tx_started": c.tx_started,
                "tx_committed": c.tx_committed,
                "tx_aborted": c.tx_aborted,
                "xi_rejects": c.xi_rejects,
                "sw_committed": c.sw_committed,
                "sw_aborted": c.sw_aborted,
                "intervals": list(c.intervals),
            }
            for c in result.cpus
        ],
    }


def result_from_payload(payload: Dict[str, Any]) -> Any:
    """Inverse of :func:`result_to_payload` (passes scalars through)."""
    if payload["type"] == "scalar":
        return payload["value"]
    return SimResult(
        cycles=payload["cycles"],
        aborted_early=payload["aborted_early"],
        cpus=[CpuResult(**cpu) for cpu in payload["cpus"]],
        metrics=payload.get("metrics"),
        sched=payload.get("sched"),
    )


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------

#: Version tag for the simulator's data-plane representation (paged
#: bytearray memory, line-indexed store forwarding, run-based drains;
#: v4: retry-storm elision + calendar-queue scheduler — new
#: ``SimResult.sched`` counter block; v5: pluggable footprint policies —
#: keys carry the *resolved* policy spec; v6: hybrid-TM fallback modes —
#: ``CpuResult`` grows ``sw_committed``/``sw_aborted`` and keys carry the
#: *resolved* fallback mode; v7: virtual sequence numbering — keys carry
#: the resolved scheduler mode; v8: one materialized event path — the
#: mode and the queue-implementation counters are gone from keys and the
#: ``SimResult.sched`` block; v9: no heap elision — the
#: ``heap_elides``/``heap_elided_steps`` counters are gone from the
#: ``SimResult.sched`` block).
#: Bumped whenever the stored-result format or the memory/store-cache
#: semantics change in a way the source hash alone should not be trusted
#: to catch (e.g. a rename-only refactor that keeps byte-identical
#: sources elsewhere, or an external cache shared across checkouts).
DATA_PLANE_VERSION = 9

_CODE_VERSION: Optional[str] = None


def set_code_version(version: str) -> None:
    """Seed the per-process code-version cache.

    The parent computes :func:`code_version` once and passes it to every
    worker process through the pool initializer, so short sweeps never
    pay for re-hashing the whole ``repro`` package in each child.
    """
    global _CODE_VERSION
    _CODE_VERSION = version


def code_version() -> str:
    """Hash of the ``repro`` package sources (cached per process).

    Any edit to the simulator changes the version and therefore every
    cache key, so a stale cache can never leak results from old code.
    A value seeded by :func:`set_code_version` short-circuits the
    package hash (trusted: the parent that seeded it computed it from
    the same sources).
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def task_key(kind: str, experiment: Any, params: MachineParams,
             metrics: bool = False) -> str:
    """Stable cache key for one (experiment, params, code version).

    The key also covers the interpreter version (``major.minor``) and
    whether metrics collection was on, so an entry written under py3.9
    or with metrics off is never served for a py3.12/metrics-on run.
    The footprint policy and fallback mode are params fields, the only
    place a machine's modes come from, so ``asdict(params)`` keys them.
    """
    blob = json.dumps(
        {
            "kind": kind,
            "experiment": asdict(experiment),
            "params": asdict(params),
            "code": code_version(),
            "data_plane": DATA_PLANE_VERSION,
            "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
            # Strings (e.g. "tx_log") are distinct cache populations from
            # plain metrics-on runs.
            "metrics": metrics if isinstance(metrics, str) else bool(metrics),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


#: Process-wide counter so two threads writing the same key never share a
#: tmp file (the pid alone is not unique within a process).
_TMP_COUNTER = itertools.count()


def atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    """Publish ``payload`` at ``path`` atomically.

    The tmp file lives in the destination directory so ``os.replace`` is
    a same-filesystem rename; its name is unique per (pid, call) so
    concurrent writers — including threads of one process — never
    interleave into the same tmp file.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_json_payload(path: str) -> Optional[Dict[str, Any]]:
    """Read a stored payload; any damage reads as a miss (``None``).

    Tolerates the file being absent, unreadable, torn mid-write by a
    non-atomic producer, or not the dict shape :mod:`repro.bench.parallel`
    writes (every legitimate payload carries a ``"type"`` field).
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "type" not in payload:
        return None
    return payload


class ResultCache:
    """One JSON file per computed point under ``root``.

    ``put`` publishes via :func:`atomic_write_json` (a unique tmp file +
    ``os.replace``, atomic even with concurrent same-key writers across
    processes *and* threads) and ``get`` reads via
    :func:`read_json_payload`, which treats torn, corrupt, or
    wrong-shaped entries as misses, so a crashed or racing writer can
    never poison later sweeps.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return read_json_payload(self._path(key))

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        atomic_write_json(self._path(key), payload)


def default_cache_root() -> str:
    """``$REPRO_BENCH_CACHE`` or ``.bench_cache`` in the working dir."""
    return os.environ.get("REPRO_BENCH_CACHE") or os.path.join(
        os.getcwd(), ".bench_cache"
    )


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------


def _run_task(job: Tuple[str, Any, MachineParams, bool]) -> Dict[str, Any]:
    """Worker entry point: run one task, return its JSON payload.

    Module-level (not a closure) so it pickles under every
    multiprocessing start method.
    """
    kind, experiment, params, metrics = job
    if kind == "update":
        return result_to_payload(
            run_update_experiment(experiment, params, metrics=metrics)
        )
    if kind == "hashtable":
        return result_to_payload(
            run_hashtable_experiment(experiment, params, metrics=metrics)
        )
    if kind == "queue":
        return result_to_payload(
            run_queue_experiment(experiment, params, metrics=metrics)
        )
    if kind == "vacation":
        return result_to_payload(
            run_vacation(experiment, params, metrics=metrics)
        )
    if kind == "kmeans":
        return result_to_payload(
            run_kmeans(experiment, params, metrics=metrics)
        )
    if kind == "footprint":
        rate = footprint_abort_rate(
            experiment.accessed_lines,
            experiment.lru_extension,
            trials=experiment.trials,
            params=params,
            seed=experiment.seed,
        )
        return {"type": "scalar", "value": rate}
    raise ValueError(f"unknown task kind {kind!r}")


def run_tasks(
    tasks: Sequence[Task],
    params: MachineParams = ZEC12,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    metrics: bool = False,
) -> List[Any]:
    """Run experiment tasks, possibly in parallel, preserving order.

    Results come back in submission order regardless of ``workers``, and
    each point's simulation is fully self-seeded, so the outputs are
    bit-identical to a serial run. With a ``cache``, already-computed
    points are served from disk and fresh points are written back.

    With ``metrics=True`` each simulation task carries a metrics summary
    on its result; summaries merge deterministically because the result
    order is the submission order (see
    :func:`repro.sim.metrics.merge_summaries`).
    """
    jobs = [(kind, experiment, params, metrics) for kind, experiment in tasks]
    keys = [task_key(kind, experiment, params, metrics=metrics)
            for kind, experiment in tasks]

    payloads: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
    if cache is not None:
        for i, key in enumerate(keys):
            payloads[i] = cache.get(key)

    missing = [i for i, payload in enumerate(payloads) if payload is None]
    if missing:
        if workers > 1 and len(missing) > 1:
            # Imported lazily: simulator-only users never pay for it.
            from multiprocessing import Pool

            # The parent seeds each worker with its own code version so
            # spawned children never re-hash the package (fork children
            # inherit the cache; spawn children would otherwise pay a
            # full package walk per pool).
            with Pool(processes=min(workers, len(missing)),
                      initializer=set_code_version,
                      initargs=(code_version(),)) as pool:
                fresh = pool.map(_run_task, [jobs[i] for i in missing])
        else:
            fresh = [_run_task(jobs[i]) for i in missing]
        for i, payload in zip(missing, fresh):
            payloads[i] = payload
            if cache is not None:
                cache.put(keys[i], payload)

    return [result_from_payload(payload) for payload in payloads]


# ----------------------------------------------------------------------
# figure-panel helpers (parallel counterparts of figures.sweep)
# ----------------------------------------------------------------------


def baseline_task(iterations: int) -> Task:
    """The normalisation point: 2 CPUs updating a pool of 1 (TBEGIN)."""
    return (
        "update",
        UpdateExperiment("tbegin", n_cpus=2, pool_size=1, n_vars=1,
                         iterations=iterations),
    )


def parallel_sweep(
    schemes: Sequence[str],
    cpu_counts: Sequence[int],
    pool_size: int,
    n_vars: int,
    iterations: int = 50,
    params: MachineParams = ZEC12,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    metrics: bool = False,
) -> List[SweepPoint]:
    """Parallel drop-in for :func:`repro.bench.figures.sweep`.

    Produces the same points in the same order: the normalisation
    baseline rides along as the first task.
    """
    tasks: List[Task] = [baseline_task(iterations)]
    for scheme in schemes:
        for n_cpus in cpu_counts:
            tasks.append(
                (
                    "update",
                    UpdateExperiment(scheme, n_cpus, pool_size, n_vars,
                                     iterations),
                )
            )
    results = run_tasks(tasks, params=params, workers=workers,
                        cache=cache, metrics=metrics)
    base = results[0].throughput
    points: List[SweepPoint] = []
    for (_, experiment), result in zip(tasks[1:], results[1:]):
        points.append(
            SweepPoint(
                scheme=experiment.scheme,
                n_cpus=experiment.n_cpus,
                throughput=result.normalized_throughput(base),
                abort_rate=result.abort_rate,
                metrics=result.metrics,
            )
        )
    return points
