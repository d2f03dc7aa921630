"""The benchmark's three workloads as lists of checked work items.

An :class:`Item` is one simulation the benchmark times: a Figure 5 sweep
point, an in-text scalar point, a Figure 5(f) footprint pair member, or
one seeded ``repro.verify`` fuzz case. Running an item returns an
:class:`Observation` (the simulated counts and a fingerprint of the
result); checking it compares the observation against the pinned
goldens (``goldens.json``) or, for fuzz cases, the verify oracles.

Every item builds its own machine, so items are independent and a
work list can be re-run any number of times with identical results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.lru import footprint_abort_rate
from repro.verify import oracle
from repro.verify.fuzzer import case_seed
from repro.verify.generator import generate_case
from repro.workloads.queue import QueueExperiment, run_queue_experiment

#: The seed whose footprint abort rates are pinned in the goldens.
DEFAULT_SEED = 1

#: Fuzz cases per work list, and cases per "point" (the unit a parallel
#: fuzz run would hand to one worker; ``point_max_s`` is the slowest).
FUZZ_CASES = 600
FUZZ_CHUNK = 75

#: Figure 5(f) footprint trials per pair member.
FOOTPRINT_TRIALS = 10

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")

#: Counters summed over a work list; the per-layer ratios use them.
COUNTERS = (
    "instructions", "cycles", "tx_started", "tx_committed", "tx_aborted",
    "xi_rejects", "sw_committed", "sw_aborted", "events", "spin_steps",
    "retry_ticks", "virtual_events",
)


@dataclass
class Observation:
    """What one item run produced."""

    #: Exact, comparable image of the simulated result.
    fingerprint: Dict[str, Any]
    counters: Dict[str, int] = field(default_factory=dict)
    #: The raw result (SimResult, abort rate) for derived scalars.
    value: Any = None
    #: Oracle violations (fuzz cases only; empty = pass).
    violations: List[str] = field(default_factory=list)


@dataclass
class Item:
    name: str
    run: Callable[[], Observation]
    #: Index of the "point" the item belongs to (fuzz: its chunk).
    point: int = 0
    #: Golden key, or None when the oracles (fuzz) or invariants check it.
    golden: Optional[str] = None


# ----------------------------------------------------------------------
# observations
# ----------------------------------------------------------------------


def observe_sim(result) -> Observation:
    """Fingerprint and counters of a :class:`~repro.sim.results.SimResult`."""
    cpus = result.cpus
    counters = {
        "instructions": sum(c.instructions for c in cpus),
        "cycles": result.cycles,
        "tx_started": sum(c.tx_started for c in cpus),
        "tx_committed": sum(c.tx_committed for c in cpus),
        "tx_aborted": sum(c.tx_aborted for c in cpus),
        "xi_rejects": sum(c.xi_rejects for c in cpus),
        "sw_committed": sum(c.sw_committed for c in cpus),
        "sw_aborted": sum(c.sw_aborted for c in cpus),
    }
    sched = result.sched or {}
    for key in ("events", "spin_steps", "retry_ticks", "virtual_events"):
        counters[key] = sched.get(key, 0)
    per_cpu = [
        (c.instructions, c.tx_started, c.tx_committed, c.tx_aborted,
         c.xi_rejects, c.sw_committed, c.sw_aborted, tuple(c.intervals))
        for c in cpus
    ]
    fingerprint = {
        key: counters[key]
        for key in ("cycles", "instructions", "tx_started", "tx_committed",
                    "tx_aborted", "xi_rejects")
    }
    fingerprint["aborted_early"] = result.aborted_early
    fingerprint["cpu_digest"] = hashlib.sha256(
        repr(per_cpu).encode()).hexdigest()[:16]
    return Observation(fingerprint, counters, value=result)


def _update_item(scheme: str, n_cpus: int, pool: int, n_vars: int,
                 iterations: int = 15) -> Item:
    experiment = UpdateExperiment(scheme, n_cpus, pool, n_vars,
                                  iterations=iterations)
    name = f"update/{scheme}/{n_cpus}cpu/pool{pool}/vars{n_vars}/it{iterations}"
    return Item(name, lambda: observe_sim(run_update_experiment(experiment)),
                golden=name)


def _queue_item(use_tx: bool) -> Item:
    experiment = QueueExperiment(4, use_tx=use_tx, operations=40)
    name = f"queue/4thr/{'tx' if use_tx else 'lock'}/ops40"
    return Item(name, lambda: observe_sim(run_queue_experiment(experiment)),
                golden=name)


def _footprint_item(lines: int, extension: bool, seed: int) -> Item:
    name = (f"footprint/{lines}lines/{'ext' if extension else 'noext'}"
            f"/trials{FOOTPRINT_TRIALS}")

    def run() -> Observation:
        rate = footprint_abort_rate(lines, extension,
                                    trials=FOOTPRINT_TRIALS, seed=seed)
        return Observation({"abort_rate": rate}, value=rate)

    return Item(name, run, golden=name if seed == DEFAULT_SEED else None)


def _fuzz_item(index: int, case: Dict[str, Any]) -> Item:
    def run() -> Observation:
        outcome = oracle.run_case(case)
        violations = oracle.check_outcome(case, outcome)
        observation = observe_sim(outcome.result)
        observation.fingerprint["log_entries"] = len(
            outcome.result.tx_log["entries"])
        observation.violations = violations
        observation.value = None  # keep no machine state per case
        return observation

    mode = case.get("fallback_mode") or "lock"
    return Item(f"fuzz/{index}/{mode}", run, point=index // FUZZ_CHUNK)


# ----------------------------------------------------------------------
# the work lists
# ----------------------------------------------------------------------


def scalar_items() -> List[Item]:
    """The points behind the paper's in-text scalars S1-S3.

    S2 reuses the 100-CPU TBEGINC and no-lock points of ``tx-sweep``.
    """
    return [
        _update_item("coarse", 1, 1, 1, iterations=300),
        _update_item("tbegin", 1, 1, 1, iterations=300),
        _update_item("tbeginc", 1, 1, 1, iterations=300),
        _update_item("tbeginc", 100, 10_000, 4),
        _update_item("none", 100, 10_000, 4),
        _queue_item(False),
        _queue_item(True),
    ]


def build(workload: str, seed: int) -> List[Item]:
    """The fixed work list of ``workload``; ``seed`` drives its inputs."""
    if workload == "fuzz":
        # Three lock-fallback cases to one hybrid (stm fallback) case.
        return [
            _fuzz_item(index, generate_case(
                case_seed(seed, index), "stm" if index % 4 == 3 else ""))
            for index in range(FUZZ_CASES)
        ]
    if workload == "lock-storm":
        items = [
            _update_item("coarse", 48, 10_000, 4),
            _update_item("coarse", 48, 10, 4),
            _update_item("fine", 48, 10_000, 1),
            _update_item("rwlock", 48, 10_000, 4),
        ]
    elif workload == "tx-sweep":
        items = [
            _update_item(scheme, n_cpus, 10, 4)
            for scheme in ("tbegin", "tbeginc")
            for n_cpus in (2, 4, 6, 12, 24, 48)
        ]
        items.append(_update_item("tbegin", 100, 10_000, 4))
        items += scalar_items()
        items += [
            _footprint_item(lines, extension, seed)
            for lines in (400, 800)
            for extension in (False, True)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Each sweep item is a point of its own.
    for point, item in enumerate(items):
        item.point = point
    return items


def warmup_item(workload: str, seed: int) -> Item:
    """One small item run untimed before measuring (lazy set-up)."""
    if workload == "fuzz":
        return build(workload, seed)[0]
    return _update_item("tbegin", 2, 10, 4)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def load_goldens(path: str = GOLDENS_PATH) -> Dict[str, Dict[str, Any]]:
    with open(path) as handle:
        return json.load(handle)["points"]


def check(item: Item, observation: Observation,
          goldens: Dict[str, Dict[str, Any]]) -> List[str]:
    """Problems with one item's observation (empty = correct)."""
    problems = [f"oracle: {v}" for v in observation.violations]
    if item.golden is not None:
        expected = goldens.get(item.golden)
        if expected is None:
            problems.append(f"no golden pinned for {item.golden}")
        elif expected != observation.fingerprint:
            problems.append(
                f"golden mismatch: {observation.fingerprint} != {expected}")
    elif item.name.startswith("footprint/"):
        rate = observation.value
        if not 0.0 <= rate <= 1.0:
            problems.append(f"abort rate {rate} outside [0, 1]")
    return problems


def check_footprint_pairs(observations: Dict[str, Observation]) -> List[str]:
    """The LRU extension never raises the abort rate (Figure 5(f))."""
    problems = []
    for lines in (400, 800):
        base = f"footprint/{lines}lines/%s/trials{FOOTPRINT_TRIALS}"
        without = observations.get(base % "noext")
        with_ext = observations.get(base % "ext")
        if without and with_ext and with_ext.value > without.value:
            problems.append(
                f"footprint {lines} lines: extension raised the abort rate "
                f"({with_ext.value} > {without.value})")
    return problems


# ----------------------------------------------------------------------
# the paper's in-text scalars
# ----------------------------------------------------------------------

#: The paper's quoted values for the three ratio scalars.
PAPER = {
    "S1_lock_over_tbegin": 1.30,
    "S2_tbeginc_over_nolock": 0.998,
    "S3_queue_tx_over_lock": 2.0,
}


def paper_scalars(observations: Dict[str, Observation]) -> Dict[str, float]:
    """S1-S3 and the TBEGINC-vs-TBEGIN delta from scalar-item results."""
    def result(name: str):
        return observations[name].value

    lock = result("update/coarse/1cpu/pool1/vars1/it300").mean_update_cycles
    tbegin = result("update/tbegin/1cpu/pool1/vars1/it300").mean_update_cycles
    tbeginc = result(
        "update/tbeginc/1cpu/pool1/vars1/it300").mean_update_cycles
    tbc100 = result("update/tbeginc/100cpu/pool10000/vars4/it15").throughput
    none100 = result("update/none/100cpu/pool10000/vars4/it15").throughput
    lockq = result("queue/4thr/lock/ops40").throughput
    txq = result("queue/4thr/tx/ops40").throughput
    return {
        "S1_lock_over_tbegin": lock / tbegin,
        "S1_tbeginc_delta": abs(tbeginc - tbegin) / tbegin,
        "S2_tbeginc_over_nolock": tbc100 / none100,
        "S3_queue_tx_over_lock": txq / lockq,
    }


def paper_err_pct(scalars: Dict[str, float]) -> float:
    """Mean relative error (%) of the three ratio scalars vs the paper."""
    errors = [abs(scalars[key] / quoted - 1.0) for key, quoted in PAPER.items()]
    return 100.0 * sum(errors) / len(errors)
