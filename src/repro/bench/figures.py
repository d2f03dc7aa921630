"""Experiment harness for the paper's Figure 5 micro-benchmarks.

Runs the shared-variable-pool workloads over CPU-count sweeps, computes
throughput exactly as the paper does (CPUs divided by the average
measured time per update) and normalises "to a throughput of 100 for 2
CPUs concurrently updating a single variable from a pool of 1 variable".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..params import MachineParams, ZEC12
from ..sim.machine import Machine
from ..sim.metrics import MetricsRegistry
from ..sim.results import SimResult
from ..workloads.layout import PoolLayout
from ..workloads.pool import SCHEMES, build_update_program


@dataclass(frozen=True)
class UpdateExperiment:
    """One (scheme, CPUs, pool, variables) benchmark point."""

    scheme: str
    n_cpus: int
    pool_size: int
    n_vars: int = 1
    iterations: int = 50

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.n_cpus < 1:
            raise ConfigurationError("need at least one CPU")
        if self.pool_size < 1:
            raise ConfigurationError("pool must hold at least one variable")


def run_update_experiment(
    experiment: UpdateExperiment,
    params: MachineParams = ZEC12,
    max_cycles: Optional[int] = None,
    metrics: bool = False,
) -> SimResult:
    """Run one benchmark point and return the raw simulation result.

    With ``metrics=True`` a :class:`~repro.sim.metrics.MetricsRegistry`
    observes the run and its summary lands on ``result.metrics``; the
    architected result is identical either way. Passing the string
    ``"tx_log"`` instead of True additionally records the global-order
    transaction-outcome log (``result.tx_log``).

    The machine is closed before the result is returned (see
    :meth:`repro.sim.machine.Machine.close`), so it is freed by
    refcounting as soon as this function returns.
    """
    machine_params = params.with_cpus(experiment.n_cpus)
    layout = PoolLayout(experiment.pool_size)
    machine = Machine(machine_params)
    # Pin program emission to the machine's resolved fallback mode so a
    # params-selected mode needs no matching environment variable.
    program = build_update_program(
        experiment.scheme,
        layout,
        n_vars=experiment.n_vars,
        iterations=experiment.iterations,
        fallback_mode=machine.fallback_mode,
    )
    for _ in range(experiment.n_cpus):
        machine.add_program(program)
    registry = (
        MetricsRegistry(tx_log=(metrics == "tx_log")).attach(machine)
        if metrics else None
    )
    result = machine.run(max_cycles=max_cycles)
    if registry is not None:
        result.metrics = registry.summary()
        registry.detach()
    machine.close()
    return result


#: Baseline cache: (params, iterations) -> raw throughput.
_BASELINES: Dict[Tuple[MachineParams, int], float] = {}


def baseline_throughput(params: MachineParams = ZEC12,
                        iterations: int = 50) -> float:
    """Raw throughput of the normalisation point: 2 CPUs, pool of 1,
    single-variable updates, transactional (TBEGIN)."""
    key = (params, iterations)
    if key not in _BASELINES:
        result = run_update_experiment(
            UpdateExperiment("tbegin", n_cpus=2, pool_size=1, n_vars=1,
                             iterations=iterations),
            params,
        )
        _BASELINES[key] = result.throughput
    return _BASELINES[key]


def normalized_throughput(
    experiment: UpdateExperiment, params: MachineParams = ZEC12
) -> float:
    """Normalised throughput of one benchmark point (baseline = 100)."""
    result = run_update_experiment(experiment, params)
    return result.normalized_throughput(
        baseline_throughput(params, experiment.iterations)
    )


@dataclass(frozen=True)
class SweepPoint:
    """One point of a figure series."""

    scheme: str
    n_cpus: int
    throughput: float
    abort_rate: float
    #: Metrics summary for the point's run (metrics-enabled sweeps only);
    #: excluded from equality so metrics-on and -off sweeps compare equal.
    metrics: Optional[Dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )


def sweep(
    schemes: Sequence[str],
    cpu_counts: Sequence[int],
    pool_size: int,
    n_vars: int,
    iterations: int = 50,
    params: MachineParams = ZEC12,
    metrics: bool = False,
) -> List[SweepPoint]:
    """Run a full figure panel: every scheme at every CPU count."""
    base = baseline_throughput(params, iterations)
    points: List[SweepPoint] = []
    for scheme in schemes:
        for n_cpus in cpu_counts:
            result = run_update_experiment(
                UpdateExperiment(scheme, n_cpus, pool_size, n_vars,
                                 iterations),
                params,
                metrics=metrics,
            )
            points.append(
                SweepPoint(
                    scheme=scheme,
                    n_cpus=n_cpus,
                    throughput=result.normalized_throughput(base),
                    abort_rate=result.abort_rate,
                    metrics=result.metrics,
                )
            )
    return points


def format_sweep(points: Iterable[SweepPoint], title: str = "") -> str:
    """Render sweep points as the rows a figure would plot."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'scheme':<14} {'CPUs':>5} {'throughput':>11} {'aborts':>8}")
    for p in points:
        lines.append(
            f"{p.scheme:<14} {p.n_cpus:>5} {p.throughput:>11.1f} "
            f"{p.abort_rate:>7.1%}"
        )
    return "\n".join(lines)


#: The CPU grid used by the full figure reproductions (log-ish spacing,
#: matching the paper's 2..100 axis and crossing the chip boundary at 6
#: and the MCM boundary at 24).
DEFAULT_CPU_GRID = (2, 3, 4, 5, 6, 8, 10, 16, 24, 32, 48, 64, 80, 100)
#: A reduced grid for quick runs and the pytest-benchmark targets.
QUICK_CPU_GRID = (2, 4, 6, 12, 24, 48)
