"""Fuzzing driver: generate, run, check, shrink, archive.

One fuzz run walks a deterministic seed sequence derived from the base
seed, so ``fuzz(seed=S, n_cases=N)`` explores the identical cases on
every machine and Python version. Failures are shrunk greedily and
written to the corpus directory as self-contained JSON cases ready for
:func:`replay_corpus` (and the ``tests/corpus`` CI step) once fixed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .dsl import case_from_json, case_to_json
from .generator import generate_case
from .oracle import check_case
from .shrink import shrink_case


def case_seed(base_seed: int, index: int) -> int:
    """The generator seed of case ``index`` in run ``base_seed``."""
    return (base_seed * 1_000_003 + index) & 0x7FFF_FFFF


@dataclass
class Failure:
    """One failing case, before and after shrinking."""

    index: int
    seed: int
    violations: List[str]
    case: Dict[str, Any]
    shrunk: Optional[Dict[str, Any]] = None
    corpus_path: Optional[str] = None


@dataclass
class FuzzReport:
    seed: int
    cases_run: int = 0
    elapsed: float = 0.0
    failures: List[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cases_per_s(self) -> float:
        """Fuzzer throughput over the whole run (0.0 before any time
        has elapsed)."""
        return self.cases_run / self.elapsed if self.elapsed > 0 else 0.0


def _check_safely(case: Dict[str, Any]) -> List[str]:
    try:
        return check_case(case)
    except Exception as exc:  # noqa: BLE001 — a sim crash is a finding
        return [f"crash: {type(exc).__name__}: {exc}"]


def fuzz(
    seed: int = 0,
    n_cases: Optional[int] = None,
    seconds: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    shrink: bool = True,
    max_failures: int = 5,
    on_progress: Optional[Callable[[int, Optional[Failure]], None]] = None,
    footprint_policy: Optional[str] = None,
    fallback_mode: str = "",
) -> FuzzReport:
    """Run the fuzzer for ``n_cases`` cases and/or ``seconds`` seconds.

    At least one bound must be given. Stops early after ``max_failures``
    distinct failing cases (each shrink costs many simulations; a broken
    engine would otherwise eat the whole budget on one root cause).

    A non-None ``footprint_policy`` is stamped into every generated case
    before it runs, so the oracles check that policy and any archived
    failure replays under it. ``None`` leaves cases unpinned, which runs
    them under ``"zec12"``.

    ``fallback_mode="stm"`` fuzzes *hybrid* histories: generated cases
    pin the stm fallback, contain retry-exhausting hybrid blocks, and
    the oracles check the merged hardware/software commit order (see
    :func:`~repro.verify.generator.generate_case`).
    """
    if n_cases is None and seconds is None:
        raise ValueError("pass n_cases and/or seconds")
    report = FuzzReport(seed=seed)
    started = time.monotonic()
    deadline = started + seconds if seconds is not None else None
    index = 0
    while True:
        if n_cases is not None and index >= n_cases:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if len(report.failures) >= max_failures:
            break
        this_seed = case_seed(seed, index)
        case = generate_case(this_seed, fallback_mode)
        if footprint_policy is not None:
            # Survives shrinking (shrink_case deep-copies whole cases)
            # and archiving (validate_case ignores unknown keys).
            case["footprint_policy"] = footprint_policy
        violations = _check_safely(case)
        failure = None
        if violations:
            failure = Failure(index=index, seed=this_seed,
                              violations=violations, case=case)
            if shrink:
                failure.shrunk = shrink_case(case)
            if corpus_dir is not None:
                failure.corpus_path = _write_failure(corpus_dir, failure)
            report.failures.append(failure)
        report.cases_run += 1
        if on_progress is not None:
            on_progress(index, failure)
        index += 1
    report.elapsed = time.monotonic() - started
    return report


def _write_failure(corpus_dir: str, failure: Failure) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"fail-seed{failure.seed}.json")
    case = dict(failure.shrunk if failure.shrunk is not None
                else failure.case)
    # Informational only — validate_case ignores unknown top-level keys,
    # and replay re-derives violations from scratch.
    case["found_violations"] = failure.violations
    with open(path, "w") as handle:
        handle.write(case_to_json(case))
        handle.write("\n")
    return path


def replay_corpus(corpus_dir: str) -> List[Tuple[str, List[str]]]:
    """Re-check every ``*.json`` case under ``corpus_dir``.

    Returns ``(path, violations)`` pairs; all-empty violations means the
    corpus passes (regressions stay fixed).
    """
    results: List[Tuple[str, List[str]]] = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        with open(path) as handle:
            case = case_from_json(handle.read())
        results.append((path, _check_safely(case)))
    return results
