"""CLI for the TM correctness fuzzer.

Examples::

    python -m repro.verify --cases 200 --seed 0
    python -m repro.verify --seconds 45 --seed 3 --corpus-dir tests/corpus
    python -m repro.verify --replay tests/corpus
"""

from __future__ import annotations

import argparse
import sys

from .fuzzer import fuzz, replay_corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Serializability fuzzer for the TM engine",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of the deterministic case sequence")
    parser.add_argument("--cases", type=int, default=None,
                        help="number of cases to run")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--corpus-dir", default=None,
                        help="write shrunk failing cases here as JSON")
    parser.add_argument("--no-shrink", action="store_true",
                        help="archive failures unshrunk (faster triage)")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many distinct failures")
    parser.add_argument("--footprint-policy", default=None,
                        help="pin every generated case to this footprint-"
                             "policy spec (e.g. zec12, no-lru-extension, "
                             "power-spill:128, bounded:64,16); default "
                             "leaves cases unpinned so the engine resolves "
                             "the policy (incl. $REPRO_FOOTPRINT_POLICY)")
    parser.add_argument("--fallback-mode", default="",
                        choices=("", "lock", "stm"),
                        help="fuzz hybrid-TM histories: 'stm' generates "
                             "retry-exhausting cases whose fallback path "
                             "runs under the orec STM concurrently with "
                             "hardware transactions (default: classic "
                             "lock-era case stream)")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="re-check every corpus case in DIR instead "
                             "of fuzzing")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.replay is not None:
        results = replay_corpus(args.replay)
        bad = 0
        for path, violations in results:
            if violations:
                bad += 1
                print(f"FAIL {path}")
                for violation in violations:
                    print(f"  - {violation}")
            elif not args.quiet:
                print(f"ok   {path}")
        print(f"{len(results)} corpus case(s), {bad} failing")
        return 1 if bad else 0

    if args.cases is None and args.seconds is None:
        args.cases = 200

    def progress(index, failure):
        if failure is not None:
            print(f"case {index} (seed {failure.seed}): "
                  f"{len(failure.violations)} violation(s)")
            for violation in failure.violations:
                print(f"  - {violation}")
            if failure.corpus_path:
                print(f"  shrunk case written to {failure.corpus_path}")
        elif not args.quiet and index and index % 50 == 0:
            print(f"... {index} cases, all oracles green")

    report = fuzz(
        seed=args.seed,
        n_cases=args.cases,
        seconds=args.seconds,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        on_progress=progress,
        footprint_policy=args.footprint_policy,
        fallback_mode=args.fallback_mode,
    )
    status = "FAILED" if report.failures else "passed"
    print(
        f"{report.cases_run} case(s) in {report.elapsed:.1f}s "
        f"({report.cases_per_s:.0f} cases/s), "
        f"{len(report.failures)} failure(s) — {status}"
    )
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
