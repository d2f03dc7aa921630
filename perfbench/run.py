"""The repository benchmark: host-time speed of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload lock-storm|tx-sweep|fuzz
                             [--seed N] [--seconds S] [--trace 0|1]

One process, one thread. The workload's fixed work list (see
``workloads.py``) is run in passes until ``--seconds`` have elapsed (at
least three passes); every item is timed on its own, checked against
the pinned goldens or the verify oracles, and compared with its first
pass (the simulator is deterministic). An item's time is its median
over the passes, scaled to a reference host speed by a calibration
kernel timed between items (``hostspeed.py``); the measured times are
printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
work list once untraced and once under the outside-in tracer
(``tracer.py``), checks that both give identical simulated results,
prints the per-layer metrics and writes the spans to
``perfbench/out/``. The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark builds nothing: it runs the simulator from ``src/`` next
to this directory, and exits with status 2 if that is missing.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Passes run regardless of ``--seconds``.
MIN_PASSES = 3
#: Fresh processes whose set-up time ``setup_s`` is the median of; they
#: are spread between the passes to sample the host's slow and fast
#: periods alike.
SETUP_RUNS = 5
#: Shown problems per run (all are counted).
SHOWN_PROBLEMS = 10

END_TO_END_UNITS = {
    "sim_insns_per_s": "1/s",
    "wall_s": "s",
    "point_max_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paper_err_pct": "%",
}


def require_source() -> None:
    """Put ``src/`` first on the path, or exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def resolved_modes():
    """The simulator modes this process runs under, and whether any
    ``REPRO_*`` variable overrides a default (then the run is not
    comparable with others)."""
    from repro.core.footprint import resolve_policy_spec
    from repro.params import ZEC12
    from repro.sim.scheduler import Scheduler
    from repro.stm import resolve_fallback_mode

    scheduler = Scheduler([])
    overrides = sorted(key for key in os.environ if key.startswith("REPRO_"))
    return {
        # Resolved the way IsaCpu resolves it.
        "spin_elide": os.environ.get("REPRO_SPIN_ELIDE", "1") != "0",
        "virtseq": scheduler.virtseq,
        "queue": type(scheduler._queue).__name__,
        "footprint_policy": resolve_policy_spec(ZEC12),
        "fallback_mode": resolve_fallback_mode(ZEC12),
        "overrides": overrides,
        "comparable": not overrides,
    }


def forbid_result_cache() -> None:
    """Make any read of the on-disk ``ResultCache`` fail loudly: a timed
    point must always be simulated, never served from disk."""
    from repro.bench import parallel

    def refuse(self, key):
        raise RuntimeError("the benchmark never serves a point from the "
                           "on-disk ResultCache")

    parallel.ResultCache.get = refuse


class Run:
    """Counts, checks and timings of one benchmark process."""

    def __init__(self, workloads, goldens) -> None:
        self.workloads = workloads
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: item name -> first fingerprint (the determinism reference).
        self.first = {}

    def execute(self, item):
        """Time, run and check one item; returns (seconds, observation)."""
        start = time.perf_counter()
        try:
            observation = item.run()
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            seconds = time.perf_counter() - start
            self.fail(item.name, f"{type(exc).__name__}: {exc}")
            return seconds, None
        seconds = time.perf_counter() - start
        self.attempted += 1
        problems = self.workloads.check(item, observation, self.goldens)
        reference = self.first.setdefault(item.name, observation.fingerprint)
        if reference != observation.fingerprint:
            problems.append(
                f"result differs from the reference run: "
                f"{observation.fingerprint} != {reference}")
        if problems:
            self.failed += 1
            self.problems.append(f"{item.name}: {'; '.join(problems)}")
        return seconds, observation

    def fail(self, name: str, problem: str, operation: bool = True) -> None:
        """Count a failure; ``operation=False`` for a check spanning
        operations already counted as attempted."""
        self.attempted += operation
        self.failed += 1
        self.problems.append(f"{name}: {problem}")

    def run_pass(self, items, samples=None, after_item=None):
        """One pass over ``items``; returns {name: observation}.

        With ``samples``, appends each item's ``(measured, scaled)``
        seconds, scaled by the host-speed calibrations that bracket it.
        ``after_item()`` runs after each item, outside its timing.
        """
        gc.collect()
        observations = {}
        before = hostspeed.calibrate() if samples is not None else None
        pending = []
        for item in items:
            seconds, observation = self.execute(item)
            if observation is not None:
                observations[item.name] = observation
            if after_item is not None:
                after_item()
            if samples is None:
                continue
            pending.append((item.name, seconds))
            if (sum(s for _, s in pending) >= hostspeed.INTERVAL_S
                    or item is items[-1]):
                after = hostspeed.calibrate()
                factor = hostspeed.scale(before, after)
                for name, measured in pending:
                    samples.setdefault(name, []).append(
                        (measured, measured * factor))
                before, pending = after, []
        for problem in self.workloads.check_footprint_pairs(observations):
            self.fail("footprint", problem, operation=False)
        return observations


def counters_of(workloads, observations):
    totals = dict.fromkeys(workloads.COUNTERS, 0)
    for observation in observations.values():
        for key, value in observation.counters.items():
            totals[key] += value
    return totals


def measure_setup(args) -> tuple:
    """``(measured, scaled)`` set-up seconds of one fresh process: from
    spawn to the child's ready line (interpreter start, imports, input
    build, one warm-up item)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    before = hostspeed.calibrate()
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        _out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed: {line!r} {err[-500:]}")
    return ready, ready * hostspeed.scale(before, hostspeed.calibrate())


def paper_scalars(run, workloads, observations):
    """S1-S3 from this run's observations, running the scalar points
    untimed when the workload does not include them."""
    needed = workloads.scalar_items()
    if not all(item.name in observations for item in needed):
        observations = dict(observations)
        observations.update(run.run_pass(
            [item for item in needed if item.name not in observations]))
    try:
        return workloads.paper_scalars(observations)
    except KeyError as exc:  # a failed scalar point, already counted
        run.fail("paper-scalars", f"missing result {exc}", operation=False)
        return None


def end_to_end(args, run, workloads, items, setup_main):
    from stats import item_medians, summarize, tail_latency

    samples = {}
    pass_seconds = []
    setup_times = []
    first = None
    while (len(pass_seconds) < MIN_PASSES
           or sum(pass_seconds) < args.seconds):
        began = time.perf_counter()
        observations = run.run_pass(items, samples)
        pass_seconds.append(time.perf_counter() - began)
        first = first or observations
        if len(setup_times) < SETUP_RUNS:
            setup_times.append(measure_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scaled = item_medians(samples, 1)
    measured = item_medians(samples, 0)
    counters = counters_of(workloads, first)
    points = {item.name: item.point for item in items}
    metrics = summarize(scaled, points, counters["instructions"])
    raw = summarize(measured, points, counters["instructions"])
    tail_label, _ = tail_latency(list(scaled.values()))
    scalars = paper_scalars(run, workloads, first)
    while len(setup_times) < SETUP_RUNS:
        setup_times.append(measure_setup(args))
    metrics["setup_s"] = statistics.median(t for _, t in setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb
    # A missing scalar point already failed the run; 0 marks no value.
    metrics["paper_err_pct"] = (workloads.paper_err_pct(scalars)
                                if scalars else 0.0)

    print(f"passes: {len(pass_seconds)} ("
          + " ".join(f"{t:.2f}" for t in pass_seconds) + "s); items per "
          f"pass: {len(items)}; simulated instructions per pass: "
          f"{counters['instructions']}")
    print(f"setup: this process {setup_main:.3f}s; fresh processes "
          + ", ".join(f"{t:.3f}" for t, _ in setup_times) + "s measured")
    print(f"host speed: times below are scaled to the calibration "
          f"kernel's reference; measured wall_s {raw['wall_s']:.4f}s, "
          f"scaled {metrics['wall_s']:.4f}s")
    print(f"case_p95_ms is the {tail_label} per-item medians")
    if scalars:
        paper = workloads.PAPER
        print("paper scalars (the model has no other reference data):")
        print(f"  S1 lock/TBEGIN cycles, 1 CPU       "
              f"{scalars['S1_lock_over_tbegin']:.4f} (paper "
              f"{paper['S1_lock_over_tbegin']})")
        print(f"  S1 TBEGINC vs TBEGIN delta         "
              f"{scalars['S1_tbeginc_delta']:.4f} (paper 0.004; "
              "not in paper_err_pct)")
        print(f"  S2 TBEGINC-100 / no-lock bound     "
              f"{scalars['S2_tbeginc_over_nolock']:.4f} (paper "
              f"{paper['S2_tbeginc_over_nolock']})")
        print(f"  S3 queue TX/lock, 4 threads        "
              f"{scalars['S3_queue_tx_over_lock']:.4f} (paper "
              f"~{paper['S3_queue_tx_over_lock']})")
    return {name: (metrics[name], unit)
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(args, run, workloads, items):
    from stats import ratio
    from tracer import BUILD_FUNCTIONS, Tracer

    untraced = {}
    run.run_pass(items, untraced)

    tracer = Tracer()
    seen = {"done": 0, "rejects": 0, "probe_hits": 0}
    fabrics = {}

    def on_fetch(call_args, outcome):
        if outcome is not None and outcome.done:
            seen["done"] += 1

    def on_xi(call_args, response):
        if response is not None and response[0].name == "REJECT":
            seen["rejects"] += 1

    def on_probe(call_args, _latency):
        fabrics[id(call_args[0])] = call_args[0]

    def harvest_probe_hits():
        seen["probe_hits"] += sum(f.stats_probe_hits
                                  for f in fabrics.values())
        fabrics.clear()

    tracer.observers.update({
        "CoherenceFabric.try_fetch": on_fetch,
        "TxEngine.receive_xi": on_xi,
        "CoherenceFabric.probe_latency": on_probe,
    })
    tracer.install()
    traced = {}
    try:
        observations = run.run_pass(items, traced,
                                    after_item=harvest_probe_hits)
    finally:
        tracer.uninstall()

    def wall(samples, field):
        return sum(times[0][field] for times in samples.values())

    # Layer times are scaled to the reference host speed like the
    # end-to-end times, with the traced pass's mean factor.
    speed = ratio(wall(traced, 1), wall(traced, 0))
    wall_traced = wall(traced, 1)
    wall_untraced = wall(untraced, 1)
    c = counters_of(workloads, observations)
    self_s = {layer: seconds * speed
              for layer, seconds in tracer.layer_self_s().items()}
    calls = tracer.layer_calls()
    step_calls = tracer.calls_of("IsaCpu.step")
    metrics = {
        "scheduler.self_s": (self_s["scheduler"], "s"),
        "scheduler.events": (c["events"], "count"),
        "scheduler.us_per_event": (
            ratio(1e6 * self_s["scheduler"], c["events"]), "us"),
        "scheduler.parked_share": (
            ratio(c["spin_steps"] + c["retry_ticks"], c["events"]), "share"),
        "scheduler.virtual_share": (
            ratio(c["virtual_events"], c["events"]), "share"),
        "interpreter.self_s": (self_s["interpreter"], "s"),
        "interpreter.step_calls": (step_calls, "count"),
        "interpreter.insns_per_step": (
            ratio(c["instructions"], step_calls), "ratio"),
        "engine.self_s": (self_s["engine"], "s"),
        "engine.calls": (calls["engine"], "count"),
        "engine.tx_commit_ratio": (
            ratio(c["tx_committed"], c["tx_started"]), "ratio"),
        "engine.xi_reject_ratio": (
            ratio(seen["rejects"], tracer.calls_of("TxEngine.receive_xi")),
            "ratio"),
        "fabric.self_s": (self_s["fabric"], "s"),
        "fabric.fetch_calls": (
            tracer.calls_of("CoherenceFabric.try_fetch"), "count"),
        "fabric.fetch_done_ratio": (
            ratio(seen["done"], tracer.calls_of("CoherenceFabric.try_fetch")),
            "ratio"),
        "fabric.probe_memo_hit_ratio": (
            ratio(seen["probe_hits"],
                  tracer.calls_of("CoherenceFabric.probe_latency")),
            "ratio"),
        "storecache.self_s": (self_s["storecache"], "s"),
        "storecache.calls": (calls["storecache"], "count"),
        "storequeue.self_s": (self_s["storequeue"], "s"),
        "memory.self_s": (self_s["memory"], "s"),
        "machine.build_s": (tracer.incl_s_of(BUILD_FUNCTIONS) * speed, "s"),
        "verify.lower_s": (self_s["verify.lower"], "s"),
        "verify.oracle_s": (self_s["verify.oracle"], "s"),
        "metrics.self_s": (self_s["metrics"], "s"),
        "stm.self_s": (self_s["stm"], "s"),
        "stm.sw_commit_ratio": (
            ratio(c["sw_committed"], c["sw_committed"] + c["sw_aborted"]),
            "ratio"),
        "htm.self_s": (self_s["htm"], "s"),
        "trace.overhead_ratio": (ratio(wall_traced, wall_untraced), "ratio"),
        "trace.unattributed_s": (wall_traced - sum(self_s.values()), "s"),
    }

    print(f"traced pass {wall_traced:.3f}s, untraced pass "
          f"{wall_untraced:.3f}s (scaled to the reference host speed by "
          f"{speed:.3f}); layer self time as a share of the traced pass:")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {seconds:8.3f}s {ratio(seconds, wall_traced):6.1%}"
              f" {calls[layer]:>10} calls")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "modes": resolved_modes(),
            "metrics": {name: value for name, (value, _unit)
                        in metrics.items()},
            "host_speed_factor": speed,
            "items": {name: {"traced_s": traced[name][0][0],
                             "untraced_s": untraced[name][0][0]}
                      for name in traced},
            "trace": tracer.to_dict(),
        }, handle)
        handle.write("\n")
    print(f"spans written to {os.path.relpath(path, ROOT)} "
          f"({len(tracer.spans)} boundary spans kept, "
          f"{tracer.dropped_spans} beyond the cap counted only)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lock-storm", "tx-sweep", "fuzz"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (set-up timing)")
    args = parser.parse_args(argv)

    require_source()
    import workloads
    from stats import failed_share

    forbid_result_cache()
    goldens = workloads.load_goldens()
    items = workloads.build(args.workload, args.seed)
    run = Run(workloads, goldens)
    run.execute(workloads.warmup_item(args.workload, args.seed))
    gc.collect()
    setup_main = time.perf_counter() - _T0
    if args.setup_only:
        print("ready", flush=True)
        return 0 if not run.failed else 1

    modes = resolved_modes()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("modes: " + ", ".join(f"{k}={v}" for k, v in modes.items()
                                if k not in ("overrides", "comparable")))
    if not modes["comparable"]:
        print("NOT COMPARABLE: environment overrides "
              + ", ".join(modes["overrides"]))

    if args.trace:
        metrics = per_layer(args, run, workloads, items)
    else:
        metrics = end_to_end(args, run, workloads, items, setup_main)

    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6g} {unit}")
    share = failed_share(run.attempted, run.failed)
    print(f"failed_share                   {share:>16.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:SHOWN_PROBLEMS]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
