"""A finished machine is freed by refcounting, not by the cyclic collector.

:meth:`repro.sim.machine.Machine.close` breaks the back-edges that make
a machine one big reference cycle. These tests run every library owner
that discards a machine after reading its result with the collector
disabled, hold weak references to the machine, its engines, drivers,
fabric, scheduler and transaction log, and check that all of them die
the moment the owner's result is dropped — with no ``gc.collect()``.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.bench.capacity import capacity_point
from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.lru import footprint_abort_rate
from repro.core.engine import TxEngine
from repro.core.footprint import POLICY_NAMES
from repro.cpu.assembler import assemble
from repro.cpu.isa import AGSI, HALT, Mem
from repro.errors import ConfigurationError
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.metrics import TxLog
from repro.verify import oracle
from repro.verify.dsl import tracked_addresses
from repro.verify.fuzzer import case_seed
from repro.verify.generator import generate_case
from repro.workloads.queue import QueueExperiment, run_queue_experiment


class _Tracked:
    """Weak references to every machine (and tx log) built while active."""

    def __init__(self) -> None:
        self.refs = []

    def add(self, obj) -> None:
        self.refs.append((type(obj).__name__, weakref.ref(obj)))

    def alive(self):
        return sorted({name for name, ref in self.refs if ref() is not None})


@pytest.fixture
def tracked(monkeypatch):
    """Record each run machine's parts; the collector is off meanwhile."""
    tracker = _Tracked()
    original_run = Machine.run

    def run(self, *args, **kwargs):
        result = original_run(self, *args, **kwargs)
        for obj in (self, self.fabric, self.scheduler, *self.engines,
                    *self.drivers):
            tracker.add(obj)
        return result

    class WeakTxLog(TxLog):
        # A subclass without __slots__, so the log is weak-referenceable.
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            tracker.add(self)

    original_engine_init = TxEngine.__init__

    def engine_init(self, *args, **kwargs):
        # Engines built without a machine (the footprint and capacity
        # points) are tracked from birth, with their fabric.
        original_engine_init(self, *args, **kwargs)
        tracker.add(self)
        tracker.add(self.fabric)

    monkeypatch.setattr(Machine, "run", run)
    monkeypatch.setattr(TxEngine, "__init__", engine_init)
    monkeypatch.setattr(oracle, "TxLog", WeakTxLog)
    gc.collect()
    gc.disable()
    try:
        yield tracker
    finally:
        gc.enable()


def _find_case(predicate, fallback_mode=""):
    for index in range(200):
        case = generate_case(case_seed(0, index), fallback_mode)
        if predicate(case):
            return case
    raise AssertionError("no generated case matches")


def _assert_freed(tracker) -> None:
    assert tracker.refs, "no machine was run"
    assert tracker.alive() == []


@pytest.mark.parametrize("fallback_mode", ["", "stm"])
@pytest.mark.parametrize("jitter", [False, True])
def test_run_case_frees_the_machine(tracked, fallback_mode, jitter):
    case = _find_case(lambda c: (c["jitter"] > 0) == jitter, fallback_mode)
    outcome = oracle.run_case(case)
    assert oracle.check_outcome(case, outcome) == []
    assert len(tracked.refs) >= 4
    del outcome
    _assert_freed(tracked)


def test_reference_check_frees_both_machines(tracked, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    case = _find_case(lambda c: c["jitter"] > 0)
    outcome = oracle.run_case(case)
    # The checked run and its spin-elision-off reference machine.
    assert sum(name.endswith("Machine") for name, _ in tracked.refs) == 2
    del outcome
    _assert_freed(tracked)


@pytest.mark.parametrize("scheme", ["coarse", "tbeginc"])
@pytest.mark.parametrize("metrics", [False, "tx_log"])
def test_update_experiment_frees_the_machine(tracked, scheme, metrics):
    result = run_update_experiment(
        UpdateExperiment(scheme, 3, 4, 4, iterations=10), metrics=metrics)
    assert result.cycles > 0
    del result
    _assert_freed(tracked)


def test_queue_experiment_frees_htm_threads(tracked):
    result = run_queue_experiment(
        QueueExperiment(3, use_tx=True, operations=10))
    assert result.cycles > 0
    assert any(name == "HtmThread" for name, _ in tracked.refs)
    del result
    _assert_freed(tracked)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_every_footprint_policy_is_freed(tracked, policy):
    case = dict(_find_case(lambda c: True), footprint_policy=policy)
    outcome = oracle.run_case(case)
    assert outcome.machine.footprint_policy == policy
    del outcome
    _assert_freed(tracked)


def test_standalone_engine_points_free_engine_and_fabric(tracked):
    assert 0.0 <= footprint_abort_rate(300, True, trials=2) <= 1.0
    assert capacity_point("power-spill", 300, trials=2).abort_rate >= 0.0
    _assert_freed(tracked)


def _loaded_machine() -> Machine:
    machine = Machine(ZEC12.with_cpus(2))
    program = assemble([AGSI(Mem(disp=0x2000), 1), HALT()])
    machine.add_program(program)
    machine.add_program(program)
    machine.memory.write_int(0x3000, 77, 8)
    return machine


def test_close_frees_a_machine_with_interrupt_injection(tracked):
    # The scheduler's pre-step hook is a method of the machine.
    machine = _loaded_machine()
    machine.external_interrupt_interval = 50
    machine.run()
    machine.close()
    del machine
    _assert_freed(tracked)


def test_close_is_idempotent_and_final():
    machine = _loaded_machine()
    result = machine.run()
    machine.close()
    machine.close()
    assert machine.memory.read_int(0x3000, 8) == 77
    assert machine.memory.read_int(0x2000, 8) == 2
    assert machine.params.topology.total_cores >= 2
    assert result.cycles > 0 and len(result.cpus) == 2
    with pytest.raises(ConfigurationError):
        machine.run()
    with pytest.raises(ConfigurationError):
        machine.add_program(assemble([HALT()]))


def test_close_before_run_is_final():
    machine = _loaded_machine()
    machine.close()
    with pytest.raises(ConfigurationError):
        machine.run()


def _unclosed_outcome(case):
    """``run_case`` without the close: the machine keeps its cycles."""
    machine, lowered = oracle.build_case_machine(case)
    log = TxLog().attach(machine)
    result = machine.run(max_cycles=case["max_cycles"])
    result.metrics = {"tx_log": log.to_dict()}
    return oracle.CaseOutcome(result=result, machine=machine,
                              lowered=lowered)


def test_check_outcome_agrees_on_closed_and_unclosed_machines():
    verdicts = []
    for index in range(50):
        case = generate_case(case_seed(3, index),
                             "stm" if index % 4 == 3 else "")
        closed = oracle.run_case(case)
        unclosed = _unclosed_outcome(case)
        if index % 2:
            # Corrupt one tracked word on both, so the oracles have a
            # violation to find as well as clean runs to pass.
            addr = min(tracked_addresses(case))
            for outcome in (closed, unclosed):
                outcome.machine.memory.write_int(addr, 31999, 8)
        verdict = oracle.check_outcome(case, closed)
        assert verdict == oracle.check_outcome(case, unclosed)
        verdicts.append(bool(verdict))
    assert any(verdicts) and not all(verdicts)
