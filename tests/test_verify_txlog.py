"""The verify oracles' tx-log-only recording path.

``run_case`` records a case with a bare :class:`~repro.sim.metrics.TxLog`
instead of a full ``MetricsRegistry(tx_log=True)``: the oracles read
nothing but the log. That is only sound if the registry's hooks have no
architected side effects, so every case here runs twice — once through
``run_case``, once observed by the full registry — and the two runs must
agree on the result, the scheduler counters, the log and the final
memory image.
"""

from __future__ import annotations

import functools

import pytest

from repro.errors import ConfigurationError
from repro.sim.metrics import MetricsRegistry, TxLog
from repro.verify import case_seed, check_outcome, generate_case, run_case
from repro.verify.oracle import build_case_machine

SEED = 11
N_CASES = 64


@functools.lru_cache(maxsize=None)
def _cases():
    # Every fourth case fuzzes hybrid (stm fallback) histories, as the
    # benchmark's fuzz workload does.
    return tuple(
        generate_case(case_seed(SEED, index), "stm" if index % 4 == 3 else "")
        for index in range(N_CASES)
    )


def _pages(machine):
    return {page: bytes(data) for page, data in machine.memory._pages.items()}


def _registry_run(case):
    machine, _lowered = build_case_machine(case)
    registry = MetricsRegistry(tx_log=True).attach(machine)
    result = machine.run(max_cycles=case["max_cycles"])
    return machine, result, registry.summary()


def test_case_mix_covers_modes_and_jitter():
    kinds = {
        (case.get("fallback_mode") or "lock", case["jitter"] > 0)
        for case in _cases()
    }
    assert kinds == {("lock", True), ("lock", False),
                     ("stm", True), ("stm", False)}


@pytest.mark.parametrize("index", range(N_CASES))
def test_tx_log_only_run_equals_full_registry_run(index):
    case = _cases()[index]
    outcome = run_case(case)
    machine, result, summary = _registry_run(case)
    ours = outcome.result
    assert ours.cycles == result.cycles
    assert ours.aborted_early == result.aborted_early
    assert ours.cpus == result.cpus
    assert ours.sched == result.sched
    assert ours.tx_log == summary["tx_log"]
    assert _pages(outcome.machine) == _pages(machine)
    # The registry really observed the run (its hooks fired), and the
    # log-only run records nothing else.
    assert summary["totals"]["commits"] + summary["totals"]["aborts"] == sum(
        1 for entry in ours.tx_log["entries"]
        if entry[1] in ("commit", "abort")
    )
    assert set(ours.metrics) == {"tx_log"}
    assert check_outcome(case, outcome) == []


class TestTxLogAttach:
    def test_attach_twice_is_rejected(self):
        machine, _ = build_case_machine(_cases()[0])
        log = TxLog().attach(machine)
        with pytest.raises(ConfigurationError):
            log.attach(machine)

    def test_attach_needs_cpus(self):
        from repro.sim.machine import Machine

        with pytest.raises(ConfigurationError):
            TxLog().attach(Machine())

    def test_detach_stops_recording_and_keeps_entries(self):
        case = _cases()[0]
        machine, _ = build_case_machine(case)
        log = TxLog().attach(machine)
        machine.run(max_cycles=case["max_cycles"])
        recorded = log.to_dict()
        assert recorded["entries"]
        log.detach()
        assert all(engine.metrics is None for engine in machine.engines)
        assert log.to_dict() == recorded

    def test_registry_detach_releases_its_log_taps(self):
        machine, _ = build_case_machine(_cases()[0])
        registry = MetricsRegistry(tx_log=True).attach(machine)
        registry.detach()
        assert all(engine.metrics is None for engine in machine.engines)
