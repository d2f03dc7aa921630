"""The footprint policy and the fallback mode come from ``MachineParams``
alone.

Exporting the names of the retired selector variables must change
neither the resolved modes nor any simulated result: an unpinned corpus
case, fuzz case or sweep point means the same thing in every shell.
"""

import json
import os

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.core.footprint import resolve_policy_spec
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.stm import resolve_fallback_mode
from repro.verify.oracle import run_case

#: Non-default modes the retired variables once selected.
RETIRED_SELECTORS = {
    "REPRO_FOOTPRINT_POLICY": "bounded:8,4",
    "REPRO_FALLBACK_MODE": "stm",
}

CORPUS_CASE = os.path.join(os.path.dirname(__file__), "corpus",
                           "conflicting-writers.json")

#: The 12-CPU TBEGIN point of the Figure 5(c) sweep.
TBEGIN_12 = UpdateExperiment("tbegin", 12, 10, 4, iterations=15)


def _unset_then_exported(monkeypatch, run):
    for name in RETIRED_SELECTORS:
        monkeypatch.delenv(name, raising=False)
    unset = run()
    for name, value in RETIRED_SELECTORS.items():
        monkeypatch.setenv(name, value)
    return unset, run()


def test_resolution_ignores_the_environment(monkeypatch):
    for name, value in RETIRED_SELECTORS.items():
        monkeypatch.setenv(name, value)
    assert resolve_policy_spec(ZEC12) == "zec12"
    assert resolve_fallback_mode(ZEC12) == "lock"
    machine = Machine(ZEC12)
    assert (machine.footprint_policy, machine.fallback_mode) == (
        "zec12", "lock")
    machine.close()


def test_unpinned_corpus_case_ignores_the_environment(monkeypatch):
    with open(CORPUS_CASE) as handle:
        case = json.load(handle)
    assert "footprint_policy" not in case and "fallback_mode" not in case
    unset, exported = _unset_then_exported(
        monkeypatch, lambda: run_case(case).result)
    assert exported == unset


def test_unpinned_sweep_point_ignores_the_environment(monkeypatch):
    unset, exported = _unset_then_exported(
        monkeypatch, lambda: run_update_experiment(TBEGIN_12, params=ZEC12))
    assert exported == unset
    assert sum(c.sw_committed for c in exported.cpus) == 0
