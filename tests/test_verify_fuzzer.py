"""Tests for the serializability oracle and schedule-perturbation fuzzer.

Three layers of confidence:

* a bounded fixed-seed fuzz run must come back green (the engine
  satisfies the oracles over a few hundred random schedules);
* *oracle sensitivity*: each oracle must actually fire when its property
  is broken — we corrupt final memory, leak a canary, zero an NTSTG
  slot, and tamper with the transaction log, and assert the specific
  violation appears (a fuzzer whose checks cannot fail proves nothing);
* the infrastructure itself is deterministic: same seed, same case,
  same run, same shrink — on every machine and Python version.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.verify import (
    ScheduleJitter,
    case_from_json,
    case_seed,
    case_to_json,
    check_case,
    check_outcome,
    fuzz,
    generate_case,
    replay,
    run_case,
    shrink_case,
    validate_case,
)
from repro.verify.dsl import SHARED_BASE, tracked_addresses
from repro.verify.reference import ReplayError

FUZZ_SEED = 0
FUZZ_CASES = 120


def _blank_block(bid, ops, fate="commit", **overrides):
    block = {
        "id": bid,
        "mode": "tbegin",
        "fate": fate,
        "fault": None if fate == "commit" else "tabort",
        "pifc": 0,
        "nest": None,
        "ntstg_slot": None,
        "fault_token": 0,
        "canary": None,
        "ops": ops,
    }
    block.update(overrides)
    return block


def _two_writer_case():
    """Two CPUs, each committing one write to the same shared variable."""
    return {
        "schema": "repro.verify/1",
        "n_cpus": 2,
        "pool": [SHARED_BASE],
        "init": [],
        "schedule_seed": 1,
        "jitter": 0,
        "speculation": False,
        "max_cycles": 3_000_000,
        "programs": [
            [["tx", _blank_block(0, [["write", SHARED_BASE, 7]])]],
            [["tx", _blank_block(1, [["write", SHARED_BASE, 9]])]],
        ],
    }


class TestFuzzRun:
    def test_fixed_seed_sweep_is_green(self):
        report = fuzz(seed=FUZZ_SEED, n_cases=FUZZ_CASES, shrink=False)
        assert report.cases_run == FUZZ_CASES
        assert report.ok, [f.violations for f in report.failures]

    def test_case_seed_sequence_is_stable(self):
        # Pinned values: the corpus and CI matrix rely on this mapping.
        assert case_seed(0, 0) == 0
        assert case_seed(0, 7) == 7
        assert case_seed(3, 2) == (3 * 1_000_003 + 2)
        assert 0 <= case_seed(12345, 999) <= 0x7FFF_FFFF

    def test_fuzz_requires_a_bound(self):
        with pytest.raises(ValueError):
            fuzz(seed=0)


class TestGeneratorDeterminism:
    def test_same_seed_same_case(self):
        assert generate_case(1234) == generate_case(1234)

    def test_cases_round_trip_through_json(self):
        for seed in (0, 1, 99):
            case = generate_case(seed)
            assert case_from_json(case_to_json(case)) == case

    def test_generated_cases_validate(self):
        for seed in range(30):
            validate_case(generate_case(seed))

    def test_run_case_is_deterministic(self):
        case = generate_case(5)
        a, b = run_case(case), run_case(copy.deepcopy(case))
        assert a.result.tx_log == b.result.tx_log
        for addr in sorted(tracked_addresses(case)):
            assert (a.machine.memory.read_int(addr, 8)
                    == b.machine.memory.read_int(addr, 8))

    def test_schedule_jitter_is_a_seeded_stream(self):
        a = ScheduleJitter(7, 40)
        b = ScheduleJitter(7, 40)
        pairs = [(i, lat) for i in range(50) for lat in (0, 1, 9)]
        seq_a = [a(i, lat) for i, lat in pairs]
        seq_b = [b(i, lat) for i, lat in pairs]
        assert seq_a == seq_b
        assert all(lat <= out <= lat + 40
                   for (_, lat), out in zip(pairs, seq_a))

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_schedule_jitter_draws_match_randrange(self, seed):
        # The jitter's hand-rolled rejection sampling must reproduce
        # ``randrange(magnitude + 1)`` draw for draw: the schedules of
        # every pinned fuzz case depend on the stream.
        for magnitude in (0, 1, 2, 3, 7, 8, 9, 63, 64, 100):
            jitter = ScheduleJitter(seed, magnitude)
            reference = random.Random(seed)
            drawn = [jitter(0, 5) - 5 for _ in range(10_000)]
            expected = [reference.randrange(magnitude + 1)
                        for _ in range(10_000)]
            assert drawn == expected, f"magnitude {magnitude}"


class TestOracleSensitivity:
    """Every oracle must fire when its property is violated."""

    def _failing_canary_case(self):
        # A canary slot is only ever stored transactionally on a path
        # that always aborts; pre-loading it via init simulates an abort
        # whose store leaked to memory.
        for seed in range(50):
            case = generate_case(seed)
            for program in case["programs"]:
                for event in program:
                    if (event[0] == "tx" and event[1]["fate"] != "commit"
                            and event[1].get("canary") is not None):
                        case["init"].append([event[1]["canary"], 999])
                        return case
        raise AssertionError("no generated case had a fault-path canary")

    def test_leaked_canary_is_detected(self):
        violations = check_case(self._failing_canary_case())
        assert any("abort invisibility" in v for v in violations)

    def test_corrupted_final_state_is_detected(self):
        case = generate_case(3)
        outcome = run_case(case)
        assert not check_outcome(case, outcome)
        addr = case["pool"][0]
        outcome.machine.memory.write_int(addr, 31999, 8)
        violations = check_outcome(case, outcome)
        assert any("final state" in v and f"0x{addr:x}" in v
                   for v in violations)

    def test_lost_ntstg_is_detected(self):
        # Find a case where a fault path demonstrably ran (the log shows
        # the injected abort code) and zero its surviving NTSTG slot.
        for seed in range(80):
            case = generate_case(seed)
            outcome = run_case(case)
            assert not check_outcome(case, outcome)
            for program in case["programs"]:
                for event in program:
                    if event[0] != "tx":
                        continue
                    block = event[1]
                    slot = block.get("ntstg_slot")
                    if slot is None or block["fate"] == "commit":
                        continue
                    if outcome.machine.memory.read_int(slot, 8) == 0:
                        continue  # fault path lost the race; keep looking
                    outcome.machine.memory.write_int(slot, 0, 8)
                    violations = check_outcome(case, outcome)
                    assert any("NTSTG survival" in v for v in violations)
                    return
        raise AssertionError("no case exercised an NTSTG fault path")

    def test_dropped_commit_entry_is_detected(self):
        case = generate_case(3)
        outcome = run_case(case)
        entries = outcome.result.tx_log["entries"]
        index = next(i for i, e in enumerate(entries) if e[1] == "commit")
        del entries[index]
        violations = check_outcome(case, outcome)
        assert any("committed 0 times, expected 1" in v for v in violations)

    def test_tampered_write_set_is_detected(self):
        case = _two_writer_case()
        outcome = run_case(case)
        assert not check_outcome(case, outcome)
        entry = next(e for e in outcome.result.tx_log["entries"]
                     if e[1] == "commit")
        entry[7] = entry[7][:-1]  # drop one committed write line
        violations = check_outcome(case, outcome)
        assert any("static store footprint" in v for v in violations)

    def test_reordered_conflicting_commits_are_detected(self):
        # Both blocks write the same address with different tokens, so
        # swapping their log entries claims a serialization order whose
        # sequential replay ends in the other token.
        case = _two_writer_case()
        outcome = run_case(case)
        assert not check_outcome(case, outcome)
        entries = outcome.result.tx_log["entries"]
        commits = [i for i, e in enumerate(entries) if e[1] == "commit"]
        assert len(commits) == 2
        i, j = commits
        entries[i], entries[j] = entries[j], entries[i]
        violations = check_outcome(case, outcome)
        assert any("final state" in v for v in violations)

    def test_crash_during_check_counts_as_failure(self):
        report = fuzz(seed=0, n_cases=1, shrink=False)
        assert report.ok
        # A case the runner cannot even start must be reported as a
        # crash finding, not raise out of the fuzz loop.
        from repro.verify import fuzzer as fuzzer_mod
        broken = generate_case(0)
        broken["max_cycles"] = -1
        assert any(v.startswith("crash:")
                   for v in fuzzer_mod._check_safely(broken))


class TestShrinker:
    def _planted_failure(self):
        case = generate_case(0)
        for program in case["programs"]:
            for event in program:
                if (event[0] == "tx" and event[1]["fate"] != "commit"
                        and event[1].get("canary") is not None):
                    case["init"].append([event[1]["canary"], 999])
                    return case
        raise AssertionError("seed 0 no longer generates a canary block")

    @staticmethod
    def _size(case):
        return sum(
            len(program)
            + sum(len(e[1]["ops"]) for e in program if e[0] == "tx")
            for program in case["programs"]
        )

    def test_shrink_reduces_and_preserves_failure(self):
        case = self._planted_failure()
        assert check_case(case)
        shrunk = shrink_case(case)
        assert check_case(shrunk)
        assert self._size(shrunk) < self._size(case)
        assert shrunk["n_cpus"] <= case["n_cpus"]
        validate_case(shrunk)

    def test_shrink_is_deterministic(self):
        case = self._planted_failure()
        assert shrink_case(case) == shrink_case(copy.deepcopy(case))

    def test_shrink_keeps_passing_case_untouched(self):
        case = generate_case(2)
        assert not check_case(case)
        # shrink_case requires a failing input by contract.
        assert shrink_case(case) == case


class TestCaseValidation:
    def test_unknown_schema_rejected(self):
        case = generate_case(0)
        case["schema"] = "repro.verify/999"
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_duplicate_block_ids_rejected(self):
        case = _two_writer_case()
        case["programs"][1][0][1]["id"] = 0
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_constrained_blocks_cannot_nest_or_fault(self):
        case = _two_writer_case()
        block = case["programs"][0][0][1]
        block["mode"] = "tbeginc"
        block["fate"] = "abort_once"
        block["fault"] = "tabort"
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_fault_required_for_aborting_fates(self):
        case = _two_writer_case()
        case["programs"][0][0][1]["fate"] = "doomed"
        with pytest.raises(ConfigurationError):
            validate_case(case)

    def test_tracked_addresses_exclude_fault_furniture(self):
        case = _two_writer_case()
        block = case["programs"][0][0][1]
        block["fate"] = "abort_once"
        block["fault"] = "tabort"
        block["ntstg_slot"] = 0x20_0100
        block["fault_token"] = 5
        block["canary"] = 0x20_0108
        tracked = tracked_addresses(case)
        assert SHARED_BASE in tracked
        assert 0x20_0100 not in tracked
        assert 0x20_0108 not in tracked


class TestReference:
    def test_replay_orders_conflicting_writers(self):
        case = _two_writer_case()
        first = replay(case, [(0, 0), (1, 0)])
        second = replay(case, [(1, 0), (0, 0)])
        assert first[SHARED_BASE] == 9
        assert second[SHARED_BASE] == 7

    def test_replay_rejects_skipping_a_committing_block(self):
        case = _two_writer_case()
        with pytest.raises(ReplayError):
            replay(case, [(0, 0)])  # block 1 never commits

    def test_replay_rejects_double_commit(self):
        case = _two_writer_case()
        with pytest.raises(ReplayError):
            replay(case, [(0, 0), (0, 0), (1, 0)])


class TestCli:
    def test_cli_green_run(self, capsys):
        from repro.verify.__main__ import main
        assert main(["--cases", "5", "--seed", "0", "--quiet"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_cli_summary_reports_throughput(self, capsys):
        import re

        from repro.verify.__main__ import main
        assert main(["--cases", "3", "--seed", "0", "--quiet"]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.match(
            r"3 case\(s\) in \d+\.\d+s \(\d+ cases/s\), 0 failure\(s\)",
            summary,
        ), summary

    def test_report_cases_per_s(self):
        from repro.verify.fuzzer import FuzzReport

        assert FuzzReport(seed=0).cases_per_s == 0.0
        assert FuzzReport(seed=0, cases_run=30, elapsed=2.0).cases_per_s == 15.0

    def test_cli_replay_corpus(self, tmp_path, capsys):
        from repro.verify.__main__ import main
        case = generate_case(1)
        (tmp_path / "case.json").write_text(case_to_json(case))
        assert main(["--replay", str(tmp_path), "--quiet"]) == 0
        assert "1 corpus case(s), 0 failing" in capsys.readouterr().out

    def test_cli_replay_flags_failing_corpus_case(self, tmp_path, capsys):
        from repro.verify.__main__ import main
        case = generate_case(0)
        planted = False
        for program in case["programs"]:
            for event in program:
                if (event[0] == "tx" and event[1]["fate"] != "commit"
                        and event[1].get("canary") is not None):
                    case["init"].append([event[1]["canary"], 999])
                    planted = True
                    break
            if planted:
                break
        assert planted
        (tmp_path / "bad.json").write_text(case_to_json(case))
        assert main(["--replay", str(tmp_path)]) == 1
        assert "1 failing" in capsys.readouterr().out

    def test_failure_archived_to_corpus_dir(self, tmp_path):
        # Route the fuzzer through a generator whose output fails, via a
        # corpus write from a hand-planted failing case.
        from repro.verify.fuzzer import Failure, _write_failure
        case = generate_case(0)
        failure = Failure(index=0, seed=42, violations=["boom"], case=case)
        path = _write_failure(str(tmp_path), failure)
        with open(path) as handle:
            stored = json.load(handle)
        assert stored["found_violations"] == ["boom"]
        validate_case(stored)
