"""Run a verify case on the real machine and check the TM oracles.

The checks, in order:

1. the run terminates within the case's cycle budget and the
   transaction log lost no entries;
2. every log entry maps to a known (cpu, TBEGIN address) block, with the
   right constrained flag; doomed blocks never commit; every other block
   commits exactly once, in per-CPU program order;
3. **serializability**: replaying the case sequentially in the engine's
   reported commit order reproduces the machine's final memory exactly —
   over the shared pool, every private slot, and every read-log slot
   (transactional reads are self-logging, so observed values are part of
   the final state);
4. **abort invisibility**: fault-path canary stores (regular
   transactional stores on attempts that always abort) read zero;
5. **NTSTG survival**: a fault-path NTSTG slot holds its token whenever
   the log shows that block aborting with the injected fault's code (the
   fault path demonstrably ran), and holds zero or the token otherwise
   (a conflict abort may have beaten the fault path to it);
6. committed read/write line sets match the block's static footprint —
   write sets exactly; read sets exactly with speculation off, as a
   superset with speculative prefetching on.

Hybrid-TM cases add *mixed histories*: ``sw_commit``/``sw_abort`` log
entries from software (STM) transactions interleave with hardware
entries in the one serialization order, and the same replay oracle runs
over the merged commit order — a hybrid block counts as committed
whether its hardware body or its software fallback got there, software
canaries must stay invisible (STM redo-log abort), software NTSTGs
survive SABORTs, and software footprints check against the STM's
bookkeeping (exact, even with speculation on).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.abort import AbortCode
from ..params import ZEC12, MachineParams, Topology
from ..sim.machine import Machine
from ..sim.metrics import TxLog
from ..sim.results import SimResult
from .dsl import (
    iter_blocks,
    sabort_code,
    static_footprint,
    static_footprint_sw,
    tabort_code,
    tracked_addresses,
    validate_case,
)
from .jitter import ScheduleJitter
from .lowering import LoweredProgram, lower_program
from .reference import ReplayError, replay


def case_params(n_cpus: int, speculation: bool,
                footprint_policy: str = "",
                fallback_mode: str = "") -> MachineParams:
    """Small-topology machine parameters for verify runs.

    ``footprint_policy`` pins the case to one footprint-policy spec; the
    empty default means ``"zec12"``. ``fallback_mode`` pins the hybrid-TM
    fallback mode the same way (empty means ``"lock"``; cases with hybrid
    blocks always pin ``"stm"``).
    """
    cores = max(2, n_cpus)
    return dataclasses.replace(
        ZEC12,
        topology=Topology(
            cores_per_chip=min(cores, 6),
            chips_per_mcm=2,
            mcms=max(1, -(-n_cpus // (min(cores, 6) * 2))),
        ),
        speculation=speculation,
        footprint_policy=footprint_policy,
        fallback_mode=fallback_mode,
    )


@dataclass
class CaseOutcome:
    """One executed case, with everything the checks need.

    ``machine`` is closed (see :meth:`repro.sim.machine.Machine.close`):
    its ``memory`` and ``params`` stay readable for the oracles, but it
    cannot run again.
    """

    result: SimResult
    machine: Machine
    lowered: List[LoweredProgram]


def build_case_machine(
    case: Dict[str, Any],
) -> Tuple[Machine, List[LoweredProgram]]:
    """Lower ``case`` and build its machine, ready to run: programs
    loaded, initial memory written, schedule jitter installed."""
    validate_case(case)
    lowered = [
        lower_program(cpu, events)
        for cpu, events in enumerate(case["programs"])
    ]
    machine = Machine(case_params(case["n_cpus"], case["speculation"],
                                  case.get("footprint_policy", ""),
                                  case.get("fallback_mode", "")))
    for lp in lowered:
        machine.add_program(lp.program)
    for addr, value in case["init"]:
        machine.memory.write_int(addr, value, 8)
    if case["jitter"] > 0:
        machine.schedule_perturb = ScheduleJitter(
            case["schedule_seed"], case["jitter"]
        )
    return machine, lowered


def run_case(case: Dict[str, Any]) -> CaseOutcome:
    """Lower, run under the case's schedule jitter, collect the tx log,
    then detach the log and close the machine."""
    machine, lowered = build_case_machine(case)
    # The oracles read only the tx log, so record it without the
    # per-CPU histograms of a full MetricsRegistry.
    log = TxLog().attach(machine)
    result = machine.run(max_cycles=case["max_cycles"])
    result.metrics = {"tx_log": log.to_dict()}
    log.detach()
    machine.close()
    return CaseOutcome(result=result, machine=machine, lowered=lowered)


def _fault_codes(block: Dict[str, Any]) -> Tuple[int, ...]:
    if block["fault"] == "tabort":
        return (tabort_code(block["id"]),)
    # Divide-by-zero: filtered under PIFC >= 1 (code 12), an unfiltered
    # program interruption otherwise (code 4).
    return (int(AbortCode.PROGRAM_EXCEPTION_FILTERED),
            int(AbortCode.PROGRAM_INTERRUPTION))


def check_outcome(case: Dict[str, Any],
                  outcome: CaseOutcome) -> List[str]:
    """All oracle violations for one executed case (empty = pass)."""
    violations: List[str] = []
    result = outcome.result
    if result.aborted_early:
        return [
            f"timeout: case did not finish within {case['max_cycles']} "
            "cycles (livelock or runaway retry loop)"
        ]
    log = result.tx_log
    if log is None:
        return ["internal: run produced no transaction log"]
    if log["dropped"]:
        return [f"internal: tx log dropped {log['dropped']} entries"]

    line_size = outcome.machine.params.line_size
    block_at: Dict[Tuple[int, int], Dict[str, Any]] = {}
    sw_block_at: Dict[Tuple[int, int], Dict[str, Any]] = {}
    for cpu, lp in enumerate(outcome.lowered):
        for ia, block in lp.blocks_by_tbegin.items():
            block_at[(cpu, ia)] = block
        for ia, block in lp.blocks_by_sbegin.items():
            sw_block_at[(cpu, ia)] = block
    position_of = {
        block["id"]: (cpu, index) for cpu, index, block in iter_blocks(case)
    }

    commit_order: List[Tuple[int, int]] = []
    commit_counts: Counter = Counter()
    fault_aborted: set = set()
    for entry in log["entries"]:
        cpu, kind, tbegin_ia, _end_ia, code, constrained, rlines, wlines = (
            entry
        )
        if kind in ("sw_commit", "sw_abort"):
            # Software (STM) entries carry the SBEGIN address in the
            # tbegin_ia slot and can only come from hybrid blocks.
            block = sw_block_at.get((cpu, tbegin_ia))
            if block is None:
                violations.append(
                    f"{kind} entry for cpu {cpu} references unknown "
                    f"SBEGIN address 0x{tbegin_ia:x}"
                )
                continue
            bid = block["id"]
            if kind == "sw_abort":
                if block["fate"] != "commit" and code == sabort_code(bid):
                    fault_aborted.add(bid)
                continue
            commit_counts[bid] += 1
            if block["fate"] == "doomed":
                violations.append(
                    f"doomed hybrid block {bid} committed in software"
                )
                continue
            commit_order.append(position_of[bid])
            reads, writes = static_footprint_sw(block, line_size)
            if sorted(writes) != wlines:
                violations.append(
                    f"hybrid block {bid}: software-committed write lines "
                    f"{wlines} != static footprint {sorted(writes)}"
                )
            # The software path never prefetches speculatively, so the
            # logged read set is exact even with speculation on.
            if sorted(reads) != rlines:
                violations.append(
                    f"hybrid block {bid}: software-committed read lines "
                    f"{rlines} != static footprint {sorted(reads)}"
                )
            continue
        block = block_at.get((cpu, tbegin_ia))
        if block is None:
            violations.append(
                f"log entry for cpu {cpu} references unknown TBEGIN "
                f"address 0x{tbegin_ia:x}"
            )
            continue
        bid = block["id"]
        expect_constrained = 1 if block["mode"] == "tbeginc" else 0
        if constrained != expect_constrained:
            violations.append(
                f"block {bid}: constrained flag {constrained} does not "
                f"match mode {block['mode']}"
            )
        if kind == "commit":
            commit_counts[bid] += 1
            if block["fate"] == "doomed":
                violations.append(f"doomed block {bid} committed")
                continue
            commit_order.append(position_of[bid])
            reads, writes = static_footprint(block, line_size)
            if sorted(writes) != wlines:
                violations.append(
                    f"block {bid}: committed write lines {wlines} != "
                    f"static store footprint {sorted(writes)}"
                )
            if case["speculation"]:
                if not reads.issubset(set(rlines)):
                    violations.append(
                        f"block {bid}: committed read lines {rlines} miss "
                        f"architected loads {sorted(reads)}"
                    )
            elif sorted(reads) != rlines:
                violations.append(
                    f"block {bid}: committed read lines {rlines} != "
                    f"architected load footprint {sorted(reads)}"
                )
        else:
            if block.get("mode") == "hybrid":
                # Hardware aborts of hybrid blocks are retry-exhaustion
                # TABORTs (or genuine conflicts); the fault furniture
                # lives on the software path, attributed via sw_abort.
                continue
            if block["fate"] != "commit" and code in _fault_codes(block):
                fault_aborted.add(bid)

    for cpu, index, block in iter_blocks(case):
        bid = block["id"]
        expected = 0 if block["fate"] == "doomed" else 1
        if commit_counts[bid] != expected:
            violations.append(
                f"block {bid} (cpu {cpu}, fate {block['fate']}) committed "
                f"{commit_counts[bid]} times, expected {expected}"
            )

    if violations:
        # Structural failures make the replay ill-defined; report them
        # without piling on derived mismatches.
        return violations

    try:
        reference = replay(case, commit_order)
    except ReplayError as exc:
        return [f"commit order not replayable: {exc}"]

    memory = outcome.machine.memory
    for addr in sorted(tracked_addresses(case)):
        actual = memory.read_int(addr, 8)
        expected = reference.get(addr, 0)
        if actual != expected:
            violations.append(
                f"final state: [0x{addr:x}] = {actual}, reference serial "
                f"execution gives {expected}"
            )

    for _cpu, _index, block in iter_blocks(case):
        if block["fate"] == "commit":
            continue
        bid = block["id"]
        canary = block.get("canary")
        if canary is not None:
            value = memory.read_int(canary, 8)
            if value != 0:
                violations.append(
                    f"abort invisibility: fault-path store of block {bid} "
                    f"leaked to [0x{canary:x}] = {value}"
                )
        slot = block.get("ntstg_slot")
        if slot is not None:
            value = memory.read_int(slot, 8)
            token = block["fault_token"]
            if bid in fault_aborted:
                if value != token:
                    violations.append(
                        f"NTSTG survival: block {bid} aborted through its "
                        f"fault path but [0x{slot:x}] = {value}, expected "
                        f"token {token}"
                    )
            elif value not in (0, token):
                violations.append(
                    f"NTSTG slot of block {bid} holds foreign value "
                    f"{value} at [0x{slot:x}]"
                )
    return violations


def check_case(case: Dict[str, Any],
               outcome: Optional[CaseOutcome] = None) -> List[str]:
    """Run (if needed) and check one case; returns the violation list."""
    if outcome is None:
        outcome = run_case(case)
    return check_outcome(case, outcome)
