"""Tests for the event tracer."""

import dataclasses

import pytest

from repro.cpu.assembler import assemble
from repro.cpu.isa import (
    AGSI,
    AHI,
    HALT,
    J,
    JNZ,
    LG,
    LHI,
    Mem,
    TABORT,
    TBEGIN,
    TEND,
)
from repro.params import ZEC12
from repro.sim.machine import Machine
from repro.sim.trace import ALL_KINDS, Tracer

DATA = 0x10000


def committing_machine(n_cpus=1, iterations=3, speculation=True):
    program = assemble([
        LHI(9, iterations),
        ("loop", TBEGIN()),
        JNZ("retry"),
        AGSI(Mem(disp=DATA), 1),
        TEND(),
        AHI(9, -1),
        JNZ("loop"),
        J("done"),
        ("retry", J("loop")),
        ("done", HALT()),
    ])
    machine = Machine(dataclasses.replace(ZEC12.with_cpus(n_cpus),
                                          speculation=speculation))
    for _ in range(n_cpus):
        machine.add_program(program)
    return machine


def test_commit_events_recorded():
    machine = committing_machine()
    tracer = Tracer(machine)
    machine.run()
    assert len(tracer.of_kind("tbegin")) == 3
    assert len(tracer.of_kind("commit")) == 3
    assert not tracer.of_kind("abort")


def test_abort_events_with_codes():
    program = assemble([
        TBEGIN(),
        JNZ("out"),
        TABORT(258),
        TEND(),
        ("out", HALT()),
    ])
    machine = Machine(ZEC12)
    machine.add_program(program)
    tracer = Tracer(machine)
    machine.run()
    aborts = tracer.of_kind("abort")
    assert len(aborts) == 1
    assert "TABORT(258)" in aborts[0].detail
    assert tracer.aborts_by_code()["TABORT(258)"] == 1


def test_xi_and_fetch_events_under_contention():
    machine = committing_machine(n_cpus=2, iterations=5)
    tracer = Tracer(machine, kinds={"xi", "fetch"})
    machine.run()
    assert tracer.of_kind("fetch")      # misses happened
    assert tracer.of_kind("xi")         # the counter line bounced
    # Kind filtering worked: nothing else recorded.
    assert not tracer.of_kind("commit")


def test_kind_filtering_validated():
    machine = committing_machine()
    with pytest.raises(ValueError):
        Tracer(machine, kinds={"bogus"})


def test_event_limit_drops_excess():
    machine = committing_machine(iterations=10)
    tracer = Tracer(machine, limit=2)
    machine.run()
    assert len(tracer.events) == 2
    assert tracer.dropped > 0
    assert "dropped" in tracer.summary()


def test_events_are_time_ordered_and_printable():
    machine = committing_machine(n_cpus=2, iterations=4)
    tracer = Tracer(machine)
    machine.run()
    times = [e.time for e in tracer.events]
    assert times == sorted(times)
    assert all(str(e) for e in tracer.events)
    summary = tracer.summary()
    for kind in sorted(ALL_KINDS):
        assert kind in summary


def counting_fabric(machine, keep):
    """Wrap the machine's ``fabric.try_fetch`` and return the list of
    ``(cpu, line, exclusive, source)`` for each completed outcome that
    ``keep(outcome)`` accepts, in call order."""
    fabric = machine.fabric
    try_fetch = fabric.try_fetch
    seen = []

    def counting_try_fetch(cpu, line, exclusive):
        outcome = try_fetch(cpu, line, exclusive)
        if outcome.done and keep(outcome):
            seen.append((cpu, line, exclusive, outcome.source))
        return outcome

    fabric.try_fetch = counting_try_fetch
    return seen


def test_traced_fetch_count_matches_slow_path():
    """Every fetch goes through the fabric (``TxEngine._fetch`` ->
    ``fabric.try_fetch``), so a traced run records one ``fetch`` event per
    completed fabric fetch past the L1, in the same order and with the
    same line, mode and source. Speculative prefetch is off, since it
    calls ``try_fetch`` without the hook."""
    machine = committing_machine(n_cpus=2, iterations=5, speculation=False)
    tracer = Tracer(machine, kinds={"fetch"})
    fetched = counting_fabric(machine, lambda o: o.source != "l1")
    machine.run()

    assert fetched
    assert len(tracer.of_kind("fetch")) == len(fetched)
    assert [(e.cpu, e.detail) for e in tracer.events] == [
        (cpu, f"line 0x{line:x} {'EX' if exclusive else 'RO'} from {source}")
        for cpu, line, exclusive, source in fetched
    ]


def test_fast_path_fetches_reach_hooks():
    """L1 hits, the fast case of a fetch, fire ``note_fetch`` once each:
    every L1 hit goes ``TxEngine._fetch`` -> ``fabric.try_fetch``, and the
    registry's ``"l1"`` fetch total equals the number of L1-hit outcomes
    the fabric handed out. Speculative prefetch is off, since it calls
    ``try_fetch`` without the hook."""
    from repro.sim.metrics import MetricsRegistry

    program = assemble([
        LHI(9, 5),
        ("loop", TBEGIN()),
        JNZ("retry"),
        LG(1, Mem(disp=DATA)),
        LG(2, Mem(disp=DATA + 256)),
        AGSI(Mem(disp=DATA), 1),
        TEND(),
        AHI(9, -1),
        JNZ("loop"),
        J("done"),
        ("retry", J("loop")),
        ("done", HALT()),
    ])
    machine = Machine(dataclasses.replace(ZEC12.with_cpus(2),
                                          speculation=False))
    for _ in range(2):
        machine.add_program(program)
    registry = MetricsRegistry().attach(machine)
    l1_hits = counting_fabric(machine, lambda o: o.source == "l1")
    machine.run()

    sources = registry.summary()["totals"]["fetch_sources"]
    assert l1_hits
    assert sources.get("l1", 0) == len(l1_hits)


def test_summary_counts_past_event_limit():
    """The event limit caps storage only: summary() keeps exact per-kind
    totals and reports the dropped count."""
    unlimited = committing_machine(n_cpus=2, iterations=6)
    full = Tracer(unlimited)
    unlimited.run()

    limited_machine = committing_machine(n_cpus=2, iterations=6)
    limited = Tracer(limited_machine, limit=3)
    limited_machine.run()

    assert len(limited.events) == 3
    assert limited.dropped == sum(full.counts().values()) - 3
    assert limited.counts() == full.counts()
    # summary() reports the uncapped totals plus the dropped count.
    assert limited.summary() == full.summary() + f" dropped={limited.dropped}"


def test_tracing_does_not_change_results():
    plain = committing_machine(n_cpus=2, iterations=5)
    plain_result = plain.run()
    traced = committing_machine(n_cpus=2, iterations=5)
    Tracer(traced)
    traced_result = traced.run()
    assert plain.memory.read_int(DATA, 8) == traced.memory.read_int(DATA, 8)
    assert plain_result.total_committed == traced_result.total_committed
    assert plain_result.cycles == traced_result.cycles
