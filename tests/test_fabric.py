"""Integration tests for the coherence fabric via the engine harness."""

import pytest

from conftest import EngineHarness, small_params

from repro.mem.line import Ownership
from repro.mem.xi import XiType


LINE = 0x10000


def state_of(harness, cpu, line):
    entry = harness.engine(cpu).l1.directory.lookup(line)
    return entry.state if entry is not None else None


def test_read_only_sharing(duo):
    duo.store(0, LINE, 7)
    duo.quiesce()
    assert duo.load(0, LINE) == 7
    assert duo.load(1, LINE) == 7
    info = duo.fabric.line_info(LINE)
    assert 1 in info.ro_cpus()
    # CPU0 got demoted when CPU1 read the line.
    assert info.ex_owner == -1 or info.ex_owner == 0


def test_exclusive_acquisition_invalidates_readers(duo):
    duo.load(0, LINE)
    duo.load(1, LINE)
    duo.store(1, LINE, 5)
    info = duo.fabric.line_info(LINE)
    assert info.ex_owner == 1
    assert 0 not in info.ro_cpus()
    assert state_of(duo, 0, LINE) is None  # read-only XI invalidated it


def test_store_then_remote_load_demotes_owner(duo):
    duo.store(0, LINE, 9)
    assert duo.fabric.line_info(LINE).ex_owner == 0
    assert duo.load(1, LINE) == 9  # demote XI + store-cache drain
    info = duo.fabric.line_info(LINE)
    assert info.ex_owner == -1
    assert {0, 1} <= info.owners()
    entry = state_of(duo, 0, LINE)
    assert entry is Ownership.READ_ONLY


def test_write_after_write_transfers_exclusivity(duo):
    duo.store(0, LINE, 1)
    duo.store(1, LINE, 2)
    duo.quiesce()
    assert duo.memory.read_int(LINE, 8) == 2
    assert duo.fabric.line_info(LINE).ex_owner == 1
    assert state_of(duo, 0, LINE) is None


def test_upgrade_from_read_only(harness):
    harness.load(0, LINE)
    assert harness.fabric.line_info(LINE).ex_owner == -1
    harness.store(0, LINE, 3)
    assert harness.fabric.line_info(LINE).ex_owner == 0


def test_fetch_sources_and_latency_ordering():
    """Fetch latency respects the source hierarchy: L1 < L2 < L3 < memory."""
    harness = EngineHarness(n_cpus=1)
    lat = harness.params.latencies
    outcome_mem = harness.fabric.try_fetch(0, LINE, False)
    assert outcome_mem.source == "memory"
    # Second access: L1 hit.
    outcome_l1 = harness.fabric.try_fetch(0, LINE, False)
    assert outcome_l1.source == "l1"
    assert outcome_l1.latency == lat.l1_hit
    assert outcome_mem.latency > outcome_l1.latency


def test_l3_hit_after_release():
    harness = EngineHarness(n_cpus=2)
    harness.load(0, LINE)
    # Drop CPU0's private copies; the chip L3 still holds the line.
    harness.fabric.release_line(0, LINE)
    # Let the interconnect transfer window pass before refetching.
    harness.clock[0] = harness.fabric.line_info(LINE).busy_until
    outcome = harness.fabric.try_fetch(0, LINE, False)
    assert outcome.source == "l3"
    assert outcome.latency == harness.params.latencies.l3_hit


def test_busy_line_cannot_bounce_instantly(duo):
    """Per-line transfer serialisation: a just-transferred line is busy."""
    duo.store(0, LINE, 1)       # CPU0 takes the line (memory fetch)
    # Freeze the clock and have CPU1 request it: the first attempt pays
    # the XI/intervention, then the line is busy for a while.
    engine = duo.engine(1)
    outcome = duo.fabric.try_fetch(1, LINE, True)
    if not outcome.done:
        # Either rejected or busy; both are back-off outcomes.
        assert outcome.latency > 0
    else:
        second = duo.fabric.try_fetch(0, LINE, True)
        assert not second.done
        assert second.source == "busy"


def test_probe_latency_does_not_mutate(duo):
    duo.store(0, LINE, 1)
    before = duo.fabric.line_info(LINE).ex_owner
    probe = duo.fabric.probe_latency(1, LINE, True)
    assert probe > duo.params.latencies.l2_hit
    assert duo.fabric.line_info(LINE).ex_owner == before
    assert state_of(duo, 1, LINE) is None


def test_topology_distance_classification():
    params = small_params(n_cpus=1)
    topo = params.topology
    assert topo.distance(0, 0) == "self"
    assert topo.distance(0, 1) == "chip"
    same_mcm_other_chip = topo.cores_per_chip
    assert topo.distance(0, same_mcm_other_chip) == "mcm"
    if topo.mcms > 1:
        assert topo.distance(0, topo.cores_per_mcm) == "remote"


def test_register_out_of_order_rejected():
    from repro.core.engine import TxEngine
    from repro.errors import ProtocolError
    from repro.mem.fabric import CoherenceFabric
    from repro.mem.memory import MainMemory

    params = small_params(n_cpus=2)
    fabric = CoherenceFabric(params)
    memory = MainMemory()
    TxEngine(0, params, fabric, memory)
    with pytest.raises(ProtocolError):
        TxEngine(0, params, fabric, memory)  # duplicate id
