"""Read-only owners as CPU bitmasks (``LineInfo.ro_owners``).

The fabric keeps each line's read-only owners as an int mask and answers
"how far is the nearest other owner" with mask tests against per-CPU
chip and MCM masks (``CoherenceFabric._miss_latency``, and
``_shared_source`` for a fetch's source label). These tests hold the
masks to plain-set references: the probe latency and the source to a
brute-force minimum over ``Topology.chip_of``/``mcm_of``, the
bookkeeping to the set of CPUs whose private caches hold the line
read-only, and the XI order to ascending CPU ids.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from conftest import EngineHarness, small_params

from repro.mem.fabric import CoherenceFabric
from repro.mem.line import LineInfo, Ownership, cpus_of
from repro.mem.xi import XiType
from repro.params import ZEC12, CacheGeometry, Topology
from repro.verify.oracle import case_params


def brute_rank(topo: Topology, cpu: int, owners) -> int:
    """Distance rank of the nearest owner other than ``cpu`` (3: none)."""
    ranks = [
        0 if topo.chip_of(o) == topo.chip_of(cpu)
        else 1 if topo.mcm_of(o) == topo.mcm_of(cpu) else 2
        for o in owners if o != cpu
    ]
    return min(ranks, default=3)


def mask_of(cpus) -> int:
    return sum(1 << c for c in set(cpus))


# ----------------------------------------------------------------------
# the nearest owner's latency
# ----------------------------------------------------------------------


LINE = 0x40000  # held by no shared cache: an owner-less probe reads memory


def brute_latency(fabric, cpu: int, owners, exclusive: bool) -> int:
    """``_miss_latency`` of a line with no exclusive owner, from the
    brute-force rank: the nearest other owner's intervention latency,
    else memory, plus the read-only XIs an exclusive fetch sends."""
    lat = fabric.lat
    latency = (lat.on_chip_intervention, lat.same_mcm, lat.cross_mcm,
               lat.memory)[brute_rank(fabric.topology, cpu, owners)]
    if exclusive and owners:
        latency += lat.xi_round_trip
    return latency


def brute_source(fabric, cpu: int, owners) -> tuple:
    """``_shared_source`` of the same line: the nearest other owner's
    intervention, else memory."""
    lat = fabric.lat
    return (
        (lat.on_chip_intervention, "intervention"),
        (lat.same_mcm, "intervention-mcm"),
        (lat.cross_mcm, "intervention-remote"),
        (lat.memory, "memory"),
    )[brute_rank(fabric.topology, cpu, owners)]


def check_latency(fabric, cpu: int, owners) -> None:
    info = LineInfo(ro_owners=mask_of(owners))
    for exclusive in (False, True):
        assert fabric._miss_latency(cpu, LINE, exclusive, info) == (
            brute_latency(fabric, cpu, owners, exclusive)
        ), (cpu, sorted(owners), exclusive)
    assert fabric._shared_source(cpu, LINE, info) == brute_source(
        fabric, cpu, owners), (cpu, sorted(owners))


SMALL_TOPOLOGIES = [
    case_params(6, False).topology,            # the 6-CPU fuzz machines
    case_params(3, False).topology,
    Topology(cores_per_chip=2, chips_per_mcm=2, mcms=2),
]


def test_miss_latency_exhaustive_on_small_topologies():
    for topo in SMALL_TOPOLOGIES:
        fabric = CoherenceFabric(dataclasses.replace(ZEC12, topology=topo))
        total = topo.total_cores
        for owners in range(1 << total):
            cpus = list(cpus_of(owners))
            for cpu in range(total):
                check_latency(fabric, cpu, cpus)


def test_miss_latency_covers_every_rank():
    topo = Topology(cores_per_chip=2, chips_per_mcm=2, mcms=2)
    fabric = CoherenceFabric(dataclasses.replace(ZEC12, topology=topo))
    lat = fabric.lat

    def probe(owners):
        return fabric._miss_latency(0, LINE, False,
                                    LineInfo(ro_owners=mask_of(owners)))

    assert fabric._miss_latency(0, LINE, False, None) == lat.memory
    assert probe([]) == lat.memory                          # empty
    assert probe([0]) == lat.memory                         # only itself
    assert probe([0, 1]) == lat.on_chip_intervention        # same chip
    assert probe([0, 3]) == lat.same_mcm                    # same MCM
    assert probe([0, 7]) == lat.cross_mcm                   # remote MCM
    # An exclusive owner is priced by its own distance, whatever the
    # read-only mask says.
    info = LineInfo(ro_owners=mask_of([1]), ex_owner=7)
    assert fabric._miss_latency(0, LINE, True, info) == (
        lat.xi_round_trip + lat.cross_mcm)


WIDE = ZEC12.topology  # 120 cores: 6 per chip, 4 chips per MCM, 5 MCMs
WIDE_FABRIC = CoherenceFabric(ZEC12)


@settings(max_examples=400, deadline=None)
@given(
    cpu=st.integers(0, WIDE.total_cores - 1),
    owners=st.one_of(
        st.just(frozenset()),
        st.sets(st.integers(0, WIDE.total_cores - 1), max_size=6),
        st.sets(st.integers(0, WIDE.total_cores - 1), min_size=40,
                max_size=120),
    ),
    with_requester=st.booleans(),
)
def test_miss_latency_matches_brute_force_on_120_cores(cpu, owners,
                                                        with_requester):
    owners = set(owners)
    if with_requester:
        owners.add(cpu)
    check_latency(WIDE_FABRIC, cpu, owners)


def test_distance_rows_match_the_topology():
    lat = ZEC12.latencies
    by_rank = (lat.on_chip_intervention, lat.same_mcm, lat.cross_mcm)
    rows = WIDE_FABRIC._dist_lat_rows
    for a in range(0, WIDE.total_cores, 7):
        for b in range(WIDE.total_cores):
            if a != b:
                assert rows[a][b] == by_rank[brute_rank(WIDE, a, [b])]


# ----------------------------------------------------------------------
# bookkeeping against a set model
# ----------------------------------------------------------------------


def tiny_harness(n_cpus: int = 4) -> EngineHarness:
    """Private and shared caches small enough that a handful of lines
    cause L2 evictions and L3/L4 LRU cascades."""
    params = dataclasses.replace(
        small_params(n_cpus=n_cpus),
        topology=Topology(cores_per_chip=2, chips_per_mcm=1, mcms=2),
        l1=CacheGeometry(ways=1, rows=1),
        l2=CacheGeometry(ways=1, rows=2),
        l3=CacheGeometry(ways=2, rows=2),
        l4=CacheGeometry(ways=2, rows=4),
    )
    return EngineHarness(params=params, n_cpus=n_cpus)


def read_only_holders(harness: EngineHarness, line: int) -> set:
    """The set model: the CPUs whose L2 holds ``line`` read-only."""
    return {
        cpu for cpu, engine in enumerate(harness.engines)
        if (entry := engine.l2.directory.lookup(line)) is not None
        and entry.state is Ownership.READ_ONLY
    }


def check_masks(harness: EngineHarness, lines) -> None:
    fabric = harness.fabric
    for line in lines:
        info = fabric._lines.get(line)
        holders = read_only_holders(harness, line)
        ro = info.ro_owners if info is not None else 0
        assert ro == mask_of(holders), (hex(line), holders)
        exclusive = {
            cpu for cpu, engine in enumerate(harness.engines)
            if (entry := engine.l2.directory.lookup(line)) is not None
            and entry.state is Ownership.EXCLUSIVE
        }
        ex = info.ex_owner if info is not None else -1
        assert exclusive == ({ex} if ex >= 0 else set()), hex(line)


LINES = [0x100000 + i * 0x100 for i in range(6)]


def fetch(harness: EngineHarness, cpu: int, line: int, exclusive: bool):
    """One fabric fetch at an idle interconnect (nothing is in flight)."""
    harness.clock[0] += 1_000
    outcome = harness.fabric.try_fetch(cpu, line, exclusive)
    assert outcome.done
    return outcome


def test_each_operation_keeps_the_mask_equal_to_the_set_model():
    harness = tiny_harness()
    fabric = harness.fabric
    a = LINES[0]
    # Read-only fetches by three CPUs.
    for cpu in (0, 1, 2):
        fetch(harness, cpu, a, False)
    assert fabric.line_info(a).ro_cpus() == {0, 1, 2}
    check_masks(harness, LINES)
    # Upgrade: CPU 1 holds it read-only and takes it exclusive.
    assert fetch(harness, 1, a, True).source == "upgrade"
    assert fabric.line_info(a).ro_owners == 0
    assert fabric.line_info(a).ex_owner == 1
    check_masks(harness, LINES)
    # Demote XI: a read-only fetch leaves the old owner a reader.
    fetch(harness, 3, a, False)
    assert fabric.line_info(a).ro_cpus() == {1, 3}
    check_masks(harness, LINES)
    # Exclusive fetch by a non-holder invalidates every reader.
    fetch(harness, 0, a, True)
    assert fabric.line_info(a).ro_owners == 0
    check_masks(harness, LINES)
    # release_line.
    fetch(harness, 2, a, False)
    fabric.release_line(2, a)
    assert 2 not in fabric.line_info(a).ro_cpus()
    check_masks(harness, LINES)
    # L2 evictions and L3/L4 LRU cascades: stream lines through CPU 3.
    evictions = []
    evict = fabric._evict_from_private
    fabric._evict_from_private = lambda port, line: (
        evictions.append(line), evict(port, line))
    xis = []
    send = fabric._send_xi
    fabric._send_xi = lambda xi: (xis.append(xi.xi_type), send(xi))[1]
    fetch(harness, 2, a, False)
    for line in LINES[1:] * 2:
        fetch(harness, 3, line, False)
        check_masks(harness, LINES)
    assert evictions and XiType.LRU in xis


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "release", "cascade"]),
        st.integers(0, 3),
        st.sampled_from(LINES),
    ),
    max_size=40,
))
def test_random_operations_keep_the_mask_equal_to_the_set_model(ops):
    harness = tiny_harness()
    fabric = harness.fabric
    for op, cpu, line in ops:
        if op == "load":
            fetch(harness, cpu, line, False)
        elif op == "store":
            fetch(harness, cpu, line, True)
        elif op == "release":
            fabric.release_line(cpu, line)
        else:
            # Evict the line from CPU ``cpu``'s chip L3 (or its MCM's L4)
            # as an install would.
            if cpu % 2:
                l3 = fabric._l3_by_cpu[cpu]
                if l3.remove(line) is not None:
                    fabric._lru_cascade_l3(cpu, line)
            else:
                l4 = fabric._l4_by_cpu[cpu]
                if l4.remove(line) is not None:
                    fabric._lru_cascade_l4(cpu, line)
        check_masks(harness, LINES)


# ----------------------------------------------------------------------
# XI order
# ----------------------------------------------------------------------


def test_read_only_xis_go_out_in_ascending_cpu_order():
    harness = EngineHarness(n_cpus=6)
    fabric = harness.fabric
    line = LINES[0]
    for cpu in (4, 0, 5, 2, 1):
        fetch(harness, cpu, line, False)
    sent = []
    send = fabric._send_xi

    def recording_send_xi(xi):
        sent.append((xi.xi_type, xi.target))
        return send(xi)

    fabric._send_xi = recording_send_xi
    fetch(harness, 3, line, True)
    assert sent == [(XiType.READ_ONLY, cpu) for cpu in (0, 1, 2, 4, 5)]
    assert fabric.line_info(line).ro_owners == 0


def test_line_info_reads_as_sets():
    info = LineInfo(ro_owners=mask_of([1, 5]), ex_owner=-1)
    assert info.ro_cpus() == {1, 5}
    assert info.owners() == {1, 5}
    assert list(cpus_of(mask_of([7, 0, 3]))) == [0, 3, 7]
    assert not info.is_unowned()
    assert LineInfo().is_unowned()
