"""Data-plane regression tests for the optimized simulator internals.

The PR-3 data-plane overhaul (paged bytearray memory, line-indexed store
forwarding) must be *invisible* to the architecture: every simulation
stays bit-identical to the dict-backed implementation. These tests pin
the behaviours most at risk:

* loads that straddle cache lines, store-cache blocks and memory pages;
* partial overlaps between store-queue / store-cache entries and a load;
* the paged :class:`~repro.mem.memory.MainMemory` against a brute-force
  per-byte reference model under randomized mixed-size traffic;
* on-demand fetch-latency probes: the retired ``REPRO_PROBE_CHECK``
  variable is inert, and each probe matches the line's current owner;
* exact (cycles, instructions, aborts, xi_rejects) on three sweep
  points, serial and through the parallel runner.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import EngineHarness

from repro.bench.figures import UpdateExperiment, run_update_experiment
from repro.bench.parallel import run_tasks
from repro.mem.memory import MainMemory, PAGE_BYTES
from repro.params import ZEC12

#: Architected line size and store-cache gathering-block size.
LINE = 256
BLOCK = 128


# ----------------------------------------------------------------------
# straddling accesses through the engine
# ----------------------------------------------------------------------


class TestStraddlingLoads:
    def test_load_straddling_two_lines(self, harness):
        addr = 0x30000 + LINE - 4  # 4 bytes in each line
        harness.memory.write(addr, bytes(range(1, 9)))
        assert harness.load(0, addr) == int.from_bytes(bytes(range(1, 9)),
                                                       "big")

    def test_load_straddling_two_pages(self, harness):
        # PAGE_BYTES is line-aligned, so this crosses a line *and* a
        # memory page of the paged backing store.
        addr = PAGE_BYTES - 4
        harness.memory.write(addr, b"\x11\x22\x33\x44\x55\x66\x77\x88")
        assert harness.load(0, addr) == 0x1122334455667788

    def test_forward_across_block_straddle(self, harness):
        # A buffered store straddling two 128-byte store-cache blocks
        # must forward fully to a load of the same bytes.
        addr = 0x40000 + BLOCK - 4
        harness.store(0, addr, 0xAABBCCDDEEFF0011)
        assert harness.load(0, addr) == 0xAABBCCDDEEFF0011

    def test_partial_forward_merges_with_memory(self, harness):
        # Load overlaps only the tail of a buffered store: the covered
        # bytes come from the store cache, the rest from memory.
        base = 0x50000
        harness.memory.write(base, bytes(range(16)))
        harness.store(0, base, 0x0101010101010101)  # bytes 0..7
        value = harness.load(0, base + 4)  # bytes 4..11
        expected = b"\x01" * 4 + bytes(range(8, 12))
        assert value == int.from_bytes(expected, "big")


class TestPartialOverlapForwarding:
    def test_stq_overrides_store_cache_overrides_memory(self, harness):
        """Byte-precise merge order on one line: memory < cache < STQ."""
        engine = harness.engine(0)
        base = 0x60000
        harness.memory.write(base, bytes(range(1, 17)))
        engine.store_cache.store(base + 4, b"\xaa" * 8, tx=False)  # 4..11
        engine.stq.push(base + 8, b"\xbb" * 4)  # bytes 8..11, younger
        expected = (bytes(range(1, 5)) + b"\xaa" * 4 + b"\xbb" * 4
                    + bytes(range(13, 17)))
        assert engine._read_value(base, 16) == int.from_bytes(expected, "big")
        engine.stq.drain()

    def test_disjoint_entries_on_same_block(self, harness):
        engine = harness.engine(0)
        base = 0x70000
        engine.store_cache.store(base, b"\x11" * 4, tx=False)
        engine.stq.push(base + 8, b"\x22" * 4)
        expected = b"\x11" * 4 + b"\x00" * 4 + b"\x22" * 4 + b"\x00" * 4
        assert engine._read_value(base, 16) == int.from_bytes(expected, "big")
        engine.stq.drain()

    def test_stq_index_survives_invalidate_tx(self, harness):
        """The by-block index stays coherent through the abort path."""
        engine = harness.engine(0)
        base = 0x80000
        engine.stq.push(base, b"\x33" * 8, tx=True)
        engine.stq.push(base + 8, b"\x44" * 8, tx=False)
        dropped = engine.stq.invalidate_tx()
        assert [e.addr for e in dropped] == [base]
        assert engine.stq.forward_byte(base) is None
        assert engine.stq.forward_byte(base + 8) == 0x44
        engine.stq.drain()


# ----------------------------------------------------------------------
# paged memory vs a brute-force reference model
# ----------------------------------------------------------------------


class TestPagedMemoryDifferential:
    def test_randomized_against_byte_map(self):
        rng = random.Random(1234)
        mem = MainMemory()
        ref = {}
        lengths = [1, 2, 3, 4, 8, 16, 32, 255, 256, 1000]
        for _ in range(2000):
            addr = rng.randrange(0, 3 * PAGE_BYTES)
            length = rng.choice(lengths)
            if rng.random() < 0.5:
                data = bytes(rng.randrange(256) for _ in range(length))
                mem.write(addr, data)
                for i, byte in enumerate(data):
                    ref[addr + i] = byte
            else:
                expected = bytes(ref.get(addr + i, 0)
                                 for i in range(length))
                assert mem.read(addr, length) == expected
                assert mem.read_int(addr, length) == int.from_bytes(
                    expected, "big"
                )
        assert mem.footprint() == sum(1 for v in ref.values() if v)

    def test_apply_runs_differential(self):
        rng = random.Random(99)
        mem = MainMemory()
        ref = MainMemory()
        runs = []
        for _ in range(200):
            addr = rng.randrange(PAGE_BYTES - 512, PAGE_BYTES + 512)
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 64)))
            runs.append((addr, data))
            ref.write(addr, data)
        mem.apply_runs(runs)
        lo = PAGE_BYTES - 1024
        assert mem.read(lo, 2048) == ref.read(lo, 2048)


# ----------------------------------------------------------------------
# on-demand probes
# ----------------------------------------------------------------------


class TestProbeMemoization:
    def test_contended_sim_under_self_check(self, monkeypatch):
        """The retired probe-memo self-check variable is no longer read:
        setting it changes nothing and raises nothing."""
        monkeypatch.setenv("REPRO_PROBE_CHECK", "1")
        experiment = UpdateExperiment("tbegin", 8, 4, 4, iterations=5)
        checked = run_update_experiment(experiment)
        monkeypatch.delenv("REPRO_PROBE_CHECK")
        plain = run_update_experiment(experiment)
        assert checked == plain

    def test_memo_serves_hits_and_passes_check(self):
        """Every probe is computed from live state: after each step of a
        ping-pong, both CPUs' probes equal the latency the line's current
        owner implies, and nothing is ever served from a memo."""
        duo = EngineHarness(n_cpus=2)
        fabric = duo.fabric
        lat = duo.params.latencies
        line = 0x90000
        dist = fabric._dist_lat_rows

        def probes(cpu):
            return (fabric.probe_latency(cpu, line, False),
                    fabric.probe_latency(cpu, line, True))

        for i in range(6):
            writer, reader = i % 2, 1 - i % 2
            duo.store(writer, line, i)
            assert fabric.line_info(line).ex_owner == writer
            assert probes(writer) == (lat.l1_hit, lat.l1_hit)
            remote = lat.xi_round_trip + dist[reader][writer]
            assert probes(reader) == (remote, remote)
            duo.load(reader, line)
            assert fabric.line_info(line).ro_cpus() == {writer, reader}
            for cpu in (writer, reader):
                assert probes(cpu) == (lat.l1_hit,
                                       lat.l1_hit + lat.xi_round_trip)
        assert fabric.stats_probe_hits == 0


# ----------------------------------------------------------------------
# bit-identity of whole sweep points
# ----------------------------------------------------------------------

#: (experiment, (cycles, instructions, tx_aborted, xi_rejects)) — exact
#: values pinned from the dict-backed reference implementation; any
#: data-plane change that shifts them is a simulation-semantics bug, not
#: an optimization.  The pins name the *lock* fallback baseline, so the
#: mode is fixed explicitly in the params.
LOCK_PARAMS = dataclasses.replace(ZEC12, fallback_mode="lock")

PINNED_POINTS = [
    (UpdateExperiment("tbegin", 4, 10, 4, iterations=5),
     (9098, 588, 9, 107)),
    (UpdateExperiment("tbeginc", 8, 10, 4, iterations=5),
     (20410, 873, 47, 252)),
    (UpdateExperiment("coarse", 4, 100, 4, iterations=5),
     (26679, 5084, 0, 0)),
]


def _summary(result):
    return (
        result.cycles,
        sum(c.instructions for c in result.cpus),
        sum(c.tx_aborted for c in result.cpus),
        sum(c.xi_rejects for c in result.cpus),
    )


class TestBitIdentity:
    @pytest.mark.parametrize(
        "experiment,pinned", PINNED_POINTS,
        ids=[e.scheme for e, _ in PINNED_POINTS],
    )
    def test_serial_point_is_pinned(self, experiment, pinned):
        assert _summary(
            run_update_experiment(experiment, params=LOCK_PARAMS)
        ) == pinned

    def test_parallel_runner_matches_pinned(self):
        results = run_tasks(
            [("update", experiment) for experiment, _ in PINNED_POINTS],
            params=LOCK_PARAMS,
            workers=2,
        )
        assert [_summary(r) for r in results] == [
            pinned for _, pinned in PINNED_POINTS
        ]
