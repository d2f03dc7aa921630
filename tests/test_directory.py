"""Unit tests for the set-associative directory and cache geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.mem.directory import SetAssociativeDirectory
from repro.mem.line import Ownership
from repro.params import CacheGeometry

GEO = CacheGeometry(ways=2, rows=4, line_size=256)


def lines_in_row(row: int, count: int):
    """Distinct line addresses all mapping to ``row``."""
    return [(row + i * GEO.rows) * GEO.line_size for i in range(count)]


def test_geometry_capacity():
    assert GEO.capacity == 2 * 4 * 256


def test_geometry_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        CacheGeometry(ways=0, rows=4)
    with pytest.raises(ConfigurationError):
        CacheGeometry(ways=2, rows=3)  # not a power of two
    with pytest.raises(ConfigurationError):
        CacheGeometry(ways=2, rows=4, line_size=100)


def test_install_and_lookup():
    directory = SetAssociativeDirectory(GEO)
    entry = directory.install(0x100, Ownership.EXCLUSIVE)
    assert directory.lookup(0x100) is entry
    assert entry.state is Ownership.EXCLUSIVE
    assert directory.contains(0x100)
    assert not directory.contains(0x200)


def test_install_invalid_state_rejected():
    directory = SetAssociativeDirectory(GEO)
    with pytest.raises(ProtocolError):
        directory.install(0x100, Ownership.INVALID)


def test_reinstall_updates_state():
    directory = SetAssociativeDirectory(GEO)
    directory.install(0x100, Ownership.READ_ONLY)
    entry = directory.install(0x100, Ownership.EXCLUSIVE)
    assert entry.state is Ownership.EXCLUSIVE
    assert directory.occupancy() == 1


def test_lru_victim_is_least_recently_used():
    directory = SetAssociativeDirectory(GEO)
    a, b, c = lines_in_row(0, 3)
    directory.install(a, Ownership.READ_ONLY)
    directory.install(b, Ownership.READ_ONLY)
    directory.touch(directory.lookup(a))  # refresh a; b becomes LRU
    victims = []
    directory.install(c, Ownership.READ_ONLY, evict=lambda e: victims.append(e.line))
    assert victims == [b]
    assert directory.contains(a)
    assert directory.contains(c)
    assert not directory.contains(b)


def test_eviction_only_within_row():
    directory = SetAssociativeDirectory(GEO)
    row0 = lines_in_row(0, 2)
    row1 = lines_in_row(1, 1)
    for line in row0:
        directory.install(line, Ownership.READ_ONLY)
    victims = []
    directory.install(row1[0], Ownership.READ_ONLY,
                      evict=lambda e: victims.append(e.line))
    assert victims == []
    assert directory.occupancy() == 3


def test_remove():
    directory = SetAssociativeDirectory(GEO)
    directory.install(0x100, Ownership.READ_ONLY)
    removed = directory.remove(0x100)
    assert removed is not None and removed.line == 0x100
    assert directory.remove(0x100) is None


def test_demote():
    directory = SetAssociativeDirectory(GEO)
    directory.install(0x100, Ownership.EXCLUSIVE)
    directory.demote(0x100)
    assert directory.lookup(0x100).state is Ownership.READ_ONLY
    directory.demote(0x999)  # absent: no-op


def test_clear():
    directory = SetAssociativeDirectory(GEO)
    directory.install(0x100, Ownership.READ_ONLY)
    directory.clear()
    assert directory.occupancy() == 0


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
def test_occupancy_never_exceeds_capacity(line_indices):
    """Property: installs never exceed ways per row or total capacity."""
    directory = SetAssociativeDirectory(GEO)
    for index in line_indices:
        directory.install(index * GEO.line_size, Ownership.READ_ONLY)
        for row_index in range(GEO.rows):
            assert len(directory.row_entries(row_index)) <= GEO.ways
    assert directory.occupancy() <= GEO.ways * GEO.rows


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=64))
def test_most_recently_installed_survives(line_indices):
    """Property: the most recently touched line is never the LRU victim."""
    directory = SetAssociativeDirectory(GEO)
    for index in line_indices:
        line = index * GEO.line_size
        directory.install(line, Ownership.READ_ONLY)
        assert directory.contains(line)


@given(st.lists(st.tuples(st.sampled_from(["install", "remove", "abort"]),
                          st.integers(min_value=0, max_value=31)),
                min_size=1, max_size=200))
def test_rows_mirror_entries(ops):
    """Property: after any installs, removes and evictions — including
    eviction callbacks that empty the very row being filled — no row is
    empty and the rows hold exactly the entries of the line index."""
    directory = SetAssociativeDirectory(GEO)

    def drop_row(victim):
        # Like an abort invalidating tx-dirty lines: clear the victim's
        # whole congruence class before the install continues.
        for entry in directory.row_entries(directory.row_of(victim.line)):
            directory.remove(entry.line)

    for op, index in ops:
        line = index * GEO.line_size
        if op == "remove":
            directory.remove(line)
        else:
            directory.install(line, Ownership.READ_ONLY,
                              evict=drop_row if op == "abort" else None)
        assert all(directory._rows.values())
        in_rows = [e for row in directory._rows.values() for e in row]
        assert len(in_rows) == len(directory._entries)
        assert {e.line: e for e in in_rows} == directory._entries
        for row_index, row in directory._rows.items():
            assert len(row) <= GEO.ways
            assert all(directory.row_of(e.line) == row_index for e in row)
