"""Unit tests for the backing main memory."""

from hypothesis import given, strategies as st

from repro.mem.memory import PAGE_BYTES, MainMemory


def test_unwritten_bytes_read_zero():
    memory = MainMemory()
    assert memory.read(0x1234, 16) == b"\x00" * 16
    assert memory.read_int(0x9999, 8) == 0


def test_write_read_roundtrip():
    memory = MainMemory()
    memory.write(100, b"hello")
    assert memory.read(100, 5) == b"hello"
    assert memory.read(99, 7) == b"\x00hello\x00"


def test_int_roundtrip_big_endian():
    memory = MainMemory()
    memory.write_int(0, 0x0102030405060708, 8)
    assert memory.read(0, 8) == bytes([1, 2, 3, 4, 5, 6, 7, 8])
    assert memory.read_int(0, 8) == 0x0102030405060708


def test_signed_values_two_complement():
    memory = MainMemory()
    memory.write_int(0, -1, 8)
    assert memory.read_int(0, 8) == (1 << 64) - 1
    assert memory.read_int(0, 8, signed=True) == -1


def test_partial_overwrite():
    memory = MainMemory()
    memory.write_int(0, 0xAABBCCDD, 4)
    memory.write_int(1, 0x11, 1)
    assert memory.read_int(0, 4) == 0xAA11CCDD


def test_footprint_counts_nonzero_bytes():
    memory = MainMemory()
    memory.write(0, b"abc")
    memory.write(1, b"xy")
    assert memory.footprint() == 3
    # Under the paged representation a byte holding zero is
    # indistinguishable from an unwritten byte: zero writes do not add
    # to the footprint, and zeroing a byte removes it.
    memory.write(100, b"\x00\x00")
    assert memory.footprint() == 3
    memory.write_byte(0, 0)
    assert memory.footprint() == 2


def test_apply_runs_matches_sequential_writes():
    memory = MainMemory()
    memory.apply_runs([(10, b"AB"), (11, b"CD"), (200, b"z")])
    assert memory.read(10, 3) == b"ACD"
    assert memory.read(200, 1) == b"z"


def test_sparse_stride_allocates_one_page_per_line():
    # Figure 5's pool layout: one 8-byte variable per 256-byte line.
    # Pages are one cache line, so only the touched lines are resident.
    memory = MainMemory()
    lines = 40
    for i in range(lines):
        memory.write_int(0x10000 + 256 * i, i + 1, 8)
    assert PAGE_BYTES == 256
    assert len(memory._pages) == lines
    assert all(len(page) == PAGE_BYTES for page in memory._pages.values())
    assert [memory.read_int(0x10000 + 256 * i, 8) for i in range(lines)] == [
        i + 1 for i in range(lines)
    ]


def test_cross_page_read_write():
    memory = MainMemory()
    addr = PAGE_BYTES - 3
    data = bytes(range(8))
    memory.write(addr, data)
    assert memory.read(addr, 8) == data
    assert memory.read_int(addr, 8) == int.from_bytes(data, "big")
    # Straddling three pages.
    big = bytes((i * 7) & 0xFF for i in range(2 * PAGE_BYTES + 10))
    memory.write(PAGE_BYTES - 5, big)
    assert memory.read(PAGE_BYTES - 5, len(big)) == big


@given(addr=st.integers(min_value=0, max_value=1 << 40),
       value=st.integers(min_value=0),
       length=st.integers(min_value=1, max_value=16))
def test_int_roundtrip_property(addr, value, length):
    memory = MainMemory()
    memory.write_int(addr, value, length)
    mask = (1 << (8 * length)) - 1
    assert memory.read_int(addr, length) == value & mask


@given(data=st.binary(min_size=0, max_size=64),
       addr=st.integers(min_value=0, max_value=1 << 40))
def test_bytes_roundtrip_property(data, addr):
    memory = MainMemory()
    memory.write(addr, data)
    assert memory.read(addr, len(data)) == data
