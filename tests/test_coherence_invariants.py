"""Property-based coherence-protocol invariants.

After *any* interleaved sequence of loads, stores, adds, transactions and
aborts on several CPUs, the fabric must satisfy the MESI-variant
invariants of section III.A:

* at most one exclusive owner per line, and never simultaneously with
  read-only owners (the exclusive owner aside);
* private-cache inclusivity: a line in a CPU's L1 is also in its L2;
* the fabric ownership map agrees with the private directories;
* every CPU observes coherent data (reads equal a sequentially
  consistent interleaving's result — checked via the final memory image
  against a reference log of committed writes).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from conftest import EngineHarness

from repro.errors import TransactionAbortSignal
from repro.mem.line import Ownership

DATA = 0x100000
N_LINES = 6


def check_invariants(harness: EngineHarness) -> None:
    for index in range(N_LINES + 2):
        line = DATA + index * 256
        info = harness.fabric.line_info(line)
        # Exclusive ownership excludes everything else.
        if info.ex_owner >= 0:
            assert info.ex_owner not in info.ro_cpus()
            assert not (info.ro_cpus() - {info.ex_owner})
        for cpu, engine in enumerate(harness.engines):
            l1_entry = engine.l1.directory.lookup(line)
            l2_entry = engine.l2.directory.lookup(line)
            # Inclusivity: L1 presence implies L2 presence.
            if l1_entry is not None:
                assert l2_entry is not None, (
                    f"line 0x{line:x} in cpu{cpu} L1 but not L2"
                )
            # Directory state agrees with the fabric ownership map.
            if l2_entry is not None and l2_entry.state is Ownership.EXCLUSIVE:
                assert info.ex_owner == cpu
            if l2_entry is not None:
                assert cpu in info.owners()


OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),               # cpu
        st.sampled_from(["load", "store", "add", "tbegin", "tend",
                         "abort"]),
        st.integers(min_value=0, max_value=N_LINES - 1),     # line index
        st.integers(min_value=0, max_value=99),              # value
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_coherence_invariants_hold_under_any_interleaving(ops):
    harness = EngineHarness(n_cpus=3)

    def do(cpu, op, index, value):
        addr = DATA + index * 256
        engine = harness.engines[cpu]
        try:
            if op == "load":
                harness.load(cpu, addr)
            elif op == "store":
                harness.store(cpu, addr, value)
            elif op == "add":
                harness.add(cpu, addr, value)
            elif op == "tbegin":
                if engine.tx.depth < engine.tx.max_nesting_depth:
                    harness.tbegin(cpu)
            elif op == "tend":
                if engine.tx.active:
                    harness.tend(cpu)
            elif op == "abort":
                if engine.tx.active:
                    engine.tx_abort(256)
        except TransactionAbortSignal:
            harness.process_abort(cpu)

    for cpu, op, index, value in ops:
        do(cpu, op, index, value)
        check_invariants(harness)

    # Wind down any open transactions and re-check.
    for cpu, engine in enumerate(harness.engines):
        while engine.tx.active:
            try:
                harness.tend(cpu)
            except TransactionAbortSignal:
                harness.process_abort(cpu)
    check_invariants(harness)


@settings(max_examples=20, deadline=None)
@given(ops=OPS)
def test_committed_adds_are_never_lost(ops):
    """Counting semantics: the final memory value of each line equals
    the number of *committed* adds (adds inside aborted transactions do
    not count; TABORT discards, TEND commits)."""
    harness = EngineHarness(n_cpus=3)
    committed = [0] * N_LINES
    pending = [dict() for _ in range(3)]  # per-cpu in-tx add counts

    for cpu, op, index, value in ops:
        addr = DATA + index * 256
        engine = harness.engines[cpu]
        try:
            if op == "add":
                harness.add(cpu, addr, 1)
                if engine.tx.active:
                    pending[cpu][index] = pending[cpu].get(index, 0) + 1
                else:
                    committed[index] += 1
            elif op == "tbegin":
                if not engine.tx.active:
                    harness.tbegin(cpu)
                    pending[cpu] = {}
            elif op == "tend":
                if engine.tx.active and engine.tx.depth == 1:
                    harness.tend(cpu)
                    for i, n in pending[cpu].items():
                        committed[i] += n
                    pending[cpu] = {}
            elif op == "abort":
                if engine.tx.active:
                    engine.tx_abort(256)
        except TransactionAbortSignal:
            harness.process_abort(cpu)
            pending[cpu] = {}

    for cpu, engine in enumerate(harness.engines):
        if engine.tx.active:
            try:
                while engine.tx.depth:
                    harness.tend(cpu)
                for i, n in pending[cpu].items():
                    committed[i] += n
            except TransactionAbortSignal:
                harness.process_abort(cpu)
    harness.quiesce()

    for index in range(N_LINES):
        assert harness.memory.read_int(DATA + index * 256, 8) == committed[index]