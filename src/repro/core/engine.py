"""The per-CPU transactional-execution engine.

This module is the paper's primary contribution in executable form: it
combines the L1/L2 directories, the store queue, the gathering store
cache, the transaction-backup state and the millicode hooks into the
Load/Store-Unit behaviour described in section III:

* loads set the ``tx_read`` bit and the precise read set; stores place
  transaction-marked entries into the store queue and gather into the
  store cache, whose writeback is blocked until the transaction ends;
* incoming XIs are checked against the footprint: conflicting exclusive
  and demote XIs are **rejected** (stiff-armed) up to a threshold, then
  the transaction aborts; read-only and LRU XIs that hit the footprint
  abort immediately;
* footprint overflows (L1 eviction without the LRU extension, L2 eviction
  of any footprint line, store-cache overflow) abort;
* aborts take effect on the *memory side* immediately (isolation) while
  the architected side (GR restore, CC, PSW back-up, TDB) is processed by
  the millicode abort sub-routine when the CPU next completes.

Engine operations are designed to be safely re-executed: a fetch that gets
stiff-armed raises :class:`FetchRetry`; the CPU driver waits out the delay
and re-runs the same operation (already-obtained lines are then L1 hits).
All state mutations happen after the last fetch of an operation.
"""

from __future__ import annotations

import random
from typing import Optional, Set, Tuple

from ..errors import (
    MachineStateError,
    ProgramInterruptionSignal,
    TransactionAbortSignal,
)
from ..mem.address import OCTOWORD, lines_touched, line_address, octowords_touched
from ..mem.fabric import CoherenceFabric, CpuPort
from ..mem.l1 import L1Cache
from ..mem.l2 import L2Cache
from ..mem.line import Ownership
from ..mem.memory import PAGE_BYTES, PAGE_MASK, PAGE_SHIFT, MainMemory
from ..mem.paging import PageTable
from ..mem.storecache import (
    BLOCK_SIZE,
    _BLOCK_MASK,
    GatheringStoreCache,
    StoreCacheOverflow,
)
from ..mem.storequeue import StoreQueue
from ..mem.xi import Xi, XiResponse, XiType
from ..params import MachineParams
from ..stm import (
    OREC_GRAIN_SHIFT,
    StmRuntime,
    orec_address,
    resolve_fallback_mode,
)
from .abort import AbortCode, TABORT_CODE_BASE, TransactionAbort
from .footprint import make_policy
from .diagnostic import TransactionDiagnosticControl
from .filtering import InterruptionCode, ProgramInterruption, is_filtered
from .millicode import Millicode, RetryPlan
from .per import PerControl, PerEvent
from .ppa import PpaAssist
from .tdb import prefix_tdb_address, store_tdb
from .txstate import CONSTRAINED_CONTROLS, TbeginControls, TransactionState


#: Alignment mask for the constrained-transaction octoword footprint.
_OCTO_MASK = ~(OCTOWORD - 1)


class FetchRetry(Exception):
    """A fetch was stiff-armed; re-execute the operation after ``delay``.

    ``info`` is the ``(line, exclusive)`` key of the fetch that raised,
    set by the two raise sites in :meth:`TxEngine._fetch` — the retry
    certification in :mod:`repro.cpu.interpreter` uses it to recognise a
    back-off chain re-probing the same line.
    """

    def __init__(self, delay: int, info=None) -> None:
        # No super().__init__ — the exception carries only ``delay`` and
        # ``info`` and is raised hundreds of thousands of times per sweep.
        self.delay = delay
        self.info = info


class SpinPark(Exception):
    """Raised by a driver's ``step()`` instead of executing a certified
    spin-loop iteration: the CPU has registered a line watch with the
    fabric and asks the scheduler to park it — subsequent events advance
    the carried placeholder record arithmetically instead of executing
    instructions — until a coherence event can change the value it spins
    on. See :mod:`repro.cpu.interpreter` for the detection/certification
    rules and :meth:`repro.sim.scheduler.Scheduler.wake_parked` for the
    un-park."""

    def __init__(self, rec) -> None:
        super().__init__()
        self.rec = rec


class RetryPark(Exception):
    """Raised by a driver's ``step()`` instead of re-executing a certified
    ``FetchRetry`` back-off step: the CPU has registered a retry watch
    with the fabric and asks the scheduler to park it — subsequent events
    re-evaluate the probe/busy/stiff-arm decision against live fabric
    state and advance the chain arithmetically (exact timestamps,
    sequence numbers and reject counters) until the fetch would succeed,
    at which point the CPU wakes and the pending event re-enters real
    execution unchanged. See :mod:`repro.cpu.interpreter` for the
    certification rules and :meth:`repro.sim.scheduler.Scheduler._retry_tick`
    for the per-event advance."""

    def __init__(self, rec) -> None:
        super().__init__()
        self.rec = rec


class MetricsSink:
    """No-op base class for the engine's explicit metrics hook points.

    One sink instance observes one engine: attach it with
    :meth:`TxEngine.attach_metrics` and the engine calls the ``note_*``
    methods from fixed hook sites on the transaction/XI/fetch paths.
    Hook sites fire at the same program points as the engine's ``stats_*``
    counters, so sink totals reconcile exactly with
    :class:`~repro.sim.results.CpuResult` — ``note_abort`` fires iff
    ``stats_tx_aborted`` increments, ``note_stiff_arm`` iff
    ``stats_xi_rejected`` increments.

    When no sink is attached ``engine.metrics`` is None and every hook
    site is a single attribute load plus a None check; nothing is
    wrapped, so PR 1's inlined fast paths stay observable (the inline
    L1-hit fetch calls ``note_fetch`` itself).
    """

    __slots__ = ()

    def note_tbegin(self, constrained: bool, ia: int) -> None:
        """Outermost TBEGIN/TBEGINC completed (depth 0 -> 1)."""

    def note_commit(self, ia: int, read_lines: int, write_lines: int,
                    store_cache_used: int, extension_rows: int) -> None:
        """Outermost TEND committed; footprint captured pre-teardown."""

    def note_abort(self, abort: TransactionAbort, read_lines: int,
                   write_lines: int, xi_rejects: int,
                   extension_rows: int) -> None:
        """Memory-side abort recognised; footprint captured pre-teardown."""

    def note_commit_sets(self, ia: int, tbegin_ia: Optional[int],
                         constrained: bool, read_set, write_set) -> None:
        """Set-valued companion to :meth:`note_commit`: the committed
        transaction's read/write line-address sets, plus the outermost
        TBEGIN address identifying it. The sets are the engine's live
        objects — copy them to keep them past the hook."""

    def note_abort_sets(self, abort: TransactionAbort,
                        tbegin_ia: Optional[int], constrained: bool,
                        read_set, write_set) -> None:
        """Set-valued companion to :meth:`note_abort` (pre-teardown)."""

    def note_xi(self, xi: Xi, response: XiResponse) -> None:
        """An XI was answered (every response, including rejects)."""

    def note_stiff_arm(self, xi: Xi, rejects: int) -> None:
        """An XI was rejected; ``rejects`` is the hang counter after it."""

    def note_fetch(self, line: int, exclusive: bool, source: str) -> None:
        """A line fetch completed. ``source`` names the data's origin:
        a cache tier (l1/l2/l3/l4/remote/memory), an RO-ownership
        upgrade ("upgrade"), or a core-to-core intervention by distance
        ("intervention"/"intervention-mcm"/"intervention-remote")."""

    def note_sw_commit_sets(self, ia: int, sbegin_ia: int,
                            read_set, write_set) -> None:
        """Hybrid-TM only: a software (STM) transaction committed at SEND
        address ``ia``; ``sbegin_ia`` identifies its SBEGIN. The sets are
        the runtime's live line-address sets — copy to keep."""

    def note_sw_abort_sets(self, ia: int, sbegin_ia: int, code: int,
                           read_set, write_set) -> None:
        """Hybrid-TM only: a software transaction aborted (validation
        failure or SABORT) at address ``ia`` with abort code ``code``."""


class _MetricsFanout(MetricsSink):
    """Forwards hook calls to several sinks (e.g. Tracer + registry)."""

    __slots__ = ("sinks",)

    def __init__(self, sinks) -> None:
        self.sinks = list(sinks)

    def note_tbegin(self, constrained, ia):
        for sink in self.sinks:
            sink.note_tbegin(constrained, ia)

    def note_commit(self, ia, read_lines, write_lines, store_cache_used,
                    extension_rows):
        for sink in self.sinks:
            sink.note_commit(ia, read_lines, write_lines, store_cache_used,
                             extension_rows)

    def note_abort(self, abort, read_lines, write_lines, xi_rejects,
                   extension_rows):
        for sink in self.sinks:
            sink.note_abort(abort, read_lines, write_lines, xi_rejects,
                            extension_rows)

    def note_commit_sets(self, ia, tbegin_ia, constrained, read_set,
                         write_set):
        for sink in self.sinks:
            sink.note_commit_sets(ia, tbegin_ia, constrained, read_set,
                                  write_set)

    def note_abort_sets(self, abort, tbegin_ia, constrained, read_set,
                        write_set):
        for sink in self.sinks:
            sink.note_abort_sets(abort, tbegin_ia, constrained, read_set,
                                 write_set)

    def note_xi(self, xi, response):
        for sink in self.sinks:
            sink.note_xi(xi, response)

    def note_stiff_arm(self, xi, rejects):
        for sink in self.sinks:
            sink.note_stiff_arm(xi, rejects)

    def note_fetch(self, line, exclusive, source):
        for sink in self.sinks:
            sink.note_fetch(line, exclusive, source)

    def note_sw_commit_sets(self, ia, sbegin_ia, read_set, write_set):
        for sink in self.sinks:
            sink.note_sw_commit_sets(ia, sbegin_ia, read_set, write_set)

    def note_sw_abort_sets(self, ia, sbegin_ia, code, read_set, write_set):
        for sink in self.sinks:
            sink.note_sw_abort_sets(ia, sbegin_ia, code, read_set, write_set)


class TxEngine(CpuPort):
    """Transactional LSU + cache hierarchy of one CPU."""

    def __init__(
        self,
        cpu_id: int,
        params: MachineParams,
        fabric: CoherenceFabric,
        memory: MainMemory,
        page_table: Optional[PageTable] = None,
    ) -> None:
        self.cpu_id = cpu_id
        self.params = params
        self.fabric = fabric
        self.memory = memory
        self.page_table = page_table if page_table is not None else PageTable()
        self.rng = random.Random((params.seed << 16) ^ (cpu_id * 0x9E3779B1))
        #: Hot-loop constants and references hoisted out of the per-access
        #: paths. ``_page_missing`` aliases the page table's missing-set
        #: (mutated only in place), so the translate call is skipped
        #: whenever no page is unmapped — the overwhelming common case.
        self._line_size = params.line_size
        self._line_mask = ~(params.line_size - 1)
        self._lat = params.latencies
        self._page_missing = self.page_table._missing
        #: Alias of the paged memory image (the page dict is mutated only
        #: in place), so the no-forwarding load fast path is a dict probe
        #: plus one C-level slice instead of a per-byte loop.
        self._mem_pages = memory._pages

        #: The transactional-footprint capacity policy (resolved from
        #: ``params.footprint_policy`` / ``$REPRO_FOOTPRINT_POLICY``;
        #: see :mod:`repro.core.footprint`). The L1 shares the instance
        #: and funnels its per-transaction resets through it.
        self.footprint = make_policy(params)
        self.l1 = L1Cache(params.l1, footprint=self.footprint)
        self.l2 = L2Cache(params.l2)
        #: Aliases into the L1 directory for the fetch fast path (the
        #: directory and its entry index are never rebound).
        self._l1_dir = self.l1.directory
        self._l1_entries = self.l1.directory._entries
        self._l2_entries = self.l2.directory._entries
        self.stq = StoreQueue()
        self.store_cache = GatheringStoreCache(
            entries=self.footprint.store_cache_entries(params.tx),
            line_size=params.line_size,
        )
        # Both containers are mutated strictly in place, so the load fast
        # path's pending-store checks can alias them.
        self._stq_entries = self.stq._entries
        self._sc_by_block = self.store_cache._by_block
        self.tx = TransactionState(max_nesting_depth=params.tx.max_nesting_depth)
        self.footprint.bind(self)
        #: Hoisted policy hooks. ``_fp_read_check``/``_fp_write_check``
        #: are None unless the policy bounds the footprint by
        #: cardinality, so the default hot paths pay one None-check per
        #: access; ``_fp_imprecise`` is the policy's imprecise XI-hit
        #: check (the LRU-extension row probe under zEC12).
        fp = self.footprint
        self._fp_read_check = fp.check_read_capacity if fp.tracks_reads else None
        self._fp_write_check = fp.note_write_lines if fp.tracks_writes else None
        self._fp_imprecise = fp.imprecise_read_hit
        self.tdc = TransactionDiagnosticControl(self.rng)
        self.ppa = PpaAssist(params.latencies, self.rng)
        self.millicode = Millicode(self.ppa, self.rng)
        self.per = PerControl()

        #: Abort recognised on the memory side, awaiting architected
        #: processing at the next completion point.
        self.pending_abort: Optional[TransactionAbort] = None
        #: (line, exclusive) of a fetch whose interconnect wait has been
        #: served; the re-executed operation performs the transfer.
        self._fetch_wait: Optional[Tuple[int, bool]] = None
        #: PER event awaiting delivery as a program interruption.
        self.pending_per_event: Optional[PerEvent] = None
        #: Speculative fetching (next-line prefetch inside transactions).
        #: Millicode may disable it for constrained retries.
        self.speculation_active = params.speculation
        #: Set while this CPU holds the broadcast-stop (solo) token.
        self.solo_requested = False
        #: Set by the scheduler while another CPU's broadcast-stop is in
        #: effect: this CPU is stopped, cannot complete instructions, and
        #: therefore must not stiff-arm — conflicting XIs abort it at once
        #: ("broadcast to other CPUs to stop all conflicting work").
        self.stopped_by_broadcast = False

        # statistics
        self.stats_tx_started = 0
        self.stats_tx_committed = 0
        self.stats_tx_aborted = 0
        self.stats_xi_rejected = 0
        self.stats_prefetches = 0
        self.stats_sw_committed = 0
        self.stats_sw_aborted = 0

        #: Hybrid-TM fallback mode ("lock" | "stm"; see :mod:`repro.stm`)
        #: and the per-CPU STM runtime. In the default "lock" mode
        #: ``stm`` is None and nothing below is bound, so every lock-mode
        #: path stays byte-identical. In "stm" mode the memory operations
        #: are shadowed by instance attributes that route software-
        #: transaction accesses through the STM runtime and make hardware
        #: transactions subscribe to the orec lines they touch.
        self.fallback_mode = resolve_fallback_mode(params)
        if self.fallback_mode == "stm":
            self.stm: Optional[StmRuntime] = StmRuntime(self)
            self.load = self._hybrid_load
            self.store = self._hybrid_store
            self.add_to_storage = self._hybrid_add_to_storage
            self.compare_and_swap = self._hybrid_compare_and_swap
            self.ntstg = self._hybrid_ntstg
        else:
            self.stm = None

        #: Attached :class:`MetricsSink` (None, one sink, or a fanout).
        #: Hook sites guard on ``self.metrics is not None`` so the
        #: metrics-off hot paths pay one attribute load per site.
        self.metrics: Optional[MetricsSink] = None

        fabric.register(self)

    # ------------------------------------------------------------------
    # metrics hook management
    # ------------------------------------------------------------------

    def attach_metrics(self, sink: MetricsSink) -> None:
        """Attach a sink to this engine's hook points.

        Multiple sinks may be attached (a tracer and a metrics registry
        at once); they are fanned out in attachment order.
        """
        current = self.metrics
        if current is None:
            self.metrics = sink
        elif isinstance(current, _MetricsFanout):
            current.sinks.append(sink)
        else:
            self.metrics = _MetricsFanout([current, sink])

    def detach_metrics(self, sink: MetricsSink) -> None:
        """Detach a previously attached sink (no-op if absent)."""
        current = self.metrics
        if current is sink:
            self.metrics = None
        elif isinstance(current, _MetricsFanout) and sink in current.sinks:
            current.sinks.remove(sink)
            if len(current.sinks) == 1:
                self.metrics = current.sinks[0]
            elif not current.sinks:
                self.metrics = None

    # ------------------------------------------------------------------
    # pre/post instruction hooks (called by the CPU driver layers)
    # ------------------------------------------------------------------

    def note_instruction(self) -> None:
        """Account one architected instruction; deliver pending aborts.

        Called once per instruction by the interpreter / HTM API (not per
        re-executed operation). Also runs the Transaction Diagnostic
        Control's random-abort check.
        """
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self.tx.depth:
            self.note_tx_instruction()

    def note_tx_instruction(self) -> None:
        """The in-transaction part of :meth:`note_instruction`.

        Exposed separately so the interpreter's step loop, which checks
        ``pending_abort`` and ``tx.depth`` itself, can skip the call
        entirely outside transactions.
        """
        # The CPU is completing instructions, so continuing to
        # stiff-arm XIs is productive: the hang-avoidance reject
        # counter restarts. A CPU stuck in a fetch-retry loop (e.g. a
        # cyclic line dependency with another transaction) completes
        # nothing, its counter accumulates, and it aborts at the
        # threshold — "if the core is not completing further
        # instructions while continuously rejecting XIs, the
        # transaction is aborted at a certain threshold".
        self.tx.xi_rejects = 0
        self.tx.instruction_count += 1
        if (
            self.tx.constrained
            and self.tx.instruction_count
            > self.params.tx.constrained_max_instructions
        ):
            self.constraint_violation()
        # Mode 0 (the default) never aborts and consumes no RNG, so
        # the call is skipped entirely on the hot path.
        if self.tdc.mode != 0 and self.tdc.should_abort_now(
            self.tx.constrained
        ):
            self.tx.diagnostic_abort_armed = True
            self._abort_now(AbortCode.DIAGNOSTIC)
            self.raise_if_pending()

    def raise_if_pending(self) -> None:
        """Raise the pending abort signal, if any (completion stall point)."""
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------

    def tx_begin(
        self,
        controls: Optional[TbeginControls] = None,
        constrained: bool = False,
        ia: int = 0,
    ) -> int:
        """TBEGIN / TBEGINC. Returns the operation latency in cycles.

        Sets CC 0 (the caller owns the condition code register). Aborts
        with code 13 when the maximum nesting depth would be exceeded.
        Callers must enforce the restricted-instruction rule for TBEGIN(C)
        inside constrained transactions before calling.
        """
        self.raise_if_pending()
        costs = self.params.costs
        if constrained and controls is None:
            controls = CONSTRAINED_CONTROLS
        if controls is None:
            controls = TbeginControls()

        if self.tx.depth >= self.tx.max_nesting_depth:
            self._abort_now(AbortCode.NESTING_DEPTH_EXCEEDED, ia=ia)
            self.raise_if_pending()

        if self.tx.depth > 0:
            # Nested (inner) transaction: flattened nesting just bumps the
            # depth; a TBEGINC inside a non-constrained transaction opens a
            # normal non-constrained level.
            self.tx.begin(controls, constrained=False)
            return costs.nested_tbegin

        # Outermost TBEGIN.
        if controls.tdb_address is not None:
            # Accessibility test for the TDB (pre-transactional: a missing
            # page here is an ordinary program interruption, not an abort).
            self._translate_or_fault(controls.tdb_address, 256, store=True)

        latency = costs.tbeginc if constrained else (
            costs.tbegin_base
            + costs.tbegin_per_gr_pair * bin(controls.grsm).count("1")
        )
        self.tx.begin(controls, constrained=constrained)
        self.tx.tbegin_address = ia
        self.l1.begin_transaction()
        self.store_cache.begin_transaction()
        self._apply_drained_runs()
        self.stats_tx_started += 1
        m = self.metrics
        if m is not None:
            m.note_tbegin(constrained, ia)
        return latency

    def tx_end(self, ia: int = 0) -> Tuple[int, int]:
        """TEND. Returns ``(latency, remaining_depth)``.

        At depth 1 this commits: tx-dirty lines become normal, store-cache
        entries open for post-transaction gathering, PER TEND event checked.
        """
        self.raise_if_pending()
        if not self.tx.active:
            # TEND outside a transaction: sets CC, no other effect. The
            # caller reads depth 0 and sets CC accordingly.
            return (self.params.costs.tend, 0)
        if self.tx.depth == 1 and self.tdc.must_abort_before_tend(
            self.tx.constrained, self.tx.diagnostic_abort_armed
        ):
            self.tx.diagnostic_abort_armed = True
            self._abort_now(AbortCode.DIAGNOSTIC, ia=ia)
            self.raise_if_pending()
        pub_latency = 0
        if self.tx.depth == 1 and self.stm is not None:
            # Hybrid-TM publication: before the commit point, bump the
            # orec of every transactionally written grain to a fresh
            # global-clock version so concurrent STM commit-time
            # validation detects this hardware transaction's stores.
            # Aborts (STORE_CONFLICT) if a grain is locked by a
            # committing software transaction. Resumable across
            # FetchRetry via tx.stm_wv / tx.stm_pub_idx.
            lines = self.store_cache.tx_lines()
            if lines:
                conflict, pub_latency = self.stm.hw_publish(self.tx, lines)
                if conflict is not None:
                    self._abort_now(AbortCode.STORE_CONFLICT,
                                    conflict_token=conflict, ia=ia)
                    self.raise_if_pending()
        remaining = self.tx.end()
        if remaining > 0:
            return (self.params.costs.tend, remaining)

        # Outermost TEND: commit. Footprint sizes are captured before the
        # commit tears them down (end_transaction clears the store-cache
        # tx marks, tx.reset drops the read set).
        m = self.metrics
        if m is not None:
            read_set = self.tx.read_set
            write_set = self.store_cache.tx_lines()
            m.note_commit(
                ia,
                len(read_set),
                len(write_set),
                len(self.store_cache),
                self.footprint.tracking_rows(),
            )
            m.note_commit_sets(ia, self.tx.tbegin_address,
                               self.tx.constrained, read_set, write_set)
        self.store_cache.end_transaction()
        self.stq.clear_tx_marks()
        self.l1.end_transaction()
        constrained = self.tx.constrained
        self.tx.reset()
        self.stats_tx_committed += 1
        if constrained:
            self.millicode.note_constrained_success()
            self.speculation_active = self.params.speculation
        if self.solo_requested:
            self.solo_requested = False
        event = self.per.check_tend(ia)
        if event is not None:
            self.pending_per_event = event
        return (self.params.costs.tend + pub_latency, 0)

    def tx_abort(self, code: int, ia: int = 0) -> None:
        """TABORT: immediate abort with a program-specified code."""
        self.raise_if_pending()
        if code < TABORT_CODE_BASE:
            code = TABORT_CODE_BASE + code
        if not self.tx.active:
            raise MachineStateError("TABORT outside a transaction is a special-"
                                    "operation exception; caller must check")
        self._abort_now(code, ia=ia)
        self.raise_if_pending()

    def quiesce(self) -> None:
        """Drain every buffered (non-transactional) store to memory.

        Called at the end of a simulation run so the architected memory
        image reflects all committed stores; the hardware analogue is the
        store cache naturally draining when the CPU idles.
        """
        self.store_cache.drain_all()
        self._apply_drained_runs()

    def close(self) -> None:
        """Break the back-edges of this engine's object graph once it is
        finished (see :meth:`repro.sim.machine.Machine.close`): the
        hybrid-mode method aliases bound to this engine, the footprint
        policy's references to it and to the L1, and the STM runtime's
        references to it. Statistics stay readable; the engine cannot
        execute afterwards."""
        for name in ("load", "store", "add_to_storage", "compare_and_swap",
                     "ntstg"):
            self.__dict__.pop(name, None)
        self.footprint.unbind()
        if self.stm is not None:
            self.stm.close()

    def _apply_drained_runs(self) -> None:
        """Apply pending store-cache drains to memory (common chokepoint).

        Every drain that changes the memory image flows through here (or
        through the capacity-pressure path in :meth:`store`), so parked
        spinners watching a drained block can be woken — a conservative
        companion to the precise XI-time wake in the fabric.
        """
        runs = self.store_cache.take_drained()
        if runs:
            self.memory.apply_runs(runs)
            fabric = self.fabric
            if fabric.watches.by_block:
                fabric.wake_drained(runs)

    # ------------------------------------------------------------------
    # spin-wait elision support (see repro.cpu.interpreter)
    # ------------------------------------------------------------------

    def add_spin_watch(self, line: int, block: int) -> None:
        """Register this CPU's park-time line watch with the fabric."""
        self.fabric.watch_add(self.cpu_id, line, block)

    def clear_spin_watch(self) -> None:
        self.fabric.watch_remove(self.cpu_id)

    def add_retry_watch(self, line: int, block: int) -> None:
        """Register this CPU's parked retry chain with the fabric."""
        self.fabric.retry_watch_add(self.cpu_id, line, block)

    def clear_retry_watch(self) -> None:
        self.fabric.retry_watch_remove(self.cpu_id)

    def spin_replay_loads(self, line: int, count: int) -> None:
        """Account ``count`` elided L1-hit loads of ``line`` at wake time.

        Mirrors exactly what the inline L1-hit path of :meth:`load` does
        per load — fabric fetch counter, L1 directory clock, the entry's
        LRU stamp, and the metrics hook — so a fast-forwarded spin is
        indistinguishable from an executed one. The entry may already be
        gone when the wake was caused by an invalidating XI; the loads
        being replayed all preceded that XI, and a removed entry's LRU
        stamp is irrelevant, so only the clock advances then.
        """
        self.fabric.stats_fetches += count
        directory = self._l1_dir
        directory._clock += count
        entry = self._l1_entries.get(line)
        if entry is not None:
            entry.lru = directory._clock
        m = self.metrics
        if m is not None:
            for _ in range(count):
                m.note_fetch(line, False, "l1")

    def nesting_depth(self) -> Tuple[int, int]:
        """ETND: ``(latency, current nesting depth)`` (millicoded)."""
        self.raise_if_pending()
        return (self.params.costs.etnd, self.tx.depth)

    def ppa_tx_assist(self, abort_count: int) -> int:
        """PPA(TX): returns the total latency including the random delay."""
        self.raise_if_pending()
        return self.params.costs.ppa_base + self.millicode.ppa_delay(abort_count)

    # ------------------------------------------------------------------
    # memory operations
    # ------------------------------------------------------------------

    def load(self, addr: int, length: int = 8,
             exclusive: bool = False) -> Tuple[int, int]:
        """Load ``length`` bytes; returns ``(value, latency)``.

        Transactional loads join the read set and set the L1 tx-read bits.
        ``exclusive`` models a load with *store intent* (the LSU detects a
        store to the same line in the pipeline and fetches exclusive up
        front), avoiding a read-only window before the upgrade.
        """
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self._page_missing:
            self._translate(addr, length, store=False)
        first = addr & self._line_mask
        if (addr + length - 1) & self._line_mask == first:
            # Single-line access — the overwhelmingly common case. The
            # L1-hit fetch (mirroring ``_fetch``'s inline block; a
            # pending abort cannot appear between the entry check above
            # and here) and the no-pending-store page read are both
            # inlined, making a hit load a few dict probes and a slice.
            entry = self._l1_entries.get(first)
            if entry is not None and (
                not exclusive or entry.state is Ownership.EXCLUSIVE
            ):
                directory = self._l1_dir
                self.fabric.stats_fetches += 1
                directory._clock += 1
                entry.lru = directory._clock
                wait = self._fetch_wait
                if wait is not None and wait[0] == first:
                    self._fetch_wait = None
                m = self.metrics
                if m is not None:
                    m.note_fetch(first, exclusive, "l1")
                latency = self._lat.l1_hit
                tx = self.tx
                if tx.depth:
                    # ``_note_read_lines`` unrolled against the entry we
                    # already hold (mark_tx_read's lookup would re-find
                    # it) and the common single-octoword access.
                    if not entry.tx_read:
                        entry.tx_read = True
                        if not entry.tx_dirty:
                            self.l1._tx_marked.append(entry)
                    tx.read_set.add(first)
                    octo = addr & _OCTO_MASK
                    if (addr + length - 1) & _OCTO_MASK == octo:
                        tx.octowords.add(octo)
                    else:
                        tx.octowords.update(octowords_touched(addr, length))
                    if (
                        tx.constrained
                        and len(tx.octowords)
                        > self.params.tx.constrained_max_octowords
                    ):
                        self.constraint_violation()
                    fpc = self._fp_read_check
                    if fpc is not None:
                        code = fpc()
                        if code is not None:
                            self._abort_now(code, conflict_token=first)
                            raise TransactionAbortSignal(self.pending_abort)
            else:
                latency, source = self._fetch(first, exclusive=exclusive)
                if self.tx.depth:
                    self._note_read_lines((first,), addr, length)
                    if source != "l1":
                        self._speculative_prefetch(first)
            if not self._stq_entries:
                # ``overlaps_range`` unrolled: a single-line access spans
                # at most two store-cache blocks.
                by_block = self._sc_by_block
                block = addr & _BLOCK_MASK
                if not by_block or (
                    block not in by_block
                    and ((addr + length - 1) & _BLOCK_MASK == block
                         or block + BLOCK_SIZE not in by_block)
                ):
                    offset = addr & PAGE_MASK
                    if offset + length <= PAGE_BYTES:
                        page = self._mem_pages.get(addr >> PAGE_SHIFT)
                        if page is None:
                            return (0, latency)
                        return (
                            int.from_bytes(
                                page[offset : offset + length], "big"
                            ),
                            latency,
                        )
            return (self._read_value(addr, length), latency)
        latency = 0
        missed = False
        lines = lines_touched(addr, length, self._line_size)
        for line in lines:
            cycles, source = self._fetch(line, exclusive=exclusive)
            latency += cycles
            if source != "l1":
                missed = True
        if self.tx.depth:
            # Both calls are no-ops outside a transaction (and the
            # prefetch consumes RNG only when one is active), so the
            # non-transactional fast path skips them entirely.
            self._note_read_lines(lines, addr, length)
            if missed:
                self._speculative_prefetch(lines[-1])
        return (self._read_value(addr, length), latency)

    def store(self, addr: int, value: int, length: int = 8) -> int:
        """Store ``length`` bytes; returns the latency.

        Requires exclusive ownership of the target lines; buffers the data
        in the store queue / gathering store cache.
        """
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self._page_missing:
            self._translate(addr, length, store=True)
        first = addr & self._line_mask
        if (addr + length - 1) & self._line_mask == first:
            latency = self._fetch(first, exclusive=True)[0]
            lines: Tuple[int, ...] = (first,)
        else:
            latency = 0
            lines = lines_touched(addr, length, self._line_size)
            for line in lines:
                latency += self._fetch(line, exclusive=True)[0]
        if self.per.storage_range is not None:
            self._check_per_store(addr, length)
        self._commit_store(addr, value, length, ntstg=False)
        if self.tx.depth:
            self._note_write_lines(lines, addr, length)
        return latency

    def add_to_storage(self, addr: int, increment: int,
                       length: int = 8) -> Tuple[int, int]:
        """Interlocked add-immediate-to-storage (ASI/AGSI).

        The increment pattern the benchmarks use: the line is fetched
        *exclusive* up front (store intent), so there is no read-only
        window between the load and the store half of the update — two
        CPUs incrementing the same variable serialise through XI
        stiff-arming instead of aborting each other.

        Returns ``(new_value, latency)``.
        """
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self._page_missing:
            self._translate(addr, length, store=True)
        first = addr & self._line_mask
        if (addr + length - 1) & self._line_mask == first:
            latency = self._fetch(first, exclusive=True)[0]
            lines: Tuple[int, ...] = (first,)
        else:
            latency = 0
            lines = lines_touched(addr, length, self._line_size)
            for line in lines:
                latency += self._fetch(line, exclusive=True)[0]
        if self.per.storage_range is not None:
            self._check_per_store(addr, length)
        mask = (1 << (8 * length)) - 1
        current = self._read_value(addr, length)
        signed = current - (1 << (8 * length)) if current >> (8 * length - 1) else current
        new_value = (signed + increment) & mask
        self._commit_store(addr, new_value, length, ntstg=False)
        if self.tx.depth:
            self._note_write_lines(lines, addr, length)
        return (new_value, latency)

    def ntstg(self, addr: int, value: int) -> int:
        """Non-transactional store of a doubleword (8 bytes).

        Isolated like other transactional stores, but committed to memory
        even on abort. "The architecture requires that the memory locations
        stored to by NTSTG do not overlap with other stores from the
        transaction" — we do not police the overlap (the architecture makes
        it a programming error with unpredictable results).
        """
        self.raise_if_pending()
        if addr % 8:
            self._program_interruption(InterruptionCode.SPECIFICATION, addr)
        if self._page_missing:
            self._translate(addr, 8, store=True)
        line = line_address(addr, self.params.line_size)
        latency = self._fetch(line, exclusive=True)[0]
        self._check_per_store(addr, 8)
        self._commit_store(addr, value, 8, ntstg=True)
        self._note_write_lines((line,), addr, 8)
        return latency

    def compare_and_swap(
        self, addr: int, expected: int, new: int, length: int = 8
    ) -> Tuple[bool, int, int]:
        """Interlocked compare-and-swap.

        Returns ``(swapped, observed_value, latency)``; the observed value
        is what CS loads into the comparand register on a miscompare.
        """
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self._page_missing:
            self._translate(addr, length, store=True)
        latency = self.params.costs.cas_extra
        first = addr & self._line_mask
        if (addr + length - 1) & self._line_mask == first:
            latency += self._fetch(first, exclusive=True)[0]
            lines: Tuple[int, ...] = (first,)
        else:
            lines = lines_touched(addr, length, self._line_size)
            for line in lines:
                latency += self._fetch(line, exclusive=True)[0]
        current = self._read_value(addr, length)
        if current == expected:
            if self.per.storage_range is not None:
                self._check_per_store(addr, length)
            self._commit_store(addr, new, length, ntstg=False)
            if self.tx.depth:
                self._note_write_lines(lines, addr, length)
            swapped = True
        else:
            if self.tx.depth:
                self._note_read_lines(lines, addr, length)
            swapped = False
        return (swapped, current, latency)

    # ------------------------------------------------------------------
    # hybrid-TM routing (bound as instance attributes in stm mode only)
    # ------------------------------------------------------------------

    def _subscribe_orecs(self, addr: int, length: int) -> int:
        """Hardware-transaction orec subscription (stm mode).

        Fetches (read-only), tx-read-marks and tracks the orec line
        covering every 128-byte grain this transactional access touches.
        Subscriptions live in the dedicated ``tx.orec_set`` — not the
        read set — so the logged data footprint stays exactly the
        architected accesses; :meth:`_read_set_hit` checks both, so an
        STM writer's lock-acquisition CSG (an exclusive XI on the orec
        line) aborts this transaction through the normal FETCH_CONFLICT
        path. One fetch per orec line per transaction.

        A *locked* orec (odd version) means a software transaction is
        between lock acquisition and write-back/release for that grain:
        the grain's data is about to change, and reading it now could
        observe a torn software commit (some grains written back, some
        not). The subscription only protects against locks acquired
        *after* this fetch, so the lock already present must be checked
        explicitly — abort as a fetch conflict, exactly as if the
        writer's XI had landed first.
        """
        oset = self.tx.orec_set
        latency = 0
        line_mask = self._line_mask
        first_grain = addr >> OREC_GRAIN_SHIFT
        last_grain = (addr + length - 1) >> OREC_GRAIN_SHIFT
        for grain in range(first_grain, last_grain + 1):
            oa = orec_address(grain << OREC_GRAIN_SHIFT)
            oline = oa & line_mask
            if oline not in oset:
                latency += self._fetch(oline, False)[0]
                self.l1.mark_tx_read(oline)
                oset.add(oline)
            if self._read_value(oa, 8) & 1:
                self._abort_now(AbortCode.FETCH_CONFLICT,
                                conflict_token=addr & line_mask)
                self.raise_if_pending()
        return latency

    def _hybrid_load(self, addr: int, length: int = 8,
                     exclusive: bool = False) -> Tuple[int, int]:
        stm = self.stm
        if stm.active:
            return stm.tx_load(addr, length, exclusive)
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self.tx.depth:
            # Translation faults precede any coherence traffic: the orec
            # subscription must not run (or FetchRetry) for an access
            # that architecturally page-faults, so the fault/filtering
            # behaviour is identical to lock mode.
            self._translate(addr, length, store=False)
            extra = self._subscribe_orecs(addr, length)
        else:
            extra = 0
        value, latency = TxEngine.load(self, addr, length, exclusive)
        return (value, latency + extra)

    def _hybrid_store(self, addr: int, value: int, length: int = 8) -> int:
        stm = self.stm
        if stm.active:
            return stm.tx_store(addr, value, length)
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self.tx.depth:
            self._translate(addr, length, store=True)
            extra = self._subscribe_orecs(addr, length)
        else:
            extra = 0
        return TxEngine.store(self, addr, value, length) + extra

    def _hybrid_add_to_storage(self, addr: int, increment: int,
                               length: int = 8) -> Tuple[int, int]:
        stm = self.stm
        if stm.active:
            return stm.tx_add(addr, increment, length)
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self.tx.depth:
            self._translate(addr, length, store=True)
            extra = self._subscribe_orecs(addr, length)
        else:
            extra = 0
        value, latency = TxEngine.add_to_storage(self, addr, increment, length)
        return (value, latency + extra)

    def _hybrid_compare_and_swap(
        self, addr: int, expected: int, new: int, length: int = 8
    ) -> Tuple[bool, int, int]:
        stm = self.stm
        if stm.active:
            return stm.tx_cas(addr, expected, new, length)
        if self.pending_abort is not None:
            raise TransactionAbortSignal(self.pending_abort)
        if self.tx.depth:
            self._translate(addr, length, store=True)
            extra = self._subscribe_orecs(addr, length)
        else:
            extra = 0
        swapped, observed, latency = TxEngine.compare_and_swap(
            self, addr, expected, new, length
        )
        return (swapped, observed, latency + extra)

    def _hybrid_ntstg(self, addr: int, value: int) -> int:
        # NTSTG bypasses the transactional write set on both paths, so
        # it neither subscribes nor joins the STM redo log.
        stm = self.stm
        if stm.active:
            return stm.tx_ntstg(addr, value)
        return TxEngine.ntstg(self, addr, value)

    # ------------------------------------------------------------------
    # fetch path and footprint accounting
    # ------------------------------------------------------------------

    def _fetch(self, line: int, exclusive: bool) -> Tuple[int, str]:
        """Two-phase fetch: wait for the interconnect, then transfer.

        The ownership transfer only happens once the data would actually
        have arrived — otherwise a transaction would appear to "hold" a
        line (and stiff-arm other CPUs) for the whole interconnect delay
        of its *own* pending fetch, grossly inflating conflict windows.
        The wait is realised as a FetchRetry so other CPUs run meanwhile;
        the re-executed operation then performs the real transfer at the
        L1-install cost.
        """
        lat = self._lat
        # L1 hit with sufficient ownership: the probe would return l1_hit
        # (never a retry) and try_fetch would return an "l1" outcome after
        # an LRU touch — done inline, skipping both fabric calls.
        entry = self._l1_entries.get(line)
        if entry is not None and (
            not exclusive or entry.state is Ownership.EXCLUSIVE
        ):
            directory = self._l1_dir
            self.fabric.stats_fetches += 1
            directory._clock += 1
            entry.lru = directory._clock
            # Only cancel a served interconnect wait armed for *this*
            # line: during a re-executed multi-line operation, hits on
            # the already-fetched leading lines must not clear the wait
            # armed for a trailing line (that would re-probe and re-arm
            # it forever — a livelock).
            wait = self._fetch_wait
            if wait is not None and wait[0] == line:
                self._fetch_wait = None
            if self.pending_abort is not None:
                raise TransactionAbortSignal(self.pending_abort)
            m = self.metrics
            if m is not None:
                m.note_fetch(line, exclusive, "l1")
            return (lat.l1_hit, "l1")
        key = (line, exclusive)
        if self._fetch_wait != key:
            # Own-L2 hit with sufficient ownership: the probe can only
            # return l2_hit (exclusive-in-L2 rules out the ro_owners
            # upgrade case), which never triggers a retry — skip it.
            l2_entry = self._l2_entries.get(line)
            if l2_entry is None or (
                exclusive and l2_entry.state is not Ownership.EXCLUSIVE
            ):
                probe = self.fabric.probe_latency(self.cpu_id, line, exclusive)
                if probe > lat.l2_hit:
                    self._fetch_wait = key
                    raise FetchRetry(probe - lat.l1_hit, key)
        # Clear only a wait armed for *this* line (same rule as the
        # L1-hit path above): an L2 hit on a leading line must not
        # cancel the interconnect wait armed for a trailing line, or a
        # transaction touching several cold lines re-probes and re-arms
        # the trailing fetch forever — a livelock under abort pressure.
        wait = self._fetch_wait
        if wait is not None and wait[0] == line:
            self._fetch_wait = None
        outcome = self.fabric.try_fetch(self.cpu_id, line, exclusive)
        # Our own install may have evicted our own footprint (note_l1/l2
        # hooks set pending aborts); deliver before using the data.
        self.raise_if_pending()
        if not outcome.done:
            raise FetchRetry(outcome.latency, key)
        latency = outcome.latency
        if latency > lat.l1_hit:
            latency = lat.l1_hit
        m = self.metrics
        if m is not None:
            m.note_fetch(line, exclusive, outcome.source)
        return (latency, outcome.source)

    def _note_read_lines(self, lines, addr: int, length: int) -> None:
        if not self.tx.active:
            return
        for line in lines:
            self.l1.mark_tx_read(line)
            self.tx.read_set.add(line)
        self._note_octowords(addr, length)
        fpc = self._fp_read_check
        if fpc is not None:
            code = fpc()
            if code is not None:
                self._abort_now(code, conflict_token=lines[-1])
                self.raise_if_pending()

    def _note_write_lines(self, lines, addr: int, length: int) -> None:
        if not self.tx.active:
            return
        for line in lines:
            self.l1.mark_tx_dirty(line)
        self._note_octowords(addr, length)
        fpw = self._fp_write_check
        if fpw is not None:
            code = fpw(lines)
            if code is not None:
                self._abort_now(code, conflict_token=lines[-1])
                self.raise_if_pending()

    def _note_octowords(self, addr: int, length: int) -> None:
        """Constrained footprint accounting: at most 4 aligned octowords."""
        self.tx.octowords.update(octowords_touched(addr, length))
        if (
            self.tx.constrained
            and len(self.tx.octowords) > self.params.tx.constrained_max_octowords
        ):
            self.constraint_violation()

    def constraint_violation(self) -> None:
        """A constrained-transaction constraint was violated: the program
        takes a *non-filterable* constraint-violation interruption."""
        self._program_interruption(InterruptionCode.TRANSACTION_CONSTRAINT)

    def restricted_instruction(self, ia: int = 0) -> None:
        """A restricted instruction reached completion inside a
        transaction: abort with code 11 (permanent, CC 3)."""
        self._abort_now(AbortCode.RESTRICTED_INSTRUCTION, ia=ia)
        self.raise_if_pending()

    #: Probability that a missing transactional load pulls in (and
    #: tx-read-marks) the next sequential line as well.
    PREFETCH_PROBABILITY = 0.25

    def _speculative_prefetch(self, line: int) -> None:
        """Model speculative over-marking of the read set (section III.C).

        A transactional load that *misses* may speculatively prefetch the
        next sequential line read-only and mark it tx-read — "over-marking"
        the footprint. Constrained-transaction millicode disables this
        after repeated aborts, "reducing the amount of speculative
        execution to avoid encountering aborts caused by speculative
        accesses to data that the transaction is not actually using" (the
        Figure 5(c) effect). Best-effort: a stiff-armed prefetch is simply
        dropped.
        """
        if not (self.tx.active and self.speculation_active):
            return
        next_line = line + self.params.line_size
        if next_line in self.tx.read_set:
            return
        if self.rng.random() >= self.PREFETCH_PROBABILITY:
            return
        try:
            outcome = self.fabric.try_fetch(self.cpu_id, next_line, False)
        except Exception:  # pragma: no cover - fabric never raises today
            return
        self.raise_if_pending()
        if outcome.done:
            self.stats_prefetches += 1
            self.l1.mark_tx_read(next_line)
            self.tx.read_set.add(next_line)
            fpc = self._fp_read_check
            if fpc is not None:
                # Speculative over-marking counts against a cardinality
                # bound exactly like an architected access.
                code = fpc()
                if code is not None:
                    self._abort_now(code, conflict_token=next_line)
                    self.raise_if_pending()

    def _read_value(self, addr: int, length: int) -> int:
        """Assemble a load value: STQ forwarding, then store cache, then
        the architected memory image."""
        end = addr + length
        # Fast path: nothing pending anywhere near the access — read the
        # architected image with one page probe and a C-level slice.
        if not self._stq_entries and (
            not self._sc_by_block
            or not self.store_cache.overlaps_range(addr, end)
        ):
            offset = addr & PAGE_MASK
            if offset + length <= PAGE_BYTES:
                page = self._mem_pages.get(addr >> PAGE_SHIFT)
                if page is None:
                    return 0
                return int.from_bytes(page[offset : offset + length], "big")
            return self.memory.read_int(addr, length)
        # Buffered stores overlap the access: start from the architected
        # image, then overlay the store cache and finally the (younger)
        # store queue, so the youngest pending value wins per byte.
        buf = bytearray(self.memory.read(addr, length))
        self.store_cache.overlay_range(addr, buf)
        if self._stq_entries:
            self.stq.overlay_range(addr, buf)
        return int.from_bytes(buf, "big")

    def _commit_store(self, addr: int, value: int, length: int, ntstg: bool) -> None:
        """Buffer a completed store in the gathering store cache.

        Architecturally the store passes through the store queue first,
        but our stores are instruction-atomic: the queue would be pushed
        and drained within this very call (it is empty at every other
        program point), so the entry bounce is elided and the data
        gathers directly. ``self.stq`` remains part of the engine for
        the forwarding-order semantics it documents and for callers that
        queue stores explicitly.
        """
        mask = (1 << (8 * length)) - 1
        data = (value & mask).to_bytes(length, "big")
        try:
            drained = self.store_cache.store(
                addr, data, tx=self.tx.depth > 0, ntstg=ntstg
            )
        except StoreCacheOverflow:
            self._abort_now(self.footprint.on_store_overflow())
            self.raise_if_pending()
            drained = 1  # earlier blocks of the store may have drained
        if drained:
            self._apply_drained_runs()

    def _check_per_store(self, addr: int, length: int) -> None:
        if self.per.storage_range is None:
            return
        event = self.per.check_store(addr, length, self.tx.active)
        if event is not None:
            # PER events cause a non-filterable program interruption; in a
            # transaction they abort first (section II.E.2).
            self.pending_per_event = event
            self._program_interruption(InterruptionCode.PER_EVENT, addr)

    # ------------------------------------------------------------------
    # translation / program interruptions
    # ------------------------------------------------------------------

    def _translate(self, addr: int, length: int, store: bool) -> None:
        missing = self.page_table.first_missing(addr, length)
        if missing >= 0:
            self._program_interruption(
                InterruptionCode.PAGE_TRANSLATION, missing
            )

    def _translate_or_fault(self, addr: int, length: int, store: bool) -> None:
        """Pre-transactional accessibility test (TDB address on TBEGIN)."""
        missing = self.page_table.first_missing(addr, length)
        if missing >= 0:
            raise ProgramInterruptionSignal(
                ProgramInterruption(
                    code=InterruptionCode.PAGE_TRANSLATION,
                    translation_address=missing,
                )
            )

    def _program_interruption(self, code: int, address: int = 0,
                              instruction_fetch: bool = False) -> None:
        """Recognise a program-exception condition at the current point.

        Outside a transaction the signal propagates to the CPU layer (OS
        interruption). Inside, the transaction aborts first; the effective
        PIFC decides between a filtered abort (code 12, no OS) and an
        unfiltered one (code 4, OS interruption after the abort).
        """
        interruption = ProgramInterruption(
            code=code,
            translation_address=address,
            instruction_fetch=instruction_fetch,
        )
        if not self.tx.active:
            raise ProgramInterruptionSignal(interruption)
        filtered = is_filtered(interruption, self.tx.effective_pifc)
        abort_code = (
            AbortCode.PROGRAM_EXCEPTION_FILTERED if filtered
            else AbortCode.PROGRAM_INTERRUPTION
        )
        self._abort_now(
            abort_code,
            interruption_code=int(code),
            translation_address=address,
            interrupts_to_os=not filtered,
        )
        self.raise_if_pending()

    def external_interruption(self) -> None:
        """An asynchronous (timer/I-O) interruption hit this CPU."""
        if self.tx.active:
            self._abort_now(AbortCode.EXTERNAL_INTERRUPTION, interrupts_to_os=True)

    # ------------------------------------------------------------------
    # abort machinery
    # ------------------------------------------------------------------

    def _abort_now(
        self,
        code: int,
        conflict_token: Optional[int] = None,
        ia: Optional[int] = None,
        interruption_code: Optional[int] = None,
        translation_address: Optional[int] = None,
        interrupts_to_os: bool = False,
    ) -> None:
        """Memory-side abort: isolation is torn down immediately; the
        architected effects wait for the next completion point."""
        if self.pending_abort is not None:
            return
        if not self.tx.active:
            return
        self.pending_abort = TransactionAbort(
            code=int(code),
            conflict_token=conflict_token,
            aborted_ia=ia,
            interruption_code=interruption_code,
            translation_address=translation_address,
            interrupts_to_os=interrupts_to_os,
            constrained=self.tx.constrained,
        )
        m = self.metrics
        if m is not None:
            # Footprint captured before the teardown below clears it.
            read_set = self.tx.read_set
            write_set = self.store_cache.tx_lines()
            m.note_abort(
                self.pending_abort,
                len(read_set),
                len(write_set),
                self.tx.xi_rejects,
                self.footprint.tracking_rows(),
            )
            m.note_abort_sets(self.pending_abort, self.tx.tbegin_address,
                              self.tx.constrained, read_set, write_set)
        # Invalidate speculative data: tx-dirty L1 lines vanish, pending
        # transactional stores are dropped (NTSTG doublewords survive),
        # the read set is forgotten.
        # A tx-dirty line stays valid in the L2 (it is clean there:
        # store-cache writeback to the L2 was blocked), so ownership is
        # unchanged.
        self.l1.abort_transaction()
        self.stq.invalidate_tx()
        self.store_cache.abort_transaction()
        self._apply_drained_runs()
        self.tx.read_set.clear()
        self.tx.octowords.clear()
        self.tx.orec_set.clear()
        self.solo_requested = False
        self.stats_tx_aborted += 1

    def process_abort(self, general_registers=None) -> Tuple[TransactionAbort, RetryPlan, int]:
        """The millicode abort sub-routine (section III.E).

        Called by the CPU layer after catching the abort signal. Stores the
        TDB if the outermost TBEGIN named one, computes the millicode
        latency, resets the transactional state, and (for constrained
        transactions) returns the retry plan. The *caller* applies GR
        restoration (it owns the register file) from ``gr_backup``.
        """
        abort = self.pending_abort
        if abort is None:
            raise MachineStateError("no abort to process")
        tdb_address = self.tx.tdb_address
        tdb_stored = False
        if tdb_address is not None:
            store_tdb(self.memory, tdb_address, abort, self.tx.depth,
                      general_registers)
            tdb_stored = True
        if abort.interrupts_to_os:
            # Second TDB copy into the CPU's prefix area for post-mortem
            # analysis (section II.E.1).
            store_tdb(self.memory, prefix_tdb_address(self.cpu_id), abort,
                      self.tx.depth, general_registers)
        restored_pairs = bin(self.tx.outermost.grsm).count("1") if self.tx.levels else 0
        latency = self.millicode.abort_processing_cost(abort, tdb_stored,
                                                       restored_pairs)
        plan = RetryPlan()
        if abort.constrained:
            if abort.interrupts_to_os:
                self.millicode.note_os_interruption()
            else:
                plan = self.millicode.note_constrained_abort()
                if plan.disable_speculation:
                    self.speculation_active = False
                if plan.broadcast_stop:
                    self.solo_requested = True
        self.tx.reset()
        self.pending_abort = None
        return (abort, plan, latency)

    # ------------------------------------------------------------------
    # XI handling (CpuPort implementation)
    # ------------------------------------------------------------------

    def receive_xi(self, xi: Xi) -> Tuple[XiResponse, int]:
        line = xi.line
        xi_type = xi.xi_type
        store_cache = self.store_cache
        if xi_type is XiType.EXCLUSIVE or xi_type is XiType.DEMOTE:
            verdict = store_cache.xi_compare(line)
            conflict = self._xi_conflict_code(xi_type, line, verdict)
            if conflict is not None:
                return self._stiff_arm(xi, conflict)
            extra = 0
            if verdict == "drain":
                drained = store_cache.drain_line(line)
                self._apply_drained_runs()
                extra = drained * self.params.latencies.store_cache_drain
            self._apply_xi(xi)
            m = self.metrics
            if m is not None:
                m.note_xi(xi, XiResponse.ACCEPT)
            return (XiResponse.ACCEPT, extra)

        if xi_type is XiType.READ_ONLY:
            if self._read_set_hit(line):
                # Not rejectable: the reader transaction aborts.
                self._abort_now(AbortCode.FETCH_CONFLICT, conflict_token=line)
            self._apply_xi(xi)
            m = self.metrics
            if m is not None:
                m.note_xi(xi, XiResponse.ACCEPT)
            return (XiResponse.ACCEPT, 0)

        # LRU XI from an inclusive higher-level cache eviction.
        if self._read_set_hit(line):
            self._abort_now(AbortCode.CACHE_FETCH_RELATED, conflict_token=line)
        # Compared after the abort above, which drops the tx entries.
        verdict = store_cache.xi_compare(line)
        if verdict == "reject":
            # A transactional entry holds the line.
            self._abort_now(AbortCode.CACHE_STORE_RELATED, conflict_token=line)
        elif verdict == "drain":
            store_cache.drain_line(line)
            self._apply_drained_runs()
        self._apply_xi(xi)
        m = self.metrics
        if m is not None:
            m.note_xi(xi, XiResponse.ACCEPT)
        return (XiResponse.ACCEPT, 0)

    def _xi_conflict_code(self, xi_type: XiType, line: int, verdict: str):
        """The abort code a rejectable XI for ``line`` would conflict on,
        or None when it would be accepted cleanly; ``verdict`` is the
        store cache's :meth:`~GatheringStoreCache.xi_compare` of the line.
        Pure query — shared between :meth:`receive_xi` (which acts on it)
        and :meth:`would_reject_xi` (the retry-parking peek), so the two
        can never drift apart."""
        if verdict == "reject":
            return AbortCode.STORE_CONFLICT
        if xi_type is XiType.EXCLUSIVE and self._read_set_hit(line):
            return AbortCode.FETCH_CONFLICT
        return None

    def would_reject_xi(self, xi_type: XiType, line: int) -> bool:
        """Exact, effect-free peek of the stiff-arm decision an incoming
        rejectable XI would get from :meth:`receive_xi` right now.

        Used by the scheduler's retry-parking tick: a parked retry
        waiter's fetch attempt only stays a *retry* when the owner would
        reject the XI — any other outcome (clean accept, drain-then-
        accept, threshold abort) lets the fetch succeed, so the waiter is
        woken and the attempt executes for real. Mirrors
        :meth:`_stiff_arm`: the reject requires a conflict, no
        broadcast-stop, and the post-increment reject count still under
        the hang-avoidance threshold.
        """
        verdict = self.store_cache.xi_compare(line)
        if self._xi_conflict_code(xi_type, line, verdict) is None:
            return False
        return (
            not self.stopped_by_broadcast
            and self.tx.xi_rejects + 1 < self.params.tx.xi_reject_threshold
        )

    def _read_set_hit(self, line: int) -> bool:
        """Precise read set plus the policy's imprecise tracking.

        Under the zEC12 policy the imprecise part is the LRU-extension
        row probe: "Since no precise address tracking exists for the LRU
        extensions, any non-rejected XI that hits a valid extension row
        [makes] the LSU trigger an abort" — including false positives,
        which we reproduce. Precise policies (power-spill, bounded)
        contribute nothing here.
        """
        if not self.tx.active or self.pending_abort is not None:
            return False
        tx = self.tx
        return (line in tx.read_set or line in tx.orec_set
                or self._fp_imprecise(line))

    def _stiff_arm(self, xi: Xi, abort_code: AbortCode) -> Tuple[XiResponse, int]:
        """Reject the XI "in the hope of finishing the transaction before
        the L3 repeats the XI", aborting at the hang-avoidance threshold."""
        self.tx.xi_rejects += 1
        if (
            not self.stopped_by_broadcast
            and self.tx.xi_rejects < self.params.tx.xi_reject_threshold
        ):
            self.stats_xi_rejected += 1
            m = self.metrics
            if m is not None:
                m.note_stiff_arm(xi, self.tx.xi_rejects)
                m.note_xi(xi, XiResponse.REJECT)
            return (XiResponse.REJECT, 0)
        self._abort_now(abort_code, conflict_token=xi.line)
        extra = 0
        if self.store_cache.xi_compare(xi.line) == "drain":
            drained = self.store_cache.drain_line(xi.line)
            self._apply_drained_runs()
            extra = drained * self.params.latencies.store_cache_drain
        self._apply_xi(xi)
        m = self.metrics
        if m is not None:
            m.note_xi(xi, XiResponse.ACCEPT)
        return (XiResponse.ACCEPT, extra)

    def _apply_xi(self, xi: Xi) -> None:
        """Directory effects of an accepted XI."""
        if xi.xi_type is XiType.DEMOTE:
            self.l1.directory.demote(xi.line)
            self.l2.directory.demote(xi.line)
        else:
            self.l1.directory.remove(xi.line)
            self.l2.directory.remove(xi.line)

    # ------------------------------------------------------------------
    # eviction notifications (CpuPort implementation)
    # ------------------------------------------------------------------

    def note_l1_eviction(self, entry) -> None:
        code = self.l1.note_eviction(entry)
        if code is not None:
            # The policy could not absorb the eviction (no LRU extension,
            # spill buffer full, ...): the read footprint overflowed.
            self._abort_now(code, conflict_token=entry.line)

    def note_l2_eviction(self, line: int) -> None:
        if not self.tx.active or self.pending_abort is not None:
            return
        code = self.footprint.on_l2_eviction(line)
        if code is not None:
            self._abort_now(code, conflict_token=line)
