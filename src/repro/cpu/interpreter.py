"""Instruction interpreter: one simulated CPU executing a program.

``IsaCpu.step()`` executes exactly one instruction and returns its latency
in cycles. The scheduler (see :mod:`repro.sim.scheduler`) advances the
CPU's local clock by that amount and interleaves CPUs in global-time
order.

Control-flow signals are resolved here, because this layer owns the
architected registers:

* :class:`~repro.core.engine.FetchRetry` (a stiff-armed line fetch)
  propagates to the scheduler, which waits out the back-off and calls
  ``step()`` again — the instruction address is unchanged, so the same
  instruction re-executes, exactly like the hardware repeating a rejected
  XI request.
* :class:`~repro.errors.TransactionAbortSignal` enters the millicode abort
  path: TDB store, GR-pair restore per the save mask, condition code 2/3,
  PSW backed up to after the outermost TBEGIN (TBEGIN) or to the TBEGINC
  itself (constrained, reflecting the immediate retry), plus the
  constrained retry-escalation plan.
* :class:`~repro.errors.ProgramInterruptionSignal` (outside transactions)
  goes to the OS model and resumes at the program-old PSW.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.abort import TransactionAbort
from ..core.engine import FetchRetry, RetryPark, SpinPark, TxEngine
from ..core.filtering import InterruptionCode
from ..core.txstate import TbeginControls
from ..errors import (
    MachineStateError,
    ProgramInterruptionSignal,
    TransactionAbortSignal,
)
from ..mem.xi import WATCH_BLOCK_MASK, XiType
from ..stm import StmAbort
from .assembler import Program
from .interrupts import OsModel
from .isa import Instruction, Mem
from .registers import MASK64, RegisterFile


class _Decoded:
    """One pre-decoded program location.

    Built once at CPU construction so the per-step path is a single dict
    probe: the handler is pre-bound to the CPU, the dispatch-table lookup
    is resolved, and the fall-through successor address is pre-computed
    (``Program.next_address`` is two dict probes plus bounds checks).

    ``spin_head`` carries the spin-elision predecode result: the spin
    candidate whose loop this address heads (None almost everywhere, and
    everywhere until elision first arms).
    """

    __slots__ = ("insn", "handler", "pseudo", "next_ia", "spin_head")

    def __init__(self, insn: Instruction, handler: Callable,
                 pseudo: bool, next_ia: int) -> None:
        self.insn = insn
        self.handler = handler
        self.pseudo = pseudo
        self.next_ia = next_ia
        self.spin_head = None


class _SpinCandidate:
    """A statically-qualified spin loop (see ``IsaCpu._find_spin_candidates``).

    ``head`` is the backward-branch target; ``members`` the union of the
    qualifying backward-branch ranges sharing that head; the single load
    in the union is recorded with its effective-address terms so the
    watched line can be computed from live registers at park time.
    """

    __slots__ = ("head", "members", "load_ia", "load_disp", "load_base",
                 "load_index", "cert_steps", "cert_snap", "cert_states",
                 "cert_layout")

    def __init__(self, head: int, members: frozenset, load_ia: int,
                 load_disp: int, load_base: Optional[int],
                 load_index: Optional[int]) -> None:
        self.head = head
        self.members = members
        self.load_ia = load_ia
        self.load_disp = load_disp
        self.load_base = load_base
        self.load_index = load_index
        #: Cached certificate from an earlier park of this loop: after a
        #: wake, one iteration reproducing it re-certifies the loop (the
        #: full two-identical-iterations proof ran once already).
        self.cert_steps: Optional[list] = None
        self.cert_snap: Optional[tuple] = None
        self.cert_states: Optional[list] = None
        #: The certificate's unrotated iteration ``(ias, lats,
        #: load_pos)``, built at its first park (``IsaCpu._try_park``).
        self.cert_layout: Optional[tuple] = None


class _SpinTracker:
    """Dynamic certification state for one candidate loop.

    Records rotated iterations — the ``(ia, latency)`` sequence from one
    completion of the head to the next, head step last — together with
    the post-step register/CC state of every step. An iteration that
    starts and ends at the same state with the certified latencies (every
    memory access an L1 hit) is a register fixed point whose observed
    value is L1-stable: it certifies either against the immediately
    preceding iteration (two identical consecutive iterations) or, after
    a wake, against the loop's cached certificate (one matching
    iteration re-establishes the proven fixed point). Certification arms
    ``park_ia`` — the instruction after the head — and the CPU parks
    there before executing it.
    """

    __slots__ = ("cand", "steps", "snap", "cur", "sigs", "park_ia",
                 "park_states")

    def __init__(self, cand: _SpinCandidate, snap: tuple) -> None:
        self.cand = cand
        self.steps: Optional[list] = None
        self.snap = snap
        self.cur: list = []
        self.sigs: list = []
        self.park_ia = -1
        self.park_states: Optional[list] = None


class _ParkedSpin:
    """Placeholder state for a parked spinner.

    While parked, the CPU keeps no event in the scheduler's queue: the
    scheduler records the chain's anchor and computes, in closed form
    from the certified ``(ias, lats)`` cycle, how many instructions the
    CPU would have executed and where its pending event falls (see
    :class:`repro.sim.scheduler._SpinChain`). It stores the results in
    ``steps``/``pos`` before :meth:`IsaCpu.spin_unpark` runs.
    """

    #: Scheduler dispatch flag: a spinner's events are counted in closed
    #: form, a retry waiter's are ticked.
    is_retry = False

    __slots__ = ("line", "block", "ias", "lats", "states", "load_pos",
                 "count", "pos", "steps")

    def __init__(self, line: int, block: int, ias: List[int],
                 lats: Tuple[int, ...], states: list, load_pos: int,
                 count: int) -> None:
        self.line = line
        self.block = block
        #: Unrotated iteration: ``ias[0]`` is the head; ``lats[j]`` is the
        #: latency of instruction j (at least one cycle each). Both are
        #: shared with the loop's certificate and never mutated.
        self.ias = ias
        self.lats = lats
        #: ``states[j]`` is the (gr tuple, cc) at boundary j — the state
        #: just before instruction j executes.
        self.states = states
        self.load_pos = load_pos
        self.count = count
        #: Next instruction index in the cycle and the elided
        #: instruction count. Watched-line loads are not tracked per
        #: event: consumption positions are strictly sequential from 0,
        #: so the count is closed-form from ``steps`` at unpark.
        self.pos = 0
        self.steps = 0


class _ParkedRetry:
    """Placeholder state for a parked ``FetchRetry`` back-off chain.

    One record per CPU, built at its first park and reset at each later
    one (:meth:`IsaCpu._retry_try_park`). While parked, the CPU's event
    chain stays in the scheduler's queue — each pop re-evaluates the
    probe/busy/stiff-arm decision of the pending fetch against live
    fabric state (see
    :meth:`repro.sim.scheduler.Scheduler._drain_parked`) instead of
    re-executing the instruction. The chain's engine-visible effects
    (fetch/reject counters, XI deliveries with their reject accounting
    on the owner, the ``_fetch_wait`` arm/clear alternation) are applied
    exactly as the real steps would, and the architected CPU state is
    never touched (a retry step completes no instruction), so the
    un-park needs no state restoration: the pending event simply
    re-enters real execution.

    The record keeps no reference to the CPU's private caches: no copy
    of the line appears there while it is parked (see ``_drain_parked``).
    """

    #: Scheduler dispatch flag (see :class:`_ParkedSpin`).
    is_retry = True

    __slots__ = ("line", "block", "key", "exclusive", "xi_type",
                 "line_info", "engine", "cpu")

    def __init__(self, engine: TxEngine) -> None:
        self.engine = engine
        self.cpu = engine.cpu_id
        # The pending fetch (``line``, ``block``, ``exclusive``), its
        # ``_fetch_wait`` key ``(line, exclusive)``, the XI an
        # exclusive-owner conflict sends (exclusive fetches invalidate,
        # read-only fetches demote: fabric try_fetch) and the line's
        # fabric ``line_info`` are set at each park. The parking try
        # created that ``LineInfo``, and the fabric never replaces one.


class IsaCpu:
    """One CPU executing an assembled program against a TxEngine."""

    def __init__(
        self,
        engine: TxEngine,
        program: Program,
        os_model: OsModel,
        mark_sink: Optional[Callable[[str], None]] = None,
        spin_elide: Optional[bool] = None,
    ) -> None:
        self.engine = engine
        self.program = program
        self.os = os_model
        self.regs = RegisterFile()
        self.regs.psw.instruction_address = program.entry
        #: Scheduler contract — plain attribute so the scheduler's
        #: twice-per-event check costs a slot load, not a descriptor call.
        self.done = False
        self.mark_sink = mark_sink
        #: IA currently being re-executed after a FetchRetry (so the
        #: architected instruction count is not double-incremented).
        self._retrying: Optional[int] = None
        #: Aborts observed, for tests and statistics.
        self.aborts: list = []
        self.stats_instructions = 0
        #: Per-instruction cost constant, hoisted out of the step loop.
        self._cost_base = engine.params.costs.base
        #: The engine's PER and transaction state objects are created once
        #: and never rebound — alias them for the per-step checks.
        self._eng_per = engine.per
        self._eng_tx = engine.tx
        #: IA -> ``(0, target)`` tuple for statically-resolved branches
        #: (filled by :meth:`_predecode`); taken branches return it
        #: directly instead of re-resolving the label per execution.
        self._branch_tuple: Dict[int, tuple] = {}
        #: Spin-wait elision master switch (None means on; False
        #: disables detection and parking, as the REPRO_CHECK reference
        #: run does).
        self.spin_elide = True if spin_elide is None else spin_elide
        #: Effective elision flag: armed by the scheduler (via
        #: :meth:`configure_spin_elide`) only when no per-step hooks
        #: (interrupt injection, schedule jitter) are installed. Off by
        #: default so directly-stepped CPUs never park: a parked CPU
        #: needs the scheduler to advance it.
        self._elide_on = False
        #: Retry-storm elision flag, armed separately: retry ticks
        #: consume the schedule-jitter stream exactly as the re-executed
        #: steps would (one draw per tick, in pop order), so retry
        #: parking survives ``schedule_perturb`` — only per-step
        #: observation hooks (``pre_step``) disable it.
        self._retry_on = False
        #: Active :class:`_SpinTracker` (certification in progress).
        self._spin: Optional[_SpinTracker] = None
        #: :class:`_ParkedSpin` record while parked.
        self._spin_rec: Optional[_ParkedSpin] = None
        #: The shared fabric, whose fetch counter ``step()`` snapshots to
        #: fingerprint a retry raise (see :meth:`_retry_note`).
        self._fabric = engine.fabric
        #: :class:`_ParkedRetry` record while retry-parked.
        self._retry_rec: Optional[_ParkedRetry] = None
        #: This CPU's reusable record (built at its first retry park).
        self._retry_slot: Optional[_ParkedRetry] = None
        #: Address -> pre-decoded record (see :class:`_Decoded`). Its
        #: spin-elision fields stay None until elision first arms (see
        #: :meth:`_predecode_elision`).
        self._decoded: Dict[int, _Decoded] = self._predecode(program)
        self._elision_predecoded = False
        #: Bound-method/object aliases for the per-step hot path (the
        #: PSW and decode table are created once and never rebound).
        self._decoded_get = self._decoded.get
        self._psw = self.regs.psw

    def _predecode(self, program: Program) -> Dict[int, _Decoded]:
        decoded: Dict[int, _Decoded] = {}
        dispatch = self._DISPATCH
        labels = program.labels
        branch_tuple = self._branch_tuple
        #: Mnemonic -> dispatch handler bound to this CPU (one bound
        #: method per mnemonic, not per program location).
        bound: Dict[str, Callable] = {}
        located = list(program)
        # The fall-through successor is the next located instruction, or
        # the end of the last one (``Program.next_address`` semantics).
        successors = [loc.address for loc in located[1:]]
        if located:
            successors.append(located[-1].end_address)
        for loc, next_ia in zip(located, successors):
            insn = loc.instruction
            address = loc.address
            mnemonic = insn.mnemonic
            target = insn.target
            if target is not None and target in labels:
                branch_tuple[address] = (0, labels[target])
            handler = bound.get(mnemonic)
            if handler is None:
                handler = dispatch.get(mnemonic)
                if handler is None:
                    # Defer the failure to execution time (matching
                    # the historical per-step dispatch behaviour).
                    def handler(ia, insn, _m=mnemonic):
                        raise MachineStateError(f"no handler for {_m}")
                else:
                    handler = handler.__get__(self, IsaCpu)
                bound[mnemonic] = handler
            decoded[address] = _Decoded(insn, handler, insn.pseudo, next_ia)
        return decoded

    def close(self) -> None:
        """Drop the decode table, whose handlers are methods bound to
        this CPU (see :meth:`repro.sim.machine.Machine.close`). The CPU
        cannot step afterwards; its statistics stay readable."""
        self._decoded = {}
        self._decoded_get = self._decoded.get

    # ------------------------------------------------------------------
    # spin-wait elision: static candidate analysis
    # ------------------------------------------------------------------

    #: Mnemonics allowed in a candidate spin body besides the single
    #: load: register-only operations with constant latency and the
    #: branches themselves. Anything that stores, enters/leaves a
    #: transaction, consumes the RNG (RANDOM could repeat twice by
    #: coincidence and falsely certify), or can fault is excluded.
    _SPIN_BODY = frozenset((
        "LHI", "AHI", "LR", "LA", "AGR", "SGR", "SLL", "SRL", "CGR",
        "NGR", "OGR", "XGR", "MSGR", "NOPR", "PAUSE",
        "J", "BRC", "CIJ", "BRCT",
    ))
    _SPIN_LOADS = frozenset(("LG", "LTG"))
    _SPIN_BRANCHES = frozenset(("J", "BRC", "CIJ", "BRCT"))
    #: "Short" loops only — bounds per-step tracking work.
    _SPIN_MAX_BODY = 16

    def _predecode_elision(self) -> None:
        """Run the spin-candidate analysis over the decoded program.
        Only an armed CPU reads the results, so this runs once,
        when :meth:`configure_spin_elide` first arms elision — runs
        under per-step hooks (schedule jitter, interrupt injection)
        never pay for it."""
        self._elision_predecoded = True
        self._find_spin_candidates(self.program, self._decoded)

    def _find_spin_candidates(self, program: Program,
                              decoded: Dict[int, _Decoded]) -> None:
        """Attach a :class:`_SpinCandidate` to every qualifying loop head.

        A backward-branch range qualifies if every instruction in
        ``[target, branch]`` is in the allowed set with at most one load.
        Ranges sharing a head are unioned (e.g. the lock loops in
        :mod:`repro.sync.spinlock` have a second backward branch, JNZ
        after CSG, whose range does *not* qualify — it simply contributes
        nothing, and execution entering it cancels certification because
        it leaves the member set). A head qualifies if its union contains
        exactly one load.
        """
        locs = [(loc.address, loc.instruction) for loc in program]
        addr_index = {addr: i for i, (addr, _) in enumerate(locs)}
        unions: Dict[int, set] = {}
        for i, (addr, insn) in enumerate(locs):
            if (insn.mnemonic not in self._SPIN_BRANCHES
                    or insn.target is None):
                continue
            target = program.labels.get(insn.target)
            if target is None or target > addr:
                continue
            start = addr_index.get(target)
            if start is None or i - start >= self._SPIN_MAX_BODY:
                continue
            members = set()
            loads = 0
            ok = True
            for member_addr, body in locs[start:i + 1]:
                m = body.mnemonic
                if m in self._SPIN_LOADS:
                    loads += 1
                elif m not in self._SPIN_BODY or body.pseudo:
                    ok = False
                    break
                members.add(member_addr)
            if ok and loads <= 1:
                unions.setdefault(target, set()).update(members)
        for head, members in unions.items():
            load = None
            count = 0
            for addr in members:
                insn = decoded[addr].insn
                if insn.mnemonic in self._SPIN_LOADS:
                    count += 1
                    load = (addr, insn)
            if count != 1:
                continue
            load_ia, load_insn = load
            mem = load_insn.operands[1]
            decoded[head].spin_head = _SpinCandidate(
                head, frozenset(members), load_ia,
                mem.disp, mem.base, mem.index,
            )

    @property
    def cpu_id(self) -> int:
        return self.engine.cpu_id

    # ------------------------------------------------------------------

    def step(self) -> int:
        """Execute one instruction; returns its latency in cycles.

        The body of the (historical) ``_execute`` helper is inlined here:
        it runs once per simulated instruction, so even the call overhead
        is measurable across hundred-million-step sweeps.
        """
        if self.done:
            return 0
        psw = self._psw
        ia = psw.instruction_address
        dec = self._decoded_get(ia)
        if dec is None:
            self.done = True
            return 0
        engine = self.engine
        sp = self._spin
        if sp is not None and sp.park_ia == ia:
            # Armed spin tracker and the head has come around again:
            # park instead of executing the certified iteration.
            if self._try_park(sp):
                raise SpinPark(self._spin_rec)
        # Fetches made so far: a retry raise's delta fingerprints the step.
        fetch0 = self._fabric.stats_fetches
        try:
            per = self._eng_per
            if per.ifetch_range is not None:
                event = per.check_ifetch(ia, engine.tx.active)
                if event is not None:
                    engine.pending_per_event = event
                    engine._program_interruption(
                        InterruptionCode.PER_EVENT, ia,
                        instruction_fetch=False,
                    )
            # ``note_tx_instruction`` cannot change the depth without
            # raising, so one read serves both transactional checks.
            depth = self._eng_tx.depth
            if not dec.pseudo:
                if engine.pending_abort is not None:
                    raise TransactionAbortSignal(engine.pending_abort)
                if depth and self._retrying != ia:
                    engine.note_tx_instruction()
            if depth:
                self._check_restrictions(ia, dec.insn)
            taken_target: Optional[int] = None
            latency = dec.handler(ia, dec.insn)
            if type(latency) is tuple:
                latency, taken_target = latency
            self._retrying = None
            self.stats_instructions += 1
            if taken_target is not None:
                if per.branch_range is None:
                    # ``_branch_to`` without a PER branch range is just
                    # the PSW update.
                    psw.instruction_address = taken_target
                else:
                    self._branch_to(taken_target)
            else:
                psw.instruction_address = dec.next_ia
            event = engine.pending_per_event
            if event is not None:
                engine.pending_per_event = None
                self.os.note_per_event(event)
            ret = latency + self._cost_base
            if sp is not None or dec.spin_head is not None:
                self._spin_track(ia, dec, ret)
            return ret
        except FetchRetry as retry:
            # Absorb the stiff-arm here instead of unwinding through the
            # scheduler: the scheduler would convert the exception into
            # ``latency = retry.delay`` anyway, and raising across the
            # step boundary costs more than returning.
            self._retrying = ia
            self._spin = None
            if self._retry_on and self._retry_note(retry.info, fetch0):
                raise RetryPark(self._retry_rec, retry.delay)
            return retry.delay
        except TransactionAbortSignal as signal:
            self._retrying = None
            self._spin = None
            return self._handle_abort(signal.abort)
        except ProgramInterruptionSignal as signal:
            self._retrying = None
            self._spin = None
            return self._handle_os_interruption(signal.interruption)
        except StmAbort as ab:
            self._retrying = None
            self._spin = None
            return self._handle_stm_abort(ia, ab)

    # ------------------------------------------------------------------
    # spin-wait elision: certification, parking, wake fast-forward
    # ------------------------------------------------------------------

    def configure_spin_elide(self, hooks_ok: bool,
                             retry_ok: Optional[bool] = None) -> None:
        """Scheduler contract: arm elision for a run without per-step
        hooks (interrupt injection / schedule jitter would observe or
        perturb the elided steps).

        ``retry_ok`` arms retry-storm elision independently (defaults to
        ``hooks_ok``): schedule jitter disables spin parking — its
        recorded latencies would skip the per-step draws — but retry
        ticks re-draw the jitter per elided step in exact pop order, so
        the scheduler passes ``retry_ok=True`` under ``perturb`` alone.
        """
        self._elide_on = bool(self.spin_elide and hooks_ok)
        if self._elide_on and not self._elision_predecoded:
            self._predecode_elision()
        self._retry_on = bool(
            self.spin_elide and (hooks_ok if retry_ok is None else retry_ok)
        )
        if not self._elide_on:
            self._spin = None

    def _spin_sig(self) -> tuple:
        return (tuple(self.regs.gr), self._psw.condition_code)

    def _spin_track(self, ia: int, dec: _Decoded, ret: int) -> None:
        """Post-step certification hook (only called at candidate heads
        or while a tracker is active — see the call site in step())."""
        sp = self._spin
        if sp is None:
            cand = dec.spin_head
            if cand is not None and self._elide_on:
                sig = self._spin_sig()
                sp = _SpinTracker(cand, sig)
                self._spin = sp
                if cand.cert_steps is not None and sig == cand.cert_snap:
                    # The head just completed in the certified
                    # head-completion state (see below): re-arm straight
                    # from the cache, no observation iteration needed.
                    sp.steps = cand.cert_steps
                    sp.park_ia = cand.cert_steps[0][0]
                    sp.park_states = cand.cert_states
            return
        cand = sp.cand
        if ia not in cand.members:
            # Execution left the candidate loop (e.g. into the CSG range
            # of a lock acquire); restart tracking if this instruction
            # happens to head another candidate.
            cand = dec.spin_head
            if cand is not None and self._elide_on:
                sig = self._spin_sig()
                sp = _SpinTracker(cand, sig)
                self._spin = sp
                if cand.cert_steps is not None and sig == cand.cert_snap:
                    sp.steps = cand.cert_steps
                    sp.park_ia = cand.cert_steps[0][0]
                    sp.park_states = cand.cert_states
            else:
                self._spin = None
            return
        sig = self._spin_sig()
        sp.cur.append((ia, ret))
        sp.sigs.append(sig)
        if ia != cand.head:
            return
        # A rotated iteration (head completion to head completion) just
        # finished.
        cur = sp.cur
        n = len(cur)
        if cand.cert_steps is not None and sig == cand.cert_snap:
            # The live state equals the certificate's head-completion
            # state, so the proven register fixed point is
            # re-established: every future boundary state is the
            # certified one, and the member latencies are deterministic
            # functions of that state (register-only handlers, no
            # hooks). The head's own latency need not match — it has
            # already executed and been accounted for real; ``_try_park``
            # verifies the line is L1-resident so the *next* head load
            # is the certified hit.
            sp.steps = cand.cert_steps
            sp.park_ia = cand.cert_steps[0][0]
            sp.park_states = cand.cert_states
            return
        if n >= 2:
            if cur == sp.steps and sig == sp.snap:
                # Two identical consecutive iterations: the iteration is
                # a register fixed point with L1-stable latencies.
                # ``sigs`` holds the post-step states of the rotated
                # iteration [body..., branch, head] = boundaries
                # [2..n-1, 0, 1]; reorder to boundary-indexed form and
                # cache the certificate for cheap re-parks after wakes.
                sigs = sp.sigs
                states = [sigs[-2], sigs[-1]] + sigs[: n - 2]
                cand.cert_steps = cur
                cand.cert_snap = sig
                cand.cert_states = states
                cand.cert_layout = None
                sp.steps = cur
                sp.park_ia = cur[0][0]
                sp.park_states = states
                return
        sp.steps = cur
        sp.snap = sig
        sp.cur = []
        sp.sigs = []

    def _try_park(self, sp: _SpinTracker) -> bool:
        """Validate park-time conditions and build the parked record.

        Returns True with the line watch registered (caller raises
        :class:`SpinPark`), or False with the tracker cancelled — the
        head then executes normally and detection restarts.
        """
        self._spin = None
        engine = self.engine
        if (
            not self._elide_on
            or self._eng_tx.depth
            or engine.pending_abort is not None
            or engine.solo_requested
            or engine.stopped_by_broadcast
            or self._eng_per.ifetch_range is not None
            or self._eng_per.branch_range is not None
            or self._retrying is not None
        ):
            return False
        cand = sp.cand
        # An armed tracker's steps are always the candidate's certificate.
        layout = cand.cert_layout
        if layout is None:
            steps = cand.cert_steps
            # Unrotate: steps is [body..., head]; the executed iteration
            # runs [head, body...].
            ias = [cand.head] + [ia for ia, _ in steps[:-1]]
            lats = (steps[-1][1], *[lat for _, lat in steps[:-1]])
            # The scheduler orders a parked chain's events by their
            # predecessors' cycles, which must come strictly earlier: a
            # zero-latency step never parks (empty layout).
            layout = cand.cert_layout = (
                (ias, lats, ias.index(cand.load_ia)) if min(lats) > 0
                else ())
        if not layout:
            return False
        ias, lats, load_pos = layout
        # The load's effective address comes from the register state at
        # its own boundary (the loop may step address registers between
        # here and the load).
        st_gr = sp.park_states[load_pos][0]
        addr = cand.load_disp
        if cand.load_base is not None:
            addr += st_gr[cand.load_base]
        if cand.load_index is not None:
            addr += st_gr[cand.load_index]
        block = addr & WATCH_BLOCK_MASK
        if (addr + 7) & WATCH_BLOCK_MASK != block:
            return False  # load straddles watch blocks: don't park
        line = addr & engine._line_mask
        if engine.l1.directory._entries.get(line) is None:
            # The line was invalidated between certification and this
            # step's event — the next load would miss, breaking the
            # certified latencies.
            return False
        rec = _ParkedSpin(
            line, block, ias, lats, sp.park_states, load_pos, len(ias),
        )
        # Parked at the instruction after the head: the head of the
        # certifying iteration has already executed.
        rec.pos = 1
        self._spin_rec = rec
        engine.add_spin_watch(line, block)
        return True

    def spin_unpark(self) -> None:
        """Materialize the architected state of a parked spinner.

        The scheduler set ``rec.pos`` to the pending event's instruction
        index and ``rec.steps`` to the elided instruction count (the
        in-flight one included, exactly as a real step would have been
        executed optimistically at push time). Flush those counts, replay
        the L1-hit accounting of the elided loads, and restore the
        registers/CC/PSW of the resume boundary so the pending event
        re-enters real execution seamlessly.
        """
        rec = self._spin_rec
        if rec is None:
            return
        self._spin_rec = None
        engine = self.engine
        engine.clear_spin_watch()
        steps = rec.steps
        if steps:
            self.stats_instructions += steps
            # Event j consumed cycle position (j - 1) % count, starting
            # from 0 — the watched-line load count is the number of
            # times position ``load_pos`` came up.
            load_pos = rec.load_pos
            if steps > load_pos:
                loads = (steps - 1 - load_pos) // rec.count + 1
                engine.spin_replay_loads(rec.line, loads)
        psw = self._psw
        j = rec.pos
        gr_values, cc = rec.states[j]
        self.regs.gr[:] = gr_values
        psw.condition_code = cc
        psw.instruction_address = rec.ias[j]

    # ------------------------------------------------------------------
    # retry-storm elision: certification, parking, wake
    # ------------------------------------------------------------------

    def _retry_note(self, info, fetch0: int) -> bool:
        """Raise-time certification (called from the FetchRetry catch in
        :meth:`step` whenever retry elision is armed); True when the
        chain parks, with its record in ``_retry_rec``.

        The chain parks at its first busy or stiff-armed *try*: the raise
        left ``_fetch_wait`` clear (a probe raise arms it, and the try
        that follows a probe may succeed at once, so probe raises never
        park), and the step performed exactly one fetch since ``fetch0``
        — a single-line operation (a multi-line one replays its leading
        L1-hit fetches every retry step, which ticks do not emulate).

        Parking at the first raise is exact because every later step of
        the chain is a re-execution (``_retrying`` is set): it runs no
        ``note_tx_instruction``, completes no instruction and leaves the
        architected state alone, so its only effects are the fetch
        decision's, which the scheduler's ticks re-read live — owner,
        busy window and stiff-arm verdict included — at every event.
        """
        if (
            info is None
            or self.engine._fetch_wait is not None
            or self._fabric.stats_fetches - fetch0 != 1
        ):
            return False
        return self._retry_try_park(info)

    def _retry_try_park(self, info) -> bool:
        """Apply the park refusals and build the parked record.

        Returns True with the retry watch registered (the caller raises
        :class:`RetryPark`), or False when a refusal applies — a pending
        abort, a solo request, a broadcast stop, a missing page or a PER
        range; the raise then backs off as an ordinary ``FetchRetry``.
        """
        engine = self.engine
        if (
            engine.pending_abort is not None
            or engine.solo_requested
            or engine.stopped_by_broadcast
            or engine._page_missing
            or self._eng_per.ifetch_range is not None
            or self._eng_per.branch_range is not None
        ):
            return False
        rec = self._retry_slot
        if rec is None:
            rec = self._retry_slot = _ParkedRetry(engine)
        line, exclusive = info
        rec.line = line
        rec.block = block = line & WATCH_BLOCK_MASK
        rec.key = info
        rec.exclusive = exclusive
        rec.xi_type = XiType.EXCLUSIVE if exclusive else XiType.DEMOTE
        rec.line_info = self._fabric.line_info(line)
        self._retry_rec = rec
        engine.add_retry_watch(line, block)
        return True

    def retry_unpark(self) -> None:
        """Return a retry-parked CPU to real execution.

        The parked ticks applied every engine-visible effect of the
        elided retry steps as they happened and left ``_fetch_wait`` in
        the phase the next step expects, so — unlike a spin un-park —
        there is nothing to materialize: drop the watch, and the pending
        event re-executes the retrying instruction for real (still as a
        re-execution: ``_retrying`` was set by the parking raise).
        """
        rec = self._retry_rec
        if rec is None:
            return
        self._retry_rec = None
        self.engine.clear_retry_watch()

    def _branch_to(self, target: int) -> None:
        engine = self.engine
        if engine.per.branch_range is not None:
            event = engine.per.check_branch(target, engine.tx.active)
            if event is not None:
                engine.pending_per_event = event
        self.regs.psw.instruction_address = target

    def _check_restrictions(self, ia: int, insn: Instruction) -> None:
        engine = self.engine
        if not engine.tx.active or insn.pseudo:
            return
        if engine.tx.constrained and insn.restricted_in_constrained:
            engine.constraint_violation()
        if insn.restricted_in_tx:
            engine.restricted_instruction(ia)
        if insn.modifies_ar and not engine.tx.effective_ar_allowed:
            engine.restricted_instruction(ia)
        if insn.modifies_fpr and not engine.tx.effective_fpr_allowed:
            engine.restricted_instruction(ia)

    def _deliver_per_event(self) -> None:
        event = self.engine.pending_per_event
        if event is not None:
            self.engine.pending_per_event = None
            self.os.note_per_event(event)

    # ------------------------------------------------------------------
    # abort / interruption paths
    # ------------------------------------------------------------------

    def _handle_abort(self, abort: TransactionAbort) -> int:
        engine = self.engine
        backup = dict(engine.tx.gr_backup)
        tbegin_address = engine.tx.tbegin_address
        constrained = engine.tx.constrained
        abort_done, plan, latency = engine.process_abort(self.regs.snapshot_gr())
        self.aborts.append(abort_done)
        self.regs.restore_pairs(backup)
        self.regs.psw.condition_code = abort_done.condition_code
        if tbegin_address is None:
            raise MachineStateError("abort without a recorded TBEGIN address")
        if constrained:
            # "the instruction address is set back directly to the TBEGINC
            # ... reflecting the immediate retry and absence of an abort
            # path for constrained transactions"
            self.regs.psw.instruction_address = tbegin_address
        else:
            self.regs.psw.instruction_address = self.program.next_address(
                tbegin_address
            )
        latency += plan.delay_cycles
        if abort_done.interrupts_to_os:
            if abort_done.interruption_code is not None:
                latency += self.os.handle(
                    self._interruption_from_abort(abort_done),
                    self.regs.psw,
                    self.cpu_id,
                )
            else:
                # Asynchronous (external / I-O) interruption: the OS
                # handler runs and redispatches at the program-old PSW.
                latency += self.os.external_interruption(self.cpu_id)
        return latency

    def _handle_stm_abort(self, ia: int, ab: StmAbort) -> int:
        """Software-transaction abort (hybrid-TM stm mode): restore the
        SBEGIN-time register snapshot, set CC 2 and resume after the
        SBEGIN, where the harness's JNZ branches into its back-off/retry
        path. Mirrors :meth:`_handle_abort` for the software side."""
        engine = self.engine
        stm = engine.stm
        snapshot = stm.gr_snapshot
        resume = stm.finish_abort(ia, ab.code)
        if snapshot is not None:
            self.regs.gr[:] = snapshot
        self.regs.psw.condition_code = 2
        self.regs.psw.instruction_address = resume
        return engine.params.costs.tbegin_base

    @staticmethod
    def _interruption_from_abort(abort: TransactionAbort):
        from ..core.filtering import ProgramInterruption

        return ProgramInterruption(
            code=abort.interruption_code,
            translation_address=abort.translation_address or 0,
        )

    def _handle_os_interruption(self, interruption) -> int:
        """Non-transactional program interruption: OS services it and
        returns to the program-old PSW (the faulting instruction for
        nullifying exceptions, so it re-executes)."""
        latency = self.os.handle(interruption, self.regs.psw, self.cpu_id)
        if interruption.code != InterruptionCode.PAGE_TRANSLATION:
            # Non-nullifying: skip past the failing instruction.
            ia = self.regs.psw.instruction_address
            self.regs.psw.instruction_address = self.program.next_address(ia)
        return latency

    # ------------------------------------------------------------------
    # operand helpers
    # ------------------------------------------------------------------

    def _ea(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.regs.get_gr(mem.base)
        if mem.index is not None:
            addr += self.regs.get_gr(mem.index)
        return addr

    def _set_cc_signed(self, value: int) -> None:
        if value == 0:
            self.regs.psw.condition_code = 0
        elif value < 0:
            self.regs.psw.condition_code = 1
        else:
            self.regs.psw.condition_code = 2

    # ------------------------------------------------------------------
    # instruction semantics
    # ------------------------------------------------------------------

    # The handlers on the sweep hot path (loads/stores, loop control,
    # lock spins) index ``regs.gr`` directly and inline the effective-
    # address arithmetic: at half a million executions per sweep point
    # the ``get_gr``/``_ea`` call overhead dominates their own work.

    def _op_lhi(self, ia, insn):
        r, imm = insn.operands
        self.regs.gr[r] = imm & MASK64
        return 0

    def _op_ahi(self, ia, insn):
        r, imm = insn.operands
        gr = self.regs.gr
        value = gr[r]
        result = (value - (1 << 64) if value >> 63 else value) + imm
        gr[r] = result & MASK64
        self._set_cc_signed(result)
        return 0

    def _op_lr(self, ia, insn):
        r1, r2 = insn.operands
        self.regs.set_gr(r1, self.regs.get_gr(r2))
        return 0

    def _op_la(self, ia, insn):
        r, mem = insn.operands
        gr = self.regs.gr
        addr = mem.disp
        if mem.base is not None:
            addr += gr[mem.base]
        if mem.index is not None:
            addr += gr[mem.index]
        gr[r] = addr & MASK64
        return 0

    def _op_agr(self, ia, insn):
        r1, r2 = insn.operands
        result = self.regs.get_gr_signed(r1) + self.regs.get_gr_signed(r2)
        self.regs.set_gr(r1, result)
        self._set_cc_signed(result)
        return 0

    def _op_sgr(self, ia, insn):
        r1, r2 = insn.operands
        result = self.regs.get_gr_signed(r1) - self.regs.get_gr_signed(r2)
        self.regs.set_gr(r1, result)
        self._set_cc_signed(result)
        return 0

    def _op_sll(self, ia, insn):
        r, amount = insn.operands
        self.regs.set_gr(r, self.regs.get_gr(r) << amount)
        return 0

    def _op_srl(self, ia, insn):
        r, amount = insn.operands
        self.regs.set_gr(r, self.regs.get_gr(r) >> amount)
        return 0

    def _op_cgr(self, ia, insn):
        r1, r2 = insn.operands
        a = self.regs.get_gr_signed(r1)
        b = self.regs.get_gr_signed(r2)
        self.regs.psw.condition_code = 0 if a == b else (1 if a < b else 2)
        return 0

    def _bitwise(self, insn, fn):
        r1, r2 = insn.operands
        result = fn(self.regs.get_gr(r1), self.regs.get_gr(r2))
        self.regs.set_gr(r1, result)
        self.regs.psw.condition_code = 0 if result == 0 else 1
        return 0

    def _op_ngr(self, ia, insn):
        return self._bitwise(insn, lambda a, b: a & b)

    def _op_ogr(self, ia, insn):
        return self._bitwise(insn, lambda a, b: a | b)

    def _op_xgr(self, ia, insn):
        return self._bitwise(insn, lambda a, b: a ^ b)

    def _op_msgr(self, ia, insn):
        r1, r2 = insn.operands
        self.regs.set_gr(r1, self.regs.get_gr(r1) * self.regs.get_gr(r2))
        return 0

    def _op_brct(self, ia, insn):
        (r,) = insn.operands
        gr = self.regs.gr
        value = (gr[r] - 1) & MASK64
        gr[r] = value
        if value != 0:
            tup = self._branch_tuple.get(ia)
            return tup if tup is not None else (
                0, self.program.target_address(insn)
            )
        return 0

    def _op_stck(self, ia, insn):
        (mem,) = insn.operands
        now = self.engine.fabric.clock()
        return self.engine.store(self._ea(mem), now, 8)

    def _op_lg(self, ia, insn):
        r, mem = insn.operands
        gr = self.regs.gr
        addr = mem.disp
        if mem.base is not None:
            addr += gr[mem.base]
        if mem.index is not None:
            addr += gr[mem.index]
        value, latency = self.engine.load(addr, 8)
        gr[r] = value
        return latency

    def _op_ltg(self, ia, insn):
        r, mem = insn.operands
        gr = self.regs.gr
        addr = mem.disp
        if mem.base is not None:
            addr += gr[mem.base]
        if mem.index is not None:
            addr += gr[mem.index]
        value, latency = self.engine.load(addr, 8)
        gr[r] = value
        psw = self.regs.psw
        if value == 0:
            psw.condition_code = 0
        elif value >> 63:
            psw.condition_code = 1
        else:
            psw.condition_code = 2
        return latency

    def _op_stg(self, ia, insn):
        r, mem = insn.operands
        gr = self.regs.gr
        addr = mem.disp
        if mem.base is not None:
            addr += gr[mem.base]
        if mem.index is not None:
            addr += gr[mem.index]
        return self.engine.store(addr, gr[r], 8)

    def _op_csg(self, ia, insn):
        r1, r3, mem = insn.operands
        gr = self.regs.gr
        addr = mem.disp
        if mem.base is not None:
            addr += gr[mem.base]
        if mem.index is not None:
            addr += gr[mem.index]
        swapped, observed, latency = self.engine.compare_and_swap(
            addr, gr[r1], gr[r3], 8
        )
        if swapped:
            self.regs.psw.condition_code = 0
        else:
            gr[r1] = observed
            self.regs.psw.condition_code = 1
        return latency

    def _op_agsi(self, ia, insn):
        mem, imm = insn.operands
        gr = self.regs.gr
        addr = mem.disp
        if mem.base is not None:
            addr += gr[mem.base]
        if mem.index is not None:
            addr += gr[mem.index]
        new_value, latency = self.engine.add_to_storage(addr, imm, 8)
        psw = self.regs.psw
        if new_value == 0:
            psw.condition_code = 0
        elif new_value >> 63:
            psw.condition_code = 1
        else:
            psw.condition_code = 2
        return latency

    def _op_ntstg(self, ia, insn):
        r, mem = insn.operands
        return self.engine.ntstg(self._ea(mem), self.regs.get_gr(r))

    def _op_dsg(self, ia, insn):
        r1, r2 = insn.operands
        divisor = self.regs.get_gr_signed(r2)
        if divisor == 0:
            self.engine._program_interruption(
                InterruptionCode.FIXED_POINT_DIVIDE, 0
            )
            return 0  # non-tx path: OS resumed us; treat as no-op
        self.regs.set_gr(r1, self.regs.get_gr_signed(r1) // divisor)
        return 0

    def _op_j(self, ia, insn):
        tup = self._branch_tuple.get(ia)
        return tup if tup is not None else (
            0, self.program.target_address(insn)
        )

    def _op_brc(self, ia, insn):
        (mask,) = insn.operands
        if mask & (8 >> self.regs.psw.condition_code):
            tup = self._branch_tuple.get(ia)
            return tup if tup is not None else (
                0, self.program.target_address(insn)
            )
        return 0

    def _op_cij(self, ia, insn):
        r, imm, mask = insn.operands
        value = self.regs.get_gr_signed(r)
        if value == imm:
            cc = 0
        elif value < imm:
            cc = 1
        else:
            cc = 2
        if mask & (8 >> cc):
            tup = self._branch_tuple.get(ia)
            return tup if tup is not None else (
                0, self.program.target_address(insn)
            )
        return 0

    def _op_tbegin(self, ia, insn):
        tdb, grsm, ar_ok, fpr_ok, pifc = insn.operands
        controls = TbeginControls(
            grsm=grsm,
            allow_ar_modification=ar_ok,
            allow_fpr_modification=fpr_ok,
            pifc=pifc,
            tdb_address=tdb,
        )
        outermost = not self.engine.tx.active
        latency = self.engine.tx_begin(controls, constrained=False, ia=ia)
        if outermost:
            self.engine.tx.gr_backup = self.regs.save_pairs(grsm)
        self.regs.psw.condition_code = 0
        return latency

    def _op_tbeginc(self, ia, insn):
        (grsm,) = insn.operands
        controls = TbeginControls(
            grsm=grsm,
            allow_ar_modification=False,
            allow_fpr_modification=False,
            pifc=0,
            tdb_address=None,
        )
        outermost = not self.engine.tx.active
        latency = self.engine.tx_begin(controls, constrained=True, ia=ia)
        if outermost:
            self.engine.tx.gr_backup = self.regs.save_pairs(grsm)
        self.regs.psw.condition_code = 0
        return latency

    def _op_tend(self, ia, insn):
        if not self.engine.tx.active:
            latency, _ = self.engine.tx_end(ia)
            self.regs.psw.condition_code = 2
            return latency
        latency, _depth = self.engine.tx_end(ia)
        self.regs.psw.condition_code = 0
        return latency

    def _op_tabort(self, ia, insn):
        (code,) = insn.operands
        if not self.engine.tx.active:
            self.engine._program_interruption(InterruptionCode.SPECIFICATION)
            return 0
        self.engine.tx_abort(code, ia=ia)
        return 0  # unreachable: tx_abort raises

    def _op_sbegin(self, ia, insn):
        stm = self.engine.stm
        if stm is None:
            raise MachineStateError(
                "SBEGIN requires fallback_mode='stm' (see repro.stm)"
            )
        if stm.active:
            raise MachineStateError(
                "SBEGIN inside a software transaction (no SW nesting)"
            )
        latency = stm.begin(ia, self.program.next_address(ia),
                            self.regs.snapshot_gr())
        self.regs.psw.condition_code = 0
        return latency

    def _op_send(self, ia, insn):
        engine = self.engine
        stm = engine.stm
        if stm is None or not stm.active:
            # Mirrors TEND outside a transaction: CC only, no effect.
            self.regs.psw.condition_code = 2
            return engine.params.costs.tend
        latency = stm.commit(ia)  # may raise StmAbort / FetchRetry
        self.regs.psw.condition_code = 0
        return latency

    def _op_sabort(self, ia, insn):
        engine = self.engine
        stm = engine.stm
        if stm is None or not stm.active:
            engine._program_interruption(InterruptionCode.SPECIFICATION)
            return 0  # unreachable: _program_interruption raises
        raise StmAbort(insn.operands[0])

    def _op_etnd(self, ia, insn):
        (r,) = insn.operands
        latency, depth = self.engine.nesting_depth()
        self.regs.set_gr(r, depth)
        return latency

    def _op_ppa(self, ia, insn):
        (r,) = insn.operands
        return self.engine.ppa_tx_assist(self.regs.get_gr(r))

    def _op_nopr(self, ia, insn):
        return 0

    def _op_pause(self, ia, insn):
        return insn.operands[0]

    def _op_lpsw(self, ia, insn):
        # Privileged; inside a transaction _check_restrictions aborted
        # already. Outside, we model it as a slow serialising no-op.
        return 20

    def _op_ldr(self, ia, insn):
        f1, f2 = insn.operands
        self.regs.fpr[f1] = self.regs.fpr[f2]
        return 0

    def _op_sar(self, ia, insn):
        ar, r = insn.operands
        self.regs.ar[ar] = self.regs.get_gr(r) & 0xFFFFFFFF
        return 0

    def _op_random(self, ia, insn):
        r, modulo = insn.operands
        self.regs.set_gr(r, self.engine.rng.randrange(modulo))
        return 0

    def _op_mark_start(self, ia, insn):
        if self.mark_sink is not None:
            self.mark_sink("start")
        return 0

    def _op_mark_end(self, ia, insn):
        if self.mark_sink is not None:
            self.mark_sink("end")
        return 0

    def _op_halt(self, ia, insn):
        self.done = True
        return 0

    _DISPATCH: Dict[str, Callable] = {
        "LHI": _op_lhi,
        "AHI": _op_ahi,
        "LR": _op_lr,
        "LA": _op_la,
        "AGR": _op_agr,
        "SGR": _op_sgr,
        "SLL": _op_sll,
        "SRL": _op_srl,
        "CGR": _op_cgr,
        "NGR": _op_ngr,
        "OGR": _op_ogr,
        "XGR": _op_xgr,
        "MSGR": _op_msgr,
        "BRCT": _op_brct,
        "STCK": _op_stck,
        "LG": _op_lg,
        "LTG": _op_ltg,
        "STG": _op_stg,
        "CSG": _op_csg,
        "AGSI": _op_agsi,
        "NTSTG": _op_ntstg,
        "DSG": _op_dsg,
        "J": _op_j,
        "BRC": _op_brc,
        "CIJ": _op_cij,
        "TBEGIN": _op_tbegin,
        "TBEGINC": _op_tbeginc,
        "TEND": _op_tend,
        "TABORT": _op_tabort,
        "SBEGIN": _op_sbegin,
        "SEND": _op_send,
        "SABORT": _op_sabort,
        "ETND": _op_etnd,
        "PPA": _op_ppa,
        "NOPR": _op_nopr,
        "PAUSE": _op_pause,
        "LPSW": _op_lpsw,
        "LDR": _op_ldr,
        "SAR": _op_sar,
        "RANDOM": _op_random,
        "MARK_START": _op_mark_start,
        "MARK_END": _op_mark_end,
        "HALT": _op_halt,
    }
