"""Discrete-event scheduler interleaving the simulated CPUs.

Each CPU driver exposes ``step() -> latency`` (one instruction / one
operation) and a ``done`` flag. The scheduler keeps a priority queue of
``(time, key, cpu)`` events and always resumes the CPU with the smallest
local clock, so cross-CPU interactions (XIs, stiff-arming, conflicts)
happen in global-time order. Events due in the same cycle run in push
order: every push takes the next sequence number as its key.

The event queue is a bare :mod:`heapq` list (``Scheduler._queue``). At
the occupancy the contended benchmarks reach (one event per CPU, a few
dozen at most) the C heap beats any bucketed structure.

Three special behaviours:

* a :class:`~repro.core.engine.FetchRetry` from a driver means the CPU's
  line fetch was stiff-armed — the CPU is rescheduled after the back-off
  delay and re-executes the same instruction. When the driver certifies
  the raise of a busy or stiff-armed try it raises
  :class:`~repro.core.engine.RetryPark` instead, carrying the same
  delay: the CPU's next event is scheduled exactly as for the
  ``FetchRetry`` and the chain parks, so that event and its successors
  re-evaluate the probe/busy/stiff-arm decision against live fabric
  state (:meth:`Scheduler._drain_parked`) without re-executing the
  instruction, until the fetch would succeed;
* a :class:`~repro.core.engine.SpinPark` parks a certified spin loop,
  which leaves the queue altogether (see below);
* the **broadcast-stop** (solo) mode of constrained-transaction
  millicode: while a CPU holds the solo token, all other CPUs' events
  are deferred ("millicode can broadcast to other CPUs to stop all
  conflicting work, retry the local transaction, before releasing the
  other CPUs").

Parked spinners
---------------

A parked spinner's events have no side effects: each would advance the
CPU one instruction through its certified ``(ias, lats)`` cycle and push
the next. So the spinner keeps no event in the queue. Its chain is
recorded once, at park, as an *anchor* (:class:`_SpinChain`): the
parking event's time, cycle position and queue key, and the number of
pushes made so far by events that are not spinner placeholders
(*non-spinner pushes*). Event ``g`` of the chain falls at a closed-form
time, so at a wake, the cycle budget or the deadlock guard the chain's
step count, cycle position and pending event come out in constant time,
and only that pending event is pushed, under a :class:`_SpinKey`.

What the per-event pops used to decide is tie order. An event ranks
among the events due in its cycle by when it was pushed, which is when
its predecessor popped. So a spinner event comes after exactly the
non-spinner events pushed before its predecessor popped, and the count
of those, ``N``, is read off a log of non-spinner pushes
(:class:`_OrderLog`: the time and key of the pop that made each push).
Only when a logged pop falls in the predecessor's own cycle does the
count look one more step back along the chain. Two spinner events with
equal ``N`` were pushed by pops in the same stretch between non-spinner
pushes, so they rank as their predecessors did; chains whose event
times coincide from park onward (the same time pattern: same period,
same phase) keep the order fixed when the later one parked, recorded as
an ordinal in their lockstep group.

Every event that is not a parked spinner's is pushed and popped, so
``Scheduler._pop_time``/``_pop_key`` always name the event being
processed. ``stats_events`` counts each parked spinner step as the push
it stands for, so it is the same with parking on and off.

While the broadcast-stop machinery is engaged, no spinner is parked:
engaging it materializes every parked chain, and the drivers refuse to
park while it lasts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush, heappushpop
from itertools import accumulate
from typing import List, Optional, Tuple

from ..core.engine import FetchRetry, RetryPark, SpinPark
from ..errors import MachineStateError, ProtocolError
from ..mem.xi import Xi, XiResponse

#: Returned by :meth:`Scheduler._drain_parked` when a pop crosses the
#: cycle budget.
_BUDGET = object()

#: :meth:`Scheduler._drain_parked`'s exit marker for a tick that wakes.
_WAKE = object()

#: Beyond any simulated time.
_NEVER = 0x7FFFFFFFFFFFFFFF

#: The ordering log is pruned once it holds this many entries (or twice
#: what the last prune kept, whichever is larger).
_LOG_PRUNE_AT = 512


class _OrderLog:
    """Non-spinner pushes made while spinner chains are live.

    Entry ``i`` is push number ``base + i + 1``: it was made while the
    event ``(times[i], keys[i])`` was being processed, so it precedes
    every pop ranked after that event. ``times`` is non-decreasing, and
    within one time ``keys`` increase, since pops run in ``(time, key)``
    order. Entries older than ``floor`` are pruned; no live chain can
    ask about them. ``spins`` lists, in order, the push numbers (``base
    + i``) of the entries whose key is a :class:`_SpinKey`; only real
    steps log those (retry ticks pop int-keyed events).
    """

    __slots__ = ("times", "keys", "spins", "base", "floor", "cap")

    def __init__(self, pushes: int) -> None:
        """Start logging after ``pushes`` non-spinner pushes."""
        self.times: List[int] = []
        self.keys: list = []
        self.spins: List[int] = []
        self.base = pushes
        self.floor = 0
        self.cap = _LOG_PRUNE_AT

    def _at(self, time: int) -> Tuple[int, int]:
        """The index range of the logged pops at ``time``."""
        if time < self.floor:
            raise ProtocolError(
                f"spin ordering log pruned past cycle {time} "
                f"(floor {self.floor})"
            )
        times = self.times
        lo = bisect_left(times, time)
        return lo, bisect_right(times, time, lo)


class _SpinChain:
    """A parked spinner's event chain in closed form.

    Event ``g`` (``g`` counts cycle positions from the chain's origin)
    falls at ``origin + (g // count) * period + prefix[g % count]``. The
    anchor is event ``g0`` at ``t0``: its successor was pushed after
    ``n0`` non-spinner pushes, and ``key0`` ranks the anchor itself (the
    key of the event whose processing parked the CPU; None once
    re-anchored, when nothing can tie with it any more). ``g_park`` is
    the anchor at park, from which the step count runs.
    """

    __slots__ = ("index", "log", "count", "period", "origin", "prefix",
                 "g_park", "g0", "t0", "n0", "key0",
                 "q", "group", "ordinal", "g_end")

    def __init__(self, index: int, log: _OrderLog, prefix: List[int],
                 pattern: Tuple[int, tuple], g0: int, t0: int, n0: int,
                 key0) -> None:
        self.index = index
        self.log = log
        self.count = count = len(prefix) - 1
        self.period = prefix[count]
        self.prefix = prefix
        self.origin = t0 - prefix[g0]
        self.g_park = self.g0 = g0
        self.t0 = t0
        self.n0 = n0
        self.key0 = key0
        #: Lockstep group: the time pattern (see :func:`_time_pattern`);
        #: chains with equal patterns have coinciding event times. The
        #: ordinal is the fixed tie order within the group (see
        #: ``Scheduler._join_group``).
        self.group = pattern
        self.q = pattern[0]
        self.ordinal = (0,)
        #: The materialized event, once woken (None while parked).
        self.g_end: Optional[int] = None

    def _due(self, g: int) -> int:
        c, j = divmod(g, self.count)
        return self.origin + c * self.period + self.prefix[j]

    def _first_due(self, time: int) -> int:
        """The first event due at or after ``time``."""
        c, rem = divmod(time - self.origin, self.period)
        return c * self.count + bisect_left(self.prefix, rem)

    def _rank(self, g: int):
        """The queue key event ``g`` would carry."""
        if g == self.g0:
            if self.key0 is None:
                raise ProtocolError(
                    f"cpu {self.index}: tie resolution reached a "
                    "re-anchored spin chain's anchor"
                )
            return self.key0
        return _SpinKey(self, g, -1)


def _time_pattern(prefix: List[int], origin: int) -> Tuple[int, tuple]:
    """The smallest period ``q`` of the set of event times
    ``origin + prefix[j] (mod period)`` and its phases (residues mod
    ``q``)."""
    period = prefix[-1]
    phases = {(origin + offset) % period for offset in prefix[:-1]}
    q = period
    for d in range(1, period):
        if period % d == 0 and all((r + d) % period in phases
                                   for r in phases):
            q = d
            break
    return q, tuple(sorted({r % q for r in phases}))


def _pushes_before(chain: _SpinChain, g: int) -> int:
    """``N`` of chain event ``g``: the non-spinner pushes made before it
    was pushed, i.e. before event ``g - 1`` popped.

    Those are the logged pushes whose pop precedes event ``g - 1``: every
    pop of an earlier cycle, and the pops of its own cycle that rank
    below it. Only in the second case is event ``g - 1``'s own rank (and
    so its ``N``) needed; the walk back stops at the first predecessor
    whose cycle has no logged pop or at the anchor, which pruning keeps
    recent (:meth:`Scheduler._reanchor`).
    """
    log = chain.log
    stack = []
    while True:
        gp = g - 1
        if gp == chain.g0:
            n = chain.n0
            break
        lo, hi = log._at(chain._due(gp))
        if lo == hi:
            n = log.base + lo
            break
        stack.append((lo, hi, gp))
        g = gp
    keys = log.keys
    while stack:
        lo, hi, gp = stack.pop()
        pred = _SpinKey(chain, gp, n)
        k = lo
        while k < hi and _key_lt(keys[k], pred):
            k += 1
        n = log.base + k
    return n


def _key_lt(a, b) -> bool:
    """Does the event keyed ``a`` rank before the one keyed ``b``?

    Both events are due in the same cycle. Plain keys are push numbers;
    a real event precedes a spinner event iff it was pushed no later
    than the spinner event's ``N``-th non-spinner push.
    """
    while True:
        if a.__class__ is int:
            if b.__class__ is int:
                return a < b
            return a <= b._pushes()
        if b.__class__ is int:
            return a._pushes() < b
        ca = a.chain
        cb = b.chain
        if ca.group == cb.group:
            return ca.ordinal < cb.ordinal
        na = a._pushes()
        nb = b._pushes()
        if na != nb:
            return na < nb
        # Pushed in the same stretch between non-spinner pushes: in
        # the order their predecessors popped.
        ta = ca._due(a.g - 1)
        tb = cb._due(b.g - 1)
        if ta != tb:
            return ta < tb
        a = ca._rank(a.g - 1)
        b = cb._rank(b.g - 1)


def _between(a: Optional[tuple], b: Optional[tuple]) -> tuple:
    """An ordinal strictly between ``a < b`` (None: unbounded).

    Ordinals are int tuples compared lexicographically, so a gap never
    runs out and no existing ordinal ever changes.
    """
    if b is None:
        return (0,) if a is None else (a[0] + 1,)
    if a is None:
        return (b[0] - 1,)
    if b[:len(a)] == a:
        return a + (b[len(a)] - 1,)
    return a + (0,)


class _SpinKey:
    """Queue key of a spinner event: chain event ``g`` of ``chain``.

    Compares with plain push-number keys and with other spinner keys
    through :func:`_key_lt`; the heap only compares keys of events due
    in the same cycle.
    """

    __slots__ = ("chain", "g", "n")

    def __init__(self, chain: _SpinChain, g: int, n: int) -> None:
        self.chain = chain
        self.g = g
        self.n = n

    def _pushes(self) -> int:
        n = self.n
        if n < 0:
            n = self.n = _pushes_before(self.chain, self.g)
        return n

    def __lt__(self, other) -> bool:
        return _key_lt(self, other)

    def __gt__(self, other) -> bool:
        return _key_lt(other, self)

    def __eq__(self, other) -> bool:
        return self is other

    __hash__ = object.__hash__


class Scheduler:
    """Runs a set of drivers to completion in simulated time."""

    #: Read by the benchmark's mode readout (``perfbench/run.py``); no
    #: alternative numbering exists.
    virtseq = False

    def __init__(self, drivers: List) -> None:
        self.drivers = drivers
        self.now = 0
        #: Optional hook called as ``pre_step(index, now)`` before each
        #: step — used by the machine for asynchronous-interruption
        #: injection.
        self.pre_step = None
        #: Optional hook ``perturb(index, latency) -> latency`` applied to
        #: every completed step's latency (including FetchRetry back-offs).
        #: ``repro.verify`` installs a seeded jitter here to explore many
        #: interleavings of the same program; must return a non-negative
        #: int to keep simulated time monotonic.
        self.perturb = None
        #: Non-spinner pushes so far (the last key handed out).
        self._seq = 0
        #: The latest end of a real step.
        self._horizon = 0
        #: The retry tick loop's fabric constants, read once per run.
        self._tick_consts = None
        #: Times the broadcast-stop (solo) token was granted to a CPU.
        self.stats_broadcast_stops = 0
        #: Parked CPUs (index -> placeholder record). A parked retry
        #: waiter's event chain stays in the queue (``_ParkedRetry``: one
        #: probe/busy/reject decision against live fabric state per
        #: event); a parked spinner's chain is in ``_chains``. The fabric
        #: un-parks via :meth:`wake_parked`.
        self._parked: dict = {}
        #: Parked spinners' chains (index -> :class:`_SpinChain`).
        self._chains: dict = {}
        #: Time pattern -> live chains of that lockstep group, in their
        #: fixed tie order.
        self._groups: dict = {}
        #: Time pattern per (certified latency cycle, phase): most
        #: parks repeat a few.
        self._patterns: dict = {}
        #: Non-spinner pushes while spinner keys are live (None until a
        #: chain parks, and again once no chain is parked and no spinner
        #: key is queued).
        self._log: Optional[_OrderLog] = None
        #: The event being processed: wakes rank the woken chain's
        #: pending event against it.
        self._pop_time = 0
        self._pop_key = 0
        #: Drivers that are neither done nor parked. When this hits zero
        #: with only spinners parked, nothing can ever write their
        #: watched lines again (deadlock guard); parked retry waiters
        #: keep making progress on their own, so they never deadlock.
        self._n_active = len(drivers)
        #: Parked retry waiters among ``_parked`` (deadlock exemption).
        self._n_retry_parked = 0
        # Self-observability counters (surfaced on SimResult.sched).
        self.stats_parks = 0
        self.stats_wakes = 0
        self.stats_retry_parks = 0
        self.stats_retry_wakes = 0
        #: Parked-retry back-off events advanced by :meth:`_drain_parked`.
        self.stats_retry_ticks = 0
        #: Parked-spin placeholder events counted in closed form (folded
        #: in at wake/budget time; these are whole elided instructions).
        self.stats_spin_steps = 0
        self.stats_pushpop_fusions = 0
        #: CPUs with an outstanding broadcast-stop request, maintained
        #: incrementally: engines request solo only during their own
        #: step, so observing after each step is complete.
        self._solo_waiters: set = set()
        #: Solo index the broadcast-stop flags were last applied for
        #: ("idle" = never applied / cleared).
        self._stop_applied_for = "idle"
        #: The event queue: a :mod:`heapq` list of ``(time, key, index)``.
        self._queue: List[Tuple[int, object, int]] = []
        self._deferred: List[Tuple[int, int]] = []
        for index in range(len(drivers)):
            self._push(0, index)

    @property
    def stats_events(self) -> int:
        """Total events ever scheduled: every queue push, plus one per
        parked spinner step (the push that step stands for)."""
        return self._seq + self.stats_spin_steps

    def _push(self, time: int, index: int) -> None:
        self._seq += 1
        log = self._log
        if log is not None:
            key = self._pop_key
            if key.__class__ is _SpinKey:
                log.spins.append(log.base + len(log.times))
            log.times.append(self._pop_time)
            log.keys.append(key)
        heappush(self._queue, (time, self._seq, index))

    def _solo_index(self) -> Optional[int]:
        """The CPU holding the broadcast-stop token, if any.

        When several constrained transactions escalate at once, millicode
        serialises them — we grant the token to the lowest CPU id.
        """
        while self._solo_waiters:
            index = min(self._solo_waiters)
            driver = self.drivers[index]
            if driver.engine.solo_requested and not driver.done:
                return index
            self._solo_waiters.discard(index)
        return None

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Run until every driver is done (or the cycle budget is hit).

        Returns the final simulated time.
        """
        try:
            return self._run(max_cycles)
        finally:
            # Logged spinner keys refer to their chains, which refer to
            # the log: drop it, so a finished scheduler is freed by
            # refcounting.
            self._end_log()

    def _run(self, max_cycles: Optional[int]) -> int:
        queue = self._queue
        drivers = self.drivers
        deferred = self._deferred
        # ``_solo_waiters`` is only ever mutated in place (add/discard),
        # so a local alias stays live across ``_solo_index`` calls.
        solo_waiters = self._solo_waiters
        parked = self._parked
        parked_get = parked.get
        chains = self._chains
        pre_step = self.pre_step
        perturb = self.perturb
        limit = max_cycles
        # Budget sentinel: comparisons against an int beat a None-check
        # per event.
        limit_t = _NEVER if limit is None else limit
        # Arm spin/retry elision on the drivers. Per-step hooks must
        # observe (pre_step) or perturb (jitter) every instruction
        # individually, so either one disables spin parking; a machine
        # built with ``spin_elide=False`` keeps both off on its drivers.
        # The shared fabric's wake sink is pointed at this scheduler for
        # the run.
        hooks_ok = pre_step is None and perturb is None
        # Retry parking survives schedule jitter: each tick draws the
        # perturbation for the step it elides, in exact pop order (see
        # :meth:`_drain_parked`).
        retry_ok = pre_step is None
        fabric = None
        for driver in drivers:
            configure = getattr(driver, "configure_spin_elide", None)
            if configure is not None:
                configure(hooks_ok, retry_ok)
            fabric = getattr(getattr(driver, "engine", None), "fabric", fabric)
        if fabric is not None:
            fabric.wake_sink = self.wake_parked
            self._tick_consts = (fabric, fabric._ports, fabric._miss_latency,
                                 fabric.lat.l1_hit, fabric.lat.l2_hit,
                                 fabric._outcome_reject.latency)
        # Locals, written back on every exit (a raise included).
        horizon = self._horizon
        fusions = 0
        event = None
        try:
            while True:
                if event is None:
                    if queue:
                        event = heappop(queue)
                    elif deferred:
                        self._flush_deferred()
                        continue
                    elif chains:
                        # Only parked spinners are left, and only other CPUs'
                        # stores could wake them.
                        if limit is None:
                            self._raise_parked_deadlock()
                        return self._finish_budget(limit)
                    else:
                        break
                time, key, index = event
                event = None
                self._pop_time = time
                self._pop_key = key
                driver = drivers[index]
                if driver.done:
                    self._n_active -= 1
                    continue
                if time > limit_t:
                    return self._finish_budget(limit)
                # The solo-token bookkeeping only matters while some CPU has
                # (or recently had) a broadcast-stop outstanding; the common
                # case skips it entirely.
                if solo_waiters or self._stop_applied_for != "idle":
                    solo = self._solo_index()
                    if solo is None:
                        if self._stop_applied_for != "idle":
                            self._apply_broadcast_stop(None)
                            self._stop_applied_for = "idle"
                    elif solo != self._stop_applied_for:
                        self._apply_broadcast_stop(solo)
                        self._stop_applied_for = solo
                        self.stats_broadcast_stops += 1
                    if solo is not None and index != solo:
                        stm = getattr(driver.engine, "stm", None)
                        if stm is None or not stm.commit_holds_locks:
                            deferred.append((time, index))
                            continue
                        # A software (STM) committer holding acquired orecs
                        # is exempt from the broadcast-stop: freezing it
                        # would leave its write locks held for the whole
                        # solo window, and a constrained transaction that
                        # reads a locked grain can never succeed — not even
                        # solo, since stopping CPUs cannot release storage
                        # locks. Lock release is bounded work (validate,
                        # write back, release), after which the stop flag
                        # holds the CPU before it starts anything new.
                rec = parked_get(index) if parked else None
                if rec is None:
                    # Pop times never decrease: no compare needed.
                    self.now = time
                    if pre_step is not None:
                        pre_step(index, self.now)
                    try:
                        latency = driver.step()
                    except FetchRetry as retry:
                        latency = retry.delay
                    except SpinPark as park:
                        # The driver certified a spin loop and parked before
                        # executing its head; the chain starts with this very
                        # event.
                        parked[index] = park.rec
                        self._n_active -= 1
                        self.stats_parks += 1
                        self._park_spinner(index, park.rec, time, key)
                        continue
                    except RetryPark as park:
                        # The step's try raised and the driver certified the
                        # back-off chain: schedule its next event as for the
                        # FetchRetry, and let that event's pops tick the
                        # chain (_drain_parked).
                        parked[index] = park.rec
                        self._n_active -= 1
                        self._n_retry_parked += 1
                        self.stats_retry_parks += 1
                        latency = park.delay
                    if perturb is not None:
                        latency = perturb(index, latency)
                    end = time + latency if latency > 0 else time
                    if end > horizon:
                        horizon = end
                    if not driver.done:
                        self._seq += 1
                        item = (end, self._seq, index)
                        log = self._log
                        if log is not None:
                            if key.__class__ is _SpinKey:
                                log.spins.append(log.base + len(log.times))
                            log.times.append(time)
                            log.keys.append(key)
                            if len(log.times) > log.cap:
                                self._prune_log()
                        if driver.engine.solo_requested:
                            heappush(queue, item)
                            solo_waiters.add(index)
                            if chains:
                                # Broadcast-stop engages: no spinner may stay
                                # parked while it lasts.
                                for parked_index in sorted(chains):
                                    self.wake_parked(parked_index)
                        elif queue and not deferred and not solo_waiters:
                            # Nothing can run between this push and the next
                            # pop, so fuse them; the popped event still flows
                            # through the full solo/limit checks above.
                            event = heappushpop(queue, item)
                            fusions += 1
                        else:
                            heappush(queue, item)
                    else:
                        self._n_active -= 1
                    if deferred and self._solo_index() is None:
                        self._flush_deferred()
                    continue
                # --- parked retry waiter ----------------------------------
                if (solo_waiters or deferred
                        or self._stop_applied_for != "idle"):
                    # Solo machinery engaged: every non-solo pop was deferred
                    # above unless this CPU is an STM committer holding
                    # orecs, whose broadcast-stop flag makes a retry tick
                    # wake it anyway. A wake is exact at any pop, so un-park
                    # and run this very event for real.
                    self.wake_parked(index)
                    event = (time, key, index)
                    continue
                event = self._drain_parked(time, key, index, rec, limit_t)
                if event is _BUDGET:
                    return self._finish_budget(limit)
        finally:
            self._horizon = horizon
            self.stats_pushpop_fusions += fusions
        if horizon > self.now:
            self.now = horizon
        return self.now

    # ------------------------------------------------------------------
    # parked retry waiters
    # ------------------------------------------------------------------

    def _drain_parked(self, time: int, key, index: int, rec, limit_t: int):
        """Tick parked retry waiters' events, starting with CPU
        ``index``'s popped event at ``time``, for as long as the queue
        keeps handing back retry waiters' events.

        Returns the next event for the outer loop (a real CPU's, or a
        woken CPU's re-executed one), None when the successor went back
        to the queue, or ``_BUDGET`` when a pop crosses ``limit_t``.

        A tick re-evaluates, against live fabric state, exactly the
        decision the re-executed instruction's ``_fetch`` would reach at
        ``time``, and applies exactly its engine-visible effects:

        * **probe step due** (``_fetch_wait`` clear): compute the probe
          (the fabric's ``_miss_latency``, effect-free), arm
          ``_fetch_wait`` and schedule the try step — the FetchRetry the
          real step would have raised;
        * **try step due** (``_fetch_wait`` armed; while parked only
          ticks write it): count the fetch attempt and either back off
          the in-flight transfer window (busy) or deliver the real XI to
          the exclusive owner when — and only when — the shared stiff-arm
          predicate says it will be rejected (the owner's reject
          counters, metrics hooks and spin-watch wakes all happen through
          the ordinary fabric path).

        When the pending step would do anything *other* than raise
        another FetchRetry (fetch success, pending abort, page-table
        change, or a probe cheap enough to run straight into the try),
        the CPU is un-parked and the very same event re-enters real
        execution, which performs that step with full fidelity. Under
        schedule jitter (:attr:`perturb`), each tick draws the
        perturbation for the back-off delay it elides, in the exact
        pop-order position.

        A tick reads only what other CPUs can change while the CPU is
        parked: its pending abort (an XI), its missing-page set (a
        page-table change) and the line's fabric entry. The parking try
        found no L1/L2 copy and no read-only copy to upgrade, and only
        the CPU's own fetches add one; only its own step requests solo;
        and no CPU is broadcast-stopped here, since :meth:`_run` wakes
        parked CPUs instead of draining them while the stop machinery
        is engaged.

        While the queue keeps handing back parked CPUs' events, none of
        the outer-loop state (done flags, solo requests, deferrals, the
        ordering log) can change, so ticks run in one tight loop, each
        push fused with the following pop. ``now``, ``_pop_time`` and
        ``_pop_key`` are stored only before an XI is delivered (the
        owner records intervals against the clock, and a spinner it
        wakes is ranked against the tick's event); every other exit hands
        the event to the outer loop, which stores them itself.

        ``_horizon`` is deliberately not updated here: a parked CPU's
        chain either reaches a wake — after which its real pushes (which
        do update the horizon) dominate every placeholder end — or the
        run stops at the cycle budget, where ``_finish_budget`` fixes
        ``now`` to the limit anyway.
        """
        queue = self._queue
        parked_get = self._parked.get
        perturb = self.perturb
        log = self._log
        if log is not None:
            log_time = log.times.append
            log_key = log.keys.append
        fabric, ports, miss_latency, l1_hit, l2_hit, reject_lat = (
            self._tick_consts)
        seq = seq0 = self._seq
        event = _WAKE  # what every exit but the wakes replaces
        while True:
            engine = rec.engine
            if engine.pending_abort is not None or engine._page_missing:
                break
            info = rec.line_info
            if engine._fetch_wait is None:
                # Probe step due; a cheap probe means the step runs
                # straight into try_fetch and must execute for real.
                delay = miss_latency(rec.cpu, rec.line, rec.exclusive, info)
                if delay <= l2_hit:
                    break
                engine._fetch_wait = rec.key
                delay -= l1_hit
            elif time < info.busy_until:
                # In-flight transfer: back off until the interconnect
                # frees up, exactly as fabric.try_fetch's busy outcome.
                engine._fetch_wait = None
                fabric.stats_fetches += 1
                delay = info.busy_until - time
            else:
                owner = info.ex_owner
                line = rec.line
                if (owner < 0 or owner == rec.cpu
                        or not ports[owner].would_reject_xi(rec.xi_type,
                                                            line)):
                    break  # the XI would get through: the fetch succeeds
                engine._fetch_wait = None
                fabric.stats_fetches += 1
                self.now = self._pop_time = time
                self._pop_key = key
                response, _extra = fabric._send_xi(
                    Xi(rec.xi_type, line, rec.cpu, owner))
                if response is not XiResponse.REJECT:
                    raise ProtocolError(
                        "retry-park stiff-arm peek diverged from delivery "
                        f"(line {line:#x}, owner {owner})"
                    )
                fabric.stats_rejects += 1
                delay = reject_lat
            if perturb is not None:
                delay = perturb(rec.cpu, delay)
            seq += 1
            if log is not None:
                log_time(time)
                log_key(key)
            if not queue:
                heappush(queue, (time + delay, seq, index))
                event = None
                break
            time, key, index = heappushpop(queue, (time + delay, seq, index))
            if time > limit_t:
                event = _BUDGET
                break
            rec = parked_get(index)
            if rec is None:
                # A real CPU's event surfaced: return it through the
                # outer loop (done/solo handling re-runs there).
                event = (time, key, index)
                break
        ticks = seq - seq0
        self._seq = seq
        self.stats_retry_ticks += ticks
        if event is _WAKE:
            # The pending fetch would leave the retry chain: un-park and
            # re-execute this very event for real through the outer loop.
            self.wake_parked(index)
            event = (time, key, index)
        elif event is None:
            ticks -= 1  # the last tick's push went to an empty queue
        self.stats_pushpop_fusions += ticks
        return event

    # ------------------------------------------------------------------
    # parked spinners
    # ------------------------------------------------------------------

    def _park_spinner(self, index: int, rec, time: int, key) -> None:
        """Record CPU ``index``'s chain, anchored at its parking event
        (due at ``time``, processed under the popped event's ``key``).

        A CPU never parks while the broadcast-stop machinery is engaged:
        every CPU that can step then is either the solo CPU or stopped,
        and the driver refuses to park in both states.
        """
        if (self._solo_waiters or self._deferred
                or self._stop_applied_for != "idle"):
            raise ProtocolError(
                f"cpu {index} parked a spin loop during a broadcast stop"
            )
        log = self._log
        if log is None:
            log = self._log = _OrderLog(self._seq)
        prefix = [0, *accumulate(rec.lats)]
        g0 = rec.pos
        phase = (time - prefix[g0]) % prefix[-1]
        cached = (tuple(rec.lats), phase)
        pattern = self._patterns.get(cached)
        if pattern is None:
            pattern = self._patterns[cached] = _time_pattern(prefix, phase)
        chain = _SpinChain(index, log, prefix, pattern, g0, time,
                           self._seq, key)
        self._join_group(chain)
        self._chains[index] = chain

    def _join_group(self, chain: _SpinChain) -> None:
        """Give ``chain`` its fixed tie order among the live chains that
        run in lockstep with it.

        Lockstep chains' events always fall due together, and the one
        pushed first stays first: its successor is pushed first too. So
        the order, fixed here at the anchor, holds at every later cycle.
        The members whose event at the anchor's time popped before the
        anchor come first; they are a prefix of the group's order.
        """
        pattern = chain.group
        t0 = chain.t0
        members = [
            m for m in self._groups.get(pattern, ())
            if m.g_end is None or m._due(m.g_end) >= t0
        ]
        key0 = chain.key0
        lo, hi = 0, len(members)
        while lo < hi:
            mid = (lo + hi) // 2
            other = members[mid]
            if _key_lt(other._rank(other._first_due(t0)), key0):
                lo = mid + 1
            else:
                hi = mid
        chain.ordinal = _between(
            members[lo - 1].ordinal if lo else None,
            members[lo].ordinal if lo < len(members) else None,
        )
        members.insert(lo, chain)
        self._groups[pattern] = members

    def _pending(self, chain: _SpinChain) -> int:
        """The chain's first event not yet popped, as seen from the
        event being processed."""
        now = self._pop_time
        g = chain._first_due(now)
        if g <= chain.g0:
            return chain.g0 + 1
        if chain._due(g) == now and _key_lt(chain._rank(g), self._pop_key):
            g += 1
        return g

    def _end_chain(self, index: int, g: int) -> None:
        """Stop CPU ``index``'s chain before its event ``g``: fold the
        elided steps into its record."""
        chain = self._chains.pop(index)
        rec = self._parked[index]
        rec.steps = g - chain.g_park
        rec.pos = g % chain.count
        chain.g_end = g
        self.stats_spin_steps += rec.steps

    def _prune_log(self) -> None:
        """Drop the ordering-log entries no live chain can ask about.

        Queries about a chain's events never reach behind its anchor, so
        long parks are re-anchored first (:meth:`_reanchor`). The live
        chains are the parked ones and those whose keys are queued; a
        logged key is compared when a live chain's query reaches its
        cycle, and its chain then keeps the entries back to its own
        anchor, hence the fixed point.
        """
        log = self._log
        queued = [key.chain for _, key, _ in self._queue
                  if key.__class__ is _SpinKey]
        if not self._chains and not queued:
            # Only parked chains and queued spinner keys ever ask the
            # log anything.
            self._end_log()
            return
        times = log.times
        keys = log.keys
        base = log.base
        logged = [(times[p - base], keys[p - base].chain) for p in log.spins]
        self._reanchor(queued, logged)
        floor = min(chain.t0 for chain in (*self._chains.values(), *queued))
        while True:
            lower = floor
            for time, chain in logged:
                if time >= floor and chain.t0 < lower:
                    lower = chain.t0
            if lower >= floor:
                break
            floor = lower
        cut = bisect_left(times, floor)
        if cut:
            del times[:cut]
            del keys[:cut]
            log.base = base = base + cut
            del log.spins[:bisect_left(log.spins, base)]
        if floor > log.floor:
            log.floor = floor
        log.cap = max(_LOG_PRUNE_AT, 2 * len(times))

    def _reanchor(self, queued: list, logged: list) -> None:
        """Move parked chains' anchors up to a recent event no query can
        ever rank.

        A tie walk between two chains that do not run in lockstep stops
        within ``2 * (q1 + q2)`` cycles of where it started: two
        distinct periodic time patterns cannot coincide over a window of
        ``q1 + q2`` cycles. Walks start at pending events, which are
        never earlier than the event being processed, or at a woken
        chain's logged pop. So an event at least that far back, with no
        logged pop of a woken chain within that distance after it, is
        never ranked again: it can anchor the chain, carrying only the
        push count its successor needs.
        """
        chains = self._chains.values()
        q_live = max(chain.q for chain in (
            *chains, *queued, *(chain for _, chain in logged)))
        pops = [time for time, _ in logged]
        now = self._pop_time
        for chain in chains:
            span = 2 * (chain.q + q_live)
            latest = now - span
            while chain.t0 < latest:
                g = chain._first_due(latest + 1) - 1
                if g <= chain.g0:
                    break
                time = chain._due(g)
                i = bisect_left(pops, time)
                if i == len(pops) or pops[i] > time + span:
                    chain.n0 = _pushes_before(chain, g + 1)
                    chain.g0 = g
                    chain.t0 = time
                    chain.key0 = None
                    break
                latest = pops[i] - span - 1

    def _end_log(self) -> None:
        """Drop the ordering log and the lockstep groups: no chain is
        live, or the run is over."""
        log = self._log
        if log is not None:
            log.times.clear()
            log.keys.clear()
            log.spins.clear()
            self._log = None
        self._groups.clear()

    # ------------------------------------------------------------------
    # park/wake support
    # ------------------------------------------------------------------

    def wake_parked(self, index: int) -> None:
        """Fabric callback: un-park a CPU after a coherence event on its
        watched line (also used by the retry tick's wake path and when
        broadcast-stop engages). A spinner's pending event is pushed
        under its :class:`_SpinKey`, and its elided instruction/load
        counts and resume-boundary registers are restored (see
        ``IsaCpu.spin_unpark``); a retry waiter's pending event is
        already queued and it only drops its watch
        (``IsaCpu.retry_unpark``). Either way the pending event then
        re-enters real execution unchanged. A no-op for CPUs that are
        not parked, so conservative wake sources need no checks.
        """
        rec = self._parked.get(index)
        if rec is None:
            return
        self._n_active += 1
        if rec.is_retry:
            del self._parked[index]
            self._n_retry_parked -= 1
            self.drivers[index].retry_unpark()
            self.stats_retry_wakes += 1
            return
        chain = self._chains[index]
        g = self._pending(chain)
        key = _SpinKey(chain, g, _pushes_before(chain, g))
        self._end_chain(index, g)
        del self._parked[index]
        heappush(self._queue, (chain._due(g), key, index))
        self.drivers[index].spin_unpark()
        self.stats_wakes += 1

    def _finish_budget(self, limit: int) -> int:
        """Stop at the cycle budget, materializing parked CPUs first.

        A spinner has stepped through every chain event due by the
        limit (the in-flight one included), so flushing those counts and
        dropping the watches is the whole job; a retry placeholder
        applied its effects live at every tick, so only its watch needs
        dropping.
        """
        if self._parked:
            for index in sorted(self._parked):
                rec = self._parked[index]
                if rec.is_retry:
                    self.drivers[index].retry_unpark()
                    self.stats_retry_wakes += 1
                else:
                    self._end_chain(index, self._chains[index]._first_due(
                        limit + 1))
                    self.drivers[index].spin_unpark()
                    self.stats_wakes += 1
            self._parked.clear()
            self._n_retry_parked = 0
        self.now = limit
        return self.now

    def _raise_parked_deadlock(self) -> None:
        details = []
        for index in sorted(self._parked):
            engine = getattr(self.drivers[index], "engine", None)
            watches = engine.fabric.watches if engine is not None else None
            desc = watches.describe(index) if watches is not None else None
            details.append(desc if desc is not None else
                           f"cpu {index} parked")
        raise MachineStateError(
            "all runnable CPUs finished but parked waiters remain — "
            "nothing can ever change the watched storage (deadlocked "
            "spin): " + "; ".join(details)
        )

    def _apply_broadcast_stop(self, solo) -> None:
        """Mark all non-solo CPUs as stopped while a solo is in effect.

        A stopped CPU cannot complete instructions, so it must not
        stiff-arm the solo CPU's fetches — its conflicting transactions
        abort immediately instead.

        No spinner is parked while a solo is outstanding (the request
        materializes them all). Parked retry waiters notice the stop
        flag at their next tick and wake.
        """
        for index, driver in enumerate(self.drivers):
            driver.engine.stopped_by_broadcast = (
                solo is not None and index != solo
            )

    def _flush_deferred(self) -> None:
        # Cleared in place: ``run`` holds a reference to the list.
        for time, index in self._deferred:
            self._push(max(time, self.now), index)
        self._deferred.clear()
