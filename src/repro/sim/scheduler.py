"""Discrete-event scheduler interleaving the simulated CPUs.

Each CPU driver exposes ``step() -> latency`` (one instruction / one
operation) and a ``done`` flag. The scheduler keeps a priority queue of
``(time, seq, cpu)`` events and always resumes the CPU with the smallest
local clock, so cross-CPU interactions (XIs, stiff-arming, conflicts)
happen in global-time order. Every push consumes the next sequence
number, so equal-time events run in push order.

The event queue is a bare :mod:`heapq` list (``Scheduler._queue``). At
the occupancy the contended benchmarks reach (one event per CPU, a few
dozen at most) the C heap beats any bucketed structure.

Three special behaviours:

* a :class:`~repro.core.engine.FetchRetry` from a driver means the CPU's
  line fetch was stiff-armed — the CPU is rescheduled after the back-off
  delay and re-executes the same instruction. A *certified* back-off
  chain parks instead (:class:`~repro.core.engine.RetryPark`): the
  parked chain's events re-evaluate the probe/busy/stiff-arm decision
  against live fabric state (:meth:`Scheduler._retry_tick`) without
  re-executing the instruction, until the fetch would succeed;
* a :class:`~repro.core.engine.SpinPark` parks a certified spin loop —
  pops advance the placeholder arithmetically (see ``_ParkedSpin``);
* the **broadcast-stop** (solo) mode of constrained-transaction
  millicode: while a CPU holds the solo token, all other CPUs' events
  are deferred ("millicode can broadcast to other CPUs to stop all
  conflicting work, retry the local transaction, before releasing the
  other CPUs").

A parked CPU keeps a real placeholder event in the queue: each pop of
it advances the chain by exactly one event and pushes the successor
with a fresh sequence number, as the non-elided run would have. Event
times, tie-breaks and ``stats_events`` are therefore identical with
parking on and off. A wake leaves the pending event in place; the next
pop runs it for real.
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from typing import List, Optional, Tuple

from ..core.engine import FetchRetry, RetryPark, SpinPark
from ..errors import MachineStateError, ProtocolError
from ..mem.line import Ownership
from ..mem.xi import Xi, XiResponse

#: Returned by :meth:`Scheduler._drain_parked` when a pop crosses the
#: cycle budget.
_BUDGET = object()


class Scheduler:
    """Runs a set of drivers to completion in simulated time."""

    #: Read by the benchmark's mode readout (``perfbench/run.py``):
    #: parked chains always keep real placeholder events in the queue.
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
        self._seq = 0
        self._horizon = 0
        #: Times the broadcast-stop (solo) token was granted to a CPU.
        self.stats_broadcast_stops = 0
        #: Parked CPUs (index -> placeholder record). A parked CPU's
        #: event chain stays in the queue — pops advance the placeholder
        #: (``_ParkedSpin``: arithmetically through the certified cycle;
        #: ``_ParkedRetry``: one probe/busy/reject decision against live
        #: fabric state per event), preserving event times and sequence
        #: numbers exactly. The fabric un-parks via :meth:`wake_parked`.
        self._parked: dict = {}
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
        #: Parked-retry back-off events advanced by :meth:`_retry_tick`
        #: (folded in from the records at wake/budget time).
        self.stats_retry_ticks = 0
        #: Parked-spin placeholder events advanced arithmetically
        #: (ditto; these are whole elided instructions).
        self.stats_spin_steps = 0
        self.stats_heap_elides = 0
        self.stats_heap_elided_steps = 0
        self.stats_pushpop_fusions = 0
        #: CPUs with an outstanding broadcast-stop request, maintained
        #: incrementally: engines request solo only during their own
        #: step, so observing after each step is complete.
        self._solo_waiters: set = set()
        #: Solo index the broadcast-stop flags were last applied for
        #: ("idle" = never applied / cleared).
        self._stop_applied_for = "idle"
        #: The event queue: a :mod:`heapq` list of ``(time, seq, index)``.
        self._queue: List[Tuple[int, int, int]] = []
        self._deferred: List[Tuple[int, int]] = []
        for index in range(len(drivers)):
            self._push(0, index)

    @property
    def stats_events(self) -> int:
        """Total events ever scheduled (every queue push consumes one
        sequence number, parked placeholder pushes included)."""
        return self._seq

    def _push(self, time: int, index: int) -> None:
        self._seq += 1
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
        queue = self._queue
        drivers = self.drivers
        deferred = self._deferred
        # ``_solo_waiters`` is only ever mutated in place (add/discard),
        # so a local alias stays live across ``_solo_index`` calls.
        solo_waiters = self._solo_waiters
        parked = self._parked
        parked_get = parked.get
        pre_step = self.pre_step
        perturb = self.perturb
        limit = max_cycles
        # Budget sentinel: comparisons against an int beat a None-check
        # per event; 2**63 is beyond any simulated time.
        limit_t = 0x7FFFFFFFFFFFFFFF if limit is None else limit
        # Arm spin/retry elision on the drivers. Per-step hooks must
        # observe (pre_step) or perturb (jitter) every instruction
        # individually, so either one disables parking and batching; the
        # drivers also honour REPRO_SPIN_ELIDE=0 themselves. The shared
        # fabric's wake sink is pointed at this scheduler for the run.
        hooks_ok = pre_step is None and perturb is None
        # Retry parking survives schedule jitter: each tick draws the
        # perturbation for the step it elides, in exact pop order (see
        # :meth:`_retry_tick`).
        retry_ok = pre_step is None
        fabric = None
        for driver in drivers:
            configure = getattr(driver, "configure_spin_elide", None)
            if configure is not None:
                configure(hooks_ok, retry_ok)
                engine = getattr(driver, "engine", None)
                if engine is not None:
                    fabric = engine.fabric
        if fabric is not None:
            fabric.wake_sink = self.wake_parked
        event = None
        while True:
            if event is None:
                if queue:
                    event = heappop(queue)
                elif deferred:
                    self._flush_deferred()
                    continue
                else:
                    break
            time, _, index = event
            event = None
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
            # Heap-eliding fast loop. While this driver's next deadline
            # strictly precedes every queued event, re-pushing and
            # popping it would hand the CPU straight back — so step it
            # in a tight local loop instead. Strict comparison is
            # required: at equal times the queued event carries the
            # smaller sequence number and must run first. The loop is
            # left (falling back to the queue) the moment any cross-CPU
            # machinery could engage: the driver finishing, a
            # broadcast-stop request or deferral appearing, or the next
            # deadline reaching another CPU's event.
            rec = parked_get(index) if parked else None
            if rec is None:
                engine = driver.engine
                elide_steps = 0
                # The queue cannot change while this driver steps (only
                # the scheduler pushes), so its top is loop-invariant.
                top_time = queue[0][0] if queue else None
                # Whether any cross-CPU machinery is engaged right now.
                # None of these can become true *between* the entry check
                # and a step (only a step sets solo_requested, and the
                # loop breaks immediately after), so it is loop-invariant
                # too. While engaged, the loop yields after every single
                # instruction — a fused batch would swallow that yield,
                # so the batch window is forced to zero.
                solo_engaged = (
                    engine.solo_requested or solo_waiters or deferred
                    or self._stop_applied_for != "idle"
                )
                while True:
                    if time > self.now:
                        self.now = time
                    if pre_step is not None:
                        pre_step(index, self.now)
                    # Batch window: a fused batch steps through its
                    # members without returning here, so none of its
                    # intermediate deadlines may reach the next queued
                    # event (strict: equal-time queued events run first)
                    # or exceed the cycle budget. The driver compares
                    # its batches' pre_latency against this bound.
                    if solo_engaged:
                        driver.step_bound = 0
                    else:
                        bound = (
                            top_time - time - 1 if top_time is not None
                            else 0x7FFFFFFFFFFFFFFF
                        )
                        if limit is not None and limit - time < bound:
                            bound = limit - time
                        driver.step_bound = bound
                    try:
                        latency = driver.step()
                    except FetchRetry as retry:
                        latency = retry.delay
                    except SpinPark as park:
                        # The driver certified a spin loop and parked
                        # before executing its head. Switch this CPU's
                        # event chain to placeholder mode: the advance
                        # below continues from the park moment exactly
                        # where real execution stopped.
                        parked[index] = rec = park.rec
                        self._n_active -= 1
                        self.stats_parks += 1
                        break
                    except RetryPark as park:
                        # The driver certified a FetchRetry back-off
                        # chain and parked before re-executing it; the
                        # tick below advances the chain from this very
                        # step.
                        parked[index] = rec = park.rec
                        self._n_active -= 1
                        self._n_retry_parked += 1
                        self.stats_retry_parks += 1
                        break
                    if perturb is not None:
                        latency = perturb(index, latency)
                    end = time + latency if latency > 0 else time
                    if (
                        driver.done
                        or engine.solo_requested
                        or solo_waiters
                        or deferred
                        or self._stop_applied_for != "idle"
                        or (top_time is not None and end >= top_time)
                    ):
                        break
                    if end > limit_t:
                        # Mirror of the pop-time budget check for the
                        # event whose push was elided.
                        if end > self._horizon:
                            self._horizon = end
                        return self._finish_budget(limit)
                    time = end
                    elide_steps += 1
                if elide_steps:
                    self.stats_heap_elides += 1
                    self.stats_heap_elided_steps += elide_steps
                if rec is None:
                    if end > self._horizon:
                        self._horizon = end
                    if not driver.done:
                        self._seq += 1
                        item = (end, self._seq, index)
                        if engine.solo_requested:
                            heappush(queue, item)
                            solo_waiters.add(index)
                        elif queue and not deferred and not solo_waiters:
                            # Nothing can run between this push and the
                            # next pop, so fuse them; the popped event
                            # still flows through the full solo/limit
                            # checks above.
                            event = heappushpop(queue, item)
                            self.stats_pushpop_fusions += 1
                        else:
                            heappush(queue, item)
                    else:
                        self._n_active -= 1
                    if deferred and self._solo_index() is None:
                        self._flush_deferred()
                    continue
            # --- parked placeholder handling --------------------------
            if self._n_active == 0 and not deferred and not solo_waiters:
                # Spinners can only be woken by other CPUs' stores/XIs;
                # retry waiters advance on their own (their ticks keep
                # simulated time and the fabric moving), so any of them
                # present means the machine is still live.
                if limit is None and self._n_retry_parked == 0:
                    self._raise_parked_deadlock()
            if solo_waiters or deferred or self._stop_applied_for != "idle":
                # Solo machinery engaged: every non-solo pop was deferred
                # above unless this CPU is an STM committer holding
                # orecs, whose broadcast-stop flag makes a retry tick
                # wake it anyway. A wake is exact at any pop, so un-park
                # and run this very event for real.
                self.wake_parked(index)
                event = (time, 0, index)
                continue
            event = self._drain_parked(time, index, rec, limit_t)
            if event is _BUDGET:
                return self._finish_budget(limit)
        if self._horizon > self.now:
            self.now = self._horizon
        return self.now

    # ------------------------------------------------------------------
    # parked placeholder events
    # ------------------------------------------------------------------

    def _drain_parked(self, time: int, index: int, rec, limit_t: int):
        """Advance placeholder events, starting with parked CPU
        ``index``'s popped event at ``time``, for as long as the queue
        keeps handing back parked CPUs' events.

        Returns the next event for the outer loop (a real CPU's, or a
        woken CPU's re-executed one), None when the successor went back
        to the queue, or ``_BUDGET`` when a pop crosses ``limit_t``.

        While the queue keeps handing back parked CPUs' events, nothing
        real can run and none of the outer-loop state (done flags, solo
        requests, deferrals) can change — so placeholders advance in a
        tight loop, one event per iteration, fusing each push with the
        following pop.

        A parked *spinner* walks its certified (ias, lats) cycle
        arithmetically — applying exactly the per-event effects of the
        non-elided run, so event times, push moments, and sequence-number
        order come out identical. ``self.now`` needs no updates for
        these: nothing observes it until a real event exits to the outer
        loop, whose pop time bounds every drained time from above.

        A parked *retry waiter* ticks through its back-off chain. Ticks
        touch the fabric (probes, stiff-arm XIs), so ``self.now`` is kept
        current and any CPU a tick wakes surfaces to the outer loop when
        its event pops. A wake never touches the queue, so its length is
        drain-invariant.

        ``_horizon`` is deliberately not updated here: a parked CPU's
        chain either reaches a wake — after which its real pushes (which
        do update the horizon) dominate every placeholder end — or the
        run stops at the cycle budget, where ``_finish_budget`` fixes
        ``now`` to the limit anyway.
        """
        queue = self._queue
        parked_get = self._parked.get
        retry_tick = self._retry_tick
        seq = self._seq
        fusions = 0
        event = None
        while True:
            if rec.is_retry:
                # Pops are globally time-ordered, so this store is
                # monotone; ticks touch the fabric (probes, stiff-arm
                # XIs with interval recording), which observes the
                # clock.
                self.now = time
                end = retry_tick(rec, time)
                if end < 0:
                    # The pending fetch would leave the retry chain:
                    # un-park and re-execute this very event for real
                    # through the outer loop. The sequence number no
                    # longer matters — the event never re-enters the
                    # queue.
                    self.wake_parked(index)
                    event = (time, 0, index)
                    break
            else:
                pos = rec.pos
                end = time + rec.lats[pos]
                rec.steps += 1
                rec.pos = rec.nxt[pos]
            seq += 1
            if not queue:
                # Lone chain: hand it back through the outer loop,
                # whose deadlock guard must see every pop.
                heappush(queue, (end, seq, index))
                break
            fusions += 1
            event = heappushpop(queue, (end, seq, index))
            time, _, index = event
            if time > limit_t:
                event = _BUDGET
                break
            rec = parked_get(index)
            if rec is None:
                # A real CPU's event surfaced: return it through the
                # outer loop (done/solo handling re-runs there).
                break
        self._seq = seq
        self.stats_pushpop_fusions += fusions
        return event

    # ------------------------------------------------------------------
    # retry-storm elision support
    # ------------------------------------------------------------------

    def _retry_tick(self, rec, time: int) -> int:
        """Advance a parked retry waiter's event chain by one event.

        Re-evaluates, against live fabric state, exactly the decision the
        re-executed instruction's ``_fetch`` would reach at ``time``, and
        applies exactly its engine-visible effects:

        * **probe step due** (``_fetch_wait`` clear): run the real probe
          (memo bookkeeping and counters included), arm ``_fetch_wait``
          and schedule the try step — the FetchRetry the real step would
          have raised;
        * **try step due** (``_fetch_wait`` armed): count the fetch
          attempt and either back off the in-flight transfer window
          (busy) or deliver the real XI to the exclusive owner when — and
          only when — the shared stiff-arm predicate says it will be
          rejected (the owner's reject counters, metrics hooks, probe
          memo invalidation and spin-watch wakes all happen through the
          ordinary fabric path).

        Returns the next event's time, or -1 when the pending step would
        do anything *other* than raise another FetchRetry (fetch success,
        pending abort, broadcast-stop, solo, page-table change) — the
        caller then un-parks the CPU and the very same event re-enters
        real execution, which performs that step with full fidelity.

        Under schedule jitter (:attr:`perturb`), each retrying outcome
        draws the perturbation for the back-off delay it elides — the
        exact draw the scheduler would have applied to the re-executed
        step's FetchRetry, in the exact pop-order position.
        """
        perturb = self.perturb
        engine = rec.engine
        if (
            engine.pending_abort is not None
            or engine.stopped_by_broadcast
            or engine.solo_requested
            or engine._page_missing
        ):
            return -1
        exclusive = rec.exclusive
        line = rec.line
        entry = rec.l1_entries.get(line)
        if entry is not None and (
            not exclusive or entry.state is Ownership.EXCLUSIVE
        ):
            return -1  # L1-sufficient: the step completes for real
        if engine._fetch_wait == rec.key:
            # Try step due: peek try_fetch's outcome, consume only the
            # two retrying outcomes.
            info = rec.lines.get(line)
            if info is None:
                return -1  # unowned, idle line: the fetch succeeds
            if exclusive and rec.cpu in info.ro_owners:
                return -1  # read-only upgrade: succeeds
            l2_entry = rec.l2_entries.get(line)
            if l2_entry is not None and (
                not exclusive or l2_entry.state is Ownership.EXCLUSIVE
            ):
                return -1  # own-L2 refill: succeeds
            fabric = rec.fabric
            if time < info.busy_until:
                # In-flight transfer: back off until the interconnect
                # frees up, exactly as fabric.try_fetch's busy outcome.
                engine._fetch_wait = None
                fabric.stats_fetches += 1
                rec.ticks += 1
                if perturb is None:
                    return info.busy_until
                return time + perturb(rec.cpu, info.busy_until - time)
            owner = info.ex_owner
            if owner < 0 or owner == rec.cpu:
                return -1  # no foreign exclusive owner: succeeds
            if not rec.ports[owner].would_reject_xi(rec.xi_type, line):
                return -1  # the owner would let the XI through: succeeds
            engine._fetch_wait = None
            fabric.stats_fetches += 1
            response, _extra = fabric._send_xi(
                Xi(rec.xi_type, line, rec.cpu, owner)
            )
            if response is not XiResponse.REJECT:
                raise ProtocolError(
                    "retry-park stiff-arm peek diverged from delivery "
                    f"(line {line:#x}, owner {owner})"
                )
            fabric.stats_rejects += 1
            rec.ticks += 1
            if perturb is None:
                return time + rec.reject_lat
            return time + perturb(rec.cpu, rec.reject_lat)
        # Probe step due.
        l2_entry = rec.l2_entries.get(line)
        if l2_entry is not None and (
            not exclusive or l2_entry.state is Ownership.EXCLUSIVE
        ):
            return -1  # own-L2 sufficient: no probe, the step succeeds
        cache = rec.probe_cache
        memo = cache.get(line)
        probe = memo.get((rec.cpu, exclusive)) if memo is not None else None
        if probe is None:
            # Effect-free peek first: a cheap probe means the step runs
            # straight into try_fetch and must execute for real (its own
            # probe_latency call memoizes then). An expensive one
            # memoizes here, exactly as probe_latency's miss path would.
            probe = rec.fabric._probe_latency_uncached(
                rec.cpu, line, exclusive
            )
            if probe <= rec.l2_hit:
                return -1
            if memo is None:
                memo = cache[line] = {}
            memo[(rec.cpu, exclusive)] = probe
        else:
            if probe <= rec.l2_hit:
                return -1
            # Memo hit: take the real hit path for its counter and the
            # REPRO_PROBE_CHECK self-check.
            rec.fabric.probe_latency(rec.cpu, line, exclusive)
        engine._fetch_wait = rec.key
        rec.ticks += 1
        if perturb is None:
            return time + probe - rec.l1_hit
        return time + perturb(rec.cpu, probe - rec.l1_hit)

    # ------------------------------------------------------------------
    # park/wake support
    # ------------------------------------------------------------------

    def wake_parked(self, index: int) -> None:
        """Fabric callback: un-park a CPU after a coherence event on its
        watched line (also used by the retry tick's wake path). Restores
        whatever the placeholder kind requires — elided instruction/load
        counts and the resume-boundary registers for a spinner (see
        ``IsaCpu.spin_unpark``), nothing but the watch for a retry
        waiter (``IsaCpu.retry_unpark``) — and the CPU's pending queue
        event then re-enters real execution unchanged. A no-op for CPUs
        that are not parked, so conservative wake sources need no
        checks.
        """
        rec = self._parked.pop(index, None)
        if rec is None:
            return
        self._n_active += 1
        if rec.is_retry:
            self._n_retry_parked -= 1
            self.stats_retry_ticks += rec.ticks
            self.drivers[index].retry_unpark()
            self.stats_retry_wakes += 1
        else:
            self.stats_spin_steps += rec.steps
            self.drivers[index].spin_unpark()
            self.stats_wakes += 1

    def _finish_budget(self, limit: int) -> int:
        """Stop at the cycle budget, materializing parked CPUs first.

        Each spin placeholder has counted exactly the instructions a
        non-elided run would have executed by this point (the in-flight
        one included), so flushing the counts and dropping the watches is
        the whole job; a retry placeholder applied its effects live at
        every tick, so only its watch needs dropping.
        """
        if self._parked:
            for index in sorted(self._parked):
                rec = self._parked[index]
                if rec.is_retry:
                    self.stats_retry_ticks += rec.ticks
                    self.drivers[index].retry_unpark()
                    self.stats_retry_wakes += 1
                else:
                    self.stats_spin_steps += rec.steps
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

        Parked spinners need no special handling: their placeholder
        events sit in the queue like any other CPU's and get deferred
        (and time-warped) by the ordinary solo machinery. Parked retry
        waiters notice the stop flag at their next tick and wake.
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
