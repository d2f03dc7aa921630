"""The SMP coherence fabric.

Implements the hierarchical cross-interrogate (XI) protocol of section
III.A over the configured chip/MCM topology:

* lines are owned read-only (shared) or exclusive by CPUs;
* a requester missing its L1/L2 asks its chip L3, which XIs the current
  owner(s); misses walk out to the L4 and the neighbouring L4s;
* exclusive and demote XIs may be **rejected** by the target (stiff-arm);
  the fabric then tells the requester to back off and retry;
* evictions at inclusive levels cascade LRU XIs downward.

The fabric is the single authority for *where lines live*; the per-CPU
transaction engines own the *conflict semantics* (they decide whether an
incoming XI is rejected, accepted, or aborts their transaction) via the
``CpuPort`` protocol below.

Fetch latency is determined by the source of the data (own L1/L2, a
sibling core's cache, the chip L3, the MCM L4, a remote MCM, or memory),
using :class:`repro.params.Latencies`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ProtocolError
from ..params import MachineParams
from .line import LineInfo, Ownership
from .shared import L3Cache, L4Cache
from .xi import (
    WATCH_BLOCK_MASK,
    WATCH_BLOCK_SIZE,
    LineWatchTable,
    Xi,
    XiResponse,
    XiType,
)


class FetchOutcome:
    """Result of one fetch attempt.

    A plain ``__slots__`` class (not a dataclass): one is allocated per
    fetch, which makes construction cost part of the simulator's inner
    loop.
    """

    __slots__ = ("done", "latency", "source")

    def __init__(self, done: bool, latency: int, source: str) -> None:
        self.done = done
        self.latency = latency
        # Cache tiers: "l1", "l2", "l3", "l4", "remote" (another MCM's
        # L4), "memory". Core-to-core RO sourcing: "intervention"
        # (same chip), "intervention-mcm", "intervention-remote".
        # Non-transfers: "upgrade", "busy", "reject".
        self.source = source

    def __repr__(self) -> str:
        return (
            f"FetchOutcome(done={self.done}, latency={self.latency}, "
            f"source={self.source!r})"
        )


class CpuPort:
    """Interface each CPU's transaction engine presents to the fabric.

    The engine subclasses/implements this; the base class documents the
    contract and provides storage for the pieces the fabric manipulates.
    """

    cpu_id: int
    l1 = None  # L1Cache
    l2 = None  # L2Cache

    def receive_xi(self, xi: Xi) -> Tuple[XiResponse, int]:
        """Process an incoming XI; returns (response, extra latency).

        On ACCEPT the engine must have updated its own L1/L2 directory
        state (invalidate or demote). Read-only and LRU XIs must always be
        accepted (they are not rejectable).
        """
        raise NotImplementedError

    def note_l1_eviction(self, entry) -> None:
        """An L1 line was evicted by LRU replacement (line stays in L2)."""
        raise NotImplementedError

    def note_l2_eviction(self, line: int) -> None:
        """A line left the private L2 entirely (footprint-overflow check)."""
        raise NotImplementedError


class CoherenceFabric:
    """Directory-style coherence over all CPUs, L3s and L4s."""

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self.topology = params.topology
        self.lat = params.latencies
        # Shared outcome instances for the constant-latency fetch results.
        # Consumers read the fields immediately and never hold a
        # reference across fetches, so the hot retry storm (busy back-off
        # and stiff-arm rejects, re-attempted every few cycles by every
        # contender of a hot line) allocates nothing.
        self._outcome_l1 = FetchOutcome(True, self.lat.l1_hit, "l1")
        self._outcome_l2 = FetchOutcome(True, self.lat.l2_hit, "l2")
        self._outcome_reject = FetchOutcome(
            False, self.lat.xi_reject_retry, "reject"
        )
        self._outcome_busy = FetchOutcome(False, 0, "busy")
        #: Simulated-time source (wired to the scheduler by the machine);
        #: used to serialise per-line transfers on the interconnect.
        self.clock = lambda: 0
        self._ports: List[CpuPort] = []
        self._lines: Dict[int, LineInfo] = {}
        chips = self.topology.chip_of(self.topology.total_cores - 1) + 1
        self.l3s = [L3Cache(params.l3, chip) for chip in range(chips)]
        self.l4s = [L4Cache(params.l4, mcm) for mcm in range(self.topology.mcms)]
        # Topology is immutable, so distance classifications and the
        # chip/MCM cache wiring per CPU are precomputed once instead of
        # re-deriving them on every fetch (they dominate the probe path on
        # wide machines).
        topo = self.topology
        total = topo.total_cores
        self._chip_of_cpu = [topo.chip_of(c) for c in range(total)]
        self._mcm_of_cpu = [topo.mcm_of(c) for c in range(total)]
        self._mcm_of_chip = [
            topo.mcm_of(chip * topo.cores_per_chip) for chip in range(chips)
        ]
        self._l3_by_cpu = [self.l3s[self._chip_of_cpu[c]] for c in range(total)]
        self._l4_by_cpu = [self.l4s[self._mcm_of_cpu[c]] for c in range(total)]
        #: Full distance matrices (rank: 0 chip, 1 mcm, 2 remote; and the
        #: corresponding intervention latency). At most ~120x120 ints.
        lat_by_rank = (
            self.lat.on_chip_intervention,
            self.lat.same_mcm,
            self.lat.cross_mcm,
        )
        self._rank_rows: List[List[int]] = []
        self._dist_lat_rows: List[List[int]] = []
        for a in range(total):
            chip_a = self._chip_of_cpu[a]
            mcm_a = self._mcm_of_cpu[a]
            row = [
                0 if self._chip_of_cpu[b] == chip_a
                else (1 if self._mcm_of_cpu[b] == mcm_a else 2)
                for b in range(total)
            ]
            self._rank_rows.append(row)
            self._dist_lat_rows.append([lat_by_rank[r] for r in row])
        #: Per-CPU shared-cache directories that drop their copy when the
        #: CPU takes a line exclusive: the L3s of the other chips and the
        #: L4s of the other MCMs.
        self._purge_dirs_by_cpu = [
            [l3.directory for l3 in self.l3s
             if l3.chip != self._chip_of_cpu[c]]
            + [l4.directory for l4 in self.l4s
               if l4.mcm != self._mcm_of_cpu[c]]
            for c in range(total)
        ]
        #: ``(latency, source)`` of a core-to-core intervention by rank.
        self._intervention_sources = (
            (self.lat.on_chip_intervention, "intervention"),
            (self.lat.same_mcm, "intervention-mcm"),
            (self.lat.cross_mcm, "intervention-remote"),
        )
        #: Per-CPU L3/L4 install callbacks (avoid per-fetch closures).
        self._l3_install_cbs = [
            (lambda c: lambda victim: self._lru_cascade_l3(c, victim))(c)
            for c in range(total)
        ]
        self._l4_install_cbs = [
            (lambda c: lambda victim: self._lru_cascade_l4(c, victim))(c)
            for c in range(total)
        ]
        #: Per-registered-CPU L1/L2 eviction callbacks (filled in register).
        self._l1_evict_cbs: List = []
        self._l2_evict_cbs: List = []
        #: Spin-watch registry (see :class:`~repro.mem.xi.LineWatchTable`)
        #: and the scheduler's wake callback (wired by the machine). Both
        #: maps are empty unless spin elision has actually parked a CPU,
        #: so the hot-path guards are single falsy-dict checks.
        self.watches = LineWatchTable()
        #: ``wake_sink(cpu_id)`` un-parks a CPU (set to
        #: :meth:`repro.sim.scheduler.Scheduler.wake_parked` while a
        #: scheduler is running).
        self.wake_sink = None
        # statistics
        self.stats_fetches = 0
        self.stats_rejects = 0
        self.stats_xis = 0
        #: Always 0: probes are computed on demand, nothing is memoized.
        #: Kept because the perfbench readout still reads it.
        self.stats_probe_hits = 0

    # -- registration -------------------------------------------------------

    def register(self, port: CpuPort) -> None:
        if port.cpu_id != len(self._ports):
            raise ProtocolError("CPUs must register in id order")
        if port.cpu_id >= self.topology.total_cores:
            raise ProtocolError("more CPUs than the topology supports")
        self._ports.append(port)
        # Pre-bound eviction callbacks, so the install fast path does not
        # allocate a closure per miss.
        self._l1_evict_cbs.append(port.note_l1_eviction)
        self._l2_evict_cbs.append(
            lambda victim, _port=port: self._evict_from_private(
                _port, victim.line
            )
        )

    def close(self) -> None:
        """Drop every callback and port that refers back to the CPUs,
        the scheduler or this fabric (see
        :meth:`repro.sim.machine.Machine.close`). The statistics stay
        readable; the fabric cannot serve fetches afterwards."""
        self.clock = None
        self.wake_sink = None
        self._ports = []
        self._l1_evict_cbs = []
        self._l2_evict_cbs = []
        self._l3_install_cbs = []
        self._l4_install_cbs = []

    @property
    def cpu_count(self) -> int:
        return len(self._ports)

    def line_info(self, line: int) -> LineInfo:
        info = self._lines.get(line)
        if info is None:
            info = LineInfo()
            self._lines[line] = info
        return info

    # -- fetch path -----------------------------------------------------------

    def try_fetch(self, cpu: int, line: int, exclusive: bool) -> FetchOutcome:
        """One attempt to obtain ``line`` for ``cpu``.

        Returns a done outcome on success, or a not-done outcome whose
        latency is the back-off delay after a rejected XI (the caller —
        the CPU driver — repeats the fetch, letting simulated time advance
        so the stiff-arming target can make progress).
        """
        self.stats_fetches += 1
        port = self._ports[cpu]
        lat = self.lat
        # ``lookup`` inlined to its dict probe (same for L2 below): the
        # retry storm of a contended line funnels through here.
        l1_dir = port.l1.directory
        entry = l1_dir._entries.get(line)

        # L1 hit with sufficient ownership.
        if entry is not None and (
            not exclusive or entry.state is Ownership.EXCLUSIVE
        ):
            l1_dir._clock += 1
            entry.lru = l1_dir._clock
            return self._outcome_l1

        info = self._lines.get(line)
        if info is None:
            info = self._lines[line] = LineInfo()

        # Read-only upgrade: we own it RO, need exclusive. Other RO owners
        # get (non-rejectable) read-only XIs.
        if exclusive and cpu in info.ro_owners:
            latency = lat.l1_hit if entry is not None else lat.l2_hit
            latency += self._invalidate_ro_owners(line, info, except_cpu=cpu)
            info.ro_owners.discard(cpu)
            info.ex_owner = cpu
            self._set_private_state(port, line, Ownership.EXCLUSIVE)
            if self.watches.by_block:
                self._wake_line_watchers(line)
            return FetchOutcome(True, latency, "upgrade")

        # L2 hit with sufficient ownership: refill the L1.
        l2_dir = port.l2.directory
        l2_entry = l2_dir._entries.get(line)
        if l2_entry is not None and (
            not exclusive or l2_entry.state is Ownership.EXCLUSIVE
        ):
            l2_dir._clock += 1
            l2_entry.lru = l2_dir._clock
            l1_dir.install(line, l2_entry.state, evict=self._l1_evict_cbs[cpu])
            return self._outcome_l2

        # Full miss: the line must come from another CPU, a shared cache,
        # or memory. A line still in flight from a previous transfer
        # cannot be handed over yet — the requester backs off until the
        # interconnect frees up (this is what serialises a hot line under
        # heavy contention).
        now = self.clock()
        if now < info.busy_until:
            busy = self._outcome_busy
            busy.latency = info.busy_until - now
            return busy

        owner = info.ex_owner
        if owner >= 0 and owner != cpu:
            xi_type = XiType.EXCLUSIVE if exclusive else XiType.DEMOTE
            response, extra = self._send_xi(Xi(xi_type, line, cpu, owner))
            if response is XiResponse.REJECT:
                self.stats_rejects += 1
                return self._outcome_reject
            # Target accepted (it updated its own directories); a demoted
            # owner keeps a read-only copy.
            if info.ex_owner == owner:
                info.ex_owner = -1
                if not exclusive:
                    info.ro_owners.add(owner)
            latency = lat.xi_round_trip + extra + self._dist_lat_rows[cpu][owner]
            source = "intervention"
        else:
            latency = 0
            if exclusive and info.ro_owners:
                latency = self._invalidate_ro_owners(line, info, except_cpu=cpu)
            shared_latency, source = self._shared_source(cpu, line, info)
            latency += shared_latency

        # Grant ownership and install everywhere (inclusive hierarchy).
        info.busy_until = now + latency
        if exclusive:
            want = Ownership.EXCLUSIVE
            info.ro_owners.discard(cpu)
            info.ex_owner = cpu
            # Stale copies leave the other chips' L3s and MCMs' L4s.
            for directory in self._purge_dirs_by_cpu[cpu]:
                if line in directory._entries:
                    directory.remove(line)
            if self.watches.by_block:
                self._wake_line_watchers(line)
        else:
            want = Ownership.READ_ONLY
            info.ro_owners.add(cpu)
        self._l3_by_cpu[cpu].install(line, self._l3_install_cbs[cpu])
        self._l4_by_cpu[cpu].install(line, self._l4_install_cbs[cpu])
        l2_dir.install(line, want, evict=self._l2_evict_cbs[cpu])
        l1_dir.install(line, want, evict=self._l1_evict_cbs[cpu])
        return FetchOutcome(True, latency, source)

    # -- spin-watch registry ---------------------------------------------------

    def watch_add(self, cpu: int, line: int, block: int) -> None:
        """Register a parked spinner's watch (engine park path)."""
        self.watches.add(cpu, line, block)

    def watch_remove(self, cpu: int) -> None:
        """Drop a CPU's watch (wake / budget-drain path)."""
        self.watches.remove(cpu)

    def retry_watch_add(self, cpu: int, line: int, block: int) -> None:
        """Register a parked retry waiter's watch (engine park path)."""
        self.watches.add_retry(cpu, line, block)

    def retry_watch_remove(self, cpu: int) -> None:
        self.watches.remove_retry(cpu)

    def _wake_line_watchers(self, line: int) -> None:
        """Wake every watcher of any block of ``line``.

        Safety net behind the precise XI-to-target wake in
        :meth:`_send_xi`: a parked watcher always holds the line
        read-only, so any exclusive acquisition already XIed (and woke)
        it — but waking spuriously is harmless (the CPU re-certifies and
        re-parks), while missing a wake would strand it.
        """
        by_block = self.watches.by_block
        for block in range(line, line + self.params.line_size,
                           WATCH_BLOCK_SIZE):
            cpus = by_block.get(block)
            if cpus:
                for cpu in sorted(cpus):
                    self.wake_sink(cpu)

    def wake_drained(self, runs) -> None:
        """Wake watchers of every block a store-drain run touches."""
        by_block = self.watches.by_block
        for addr, data in runs:
            if not data:
                # A zero-length run touches nothing; without this guard
                # the last-block computation below underflows: for an
                # unaligned ``addr`` it lands back in addr's own block
                # and spuriously wakes its watchers, and for ``addr`` 0
                # it goes negative outright.
                continue
            first = addr & WATCH_BLOCK_MASK
            last = (addr + len(data) - 1) & WATCH_BLOCK_MASK
            for block in range(first, last + 1, WATCH_BLOCK_SIZE):
                cpus = by_block.get(block)
                if cpus:
                    for cpu in sorted(cpus):
                        self.wake_sink(cpu)

    def probe_latency(self, cpu: int, line: int, exclusive: bool) -> int:
        """Estimate the fetch latency without performing the fetch.

        Used by the engines to model the interconnect *wait* separately
        from the ownership *transfer*: the line only changes hands when
        the data actually arrives, so a transaction is not exposed to
        conflicts on a line it is still waiting for. No XIs are sent and
        no state is modified.
        """
        port = self._ports[cpu]
        lat = self.lat
        entry = port.l1.directory._entries.get(line)
        if entry is not None and (
            not exclusive or entry.state is Ownership.EXCLUSIVE
        ):
            return lat.l1_hit
        info = self._lines.get(line)
        if exclusive and info is not None and cpu in info.ro_owners:
            base = lat.l1_hit if entry is not None else lat.l2_hit
            return base + lat.xi_round_trip
        l2_entry = port.l2.directory._entries.get(line)
        if l2_entry is not None and (
            not exclusive or l2_entry.state is Ownership.EXCLUSIVE
        ):
            return lat.l2_hit
        if info is not None:
            if info.ex_owner >= 0 and info.ex_owner != cpu:
                return lat.xi_round_trip + self._dist_lat_rows[cpu][info.ex_owner]
            if info.ro_owners:
                nearest = self._nearest_rank(cpu, info.ro_owners)
                if nearest < 3:
                    latency = self._intervention_sources[nearest][0]
                else:
                    latency = self._shared_probe_latency(cpu, line)
                # Exclusive: ``cpu`` is not among the owners (the upgrade
                # case returned above), so every owner gets a read-only XI.
                if exclusive:
                    latency += lat.xi_round_trip
                return latency
        return self._shared_probe_latency(cpu, line)

    def _nearest_rank(self, cpu: int, owners) -> int:
        """Distance rank of the nearest owner other than ``cpu``: 0 same
        chip, 1 same MCM, 2 remote MCM, 3 when ``cpu`` is the only one."""
        row = self._rank_rows[cpu]
        nearest = 3
        for o in owners:
            if o != cpu:
                r = row[o]
                if r < nearest:
                    nearest = r
                    if r == 0:
                        break
        return nearest

    def _shared_probe_latency(self, cpu: int, line: int) -> int:
        """Latency of the shared-cache tiers, without LRU touches."""
        if line in self._l3_by_cpu[cpu].directory._entries:
            return self.lat.l3_hit
        if line in self._l4_by_cpu[cpu].directory._entries:
            return self.lat.same_mcm
        my_mcm = self._mcm_of_cpu[cpu]
        for l4 in self.l4s:
            if l4.mcm != my_mcm and line in l4.directory._entries:
                return self.lat.cross_mcm
        return self.lat.memory

    # -- XI delivery ------------------------------------------------------------

    def _send_xi(self, xi: Xi) -> Tuple[XiResponse, int]:
        self.stats_xis += 1
        # A parked spinner's copy of its watched line (and hence the value
        # its elided loads observe) can only be affected by an XI
        # delivered *to it* for that line — wake it just before delivery,
        # so the fast-forwarded loads land before the XI's effects,
        # exactly as in the non-elided interleaving.
        watched = self.watches.by_cpu.get(xi.target) if self.watches.by_cpu \
            else None
        if watched is not None and watched[0] == xi.line:
            self.wake_sink(xi.target)
        # Same precise wake for a retry-parked target: its parked chain
        # only models the probe/busy/stiff-arm decision of its *own*
        # fetch, so an XI delivered to it for the watched line (defense
        # in depth — a waiter does not own the line it waits for) drops
        # it back to real execution before the XI's effects land.
        if self.watches.retry_by_cpu:
            watched = self.watches.retry_by_cpu.get(xi.target)
            if watched is not None and watched[0] == xi.line:
                self.wake_sink(xi.target)
        response, extra = self._ports[xi.target].receive_xi(xi)
        if response is XiResponse.REJECT and not xi.xi_type.rejectable:
            raise ProtocolError(f"{xi.xi_type} XI cannot be rejected")
        return response, extra

    def _invalidate_ro_owners(self, line: int, info: LineInfo, except_cpu: int) -> int:
        """Send read-only XIs to every RO owner; returns added latency."""
        latency = 0
        owners = info.ro_owners
        if len(owners) > 1 or (owners and except_cpu not in owners):
            for owner in sorted(owners):
                if owner == except_cpu:
                    continue
                self._send_xi(Xi(XiType.READ_ONLY, line, except_cpu, owner))
                latency = self.lat.xi_round_trip  # overlapped, charge once
            # Rebuilt from the set as it stands after delivery.
            info.ro_owners = {o for o in info.ro_owners if o == except_cpu}
        return latency

    # -- private-cache installation with eviction cascades ------------------------

    def _set_private_state(self, port: CpuPort, line: int, state: Ownership) -> None:
        for directory in (port.l1.directory, port.l2.directory):
            entry = directory.lookup(line)
            if entry is not None:
                entry.state = state

    def _evict_from_private(self, port: CpuPort, line: int) -> None:
        """A line leaves a CPU's L2 (and, by inclusivity, its L1)."""
        # The line is leaving the hierarchy entirely; the engine's
        # note_l2_eviction below performs the footprint-overflow check.
        port.l1.directory.remove(line)
        info = self.line_info(line)
        info.ro_owners.discard(port.cpu_id)
        if info.ex_owner == port.cpu_id:
            info.ex_owner = -1
        port.note_l2_eviction(line)

    # -- shared caches ------------------------------------------------------------

    def _lru_cascade_l3(self, cpu: int, victim: int) -> None:
        """An L3 eviction sends LRU XIs to the cores under that chip."""
        chip = self._chip_of_cpu[cpu]
        chip_of = self._chip_of_cpu
        self._lru_xi_below(victim, lambda c: chip_of[c] == chip)

    def _lru_cascade_l4(self, cpu: int, victim: int) -> None:
        """An L4 eviction empties the MCM: L3s below and their cores."""
        mcm = self._mcm_of_cpu[cpu]
        mcm_of_chip = self._mcm_of_chip
        for l3 in self.l3s:
            if mcm_of_chip[l3.chip] == mcm:
                l3.remove(victim)
        mcm_of = self._mcm_of_cpu
        self._lru_xi_below(victim, lambda c: mcm_of[c] == mcm)

    def _lru_xi_below(self, line: int, in_scope) -> None:
        info = self._lines.get(line)
        if info is None:
            return
        for owner in sorted(info.owners()):
            if owner >= len(self._ports) or not in_scope(owner):
                continue
            self._send_xi(Xi(XiType.LRU, line, -1, owner))
            info.ro_owners.discard(owner)
            if info.ex_owner == owner:
                info.ex_owner = -1

    # -- latency classification -------------------------------------------------

    def _shared_source(self, cpu: int, line: int, info: LineInfo) -> Tuple[int, str]:
        """``(latency, source)`` of a miss with no foreign exclusive owner.

        A read-only copy in another core is sourced by core-to-core
        intervention, labelled by distance; otherwise the nearest shared
        cache holding the line sources it, and that L3 or L4 gets one
        LRU touch. The intervention tiers ride the same interconnect hops
        as the shared-cache tiers at the same distance, so the same-MCM
        and cross-MCM interventions reuse those latencies — distinct
        *labels* (for fetch-source attribution), identical cycles.
        """
        if info.ro_owners:
            nearest = self._nearest_rank(cpu, info.ro_owners)
            if nearest < 3:
                return self._intervention_sources[nearest]
        lat = self.lat
        directory = self._l3_by_cpu[cpu].directory
        entry = directory._entries.get(line)
        if entry is not None:
            directory._clock += 1
            entry.lru = directory._clock
            return (lat.l3_hit, "l3")
        directory = self._l4_by_cpu[cpu].directory
        entry = directory._entries.get(line)
        if entry is not None:
            directory._clock += 1
            entry.lru = directory._clock
            return (lat.same_mcm, "l4")
        my_mcm = self._mcm_of_cpu[cpu]
        for l4 in self.l4s:
            if l4.mcm != my_mcm and line in l4.directory._entries:
                return (lat.cross_mcm, "remote")
        return (lat.memory, "memory")

    # -- ownership fix-ups used by the engines ------------------------------------

    def release_line(self, cpu: int, line: int) -> None:
        """Remove ``line`` from a CPU's private caches and the ownership map."""
        port = self._ports[cpu]
        port.l1.directory.remove(line)
        port.l2.directory.remove(line)
        info = self._lines.get(line)
        if info is not None:
            info.ro_owners.discard(cpu)
            if info.ex_owner == cpu:
                info.ex_owner = -1
