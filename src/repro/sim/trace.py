"""Event tracing for simulator observability.

A :class:`Tracer` attached to a machine records transactional and
coherence events with simulated timestamps — useful for debugging
workloads ("why did this transaction abort?") and for the kind of
hardware/firmware bring-up analysis the paper's section II.E describes.

Tracing rides the engine's explicit metrics hook points
(:class:`~repro.core.engine.MetricsSink`) rather than wrapping methods:
each engine fires ``note_*`` callbacks from fixed sites on the
transaction/XI/fetch paths (every fetch, L1 hits included, passes the
one ``note_fetch`` site in ``TxEngine._fetch``), and the hot paths
carry a single None-check when tracing is off. The quantitative
counterpart — abort-cause histograms, footprints, JSONL export — is
:class:`repro.sim.metrics.MetricsRegistry`, which shares the same hook
points and can be attached alongside a tracer.

The event ``limit`` caps only event *storage*: the per-kind counters
reported by :meth:`Tracer.summary` keep counting past the limit, and
the number of events not stored is reported as ``dropped=N``.

Example::

    machine = Machine(ZEC12)
    ...
    tracer = Tracer(machine, kinds={"abort", "commit"})
    machine.run()
    for event in tracer.events:
        print(event)
    print(tracer.summary())
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Set

from ..core.engine import MetricsSink

ALL_KINDS = frozenset({"tbegin", "commit", "abort", "xi", "fetch"})


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: int
    cpu: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:>10}] cpu{self.cpu:<3} {self.kind:<7} {self.detail}"


class _EngineTap(MetricsSink):
    """Per-engine hook-point adapter feeding one :class:`Tracer`."""

    __slots__ = ("tracer", "cpu")

    def __init__(self, tracer: "Tracer", cpu: int) -> None:
        self.tracer = tracer
        self.cpu = cpu

    def note_tbegin(self, constrained, ia):
        self.tracer._record(
            self.cpu, "tbegin",
            f"{'TBEGINC' if constrained else 'TBEGIN'} at 0x{ia:x}")

    def note_commit(self, ia, read_lines, write_lines, store_cache_used,
                    extension_rows):
        self.tracer._record(self.cpu, "commit", f"TEND at 0x{ia:x}")

    def note_abort(self, abort, read_lines, write_lines, xi_rejects,
                   extension_rows):
        self.tracer._record(self.cpu, "abort", abort.describe())

    def note_xi(self, xi, response):
        self.tracer._record(
            self.cpu, "xi",
            f"{xi.xi_type.value} XI line 0x{xi.line:x} from "
            f"cpu{xi.requester}: {response.value}")

    def note_fetch(self, line, exclusive, source):
        if source != "l1":
            self.tracer._record(
                self.cpu, "fetch",
                f"line 0x{line:x} {'EX' if exclusive else 'RO'} "
                f"from {source}")


class Tracer:
    """Records engine events from a machine run."""

    def __init__(self, machine, kinds: Optional[Set[str]] = None,
                 limit: int = 100_000) -> None:
        self.machine = machine
        self.kinds = set(kinds) if kinds is not None else set(ALL_KINDS)
        unknown = self.kinds - ALL_KINDS
        if unknown:
            raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: Per-kind totals; unlike ``events``, never capped by ``limit``.
        self._counts: Counter = Counter()
        self._taps: List[_EngineTap] = []
        for engine in machine.engines:
            tap = _EngineTap(self, engine.cpu_id)
            engine.attach_metrics(tap)
            self._taps.append(tap)

    def detach(self) -> None:
        """Stop observing; recorded events and counts stay readable."""
        for engine, tap in zip(self.machine.engines, self._taps):
            engine.detach_metrics(tap)
        self._taps = []

    # -- recording -----------------------------------------------------------

    def _now(self) -> int:
        scheduler = self.machine.scheduler
        return scheduler.now if scheduler is not None else 0

    def _record(self, cpu: int, kind: str, detail: str) -> None:
        if kind not in self.kinds:
            return
        self._counts[kind] += 1
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(TraceEvent(self._now(), cpu, kind, detail))

    # -- analysis ---------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Counter:
        """Per-kind event totals (counted even past the storage limit)."""
        return Counter(self._counts)

    def aborts_by_code(self) -> Counter:
        """Histogram of abort reasons (parsed from the detail strings)."""
        counter: Counter = Counter()
        for event in self.of_kind("abort"):
            counter[event.detail.split()[1]] += 1
        return counter

    def summary(self) -> str:
        counts = self._counts
        parts = [f"{kind}={counts.get(kind, 0)}" for kind in sorted(self.kinds)]
        if self.dropped:
            parts.append(f"dropped={self.dropped}")
        return " ".join(parts)
