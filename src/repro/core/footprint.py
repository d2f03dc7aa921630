"""Pluggable transactional-footprint capacity policies.

The paper answers the "how big can a transaction be?" question with two
hard-wired mechanisms: the L1 LRU-extension vector (section III.C) widens
the read footprint from the L1 to the L2 at the price of imprecise,
row-granular conflict checks, and the 64x128B gathering store cache
(section III.D) bounds the write footprint. This module extracts those
decisions behind a :class:`FootprintPolicy` interface so alternative
capacity mechanisms from the literature can be evaluated head-to-head on
the same engine:

``zec12``
    The paper's machine, bit-identical to the historical hard-wired
    behaviour: tx-read L1 evictions set an imprecise per-row extension
    bit (or abort outright when ``params.lru_extension`` is off), any
    non-rejected XI landing on a marked row aborts (false positives
    included), and L2 eviction of any footprint line aborts.

``no-lru-extension``
    Ablation: the zEC12 policy with the extension vector forced off, so
    the read footprint is bounded by the L1 (64x6) regardless of
    ``params.lru_extension`` — the "without LRU extension" half of
    Figure 5(f) as a first-class policy.

``power-spill[:N]``
    A POWER-style spill policy (arXiv 2003.03317): tx-read lines evicted
    from the L1 move to a *precise* bounded spill buffer instead of an
    imprecise row bit. Conflict checks stay exact (no false-positive
    aborts, no row aliasing); the transaction aborts only when more than
    ``N`` lines (default 256) have spilled. Lines must still stay
    resident in the L2 — its eviction remains a capacity abort — so
    conflict detection by XI delivery stays sound.

``bounded[:R[,W]]``
    A bounded read/write-set tracker (arXiv 2510.15888): the footprint
    is limited by *cardinality*, not cache residency. The transaction
    aborts once it has read more than ``R`` distinct lines (default 64)
    or written more than ``W`` distinct lines (default 16); L1 evictions
    of tx-read lines are tolerated outright because the tracker is
    precise and independent of the cache.

Selection: :attr:`repro.params.MachineParams.footprint_policy` names the
policy spec; an empty spec (the default) means ``"zec12"``. The params
field is the only selector, so a machine's policy never depends on the
environment of the process that builds it.

This module deliberately imports nothing from :mod:`repro.core.engine`
or :mod:`repro.mem` — the engine and the L1 hand themselves to the
policy via :meth:`FootprintPolicy.bind` / :meth:`attach_l1` — so
``mem/l1.py`` can construct a default policy without an import cycle.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import ConfigurationError
from .abort import AbortCode


#: The policy used when ``params.footprint_policy`` is empty: the
#: paper's machine.
DEFAULT_SPEC = "zec12"

#: Base names of every registered policy (specs may append ``:args``).
POLICY_NAMES: Tuple[str, ...] = (
    "zec12", "no-lru-extension", "power-spill", "bounded",
)


class FootprintPolicy:
    """Owns the capacity decisions of one CPU's transactional footprint.

    One policy instance serves one engine (it keeps per-transaction
    state). The engine binds itself with :meth:`bind`; the L1 attaches
    itself with :meth:`attach_l1` at construction. Per-transaction state
    is reset through :meth:`begin_transaction`, which the L1 calls from
    its own begin/end/abort funnel so the policy can never drift from
    the directory's tx bits.

    Decision hooks return an :class:`~repro.core.abort.AbortCode` when
    the transaction must abort, or ``None`` to continue. The base-class
    behaviour is the paper's non-negotiable floor: lines evicted from
    the private L2 leave the XI delivery scope, so any policy that kept
    such a line in its footprint would silently miss conflicts —
    :meth:`on_l2_eviction` therefore aborts on footprint lines unless a
    subclass can prove otherwise.
    """

    name = "abstract"

    def __init__(self) -> None:
        self._engine = None
        self._l1 = None

    # -- wiring ------------------------------------------------------------

    def bind(self, engine) -> None:
        """Attach the owning engine (read set, store cache, tx state)."""
        self._engine = engine

    def attach_l1(self, l1) -> None:
        """Attach the L1 whose directory geometry the policy tracks."""
        self._l1 = l1

    def unbind(self) -> None:
        """Drop the engine and L1 references (the engine is closing)."""
        self._engine = None
        self._l1 = None

    def store_cache_entries(self, tx_limits) -> int:
        """Capacity of the gathering store cache for this policy."""
        return tx_limits.store_cache_entries

    # -- per-transaction lifecycle -----------------------------------------

    def begin_transaction(self) -> None:
        """Reset per-transaction tracking state (outermost TBEGIN, TEND
        commit and abort teardown all funnel through here)."""

    # -- capacity decisions ------------------------------------------------

    def on_l1_eviction(self, victim) -> Optional[int]:
        """A tx-read line was LRU'ed out of the L1 (it stays in the L2).

        ``victim`` is the removed :class:`~repro.mem.line.DirectoryEntry`.
        Returns the abort code, or ``None`` when the policy absorbs the
        eviction (extension bit, spill buffer, dedicated tracker, ...).
        """
        raise NotImplementedError

    def on_l2_eviction(self, line: int) -> Optional[int]:
        """``line`` left the private L2 entirely (only called in-tx).

        Read-footprint lines abort with FETCH_OVERFLOW and transaction-
        ally written lines with STORE_OVERFLOW: once a line leaves the
        L2 this CPU stops receiving XIs for it, and tx-dirty data "have
        to stay resident in the L2 throughout the transaction".
        """
        engine = self._engine
        if line in engine.tx.read_set:
            return AbortCode.FETCH_OVERFLOW
        # "reject": a transactional store-cache entry holds the line.
        if engine.store_cache.xi_compare(line) == "reject":
            return AbortCode.STORE_OVERFLOW
        return None

    def imprecise_read_hit(self, line: int) -> bool:
        """Does an XI to ``line`` hit the policy's *imprecise* tracking?

        Consulted after the precise ``tx.read_set`` check missed.
        Precise policies always answer False.
        """
        return False

    def check_read_capacity(self) -> Optional[int]:
        """Cardinality check after read-set growth (the engine calls it
        on every transactional read; only bounded policies answer)."""
        return None

    def note_write_lines(self, lines) -> Optional[int]:
        """Track transactionally written lines (the engine calls it on
        every transactional write; only bounded policies answer)."""
        return None

    def on_store_overflow(self) -> int:
        """Abort code when the gathering store cache overflows."""
        return AbortCode.STORE_OVERFLOW

    # -- introspection -----------------------------------------------------

    def tracking_rows(self) -> int:
        """Occupancy of the policy's overflow-tracking structure.

        Reported through the metrics hooks' ``extension_rows`` argument:
        extension rows for ``zec12``, spilled lines for ``power-spill``,
        0 for policies with no overflow structure.
        """
        return 0


class Zec12Policy(FootprintPolicy):
    """The paper's machine: imprecise LRU-extension rows over the L1."""

    name = "zec12"

    def __init__(self, lru_extension: bool = True) -> None:
        super().__init__()
        self.lru_extension = lru_extension
        #: Rows with a valid extension bit (sparse: almost always empty).
        self._extension: set = set()
        #: Set when a tx-read line is evicted while the extension is
        #: disabled — the footprint can no longer be tracked at all.
        self.footprint_lost = False

    def begin_transaction(self) -> None:
        self._extension.clear()
        self.footprint_lost = False

    def on_l1_eviction(self, victim) -> Optional[int]:
        if self.lru_extension:
            self._extension.add(self._l1.directory.row_of(victim.line))
            return None
        self.footprint_lost = True
        return AbortCode.FETCH_OVERFLOW

    def imprecise_read_hit(self, line: int) -> bool:
        if not self._extension:
            return False
        return self._l1.directory.row_of(line) in self._extension

    def tracking_rows(self) -> int:
        return len(self._extension)


class NoLruExtensionPolicy(Zec12Policy):
    """Ablation: the zEC12 machine with the extension vector removed."""

    name = "no-lru-extension"

    def __init__(self) -> None:
        super().__init__(lru_extension=False)


class PowerSpillPolicy(FootprintPolicy):
    """Precise bounded spill buffer for L1-evicted tx-read lines.

    Models the POWER-style approach of arXiv 2003.03317: speculative
    read-set state squeezed out of the L1 moves into a dedicated precise
    structure instead of an imprecise row bit, so XI conflict checks
    never produce false positives. The buffer is bounded: spilling more
    than ``capacity`` lines aborts with FETCH_OVERFLOW. L2 evictions
    keep the base-class abort (see :meth:`FootprintPolicy.on_l2_eviction`
    for why tolerating them would be unsound in this fabric).
    """

    name = "power-spill"
    DEFAULT_CAPACITY = 256

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__()
        if capacity < 1:
            raise ConfigurationError("power-spill capacity must be >= 1")
        self.capacity = capacity
        self._spill: set = set()

    def begin_transaction(self) -> None:
        self._spill.clear()

    def on_l1_eviction(self, victim) -> Optional[int]:
        self._spill.add(victim.line)
        if len(self._spill) > self.capacity:
            return AbortCode.FETCH_OVERFLOW
        return None

    def tracking_rows(self) -> int:
        return len(self._spill)


class BoundedSetPolicy(FootprintPolicy):
    """Cardinality-bounded read/write-set tracker.

    Models arXiv 2510.15888: the transactional footprint is limited by
    *how many* distinct lines are read/written, not by where they sit in
    the cache hierarchy. The precise trackers make L1 evictions of
    tx-read lines free (the line stays in the L2, so XIs keep arriving
    and the precise read set keeps catching conflicts); the transaction
    aborts once it reads more than ``max_read_lines`` or writes more
    than ``max_write_lines`` distinct lines.
    """

    name = "bounded"
    DEFAULT_READ_LINES = 64
    DEFAULT_WRITE_LINES = 16

    def __init__(self, max_read_lines: int = DEFAULT_READ_LINES,
                 max_write_lines: int = DEFAULT_WRITE_LINES) -> None:
        super().__init__()
        if max_read_lines < 1 or max_write_lines < 1:
            raise ConfigurationError("bounded-set limits must be >= 1")
        self.max_read_lines = max_read_lines
        self.max_write_lines = max_write_lines
        self._write_lines: set = set()

    def begin_transaction(self) -> None:
        self._write_lines.clear()

    def on_l1_eviction(self, victim) -> Optional[int]:
        # Tracking is cardinality-based and precise; the line is still
        # L2-resident, so nothing is lost.
        return None

    def check_read_capacity(self) -> Optional[int]:
        if len(self._engine.tx.read_set) > self.max_read_lines:
            return AbortCode.FETCH_OVERFLOW
        return None

    def note_write_lines(self, lines) -> Optional[int]:
        tracked = self._write_lines
        tracked.update(lines)
        if len(tracked) > self.max_write_lines:
            return AbortCode.STORE_OVERFLOW
        return None


def resolve_policy_spec(params) -> str:
    """The effective policy spec for ``params``: its
    ``footprint_policy``, or ``"zec12"`` when that is empty."""
    return getattr(params, "footprint_policy", "") or DEFAULT_SPEC


def make_policy(params) -> FootprintPolicy:
    """Build the footprint policy selected by ``params``.

    Spec grammar: ``name[:args]`` — ``power-spill:128`` sets the spill
    capacity, ``bounded:32,8`` sets the read,write line limits.
    """
    spec = resolve_policy_spec(params)
    name, _, arg = spec.partition(":")
    try:
        if name == "zec12":
            if arg:
                raise ConfigurationError("zec12 takes no arguments")
            return Zec12Policy(lru_extension=params.lru_extension)
        if name == "no-lru-extension":
            if arg:
                raise ConfigurationError("no-lru-extension takes no arguments")
            return NoLruExtensionPolicy()
        if name == "power-spill":
            capacity = int(arg) if arg else PowerSpillPolicy.DEFAULT_CAPACITY
            return PowerSpillPolicy(capacity)
        if name == "bounded":
            reads = BoundedSetPolicy.DEFAULT_READ_LINES
            writes = BoundedSetPolicy.DEFAULT_WRITE_LINES
            if arg:
                parts = arg.split(",")
                if len(parts) > 2:
                    raise ConfigurationError(
                        "bounded takes at most two arguments: R[,W]"
                    )
                reads = int(parts[0])
                if len(parts) == 2:
                    writes = int(parts[1])
            return BoundedSetPolicy(reads, writes)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad footprint policy arguments in {spec!r}: {exc}"
        )
    raise ConfigurationError(
        f"unknown footprint policy {spec!r}; known policies: "
        + ", ".join(POLICY_NAMES)
    )
