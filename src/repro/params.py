"""Machine configuration for the zEC12-like simulated system.

All structural and timing parameters of the simulated machine live here, as
plain frozen dataclasses. The defaults mirror the zEC12 numbers given in the
paper (MICRO 2012, section III):

* L1 data cache: 96 KB, 6-way, 256-byte lines, 4-cycle use latency.
* L2: private 1 MB, 8-way, +7 cycles over L1 (store-through, like L1).
* L3: 48 MB shared by the 6 cores of a CP chip (store-in).
* L4: 384 MB per MCM; up to 4 MCMs form the SMP.
* Gathering store cache: 64 entries x 128 bytes, byte-precise valid bits.
* Transaction nesting: maximum depth 16.
* Constrained transactions: at most 32 instructions within 256 bytes of
  instruction text, touching at most 4 aligned octowords (32 bytes each).

Latency *tiers* beyond the L2 are not published at cycle precision; the
values below are calibrated so that the relative distances (on-chip vs
cross-chip vs cross-MCM) produce the step functions visible in Figure 5(a).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache level."""

    ways: int
    rows: int
    line_size: int = 256

    def __post_init__(self) -> None:
        if self.ways < 1 or self.rows < 1:
            raise ConfigurationError("cache must have >=1 way and >=1 row")
        if self.line_size < 1 or self.line_size & (self.line_size - 1):
            raise ConfigurationError("line size must be a power of two")
        if self.rows & (self.rows - 1):
            raise ConfigurationError("row count must be a power of two")

    @property
    def capacity(self) -> int:
        """Total capacity in bytes."""
        return self.ways * self.rows * self.line_size

    def row_of(self, line_addr: int) -> int:
        """Congruence class (row index) of an already line-aligned address."""
        return (line_addr // self.line_size) % self.rows


#: L1 data cache: 96KB / 256B lines = 384 lines = 64 rows x 6 ways.
L1_GEOMETRY = CacheGeometry(ways=6, rows=64)
#: L2: 1MB / 256B = 4096 lines = 512 rows x 8 ways.
L2_GEOMETRY = CacheGeometry(ways=8, rows=512)
#: L3: 48MB shared per chip.
L3_GEOMETRY = CacheGeometry(ways=12, rows=16384)
#: L4: 384MB per MCM.
L4_GEOMETRY = CacheGeometry(ways=24, rows=65536)


@dataclass(frozen=True)
class Latencies:
    """Access latencies in CPU cycles, by the *source* of the data.

    ``l1_hit`` and ``l2_hit`` are from the paper; the deeper tiers are
    calibrated distances, not published numbers.
    """

    l1_hit: int = 4
    l2_hit: int = 11           # 4 + 7-cycle L1 miss penalty
    l3_hit: int = 40           # on-chip shared L3
    on_chip_intervention: int = 65    # line sourced from a sibling core's L1/L2
    same_mcm: int = 130        # other chip on the same MCM
    cross_mcm: int = 320       # other MCM
    memory: int = 450          # main memory
    xi_round_trip: int = 25    # latency added per XI that must be answered
    xi_reject_retry: int = 40  # requester back-off after a rejected XI
    store_cache_drain: int = 30  # flushing one store-cache entry to L2/L3

    def __post_init__(self) -> None:
        if min(dataclasses.astuple(self)) <= 0:
            raise ConfigurationError("all latencies must be positive cycles")


@dataclass(frozen=True)
class Topology:
    """Physical layout of CPUs: cores per chip, chips per MCM, MCM count.

    The default follows the *tested* system in the paper's evaluation, where
    an MCM node contributes 24 customer-usable CPUs ("the throughput grows up
    to 24 CPUs (the size of the MCM node in the tested system)").
    """

    cores_per_chip: int = 6
    chips_per_mcm: int = 4
    mcms: int = 5

    def __post_init__(self) -> None:
        if min(self.cores_per_chip, self.chips_per_mcm, self.mcms) < 1:
            raise ConfigurationError("topology dimensions must be >= 1")

    @property
    def cores_per_mcm(self) -> int:
        return self.cores_per_chip * self.chips_per_mcm

    @property
    def total_cores(self) -> int:
        return self.cores_per_mcm * self.mcms

    def chip_of(self, cpu: int) -> int:
        """Global chip index of a CPU."""
        return cpu // self.cores_per_chip

    def mcm_of(self, cpu: int) -> int:
        """MCM index of a CPU."""
        return cpu // self.cores_per_mcm

    def distance(self, cpu_a: int, cpu_b: int) -> str:
        """Classify the physical distance between two CPUs.

        Returns one of ``"self"``, ``"chip"`` (same chip / same L3),
        ``"mcm"`` (same MCM / same L4) or ``"remote"`` (different MCMs).
        """
        if cpu_a == cpu_b:
            return "self"
        if self.chip_of(cpu_a) == self.chip_of(cpu_b):
            return "chip"
        if self.mcm_of(cpu_a) == self.mcm_of(cpu_b):
            return "mcm"
        return "remote"


@dataclass(frozen=True)
class TxLimits:
    """Architected transactional-execution limits."""

    max_nesting_depth: int = 16
    store_cache_entries: int = 64
    store_cache_entry_bytes: int = 128
    #: Stiff-arm hang avoidance: a transaction that rejects this many XIs
    #: without completing an instruction in between is aborted.
    xi_reject_threshold: int = 8
    #: Constrained-transaction constraints (section II.D).
    constrained_max_instructions: int = 32
    constrained_itext_bytes: int = 256
    constrained_max_octowords: int = 4
    octoword_bytes: int = 32

    def __post_init__(self) -> None:
        if self.max_nesting_depth < 1:
            raise ConfigurationError("nesting depth must be >= 1")
        if self.store_cache_entries < 1 or self.store_cache_entry_bytes < 8:
            raise ConfigurationError("store cache too small")
        if self.xi_reject_threshold < 1:
            raise ConfigurationError("XI reject threshold must be >= 1")


@dataclass(frozen=True)
class InstructionCosts:
    """Cycle costs of instruction execution outside of memory latency.

    Calibrated so that the relative path lengths match the paper's
    observations (e.g. starting/ending a transaction has "similar overhead
    as locking and releasing a lock that is in the L1-cache", with the
    lock/release code having the longer path — TX wins by ~30% at 1 CPU).
    """

    base: int = 1                 # simple register/branch instruction
    #: The GR-save micro-ops of TBEGIN run on the two FXUs and overlap
    #: with surrounding work, so the per-pair cost is folded into the base.
    tbegin_base: int = 5
    tbegin_per_gr_pair: int = 0
    #: TBEGINC performs the same decode interlocks plus constraint setup;
    #: calibrated so a constrained task costs the same as the equivalent
    #: TBEGIN + lock-test task ("very comparable performance", the paper's
    #: measured delta is 0.4%).
    tbeginc: int = 15
    tend: int = 4
    nested_tbegin: int = 2        # inner TBEGIN only bumps the depth
    #: Interlocked-update (CS) serialisation penalty — the main reason the
    #: lock/release path is ~30% longer than TBEGIN/TEND at one CPU.
    cas_extra: int = 10
    ppa_base: int = 10            # millicode entry/exit
    etnd: int = 12                # millicoded, "not performance critical"

    def __post_init__(self) -> None:
        if min(dataclasses.astuple(self)) < 0:
            raise ConfigurationError("instruction costs must be non-negative")


@dataclass(frozen=True)
class MachineParams:
    """Full configuration of a simulated machine."""

    topology: Topology = Topology()
    l1: CacheGeometry = L1_GEOMETRY
    l2: CacheGeometry = L2_GEOMETRY
    l3: CacheGeometry = L3_GEOMETRY
    l4: CacheGeometry = L4_GEOMETRY
    latencies: Latencies = Latencies()
    costs: InstructionCosts = InstructionCosts()
    tx: TxLimits = TxLimits()
    #: Whether the L1 LRU-extension vector is present (section III.C). The
    #: real machine always has it; Figure 5(f) compares against a machine
    #: without it.
    lru_extension: bool = True
    #: Transactional-footprint capacity policy spec (see
    #: :mod:`repro.core.footprint`): ``"zec12"``, ``"no-lru-extension"``,
    #: ``"power-spill[:N]"`` or ``"bounded[:R[,W]]"``. The empty default
    #: means ``"zec12"``. This field is the only selector.
    footprint_policy: str = ""
    #: Fallback mode for retry-exhausted ``transaction_with_fallback``
    #: harnesses (see :mod:`repro.stm`): ``"lock"`` (the paper's Figure 1
    #: global-lock fallback, bit-identical default) or ``"stm"`` (the
    #: hybrid-TM orec STM fallback running concurrently with hardware
    #: transactions). The empty default means ``"lock"``. This field is
    #: the only selector.
    fallback_mode: str = ""
    #: Model speculative over-marking of the tx-read set (section III.C).
    speculation: bool = True
    #: Random-seed base for all stochastic machine behaviour.
    seed: int = 0x5EC12

    def __post_init__(self) -> None:
        if self.l1.line_size != self.l2.line_size:
            raise ConfigurationError("L1/L2 line sizes must match")

    @property
    def line_size(self) -> int:
        return self.l1.line_size

    def with_cpus(self, n: int) -> "MachineParams":
        """Return a copy whose topology supports at least ``n`` CPUs.

        CPUs fill chips and MCMs in order, so a run with ``n`` CPUs on the
        default topology crosses a chip boundary at 6 and an MCM boundary at
        24 — the step positions in Figure 5(a).
        """
        if n < 1:
            raise ConfigurationError("need at least one CPU")
        topo = self.topology
        if topo.total_cores >= n:
            return self
        per_mcm = topo.cores_per_mcm
        mcms = -(-n // per_mcm)
        return dataclasses.replace(self, topology=dataclasses.replace(topo, mcms=mcms))


#: Default machine: the zEC12-like configuration used throughout the benches.
ZEC12 = MachineParams()
