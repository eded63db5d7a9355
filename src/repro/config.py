"""Simulation configuration (paper Table III).

Every latency is expressed in core clock cycles of the simulated 1.2 GHz
in-order cores.  The defaults reproduce the configuration of Table III of
the paper; benchmarks override individual fields for the sensitivity
studies (Figures 7 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

#: Cache-line size used throughout the simulated CMP (bytes).
LINE_BYTES = 64
#: log2(LINE_BYTES); an address's line index is ``addr >> LINE_SHIFT``.
LINE_SHIFT = 6


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of a set-associative cache."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = LINE_BYTES

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.ways

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )


@dataclass(frozen=True)
class MemoryConfig:
    """Banked main memory (Table III: 4 GB, 4 banks, 150-cycle latency)."""

    size_bytes: int = 4 << 30
    banks: int = 4
    latency: int = 150


@dataclass(frozen=True)
class DirectoryConfig:
    """Bit-vector sharer directory attached to the L2 (6-cycle latency)."""

    latency: int = 6


@dataclass(frozen=True)
class MeshConfig:
    """2-D mesh interconnect (2-cycle wire + 1-cycle route per hop)."""

    wire_latency: int = 2
    route_latency: int = 1

    @property
    def hop_latency(self) -> int:
        return self.wire_latency + self.route_latency


@dataclass(frozen=True)
class SignatureConfig:
    """Bloom-filter read/write signatures (2 Kbit in the paper)."""

    bits: int = 2048
    hashes: int = 4
    seed: int = 0xB100


@dataclass(frozen=True)
class RedirectConfig:
    """The SUV redirect machinery (paper Section III/IV, Table III).

    ``l1_entries``/``l1_latency`` describe the per-core zero-latency
    fully-associative first-level table; ``l2_*`` the shared 8-way
    second-level table; entries that overflow both levels live in a
    software-managed region of main memory, reached at ``memory_latency``.
    """

    l1_entries: int = 512
    l1_latency: int = 0
    l2_entries: int = 16384
    l2_ways: int = 8
    l2_latency: int = 10
    memory_latency: int = 150
    #: software handler cost on top of the raw memory access when an entry
    #: must be fetched from / spilled to the in-memory overflow structure.
    software_overhead: int = 40
    #: pipeline-flush penalty when the speculative use of the original
    #: address turns out wrong (a valid swapped-out entry existed in
    #: memory; Section IV-A).
    misspeculation_penalty: int = 24
    pool_page_bytes: int = 8192
    pool_base: int = 1 << 40
    #: cap on preserved-pool pages; 0 = unbounded (the paper's
    #: assumption).  With a cap, allocation past it raises a typed
    #: ``PoolExhausted`` that SUV converts into an abort-with-backoff.
    pool_max_pages: int = 0
    #: committed versions retained per line by the multiversioned SUV
    #: extension (``vm=mvsuv``); plain SUV keeps exactly the current
    #: version and ignores this knob.  Must be >= 1.
    versions_k: int = 4
    #: redirect summary signature used to filter lookups (2 Kbit + a 2 Kbit
    #: "written once" bit-vector acting as a Bloom counter, Figure 5).
    summary_bits: int = 2048
    summary_hashes: int = 2
    #: optional features (ablations)
    redirect_back: bool = True
    use_summary_signature: bool = True


@dataclass(frozen=True)
class HTMConfig:
    """Transactional-memory policy parameters shared by all schemes."""

    #: cycles to take / restore a register checkpoint at begin / abort.
    checkpoint_cycles: int = 4
    #: cycles to enter the software abort handler (LogTM-SE-style trap).
    abort_trap_cycles: int = 80
    #: randomized exponential backoff after an abort.
    backoff_base: int = 32
    backoff_cap: int = 4096
    #: period with which a stalled requester re-issues its request when it
    #: has not been woken explicitly (guards against missed wakeups).
    stall_retry_period: int = 50
    #: threads start within a random window of this many cycles (models
    #: OS thread-launch skew; perfectly synchronized starts produce
    #: artificially symmetric conflict storms).  0 = all threads start
    #: at cycle 0 (deterministic timing, used by the unit tests); the
    #: benchmark harness uses a realistic window.
    start_stagger: int = 0
    #: scheduler time slice for thread multiplexing (Section IV-C).
    #: 0 = no preemption unless there are more threads than cores, in
    #: which case a 20K-cycle default slice applies.
    time_slice: int = 0
    #: cycles charged when a core switches to a different thread.
    context_switch_cycles: int = 100
    #: a thread inside a transaction gets this many slices of grace
    #: before it is preempted: descheduling an active transaction leaves
    #: its signatures armed and stalls every conflicting neighbour, so
    #: the scheduler avoids it except for runaway transactions.
    tx_slice_grace: int = 10


@dataclass(frozen=True)
class AdaptiveConfig:
    """DynTM's adaptive detection and lazy commit (behavioural)."""

    counter_bits: int = 2
    #: counter value at or above which a transaction site runs lazily.
    lazy_threshold: int = 2
    #: per-written-line cost of the lazy commit's merge broadcast when the
    #: underlying version manager must move data (FasTM-based DynTM).
    commit_arbitration_cycles: int = 20


@dataclass(frozen=True)
class SimConfig:
    """Full simulated-CMP configuration (defaults = paper Table III)."""

    n_cores: int = 16
    clock_ghz: float = 1.2
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 << 10, ways=4, latency=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=8 << 20, ways=8, latency=15)
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    mesh: MeshConfig = field(default_factory=MeshConfig)
    signature: SignatureConfig = field(default_factory=SignatureConfig)
    redirect: RedirectConfig = field(default_factory=RedirectConfig)
    htm: HTMConfig = field(default_factory=HTMConfig)
    dyntm: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    def with_(self, **kwargs: Any) -> "SimConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)


def default_config() -> SimConfig:
    """The Table III configuration."""
    return SimConfig()
