"""Configuration dataclasses for the SmarCo chip and the Xeon baseline.

Defaults follow the paper: §3 (architecture parameters), Table 2
(chip-level comparison against the Intel Xeon E7-8890V4), and §3.5.3
(DDR4-2133 memory system).  Every experiment bench builds its system from
these dataclasses, so a scaled run (fewer sub-rings, shorter workloads) is
just a modified config, never a code fork.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from .errors import ConfigError

__all__ = [
    "AUDIT_ENV",
    "AuditConfig",
    "TCGConfig",
    "RingConfig",
    "MACTConfig",
    "MemoryConfig",
    "SchedulerConfig",
    "SmarCoConfig",
    "XeonConfig",
    "smarco_default",
    "smarco_scaled",
    "xeon_default",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


#: Environment knob: ``REPRO_AUDIT=1`` turns fail-fast audits on,
#: ``REPRO_AUDIT=collect`` gathers violations without raising,
#: empty / ``0`` / ``off`` leaves auditing disabled.
AUDIT_ENV = "REPRO_AUDIT"

_AUDIT_OFF_VALUES = ("", "0", "off", "false", "no")
_AUDIT_COLLECT_VALUES = ("collect", "report")


@dataclass(frozen=True)
class AuditConfig:
    """Runtime invariant audit layer (``repro.sim.invariants``).

    Opt-in: the default is fully disabled and an audits-off run is
    bit-identical to a run of a build without the audit layer — checkers
    only observe (counters, registered hooks), never schedule events.
    ``fail_fast=True`` raises :class:`~repro.errors.AuditError` at the
    first violation; otherwise violations are collected (up to
    ``max_violations``) and reported in the run outcome.
    """

    enabled: bool = False
    fail_fast: bool = True
    # per-checker switches
    request_conservation: bool = True
    link_conservation: bool = True
    mact_consistency: bool = True
    thread_fsm: bool = True
    trace_tiling: bool = True
    max_violations: int = 100

    def validate(self) -> None:
        if self.max_violations <= 0:
            raise ConfigError("max_violations must be positive")

    @classmethod
    def from_env(cls, value: "str | None" = None) -> "AuditConfig":
        """Build from ``$REPRO_AUDIT`` (or an explicit ``value``)."""
        import os

        if value is None:
            value = os.environ.get(AUDIT_ENV, "")
        text = value.strip().lower()
        if text in _AUDIT_OFF_VALUES:
            return cls(enabled=False)
        if text in _AUDIT_COLLECT_VALUES:
            return cls(enabled=True, fail_fast=False)
        return cls(enabled=True, fail_fast=True)


@dataclass(frozen=True)
class TCGConfig:
    """Thread Core Group parameters (paper §3.1).

    A TCG is a 4-wide-issue, 8-stage, in-order superscalar core hosting 8
    hardware threads of which 4 are *running* at any time; the other 4 are
    their in-pair friends.
    """

    issue_width: int = 4
    pipeline_depth: int = 8
    hw_threads: int = 8
    running_threads: int = 4
    icache_bytes: int = 16 * KB
    dcache_bytes: int = 16 * KB
    spm_bytes: int = 128 * KB
    cache_line_bytes: int = 64
    cache_ways: int = 4
    # Latencies in core cycles.
    dcache_hit_latency: int = 2
    spm_hit_latency: int = 1
    thread_switch_latency: int = 1      # in-pair handoff is a HW mux: 1 cycle
    # SPM control-register window (paper §3.5.1: top 256 bytes).
    spm_control_bytes: int = 256

    def validate(self) -> None:
        if self.running_threads > self.hw_threads:
            raise ConfigError("running_threads cannot exceed hw_threads")
        if self.hw_threads % 2:
            raise ConfigError("in-pair threading requires an even thread count")
        if self.spm_control_bytes >= self.spm_bytes:
            raise ConfigError("SPM control window larger than the SPM")


@dataclass(frozen=True)
class RingConfig:
    """Hierarchical ring NoC parameters (paper §3.2, §3.3).

    The main ring carries 8 logical 64-bit datapaths (512 bits); each
    sub-ring carries 4 (256 bits).  ``slice_bytes`` selects the
    high-density slicing granularity; 16 bytes per direction behaves like a
    conventional un-sliced link (it equals a whole direction's width on the
    sub-ring).
    """

    datapath_bits: int = 64
    main_ring_datapaths: int = 8        # 3 fixed/dir + 2 bidirectional
    sub_ring_datapaths: int = 4         # 1 fixed/dir + 2 bidirectional
    main_ring_fixed_per_dir: int = 3
    sub_ring_fixed_per_dir: int = 1
    slice_bytes: int = 2                # high-density slice granularity
    hop_latency: int = 1                # cycles per router hop
    router_latency: int = 1             # cycles through a router pipeline
    bridge_latency: int = 2             # sub-ring <-> main-ring transfer
    buffer_flits: int = 8               # per-input buffering
    greedy_allocation: bool = True      # paper's greedy slice allocator
    direct_datapath: bool = True        # star-shaped fast path (paper §3.5.2)
    direct_datapath_latency: int = 4    # cycles core->memory on the star path

    @property
    def main_ring_bits(self) -> int:
        return self.datapath_bits * self.main_ring_datapaths

    @property
    def sub_ring_bits(self) -> int:
        return self.datapath_bits * self.sub_ring_datapaths

    @property
    def sub_ring_bytes_per_dir(self) -> int:
        """Bytes per cycle one sub-ring direction can move (fixed+bidi/2)."""
        return self.sub_ring_bits // 8 // 2

    def validate(self) -> None:
        if self.slice_bytes not in (1, 2, 4, 8, 16):
            raise ConfigError("slice_bytes must be one of 1,2,4,8,16")
        if self.main_ring_fixed_per_dir * 2 > self.main_ring_datapaths:
            raise ConfigError("main ring fixed datapaths exceed total")
        if self.sub_ring_fixed_per_dir * 2 > self.sub_ring_datapaths:
            raise ConfigError("sub ring fixed datapaths exceed total")
        if self.router_latency < 1:
            raise ConfigError("router_latency must be >= 1 cycle")


@dataclass(frozen=True)
class MACTConfig:
    """Memory Access Collection Table parameters (paper §3.4).

    One MACT per sub-ring.  A line covers ``line_span_bytes`` of address
    space via a byte bitmap; a line flushes when its bitmap is full or its
    ``threshold_cycles`` deadline expires (paper sweeps 8..64, settles on
    16).  ``enabled=False`` gives the conventional send-as-you-go baseline.
    """

    enabled: bool = True
    lines: int = 64
    line_span_bytes: int = 64
    threshold_cycles: int = 16
    bypass_priority: bool = True        # real-time requests skip the table

    def validate(self) -> None:
        if self.lines <= 0:
            raise ConfigError("MACT needs at least one line")
        if self.threshold_cycles <= 0:
            raise ConfigError("MACT threshold must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory system (paper §3.5.3): 4x 128-bit DDR4-2133 channels."""

    channels: int = 4
    channel_bytes: int = 16 * GB
    channel_width_bits: int = 128
    data_rate_mts: int = 2133           # mega-transfers/s
    banks_per_channel: int = 16
    row_hit_latency: int = 22           # core cycles @1.5GHz (~15 ns CAS)
    row_miss_latency: int = 68          # precharge+activate+CAS
    # Bank occupancy per access (tCCD / tRC budgets): much shorter than
    # the data-return latency — banks pipeline back-to-back requests.
    row_hit_occupancy: int = 6
    row_miss_occupancy: int = 45
    controller_queue: int = 64

    @property
    def total_bytes(self) -> int:
        return self.channels * self.channel_bytes

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth in GB/s (paper: 136.5 GB/s)."""
        per_channel = self.data_rate_mts * 1e6 * self.channel_width_bits / 8
        return self.channels * per_channel / 1e9

    def validate(self) -> None:
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise ConfigError("memory needs >=1 channel and bank")


@dataclass(frozen=True)
class SchedulerConfig:
    """Laxity-aware task scheduler (paper §3.7)."""

    policy: str = "laxity"              # any repro.sched.list_policies() name
    dispatch_latency: int = 8           # cycles to dispatch a task to a thread
    chain_table_entries: int = 256      # per sub-ring RAM chain-table slots

    def validate(self) -> None:
        # lazy import: repro.sched imports this module at load time, so the
        # registry can only be consulted from inside the call
        from .sched.policy import list_policies

        known = list_policies()
        if self.policy not in known:
            raise ConfigError(
                f"unknown scheduler policy {self.policy!r}; "
                f"registered: {', '.join(known)}")


@dataclass(frozen=True)
class SmarCoConfig:
    """Full-chip configuration (paper Fig 4 / Table 2).

    256 cores = 16 sub-rings x 16 cores, 1.5 GHz, 2048 hardware threads.
    """

    sub_rings: int = 16
    cores_per_sub_ring: int = 16
    frequency_ghz: float = 1.5
    tcg: TCGConfig = field(default_factory=TCGConfig)
    ring: RingConfig = field(default_factory=RingConfig)
    mact: MACTConfig = field(default_factory=MACTConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    technology_nm: int = 32             # Table 1 evaluates at 32nm
    #: fraction of core requests that carry a HopTrace (0.0 = tracing off;
    #: sampled deterministically, see repro.mem.request.TraceSampler)
    trace_sample_rate: float = 0.0

    @property
    def total_cores(self) -> int:
        return self.sub_rings * self.cores_per_sub_ring

    @property
    def total_hw_threads(self) -> int:
        return self.total_cores * self.tcg.hw_threads

    @property
    def total_spm_bytes(self) -> int:
        return self.total_cores * self.tcg.spm_bytes

    @property
    def total_icache_bytes(self) -> int:
        return self.total_cores * self.tcg.icache_bytes

    @property
    def total_dcache_bytes(self) -> int:
        return self.total_cores * self.tcg.dcache_bytes

    def validate(self) -> None:
        if self.sub_rings <= 0 or self.cores_per_sub_ring <= 0:
            raise ConfigError("need >=1 sub-ring and >=1 core per sub-ring")
        if self.memory.channels > max(self.sub_rings, 1):
            raise ConfigError(
                "memory channels must not exceed main-ring stops (sub_rings)"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigError("trace_sample_rate must be in [0, 1]")
        self.tcg.validate()
        self.ring.validate()
        self.mact.validate()
        self.memory.validate()
        self.scheduler.validate()


@dataclass(frozen=True)
class XeonConfig:
    """Intel Xeon E7-8890V4-like baseline (paper Table 2).

    24 OoO cores, 2-way SMT (48 threads), 2.2 GHz base, three cache levels,
    85 GB/s memory bandwidth.  OS-level thread oversubscription costs model
    the paper's Fig 23 observation that performance collapses past ~64
    software threads.
    """

    cores: int = 24
    smt_per_core: int = 2
    frequency_ghz: float = 2.2
    turbo_ghz: float = 3.4
    issue_width: int = 4
    rob_entries: int = 224
    l1i_bytes: int = 32 * KB
    l1d_bytes: int = 32 * KB
    l2_bytes: int = 256 * KB
    llc_bytes: int = 60 * MB
    cache_line_bytes: int = 64
    l1_hit_latency: int = 4
    l2_hit_latency: int = 12
    llc_hit_latency: int = 42
    dram_latency: int = 180             # core cycles
    memory_bandwidth_gbps: float = 85.0
    tdp_watts: float = 165.0
    context_switch_cycles: int = 3000   # OS context switch cost
    thread_create_cycles: int = 18000   # pthread_create cost
    technology_nm: int = 14

    @property
    def total_hw_threads(self) -> int:
        return self.cores * self.smt_per_core

    def validate(self) -> None:
        if self.cores <= 0 or self.smt_per_core <= 0:
            raise ConfigError("need >=1 core and >=1 SMT thread")


def smarco_default() -> SmarCoConfig:
    """The paper's full 256-core chip."""
    cfg = SmarCoConfig()
    cfg.validate()
    return cfg


def smarco_scaled(sub_rings: int = 4, cores_per_sub_ring: int = 16) -> SmarCoConfig:
    """A scaled-down chip for fast tests/benches (same per-core geometry).

    Memory channels scale down with the sub-ring count so the
    bandwidth-per-core ratio of the full chip is preserved.
    """
    channels = max(1, min(4, sub_rings))
    cfg = SmarCoConfig(
        sub_rings=sub_rings,
        cores_per_sub_ring=cores_per_sub_ring,
        memory=MemoryConfig(channels=channels),
    )
    cfg.validate()
    return cfg


def xeon_default() -> XeonConfig:
    cfg = XeonConfig()
    cfg.validate()
    return cfg
