"""Synthetic traffic generation for NoC experiments.

Drives the high-density-NoC sweep (paper Fig 18): open-loop injection of
packets whose size distribution follows a workload's memory-access
granularity histogram (paper Fig 8), measured as delivered packets per
cycle.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Tuple

from ..errors import WorkloadError
from ..sim.engine import Simulator
from ..sim.rng import RngTree
from .hierring import HierarchicalRingNoC
from .packet import NodeId, Packet, PacketKind

__all__ = ["GranularityDist", "TrafficGenerator", "TrafficResult", "run_uniform_traffic"]


@dataclass(frozen=True)
class GranularityDist:
    """A discrete packet-size distribution (bytes -> probability weight).

    ``_table`` is derived from ``weights`` at construction; it stays out
    of ``__eq__``, ``__hash__`` and ``repr``, and :meth:`snapshot_fields`
    keeps it out of checkpoints.
    """

    weights: Tuple[Tuple[int, float], ...]
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.weights:
            raise WorkloadError("empty granularity distribution")
        if any(size <= 0 or w < 0 for size, w in self.weights):
            raise WorkloadError("granularity entries must be positive")
        if sum(w for _, w in self.weights) <= 0:
            raise WorkloadError("granularity weights must sum > 0")
        sizes = tuple(s for s, _ in self.weights)
        cum = tuple(accumulate(w for _, w in self.weights))
        # (sizes, cumulative weights, float total, last index): exactly
        # the table random.choices builds on every call
        object.__setattr__(self, "_table",
                           (sizes, cum, cum[-1] + 0.0, len(sizes) - 1))

    def sample(self, rng: random.Random) -> int:
        """One size; the same single ``rng.random()`` draw, and the same
        result, as ``rng.choices(sizes, weights=weights)[0]``."""
        sizes, cum, total, hi = self._table
        return sizes[bisect(cum, rng.random() * total, 0, hi)]

    def snapshot_fields(self) -> dict:
        return {"weights": self.weights}

    def snapshot_restore(self, fields: dict) -> None:
        self.__init__(**fields)  # type: ignore[misc]

    def mean(self) -> float:
        total = sum(w for _, w in self.weights)
        return sum(s * w for s, w in self.weights) / total


@dataclass
class TrafficResult:
    """Outcome of one traffic run."""

    injected: int = 0
    delivered: int = 0
    duration: float = 0.0
    total_latency: float = 0.0

    @property
    def throughput(self) -> float:
        """Delivered packets per cycle (paper Fig 18's y-axis)."""
        return self.delivered / self.duration if self.duration else 0.0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0


class TrafficGenerator:
    """Open-loop injector: every core emits packets at ``injection_rate``
    packets/cycle toward memory controllers (the dominant HTC pattern) or
    uniformly random cores."""

    def __init__(
        self,
        sim: Simulator,
        noc: HierarchicalRingNoC,
        dist: GranularityDist,
        injection_rate: float,
        pattern: str = "memory",
        seed: int = 0,
    ) -> None:
        if not 0 < injection_rate <= 1:
            raise WorkloadError("injection_rate must be in (0, 1]")
        if pattern not in ("memory", "uniform"):
            raise WorkloadError(f"unknown traffic pattern {pattern!r}")
        self.sim = sim
        self.noc = noc
        self.dist = dist
        self.injection_rate = injection_rate
        self.pattern = pattern
        self.rng = RngTree(seed).stream("traffic")
        self.result = TrafficResult()

    def _random_core(self) -> NodeId:
        ring = self.rng.randrange(self.noc.num_sub_rings)
        idx = self.rng.randrange(self.noc.cores_per_sub_ring)
        return NodeId("core", ring=ring, index=idx)

    def _destination(self) -> NodeId:
        if self.pattern == "memory":
            mcs = [n for n in self.noc.main_stops if n.kind == "mc"]
            return self.rng.choice(mcs)
        return self._random_core()

    def _on_delivered(self, packet: Packet, now: float) -> None:
        self.result.delivered += 1
        self.result.total_latency += packet.latency or 0.0

    def run(self, cycles: int) -> TrafficResult:
        """Inject for ``cycles`` and drain; returns the measured result.

        Injection uses a geometric inter-arrival per core with mean
        ``1 / injection_rate`` cycles (Bernoulli-per-cycle equivalent).
        """
        for ring in range(self.noc.num_sub_rings):
            for idx in range(self.noc.cores_per_sub_ring):
                src = NodeId("core", ring=ring, index=idx)
                t = 0.0
                while True:
                    gap = self.rng.expovariate(self.injection_rate)
                    t += max(1.0, gap)
                    if t >= cycles:
                        break
                    self.sim.schedule_at(t, self._inject, src)
        self.sim.run()
        self.result.duration = max(self.sim.now, cycles)
        return self.result

    def _inject(self, src: NodeId) -> None:
        dst = self._destination()
        if dst == src:
            return
        packet = Packet(
            src=src, dst=dst,
            size_bytes=self.dist.sample(self.rng),
            kind=PacketKind.MEM_READ,
            on_delivered=self._on_delivered,
        )
        self.result.injected += 1
        self.noc.send(packet)


def run_uniform_traffic(
    sub_rings: int,
    cores_per_sub_ring: int,
    dist: GranularityDist,
    slice_bytes: int,
    injection_rate: float = 0.05,
    cycles: int = 2000,
    greedy: bool = True,
    seed: int = 0,
) -> TrafficResult:
    """Convenience wrapper: build a fresh NoC with ``slice_bytes`` slicing
    and measure throughput under the given traffic (Fig 18 harness)."""
    from ..config import RingConfig

    sim = Simulator()
    config = RingConfig(slice_bytes=slice_bytes, greedy_allocation=greedy)
    noc = HierarchicalRingNoC(
        sim, sub_rings, cores_per_sub_ring,
        mem_channels=min(4, sub_rings), config=config,
    )
    gen = TrafficGenerator(sim, noc, dist, injection_rate, seed=seed)
    return gen.run(cycles)
