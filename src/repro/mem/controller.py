"""Memory controller: address interleaving + request admission.

Four controllers sit on the main ring (paper Fig 4).  Each wraps one
:class:`~repro.mem.dram.DramChannel`.  ``MemoryController.submit`` accepts
a :class:`~repro.mem.request.MemRequest`, services it through the channel
timing model and schedules its completion on the simulator.

``MemorySystem`` is the chip-level front: it interleaves physical
addresses across controllers at cache-line granularity so consecutive
lines hit different channels (standard many-core practice, and what makes
the 4-channel aggregate bandwidth reachable).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import MemoryConfig
from ..sim.component import Component
from ..sim.engine import Simulator
from ..sim.stats import StatsRegistry
from .dram import DramChannel
from .request import MemRequest

__all__ = ["MemoryController", "MemorySystem"]

INTERLEAVE_BYTES = 64


class MemoryController(Component):
    """One controller + DDR channel pair on the main ring."""

    def __init__(
        self,
        controller_id: int,
        sim: Simulator,
        config: Optional[MemoryConfig] = None,
        frequency_ghz: float = 1.5,
        registry: Optional[StatsRegistry] = None,
        parent: Optional[Component] = None,
    ) -> None:
        super().__init__(f"mc{controller_id}", parent=parent, sim=sim,
                         registry=registry)
        self.controller_id = controller_id
        self.config = config if config is not None else MemoryConfig()
        self.channel = DramChannel(
            controller_id, self.config, frequency_ghz, self.stats
        )
        self.queued = self.stats.counter("requests")

    # -- snapshot protocol ----------------------------------------------------
    # The channel/bank objects are structural (rebuilt from config); only
    # their timing registers travel.

    def extra_state(self) -> dict:
        channel = self.channel
        return {
            "bus_free": channel._bus_free,
            "banks": [
                (bank.open_row, bank.busy_until, bank.row_hits,
                 bank.row_misses)
                for bank in channel.banks
            ],
        }

    def load_extra_state(self, state: dict) -> None:
        channel = self.channel
        channel._bus_free = state["bus_free"]
        for bank, (open_row, busy_until, hits, misses) in zip(
                channel.banks, state["banks"]):
            bank.open_row = open_row
            bank.busy_until = busy_until
            bank.row_hits = hits
            bank.row_misses = misses

    def submit(self, request: MemRequest,
               carried: Sequence[MemRequest] = ()) -> float:
        """Admit a request; returns (and schedules) its finish time.

        ``carried`` are the transactions riding this access (the member
        requests of a MACT batch, or the original request when ``request``
        is a chip-forged proxy) — their hop chains advance into the
        ``dram`` stage here.
        """
        self.queued.inc()
        now = self.sim.now
        if request.trace is not None:
            request.trace.advance("dram", self.path, now)
        for rider in carried:
            if rider.trace is not None:
                rider.trace.advance("dram", self.path, now)
        detail = self.channel.access_detail(request.addr, request.size, now)
        self.sim.schedule_at(detail.finish, request.complete, detail.finish)
        return detail.finish


class MemorySystem(Component):
    """All memory controllers of the chip, with line interleaving."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[MemoryConfig] = None,
        frequency_ghz: float = 1.5,
        registry: Optional[StatsRegistry] = None,
        parent: Optional[Component] = None,
        name: str = "mem",
    ) -> None:
        super().__init__(name, parent=parent, sim=sim, registry=registry)
        self.config = config if config is not None else MemoryConfig()
        self.controllers = [
            MemoryController(i, sim, self.config, frequency_ghz, parent=self)
            for i in range(self.config.channels)
        ]

    def controller_for(self, addr: int) -> MemoryController:
        index = (addr // INTERLEAVE_BYTES) % len(self.controllers)
        return self.controllers[index]

    @property
    def total_requests(self) -> int:
        return sum(mc.queued.value for mc in self.controllers)

    @property
    def total_bytes(self) -> int:
        return sum(mc.channel.bytes_moved.value for mc in self.controllers)

    def mean_latency(self) -> float:
        accs = [mc.channel.latency for mc in self.controllers]
        total = sum(a.count for a in accs)
        if not total:
            return 0.0
        return sum(a.mean * a.count for a in accs) / total

    def bandwidth_utilization(self, now: float) -> float:
        if not self.controllers:
            return 0.0
        return sum(c.channel.utilization(now) for c in self.controllers) / len(
            self.controllers
        )
