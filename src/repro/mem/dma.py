"""DMA engine for SPM↔SPM and memory↔SPM bulk transfers (paper §3.5.1).

The paper uses DMA for two things:

* shared-data movement between neighbouring cores' SPMs on a sub-ring;
* instruction-segment prefetch into SPM for thread gangs running the same
  kernel (paper §3.1.2), which is what the chip and the staged MapReduce
  model drive through :meth:`DmaEngine.prefetch_fill`.

A transfer runs as an explicit-state flight returning a
:class:`~repro.sim.engine.Completion`: it reserves the engine, moves its
bytes at ``bytes_per_cycle``, then fires completion.  Only the byte
count travels: a fill is range-checked against the destination SPM and
counted, and no contents are stored (see :mod:`repro.mem.spm`).
"""

from __future__ import annotations

from typing import Optional

from ..errors import MemoryError_
from ..sim.component import Component
from ..sim.engine import Completion, Simulator
from ..sim.snapshot import snapshotable
from ..sim.stats import StatsRegistry
from .request import HopTrace
from .spm import Scratchpad

__all__ = ["DmaEngine"]


@snapshotable
class _DmaTransfer:
    """Explicit-state form of the transfer process (one per fill)."""

    __slots__ = ("engine", "dst", "size", "trace", "completion", "phase")

    def __init__(self, engine: "DmaEngine", dst: Scratchpad, size: int,
                 trace: Optional[HopTrace], completion: Completion) -> None:
        self.engine = engine
        self.dst = dst
        self.size = size
        self.trace = trace
        self.completion = completion
        self.phase = "reserve"

    def _step(self, _payload=None) -> None:
        engine = self.engine
        sim = engine.sim
        if self.phase == "reserve":
            # Serialise on the engine.
            now = sim.now
            wait = max(0.0, engine._busy_until - now)
            duration = engine.transfer_cycles(self.size)
            engine._busy_until = now + wait + duration
            engine.queue_wait.add(wait)
            if self.trace is not None:
                self.trace.stamp("dma_queue", engine.path, now, now + wait)
                self.trace.stamp("dma_xfer", engine.path, now + wait,
                                 now + wait + duration)
            self.phase = "move"
            sim.schedule(wait + duration, self._step, None)
            return
        self.dst.writes.inc()
        engine.transfers.inc()
        engine.bytes_moved.inc(self.size)
        self.completion.finish(self.size)


class DmaEngine(Component):
    """One DMA engine (a sub-ring resource, serialised FIFO)."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "dma",
        bytes_per_cycle: int = 32,
        setup_latency: int = 8,
        registry: Optional[StatsRegistry] = None,
        parent: Optional[Component] = None,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise MemoryError_("DMA bandwidth must be positive")
        super().__init__(name, parent=parent, sim=sim, registry=registry)
        self.bytes_per_cycle = bytes_per_cycle
        self.setup_latency = setup_latency
        self._busy_until = 0.0
        self.transfers = self.stats.counter("transfers")
        self.bytes_moved = self.stats.counter("bytes")
        self.queue_wait = self.stats.accumulator("queue_wait")

    def on_reset(self) -> None:
        self._busy_until = 0.0

    def transfer_cycles(self, size: int) -> int:
        """Pure transfer time for ``size`` bytes (excluding queueing)."""
        return self.setup_latency + -(-size // self.bytes_per_cycle)

    def prefetch_fill(self, dst: Scratchpad, dst_addr: int, size: int,
                      trace: Optional[HopTrace] = None) -> Completion:
        """Fill ``size`` bytes of ``dst`` from ``dst_addr`` (§3.1.2).

        Main memory is only a byte source here; timing charges the
        engine bandwidth.  A caller-supplied ``trace`` gets the
        transfer's queue and transfer legs stamped as closed
        ``dma_queue``/``dma_xfer`` records.
        """
        if size <= 0:
            raise MemoryError_(f"DMA size must be positive, got {size}")
        dst.check_range(dst_addr, size)
        completion = Completion(self.sim, f"{self.name}.prefetch")
        transfer = _DmaTransfer(self, dst, size, trace, completion)
        self.sim.schedule(0, transfer._step, None)
        return completion

    def copy(self, src: Scratchpad, dst: Scratchpad, src_addr: int,
             dst_addr: int, size: int,
             trace: Optional[HopTrace] = None) -> Completion:
        """SPM→SPM copy: a fill of ``dst`` that also reads ``src`` once.

        No model path copies between SPMs; this stays because
        ``bench/trace.py`` names it among the layer entry points.
        """
        src.check_range(src_addr, size)
        completion = self.prefetch_fill(dst, dst_addr, size, trace)
        src.reads.inc()
        return completion

    # -- snapshot protocol -------------------------------------------------------

    def extra_state(self) -> dict:
        return {"busy_until": self._busy_until}

    def load_extra_state(self, state: dict) -> None:
        self._busy_until = state["busy_until"]
