"""ScratchPad Memory (paper §3.5.1).

Each TCG core owns a 128 KB SPM that is:

* **unified-addressed** — it occupies a window of the global address
  space, so the LSQ can route an access to SPM vs. cache/memory purely by
  address range (:class:`SpmAddressMap`);
* **programmer-managed** — no tags, no misses inside the window; an access
  outside any allocated region is the *programmer's* problem, which we
  surface as an error;
* **shared within a sub-ring** — remote SPM accesses travel over the ring,
  bulk transfers use the DMA engine (:mod:`repro.mem.dma`);
* the top 256 bytes hold the DMA control registers.

The model keeps what reaches a result: the window's capacity and
address range, and counts of the accesses landing in it.  It holds no
bytes — no result ever reads SPM contents back — so the control window
is capacity taken out of :attr:`Scratchpad.data_bytes`, not registers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import MemoryError_
from ..sim.component import Component
from ..sim.stats import StatsRegistry
from .request import MemRequest

__all__ = ["Scratchpad", "SpmAddressMap", "SPM_REGION_BASE"]

# Global address-map constants: SPMs live in a dedicated high region so the
# LSQ range check is a single comparison (paper: "LSQ units check the
# address and judge whether to send the requirement to the cache or SPM").
SPM_REGION_BASE = 0x4000_0000_0000


class Scratchpad(Component):
    """One core's SPM: an address window with access counters."""

    def __init__(
        self,
        core_id: int,
        size_bytes: int = 128 * 1024,
        control_bytes: int = 256,
        base_addr: Optional[int] = None,
        registry: Optional[StatsRegistry] = None,
        parent: Optional[Component] = None,
        name: Optional[str] = None,
    ) -> None:
        if control_bytes >= size_bytes:
            raise MemoryError_("SPM control window larger than the SPM")
        super().__init__(name if name is not None else f"spm{core_id}",
                         parent=parent, registry=registry)
        self.core_id = core_id
        self.size_bytes = size_bytes
        self.control_bytes = control_bytes
        self.base_addr = (
            base_addr if base_addr is not None
            else SPM_REGION_BASE + core_id * size_bytes
        )
        self.reads = self.stats.counter("reads")
        self.writes = self.stats.counter("writes")
        self.remote_accesses = self.stats.counter("remote_accesses")

    # -- address ranges --------------------------------------------------------

    @property
    def data_bytes(self) -> int:
        """Usable data capacity (size minus the control window)."""
        return self.size_bytes - self.control_bytes

    def contains(self, addr: int) -> bool:
        return self.base_addr <= addr < self.base_addr + self.size_bytes

    def check_range(self, addr: int, size: int) -> None:
        """Raise unless ``[addr, addr + size)`` lies inside the window."""
        if not self.contains(addr) or not self.contains(addr + size - 1):
            raise MemoryError_(
                f"SPM{self.core_id}: access {addr:#x}+{size} outside "
                f"[{self.base_addr:#x}, {self.base_addr + self.size_bytes:#x})"
            )

    def serve_remote(self, request: MemRequest, now: float,
                     latency: float) -> float:
        """Account a remote core's access landing here; returns ``latency``.

        The chip's remote-SPM path calls this at array-access time so the
        access is attributed to the owning SPM (count + hop stamp).
        """
        self.remote_accesses.inc()
        request.trace_advance("spm", self.path, now)
        return latency

    def __repr__(self) -> str:  # pragma: no cover
        return f"Scratchpad(core={self.core_id}, base={self.base_addr:#x})"


class SpmAddressMap:
    """Routes a global address to {local SPM | remote SPM | main memory}.

    One instance per chip; cores ask it where a load/store should go —
    this models the paper's LSQ address check.
    """

    def __init__(self, spms: Dict[int, Scratchpad]) -> None:
        self._spms = dict(spms)
        if not self._spms:
            self._region_lo = self._region_hi = 0
            self._uniform_size: Optional[int] = None
            return
        self._region_lo = min(s.base_addr for s in self._spms.values())
        self._region_hi = max(
            s.base_addr + s.size_bytes for s in self._spms.values()
        )
        # The default layout places SPM i at base + i*size; detect it so
        # owner lookup is O(1) — the LSQ does this with one shift in HW.
        sizes = {s.size_bytes for s in self._spms.values()}
        size = next(iter(sizes))
        uniform = len(sizes) == 1 and all(
            s.base_addr == SPM_REGION_BASE + s.core_id * size
            for s in self._spms.values()
        )
        self._uniform_size = size if uniform else None

    def owner_of(self, addr: int) -> Optional[Scratchpad]:
        """The SPM owning ``addr``, or None for main-memory addresses."""
        if not self._region_lo <= addr < self._region_hi:
            return None
        if self._uniform_size is not None:
            core_id = (addr - SPM_REGION_BASE) // self._uniform_size
            return self._spms.get(core_id)
        for spm in self._spms.values():
            if spm.contains(addr):
                return spm
        return None

    def route(self, addr: int, core_id: int) -> str:
        """One of ``"spm-local"``, ``"spm-remote"``, ``"mem"``."""
        owner = self.owner_of(addr)
        if owner is None:
            return "mem"
        return "spm-local" if owner.core_id == core_id else "spm-remote"

    def spm(self, core_id: int) -> Scratchpad:
        return self._spms[core_id]

    def __len__(self) -> int:
        return len(self._spms)
