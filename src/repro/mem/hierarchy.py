"""Multi-level cache hierarchy for the Xeon baseline (paper Fig 1c/1d).

Three inclusive levels (per-core L1I/L1D + L2, shared LLC).  ``access``
walks the levels and returns where the line was found and the cumulative
latency — exactly the two quantities Fig 1(c)/(d) plots per level.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from ..config import XeonConfig
from ..sim.component import Component
from ..sim.stats import StatsRegistry
from .cache import Cache

__all__ = ["HierarchyResult", "CacheHierarchy"]


class HierarchyResult(NamedTuple):
    level: str          # "L1" | "L2" | "LLC" | "MEM"
    latency: int        # total cycles to data
    l1_hit: bool


class CacheHierarchy(Component):
    """One core's slice of the Xeon cache hierarchy.

    The LLC is shared: pass the same :class:`Cache` object to every
    per-core hierarchy.
    """

    def __init__(
        self,
        core_id: int,
        config: Optional[XeonConfig] = None,
        shared_llc: Optional[Cache] = None,
        registry: Optional[StatsRegistry] = None,
        parent: Optional[Component] = None,
        name: Optional[str] = None,
    ) -> None:
        cfg = config if config is not None else XeonConfig()
        super().__init__(name if name is not None else f"core{core_id}",
                         parent=parent, registry=registry)
        self.config = cfg
        self.core_id = core_id
        line = cfg.cache_line_bytes
        self.l1d = Cache("l1d", cfg.l1d_bytes, line, ways=8, registry=self.stats,
                         hit_latency=cfg.l1_hit_latency)
        self.l1i = Cache("l1i", cfg.l1i_bytes, line, ways=8, registry=self.stats,
                         hit_latency=cfg.l1_hit_latency)
        self.l2 = Cache("l2", cfg.l2_bytes, line, ways=8, registry=self.stats,
                        hit_latency=cfg.l2_hit_latency)
        self._llc_private = shared_llc is None
        self.llc = shared_llc if shared_llc is not None else Cache(
            "llc", cfg.llc_bytes, line, ways=16, registry=self.stats,
            hit_latency=cfg.llc_hit_latency,
        )

    # -- snapshot protocol ------------------------------------------------------
    # A shared LLC is serialised once by its owner (XeonSystem), not per
    # hierarchy.

    def extra_state(self) -> dict:
        state = {
            "l1d": self.l1d.state_dict(),
            "l1i": self.l1i.state_dict(),
            "l2": self.l2.state_dict(),
        }
        if self._llc_private:
            state["llc"] = self.llc.state_dict()
        return state

    def load_extra_state(self, state: dict) -> None:
        self.l1d.load_state(state["l1d"])
        self.l1i.load_state(state["l1i"])
        self.l2.load_state(state["l2"])
        if self._llc_private and "llc" in state:
            self.llc.load_state(state["llc"])

    @staticmethod
    def make_shared_llc(config: Optional[XeonConfig] = None,
                        registry: Optional[StatsRegistry] = None) -> Cache:
        cfg = config if config is not None else XeonConfig()
        return Cache("llc", cfg.llc_bytes, cfg.cache_line_bytes, ways=16,
                     registry=registry, hit_latency=cfg.llc_hit_latency)

    def access(self, addr: int, is_write: bool = False,
               is_instruction: bool = False) -> HierarchyResult:
        """Data walk L1 → L2 → LLC → memory with allocation on each miss."""
        cfg = self.config
        l1 = self.l1i if is_instruction else self.l1d
        if l1.access(addr, is_write).hit:
            return HierarchyResult("L1", cfg.l1_hit_latency, True)
        if self.l2.access(addr, is_write).hit:
            return HierarchyResult("L2", cfg.l2_hit_latency, False)
        if self.llc.access(addr, is_write).hit:
            return HierarchyResult("LLC", cfg.llc_hit_latency, False)
        return HierarchyResult("MEM", cfg.dram_latency, False)

    def miss_ratios(self) -> Dict[str, float]:
        """Per-level miss ratios {L1, L2, LLC} (L1 = data side)."""
        return {
            "L1": self.l1d.miss_ratio,
            "L2": self.l2.miss_ratio,
            "LLC": self.llc.miss_ratio,
        }
