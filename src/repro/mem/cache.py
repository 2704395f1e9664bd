"""Set-associative cache model with LRU replacement.

This is a *tag-only* timing model: it tracks which lines are resident (and
dirty) but not their data — the functional state lives in
:class:`~repro.isa.machine.FlatMemory` or the workload models.  Used for
the TCG's 16 KB I/D caches and for the Xeon baseline's three-level
hierarchy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, NamedTuple, Optional, Tuple

from ..errors import ConfigError
from ..sim.stats import StatsRegistry

__all__ = ["Cache", "AccessResult"]


class AccessResult(NamedTuple):
    """Outcome of one cache access (immutable, so hits can share one)."""

    hit: bool
    victim_addr: Optional[int] = None
    victim_dirty: bool = False


_HIT = AccessResult(hit=True)


class Cache:
    """LRU set-associative cache with write-back, write-allocate policy."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_bytes: int = 64,
        ways: int = 4,
        registry: Optional[StatsRegistry] = None,
        hit_latency: float = 0.0,
    ) -> None:
        if size_bytes % (line_bytes * ways):
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by line*ways"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (line_bytes * ways)
        # each set: OrderedDict tag -> dirty flag; first item is LRU
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        reg = registry if registry is not None else StatsRegistry()
        self.hits = reg.counter(f"{name}.hits")
        self.misses = reg.counter(f"{name}.misses")
        self.evictions = reg.counter(f"{name}.evictions")
        self.writebacks = reg.counter(f"{name}.writebacks")

    # -- address helpers -----------------------------------------------------

    def _index(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def _line_addr(self, set_idx: int, tag: int) -> int:
        return (tag * self.num_sets + set_idx) * self.line_bytes

    # -- operations ----------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Look up ``addr``; on miss, allocate (evicting LRU if needed)."""
        line = addr // self.line_bytes
        num_sets = self.num_sets
        set_idx = line % num_sets
        tag = line // num_sets
        line_set = self._sets[set_idx]
        if tag in line_set:
            self.hits.inc()
            line_set.move_to_end(tag)
            if is_write:
                line_set[tag] = True
            return _HIT

        self.misses.inc()
        victim_addr = None
        victim_dirty = False
        if len(line_set) >= self.ways:
            victim_tag, victim_dirty = line_set.popitem(last=False)
            victim_addr = self._line_addr(set_idx, victim_tag)
            self.evictions.inc()
            if victim_dirty:
                self.writebacks.inc()
        line_set[tag] = is_write
        return AccessResult(hit=False, victim_addr=victim_addr,
                            victim_dirty=victim_dirty)

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        set_idx, tag = self._index(addr)
        return tag in self._sets[set_idx]

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr``; returns True if it was present."""
        set_idx, tag = self._index(addr)
        return self._sets[set_idx].pop(tag, None) is not None

    def flush(self) -> int:
        """Empty the cache; returns the number of dirty lines dropped."""
        dirty = 0
        for line_set in self._sets:
            dirty += sum(1 for d in line_set.values() if d)
            line_set.clear()
        return dirty

    # -- snapshot protocol -----------------------------------------------------

    def state_dict(self) -> dict:
        """Resident lines in LRU order (counters live in the registry)."""
        return {"sets": [list(line_set.items()) for line_set in self._sets]}

    def load_state(self, state: dict) -> None:
        saved = state["sets"]
        if len(saved) != len(self._sets):
            raise ConfigError(
                f"{self.name}: checkpoint has {len(saved)} sets, "
                f"cache has {len(self._sets)}")
        self._sets = [OrderedDict((int(tag), bool(dirty))
                                  for tag, dirty in line_set)
                      for line_set in saved]

    # -- introspection ---------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits.value + self.misses.value

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses.value / total if total else 0.0

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Cache({self.name}, {self.size_bytes}B, {self.ways}-way, "
            f"miss_ratio={self.miss_ratio:.3f})"
        )
