"""Statistics primitives shared by every simulated component.

Components own their stat objects and register them in a
:class:`StatsRegistry` so a run harness can dump a flat, named snapshot at
the end of a simulation (this mirrors the per-module counter dumps the
paper's PDES simulator produces).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Accumulator",
    "Histogram",
    "TimeWeighted",
    "StatsRegistry",
    "StatsScope",
    "nest_flat_stats",
]


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, by: int = 1) -> None:
        self.value += by

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}

    def state_dict(self) -> Dict[str, float]:
        return {"value": self.value}

    def load_state(self, state: Dict[str, float]) -> None:
        self.value = state["value"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Accumulator:
    """Streaming mean / min / max / variance over observed samples.

    Uses Welford's algorithm so long runs stay numerically stable.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)
        if sample < self.min:
            self.min = sample
        if sample > self.max:
            self.max = sample

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def snapshot(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": self.count,
            f"{self.name}.mean": self.mean,
            f"{self.name}.min": self.min if self.count else 0.0,
            f"{self.name}.max": self.max if self.count else 0.0,
        }

    def state_dict(self) -> Dict[str, float]:
        return {"count": self.count, "mean": self._mean, "m2": self._m2,
                "min": self.min, "max": self.max, "total": self.total}

    def load_state(self, state: Dict[str, float]) -> None:
        self.count = state["count"]
        self._mean = state["mean"]
        self._m2 = state["m2"]
        self.min = state["min"]
        self.max = state["max"]
        self.total = state["total"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Accumulator({self.name}: n={self.count}, mean={self.mean:.3f})"


class Histogram:
    """A histogram over fixed, caller-supplied bin edges.

    ``edges = [2, 4, 8]`` creates bins (-inf,2], (2,4], (4,8], (8,inf).
    Used for access-granularity distributions (paper Fig 8) and latency
    distributions.
    """

    __slots__ = ("name", "edges", "counts", "count", "_samples_total")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if list(edges) != sorted(edges):
            raise ValueError("histogram edges must be sorted ascending")
        self.name = name
        self.edges = list(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self._samples_total = 0.0

    def add(self, sample: float, weight: int = 1) -> None:
        idx = 0
        for edge in self.edges:
            if sample <= edge:
                break
            idx += 1
        self.counts[idx] += weight
        self.count += weight
        self._samples_total += sample * weight

    @property
    def mean(self) -> float:
        return self._samples_total / self.count if self.count else 0.0

    def fractions(self) -> List[float]:
        """Per-bin share of all samples (sums to 1 when non-empty)."""
        if not self.count:
            return [0.0] * len(self.counts)
        return [c / self.count for c in self.counts]

    def bin_labels(self) -> List[str]:
        labels = []
        prev: Optional[float] = None
        for edge in self.edges:
            labels.append(f"<={edge:g}" if prev is None else f"({prev:g},{edge:g}]")
            prev = edge
        labels.append(f">{prev:g}" if prev is not None else "all")
        return labels

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {f"{self.name}.count": self.count}
        for label, frac in zip(self.bin_labels(), self.fractions()):
            out[f"{self.name}[{label}]"] = frac
        return out

    def state_dict(self) -> Dict[str, object]:
        return {"counts": list(self.counts), "count": self.count,
                "samples_total": self._samples_total}

    def load_state(self, state: Dict[str, object]) -> None:
        self.counts = list(state["counts"])
        self.count = state["count"]
        self._samples_total = state["samples_total"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name}, n={self.count})"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity.

    Used for utilisation curves: call :meth:`set` whenever the level
    changes; :meth:`average` integrates level x time up to ``now``.
    """

    __slots__ = ("name", "_level", "_last_time", "_area", "_max_level")

    def __init__(self, name: str, initial: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._level = initial
        self._last_time = start_time
        self._area = 0.0
        self._max_level = initial

    def set(self, level: float, now: float) -> None:
        if now < self._last_time:
            raise ValueError("time must be monotonically non-decreasing")
        self._area += self._level * (now - self._last_time)
        self._level = level
        self._last_time = now
        if level > self._max_level:
            self._max_level = level

    def adjust(self, delta: float, now: float) -> None:
        self.set(self._level + delta, now)

    @property
    def level(self) -> float:
        return self._level

    @property
    def max_level(self) -> float:
        return self._max_level

    def average(self, now: float) -> float:
        span = now - self._last_time
        area = self._area + self._level * span
        total = now if now > 0 else 0.0
        return area / total if total else self._level

    def snapshot(self) -> Dict[str, float]:
        return {f"{self.name}.level": self._level, f"{self.name}.max": self._max_level}

    def state_dict(self) -> Dict[str, float]:
        return {"level": self._level, "last_time": self._last_time,
                "area": self._area, "max_level": self._max_level}

    def load_state(self, state: Dict[str, float]) -> None:
        self._level = state["level"]
        self._last_time = state["last_time"]
        self._area = state["area"]
        self._max_level = state["max_level"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"TimeWeighted({self.name}, level={self._level})"


class StatsRegistry:
    """A named collection of stat objects with a flat dump.

    Component constructors take an optional registry; when given, they
    register their stats under ``<component>.<stat>`` names.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, object] = {}

    def register(self, stat) -> "StatsRegistry":
        key = stat.name
        if key in self._stats:
            raise ValueError(f"duplicate stat name {key!r}")
        self._stats[key] = stat
        return self

    def counter(self, name: str) -> Counter:
        stat = Counter(name)
        self.register(stat)
        return stat

    def accumulator(self, name: str) -> Accumulator:
        stat = Accumulator(name)
        self.register(stat)
        return stat

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        stat = Histogram(name, edges)
        self.register(stat)
        return stat

    def time_weighted(self, name: str, initial: float = 0.0) -> TimeWeighted:
        stat = TimeWeighted(name, initial)
        self.register(stat)
        return stat

    def get(self, name: str):
        return self._stats[name]

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def names(self) -> List[str]:
        return sorted(self._stats)

    def dump(self) -> Dict[str, float]:
        """Flat {name: value} snapshot of every registered stat."""
        out: Dict[str, float] = {}
        for stat in self._stats.values():
            out.update(stat.snapshot())
        return out

    def scope(self, prefix: str) -> "StatsScope":
        """A view of this registry that prefixes every name with ``prefix``."""
        return StatsScope(self, prefix)

    def stats(self) -> Dict[str, object]:
        """The live stat objects, keyed by registered name."""
        return dict(self._stats)

    def state_dict(self) -> Dict[str, Dict[str, object]]:
        """Per-stat internal state keyed by registered name (checkpoint)."""
        return {name: stat.state_dict()
                for name, stat in self._stats.items()}

    def load_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Restore :meth:`state_dict` output into the registered stats.

        Every saved name must resolve to an already-registered stat: the
        registry's membership is structural (it is rebuilt by the system
        constructors), only the values travel through a checkpoint.
        """
        for name, stat_state in state.items():
            stat = self._stats.get(name)
            if stat is None:
                raise KeyError(f"checkpoint names unknown stat {name!r}")
            stat.load_state(stat_state)


def nest_flat_stats(flat: Dict[str, float]) -> Dict[str, object]:
    """Fold a flat ``{dotted.name: value}`` dump into nested dicts.

    Histogram bin keys (``name[<=8]``) stay attached to their leaf.  When
    a name is both a leaf and a prefix of deeper names, the scalar is
    stored under the ``"_value"`` key of the inner dict.
    """
    root: Dict[str, object] = {}
    for name, value in flat.items():
        # keep "[...]" bin labels (which may contain dots) atomic
        bracket = name.find("[")
        head = name if bracket < 0 else name[:bracket]
        parts = head.split(".")
        if bracket >= 0:
            parts[-1] += name[bracket:]
        node = root
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {} if nxt is None else {"_value": nxt}
                node[part] = nxt
            node = nxt
        leaf = parts[-1]
        existing = node.get(leaf)
        if isinstance(existing, dict):
            existing["_value"] = value
        else:
            node[leaf] = value
    return root


class StatsScope:
    """A path-scoped view of a :class:`StatsRegistry`.

    Components hold one of these (``component.stats``) so every stat they
    create is registered under ``<component path>.<stat name>`` in the
    shared registry.  The factory API mirrors :class:`StatsRegistry`, so a
    scope can be passed anywhere a registry is expected.
    """

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: StatsRegistry, prefix: str = "") -> None:
        self.registry = registry
        self.prefix = prefix

    def qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def register(self, stat) -> "StatsScope":
        stat.name = self.qualify(stat.name)
        self.registry.register(stat)
        return self

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self.qualify(name))

    def accumulator(self, name: str) -> Accumulator:
        return self.registry.accumulator(self.qualify(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        return self.registry.histogram(self.qualify(name), edges)

    def time_weighted(self, name: str, initial: float = 0.0) -> TimeWeighted:
        return self.registry.time_weighted(self.qualify(name), initial)

    def scope(self, name: str) -> "StatsScope":
        return StatsScope(self.registry, self.qualify(name))

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatsScope({self.prefix!r})"
