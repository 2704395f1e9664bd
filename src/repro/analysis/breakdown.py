"""Per-stage latency attribution from hop-stamped transactions.

The chip records every completed traced request into a
:class:`LatencyBreakdown`: each closed hop lands in a per-component
accumulator (``<component>.hop.<stage>``) and histogram
(``<component>.hophist.<stage>``) registered in the chip's root stats
registry, so the breakdown flows into ``RunOutcome.stats`` (nested by
component path by ``RunOutcome.stats_tree()``) like every other stat.
:func:`rows_from_stats` inverts those key names back into rows for the
CLI's ``report --breakdown`` view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..mem.request import MemRequest
from ..sim.stats import StatsRegistry
from .tables import render_table

__all__ = [
    "DEFAULT_EDGES",
    "BreakdownRow",
    "LatencyBreakdown",
    "rows_from_stats",
    "render_breakdown",
    "summarize_breakdown",
]

#: hop-duration histogram bin edges, in cycles
DEFAULT_EDGES: Tuple[float, ...] = (8.0, 32.0, 128.0, 512.0, 2048.0)

_HOP_MARK = ".hop."
_HIST_MARK = ".hophist."


@dataclass
class BreakdownRow:
    """Aggregated time one (component, stage) pair consumed."""

    component: str
    stage: str
    count: int
    mean: float

    @property
    def total(self) -> float:
        return self.count * self.mean


class LatencyBreakdown:
    """Accumulates hop traces of completed requests into registry stats.

    Stats are created lazily per ``(component, stage)`` pair the traffic
    actually visits, so an idle subsystem contributes no keys.  Set
    ``keep_traces`` to retain the recorded requests themselves
    (reconciliation tests inspect the raw hop chains).
    """

    def __init__(self, registry: Optional[StatsRegistry] = None,
                 edges: Sequence[float] = DEFAULT_EDGES) -> None:
        self.registry = registry if registry is not None else StatsRegistry()
        self.edges = tuple(edges)
        self.keep_traces = False
        self.requests: List[MemRequest] = []
        self.recorded = 0
        self._accs: Dict[str, object] = {}
        self._hists: Dict[str, object] = {}

    def record(self, request: MemRequest) -> None:
        """Fold one completed request's closed hops into the stats."""
        trace = request.trace
        if trace is None:
            return
        self.recorded += 1
        if self.keep_traces:
            self.requests.append(request)
        for hop in trace.hops:
            if hop.exit is None:
                continue
            key = f"{hop.component}{_HOP_MARK}{hop.stage}"
            acc = self._accs.get(key)
            if acc is None:
                acc = self.registry.accumulator(key)
                self._accs[key] = acc
                hist_key = f"{hop.component}{_HIST_MARK}{hop.stage}"
                self._hists[key] = self.registry.histogram(hist_key, self.edges)
            acc.add(hop.duration)
            self._hists[key].add(hop.duration)

    def state_dict(self) -> Dict[str, object]:
        """Lazy-key bootstrap + record count (stat values travel with the
        registry; re-creating the lazily-registered stats here is what lets
        the registry restore find them by name)."""
        return {"recorded": self.recorded, "keys": sorted(self._accs)}

    def load_state(self, state: Dict[str, object]) -> None:
        self.recorded = state["recorded"]
        for key in state["keys"]:
            if key in self._accs:
                continue
            component, stage = key.split(_HOP_MARK, 1)
            self._accs[key] = self.registry.accumulator(key)
            self._hists[key] = self.registry.histogram(
                f"{component}{_HIST_MARK}{stage}", self.edges)

    def rows(self) -> List[BreakdownRow]:
        out = []
        for key, acc in self._accs.items():
            component, stage = key.split(_HOP_MARK, 1)
            out.append(BreakdownRow(component, stage, acc.count, acc.mean))
        out.sort(key=lambda r: r.total, reverse=True)
        return out


def rows_from_stats(flat_stats: Mapping[str, float]) -> List[BreakdownRow]:
    """Recover breakdown rows from a flat stats dump.

    Accumulator snapshots emit ``<component>.hop.<stage>.count`` /
    ``.mean`` (etc.) keys; a stage name never contains a dot, which is
    what makes the inversion unambiguous.
    """
    rows = []
    for key, value in flat_stats.items():
        if _HOP_MARK not in key or not key.endswith(".count"):
            continue
        component, suffix = key.split(_HOP_MARK, 1)
        stage = suffix[:-len(".count")]
        if "." in stage:
            continue
        mean = float(flat_stats.get(f"{component}{_HOP_MARK}{stage}.mean", 0.0))
        rows.append(BreakdownRow(component, stage, int(value), mean))
    rows.sort(key=lambda r: r.total, reverse=True)
    return rows


def render_breakdown(rows: Iterable[BreakdownRow],
                     title: str = "Latency breakdown") -> str:
    rows = list(rows)
    grand_total = sum(r.total for r in rows) or 1.0
    table = [
        (r.stage, r.component, str(r.count), f"{r.mean:.1f}",
         f"{r.total:.0f}", f"{100.0 * r.total / grand_total:.1f}%")
        for r in rows
    ]
    return render_table(
        ("stage", "component", "hops", "mean cyc", "total cyc", "share"),
        table, title=title,
    )


def summarize_breakdown(records: Iterable) -> List[BreakdownRow]:
    """Merge breakdown rows across run records (count-weighted means).

    ``records`` is any iterable of objects with a flat ``stats`` mapping
    (e.g. :class:`repro.exp.telemetry.RunRecord`).
    """
    merged: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        stats = getattr(record, "stats", None) or {}
        for row in rows_from_stats(stats):
            slot = merged.setdefault((row.component, row.stage), [0, 0.0])
            slot[0] += row.count
            slot[1] += row.total
    out = [
        BreakdownRow(component, stage, int(count), total / count if count else 0.0)
        for (component, stage), (count, total) in merged.items()
    ]
    out.sort(key=lambda r: r.total, reverse=True)
    return out
