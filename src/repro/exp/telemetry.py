"""Structured per-run telemetry.

Every sweep point the runner executes (or satisfies from cache) produces
one :class:`RunRecord` — the request snapshot, the result dict, the full
``StatsRegistry`` dump, wall time, cache hit/miss and worker id — written
as one JSON file under ``results/runs/``.  The files are the audit trail
for a sweep: ``repro-smarco report`` summarises them, and any later
analysis can reload them without re-simulating.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..analysis.tables import render_table

__all__ = ["RunRecord", "write_record", "load_records", "summarize_runs"]


@dataclass
class RunRecord:
    """One run's telemetry (everything needed to audit or replay it)."""

    run_id: str                 # cache-key prefix: content address of the run
    spec: str                   # owning ExperimentSpec name
    index: int                  # position within the sweep
    label: str                  # human-readable point label
    cache: str                  # "hit" (full-run) | "warm" (partial) | "miss"
    worker: str                 # "serial" or "pid<N>" of the worker process
    wall_time_s: float
    code_version: str
    timestamp: str              # ISO-8601 UTC, stamped at record time
    request: Dict[str, Any]     # RunRequest.snapshot()
    result: Dict[str, Any]      # result.to_dict()
    stats: Dict[str, float]     # StatsRegistry.dump()
    #: the simulated system's component tree (Component.tree_dict())
    components: Dict[str, Any] = field(default_factory=dict)
    #: invariant audit report (Auditor.summary()); None for unaudited runs
    audit: Optional[Dict[str, Any]] = None
    #: activity-proportional energy report (EnergyReport.to_dict());
    #: None for run kinds without chip activity counters
    energy: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def breakdown_rows(self) -> List[Any]:
        """Per-stage latency rows recovered from this run's flat stats."""
        from ..analysis.breakdown import rows_from_stats

        return rows_from_stats(self.stats)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_record(runs_dir: Path, record: RunRecord) -> Path:
    """Persist one record as ``<spec>-<index>-<run_id>.json``."""
    runs_dir = Path(runs_dir)
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / f"{record.spec}-{record.index:04d}-{record.run_id}.json"
    path.write_text(json.dumps(record.to_dict(), indent=1))
    return path


def load_records(runs_dir: Path) -> List[RunRecord]:
    """Every readable record under ``runs_dir``, ordered by (spec, index).

    Unreadable records are skipped with one warning giving their count.
    """
    runs_dir = Path(runs_dir)
    records: List[RunRecord] = []
    if not runs_dir.is_dir():
        return records
    skipped = 0
    for path in sorted(runs_dir.glob("*.json")):
        try:
            records.append(RunRecord.from_dict(json.loads(path.read_text())))
        except (ValueError, TypeError):
            skipped += 1
    if skipped:
        warnings.warn(f"skipped {skipped} unreadable telemetry record(s) "
                      f"under {runs_dir}", RuntimeWarning, stacklevel=2)
    records.sort(key=lambda r: (r.spec, r.index))
    return records


def summarize_runs(records: List[RunRecord]) -> str:
    """One table row per run: identity, cache outcome, time, throughput."""
    rows = []
    for record in records:
        tput = record.result.get("throughput_ips")
        rows.append([
            record.spec,
            record.label,
            record.cache,
            record.worker,
            f"{record.wall_time_s * 1e3:.0f} ms",
            f"{tput / 1e9:.2f} G/s" if tput else "-",
        ])
    hits = sum(1 for r in records if r.cache == "hit")
    warm = sum(1 for r in records if r.cache == "warm")
    title = (f"Sweep telemetry: {len(records)} runs, "
             f"{hits} cache hits")
    if warm:
        title += f", {warm} warm starts"
    return render_table(
        ["spec", "point", "cache", "worker", "wall", "throughput"],
        rows, title=title)
