"""The parallel experiment runner.

``Runner.run(spec)`` expands an :class:`ExperimentSpec` into sweep
points, satisfies what it can from the content-addressed result cache,
fans the remaining points out across ``workers`` processes (plain
``multiprocessing``; ``workers=1`` is a deterministic serial fallback),
and writes one telemetry record per point under ``<base_dir>/runs/``.
In a warm-started sweep, each warm group (the points sharing one
post-warmup checkpoint) is one unit of work: a single session that one
worker drives through the group's horizons in ascending order.

Determinism: every simulation is fully seeded by its request, so a
parallel sweep returns results bit-identical to a serial sweep of the
same spec — workers only change wall-clock time, never outcomes.
Results come back in point order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..chip.run import RunOutcome, execute
from ..chip.session import RunSession
from ..sim.checkpoint import save_checkpoint
# unused here since records stopped storing a nested stats copy, but the
# outside-in benchmark's tracer (bench/trace.py) still patches this name
from ..sim.stats import nest_flat_stats  # noqa: F401
from .cache import ResultCache, code_version, request_key
from .request import RunRequest, request_from_snapshot
from .spec import ExperimentSpec, SweepPoint
from .telemetry import RunRecord, utc_now, write_record

__all__ = ["Runner", "SweepResult", "resolve_workers"]

#: Environment knob CI uses to pin worker count (e.g. ``REPRO_WORKERS=2``).
WORKERS_ENV = "REPRO_WORKERS"

def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument wins; else ``$REPRO_WORKERS``; else serial.

    A value that does not parse as an integer is *reported*, not
    silently coerced: ``REPRO_WORKERS=two`` used to mean 1 with no hint
    of the typo.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        workers = 1
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                import warnings
                warnings.warn(
                    f"ignoring invalid {WORKERS_ENV}={raw!r} (expected an "
                    "integer); using 1", RuntimeWarning, stacklevel=2)
    return max(1, workers)


#: One unit of pool work: the points it covers and, for a warm group, the
#: path of the group's post-warmup checkpoint (``None`` for a cold point).
_Unit = Tuple[List[SweepPoint], Optional[str]]


def _execute_unit(unit: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Worker entry point: simulate one cold point or one warm chain.

    A unit is a list of request snapshots plus, for a warm group, the
    path of its shared post-warmup checkpoint.  Returns one
    ``{"outcome", "wall_time_s", "worker"}`` dict per request, in the
    unit's order.
    """
    requests = [request_from_snapshot(snap) for snap in unit["snapshots"]]
    warm = unit["warm"]
    if warm:
        done = _run_chain(requests, Path(warm))
    else:
        start = time.perf_counter()
        outcome = execute(requests[0]).to_dict()
        done = [{"outcome": outcome,
                 "wall_time_s": time.perf_counter() - start}]
    worker = f"pid{os.getpid()}"
    return [dict(item, worker=worker) for item in done]


def _run_chain(requests: List[RunRequest],
               warm: Path) -> List[Dict[str, Any]]:
    """Simulate one warm group as one chain of ascending horizons.

    The session starts from the group's post-warmup checkpoint: restored
    from ``warm`` when an earlier sweep left it, else simulated here and
    saved there.  Each point but the last runs the session to its
    ``run_cycles`` and finishes an in-memory copy built from its own
    request; the last point finishes the session itself.  Sound because
    every point of a group follows one trajectory: warm axes never change
    the simulated run.

    Points without a horizon (``None`` = run to completion) branch off
    first, at the warm-up checkpoint: a run that drains before a later
    horizon has its clock advanced to that horizon, so completion can
    not be reached from there.  When the run drained inside the warm-up
    itself, the checkpoint's clock already stands at ``warm_cycles``, so
    those points run on a fresh session from cycle 0.

    A point's wall time runs from the end of the point before it, so the
    first one also carries the restore or the warm-up prefix.
    """
    order = sorted(range(len(requests)),
                   key=lambda i: (requests[i].run_cycles is not None,
                                  requests[i].run_cycles or 0.0))
    mark = time.perf_counter()
    session = _warm_session(requests[order[-1]], warm)
    out: List[Dict[str, Any]] = [{}] * len(requests)
    for i in order:
        request = requests[i]
        if request.run_cycles is None and not session.sim.pending():
            outcome = RunSession(request).finish()
        elif i == order[-1]:
            outcome = session.finish()
        else:
            if request.run_cycles is not None:
                session.run_to(request.run_cycles)
            outcome = session.finish_copy(request)
        result = outcome.to_dict()
        now = time.perf_counter()
        out[i] = {"outcome": result, "wall_time_s": now - mark}
        mark = now
    return out


def _warm_session(request: RunRequest, warm: Path) -> RunSession:
    """A session for ``request`` at its group's post-warmup checkpoint."""
    if warm.is_file():
        return RunSession.restore(warm, request=request)
    base = request.warm_base()
    prefix = RunSession(base)
    prefix.run_to(base.warm_cycles)
    ckpt = prefix.checkpoint()
    save_checkpoint(ckpt, warm)
    return RunSession.restore(ckpt, request=request)


@dataclass
class SweepResult:
    """Everything one sweep produced, in point order."""

    spec_name: str
    outcomes: List[RunOutcome]
    records: List[RunRecord]
    hits: int
    misses: int
    wall_time_s: float
    workers: int
    #: points satisfied by restoring a shared post-warmup checkpoint
    #: (a partial hit: only the measurement suffix was simulated)
    warm_hits: int = 0
    #: the cache's per-kind counters ("hit" / "warm" / "miss")
    hit_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def results(self) -> List[Any]:
        """The bare result objects (SmarcoRunResult etc.), in point order."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def n_points(self) -> int:
        return len(self.outcomes)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.n_points if self.n_points else 0.0


class Runner:
    """Run experiment specs through the cache and a worker pool."""

    def __init__(
        self,
        workers: Optional[int] = None,
        base_dir: os.PathLike = "results",
        use_cache: bool = True,
        version: Optional[str] = None,
    ) -> None:
        base = Path(base_dir)
        self.workers = resolve_workers(workers)
        self.runs_dir = base / "runs"
        self.cache = ResultCache(base / "cache")
        self.warm_dir = base / "cache" / "warm"
        self.use_cache = use_cache
        self.version = version if version is not None else code_version()

    def run(self, spec: ExperimentSpec,
            warm_start: bool = False) -> SweepResult:
        points = spec.points()
        sweep_start = time.perf_counter()
        outcomes: List[Optional[RunOutcome]] = [None] * len(points)
        records: List[Optional[RunRecord]] = [None] * len(points)
        keys = [request_key(p.request, self.version) for p in points]

        pending: List[SweepPoint] = []
        for point, key in zip(points, keys):
            cached = self.cache.get(key) if self.use_cache else None
            if cached is not None:
                self.cache.note("hit")
                outcomes[point.index] = RunOutcome.from_dict(cached)
                records[point.index] = self._record(
                    spec, point, key, cached, cache="hit",
                    worker="cache", wall_time_s=0.0)
            else:
                pending.append(point)

        units = self._units(pending, warm_start)
        warm_hits = 0
        for (members, warm), done in zip(units, self._execute(units)):
            kind = "warm" if warm else "miss"
            warm_hits += len(members) if warm else 0
            for point, item in zip(members, done):
                key = keys[point.index]
                self.cache.note(kind)
                outcome_dict = item["outcome"]
                if self.use_cache:
                    self.cache.put(key, outcome_dict)
                outcomes[point.index] = RunOutcome.from_dict(outcome_dict)
                records[point.index] = self._record(
                    spec, point, key, outcome_dict, cache=kind,
                    worker=item["worker"], wall_time_s=item["wall_time_s"])

        for record in records:
            write_record(self.runs_dir, record)
        counts = self.cache.hit_counts()
        return SweepResult(
            spec_name=spec.name,
            outcomes=list(outcomes),
            records=list(records),
            hits=len(points) - len(pending),
            misses=len(pending) - warm_hits,
            wall_time_s=time.perf_counter() - sweep_start,
            workers=self.workers,
            warm_hits=warm_hits,
            hit_counts=counts,
        )

    # -- internals ---------------------------------------------------------------

    def _units(self, pending: List[SweepPoint],
               warm_start: bool) -> List[_Unit]:
        """Split pending points into units of work for the pool.

        Each cold point is a unit of its own.  With ``warm_start``, the
        points with ``warm_cycles > 0`` are grouped by their
        :meth:`~repro.exp.request.RunRequest.warm_base`, and each group is
        one unit: a chain over one post-warmup checkpoint, kept at
        ``<base_dir>/cache/warm/<key>.ckpt.gz`` for later sweeps.
        """
        units: List[_Unit] = []
        groups: Dict[str, List[SweepPoint]] = {}
        for point in pending:
            request = point.request
            if not warm_start or request.warm_cycles <= 0:
                units.append(([point], None))
                continue
            wkey = request_key(request.warm_base(), self.version)
            if wkey not in groups:
                groups[wkey] = []
                units.append((groups[wkey],
                              str(self.warm_dir / f"{wkey}.ckpt.gz")))
            groups[wkey].append(point)
        return units

    def _execute(self, units: List[_Unit]) -> List[List[Dict[str, Any]]]:
        payloads = [{"snapshots": [p.request.snapshot() for p in members],
                     "warm": warm} for members, warm in units]
        if self.workers <= 1 or len(units) <= 1:
            return [[dict(item, worker="serial")
                     for item in _execute_unit(payload)]
                    for payload in payloads]
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        n = min(self.workers, len(units))
        with ctx.Pool(processes=n) as pool:
            return pool.map(_execute_unit, payloads, chunksize=1)

    def _record(self, spec: ExperimentSpec, point: SweepPoint, key: str,
                outcome_dict: Dict[str, Any], cache: str, worker: str,
                wall_time_s: float) -> RunRecord:
        return RunRecord(
            run_id=key[:12],
            spec=spec.name,
            index=point.index,
            label=point.label,
            cache=cache,
            worker=worker,
            wall_time_s=wall_time_s,
            code_version=self.version,
            timestamp=utc_now(),
            request=outcome_dict["request"],
            result=outcome_dict["result"],
            stats=outcome_dict["stats"],
            components=outcome_dict.get("components", {}),
            audit=outcome_dict.get("audit"),
            energy=outcome_dict.get("energy"),
        )
