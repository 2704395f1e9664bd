"""The parallel experiment runner.

``Runner.run(spec)`` expands an :class:`ExperimentSpec` into sweep
points, satisfies what it can from the content-addressed result cache,
fans the remaining points out across ``workers`` processes (plain
``multiprocessing``; ``workers=1`` is a deterministic serial fallback),
and writes one telemetry record per point under ``<base_dir>/runs/``.
In a warm-started sweep, each warm group (the points sharing one
post-warmup checkpoint) is one unit of work: a single session that one
worker drives through the group's horizons in ascending order.  Traffic
points that share one chip calibration are likewise one unit, so the
calibration run happens once per sweep.

Determinism: every simulation is fully seeded by its request, so a
parallel sweep returns results bit-identical to a serial sweep of the
same spec — workers only change wall-clock time, never outcomes.
Results come back in point order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..chip.run import RunOutcome, execute
from ..chip.session import RunSession
from ..sim.checkpoint import save_checkpoint
# unused here, but bench/trace.py ENTRY_POINTS patches it (KeyError without)
from ..sim.stats import nest_flat_stats  # noqa: F401
from .cache import HIT_KINDS, ResultCache, code_version, request_key
from .request import RunRequest, request_from_snapshot
from .spec import ExperimentSpec, SweepPoint
from .telemetry import RunRecord, utc_now, write_record

__all__ = ["Runner", "SweepResult", "resolve_workers"]

#: Environment knob CI uses to pin worker count (e.g. ``REPRO_WORKERS=2``).
WORKERS_ENV = "REPRO_WORKERS"

def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument wins; else ``$REPRO_WORKERS``; else serial.

    A value from either source that is not a positive integer is
    *reported*, not silently coerced: ``workers=-3``,
    ``REPRO_WORKERS=two`` or ``REPRO_WORKERS=0`` used to mean 1 with no
    hint of the typo.
    """
    source, value = "workers", repr(workers)
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        source, value = WORKERS_ENV, repr(raw)
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
    if workers < 1:
        warnings.warn(f"ignoring invalid {source}={value} (expected a "
                      "positive integer); using 1", RuntimeWarning,
                      stacklevel=2)
        return 1
    return workers


#: One unit of pool work: the points it covers and, for a warm group, the
#: path of the group's post-warmup checkpoint (``None`` for a cold unit).
_Unit = Tuple[List[SweepPoint], Optional[str]]


def _execute_unit(unit: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Worker entry point: simulate one cold unit or one warm chain.

    A unit is a list of request snapshots plus, for a warm group, the
    path of its shared post-warmup checkpoint.  The points of a cold
    unit run one after another in this process, so those that share a
    traffic calibration share its per-process memo.  Returns one
    ``{"outcome", "wall_time_s", "worker"}`` dict per request, in the
    unit's order.
    """
    requests = [request_from_snapshot(snap) for snap in unit["snapshots"]]
    warm = unit["warm"]
    if warm:
        done = _run_chain(requests, Path(warm))
    else:
        done = []
        for request in requests:
            start = time.perf_counter()
            outcome = execute(request).to_dict()
            done.append({"outcome": outcome,
                         "wall_time_s": time.perf_counter() - start})
    worker = f"pid{os.getpid()}"
    return [dict(item, worker=worker) for item in done]


def _run_chain(requests: List[RunRequest],
               warm: Path) -> List[Dict[str, Any]]:
    """Simulate one warm group as one chain of ascending horizons.

    The session starts from the group's post-warmup checkpoint: restored
    from ``warm`` when an earlier sweep left it, else simulated here,
    saved there, and continued.  Each point but the last runs the
    session to its ``run_cycles`` and finishes a copy under its own
    request (:meth:`~repro.chip.session.RunSession.finish_copy`); the
    last point finishes the session itself.  Sound because
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
    """A session for ``request`` at its group's post-warmup checkpoint.

    Restored from ``warm`` when the file exists.  Otherwise the warm-up
    is simulated on a session of the group's warm base, saved to
    ``warm``, and that same session goes on under ``request``: the two
    requests differ only in warm axes, which a session reads at finish.
    """
    if warm.is_file():
        return RunSession.restore(warm, request=request)
    session = RunSession(request.warm_base())
    session.run_to(request.warm_cycles)
    save_checkpoint(session.checkpoint(), warm)
    session.request = request
    return session


@dataclass
class SweepResult:
    """Everything one sweep produced, in point order.

    The counts describe this sweep alone: they are read from its own
    records, so two sweeps on one :class:`Runner` never mix.
    """

    spec_name: str
    outcomes: List[RunOutcome]
    records: List[RunRecord]
    wall_time_s: float
    workers: int
    #: unreadable cache entries this sweep met (and simulated again)
    corrupt: int = 0

    @property
    def hit_counts(self) -> Dict[str, int]:
        """Points per kind (``hit`` / ``warm`` / ``miss``), plus
        ``corrupt`` when this sweep met any unreadable entry."""
        kinds = [record.cache for record in self.records]
        counts = {kind: kinds.count(kind) for kind in HIT_KINDS}
        if self.corrupt:
            counts["corrupt"] = self.corrupt
        return counts

    @property
    def hits(self) -> int:
        """Points replayed verbatim from the result cache."""
        return self.hit_counts["hit"]

    @property
    def warm_hits(self) -> int:
        """Points chained from a shared post-warmup checkpoint (a partial
        hit: only the measurement suffix was simulated)."""
        return self.hit_counts["warm"]

    @property
    def misses(self) -> int:
        """Points simulated from cycle 0."""
        return self.hit_counts["miss"]

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
        corrupt_before = self.cache.corrupt

        pending: List[SweepPoint] = []
        for point, key in zip(points, keys):
            cached = self.cache.get(key) if self.use_cache else None
            if cached is not None:
                outcomes[point.index] = RunOutcome.from_dict(cached)
                records[point.index] = self._record(
                    spec, point, key, cached, cache="hit",
                    worker="cache", wall_time_s=0.0)
            else:
                pending.append(point)

        units = self._units(pending, warm_start)
        for (members, warm), done in zip(units, self._execute(units)):
            kind = "warm" if warm else "miss"
            for point, item in zip(members, done):
                key = keys[point.index]
                outcome_dict = item["outcome"]
                if self.use_cache:
                    self.cache.put(key, outcome_dict)
                outcomes[point.index] = RunOutcome.from_dict(outcome_dict)
                records[point.index] = self._record(
                    spec, point, key, outcome_dict, cache=kind,
                    worker=item["worker"], wall_time_s=item["wall_time_s"])

        for record in records:
            write_record(self.runs_dir, record)
        return SweepResult(
            spec_name=spec.name,
            outcomes=list(outcomes),
            records=list(records),
            wall_time_s=time.perf_counter() - sweep_start,
            workers=self.workers,
            corrupt=self.cache.corrupt - corrupt_before,
        )

    # -- internals ---------------------------------------------------------------

    def _units(self, pending: List[SweepPoint],
               warm_start: bool) -> List[_Unit]:
        """Split pending points into units of work for the pool.

        With ``warm_start``, the points with ``warm_cycles > 0`` are
        grouped by their :meth:`~repro.exp.request.RunRequest.warm_base`,
        and each group is one unit: a chain over one post-warmup
        checkpoint, kept at ``<base_dir>/cache/warm/<key>.ckpt.gz`` for
        later sweeps.  The other traffic points are grouped by their
        :func:`~repro.traffic.cluster.calibration_request`, and each group
        is one cold unit.  Every other point is a unit of its own.  A
        group runs on one worker, so a sweep of one group does not
        spread across the pool.
        """
        units: List[_Unit] = []
        groups: Dict[Tuple[str, str], List[SweepPoint]] = {}
        for point in pending:
            request = point.request
            if warm_start and request.warm_cycles > 0:
                key = request_key(request.warm_base(), self.version)
                group, warm = ("warm", key), str(
                    self.warm_dir / f"{key}.ckpt.gz")
            elif request.kind == "traffic":
                # imported here: a sweep without traffic never loads it
                from ..traffic.cluster import calibration_request

                group, warm = ("calibration",
                               calibration_request(request)[1]), None
            else:
                units.append(([point], None))
                continue
            if group not in groups:
                groups[group] = []
                units.append((groups[group], warm))
            groups[group].append(point)
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
