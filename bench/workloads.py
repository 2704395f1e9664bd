"""The four benchmark workloads, built from a seed through the public API.

``BENCHMARK.json`` names them and records why each was chosen.  Each
workload is an :class:`~repro.exp.ExperimentSpec`: the three
single-run workloads are one-point specs whose request goes straight to
``execute``; ``sweep-mixed`` runs through the sweep ``Runner``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro import RunRequest, smarco_scaled
from repro.exp import ExperimentSpec

__all__ = ["SWEEP", "build", "points", "work_error"]

SWEEP = "sweep-mixed"


def _sweep_requests(seed: int) -> List[RunRequest]:
    requests = [
        RunRequest(kind="smarco", workload="kmp", seed=s,
                   smarco_config=smarco_scaled(4, 4), warm_cycles=2000,
                   run_cycles=cycles, warm_axes=("run_cycles",))
        for s in (seed, seed + 1)
        for cycles in (3000, 4000, 5000, 6000, 8000, 10000)
    ]
    requests += [
        RunRequest(kind="traffic", workload="kmp", seed=seed,
                   smarco_config=smarco_scaled(2, 4), traffic_chips=4,
                   traffic_requests=5000, traffic_load=load,
                   traffic_arrival=arrival)
        for load in (0.5, 0.7, 0.9)
        for arrival in ("poisson", "bursty")
    ]
    requests += [
        RunRequest(kind="sched", workload="kmp", seed=seed,
                   sched_policy=policy, sched_scenario=scenario)
        for policy in ("laxity", "fifo", "deadline")
        for scenario in ("deadline-storm", "skewed")
    ]
    requests += [
        RunRequest(kind="compare", workload=workload, seed=seed,
                   smarco_config=smarco_scaled(2, 4), threads_per_core=4,
                   instrs_per_thread=100, xeon_threads=8,
                   xeon_instrs_per_thread=5000)
        for workload in ("kmp", "terasort")
    ]
    return requests


def build(name: str, seed: int) -> ExperimentSpec:
    """The workload's spec for ``seed`` (same seed, same inputs)."""
    if name == "chip256-wordcount":
        request = RunRequest(kind="smarco", workload="wordcount", seed=seed,
                             smarco_config=smarco_scaled(16, 16),
                             threads_per_core=4, instrs_per_thread=150)
    elif name == "chip64-ocean":
        request = RunRequest(kind="smarco", workload="splash2.ocean",
                             seed=seed, smarco_config=smarco_scaled(8, 8),
                             threads_per_core=4, instrs_per_thread=150)
    elif name == "tcg-kmp":
        request = RunRequest(kind="tcg", workload="kmp", seed=seed,
                             instrs_per_thread=80_000)
    elif name == SWEEP:
        return ExperimentSpec.explicit(name, _sweep_requests(seed))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ExperimentSpec.explicit(name, [request])


def points(name: str) -> int:
    """Operations per trial: sweep points, or 1 for a single run."""
    return len(build(name, 0).requests)


def _full_chip_instructions(request: RunRequest) -> int:
    cfg = request.smarco_config
    return cfg.total_cores * request.threads_per_core * request.instrs_per_thread


def _instruction_error(got: int, want: int, bounded: bool) -> Optional[str]:
    if (0 < got <= want) if bounded else got == want:
        return None
    return f"retired {got} instructions, expected {want}"


def work_error(request: RunRequest, result: Any) -> Optional[str]:
    """Why a run did not do all of its work, or None when it did.

    A run bounded by ``run_cycles`` must retire at least one and at most
    all of its instructions.
    """
    kind = request.kind
    if kind == "tcg":
        return _instruction_error(
            result.instructions,
            request.threads_per_core * request.instrs_per_thread, False)
    if kind == "smarco":
        return _instruction_error(result.instructions,
                                  _full_chip_instructions(request),
                                  request.run_cycles is not None)
    if kind == "compare":
        return (_instruction_error(result.smarco.instructions,
                                   _full_chip_instructions(request), False)
                or _instruction_error(
                    result.xeon.instructions,
                    request.xeon_threads * request.xeon_instrs_per_thread,
                    False))
    if kind == "traffic":
        if result.requests_completed != request.traffic_requests:
            return (f"completed {result.requests_completed} of "
                    f"{request.traffic_requests} requests")
        return None
    if kind == "sched":
        if result.tasks_finished != result.tasks_total:
            return (f"finished {result.tasks_finished} of "
                    f"{result.tasks_total} tasks")
        return None
    return f"no work check for run kind {kind!r}"
