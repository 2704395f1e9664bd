"""One benchmark trial, run in a fresh process by :mod:`bench.run`.

Usage: ``python -m bench.trial WORKLOAD SEED TRACED WORKDIR``.
``setup_s`` runs from just before ``import repro`` until the workload's
spec is built.  The trial prints one JSON object on its last line of
output.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

STARTED = perf_counter()

import repro
from repro import execute
from repro.chip.smarco import SmarcoRunResult
from repro.exp.cache import ResultCache, code_version, request_key
from repro.exp.runner import Runner
from repro.perf.kernels import result_digest

from .trace import Tracer, traced
from .workloads import SWEEP, build, work_error

#: Full-spec cache replays after the cold run.
REPLAYS = 10

ROOT = Path(__file__).resolve().parents[1]


def _smarco_results(outcomes: List[Any]) -> List[SmarcoRunResult]:
    out = []
    for outcome in outcomes:
        result = outcome.result
        if outcome.request.kind == "compare":
            result = result.smarco
        if isinstance(result, SmarcoRunResult):
            out.append(result)
    return out


def _instructions(outcome: Any) -> int:
    kind = outcome.request.kind
    if kind == "compare":
        return (outcome.result.smarco.instructions
                + outcome.result.xeon.instructions)
    if kind in ("tcg", "smarco"):
        return outcome.result.instructions
    return 0


def _mean(values: List[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return statistics.fmean(finite) if finite else 0.0


def _peak_rss_kib() -> int:
    """Peak RSS of this process or, if larger, of any of its children.

    Not ``RUSAGE_SELF``: its ``ru_maxrss`` keeps the peak of the process
    that forked this one from before the ``exec``.
    """
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _derived(outcomes: List[Any], base: Path) -> Dict[str, float]:
    """Per-layer metrics computed from the simulated results."""
    chips = _smarco_results(outcomes)
    requests = sum(r.mem_requests for r in chips)
    transactions = sum(r.mem_transactions for r in chips)
    ipcs = [o.result.ipc for o in outcomes if o.request.kind == "tcg"]
    ipcs += [r.ipc for r in chips]
    warm = base / "cache" / "warm"
    return {
        "mem.mact.request_reduction": (requests / transactions
                                       if transactions else 0.0),
        "noc.bandwidth_utilization": _mean(
            [r.noc_bandwidth_utilization for r in chips]),
        "chip.mean_request_latency_cycles": _mean(
            [r.mean_request_latency for r in chips]),
        "core.ipc": _mean(ipcs),
        "ckpt.bytes": float(sum(p.stat().st_size for p in warm.glob("*"))
                            if warm.is_dir() else 0),
    }


def run_trial(name: str, seed: int, trace: bool,
              workdir: Path) -> Dict[str, Any]:
    spec = build(name, seed)
    setup_s = perf_counter() - STARTED
    # the traced sweep stays in one process so every span lands here
    workers = 2 if name == SWEEP and not trace else 1
    # an uninstalled tracer only times its two phases
    tracer = Tracer()
    with traced(tracer) if trace else contextlib.nullcontext():
        with tracer.phase("run"):
            start = perf_counter()
            if name == SWEEP:
                cold = Runner(workers, workdir).run(spec, warm_start=True)
                outcomes = cold.outcomes
            else:
                outcomes = [execute(spec.requests[0])]
            run_s = perf_counter() - start
        with tracer.phase("replay"):
            if name != SWEEP:
                ResultCache(workdir / "cache").put(
                    request_key(spec.requests[0]), outcomes[0].to_dict())
            replay_s = []
            replays = []
            for _ in range(REPLAYS):
                start = perf_counter()
                replays.append(Runner(workers, workdir).run(spec,
                                                            warm_start=True))
                replay_s.append(perf_counter() - start)
    rss_kib = _peak_rss_kib()

    digests = [result_digest(o) for o in outcomes]
    errors = [work_error(o.request, o.result) for o in outcomes]
    hits = 0
    for sweep in replays:
        for i, (record, outcome) in enumerate(zip(sweep.records,
                                                  sweep.outcomes)):
            if record.cache == "hit":
                hits += 1
            else:
                errors[i] = errors[i] or f"replay was a cache {record.cache}"
            if result_digest(outcome) != digests[i]:
                errors[i] = errors[i] or "replay outcome differs from the run"
    derived = _derived(outcomes, workdir)
    derived["exp.replay_hit_rate"] = hits / (len(outcomes) * REPLAYS)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "replay_s": statistics.median(replay_s),
        "peak_rss_mb": rss_kib / 1024.0,
        "instructions": sum(_instructions(o) for o in outcomes),
        "traffic_requests": sum(o.result.requests_completed for o in outcomes
                                if o.request.kind == "traffic"),
        "digests": digests,
        "errors": errors,
        "derived": derived,
        "code_version": code_version(),
        "trace": tracer.summary() if trace else None,
    }


def main(argv: List[str]) -> int:
    name, seed, trace, workdir = argv
    src = ROOT / "src"
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result = run_trial(name, int(seed), trace == "1", Path(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
