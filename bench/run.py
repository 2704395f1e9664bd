"""Run the benchmark: fresh-process trials, correctness checks, metrics.

Usage (from the repository root)::

    python3 -m bench.run --seed 0 --out bench/results
    python3 -m bench.run --workload chip256-wordcount --seed 3 \
        --seconds 20 --trace 0

Without ``--workload`` every workload runs five untraced trials and then
one traced trial.  With ``--workload`` one workload runs for
``--seconds`` (or five trials); ``--trace 1`` then runs one untraced
reference trial followed by traced trials, and reports the per-layer
metrics instead of the end-to-end ones.  Every trial is a fresh child
process (:mod:`bench.trial`).  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Metric names, units, directions and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from .trace import LAYERS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

#: No trial of a workload starts once this many seconds of that workload's
#: trials have passed, so a single-workload run ends within three minutes.
#: A run of all workloads has this limit once per workload.
HARD_LIMIT_S = 150.0
#: A trial that outlives this is killed and counted as failed.
TRIAL_TIMEOUT_S = 120.0
#: Untraced trials per workload when no ``--seconds`` is given.
TRIALS = 5

E2E_VALUES = {
    "setup_s": lambda t: t["setup_s"],
    "run_s": lambda t: t["run_s"],
    "sim_ips": lambda t: t["instructions"] / t["run_s"],
    "replay_s": lambda t: t["replay_s"],
    "peak_rss_mb": lambda t: t["peak_rss_mb"],
}


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile, and the sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# -- trials --------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # fixed string hashing: identical dict layouts from trial to trial
    env["PYTHONHASHSEED"] = "0"
    return env


def run_trial(name: str, seed: int, trace: bool,
              workdir: Path) -> Optional[Dict[str, Any]]:
    """One trial in a fresh process; None when it failed to report."""
    workdir.mkdir(parents=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.trial", name, str(seed),
         "1" if trace else "0", str(workdir)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the session also holds the trial's sweep workers
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntrial killed after {TRIAL_TIMEOUT_S:.0f} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    print(f"{name}: trial failed (exit {proc.returncode})\n{err[-2000:]}",
          file=sys.stderr)
    return None


class Trials:
    """Runs one workload's trials one after another, within the time limit."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.started = perf_counter()
        self._count = 0
        self._longest = 0.0

    def run(self, name: str, seed: int, trace: bool,
            seconds: Optional[float] = None,
            count: Optional[int] = None) -> List[Optional[Dict[str, Any]]]:
        """At least one trial; then more until ``count`` trials, or until
        ``seconds`` have passed since the first trial of the run."""
        trials: List[Optional[Dict[str, Any]]] = []
        while True:
            begun = perf_counter()
            self._count += 1
            trials.append(run_trial(name, seed, trace,
                                    self.workdir / f"trial{self._count}"))
            self._longest = max(self._longest, perf_counter() - begun)
            if count is not None and len(trials) >= count:
                break
            if (seconds is not None
                    and perf_counter() - self.started >= seconds):
                break
            if (perf_counter() + self._longest - self.started
                    > HARD_LIMIT_S):
                break
        return trials


# -- summaries -------------------------------------------------------------------


def _check(name: str, trials: List[Optional[Dict[str, Any]]],
           reference: Optional[List[str]], ops: int) -> Dict[str, Any]:
    """Count failed operations; every trial must match the reference."""
    if reference is None:
        reference = next((t["digests"] for t in trials if t), None)
    failed = 0
    for trial in trials:
        if trial is None or reference is None:
            failed += ops
            continue
        for i, (digest, error) in enumerate(zip(trial["digests"],
                                                trial["errors"])):
            if error or digest != reference[i]:
                failed += 1
                why = error or f"digest {digest}, expected {reference[i]}"
                print(f"{name}: op {i}: {why}", file=sys.stderr)
    return {"attempted": ops * len(trials), "failed": failed}


def _end_to_end(trials: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    return {metric: quartiles([value(t) for t in trials])
            for metric, value in E2E_VALUES.items()}


def _per_layer(traced: List[Dict[str, Any]],
               reference: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced trials."""
    run_s = statistics.median(t["run_s"] for t in reference)

    def med(fn: Any) -> float:
        return statistics.median(fn(t) for t in traced)

    def layer(t: Dict[str, Any], name: str) -> Dict[str, float]:
        return t["trace"]["layers"][name]

    def events(t: Dict[str, Any]) -> int:
        return sum(v["events"] for v in t["trace"]["layers"].values())

    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.events"] = med(lambda t: layer(t, name)["events"])
        out[f"{name}.calls"] = med(lambda t: layer(t, name)["calls"])
        out[f"{name}.self_s"] = med(lambda t: layer(t, name)["self_s"])
        out[f"{name}.share"] = med(
            lambda t: layer(t, name)["self_s"] / t["trace"]["wall_s"])
    out["sim.ns_per_event"] = med(lambda t: run_s / events(t) * 1e9
                                  if events(t) else 0.0)
    out["sim.events_per_instr"] = med(lambda t: events(t) / t["instructions"]
                                      if t["instructions"] else 0.0)
    out.update(reference[0]["derived"])
    traffic_s = out["traffic.self_s"]
    out["traffic.requests_per_s"] = (
        reference[0]["traffic_requests"] / traffic_s if traffic_s else 0.0)
    out["trace.overhead"] = med(lambda t: t["run_s"]) / run_s - 1.0
    return out


def summarize(name: str, seed: int, ops: int, golden: Dict[str, Any],
              untraced: List[Optional[Dict[str, Any]]],
              traced: List[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """One workload's checks and metrics from its trials."""
    reference = golden["digests"].get(name) if seed == golden["seed"] else None
    summary: Dict[str, Any] = _check(name, untraced + traced, reference, ops)
    done = [t for t in untraced if t]
    done_traced = [t for t in traced if t]
    summary["end_to_end"] = _end_to_end(done) if done else {}
    summary["per_layer"] = (_per_layer(done_traced, done)
                            if done and done_traced else {})
    summary["trials"] = [dict(t, trace=None) if t else None
                         for t in untraced + traced]
    summary["traced"] = [t is not None and t["trace"] is not None
                         for t in untraced + traced]
    summary["code_version"] = done[0]["code_version"] if done else None
    summary["trace"] = done_traced[0]["trace"] if done_traced else None
    return summary


# -- reporting -------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_summary(name: str, summary: Dict[str, Any],
                  definitions: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in definitions["end_to_end"]}
    rate = summary["failed"] / summary["attempted"]
    print(f"== {name}: {summary['attempted']} ops, {summary['failed']} failed"
          f" (error_rate {rate:.4g})")
    for metric, q in summary["end_to_end"].items():
        print(f"  {metric:<14} {_fmt(q['median']):>12} {units[metric]:<8}"
              f" q1 {_fmt(q['q1'])}  q3 {_fmt(q['q3'])}  n={q['n']}")
    for metric in definitions["per_layer"]:
        value = summary["per_layer"].get(metric["name"])
        if value is not None:
            print(f"  {metric['name']:<36} {_fmt(value):>12} {metric['unit']}")


def provenance() -> Dict[str, Any]:
    """The host a run measured (its ``wall_s`` is added when it ends)."""
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _result_line(summaries: List[Dict[str, Any]], key: str,
                 definitions: Dict[str, Any]) -> Dict[str, Any]:
    """The final JSON line for one workload."""
    summary = summaries[0]
    metrics: Dict[str, Any] = {}
    for metric in definitions[key]:
        found = summary[key].get(metric["name"])
        if found is None:
            raise SystemExit(f"no value for metric {metric['name']!r}")
        value = found["median"] if key == "end_to_end" else found
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": summary["failed"] == 0,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long (needs --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="report per-layer metrics (needs --workload)")
    parser.add_argument("--out", type=Path,
                        help="write the results and trace files here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from .workloads import points

    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH / "golden.json").read_text())
    why = {w["name"]: w["why"] for w in definitions["workloads"]}
    names = [args.workload] if args.workload else list(why)
    if any(name not in why for name in names):
        parser.error(f"unknown workload; known: {', '.join(why)}")
    if not args.workload and (args.seconds is not None or args.trace):
        parser.error("--seconds and --trace need --workload")
    budget = ({"seconds": args.seconds} if args.seconds is not None
              else {"count": TRIALS})
    prov = provenance()
    started = perf_counter()
    # compile once up front: no trial pays for writing bytecode
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1)

    workdir = BENCH / ".work" / str(os.getpid())
    summaries = []
    try:
        for name in names:
            trials = Trials(workdir / name)
            if not args.workload:
                untraced = trials.run(name, args.seed, False, count=TRIALS)
                traced = trials.run(name, args.seed, True, count=1)
            elif not args.trace:
                untraced = trials.run(name, args.seed, False, **budget)
                traced = []
            else:
                # the untraced reference gives the tracing overhead
                untraced = trials.run(name, args.seed, False, count=1)
                traced = trials.run(name, args.seed, True, **budget)
            summary = summarize(name, args.seed, points(name), golden,
                                untraced, traced)
            summary["why"] = why[name]
            summaries.append(summary)
            print_summary(name, summary, definitions)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    prov["wall_s"] = perf_counter() - started
    print(f"all trials took {prov['wall_s']:.1f} s")
    if args.out:
        write_results(args.out, args.seed, prov, names, summaries)
    if not any(s["end_to_end"] for s in summaries):
        print("no trial completed", file=sys.stderr)
        return 1
    if args.workload:
        key = "per_layer" if args.trace else "end_to_end"
        print(json.dumps(_result_line(summaries, key, definitions)))
    return 0


def write_results(out: Path, seed: int, prov: Dict[str, Any],
                  names: List[str], summaries: List[Dict[str, Any]]) -> None:
    """One results file (a single run) plus a trace file per workload."""
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    workloads = {}
    for name, summary in zip(names, summaries):
        trace = summary.pop("trace")
        workloads[name] = summary
        if trace is not None:
            path = out / f"trace_{name}.json"
            path.write_text(json.dumps(dict(trace, workload=name, seed=seed,
                                            provenance=prov), indent=1))
    prov = dict(prov, code_version=next(
        (s["code_version"] for s in summaries if s["code_version"]), None))
    path = out / f"bench_{stamp}_seed{seed}.json"
    path.write_text(json.dumps(
        {"runs": [{"provenance": prov, "seed": seed,
                   "workloads": workloads}]}, indent=1))
    print(f"results written to {path}")


if __name__ == "__main__":
    sys.exit(main())
