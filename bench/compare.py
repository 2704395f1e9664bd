"""Compare two benchmark results files, workload by workload.

Usage::

    python3 -m bench.compare BASE.json NEW.json
    python3 -m bench.compare --merge OUT.json A.json B.json ...

For every end-to-end metric each row prints both sides' median and
quartiles over all trials in the file (a file may hold several runs).
A median worse than the base's by more than the metric's bound is a
regression; a side whose quartile spread exceeds the bound makes the row
``unresolved`` instead.  Per-layer metrics are printed and never gate.
The exit code is 1 on any regression or any rise in the error rate.

``--merge`` writes one file holding every run of its inputs (this is how
the committed baseline is made from two full runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .run import ROOT, E2E_VALUES, quartiles


def load_runs(path: Path) -> List[Dict[str, Any]]:
    return json.loads(path.read_text())["runs"]


def pooled(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per workload: trials, failures and per-layer values of all runs."""
    out: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        for name, wl in run["workloads"].items():
            entry = out.setdefault(name, {"trials": [], "attempted": 0,
                                          "failed": 0, "per_layer": []})
            entry["trials"] += [t for t, traced in zip(wl["trials"],
                                                      wl["traced"])
                                if t is not None and not traced]
            entry["attempted"] += wl["attempted"]
            entry["failed"] += wl["failed"]
            if wl["per_layer"]:
                entry["per_layer"].append(wl["per_layer"])
    return out


def verdict(base: Dict[str, float], new: Dict[str, float], better: str,
            bound: float) -> str:
    """``ok``, ``REGRESSION`` or ``unresolved`` for one metric."""
    for side in (base, new):
        if side["median"] and (side["q3"] - side["q1"]) / side["median"] > bound:
            return "unresolved"
    change = (new["median"] - base["median"]) / base["median"]
    worse = change > bound if better == "lower" else change < -bound
    return "REGRESSION" if worse else "ok"


def _q(q: Optional[Dict[str, float]]) -> str:
    if q is None:
        return f"{'-':>32}"
    return f"{q['median']:>11.5g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def compare(base_runs: List[Dict[str, Any]],
            new_runs: List[Dict[str, Any]]) -> int:
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = pooled(base_runs), pooled(new_runs)
    bad = 0
    for name in [n for n in base if n in new]:
        b, n = base[name], new[name]
        b_rate = b["failed"] / b["attempted"] if b["attempted"] else 0.0
        n_rate = n["failed"] / n["attempted"] if n["attempted"] else 0.0
        flag = "REGRESSION" if n_rate > b_rate else "ok"
        bad += flag != "ok"
        print(f"== {name}  (trials: base {len(b['trials'])}, "
              f"new {len(n['trials'])})")
        print(f"  {'error_rate':<14} {b_rate:>11.4g} {'':>20} "
              f"{n_rate:>11.4g} {'':>20}  {flag}")
        for metric in definitions["end_to_end"]:
            value = E2E_VALUES[metric["name"]]
            qs = [quartiles([value(t) for t in side["trials"]])
                  if side["trials"] else None for side in (b, n)]
            flag = (verdict(qs[0], qs[1], metric["better"], metric["bound"])
                    if None not in qs else "unresolved")
            bad += flag == "REGRESSION"
            print(f"  {metric['name']:<14} {_q(qs[0])} {_q(qs[1])}  {flag}"
                  f"  ({metric['unit']}, {metric['better']} is better, "
                  f"bound {metric['bound']:.0%})")
        for metric in definitions["per_layer"]:
            sides = [[p[metric["name"]] for p in side["per_layer"]
                      if metric["name"] in p] for side in (b, n)]
            if not any(sides):
                continue
            cells = [f"{statistics.median(s):>11.5g}" if s else f"{'-':>11}"
                     for s in sides]
            print(f"    {metric['name']:<34} {cells[0]} {cells[1]}"
                  f"  {metric['unit']}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("files", type=Path, nargs="+")
    parser.add_argument("--merge", type=Path, metavar="OUT",
                        help="write the runs of all FILES into OUT")
    args = parser.parse_args(argv)
    if args.merge:
        runs = [run for path in args.files for run in load_runs(path)]
        args.merge.write_text(json.dumps({"runs": runs}, indent=1))
        return 0
    if len(args.files) != 2:
        parser.error("give a base and a new results file")
    return compare(load_runs(args.files[0]), load_runs(args.files[1]))


if __name__ == "__main__":
    sys.exit(main())
