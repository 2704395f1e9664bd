"""Command-line interface: run SmarCo experiments from a shell.

Installed as ``repro-smarco`` (see pyproject) or runnable via
``python -m repro.cli``::

    repro-smarco list-workloads
    repro-smarco run kmp --sub-rings 4 --instrs 300
    repro-smarco xeon kmp --threads 48
    repro-smarco compare wordcount --energy
    repro-smarco run kmp --energy --dvfs eco --power-gate
    repro-smarco sweep kmp --kind compare --dvfs-points eco nominal turbo
    repro-smarco traffic kmp --chips 4 --load 0.8 --arrival bursty
    repro-smarco sweep kmp wordcount --seeds 0 1 2 --workers 2
    repro-smarco sweep kmp --kind sched --sched-policies laxity fifo
    repro-smarco sweep kmp --kind traffic --loads 0.5 0.7 0.9
    repro-smarco sweep kmp --warm-start --warm-cycles 2000 \
        --run-cycles 4000 8000 16000
    repro-smarco checkpoint save chip.ckpt.gz --cycles 5000
    repro-smarco checkpoint info chip.ckpt.gz
    repro-smarco checkpoint restore chip.ckpt.gz
    repro-smarco policies list
    repro-smarco report
    repro-smarco area-power
    repro-smarco cdn

Every run-shaped command builds a :class:`repro.exp.RunRequest` and goes
through the unified ``repro.chip.run.execute`` entry point; ``sweep``
fans a request grid across worker processes (``--workers``, defaulting
to the ``REPRO_WORKERS`` environment variable) with result caching.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import render_result, render_table
from .chip.run import execute
from .config import AuditConfig, smarco_scaled
from .exp import ExperimentSpec, RunRequest
from .power import NODES, AreaModel, PowerModel, dvfs_summaries, list_dvfs
from .workloads import CdnModel, all_profiles

__all__ = ["main", "build_parser"]


class _DumpDocsAction(argparse.Action):
    """``--dump-docs``: print the markdown CLI reference and exit.

    Behaves like ``--help`` (no subcommand required) so the docs tree can
    be regenerated with ``python -m repro.cli --dump-docs > docs/cli.md``.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0,
                         default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from .docgen import render_cli_docs

        print(render_cli_docs(parser), end="")
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-smarco",
        description="SmarCo (HPCA 2018) many-core simulator",
    )
    parser.add_argument("--dump-docs", action=_DumpDocsAction,
                        help="print a markdown reference for every "
                             "subcommand (generates docs/cli.md) and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="list available workload profiles")

    run_p = sub.add_parser("run", help="run a workload on a SmarCo chip")
    run_p.add_argument("workload")
    run_p.add_argument("--sub-rings", type=int, default=4)
    run_p.add_argument("--cores", type=int, default=16,
                       help="cores per sub-ring")
    run_p.add_argument("--threads-per-core", type=int, default=8)
    run_p.add_argument("--instrs", type=int, default=300,
                       help="instructions per thread")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--policy", default="inpair",
                       choices=("inpair", "blocking", "coarse"))
    run_p.add_argument("--shared-code", action="store_true",
                       help="DMA-prefetch the instruction segment (3.1.2)")
    run_p.add_argument("--trace-rate", type=float, default=0.0,
                       metavar="RATE",
                       help="fraction of requests to hop-trace (0 disables; "
                            "prints the per-stage latency breakdown)")
    run_p.add_argument("--audit", action="store_true",
                       help="enable the runtime invariant audit layer "
                            "(fails loudly on any violation; results are "
                            "identical to an unaudited run)")
    run_p.add_argument("--dvfs", default="nominal", choices=list_dvfs(),
                       help="DVFS operating point for energy accounting "
                            "(observation-only: simulated cycles are "
                            "unchanged)")
    run_p.add_argument("--node", type=int, default=None,
                       choices=sorted(NODES), metavar="NM",
                       help="technology node for energy accounting "
                            "(default: the config's, 32 nm)")
    run_p.add_argument("--power-gate", action="store_true",
                       help="shed the static share of sub-rings whose "
                            "cores retired nothing")
    run_p.add_argument("--energy", action="store_true",
                       help="print the activity-proportional energy "
                            "report after the run")

    xeon_p = sub.add_parser("xeon", help="run a workload on the Xeon baseline")
    xeon_p.add_argument("workload")
    xeon_p.add_argument("--threads", type=int, default=48)
    xeon_p.add_argument("--instrs", type=int, default=30_000)
    xeon_p.add_argument("--seed", type=int, default=0)

    cmp_p = sub.add_parser("compare",
                           help="SmarCo vs Xeon (one Fig 22 data point)")
    cmp_p.add_argument("workload")
    cmp_p.add_argument("--sub-rings", type=int, default=4)
    cmp_p.add_argument("--instrs", type=int, default=250)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--dvfs", default="nominal", choices=list_dvfs(),
                       help="DVFS operating point for the energy columns")
    cmp_p.add_argument("--node", type=int, default=None,
                       choices=sorted(NODES), metavar="NM",
                       help="technology node (40 reproduces Fig 26's "
                            "prototype comparison)")
    cmp_p.add_argument("--energy", action="store_true",
                       help="print the activity-proportional energy "
                            "report after the comparison")

    traffic_p = sub.add_parser(
        "traffic",
        help="drive open-loop traffic through a cluster of chips and "
             "report tail latency against SLO targets")
    traffic_p.add_argument("workload", nargs="?", default="kmp")
    traffic_p.add_argument("--list", action="store_true",
                           help="list registered arrival processes and "
                                "balancers, then exit")
    traffic_p.add_argument("--arrival", default="poisson",
                           help="arrival process name (see --list)")
    traffic_p.add_argument("--balancer", default="least-outstanding",
                           help="front-end balancer name (see --list)")
    traffic_p.add_argument("--chips", type=int, default=2,
                           help="chips behind the front end")
    traffic_p.add_argument("--load", type=float, default=0.7,
                           help="offered load rho as a fraction of "
                                "calibrated cluster capacity")
    traffic_p.add_argument("--requests", type=int, default=2000,
                           help="requests the arrival process generates")
    traffic_p.add_argument("--instrs", type=int, default=400,
                           help="instructions of service demand per request")
    traffic_p.add_argument("--slo", type=float, nargs="+",
                           default=[2.0, 5.0, 10.0], metavar="MULT",
                           help="SLO targets as multiples of the "
                                "calibrated solo service time")
    traffic_p.add_argument("--seed", type=int, default=0)
    traffic_p.add_argument("--sub-rings", type=int, default=2,
                           help="sub-rings of the calibration chip")
    traffic_p.add_argument("--cores", type=int, default=4,
                           help="cores per sub-ring of the calibration chip")

    sweep_p = sub.add_parser(
        "sweep",
        help="run a workload x seed x policy grid through the parallel "
             "experiment runner (cached, multi-process)")
    sweep_p.add_argument("workloads", nargs="+")
    sweep_p.add_argument("--kind", default="smarco",
                         choices=("smarco", "xeon", "compare", "tcg",
                                  "sched", "traffic"))
    sweep_p.add_argument("--name", default="cli-sweep",
                         help="spec name (labels the telemetry records)")
    sweep_p.add_argument("--seeds", type=int, nargs="+", default=[0])
    sweep_p.add_argument("--policies", nargs="+", default=None,
                         choices=("inpair", "blocking", "coarse"),
                         help="add a core-policy axis to the grid")
    sweep_p.add_argument("--sub-rings", type=int, default=2)
    sweep_p.add_argument("--cores", type=int, default=8,
                         help="cores per sub-ring")
    sweep_p.add_argument("--threads-per-core", type=int, default=8)
    sweep_p.add_argument("--instrs", type=int, default=200,
                         help="instructions per thread (SmarCo side)")
    sweep_p.add_argument("--xeon-threads", type=int, default=16)
    sweep_p.add_argument("--xeon-instrs", type=int, default=10_000)
    sweep_p.add_argument("--sched-policies", nargs="+", default=None,
                         metavar="POLICY",
                         help="scheduler policies to race (--kind sched; "
                              "default: every registered policy)")
    sweep_p.add_argument("--scenarios", nargs="+", default=None,
                         metavar="SCENARIO",
                         help="adversarial scenarios to race through "
                              "(--kind sched; default: every registered "
                              "scenario)")
    sweep_p.add_argument("--tasks", type=int, default=128,
                         help="tasks per sched run (--kind sched)")
    sweep_p.add_argument("--contexts", type=int, default=64,
                         help="thread contexts per sched run (--kind sched)")
    sweep_p.add_argument("--arrivals", nargs="+", default=None,
                         metavar="ARRIVAL",
                         help="arrival processes to sweep (--kind traffic; "
                              "default: every registered process)")
    sweep_p.add_argument("--balancers", nargs="+", default=None,
                         metavar="BALANCER",
                         help="front-end balancers to sweep (--kind "
                              "traffic; default: every registered balancer)")
    sweep_p.add_argument("--loads", type=float, nargs="+",
                         default=[0.5, 0.7, 0.9], metavar="RHO",
                         help="offered-load axis (--kind traffic)")
    sweep_p.add_argument("--chips", type=int, default=2,
                         help="chips behind the front end (--kind traffic)")
    sweep_p.add_argument("--requests", type=int, default=2000,
                         help="requests per traffic run (--kind traffic)")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: $REPRO_WORKERS, "
                              "else serial)")
    sweep_p.add_argument("--out", default="results",
                         help="base directory for runs/ and cache/")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="always re-simulate, never read/write cache")
    sweep_p.add_argument("--detail", action="store_true",
                         help="print the full result of every point")
    sweep_p.add_argument("--run-cycles", type=float, nargs="+", default=None,
                         metavar="CYCLES",
                         help="add a measurement-horizon axis: simulate "
                              "each point to at most CYCLES cycles")
    sweep_p.add_argument("--warm-start", action="store_true",
                         help="share one post-warmup checkpoint across the "
                              "--run-cycles horizons of each point "
                              "(requires --warm-cycles and --run-cycles)")
    sweep_p.add_argument("--warm-cycles", type=float, default=0.0,
                         metavar="CYCLES",
                         help="cycle at which --warm-start snapshots the "
                              "shared warm-up prefix")
    sweep_p.add_argument("--dvfs-points", nargs="+", default=None,
                         choices=list_dvfs(), metavar="POINT",
                         help="add a DVFS operating-point axis to the "
                              "grid (kinds smarco/compare; observation-"
                              "only but a cache-key axis)")
    sweep_p.add_argument("--nodes", type=int, nargs="+", default=None,
                         choices=sorted(NODES), metavar="NM",
                         help="add a technology-node axis to the grid "
                              "(kinds smarco/compare)")
    sweep_p.add_argument("--power-gate", action="store_true",
                         help="bill idle sub-rings as power-gated in "
                              "every point's energy report")

    ckpt_p = sub.add_parser(
        "checkpoint",
        help="save, inspect and resume versioned simulation checkpoints")
    ckpt_sub = ckpt_p.add_subparsers(dest="checkpoint_command", required=True)
    ckpt_save = ckpt_sub.add_parser(
        "save", help="build a run, simulate to a cycle, freeze it to disk")
    ckpt_save.add_argument("path",
                           help="output file (gzipped when it ends in .gz)")
    ckpt_save.add_argument("--cycles", type=float, required=True,
                           help="absolute cycle at which to snapshot")
    ckpt_save.add_argument("--kind", default="smarco",
                           choices=("smarco", "xeon", "sched"))
    ckpt_save.add_argument("--workload", default="kmp")
    ckpt_save.add_argument("--seed", type=int, default=0)
    ckpt_save.add_argument("--sub-rings", type=int, default=2)
    ckpt_save.add_argument("--cores", type=int, default=8,
                           help="cores per sub-ring (kind smarco)")
    ckpt_save.add_argument("--threads-per-core", type=int, default=8)
    ckpt_save.add_argument("--instrs", type=int, default=200,
                           help="instructions per thread (kind smarco)")
    ckpt_save.add_argument("--xeon-threads", type=int, default=16)
    ckpt_save.add_argument("--xeon-instrs", type=int, default=10_000)
    ckpt_save.add_argument("--sched-policy", default="laxity")
    ckpt_save.add_argument("--scenario", default="uniform")
    ckpt_save.add_argument("--tasks", type=int, default=128,
                           help="tasks (kind sched)")
    ckpt_save.add_argument("--contexts", type=int, default=64,
                           help="thread contexts (kind sched)")
    ckpt_info = ckpt_sub.add_parser(
        "info", help="print a checkpoint's header without rebuilding it")
    ckpt_info.add_argument("path")
    ckpt_restore = ckpt_sub.add_parser(
        "restore", help="rebuild a checkpointed run and finish it")
    ckpt_restore.add_argument("path")
    ckpt_restore.add_argument("--run-cycles", type=float, default=None,
                              help="finish at this horizon instead of "
                                   "running to completion")
    ckpt_restore.add_argument("--allow-code-skew", action="store_true",
                              help="restore even if the simulator source "
                                   "changed since the save (results may "
                                   "not be reproducible)")

    soak_p = sub.add_parser(
        "soak",
        help="run N seeded-random audited configurations and report any "
             "invariant violations")
    soak_p.add_argument("--runs", type=int, default=10)
    soak_p.add_argument("--seed", type=int, default=0)
    soak_p.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: $REPRO_WORKERS, "
                             "else serial)")
    soak_p.add_argument("--out", default="results/soak",
                        help="base directory for telemetry records")
    soak_p.add_argument("--instrs", type=int, default=120,
                        help="instructions per thread in each random run")

    perf_p = sub.add_parser(
        "perf",
        help="time the simulator microbenchmark suite (or --profile one "
             "kernel); writes nothing")
    perf_p.add_argument("--size", default="default",
                        choices=("tiny", "default"),
                        help="suite workload size (tiny = sub-second)")
    perf_p.add_argument("--repeat", type=int, default=3,
                        help="timing repeats per kernel (best-of-N)")
    perf_p.add_argument("--kernels", nargs="+", default=None,
                        metavar="KERNEL",
                        help="run only these kernels (default: all)")
    perf_p.add_argument("--profile", metavar="KERNEL", default=None,
                        help="run one kernel under cProfile and print the "
                             "top functions instead of timing the suite")
    perf_p.add_argument("--top", type=int, default=20,
                        help="rows per cProfile table (with --profile)")

    pol_p = sub.add_parser(
        "policies",
        help="inspect the scheduler policy registry and scenario catalogue")
    pol_sub = pol_p.add_subparsers(dest="policies_command", required=True)
    pol_sub.add_parser("list",
                       help="one line per registered policy and scenario")
    pol_desc = pol_sub.add_parser(
        "describe", help="full registry card of one policy")
    pol_desc.add_argument("name", help="a registered policy name")

    sub.add_parser("area-power", help="print the Table 1 breakdown")
    sub.add_parser("cdn", help="print the Fig 2 CDN sweep")

    rep_p = sub.add_parser(
        "report", help="assemble benchmarks/results/ into one markdown report")
    rep_p.add_argument("--results-dir", default="benchmarks/results")
    rep_p.add_argument("--runs-dir", default=None,
                       help="sweep telemetry directory "
                            "(default: <results-dir>/runs)")
    rep_p.add_argument("--output", default=None,
                       help="write to a file instead of stdout")
    rep_p.add_argument("--breakdown", action="store_true",
                       help="add the per-stage latency breakdown aggregated "
                            "over traced sweep runs")
    rep_p.add_argument("--energy", action="store_true",
                       help="add the activity-proportional energy "
                            "efficiency tables (perf/W, SmarCo-vs-Xeon "
                            "ratio) aggregated over sweep runs")
    return parser


def _cmd_policies(args: argparse.Namespace) -> int:
    from .sched import policy_summaries, scenario_summaries

    if args.policies_command == "list":
        rows = [[card["name"], card["decision_overhead"], card["summary"]]
                for card in policy_summaries()]
        print(render_table(["policy", "overhead", "summary"], rows,
                           title="Registered scheduler policies"))
        print()
        rows = [[s["name"], s["summary"]] for s in scenario_summaries()]
        print(render_table(["scenario", "summary"], rows,
                           title="Adversarial scenarios"))
        return 0
    from .errors import SchedulerError
    from .sched import get_policy

    try:
        card = get_policy(args.name).describe()
    except SchedulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_table(["field", "value"], [
        ["name", card["name"]],
        ["class", card["class"]],
        ["decision overhead", f"{card['decision_overhead']} cycles"],
        ["summary", card["summary"]],
    ], title=f"Policy: {card['name']}"))
    if card["doc"]:
        print()
        print(card["doc"])
    return 0


def _cmd_list_workloads() -> int:
    rows = []
    for name, profile in sorted(all_profiles().items()):
        rows.append([name, profile.mem_ratio,
                     round(profile.granularity.mean(), 1),
                     "yes" if profile.realtime else "no"])
    print(render_table(["workload", "mem ratio", "mean access B", "realtime"],
                       rows, title="Registered workload profiles"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    config = smarco_scaled(args.sub_rings, args.cores)
    if args.trace_rate:
        config = dataclasses.replace(config, trace_sample_rate=args.trace_rate)
    request = RunRequest(
        kind="smarco", workload=args.workload, seed=args.seed,
        smarco_config=config,
        threads_per_core=args.threads_per_core,
        instrs_per_thread=args.instrs,
        core_policy=args.policy, shared_code=args.shared_code,
        dvfs=args.dvfs, technology_nm=args.node,
        power_gate_idle=args.power_gate,
    )
    audit_cfg = AuditConfig(enabled=True) if args.audit else None
    outcome = execute(request, audit=audit_cfg)
    result = outcome.result
    print(render_table(["metric", "value"], [
        ["cores", f"{result.cores_done}/{result.total_cores} done"],
        ["cycles", f"{result.cycles:,.0f}"],
        ["instructions", f"{result.instructions:,}"],
        ["chip IPC", f"{result.ipc:.2f}"],
        ["throughput", f"{result.throughput_ips / 1e9:.2f} Ginstr/s"],
        ["memory requests", f"{result.mem_requests:,}"],
        ["MACT batching", f"{result.mact_request_reduction:.2f}x"],
        ["mean request latency", f"{result.mean_request_latency:.0f} cycles"],
        ["NoC bandwidth util", f"{result.noc_bandwidth_utilization:.1%}"],
    ], title=f"SmarCo run: {args.workload}"))
    if args.trace_rate:
        from .analysis import render_breakdown, rows_from_stats

        print()
        print(render_breakdown(rows_from_stats(outcome.stats)))
    if args.energy and outcome.energy is not None:
        from .analysis import render_energy_report

        print()
        print(render_energy_report(outcome.energy))
    if outcome.audit is not None:
        print(f"\naudit: clean, {outcome.audit['total_checks']:,} "
              f"invariant checks performed")
    return 0


def _cmd_xeon(args: argparse.Namespace) -> int:
    result = execute(RunRequest(
        kind="xeon", workload=args.workload, seed=args.seed,
        xeon_threads=args.threads, xeon_instrs_per_thread=args.instrs,
    )).result
    print(render_table(["metric", "value"], [
        ["threads", result.threads],
        ["cycles", f"{result.cycles:,.0f}"],
        ["throughput", f"{result.throughput_ips / 1e9:.2f} Ginstr/s"],
        ["idle ratio", f"{result.idle_ratio:.1%}"],
        ["starvation", f"{result.starvation_ratio:.1%}"],
        ["L1 miss", f"{result.miss_ratios['L1']:.1%}"],
    ], title=f"Xeon run: {args.workload}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    outcome = execute(RunRequest(
        kind="compare", workload=args.workload, seed=args.seed,
        smarco_config=smarco_scaled(args.sub_rings),
        instrs_per_thread=args.instrs,
        dvfs=args.dvfs, technology_nm=args.node,
    ))
    result = outcome.result
    print(render_table(["metric", "value"], [
        ["SmarCo throughput", f"{result.smarco.throughput_ips / 1e9:.2f} G/s"],
        ["Xeon throughput", f"{result.xeon.throughput_ips / 1e9:.2f} G/s"],
        ["speedup", f"{result.speedup:.2f}x"],
        ["SmarCo power (full chip)", f"{result.smarco_watts:.0f} W"],
        ["Xeon power", f"{result.xeon_watts:.0f} W"],
        ["energy-efficiency gain", f"{result.energy_efficiency_gain:.2f}x"],
    ], title=f"SmarCo vs Xeon: {args.workload}"))
    if args.energy and outcome.energy is not None:
        from .analysis import render_energy_report

        print()
        print(render_energy_report(outcome.energy))
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from .traffic import arrival_summaries, balancer_summaries

    if args.list:
        rows = [[a["name"], a["summary"]] for a in arrival_summaries()]
        print(render_table(["arrival", "summary"], rows,
                           title="Registered arrival processes"))
        print()
        rows = [[b["name"], b["summary"]] for b in balancer_summaries()]
        print(render_table(["balancer", "summary"], rows,
                           title="Registered load balancers"))
        return 0
    request = RunRequest(
        kind="traffic", workload=args.workload, seed=args.seed,
        smarco_config=smarco_scaled(args.sub_rings, args.cores),
        traffic_arrival=args.arrival, traffic_balancer=args.balancer,
        traffic_chips=args.chips, traffic_load=args.load,
        traffic_requests=args.requests, traffic_instrs=args.instrs,
        traffic_slo=tuple(args.slo),
    )
    result = execute(request).result
    mode = result.quantile_mode
    rows = [
        ["cluster", f"{result.chips} chips x "
                    f"{result.contexts_per_chip} contexts"
                    f" ({result.calibration_source} calibration)"],
        ["arrival / balancer", f"{result.arrival} / {result.balancer}"],
        ["offered load", f"rho = {result.load:.2f} "
                         f"({result.rate_per_cycle * 1e3:.2f} req/kcycle)"],
        ["requests", f"{result.requests_completed:,} completed"],
        ["throughput", f"{result.throughput_rps / 1e6:,.1f}M req/s"],
        ["solo service time", f"{result.base_service_cycles:,.0f} cycles"],
        ["p50 latency", f"{result.p50_latency:,.0f} cycles"],
        ["p95 latency", f"{result.p95_latency:,.0f} cycles"],
        ["p99 latency", f"{result.p99_latency:,.0f} cycles ({mode})"],
        ["p99.9 latency", f"{result.p999_latency:,.0f} cycles"],
        ["home sub-ring hits", f"{result.home_hit_rate:.1%}"],
    ]
    for target, frac in zip(result.slo_targets, result.slo_violations):
        rows.append([f"SLO >{target:g}x service", f"{frac:.2%} violated"])
    print(render_table(["metric", "value"], rows,
                       title=f"Traffic run: {args.workload}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .exp import Runner, summarize_runs

    if args.warm_start and not (args.warm_cycles > 0 and args.run_cycles):
        print("error: --warm-start needs --warm-cycles > 0 and a "
              "--run-cycles axis (the warm-up prefix is shared across "
              "measurement horizons)", file=sys.stderr)
        return 1
    base = RunRequest(
        kind=args.kind,
        smarco_config=(smarco_scaled(args.sub_rings, args.cores)
                       if args.kind in ("smarco", "compare") else None),
        threads_per_core=args.threads_per_core,
        instrs_per_thread=args.instrs,
        xeon_threads=args.xeon_threads,
        xeon_instrs_per_thread=args.xeon_instrs,
        sched_tasks=args.tasks,
        sched_contexts=args.contexts,
        traffic_chips=args.chips,
        traffic_requests=args.requests,
        warm_cycles=args.warm_cycles if args.warm_start else 0.0,
        warm_axes=("run_cycles",) if args.warm_start else (),
        power_gate_idle=args.power_gate,
    )
    if args.kind == "traffic":
        # the calibration chip defaults to the sweep's scaled geometry
        base = base.replace(
            smarco_config=smarco_scaled(args.sub_rings, args.cores))
    axes = {"workload": args.workloads, "seed": args.seeds}
    if args.policies:
        axes["core_policy"] = args.policies
    if args.kind == "sched":
        from .sched import list_policies, list_scenarios

        axes["sched_policy"] = args.sched_policies or list_policies()
        axes["sched_scenario"] = args.scenarios or list_scenarios()
    if args.kind == "traffic":
        from .traffic import list_arrivals, list_balancers

        axes["traffic_arrival"] = args.arrivals or list_arrivals()
        axes["traffic_balancer"] = args.balancers or list_balancers()
        axes["traffic_load"] = args.loads
    if args.run_cycles:
        axes["run_cycles"] = args.run_cycles
    if args.dvfs_points:
        axes["dvfs"] = args.dvfs_points
    if args.nodes:
        axes["technology_nm"] = args.nodes
    spec = ExperimentSpec.grid(args.name, base, **axes)

    runner = Runner(workers=args.workers, base_dir=args.out,
                    use_cache=not args.no_cache)
    sweep = runner.run(spec, warm_start=args.warm_start)

    print(summarize_runs(sweep.records))
    if args.kind == "sched":
        from .analysis import render_winners, sched_results_from_records

        print()
        print(render_winners(sched_results_from_records(sweep.records)))
    if args.kind == "traffic":
        from .analysis import render_traffic, traffic_results_from_records

        print()
        print(render_traffic(traffic_results_from_records(sweep.records)))
    if args.kind in ("smarco", "compare") and (args.dvfs_points or args.nodes):
        from .analysis import energy_from_records, render_efficiency

        print()
        print(render_efficiency(energy_from_records(sweep.records)))
    if args.detail:
        for point, outcome in zip(sweep.records, sweep.outcomes):
            print()
            print(render_result(outcome.result, title=point.label))
    print(f"\n{sweep.n_points} points | {sweep.hits} cache hits | "
          f"{sweep.warm_hits} warm starts | "
          f"{sweep.workers} workers | {sweep.wall_time_s:.2f}s | "
          f"telemetry in {runner.runs_dir}")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .chip.session import RunSession
    from .errors import CheckpointError
    from .sim.checkpoint import load_checkpoint

    if args.checkpoint_command == "save":
        request = RunRequest(
            kind=args.kind, workload=args.workload, seed=args.seed,
            smarco_config=(smarco_scaled(args.sub_rings, args.cores)
                           if args.kind == "smarco" else None),
            threads_per_core=args.threads_per_core,
            instrs_per_thread=args.instrs,
            xeon_threads=args.xeon_threads,
            xeon_instrs_per_thread=args.xeon_instrs,
            sched_policy=args.sched_policy,
            sched_scenario=args.scenario,
            sched_tasks=args.tasks,
            sched_contexts=args.contexts,
        )
        session = RunSession(request)
        session.run_to(args.cycles)
        path = session.save(args.path)
        print(f"checkpoint written to {path} "
              f"(kind {request.kind}, cycle {session.now:,.0f})")
        return 0

    if args.checkpoint_command == "info":
        try:
            ckpt = load_checkpoint(Path(args.path))
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        head = ckpt.summary()
        print(render_table(["field", "value"], [
            ["format", head["format"]],
            ["code digest", head["code_digest"]],
            ["schema hash", head["schema"]],
            ["kind", head["kind"]],
            ["cycle", f"{head['cycle']:,.0f}"],
            ["workload", head["workload"]],
            ["seed", head["seed"]],
            ["floating objects", head["objects"]],
        ], title=f"Checkpoint: {args.path}"))
        return 0

    # restore
    from .exp.request import request_from_snapshot

    try:
        ckpt = load_checkpoint(Path(args.path))
        request = request_from_snapshot(ckpt.request)
        if args.run_cycles is not None:
            request = request.replace(run_cycles=args.run_cycles)
        session = RunSession.restore(ckpt, request=request,
                                     allow_code_skew=args.allow_code_skew)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    resumed_at = session.now
    outcome = session.finish()
    print(f"resumed at cycle {resumed_at:,.0f}, "
          f"finished at cycle {session.now:,.0f}\n")
    print(render_result(outcome.result,
                        title=f"Resumed {session.kind} run"))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .exp import run_soak

    report = run_soak(runs=args.runs, seed=args.seed, workers=args.workers,
                      base_dir=args.out, instrs=args.instrs)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    from .errors import ConfigError
    from .perf import run_suite

    try:
        if args.profile:
            from .perf.profile import profile_kernel

            result, report = profile_kernel(args.profile, size=args.size,
                                            top=args.top)
            print(report)
            print(f"kernel result: {result}")
            return 0
        kernels = run_suite(size=args.size, repeat=args.repeat,
                            only=args.kernels)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [[name, f"{k['wall_s']:.4f}", f"{k['events_per_sec']:,.0f}",
             f"{k['units_per_sec']:,.0f}", k["unit"]]
            for name, k in kernels.items()]
    print(render_table(["kernel", "wall s", "events/s", "units/s", "unit"],
                       rows, title=f"perf suite [{args.size}] "
                                   f"x{args.repeat}"))
    return 0


def _cmd_area_power() -> int:
    area = AreaModel().breakdown()
    power = PowerModel().breakdown()
    rows = [[name, round(area[name], 2), round(power[name], 2)]
            for name in area]
    rows.append(["Total", round(sum(area.values()), 2),
                 round(sum(power.values()), 2)])
    print(render_table(["component", "area mm2", "power W"], rows,
                       title="Table 1: SmarCo at 32nm / 1.5GHz"))
    print()
    print("DVFS operating points (pass to run/sweep via --dvfs):")
    for line in dvfs_summaries():
        print(f"  {line}")
    return 0


def _cmd_cdn() -> int:
    points = CdnModel().sweep(points=8)
    rows = [[p.connections, f"{p.nic_utilization:.0%}",
             f"{p.cpu_utilization:.1%}", f"{p.branch_miss_ratio:.1%}",
             f"{p.l1_miss_ratio:.1%}"] for p in points]
    print(render_table(
        ["connections", "NIC util", "CPU util", "branch miss", "L1 miss"],
        rows, title="Fig 2: CDN on a conventional processor"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import build_report
    from .exp import load_records, summarize_runs

    text = build_report(Path(args.results_dir))
    runs_dir = (Path(args.runs_dir) if args.runs_dir
                else Path(args.results_dir) / "runs")
    records = load_records(runs_dir)
    if records:
        text += ("\n## Sweep telemetry\n\n```\n"
                 + summarize_runs(records) + "\n```\n")
        from .analysis import render_winners, sched_results_from_records

        sched_runs = sched_results_from_records(records)
        if sched_runs:
            text += ("\n## Scheduler policy zoo — who wins where\n\n```\n"
                     + render_winners(sched_runs) + "\n```\n")
        from .analysis import render_traffic, traffic_results_from_records

        traffic_runs = traffic_results_from_records(records)
        if traffic_runs:
            text += ("\n## Open-loop traffic — tail latency vs offered "
                     "load\n\n```\n"
                     + render_traffic(traffic_runs) + "\n```\n")
    if args.breakdown:
        from .analysis import render_breakdown, summarize_breakdown

        rows = summarize_breakdown(records)
        if rows:
            text += ("\n## Latency breakdown\n\n```\n"
                     + render_breakdown(rows) + "\n```\n")
        else:
            text += ("\n## Latency breakdown\n\nNo traced runs found "
                     "(set `trace_sample_rate` > 0 in the sweep config).\n")
    if args.energy:
        from .analysis import energy_from_records, render_efficiency

        reports = energy_from_records(records)
        if reports:
            text += ("\n## Energy efficiency — perf/W vs the Xeon "
                     "baseline\n\n```\n"
                     + render_efficiency(reports) + "\n```\n")
        else:
            text += ("\n## Energy efficiency\n\nNo runs with energy "
                     "accounting found (kinds `smarco`/`compare` carry "
                     "an energy report).\n")
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-workloads":
        return _cmd_list_workloads()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "xeon":
        return _cmd_xeon(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "traffic":
        return _cmd_traffic(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "policies":
        return _cmd_policies(args)
    if args.command == "area-power":
        return _cmd_area_power()
    if args.command == "cdn":
        return _cmd_cdn()
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
