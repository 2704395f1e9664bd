"""Paper Fig 19: MACT time-threshold sweep.

Speedup (normalised to the 8-cycle threshold) for thresholds 4..64.
Paper finding: 16 cycles is best for most benchmarks — short thresholds
forfeit batching, long ones delay every collected request.

The workload x threshold grid goes through the parallel experiment
runner: the threshold axis is a ``smarco_config`` axis (each value a
config with a different ``MACTConfig.threshold_cycles``).
"""

import dataclasses

from repro.analysis import render_series
from repro.config import MACTConfig, smarco_scaled
from repro.exp import ExperimentSpec, RunRequest

THRESHOLDS = [4, 8, 16, 32, 64]
WORKLOADS = ["wordcount", "terasort", "kmp", "rnc"]


def _config(threshold, sub_rings, cores):
    base = smarco_scaled(sub_rings, cores)
    return dataclasses.replace(base,
                               mact=MACTConfig(threshold_cycles=threshold))


def test_fig19_mact_threshold(emit, chip_scale, exp_runner):
    sub_rings, cores, instrs = 2, 8, chip_scale[2]   # small chip: 20 runs

    spec = ExperimentSpec.grid(
        "fig19_mact_threshold",
        RunRequest(kind="smarco", seed=19, threads_per_core=8,
                   instrs_per_thread=instrs),
        workload=WORKLOADS,
        smarco_config=[_config(t, sub_rings, cores) for t in THRESHOLDS],
    )

    def sweep():
        results = exp_runner.run(spec).results
        series = {}
        for i, wl in enumerate(WORKLOADS):
            chunk = results[i * len(THRESHOLDS):(i + 1) * len(THRESHOLDS)]
            tputs = [r.throughput_ips for r in chunk]
            base = tputs[THRESHOLDS.index(8)]
            series[wl] = [t / base for t in tputs]
        return series

    series = sweep()

    emit("fig19_mact_threshold", render_series(
        "threshold", THRESHOLDS,
        {wl: [round(v, 3) for v in vals] for wl, vals in series.items()},
        title="Fig 19: speedup vs MACT time threshold (normalised to 8 cycles)",
    ))

    for wl, vals in series.items():
        by_threshold = dict(zip(THRESHOLDS, vals))
        # the paper's chosen 16 cycles is within a few percent of the best
        # threshold (at our scaled request rates the knee sits at 8-16)
        assert by_threshold[16] >= max(vals) * 0.94, (wl, by_threshold)
        # long thresholds delay every collected request: 64 never beats 16
        assert by_threshold[64] <= by_threshold[16] * 1.02, (wl, by_threshold)
        # the sweep stays in a sane band (threshold is a second-order knob)
        assert all(0.7 < v < 1.4 for v in vals), (wl, vals)
