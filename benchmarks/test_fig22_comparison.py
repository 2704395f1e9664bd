"""Paper Fig 22: SmarCo vs Intel Xeon E7-8890V4, six HTC benchmarks.

Paper results: 4.86x-18.57x speedup (average 10.11x) and 3.34x-12.77x
energy-efficiency gain (average 6.95x).

Scaled run: the SmarCo side uses the scaled chip geometry from
``chip_scale`` (full 256-core geometry with REPRO_FULL=1) against the
full 24-core Xeon model; the paper's *shape* — SmarCo wins every
benchmark by roughly an order of magnitude in performance and severalfold
in energy efficiency — is what the assertions pin down.
"""

from repro.analysis import geometric_mean, render_table
from repro.chip import execute
from repro.config import smarco_scaled
from repro.exp import RunRequest
from repro.workloads import HTC_PROFILES

WORKLOADS = list(HTC_PROFILES)


def test_fig22_comparison(emit, chip_scale):
    sub_rings, cores, instrs = chip_scale
    cfg = smarco_scaled(sub_rings, cores)

    def sweep():
        return {
            wl: execute(RunRequest(kind="compare", workload=wl, seed=22,
                                   smarco_config=cfg, threads_per_core=8,
                                   instrs_per_thread=instrs,
                                   xeon_threads=48,
                                   xeon_instrs_per_thread=30_000)).result
            for wl in WORKLOADS
        }

    results = sweep()

    speedups = {wl: r.speedup for wl, r in results.items()}
    gains = {wl: r.energy_efficiency_gain for wl, r in results.items()}
    rows = [[wl, round(speedups[wl], 2), round(gains[wl], 2)]
            for wl in WORKLOADS]
    rows.append(["geomean", round(geometric_mean(list(speedups.values())), 2),
                 round(geometric_mean(list(gains.values())), 2)])
    emit("fig22_comparison", render_table(
        ["workload", "speedup (x)", "energy-eff gain (x)"], rows,
        title="Fig 22: SmarCo over Xeon E7-8890V4 "
              f"({cfg.total_cores}-core scaled SmarCo)"))

    # SmarCo wins every benchmark on both axes
    for wl in WORKLOADS:
        assert speedups[wl] > 1.5, (wl, speedups[wl])
        assert gains[wl] > 1.0, (wl, gains[wl])
    # the average speedup lands in the paper's order of magnitude
    mean_speedup = geometric_mean(list(speedups.values()))
    assert 3.0 < mean_speedup < 40.0, mean_speedup
    # energy-efficiency gain is severalfold but smaller than the raw
    # speedup (SmarCo burns more watts than the Xeon)
    mean_gain = geometric_mean(list(gains.values()))
    assert 2.0 < mean_gain < 25.0, mean_gain
    assert mean_gain < mean_speedup
