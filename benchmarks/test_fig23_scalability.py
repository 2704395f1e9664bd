"""Paper Fig 23: scalability of SmarCo vs Xeon on KMP.

Paper shape: the Xeon rises to a peak around 32-64 threads and then
*falls* (thread creation + scheduling overhead); SmarCo starts far below
(few threads cannot fill 64+ cores) but scales past the Xeon beyond ~64
threads and keeps rising.

Both thread ladders (Xeon and SmarCo) are one explicit ``ExperimentSpec``
through the parallel runner — per-thread instruction budgets shrink with
thread count (work-normalised throughput), so this is an explicit request
list rather than a grid.
"""

from repro.analysis import crossover_index, render_series
from repro.config import smarco_scaled
from repro.exp import ExperimentSpec, RunRequest

THREADS = [1, 4, 16, 32, 64, 128, 256, 512]
# Throughput (instrs/sec) is work-normalised, so each system can run the
# work volume its model needs: the analytic Xeon gets a large job (the
# paper's KMP datasets are big, so the pthread-creation ramp only bites
# at high thread counts), the DES SmarCo a smaller one.
XEON_TOTAL_WORK = 8_000_000
SMARCO_TOTAL_WORK = 1_500_000


def test_fig23_scalability(emit, chip_scale, exp_runner):
    sub_rings, cores, _ = chip_scale
    cfg = smarco_scaled(sub_rings, cores)

    xeon_requests = [
        RunRequest(kind="xeon", workload="kmp", seed=23, xeon_threads=n,
                   xeon_instrs_per_thread=max(500, XEON_TOTAL_WORK // n))
        for n in THREADS
    ]
    smarco_requests = [
        RunRequest(kind="smarco", workload="kmp", seed=23, smarco_config=cfg,
                   threads_per_core=8, total_threads=n,
                   instrs_per_thread=max(200, SMARCO_TOTAL_WORK // n))
        for n in THREADS
    ]
    spec = ExperimentSpec.explicit("fig23_scalability",
                                   xeon_requests + smarco_requests)

    def sweep():
        results = exp_runner.run(spec).results
        xeon = [r.throughput_ips for r in results[:len(THREADS)]]
        smarco = [r.throughput_ips for r in results[len(THREADS):]]
        return xeon, smarco

    xeon, smarco = sweep()

    emit("fig23_scalability", render_series(
        "threads", THREADS,
        {"xeon (Ginstr/s)": [round(v / 1e9, 2) for v in xeon],
         "smarco (Ginstr/s)": [round(v / 1e9, 2) for v in smarco]},
        title="Fig 23: KMP throughput vs thread count",
    ))

    # Xeon peaks in the 32-64 thread region and declines afterwards
    peak_idx = xeon.index(max(xeon))
    assert THREADS[peak_idx] in (16, 32, 64), THREADS[peak_idx]
    assert xeon[-1] < max(xeon), "Xeon must decline past its peak"
    # SmarCo starts below the Xeon at low thread counts
    assert smarco[0] < xeon[0]
    # ...but crosses over and keeps rising
    cross = crossover_index(smarco, xeon)
    assert cross != -1
    assert THREADS[cross] <= 128, f"crossover at {THREADS[cross]}"
    assert smarco[-1] > smarco[THREADS.index(64)]
    assert smarco[-1] > xeon[-1] * 2
