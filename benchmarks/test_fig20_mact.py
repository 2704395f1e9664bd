"""Paper Fig 20: MACT vs conventional (no collection) structure.

Four panels per benchmark: execution speedup, memory-request latency,
NoC bandwidth utilisation, and the number of memory transactions.
Paper findings: small-granularity benchmarks speed up and send far fewer
transactions; K-means (large accesses, latency-sensitive) slows slightly
(<1 speedup) because collection delays its requests.
"""

import dataclasses

from repro.analysis import render_table
from repro.chip import SmarCoChip
from repro.config import MACTConfig, smarco_scaled
from repro.workloads import HTC_PROFILES, get_profile

WORKLOADS = list(HTC_PROFILES)


def _run(workload, enabled, scale):
    sub_rings, cores, instrs = scale
    base = smarco_scaled(sub_rings, cores)
    cfg = dataclasses.replace(base, mact=MACTConfig(enabled=enabled))
    chip = SmarCoChip(cfg, seed=20)
    chip.load_profile(get_profile(workload), threads_per_core=8,
                      instrs_per_thread=instrs)
    return chip.run()


def test_fig20_mact(emit, chip_scale):
    scale = (2, 8, chip_scale[2])

    def sweep():
        rows = {}
        for wl in WORKLOADS:
            with_mact = _run(wl, True, scale)
            without = _run(wl, False, scale)
            rows[wl] = {
                "speedup": without.cycles / with_mact.cycles,
                "latency_ratio": (with_mact.mean_request_latency
                                  / without.mean_request_latency),
                "bw_util_ratio": (with_mact.noc_bandwidth_utilization
                                  / max(1e-12, without.noc_bandwidth_utilization)),
                "request_ratio": (with_mact.mem_transactions
                                  / max(1, without.mem_transactions)),
            }
        return rows

    rows = sweep()

    emit("fig20_mact", render_table(
        ["workload", "speedup", "req latency (x)", "NoC BW util (x)",
         "#transactions (x)"],
        [[wl,
          round(rows[wl]["speedup"], 3),
          round(rows[wl]["latency_ratio"], 3),
          round(rows[wl]["bw_util_ratio"], 3),
          round(rows[wl]["request_ratio"], 3)]
         for wl in WORKLOADS],
        title="Fig 20: MACT vs conventional structure (MACT / conventional)",
    ))

    for wl in WORKLOADS:
        # collection reduces the number of memory transactions
        assert rows[wl]["request_ratio"] <= 1.0, wl
    # small-granularity benchmarks batch hardest
    assert rows["kmp"]["request_ratio"] < 0.95
    # most benchmarks do not lose performance; the overall effect is a win
    wins = sum(1 for wl in WORKLOADS if rows[wl]["speedup"] >= 0.99)
    assert wins >= 4, {wl: rows[wl]["speedup"] for wl in WORKLOADS}
    # collection trades a bounded amount of latency for fewer requests:
    # no benchmark's request latency explodes
    for wl in WORKLOADS:
        assert rows[wl]["latency_ratio"] < 1.5, wl
