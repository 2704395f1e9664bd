"""Paper Fig 1: HTC behaviour on a conventional processor.

(a) idle ratio of pipeline resources vs thread count;
(b) instruction-starvation ratio vs thread count;
(c) L1/L2/LLC miss ratios;
(d) average access latency per level.
"""

from repro.analysis import render_series, render_table
from repro.chip import XeonSystem
from repro.workloads import get_profile

THREAD_COUNTS = [1, 4, 16, 48, 96, 192]
WORKLOADS = ["wordcount", "search", "kmp"]


def _sweep():
    rows = {}
    for wl in WORKLOADS:
        profile = get_profile(wl)
        idle, starve = [], []
        last = None
        for n in THREAD_COUNTS:
            system = XeonSystem(seed=1, quantum_instrs=4000)
            # steady-state profile: all threads co-resident (no creation
            # ramp), long enough that warm-up does not dominate
            result = system.run_profile(profile, n, instrs_per_thread=160_000,
                                        stagger_creation=False)
            idle.append(result.idle_ratio)
            starve.append(result.starvation_ratio)
            last = result
        rows[wl] = {"idle": idle, "starve": starve, "final": last}
    return rows


def test_fig01_xeon_profile(emit):
    rows = _sweep()

    idle_tbl = render_series(
        "threads", THREAD_COUNTS,
        {wl: [round(v, 3) for v in rows[wl]["idle"]] for wl in WORKLOADS},
        title="Fig 1(a): idle ratio of logical resources vs thread count",
    )
    starve_tbl = render_series(
        "threads", THREAD_COUNTS,
        {wl: [round(v, 3) for v in rows[wl]["starve"]] for wl in WORKLOADS},
        title="Fig 1(b): instruction starvation ratio vs thread count",
    )
    miss_rows = []
    lat_rows = []
    for wl in WORKLOADS:
        final = rows[wl]["final"]
        miss_rows.append([wl] + [round(final.miss_ratios[l], 3)
                                 for l in ("L1", "L2", "LLC")])
        lat_rows.append([wl] + [round(final.effective_latency[l], 1)
                                for l in ("L1", "L2", "LLC")])
    miss_tbl = render_table(["workload", "L1", "L2", "LLC"], miss_rows,
                            title="Fig 1(c): cache miss ratios (192 threads)")
    lat_tbl = render_table(["workload", "L1", "L2", "LLC"], lat_rows,
                           title="Fig 1(d): avg access latency (cycles)")
    emit("fig01_xeon_profile",
         "\n\n".join([idle_tbl, starve_tbl, miss_tbl, lat_tbl]))

    # index of the 48-thread point (the HW-context count)
    i48 = THREAD_COUNTS.index(48)
    for wl in WORKLOADS:
        idle = rows[wl]["idle"]
        # paper shape (a): idle ratio rises once threads oversubscribe the
        # 48 hardware contexts, and is substantial throughout
        assert idle[-1] > idle[i48]
        assert idle[-1] > 0.5
        # (b): starvation is non-trivial and grows under oversubscription
        starve = rows[wl]["starve"]
        assert starve[-1] > starve[i48]
        assert starve[-1] > 0.05
        # (c): multi-level caches suffer (high L1 misses for HTC)
        final = rows[wl]["final"]
        assert final.miss_ratios["L1"] > 0.2
        # (d): latency grows down the hierarchy from L1
        lat = final.effective_latency
        assert lat["L1"] < lat["L2"]
        assert lat["LLC"] >= 42        # at least the LLC hit latency
