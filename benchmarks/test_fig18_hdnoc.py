"""Paper Fig 18: high-density NoC throughput vs channel slice width.

Slicing the ring datapaths into narrower self-governed channels
(16B -> 2B) raises delivered packets per cycle; benchmarks with more
small-granularity packets (KMP, RNC) gain most, K-means (no 1-2B
packets) gains least from the final 4B -> 2B step.

Ablation: the paper's greedy slice allocator vs the conventional
monolithic link at 2B slicing.
"""

from repro.analysis import render_series, render_table
from repro.noc import run_uniform_traffic
from repro.workloads import HTC_PROFILES

SLICE_WIDTHS = [16, 8, 4, 2]
CYCLES = 800
# Every workload offers the same BYTE load; apps with small packets thus
# offer many more packets and hit the per-link packet limit of wide
# slicing first — the effect Fig 18 plots.
TARGET_BYTES_PER_CORE = 1.7


def _rate(workload):
    mean_gran = HTC_PROFILES[workload].granularity.mean()
    return min(0.95, TARGET_BYTES_PER_CORE / mean_gran)


def _throughput(workload, slice_bytes, greedy=True):
    profile = HTC_PROFILES[workload]
    result = run_uniform_traffic(
        sub_rings=2, cores_per_sub_ring=8,
        dist=profile.granularity, slice_bytes=slice_bytes,
        injection_rate=_rate(workload), cycles=CYCLES, greedy=greedy,
        seed=18,
    )
    return result.throughput


def _sweep():
    series = {}
    for wl in HTC_PROFILES:
        series[wl] = [_throughput(wl, w) for w in SLICE_WIDTHS]
    ablation = {
        "greedy@2B": _throughput("kmp", 2, greedy=True),
        "monolithic": _throughput("kmp", 2, greedy=False),
    }
    return series, ablation


def test_fig18_hdnoc(emit):
    series, ablation = _sweep()

    # normalise to the 16B (conventional-width) point, as the paper plots
    # "improvement of throughput rate"
    norm = {wl: [v / vals[0] for v in vals] for wl, vals in series.items()}
    fig = render_series(
        "slice_bytes", SLICE_WIDTHS,
        {wl: [round(v, 3) for v in vals] for wl, vals in norm.items()},
        title="Fig 18: throughput improvement vs channel slice width "
              "(normalised to 16B)",
    )
    abl = render_table(
        ["link", "packets/cycle"],
        [["greedy 2B slices", round(ablation["greedy@2B"], 3)],
         ["monolithic (conventional)", round(ablation["monolithic"], 3)]],
        title="Ablation: greedy slice allocation vs conventional link (kmp)",
    )
    emit("fig18_hdnoc", fig + "\n\n" + abl)

    for wl, vals in norm.items():
        # narrower slices never hurt, and 2B is at least the wide link
        assert vals[-1] >= vals[0] * 0.98, wl
        assert vals[-1] >= 0.99, wl
    # the apps with the most small packets gain the most from slicing
    final_gain = {wl: vals[-1] for wl, vals in norm.items()}
    top_two = sorted(final_gain, key=final_gain.get, reverse=True)[:2]
    assert set(top_two) == {"kmp", "rnc"}, final_gain
    # K-means has no 1-2B packets: slicing brings it ~nothing
    assert final_gain["kmeans"] < 1.05
    # the greedy allocator beats the conventional monolithic link
    assert ablation["greedy@2B"] > ablation["monolithic"]
