"""Paper Fig 8: memory-access granularity, HTC vs conventional apps.

Six HTC applications vs eleven SPLASH2 applications: HTC accesses are
dominated by small (<=8 B) granularities; conventional applications sit
at 32-64 B and above.
"""

from repro.analysis import render_table
from repro.sim import Histogram, RngTree
from repro.workloads import HTC_PROFILES, SPLASH2_PROFILES

EDGES = [2, 4, 8, 16, 32, 64]
SAMPLES = 20_000


def _measure(profiles):
    """Sample each profile's generated stream (not just its declared
    distribution) so the figure reflects what the cores actually emit."""
    out = {}
    rng_tree = RngTree(8)
    for name, profile in profiles.items():
        hist = Histogram(name, EDGES)
        rng = rng_tree.stream(name)
        for instr in profile.stream(SAMPLES, rng):
            if instr.is_mem:
                hist.add(instr.size)
        out[name] = hist
    return out


def _sweep():
    return _measure(HTC_PROFILES), _measure(SPLASH2_PROFILES)


def test_fig08_granularity(emit):
    htc, splash = _sweep()

    def table(hists, title):
        labels = next(iter(hists.values())).bin_labels()
        rows = [[name] + [round(f, 3) for f in hist.fractions()]
                for name, hist in sorted(hists.items())]
        return render_table(["app"] + labels, rows, title=title)

    emit("fig08_granularity", "\n\n".join([
        table(htc, "Fig 8 (left): HTC access granularity distribution"),
        table(splash, "Fig 8 (right): conventional (SPLASH2) distribution"),
    ]))

    def small_share(hist, limit=8):
        return sum(f for edge, f in zip(EDGES, hist.fractions())
                   if edge <= limit)

    # HTC: small accesses dominate (K-means is the paper's outlier with
    # vector-sized accesses, so it only needs a non-trivial share)
    shares = {name: small_share(hist) for name, hist in htc.items()}
    assert all(s > 0.25 for s in shares.values()), shares
    assert sum(1 for s in shares.values() if s > 0.5) >= 5, shares
    # conventional: large accesses dominate
    for name, hist in splash.items():
        assert small_share(hist) < 0.2, name
    # mean granularity gap (paper: "much smaller")
    htc_mean = sum(h.mean for h in htc.values()) / len(htc)
    splash_mean = sum(h.mean for h in splash.values()) / len(splash)
    assert splash_mean > 3 * htc_mean
    # KMP and RNC carry the largest tiny-packet (<=2B) share
    tiny = {n: h.fractions()[0] for n, h in htc.items()}
    top_two = sorted(tiny, key=tiny.get, reverse=True)[:2]
    assert set(top_two) == {"kmp", "rnc"}
    # K-means has almost no 1-2B packets
    assert tiny["kmeans"] < 0.05
