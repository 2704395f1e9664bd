"""Golden digests: fixed-seed chip runs must stay bit-identical.

These constants were captured before the hot-path optimization pass (due
lane in the event engine, ``__slots__`` packets/requests, memoized link
slice fits, MACT mask caching).  Any optimization that changes them has
changed simulation *behaviour*, not just speed, and must be rejected —
regenerate only when a deliberate semantic change lands, via::

    PYTHONPATH=src python -c "
    from repro.perf.kernels import KERNELS, SIZES
    for k in ('chip_fig17', 'chip_fig23'):
        print(k, KERNELS[k](SIZES['tiny'][k])['digest'])"

``REQUEST_GOLDEN`` pins what the kernels miss: the single-core Fig 17 rig
under every scheduling policy, a second profile, and the Xeon side of a
compare run.  Regenerate those with ``result_digest(execute(request))``
for each of its requests.
"""

import pytest

from repro import RunRequest, smarco_scaled
from repro.chip.run import execute
from repro.errors import ConfigError
from repro.perf import KERNELS, SIZES, run_kernel
from repro.perf.kernels import result_digest

# size -> kernel -> digest (see module docstring before touching these)
GOLDEN = {
    "tiny": {
        "chip_fig17": "5177b6bac3cf1da9",
        "chip_fig23": "c02d317e51b97e68",
    },
    "small": {
        "chip_fig17": "e8b948703de2b034",
        "chip_fig23": "8d95ec410087b301",
    },
}


class TestGoldenDigests:
    @pytest.mark.parametrize("size", ["tiny", "small"])
    @pytest.mark.parametrize("kernel", ["chip_fig17", "chip_fig23"])
    def test_fixed_seed_runs_are_bit_identical(self, size, kernel):
        out = KERNELS[kernel](dict(SIZES[size][kernel]))
        assert out["digest"] == GOLDEN[size][kernel], (
            f"{kernel}[{size}] digest changed — a hot-path 'optimization' "
            f"altered simulation behaviour")


# name -> (request, digest); see the module docstring before touching these
REQUEST_GOLDEN = {
    "tcg-kmp-inpair": (RunRequest(
        kind="tcg", workload="kmp", core_policy="inpair",
        threads_per_core=8, instrs_per_thread=3000), "2ff7b5d2208286fd"),
    "tcg-kmp-blocking": (RunRequest(
        kind="tcg", workload="kmp", core_policy="blocking",
        threads_per_core=4, instrs_per_thread=3000), "8970b51b48059e97"),
    "tcg-kmp-coarse": (RunRequest(
        kind="tcg", workload="kmp", core_policy="coarse",
        threads_per_core=8, instrs_per_thread=3000), "07c8cfbf49b53678"),
    "tcg-terasort-inpair": (RunRequest(
        kind="tcg", workload="terasort", seed=1, core_policy="inpair",
        threads_per_core=8, instrs_per_thread=3000), "c7e0d8eaf5e612fd"),
    "compare-kmp": (RunRequest(
        kind="compare", workload="kmp", smarco_config=smarco_scaled(2, 4),
        threads_per_core=4, instrs_per_thread=100, xeon_threads=8,
        xeon_instrs_per_thread=2000), "d8569393c8183453"),
}


class TestRequestDigests:
    @pytest.mark.parametrize("name", sorted(REQUEST_GOLDEN))
    def test_fixed_seed_runs_are_bit_identical(self, name):
        request, golden = REQUEST_GOLDEN[name]
        assert result_digest(execute(request)) == golden, (
            f"{name} digest changed — a hot-path 'optimization' altered "
            f"simulation behaviour")


class TestKernelDiscipline:
    def test_repeats_must_agree(self):
        # run_kernel raises internally if the two repeats diverge
        record = run_kernel("engine_churn", size="tiny", repeat=2)
        assert record["events"] == record["units"] > 0
        assert record["wall_s"] > 0
        assert record["events_per_sec"] > 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown perf kernel"):
            run_kernel("warp_drive", size="tiny")

    def test_unknown_size_rejected(self):
        with pytest.raises(ConfigError, match="unknown suite size"):
            run_kernel("engine_churn", size="galactic")

    def test_bad_repeat_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            run_kernel("engine_churn", size="tiny", repeat=0)

    @pytest.mark.parametrize("kernel", ["chip_fig17", "chip_fig23"])
    def test_chip_kernels_count_engine_events(self, kernel):
        record = run_kernel(kernel, size="tiny", repeat=1)
        assert record["events"] > 0 and record["events_per_sec"] > 0

    def test_every_kernel_runs_at_tiny(self):
        # the CI smoke size must cover the full registry
        for name in KERNELS:
            record = run_kernel(name, size="tiny", repeat=1)
            assert record["units"] > 0, name
            assert "unit" in record
