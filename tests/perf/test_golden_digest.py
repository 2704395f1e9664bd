"""Golden digests: fixed-seed runs must stay bit-identical.

Each pin is ``result_digest(execute(request))`` of one fixed request.
The four oldest (``fig17-*``, the Fig 17 rig, and ``fig23-*``, a
scaled-down Fig 23 chip, each named by its instructions per thread) were
captured before the hot-path optimization pass (due lane in the event
engine, ``__slots__`` packets/requests, memoized link slice fits, MACT
mask caching).  The others pin the single-core rig under every scheduling
policy, a second profile, both sides of a compare run, and a chip whose
code segment is DMA-staged into SPM (``shared_code=True``).  Any
optimization that changes a pin has changed simulation *behaviour*, not
just speed, and must be rejected — regenerate only when a deliberate
semantic change lands, via::

    PYTHONPATH=src python -c "
    from tests.perf.test_golden_digest import REQUEST_GOLDEN
    from repro.chip.run import execute
    from repro.perf.kernels import result_digest
    for name, (request, _) in sorted(REQUEST_GOLDEN.items()):
        print(name, result_digest(execute(request)))"
"""

import pytest

from repro import RunRequest, smarco_scaled
from repro.chip.run import execute
from repro.errors import ConfigError
from repro.perf import KERNELS, run_kernel
from repro.perf.kernels import result_digest

# the Fig 17 rig and the scaled-down Fig 23 chip at two run lengths
_FIG17 = RunRequest(kind="tcg", workload="kmp", seed=0)
_FIG23 = RunRequest(kind="smarco", workload="wordcount", seed=0,
                    smarco_config=smarco_scaled(2, 4), threads_per_core=4)

# name -> (request, digest); see the module docstring before touching these
REQUEST_GOLDEN = {
    "fig17-60": (_FIG17.replace(instrs_per_thread=60), "5177b6bac3cf1da9"),
    "fig17-300": (_FIG17.replace(instrs_per_thread=300), "e8b948703de2b034"),
    "fig23-40": (_FIG23.replace(instrs_per_thread=40), "c02d317e51b97e68"),
    "fig23-120": (_FIG23.replace(instrs_per_thread=120), "8d95ec410087b301"),
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
    "smarco-search-shared-code": (RunRequest(
        kind="smarco", workload="search", seed=4,
        smarco_config=smarco_scaled(2, 4), threads_per_core=4,
        instrs_per_thread=120, shared_code=True), "2797c529d27d51f1"),
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

    def test_every_kernel_runs_at_tiny(self):
        # the tiny size covers the full registry, and repeat=2 runs
        # run_kernel's cross-repeat determinism check on every kernel
        for name in KERNELS:
            record = run_kernel(name, size="tiny", repeat=2)
            assert record["units"] > 0, name
            assert "unit" in record
