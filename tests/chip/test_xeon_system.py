"""Xeon baseline system tests (paper Figs 1, 23 substrate)."""

import pytest

from repro.chip import XeonSystem, execute
from repro.config import XeonConfig
from repro.errors import ConfigError
from repro.workloads import get_profile


def run(wl="kmp", n_threads=8, instrs=20_000, **kwargs):
    system = XeonSystem(seed=2, **kwargs)
    return system.run_profile(get_profile(wl), n_threads, instrs)


class TestExecution:
    def test_all_instructions_retire(self):
        result = run(n_threads=4, instrs=30_000)
        assert result.instructions == 4 * 30_000
        assert result.cycles > 0

    def test_zero_threads_rejected(self):
        system = XeonSystem()
        with pytest.raises(ConfigError):
            system.run_profile(get_profile("kmp"), 0, 100)

    def test_throughput_positive(self):
        assert run().throughput_ips > 0

    def test_deterministic(self):
        assert run(n_threads=4).cycles == run(n_threads=4).cycles


class TestScalingShape:
    """Fig 23's Xeon curve: rises to the HW-context count, then falls."""

    def tput(self, n_threads, total_instrs=2_000_000):
        system = XeonSystem(seed=5)
        per_thread = max(1000, total_instrs // n_threads)
        result = system.run_profile(get_profile("kmp"), n_threads, per_thread)
        return result.throughput_ips

    def test_more_threads_help_up_to_the_peak(self):
        assert self.tput(16) > self.tput(4)

    def test_heavy_oversubscription_hurts(self):
        """Past the SMT contexts, thread creation + context switching
        erode throughput (paper: performance goes down past 32-64)."""
        assert self.tput(1024) < self.tput(48)


class TestTurbo:
    def test_few_threads_run_at_turbo(self):
        lightly = run(n_threads=1)
        loaded = run(n_threads=48)
        cfg = XeonConfig()
        assert lightly.frequency_ghz > cfg.frequency_ghz * 1.3
        assert loaded.frequency_ghz == pytest.approx(cfg.frequency_ghz)

    def test_turbo_bounded_by_table2_range(self):
        cfg = XeonConfig()
        for n in (1, 8, 24, 96):
            result = run(n_threads=n)
            assert cfg.frequency_ghz <= result.frequency_ghz <= cfg.turbo_ghz


class TestFig1Metrics:
    def test_idle_ratio_grows_with_thread_count(self):
        low = run(n_threads=2)
        high = run(n_threads=96)
        assert 0 <= low.idle_ratio <= 1
        assert high.idle_ratio > low.idle_ratio * 0.9   # non-decreasing-ish

    def test_starvation_reported(self):
        result = run(wl="search", n_threads=16)
        assert 0 < result.starvation_ratio < 1

    def test_miss_ratios_all_levels(self):
        result = run(n_threads=8)
        assert set(result.miss_ratios) == {"L1", "L2", "LLC"}
        assert all(0 <= v <= 1 for v in result.miss_ratios.values())

    def test_effective_latency_ordering(self):
        """Fig 1d: deeper levels cost more than their hit latency, and L1
        stays the cheapest (L2 vs LLC can invert when the L2 miss ratio
        approaches 1 - the L2 lookup is then pure overhead)."""
        result = run(n_threads=8)
        lat = result.effective_latency
        cfg = XeonConfig()
        assert lat["L1"] < lat["L2"] and lat["L1"] < lat["LLC"]
        assert lat["LLC"] >= cfg.llc_hit_latency

    def test_busy_fraction_bounds(self):
        result = run(n_threads=8)
        assert 0 <= result.busy_fraction <= 1
        assert result.utilization == result.busy_fraction


class TestSmarcoVsXeonDirection:
    def test_smarco_beats_xeon_on_htc(self):
        """The headline direction of Fig 22 at test scale."""
        from repro.config import smarco_scaled
        from repro.exp import RunRequest

        smarco = execute(RunRequest(
            kind="smarco", workload="wordcount",
            smarco_config=smarco_scaled(2, 8), threads_per_core=8,
            instrs_per_thread=250)).result
        xeon = execute(RunRequest(
            kind="xeon", workload="wordcount", xeon_threads=48,
            xeon_instrs_per_thread=10_000)).result
        assert smarco.throughput_ips > xeon.throughput_ips
