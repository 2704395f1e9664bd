"""Activity-proportional energy accounting tests.

The load-bearing property is *conservation*: the per-event constants are
calibrated so that a run whose counters hit every structural full-tilt
rate dissipates exactly the static Table 1 power — so the two power
models (static utilization-based, dynamic activity-based) agree at the
point where both are defined.  Everything else — classification, path
attribution, gating, DVFS scaling — layers on top of that anchor.
"""

import math

import pytest

from repro.chip.run import execute
from repro.config import smarco_default, smarco_scaled
from repro.errors import ConfigError
from repro.exp import RunRequest
from repro.power import (
    EVENT_SPECS,
    ActivityEnergyModel,
    PowerModel,
    classify_stat,
)


@pytest.fixture(scope="module")
def model():
    return ActivityEnergyModel(smarco_default())


@pytest.fixture(scope="module")
def tiny_outcome():
    """One fixed-seed fig17-class run with energy accounting attached."""
    request = RunRequest(kind="smarco", workload="kmp", seed=7,
                         smarco_config=smarco_scaled(2, 4),
                         threads_per_core=4, instrs_per_thread=120)
    return execute(request)


class TestConservation:
    """Activity energy reconciles with the static Table 1 model."""

    CYCLES = 1_500_000.0  # 1 ms at the 1.5 GHz calibration point

    def test_full_activity_matches_static_peak_32nm(self, model):
        activity = model.full_activity_energy(self.CYCLES, technology_nm=32)
        static = PowerModel().energy_joules(self.CYCLES, 1.0,
                                            technology_nm=32)
        assert activity == pytest.approx(static, rel=0.05)

    def test_full_activity_matches_static_peak_40nm(self, model):
        activity = model.full_activity_energy(self.CYCLES, technology_nm=40)
        static = PowerModel().energy_joules(self.CYCLES, 1.0,
                                            technology_nm=40)
        assert activity == pytest.approx(static, rel=0.05)

    def test_per_component_reconciliation(self, model):
        """Each Table 1 row reconciles on its own, not just the total."""
        acct = model.accounting_from_counts(
            model.full_activity_counts(self.CYCLES), self.CYCLES,
            technology_nm=32)
        static = PowerModel().breakdown(1.0, technology_nm=32)
        seconds = self.CYCLES / 1.5e9
        for comp, watts in static.items():
            assert acct.by_component[comp]["total"] == pytest.approx(
                watts * seconds, rel=0.05), comp

    def test_real_run_lands_between_idle_and_peak(self, tiny_outcome):
        """A fixed-seed run burns more than leakage, less than full tilt."""
        request = tiny_outcome.request
        model = ActivityEnergyModel(request.smarco_config)
        cycles = float(tiny_outcome.result.cycles)
        acct = model.accounting(tiny_outcome.stats, cycles)
        static_model = PowerModel(request.smarco_config)
        idle = static_model.energy_joules(cycles, 0.0)
        peak = static_model.energy_joules(cycles, 1.0)
        assert idle < acct.total_joules < peak
        assert acct.dynamic_joules > 0


class TestClassification:
    def test_core_retired(self):
        assert classify_stat("chip.subring0.core1.retired") == "core_op"

    def test_caches(self):
        assert classify_stat("chip.subring0.core1.icache.hits") == "icache_access"
        assert classify_stat("chip.subring0.core1.dcache.misses") == "dcache_access"

    def test_spm_both_views(self):
        assert classify_stat("chip.subring0.core1.spm_hits") == "spm_access"
        assert classify_stat("chip.subring0.spm2.reads") == "spm_access"
        assert classify_stat("chip.subring0.spm2.remote_accesses") == "spm_access"

    def test_dma_and_ring(self):
        assert classify_stat("chip.subring0.dma.transfers") == "dma_transfer"
        assert classify_stat("chip.noc.main.seg0.cw.bytes") == "ring_flit_hop"
        assert classify_stat("chip.direct.link0.bytes") == "ring_flit_hop"

    def test_mact_and_dram(self):
        assert classify_stat("chip.subring0.mact.requests_in") == "mact_lookup"
        assert classify_stat("chip.mem.mc0.dram0.requests") == "ddr_access"

    def test_non_chip_scope_excluded(self):
        """Compare-kind merges prefix the Xeon side; it must not bill."""
        assert classify_stat("xeon.core0.retired") is None

    def test_unbilled_counters(self):
        assert classify_stat("chip.mem.mc0.requests") is None   # double-count
        assert classify_stat("chip.subring0.dma.bytes") is None


class TestExtraction:
    def test_real_run_counts_every_kind(self, tiny_outcome):
        request = tiny_outcome.request
        model = ActivityEnergyModel(request.smarco_config)
        by_kind, by_path = model.extract_counts(tiny_outcome.stats)
        assert by_kind["core_op"] == float(tiny_outcome.result.instructions)
        for kind in ("icache_access", "dcache_access", "spm_access",
                     "ring_flit_hop", "mact_lookup", "ddr_access"):
            assert by_kind[kind] > 0, kind
        assert by_path  # hottest-path attribution has something to rank

    def test_path_totals_match_kind_totals(self, tiny_outcome):
        model = ActivityEnergyModel(tiny_outcome.request.smarco_config)
        by_kind, by_path = model.extract_counts(tiny_outcome.stats)
        folded: dict = {}
        for kinds in by_path.values():
            for kind, count in kinds.items():
                folded[kind] = folded.get(kind, 0.0) + count
        for kind, total in folded.items():
            assert total == pytest.approx(by_kind[kind]), kind


class TestAccounting:
    def test_unknown_kind_rejected(self, model):
        with pytest.raises(ConfigError, match="unknown event kinds"):
            model.accounting_from_counts({"warp_drive": 1.0}, 1000.0)

    def test_unknown_event_kind_in_epe(self, model):
        with pytest.raises(ConfigError, match="unknown event kind"):
            model.energy_per_event("warp_drive")

    def test_dvfs_scales_per_event_energy(self, model):
        nominal = model.energy_per_event("core_op", dvfs="nominal")
        eco = model.energy_per_event("core_op", dvfs="eco")
        turbo = model.energy_per_event("core_op", dvfs="turbo")
        assert eco == pytest.approx(nominal * 0.81)
        assert turbo == pytest.approx(nominal * 1.21)

    def test_zero_cycles_average_watts_is_nan(self, model):
        acct = model.accounting_from_counts({}, 0.0)
        assert math.isnan(acct.average_watts)
        assert acct.total_joules == 0.0

    def test_every_event_spec_has_a_positive_constant(self, model):
        for kind in EVENT_SPECS:
            assert model.energy_per_event(kind) > 0, kind


class TestPowerGating:
    def _stats(self, busy_subrings, idle_subrings):
        stats = {}
        for sr in busy_subrings:
            stats[f"chip.subring{sr}.core0.retired"] = 100
        for sr in idle_subrings:
            stats[f"chip.subring{sr}.core0.retired"] = 0
        return stats

    def test_idle_subring_detected_and_shed(self):
        model = ActivityEnergyModel(smarco_scaled(4, 4))
        stats = self._stats(busy_subrings=[0, 1, 2], idle_subrings=[3])
        gated = model.accounting(stats, 1e6, power_gate_idle=True)
        ungated = model.accounting(stats, 1e6, power_gate_idle=False)
        assert gated.gated_subrings == ["subring3"]
        assert gated.gated_joules > 0
        assert gated.static_joules == pytest.approx(
            ungated.static_joules - gated.gated_joules)

    def test_busy_chip_gates_nothing(self):
        model = ActivityEnergyModel(smarco_scaled(4, 4))
        stats = self._stats(busy_subrings=[0, 1, 2, 3], idle_subrings=[])
        acct = model.accounting(stats, 1e6, power_gate_idle=True)
        assert acct.gated_subrings == []
        assert acct.gated_joules == 0.0


class TestOutcomeIntegration:
    def test_execute_attaches_energy(self, tiny_outcome):
        energy = tiny_outcome.energy
        assert energy is not None
        assert energy["kind"] == "smarco"
        acct = energy["accounting"]
        assert acct["total_joules"] > 0
        assert set(acct["by_component"]) == {
            "Cores", "Hierarchy Ring", "MACT", "SPM+Cache", "MC+PHY"}

    def test_energy_excluded_from_result_digest(self, tiny_outcome):
        """Energy is observation-only: the golden digest ignores it."""
        from repro.chip.run import RunOutcome
        from repro.perf import result_digest

        stripped = tiny_outcome.to_dict()
        digest_with = result_digest(tiny_outcome)
        stripped.pop("energy", None)
        assert result_digest(RunOutcome.from_dict(stripped)) == digest_with

    def test_compare_carries_efficiency_ratio(self):
        request = RunRequest(kind="compare", workload="kmp", seed=3,
                             smarco_config=smarco_scaled(2, 4),
                             threads_per_core=4, instrs_per_thread=100)
        outcome = execute(request)
        energy = outcome.energy
        assert energy is not None
        assert energy["efficiency_ratio"] > 0
        assert outcome.result.xeon_watts > 0
