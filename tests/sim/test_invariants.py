"""Unit tests for the runtime invariant audit layer."""

import pytest

from repro.config import AUDIT_ENV, AuditConfig, ConfigError, MACTConfig
from repro.errors import AuditError
from repro.mem.mact import MACT
from repro.mem.request import MemRequest
from repro.noc.link import SlicedLink
from repro.sim import Auditor, Simulator, Violation
from repro.sim.stats import Counter


def collect_auditor(**kwargs):
    return Auditor(AuditConfig(enabled=True, fail_fast=False, **kwargs))


class TestAuditConfig:
    def test_default_is_disabled(self):
        assert AuditConfig().enabled is False

    def test_from_env_off_values(self):
        for value in ("", "0", "off", "false", "no", "OFF"):
            assert AuditConfig.from_env(value).enabled is False

    def test_from_env_on_is_fail_fast(self):
        cfg = AuditConfig.from_env("1")
        assert cfg.enabled and cfg.fail_fast

    def test_from_env_collect_mode(self):
        cfg = AuditConfig.from_env("collect")
        assert cfg.enabled and not cfg.fail_fast

    def test_from_env_reads_environment(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "collect")
        cfg = AuditConfig.from_env()
        assert cfg.enabled and not cfg.fail_fast
        monkeypatch.delenv(AUDIT_ENV)
        assert AuditConfig.from_env().enabled is False

    def test_max_violations_validated(self):
        with pytest.raises(ConfigError):
            AuditConfig(max_violations=0).validate()


class TestViolationPlumbing:
    def test_fail_fast_raises(self):
        auditor = Auditor(AuditConfig(enabled=True, fail_fast=True))
        with pytest.raises(AuditError, match="boom"):
            auditor.violation("request_conservation", "chip", 1.0, "boom")

    def test_collect_mode_accumulates(self):
        auditor = collect_auditor()
        auditor.violation("request_conservation", "chip", 1.0, "one")
        auditor.violation("mact_consistency", "mact", 2.0, "two")
        assert not auditor.clean
        assert [v.message for v in auditor.violations] == ["one", "two"]

    def test_max_violations_caps_the_list(self):
        auditor = collect_auditor(max_violations=2)
        for i in range(5):
            auditor.violation("thread_fsm", "core", float(i), f"v{i}")
        assert len(auditor.violations) == 2
        assert auditor.dropped == 3
        assert auditor.summary()["dropped_violations"] == 3

    def test_violation_renders_all_fields(self):
        v = Violation("mact_consistency", "chip.mact", 12.5, "bad bitmap")
        text = str(v)
        assert "mact_consistency" in text and "chip.mact" in text
        assert "12.5" in text and "bad bitmap" in text


class TestRequestConservation:
    def test_orphaned_request_flagged_at_end_of_run(self):
        auditor = collect_auditor()
        auditor.request_issued(MemRequest(addr=0, size=4, is_write=False), 0.0)
        auditor.end_of_run(100.0)
        assert any("still outstanding" in v.message
                   for v in auditor.violations)

    def test_balanced_requests_are_clean(self):
        auditor = collect_auditor()
        r = MemRequest(addr=0, size=4, is_write=False)
        auditor.request_issued(r, 0.0)
        auditor.request_completed(r, 10.0)
        auditor.end_of_run(100.0)
        assert auditor.clean

    def test_completion_without_issue_flagged(self):
        auditor = collect_auditor()
        r = MemRequest(addr=0, size=4, is_write=False)
        auditor.request_completed(r, 10.0)
        assert any("never" in v.message for v in auditor.violations)

    def test_double_issue_flagged(self):
        auditor = collect_auditor()
        r = MemRequest(addr=0, size=4, is_write=False)
        auditor.request_issued(r, 0.0)
        auditor.request_issued(r, 1.0)
        assert any("issued twice" in v.message for v in auditor.violations)

    def test_horizon_stop_accepts_work_in_flight(self):
        auditor = collect_auditor()
        auditor.request_issued(MemRequest(addr=0, size=4, is_write=False), 0.0)
        injected = Counter("injected")
        injected.inc(3)                         # three packets in flight
        auditor.register_flow("noc", injected, Counter("delivered"))
        link = SlicedLink("l", width_bytes=8, slice_bytes=2)
        auditor.register_link(link)
        link.reserve(64, 95.0)                  # busy past the horizon
        mact = MACT(Simulator(), lambda b: None, MACTConfig(threshold_cycles=500))
        auditor.install(mact)
        mact.submit(MemRequest(addr=0x40, size=4, is_write=False))
        auditor.end_of_run(100.0, drained=False)
        assert auditor.clean, auditor.violations

    def test_horizon_stop_still_flags_excess_completions(self):
        auditor = collect_auditor()
        auditor.completed = 2
        auditor.end_of_run(100.0, drained=False)
        assert any("2 completions for 0 issued" in v.message
                   for v in auditor.violations)

    def test_drained_run_with_orphan_still_fails(self):
        auditor = collect_auditor()
        auditor.request_issued(MemRequest(addr=0, size=4, is_write=False), 0.0)
        auditor.end_of_run(100.0, drained=True)
        assert any("still outstanding" in v.message
                   for v in auditor.violations)

    def test_end_of_run_is_idempotent(self):
        auditor = collect_auditor()
        auditor.request_issued(MemRequest(addr=0, size=4, is_write=False), 0.0)
        auditor.end_of_run(100.0)
        n = len(auditor.violations)
        auditor.end_of_run(200.0)
        assert len(auditor.violations) == n


class TestTraceTiling:
    def _traced_request(self):
        r = MemRequest(addr=0, size=4, is_write=False, issue_time=0.0)
        r.start_trace()
        return r

    def test_gap_free_chain_is_clean(self):
        auditor = collect_auditor()
        r = self._traced_request()
        r.trace.advance("issue", "core0", 0.0)
        r.trace.advance("ring", "noc", 3.0)
        r.trace.close(10.0)
        auditor.request_completed(r, 10.0)
        assert all(v.checker != "trace_tiling" for v in auditor.violations)

    def test_gap_in_chain_flagged(self):
        auditor = collect_auditor(request_conservation=False)
        r = self._traced_request()
        r.trace.advance("issue", "core0", 0.0)
        r.trace.hops[-1].exit = 2.0          # close early: 1-cycle hole
        r.trace.advance("ring", "noc", 3.0)
        r.trace.hops[-1].exit = 10.0
        auditor.request_completed(r, 10.0)
        assert any("gap" in v.message for v in auditor.violations)

    def test_open_hop_at_completion_flagged(self):
        auditor = collect_auditor(request_conservation=False)
        r = self._traced_request()
        r.trace.advance("issue", "core0", 0.0)   # never closed
        auditor.request_completed(r, 10.0)
        assert any("still open" in v.message for v in auditor.violations)

    def test_last_exit_must_match_completion(self):
        auditor = collect_auditor(request_conservation=False)
        r = self._traced_request()
        r.trace.advance("issue", "core0", 0.0)
        r.trace.close(8.0)                       # completion says 10.0
        auditor.request_completed(r, 10.0)
        assert any("last hop exits" in v.message for v in auditor.violations)


class TestLinkConservation:
    def test_real_reservations_are_clean(self):
        auditor = collect_auditor()
        link = SlicedLink("l", width_bytes=8, slice_bytes=2)
        auditor.register_link(link)
        for now in (0.0, 0.0, 1.0):
            link.reserve(6, now)
        assert auditor.clean
        assert auditor.checks["link_conservation"] == 3

    def test_reservation_in_the_past_flagged(self):
        auditor = collect_auditor()
        link = SlicedLink("l", width_bytes=8, slice_bytes=2)
        auditor.link_reserved(link, 4, start=-1.0, finish=2.0, now=0.0)
        assert any("past" in v.message for v in auditor.violations)

    def test_oversubscribed_reservation_flagged(self):
        auditor = collect_auditor()
        link = SlicedLink("l", width_bytes=8, slice_bytes=2)
        auditor.link_reserved(link, 100, start=0.0, finish=1.0, now=0.0)
        assert any("byte-cycles" in v.message for v in auditor.violations)

    def test_unbalanced_flow_flagged_at_end_of_run(self):
        auditor = collect_auditor()

        class Fake:
            def __init__(self, value):
                self.value = value

        auditor.register_flow("noc", Fake(5), Fake(4))
        auditor.end_of_run(100.0)
        assert any("in-flight" in v.message for v in auditor.violations)

    def test_reservation_outliving_run_flagged(self):
        auditor = collect_auditor()
        link = SlicedLink("l", width_bytes=8, slice_bytes=2)
        auditor.register_link(link)
        link.reserve(8, 0.0)                     # busy until t=1
        auditor.end_of_run(0.5)
        assert any("outlives" in v.message for v in auditor.violations)

    def test_disabled_checker_registers_nothing(self):
        auditor = collect_auditor(link_conservation=False)
        link = SlicedLink("l", width_bytes=8, slice_bytes=2)
        auditor.register_link(link)
        assert link.audit_hook is None


class TestMactConsistency:
    def _audited_mact(self, **cfg):
        sim = Simulator()
        batches = []
        mact = MACT(sim, batches.append, MACTConfig(**cfg))
        auditor = collect_auditor()
        auditor.install(mact)
        return sim, mact, batches, auditor

    def test_real_mact_traffic_is_clean(self):
        sim, mact, batches, auditor = self._audited_mact(threshold_cycles=8)
        for off in range(0, 16, 4):
            mact.submit(MemRequest(addr=0x100 + off, size=4, is_write=False))
        sim.run()
        mact.flush_all()
        auditor.end_of_run(sim.now)
        assert auditor.clean
        assert auditor.checks["mact_consistency"] > 0

    def test_corrupted_bitmap_flagged_on_flush(self):
        sim, mact, batches, auditor = self._audited_mact(threshold_cycles=8)
        mact.submit(MemRequest(addr=0x100, size=4, is_write=False))
        line = next(iter(mact._lines.values()))
        line.bitmap |= 1 << 20                   # byte nobody asked for
        sim.run()
        assert any("popcount" in v.message for v in auditor.violations)

    def test_undrained_line_flagged_at_end_of_run(self):
        sim, mact, batches, auditor = self._audited_mact(threshold_cycles=500)
        mact.submit(MemRequest(addr=0x100, size=4, is_write=False))
        auditor.end_of_run(sim.now)              # no flush_all first
        assert any("still pending" in v.message for v in auditor.violations)


class TestInstall:
    def test_install_returns_self_and_registers(self):
        sim = Simulator()
        mact = MACT(sim, lambda b: None, MACTConfig())
        auditor = collect_auditor()
        assert auditor.install(mact) is auditor
        assert any(name.startswith("mact:") for name in auditor.installed)

    def test_summary_shape(self):
        auditor = collect_auditor()
        auditor.count("thread_fsm")
        summary = auditor.summary()
        assert summary["enabled"] is True
        assert summary["fail_fast"] is False
        assert summary["checks"] == {"thread_fsm": 1}
        assert summary["total_checks"] == 1
        assert summary["violations"] == []
        assert summary["clean"] is True
