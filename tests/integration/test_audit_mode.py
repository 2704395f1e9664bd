"""Whole-chip audit-mode integration tests.

The two contracts this file pins down:

* audited fixed-seed runs across every kind/policy/feature produce zero
  violations (the checkers hold on the real model);
* an audits-off run is bit-identical to an audits-on run of the same
  request (the layer observes, it never perturbs).
"""

import dataclasses
import json

import pytest

from repro.chip.run import execute
from repro.chip.session import RunSession
from repro.config import AUDIT_ENV, AuditConfig, smarco_scaled
from repro.errors import AuditError
from repro.exp import RunRequest


AUDIT_ON = AuditConfig(enabled=True, fail_fast=True)


def smarco_request(**overrides):
    config = overrides.pop("config", None)
    if config is None:
        config = dataclasses.replace(smarco_scaled(2, 4),
                                     trace_sample_rate=1.0)
    defaults = dict(kind="smarco", workload="kmeans", seed=11,
                    smarco_config=config, threads_per_core=4,
                    instrs_per_thread=120)
    defaults.update(overrides)
    return RunRequest(**defaults)


class TestAuditedRunsAreClean:
    @pytest.mark.parametrize("policy", ["inpair", "blocking", "coarse"])
    def test_policies(self, policy):
        tpc = 4 if policy == "blocking" else 8
        outcome = execute(smarco_request(core_policy=policy,
                                         threads_per_core=tpc),
                          audit=AUDIT_ON)
        assert outcome.audit["clean"]
        # every checker actually fired
        for checker in ("request_conservation", "link_conservation",
                        "mact_consistency", "thread_fsm", "trace_tiling"):
            assert outcome.audit["checks"].get(checker, 0) > 0, checker

    def test_realtime_direct_path(self):
        outcome = execute(smarco_request(workload="search", seed=5,
                                         realtime_fraction=0.3),
                          audit=AUDIT_ON)
        assert outcome.audit["clean"]

    def test_mact_disabled(self):
        config = dataclasses.replace(
            smarco_scaled(1, 4),
            mact=dataclasses.replace(smarco_scaled(1, 4).mact, enabled=False),
            trace_sample_rate=1.0)
        outcome = execute(smarco_request(config=config), audit=AUDIT_ON)
        assert outcome.audit["clean"]

    def test_tcg_kind(self):
        request = RunRequest(kind="tcg", workload="kmp", seed=0,
                             threads_per_core=8, instrs_per_thread=200)
        outcome = execute(request, audit=AUDIT_ON)
        assert outcome.audit["clean"]
        assert outcome.audit["checks"]["thread_fsm"] > 0

    def test_compare_kind_attaches_both_reports(self):
        request = RunRequest(kind="compare", workload="wordcount", seed=0,
                             smarco_config=smarco_scaled(1, 4),
                             instrs_per_thread=100)
        outcome = execute(request, audit=AUDIT_ON)
        assert outcome.audit["smarco"]["clean"]
        assert outcome.audit["xeon"]["clean"]


class TestAuditedSession:
    """A session built with an auditor finishes into the audited
    ``execute`` outcome, check counts included."""

    @pytest.mark.parametrize("request_", [
        smarco_request(),
        RunRequest(kind="xeon", workload="wordcount", seed=2,
                   xeon_threads=4, xeon_instrs_per_thread=2_000),
        RunRequest(kind="sched", sched_policy="laxity",
                   sched_scenario="deadline-storm", sched_tasks=12,
                   sched_contexts=4, seed=1),
    ], ids=["smarco", "xeon", "sched"])
    def test_session_equals_audited_execute(self, request_):
        from repro.sim import Auditor

        session = RunSession(request_, Auditor(AUDIT_ON)).finish()
        cold = execute(request_, audit=AUDIT_ON)
        assert session.audit["checks"] == cold.audit["checks"]
        assert session.audit["clean"]
        assert (json.dumps(session.to_dict(), sort_keys=True)
                == json.dumps(cold.to_dict(), sort_keys=True))


class TestHorizonRuns:
    """A ``run_cycles`` horizon leaves work in flight; a drained run may not."""

    @staticmethod
    def _lose_one_request(monkeypatch):
        # a request the chip issues and never completes
        from repro.mem.request import MemRequest
        from repro.sim import Auditor

        real = Auditor.end_of_run

        def end_of_run(self, now, drained=True):
            self.request_issued(MemRequest(addr=0x40, size=4, is_write=False),
                                now)
            real(self, now, drained)

        monkeypatch.setattr(Auditor, "end_of_run", end_of_run)

    def test_bounded_run_is_clean(self):
        outcome = execute(smarco_request(run_cycles=2000.0), audit=AUDIT_ON)
        assert outcome.result.cycles <= 2000.0
        assert outcome.audit["clean"]

    def test_drained_run_with_orphaned_request_fails(self, monkeypatch):
        self._lose_one_request(monkeypatch)
        with pytest.raises(AuditError, match="still outstanding"):
            execute(smarco_request(instrs_per_thread=60), audit=AUDIT_ON)

    def test_horizon_is_not_a_drain(self, monkeypatch):
        # a horizon past the end of the run: it drains, so it is checked
        self._lose_one_request(monkeypatch)
        with pytest.raises(AuditError, match="still outstanding"):
            execute(smarco_request(instrs_per_thread=60, run_cycles=1e9),
                    audit=AUDIT_ON)


class TestBitIdentity:
    def test_audits_off_matches_audits_on(self):
        request = smarco_request()
        off = execute(request, audit=AuditConfig(enabled=False))
        on = execute(request, audit=AUDIT_ON)
        assert off.result.to_dict() == on.result.to_dict()
        assert off.stats == on.stats
        assert off.audit is None and on.audit is not None

    def test_collect_mode_also_identical(self):
        request = smarco_request(seed=23, workload="terasort")
        off = execute(request)
        collect = execute(request,
                          audit=AuditConfig(enabled=True, fail_fast=False))
        assert off.result.to_dict() == collect.result.to_dict()
        assert off.stats == collect.stats


class TestEnvPlumbing:
    def test_env_enables_auditing(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "1")
        outcome = execute(smarco_request(instrs_per_thread=60))
        assert outcome.audit is not None and outcome.audit["clean"]

    def test_env_off_leaves_outcome_unaudited(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        outcome = execute(smarco_request(instrs_per_thread=60))
        assert outcome.audit is None

    def test_explicit_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "1")
        outcome = execute(smarco_request(instrs_per_thread=60),
                          audit=AuditConfig(enabled=False))
        assert outcome.audit is None


class TestFailLoudly:
    def test_injected_corruption_raises_audit_error(self):
        """A deliberately broken model must not pass a fail-fast audit:
        completing a request the chip never issued trips conservation."""
        from repro.mem.request import MemRequest
        from repro.sim import Auditor

        auditor = Auditor(AUDIT_ON)
        ghost = MemRequest(addr=0x100, size=4, is_write=False)
        with pytest.raises(AuditError):
            auditor.request_completed(ghost, 10.0)

    def test_outcome_roundtrips_audit_field(self):
        outcome = execute(smarco_request(instrs_per_thread=60),
                          audit=AUDIT_ON)
        from repro.chip.run import RunOutcome

        data = outcome.to_dict()
        back = RunOutcome.from_dict(data)
        assert back.audit == outcome.audit
        # and pre-audit cache files still load
        data.pop("audit")
        legacy = RunOutcome.from_dict(data)
        assert legacy.audit is None
