"""End-to-end latency attribution from hop-stamped transactions.

The acceptance properties of the tracing refactor:

* the advance-chain hops of every traced request tile its lifetime, so
  per-stage durations reconcile exactly with the end-to-end latency;
* the breakdown flows through the normal stats path (registry dump →
  ``RunOutcome.stats``, which ``nest_flat_stats`` nests by component);
* ``trace_sample_rate=0`` (the default) is bit-identical to a traced run
  of the same seed — stamping observes timing, it never alters it.
"""

import dataclasses

import pytest

from repro.analysis import rows_from_stats
from repro.chip import SmarCoChip, execute
from repro.config import smarco_scaled
from repro.exp.request import RunRequest
from repro.sim.stats import nest_flat_stats
from repro.workloads import get_profile

#: hops stamped outside the issue→completion chain (post-completion
#: resume wait, DMA legs) — excluded when checking that the chain tiles
#: the request lifetime
OUT_OF_CHAIN = {"resume", "dma_queue", "dma_xfer"}


def traced_chip(rate=1.0, seed=7, realtime_fraction=0.0, workload="kmp",
                instrs=150):
    cfg = dataclasses.replace(smarco_scaled(2, 4), trace_sample_rate=rate)
    chip = SmarCoChip(cfg, seed=seed, realtime_fraction=realtime_fraction)
    chip.load_profile(get_profile(workload), threads_per_core=8,
                      instrs_per_thread=instrs)
    return chip


class TestHopChainReconciliation:
    def test_every_traced_request_tiles_its_lifetime(self):
        """The load-bearing invariant: for every completed traced request
        the chained hops start at issue, are contiguous, end at finish,
        and their durations sum to the latency."""
        chip = traced_chip(rate=1.0, realtime_fraction=0.1)
        chip.breakdown.keep_traces = True
        chip.run()
        recorded = chip.breakdown.requests
        assert len(recorded) > 100, "expected substantial traced traffic"
        for req in recorded:
            flight = [h for h in req.trace.hops
                      if h.stage not in OUT_OF_CHAIN]
            assert flight, f"{req!r} has no chained hops"
            assert flight[0].enter == req.issue_time
            for prev, nxt in zip(flight, flight[1:]):
                assert prev.exit == nxt.enter, (
                    f"{req!r}: gap between {prev.stage} and {nxt.stage}")
            assert flight[-1].exit == req.finish_time
            total = sum(h.duration for h in flight)
            assert total == pytest.approx(req.latency)

    def test_issue_stage_present_on_every_trace(self):
        chip = traced_chip(rate=1.0)
        chip.breakdown.keep_traces = True
        chip.run()
        for req in chip.breakdown.requests:
            assert req.trace.hops[0].stage == "issue"
            assert req.trace.hops[0].component.startswith("chip.")

    def test_aggregate_hop_time_matches_aggregate_latency(self):
        chip = traced_chip(rate=1.0, realtime_fraction=0.1)
        chip.breakdown.keep_traces = True
        chip.run()
        recorded = chip.breakdown.requests
        latency_sum = sum(r.latency for r in recorded)
        hop_sum = sum(h.duration for r in recorded
                      for h in r.trace.hops if h.stage not in OUT_OF_CHAIN)
        assert hop_sum == pytest.approx(latency_sum)

    def test_breakdown_rows_cover_the_expected_stages(self):
        chip = traced_chip(rate=1.0)
        chip.run()
        rows = rows_from_stats(chip.registry.dump())
        stages = {r.stage for r in rows}
        # memory traffic must at minimum issue, be collected, ride the
        # NoC and hit DRAM
        assert {"issue", "collect", "router", "link_xfer", "dram"} <= stages
        for row in rows:
            assert row.component.startswith("chip")
            assert row.count > 0 and row.mean >= 0.0


class TestSamplingBehaviour:
    def test_rate_zero_records_nothing(self):
        chip = traced_chip(rate=0.0)
        chip.run()
        assert chip.breakdown.recorded == 0
        assert not any(".hop." in k for k in chip.registry.dump())

    def test_fractional_rate_records_a_subset(self):
        full = traced_chip(rate=1.0)
        full.run()
        half = traced_chip(rate=0.5)
        half.run()
        assert 0 < half.breakdown.recorded < full.breakdown.recorded

    def test_tracing_is_timing_invisible(self):
        """Bit-identity: the traced run's results match the untraced run
        of the same seed exactly — stamping never perturbs event order."""
        def outcome(rate):
            cfg = dataclasses.replace(smarco_scaled(2, 4),
                                      trace_sample_rate=rate)
            request = RunRequest(kind="smarco", workload="kmp", seed=7,
                                 smarco_config=cfg, threads_per_core=8,
                                 instrs_per_thread=150,
                                 realtime_fraction=0.1)
            return execute(request)

        untraced = outcome(0.0)
        traced = outcome(1.0)
        assert untraced.result.to_dict() == traced.result.to_dict()


class TestStatsFlow:
    def test_breakdown_reaches_run_outcome_and_nests_by_component(self):
        cfg = dataclasses.replace(smarco_scaled(2, 4), trace_sample_rate=1.0)
        request = RunRequest(kind="smarco", workload="kmp", seed=3,
                             smarco_config=cfg, threads_per_core=8,
                             instrs_per_thread=120)
        outcome = execute(request)
        rows = rows_from_stats(outcome.stats)
        assert rows, "breakdown stats missing from RunOutcome.stats"
        # round-trip: flat keys recover (component, stage, count, mean)
        for row in rows:
            base = f"{row.component}.hop.{row.stage}"
            assert outcome.stats[f"{base}.count"] == row.count
            assert outcome.stats[f"{base}.mean"] == pytest.approx(row.mean)
        # the same keys nest under their component's subtree
        tree = nest_flat_stats(outcome.stats)
        for row in rows:
            node = tree
            for part in row.component.split("."):
                node = node[part]
            assert row.stage in node["hop"]
        # histograms ride along under .hophist.
        assert any(".hophist." in k for k in outcome.stats)
