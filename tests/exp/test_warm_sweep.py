"""Warm-started sweeps: shared warm-up prefix, identical results.

A fig-style sweep over the measurement horizon (``run_cycles``) must
return results bit-identical to the cold sweep while simulating the
warm-up prefix exactly once, and the telemetry must distinguish a
warm-start partial hit from a full-run cache hit.
"""

import pytest

from repro.config import smarco_scaled
from repro.errors import ConfigError
from repro.exp import ExperimentSpec, RunRequest
from repro.exp.runner import Runner

BASE = RunRequest(kind="sched", sched_policy="laxity",
                  sched_scenario="deadline-storm", sched_tasks=24,
                  sched_contexts=8, seed=2,
                  warm_cycles=50_000.0, warm_axes=("run_cycles",))
HORIZONS = (300_000.0, 600_000.0)


def _spec():
    return ExperimentSpec.grid("warm-fig", BASE, run_cycles=HORIZONS)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    cold_dir = tmp_path_factory.mktemp("cold")
    warm_dir = tmp_path_factory.mktemp("warm")
    cold = Runner(workers=1, base_dir=cold_dir).run(_spec())
    warm_runner = Runner(workers=1, base_dir=warm_dir)
    warm = warm_runner.run(_spec(), warm_start=True)
    return cold, warm, warm_runner


class TestWarmEqualsCold:
    def test_results_bit_identical(self, sweeps):
        cold, warm, _runner = sweeps
        assert len(cold.outcomes) == len(warm.outcomes) == len(HORIZONS)
        for c, w in zip(cold.outcomes, warm.outcomes):
            assert c.result.to_dict() == w.result.to_dict()
            assert c.stats == w.stats

    def test_warm_prefix_eliminated_once(self, sweeps):
        _cold, warm, runner = sweeps
        # one shared checkpoint file for the whole group
        assert len(list(runner.warm_dir.glob("*.ckpt.gz"))) == 1
        assert warm.warm_hits == len(HORIZONS)
        assert warm.misses == 0 and warm.hits == 0

    def test_telemetry_distinguishes_hit_kinds(self, sweeps):
        cold, warm, runner = sweeps
        assert [r.cache for r in cold.records] == ["miss"] * len(HORIZONS)
        assert [r.cache for r in warm.records] == ["warm"] * len(HORIZONS)
        assert warm.hit_counts == {"hit": 0, "warm": len(HORIZONS),
                                   "miss": 0}
        # a re-run of the same spec is now a full-run cache hit
        again = Runner(workers=1, base_dir=runner.runs_dir.parent).run(
            _spec(), warm_start=True)
        assert [r.cache for r in again.records] == ["hit"] * len(HORIZONS)
        assert again.hit_counts["hit"] == len(HORIZONS)

    def test_summarize_runs_shows_warm_starts(self, sweeps):
        from repro.exp import summarize_runs

        _cold, warm, _runner = sweeps
        text = summarize_runs(warm.records)
        assert f"{len(HORIZONS)} warm starts" in text


class TestSweepCounts:
    """A sweep's counts describe that sweep, even on a reused Runner."""

    FAST = RunRequest(kind="smarco", workload="kmp",
                      smarco_config=smarco_scaled(1, 4),
                      threads_per_core=4, instrs_per_thread=60)

    def test_reused_runner_counts_one_sweep(self, tmp_path):
        runner = Runner(workers=1, base_dir=tmp_path)
        first = runner.run(ExperimentSpec.grid("a", self.FAST, seed=[0, 1]))
        assert first.hit_counts == {"hit": 0, "warm": 0, "miss": 2}
        second = runner.run(
            ExperimentSpec.grid("b", self.FAST, seed=[0, 1, 2]))
        assert (second.hits, second.warm_hits, second.misses) == (2, 0, 1)
        assert second.hit_counts == {"hit": 2, "warm": 0, "miss": 1}

    def test_corrupt_entries_count_in_the_sweep_that_met_them(
            self, tmp_path):
        runner = Runner(workers=1, base_dir=tmp_path)
        spec = ExperimentSpec.grid("c", self.FAST, seed=[0])
        runner.run(spec)
        entry = next(runner.cache.root.glob("*/*.json"))
        entry.write_text("{torn")
        with pytest.warns(RuntimeWarning, match="unreadable result cache"):
            torn = runner.run(spec)
        assert torn.hit_counts == {"hit": 0, "warm": 0, "miss": 1,
                                   "corrupt": 1}
        assert runner.run(spec).hit_counts == {"hit": 1, "warm": 0,
                                               "miss": 0}


class TestWarmRequestValidation:
    def test_warm_axes_participate_in_cache_key(self):
        from repro.exp.cache import request_key

        plain = BASE.replace(warm_cycles=0.0, warm_axes=())
        assert request_key(BASE, "v") != request_key(plain, "v")

    def test_warm_base_resets_axes_to_defaults(self):
        point = BASE.replace(run_cycles=HORIZONS[0])
        base = point.warm_base()
        assert base.run_cycles is None
        assert base.warm_cycles == BASE.warm_cycles
        # every point in the sweep collapses onto the same warm base
        assert base == BASE.replace(run_cycles=HORIZONS[1]).warm_base()

    def test_snapshot_roundtrip_keeps_warm_axes_hashable(self):
        from repro.exp.request import request_from_snapshot
        import json

        snap = json.loads(json.dumps(BASE.snapshot()))
        back = request_from_snapshot(snap)
        assert back.warm_axes == ("run_cycles",)
        hash(back)   # frozen dataclass must stay hashable

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="warm axis"):
            RunRequest(kind="smarco", warm_axes=("nope",)).validate()
        with pytest.raises(ConfigError, match="cannot warm-start"):
            RunRequest(kind="tcg", warm_cycles=10.0).validate()
        with pytest.raises(ConfigError, match="exceed warm_cycles"):
            RunRequest(kind="smarco", warm_cycles=100.0,
                       run_cycles=50.0).validate()
        with pytest.raises(ConfigError, match="run_cycles"):
            RunRequest(kind="smarco", run_cycles=-1.0).validate()
