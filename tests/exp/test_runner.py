"""The parallel experiment runner.

Acceptance criterion for the subsystem: a 2-worker sweep over >= 8
points produces results identical (same stats snapshots, per seed) to a
serial run of the same spec, and re-running completes with 100% cache
hits measurably faster than the cold run.
"""

import json
import time

import pytest

from repro.config import smarco_scaled
from repro.exp import (ExperimentSpec, Runner, RunRecord, RunRequest,
                       load_records, resolve_workers)
from repro.exp.telemetry import write_record

BASE = RunRequest(kind="smarco", workload="kmp",
                  smarco_config=smarco_scaled(1, 4),
                  threads_per_core=4, instrs_per_thread=80)

SPEC = ExperimentSpec.grid("runner-sweep", BASE,
                           workload=["kmp", "wordcount"],
                           seed=[0, 1],
                           core_policy=["inpair", "coarse"])


class TestParallelDeterminism:
    def test_two_workers_match_serial_bit_for_bit(self, tmp_path):
        assert SPEC.n_points >= 8
        serial = Runner(workers=1, base_dir=tmp_path / "serial").run(SPEC)
        parallel = Runner(workers=2, base_dir=tmp_path / "par").run(SPEC)
        assert parallel.workers == 2
        assert serial.n_points == parallel.n_points == SPEC.n_points
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.request == b.request      # same point order
            assert a.stats == b.stats          # identical stats snapshots
            assert a.result == b.result

    def test_parallel_run_used_multiple_workers(self, tmp_path):
        sweep = Runner(workers=2, base_dir=tmp_path).run(SPEC)
        workers = {r.worker for r in sweep.records}
        assert len(workers) >= 2               # actually fanned out

    def test_warm_rerun_is_all_hits_and_faster(self, tmp_path):
        runner = Runner(workers=1, base_dir=tmp_path)
        t0 = time.perf_counter()
        cold = runner.run(SPEC)
        cold_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = runner.run(SPEC)
        warm_wall = time.perf_counter() - t0
        assert cold.hits == 0
        assert warm.hits == SPEC.n_points      # 100% cache hits
        assert warm.hit_rate == 1.0
        assert warm_wall < cold_wall           # measurably faster


class TestTelemetry:
    def test_one_record_per_point_with_full_payload(self, tmp_path):
        runner = Runner(workers=1, base_dir=tmp_path)
        sweep = runner.run(SPEC)
        files = sorted(runner.runs_dir.glob("*.json"))
        assert len(files) == SPEC.n_points
        record = json.loads(files[0].read_text())
        for field in ("run_id", "spec", "label", "cache", "worker",
                      "wall_time_s", "code_version", "timestamp",
                      "request", "result", "stats"):
            assert field in record, field
        assert record["spec"] == "runner-sweep"
        assert record["cache"] == "miss"
        assert record["result"]["type"] == "SmarcoRunResult"
        assert record["stats"]                 # full StatsRegistry dump
        assert sweep.records[0].worker == "serial"

    def test_hit_records_overwrite_with_cache_state(self, tmp_path):
        runner = Runner(workers=1, base_dir=tmp_path)
        runner.run(SPEC)
        runner.run(SPEC)
        files = sorted(runner.runs_dir.glob("*.json"))
        assert len(files) == SPEC.n_points     # overwritten, not duplicated
        assert all(json.loads(f.read_text())["cache"] == "hit"
                   for f in files)

    def test_unreadable_records_are_counted_in_one_warning(self, tmp_path):
        record = RunRecord(run_id="ab12", spec="s", index=0, label="p",
                           cache="miss", worker="serial", wall_time_s=0.1,
                           code_version="v", timestamp="t", request={},
                           result={}, stats={})
        write_record(tmp_path, record)
        (tmp_path / "s-0001-torn.json").write_text('{"run_id": ')
        (tmp_path / "s-0002-alien.json").write_text('{"unrelated": 1}')
        with pytest.warns(RuntimeWarning, match="skipped 2 unreadable") as seen:
            records = load_records(tmp_path)
        assert len(seen) == 1
        assert records == [record]


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_garbage_env_is_serial_and_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS='many'"):
            assert resolve_workers(None) == 1

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_non_positive_env_is_serial_and_warns(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.warns(RuntimeWarning,
                          match=f"REPRO_WORKERS='{raw}'") as seen:
            assert resolve_workers(None) == 1
        assert len(seen) == 1
