"""RunRequest: the frozen, serialisable run description."""

import dataclasses

import pytest

from repro.config import smarco_scaled, xeon_default
from repro.errors import ConfigError
from repro.exp import (RunRecord, RunRequest, load_records,
                       request_from_snapshot)
from repro.exp.telemetry import write_record


class TestRunRequest:
    def test_frozen(self):
        request = RunRequest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.workload = "rnc"

    def test_replace_returns_new_request(self):
        request = RunRequest(workload="kmp", seed=0)
        other = request.replace(seed=7)
        assert other.seed == 7 and request.seed == 0
        assert other.workload == "kmp"

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            RunRequest(kind="gpu").validate()

    def test_validate_rejects_nonpositive_counts(self):
        with pytest.raises(ConfigError):
            RunRequest(threads_per_core=0).validate()
        with pytest.raises(ConfigError):
            RunRequest(xeon_instrs_per_thread=0).validate()

    def test_validate_accepts_every_kind(self):
        for kind in ("tcg", "smarco", "xeon", "compare"):
            RunRequest(kind=kind).validate()


class TestEnergyKnobs:
    """DVFS / technology knobs validate eagerly and key the cache."""

    def test_unknown_dvfs_rejected(self):
        with pytest.raises(ConfigError, match="unknown dvfs point"):
            RunRequest(dvfs="ludicrous").validate()

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigError):
            RunRequest(technology_nm=22).validate()

    def test_invalid_power_config_rejected(self):
        bad = dataclasses.replace(smarco_scaled(1, 4), sub_rings=0)
        with pytest.raises(ConfigError, match="sub-ring"):
            RunRequest(kind="compare", power_config=bad).validate()

    def test_nonpositive_frequency_rejected(self):
        bad = dataclasses.replace(smarco_scaled(1, 4), frequency_ghz=-1.0)
        with pytest.raises(ConfigError, match="frequency_ghz"):
            bad.validate()
        for field in ("smarco_config", "power_config"):
            with pytest.raises(ConfigError, match="frequency_ghz"):
                RunRequest(kind="compare", **{field: bad}).validate()

    def test_dvfs_and_node_are_cache_key_axes(self):
        from repro.exp.cache import request_key

        base = RunRequest(workload="kmp")
        keys = {
            request_key(base),
            request_key(base.replace(dvfs="eco")),
            request_key(base.replace(technology_nm=40)),
            request_key(base.replace(power_gate_idle=True)),
        }
        assert len(keys) == 4


class TestSnapshotRoundtrip:
    def test_plain_request(self):
        request = RunRequest(kind="xeon", workload="search", seed=11,
                             xeon_threads=12)
        snap = request.snapshot()
        assert snap["kind"] == "xeon" and snap["seed"] == 11
        assert request_from_snapshot(snap) == request

    def test_nested_configs_roundtrip(self):
        request = RunRequest(
            kind="compare", workload="terasort", seed=3,
            smarco_config=smarco_scaled(2, 8),
            xeon_config=xeon_default(),
            power_config=smarco_scaled(1, 4),
            technology_nm=40,
        )
        snap = request.snapshot()
        # the snapshot is plain data (JSON-ready), not dataclasses
        assert isinstance(snap["smarco_config"], dict)
        assert isinstance(snap["smarco_config"]["mact"], dict)
        rebuilt = request_from_snapshot(snap)
        assert rebuilt == request
        assert rebuilt.smarco_config.sub_rings == 2
        assert rebuilt.power_config.sub_rings == 1

    def test_snapshot_is_json_serialisable(self, tmp_path):
        import json

        request = RunRequest(smarco_config=smarco_scaled(1, 2))
        # the second input carries the fields of a removed engine option,
        # as telemetry records written before its removal still do
        # (`report` reads them): they are ignored on load
        for i, retired in enumerate(({}, {"shards": 0,
                                          "shard_quantum": None})):
            snap = dict(request.snapshot(), **retired)
            text = json.dumps(snap)
            assert request_from_snapshot(json.loads(text)) == request
            write_record(tmp_path, RunRecord(
                run_id=f"r{i}", spec="s", index=i, label="p",
                cache="miss", worker="serial", wall_time_s=0.1,
                code_version="v", timestamp="t", request=json.loads(text),
                result={}, stats={}))
        records = load_records(tmp_path)
        assert [request_from_snapshot(r.request) for r in records] \
            == [request, request]
