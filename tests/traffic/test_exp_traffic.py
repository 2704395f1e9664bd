"""Traffic as a first-class run kind: validation, sweeps, cache stability."""

import pytest

from repro.chip.run import execute
from repro.config import smarco_scaled
from repro.errors import ConfigError
from repro.exp import ExperimentSpec, RunRequest, Runner
from repro.exp.cache import request_key
from repro.exp.request import request_from_snapshot
from repro.perf.kernels import result_digest


def _request(**overrides):
    base = dict(kind="traffic", workload="kmp", seed=0,
                smarco_config=smarco_scaled(2, 2), threads_per_core=2,
                instrs_per_thread=60, traffic_requests=400,
                traffic_chips=2, traffic_instrs=200)
    base.update(overrides)
    return RunRequest(**base)


class TestValidation:
    def test_valid_request_passes(self):
        _request().validate()

    @pytest.mark.parametrize("field,value,message", [
        ("traffic_arrival", "tsunami", "unknown arrival"),
        ("traffic_balancer", "clairvoyant", "unknown balancer"),
        ("traffic_chips", 0, "chip"),
        ("traffic_requests", 0, "request"),
        ("traffic_instrs", 0, "instruction"),
        ("traffic_load", 0.0, "load"),
        ("traffic_slo", (), "traffic_slo"),
        ("traffic_slo", (2.0, -1.0), "traffic_slo"),
    ])
    def test_bad_traffic_fields(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            _request(**{field: value}).validate()

    def test_traffic_axes_change_cache_key(self):
        base = _request()
        for changed in (base.replace(traffic_arrival="bursty"),
                        base.replace(traffic_balancer="round-robin"),
                        base.replace(traffic_load=0.9),
                        base.replace(traffic_chips=4),
                        base.replace(traffic_slo=(3.0,))):
            assert request_key(changed) != request_key(base)

    def test_snapshot_roundtrip_keeps_slo_tuple(self):
        request = _request(traffic_slo=(1.5, 4.0))
        rebuilt = request_from_snapshot(request.snapshot())
        assert rebuilt == request
        assert isinstance(rebuilt.traffic_slo, tuple)


class TestSweep:
    def test_traffic_sweep_is_deterministic_and_cache_stable(self, tmp_path):
        # the ISSUE's acceptance sweep: poisson + bursty arrivals over a
        # 2-chip cluster at three offered loads, replayed from cache
        spec = ExperimentSpec.grid(
            "traffic-mini", _request(),
            traffic_arrival=["poisson", "bursty"],
            traffic_load=[0.5, 0.7, 0.9])
        sweep = Runner(workers=1, base_dir=tmp_path).run(spec)
        assert sweep.n_points == 6
        seen = {(o.result.arrival, o.result.load) for o in sweep.outcomes}
        assert seen == {(a, l) for a in ("poisson", "bursty")
                        for l in (0.5, 0.7, 0.9)}
        for outcome in sweep.outcomes:
            assert outcome.result.requests_completed == 400
            assert outcome.result.calibration_source == "measured"

        again = Runner(workers=1, base_dir=tmp_path).run(spec)
        assert again.hits == 6
        assert [o.to_dict() for o in again.outcomes] == \
               [o.to_dict() for o in sweep.outcomes]

    def test_load_is_not_a_label(self, tmp_path):
        spec = ExperimentSpec.grid(
            "traffic-load", _request(traffic_arrival="bursty"),
            traffic_load=[0.4, 1.6])
        sweep = Runner(workers=1, base_dir=tmp_path).run(spec)
        calm, slammed = sorted(sweep.outcomes,
                               key=lambda o: o.result.load)
        assert slammed.result.mean_wait > calm.result.mean_wait


class TestCalibrationGroups:
    """Traffic points that share a calibration are one unit of work."""

    #: three points on a 2x2 chip, two on a 1x2 chip, one sched point
    REQUESTS = [
        _request(traffic_load=0.5),
        _request(smarco_config=smarco_scaled(1, 2)),
        RunRequest(kind="sched", sched_tasks=12, sched_contexts=4),
        _request(traffic_load=0.9, traffic_arrival="bursty"),
        _request(smarco_config=smarco_scaled(1, 2), traffic_load=0.9),
        _request(traffic_balancer="round-robin"),
    ]

    def test_one_unit_per_calibration(self, tmp_path):
        points = ExperimentSpec.explicit("calib", self.REQUESTS).points()
        units = Runner(workers=1, base_dir=tmp_path)._units(
            points, warm_start=True)
        assert [([p.index for p in members], warm)
                for members, warm in units] == [
            ([0, 3, 5], None), ([1, 4], None), ([2], None)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_sweep_equals_cold_runs(self, workers, tmp_path):
        spec = ExperimentSpec.explicit("calib", self.REQUESTS)
        sweep = Runner(workers=workers, base_dir=tmp_path).run(spec)
        assert [r.cache for r in sweep.records] == ["miss"] * 6
        assert [result_digest(o) for o in sweep.outcomes] == [
            result_digest(execute(r)) for r in self.REQUESTS]
