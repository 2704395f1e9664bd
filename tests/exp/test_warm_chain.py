"""Differential check: a chained warm sweep equals straight runs.

A warm-started sweep runs each warm group as one chain: one session
walks the group's horizons in ascending order and finishes every
earlier horizon on an in-memory copy.  Seeded draws over run kinds,
horizon sets (unsorted, with duplicates and ``None``), an
observation-only second warm axis and worker counts must give, point
for point, the outcome of a cold ``execute`` of the same request: the
same digest and the same serialised outcome, energy report included.
"""

import json
import random

import pytest

from repro.chip.run import execute
from repro.chip.session import RunSession
from repro.config import AuditConfig, smarco_scaled
from repro.errors import ConfigError
from repro.exp import ExperimentSpec, RunRequest
from repro.exp.runner import Runner
from repro.perf.kernels import result_digest
from repro.power.dvfs import list_dvfs
from repro.power.tech import NODES
from repro.sim.checkpoint import Checkpoint

#: (base request, straight-run length in cycles) per drawn kind
KINDS = {
    "smarco-kmp": (RunRequest(kind="smarco", workload="kmp",
                              smarco_config=smarco_scaled(2, 4),
                              threads_per_core=4, instrs_per_thread=120),
                   1400.0),
    "smarco-wordcount": (RunRequest(kind="smarco", workload="wordcount",
                                    smarco_config=smarco_scaled(2, 4),
                                    threads_per_core=4,
                                    instrs_per_thread=120),
                         1000.0),
    "xeon": (RunRequest(kind="xeon", workload="wordcount", xeon_threads=4,
                        xeon_instrs_per_thread=2500),
             95_000.0),
    "sched": (RunRequest(kind="sched", sched_policy="laxity",
                         sched_scenario="deadline-storm", sched_tasks=24,
                         sched_contexts=8),
              260_000.0),
}

DRAWS = 8

#: a fixed draw whose warm-up outlasts the run: 2x4 kmp drains at about
#: 1430 cycles, so the checkpoint at 3000 has no events queued
DRAINED = ("smarco-kmp",
           [KINDS["smarco-kmp"][0].replace(
               seed=3, warm_cycles=3000.0, warm_axes=("run_cycles",),
               run_cycles=h) for h in (None, 4000.0, 5000.0)],
           1, 1)


def _draw(seed):
    """One sweep: its requests, its warm-group count and its workers."""
    rng = random.Random(seed)
    kind = sorted(KINDS)[seed % len(KINDS)]
    base, length = KINDS[kind]
    warm = round(length * rng.uniform(0.1, 0.3))
    axis = rng.choice(("technology_nm", "dvfs"))
    values = sorted(NODES) if axis == "technology_nm" else list_dvfs()
    # up to 1.1x the run length: some horizons lie past its end, where
    # the clock jumps to the horizon with nothing left to simulate
    horizons = [round(rng.uniform(warm + 1, length * 1.1), 1)
                for _ in range(rng.randint(2, 4))]
    horizons += [rng.choice(horizons), None]
    rng.shuffle(horizons)
    seeds = rng.sample(range(10), rng.randint(1, 2))
    requests = [
        base.replace(seed=s, warm_cycles=float(warm),
                     warm_axes=("run_cycles", axis), run_cycles=h,
                     **{axis: rng.choice(values)})
        for s in seeds for h in horizons
    ]
    rng.shuffle(requests)
    return kind, requests, len(seeds), 1 + seed % 2


def _digests(outcomes):
    return [result_digest(outcome) for outcome in outcomes]


def _dumps(outcome):
    # JSON, not ==: NaN fields compare equal as text
    return json.dumps(outcome.to_dict(), sort_keys=True)


@pytest.mark.parametrize("seed", [*range(DRAWS), "drained"])
def test_chained_sweep_equals_straight_runs(seed, tmp_path, monkeypatch):
    kind, requests, groups, workers = (
        DRAINED if seed == "drained" else _draw(seed))
    # unaudited even under REPRO_AUDIT=1: restored sessions are unaudited
    straight = [execute(request, AuditConfig(enabled=False))
                for request in requests]
    cold = _digests(straight)
    runner = Runner(workers=workers, base_dir=tmp_path)
    sweep = runner.run(ExperimentSpec.explicit(kind, requests),
                       warm_start=True)
    assert _digests(sweep.outcomes) == cold
    assert [_dumps(o) for o in sweep.outcomes] == [
        _dumps(o) for o in straight]
    assert [r.cache for r in sweep.records] == ["warm"] * len(requests)
    assert sweep.warm_hits == len(requests) and sweep.misses == 0
    ckpts = sorted(runner.warm_dir.glob("*.ckpt.gz"))
    assert len(ckpts) == groups
    assert not list(runner.warm_dir.glob("*.tmp*"))

    # a superset of horizons restores the same files without rewriting
    # them (in-process, so the restores can be watched)
    before = {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in ckpts}
    extra = [request.replace(run_cycles=request.warm_cycles + 7.5)
             for request in requests[:2]]
    restored = []
    restore = RunSession.restore.__func__

    def watched(cls, source, *args, **kwargs):
        if not isinstance(source, Checkpoint):
            restored.append(source)
        return restore(cls, source, *args, **kwargs)

    monkeypatch.setattr(RunSession, "restore", classmethod(watched))
    again = Runner(workers=1, base_dir=tmp_path).run(
        ExperimentSpec.explicit(kind, requests + extra), warm_start=True)
    assert set(restored) <= set(ckpts)
    assert len(set(restored)) == len(restored) == len(
        {request.seed for request in extra})
    assert [r.cache for r in again.records] == (
        ["hit"] * len(requests) + ["warm"] * len(extra))
    assert _digests(again.outcomes) == cold + _digests(
        execute(request) for request in extra)
    assert {p: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in runner.warm_dir.glob("*.ckpt.gz")} == before


def test_draws_cover_the_contract():
    draws = [_draw(seed) for seed in range(DRAWS)]
    assert {kind for kind, *_ in draws} == set(KINDS)
    assert {workers for *_, workers in draws} == {1, 2}
    assert {request.warm_axes[1] for _, requests, *_ in draws
            for request in requests} == {"technology_nm", "dvfs"}
    for _kind, requests, *_ in draws:
        horizons = [request.run_cycles for request in requests]
        assert None in horizons
        assert len(set(horizons)) < len(horizons)
        assert horizons != sorted(horizons, key=lambda h: h or float("inf"))


def test_finish_copy_leaves_the_session_untouched():
    from repro.chip.session import _id_state

    request = KINDS["smarco-kmp"][0].replace(seed=4)
    session = RunSession(request)
    session.run_to(700.0)
    ids = _id_state()
    copy = session.finish_copy(request.replace(run_cycles=900.0))
    assert copy.result.cycles == 900.0
    assert session.now == 700.0 and _id_state() == ids
    assert result_digest(session.finish()) == result_digest(
        execute(request))


def test_trajectory_changing_axis_is_rejected(tmp_path):
    # a realtime share marks memory requests real-time from cycle 0, so
    # restoring one warm prefix across it would silently change results
    request = RunRequest(kind="smarco", workload="wordcount", seed=3,
                         smarco_config=smarco_scaled(2, 4),
                         warm_cycles=800.0, run_cycles=1500.0,
                         realtime_fraction=0.25,
                         warm_axes=("run_cycles", "realtime_fraction"))
    with pytest.raises(ConfigError, match="realtime_fraction") as err:
        request.validate()
    for allowed in ("run_cycles", "dvfs", "technology_nm",
                    "power_gate_idle"):
        assert allowed in str(err.value)
    spec = ExperimentSpec.explicit("unsound", [request])
    with pytest.raises(ConfigError, match="cannot be a warm axis"):
        Runner(workers=1, base_dir=tmp_path).run(spec, warm_start=True)
