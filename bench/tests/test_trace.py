"""The outside-in tracer: transparent to results, complete in its accounting."""

import importlib

import pytest

from bench.compare import verdict
from bench.trace import ENTRY_POINTS, LAYERS, Tracer, traced
from repro import RunRequest, SmarCoChip, execute, get_profile, smarco_scaled
from repro.chip.session import RunSession
from repro.perf.kernels import result_digest
from repro.sim.engine import Simulator

REQUEST = RunRequest(kind="smarco", workload="wordcount", seed=3,
                     smarco_config=smarco_scaled(2, 4), threads_per_core=4,
                     instrs_per_thread=100)


def _traced_run(fn):
    tracer = Tracer()
    with traced(tracer):
        with tracer.phase("run"):
            value = fn()
    return tracer, value


def _patched_attributes():
    out = {(Simulator, "schedule"): Simulator.__dict__["schedule"],
           (Simulator, "schedule_at"): Simulator.__dict__["schedule_at"]}
    for module, dotted, _layer, _kept in ENTRY_POINTS:
        owner = importlib.import_module(module)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[(owner, attr)] = owner.__dict__[attr]
    return out


def test_traced_digest_equals_untraced():
    untraced = result_digest(execute(REQUEST))
    _tracer, outcome = _traced_run(lambda: execute(REQUEST))
    assert result_digest(outcome) == untraced


def test_layer_events_add_up_to_executed_events():
    def run():
        chip = SmarCoChip(REQUEST.smarco_config, seed=REQUEST.seed)
        chip.load_profile(get_profile(REQUEST.workload),
                          REQUEST.threads_per_core, REQUEST.instrs_per_thread)
        chip.run()
        return chip

    tracer, chip = _traced_run(run)
    events = {layer: tracer.events[layer] for layer in LAYERS}
    assert sum(events.values()) == chip.sim.events_executed
    # a 2x4 chip exercises both ring levels, the bridges, cores and MACTs
    for layer in ("core", "noc.sub", "noc.main", "noc.bridge", "chip",
                  "mem.mact", "mem.dram"):
        assert events[layer] > 0, layer


def test_self_times_add_up_to_traced_wall_time():
    tracer, _outcome = _traced_run(lambda: execute(REQUEST))
    total = sum(tracer.self_s[layer] for layer in LAYERS)
    assert tracer.wall_s > 0
    assert total == pytest.approx(tracer.wall_s, rel=0.01)
    names = {span["name"] for span in tracer.summary()["spans"]}
    assert {"run", "build", "engine", "energy", "dump"} <= names


def test_class_patches_are_restored():
    before = _patched_attributes()
    with pytest.raises(RuntimeError, match="boom"):
        with traced(Tracer()):
            assert Simulator.__dict__["schedule"] is not before[
                (Simulator, "schedule")]
            raise RuntimeError("boom")
    assert _patched_attributes() == before


def test_traced_checkpoint_restores_bit_identically():
    request = REQUEST.replace(workload="kmp")
    untraced = result_digest(execute(request))

    def resume():
        session = RunSession(request)
        session.run_to(500)
        return RunSession.restore(session.checkpoint()).finish()

    tracer, outcome = _traced_run(resume)
    assert result_digest(outcome) == untraced
    assert tracer.calls["ckpt"] >= 2


@pytest.mark.parametrize("base, new, better, expected", [
    ((10.0, 9.9, 10.1), (10.5, 10.4, 10.6), "lower", "ok"),
    ((10.0, 9.9, 10.1), (11.5, 11.4, 11.6), "lower", "REGRESSION"),
    ((10.0, 9.9, 10.1), (8.5, 8.4, 8.6), "higher", "REGRESSION"),
    ((10.0, 8.0, 12.0), (11.5, 11.4, 11.6), "lower", "unresolved"),
])
def test_compare_verdict(base, new, better, expected):
    def q(values):
        return dict(zip(("median", "q1", "q3"), values))

    assert verdict(q(base), q(new), better, 0.10) == expected
