"""Bit-identical resume: the non-negotiable checkpoint correctness bar.

``build -> run_to(T) -> checkpoint; restore -> finish`` must reproduce
the straight run's result digest exactly — for the chip, the Xeon
baseline and the scheduler testbed, each at two distinct snapshot
cycles, both in memory and through the on-disk (gzipped) container.
"""

import pytest

from repro.chip.session import RunSession
from repro.config import smarco_scaled
from repro.exp.request import RunRequest
from repro.perf.kernels import result_digest
from repro.workloads.base import get_profile

SMARCO = RunRequest(kind="smarco", workload="kmp", seed=3,
                    smarco_config=smarco_scaled(2), threads_per_core=4,
                    instrs_per_thread=120)
XEON = RunRequest(kind="xeon", workload="wordcount", seed=1,
                  xeon_threads=4, xeon_instrs_per_thread=2500)
SCHED = RunRequest(kind="sched", sched_policy="laxity",
                   sched_scenario="deadline-storm", sched_tasks=24,
                   sched_contexts=8, seed=2)

CASES = [
    pytest.param(SMARCO, 500, id="smarco-early"),
    pytest.param(SMARCO, 2500, id="smarco-late"),
    pytest.param(XEON, 10_000, id="xeon-early"),
    pytest.param(XEON, 60_000, id="xeon-late"),
    pytest.param(SCHED, 60_000, id="sched-early"),
    pytest.param(SCHED, 400_000, id="sched-late"),
]

_STRAIGHT = {}


def _straight_digest(request):
    key = id(request)
    if key not in _STRAIGHT:
        _STRAIGHT[key] = result_digest(RunSession(request).finish())
    return _STRAIGHT[key]


@pytest.mark.parametrize("request_,cycles", CASES)
def test_restore_then_run_matches_straight_run(request_, cycles):
    session = RunSession(request_)
    session.run_to(cycles)
    assert session.now == cycles
    restored = RunSession.restore(session.checkpoint())
    assert restored.now == cycles
    assert result_digest(restored.finish()) == _straight_digest(request_)


def test_disk_roundtrip_matches_straight_run(tmp_path):
    session = RunSession(SMARCO)
    session.run_to(800)
    path = session.save(tmp_path / "chip.ckpt.gz")
    restored = RunSession.restore(path)
    assert restored.now == 800
    assert result_digest(restored.finish()) == _straight_digest(SMARCO)


def test_restored_session_matches_original_continuation():
    # the ORIGINAL session, continued past its own snapshot, also matches
    session = RunSession(SCHED)
    session.run_to(100_000)
    ckpt = session.checkpoint()
    original = result_digest(session.finish())
    assert original == _straight_digest(SCHED)
    assert result_digest(RunSession.restore(ckpt).finish()) == original


def test_restore_during_code_staging_dma_matches_straight_run():
    # shared_code stages one code segment per sub-ring into SPM by DMA
    # before any core starts; snapshot while that fill is still in flight
    request = SMARCO.replace(workload="search", seed=4,
                             smarco_config=smarco_scaled(2, 4),
                             shared_code=True)
    tcg = request.smarco_config.tcg
    segment = min(get_profile("search").code_footprint_bytes,
                  tcg.spm_bytes - tcg.spm_control_bytes)
    session = RunSession(request)
    dma = session.system.dmas[0]
    cycles = dma.transfer_cycles(segment) // 2
    session.run_to(cycles)
    assert dma.transfers.value == 0
    restored = RunSession.restore(session.checkpoint())
    assert restored.now == cycles
    assert result_digest(restored.finish()) == _straight_digest(request)


def test_run_cycles_horizon_is_honoured():
    bounded = SMARCO.replace(run_cycles=2000.0)
    outcome = RunSession(bounded).finish()
    assert outcome.result.cycles <= 2000.0 + 1e-9
    # one-shot execute() and the session agree on the bounded run
    from repro.chip.run import execute

    assert result_digest(execute(bounded)) == result_digest(outcome)
