"""Ablation (paper §3.4): real-time priority bypass of the MACT.

"Thread tasks with the high priority of real-time may bypass MACT, QoS
of these tasks can be guaranteed."  With the bypass disabled, real-time
requests sit in collection lines up to the threshold like everyone else;
with it enabled they go straight to memory.
"""

import dataclasses

from repro.analysis import render_table
from repro.chip import SmarCoChip
from repro.config import MACTConfig, smarco_scaled
from repro.mem.request import Priority
from repro.workloads import get_profile

REALTIME_FRACTION = 0.25


def _run(bypass, instrs):
    base = smarco_scaled(2, 8)
    cfg = dataclasses.replace(
        base, mact=MACTConfig(bypass_priority=bypass),
        ring=dataclasses.replace(base.ring, direct_datapath=False),
    )
    chip = SmarCoChip(cfg, seed=33, realtime_fraction=REALTIME_FRACTION)

    realtime_lat, normal_lat = [], []
    for cid in range(len(chip.cores)):
        original = chip.cores[cid].port._submit

        def spy(request, orig=original):
            prev = request.on_complete

            def record(req, now):
                bucket = (realtime_lat if req.priority is Priority.REALTIME
                          else normal_lat)
                bucket.append(now - req.issue_time)
                if prev is not None:
                    prev(req, now)

            request.on_complete = record
            orig(request)

        chip.cores[cid].port._submit = spy

    chip.load_profile(get_profile("rnc"), threads_per_core=8,
                      instrs_per_thread=instrs)
    chip.run()

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    bypasses = sum(m.bypasses.value for m in chip.macts)
    return mean(realtime_lat), mean(normal_lat), bypasses


def test_ablation_mact_bypass(emit, chip_scale):
    instrs = chip_scale[2]

    def sweep():
        return _run(True, instrs), _run(False, instrs)

    (rt_on, norm_on, n_bypass), (rt_off, norm_off, zero) = sweep()

    emit("ablation_mact_bypass", render_table(
        ["configuration", "realtime req latency", "normal req latency",
         "bypassed requests"],
        [["bypass ON", round(rt_on, 1), round(norm_on, 1), n_bypass],
         ["bypass OFF", round(rt_off, 1), round(norm_off, 1), zero]],
        title="Ablation: MACT real-time bypass (RNC, 25% real-time requests)",
    ))

    assert n_bypass > 0 and zero == 0
    # within a run, bypassing spares real-time requests the collection
    # delay: the (normal - realtime) latency gap widens with the bypass
    gap_on = norm_on - rt_on
    gap_off = norm_off - rt_off
    assert gap_on > gap_off
    # and real-time requests beat collected normal ones outright
    assert rt_on < norm_on
