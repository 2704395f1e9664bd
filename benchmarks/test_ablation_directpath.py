"""Ablation (DESIGN.md §5): the star-shaped direct datapath under
congestion (paper §3.5.2).

Real-time reads may bypass the congested rings over a dedicated per-sub-
ring channel; the paper adds it to protect hard-real-time requests
"especially when the ring network is in heavy congestion".
"""

import dataclasses

from repro.analysis import render_table
from repro.chip import SmarCoChip
from repro.config import RingConfig, smarco_scaled
from repro.workloads import get_profile

REALTIME_FRACTION = 0.3


def _run(direct_enabled, instrs):
    base = smarco_scaled(2, 8)
    cfg = dataclasses.replace(
        base, ring=RingConfig(direct_datapath=direct_enabled))
    chip = SmarCoChip(cfg, seed=42, realtime_fraction=REALTIME_FRACTION)
    chip.load_profile(get_profile("rnc"), threads_per_core=8,
                      instrs_per_thread=instrs)
    result = chip.run()
    direct_count = chip.direct.delivered.value if chip.direct else 0
    return result, direct_count


def test_ablation_directpath(emit, chip_scale):
    instrs = chip_scale[2]

    def sweep():
        return _run(True, instrs), _run(False, instrs)

    (with_dp, dp_count), (without_dp, _zero) = sweep()

    emit("ablation_directpath", render_table(
        ["configuration", "cycles", "mean req latency", "direct deliveries"],
        [["direct datapath ON", round(with_dp.cycles),
          round(with_dp.mean_request_latency, 1), dp_count],
         ["direct datapath OFF", round(without_dp.cycles),
          round(without_dp.mean_request_latency, 1), 0]],
        title="Ablation: star-shaped direct datapath (RNC, 30% real-time)",
    ))

    # the star path actually carries traffic
    assert dp_count > 0
    # bypassing the rings lowers mean request latency under load
    assert with_dp.mean_request_latency < without_dp.mean_request_latency
    # and does not hurt completion time
    assert with_dp.cycles <= without_dp.cycles * 1.1
