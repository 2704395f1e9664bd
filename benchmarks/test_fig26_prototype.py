"""Paper Fig 26: the TSMC 40nm prototype's energy efficiency.

The taped-out prototype supports 256 threads (32 TCG cores, an eighth of
the full design) on the older 40 nm node, clocked lower than the 32 nm
projection, and ships as a PCIe accelerator card (board + DDR overhead).
Its energy-efficiency gain over the Xeon drops to 2.05x-6.84x (average
3.85x) from the 32 nm projection's 3.34x-12.77x (Fig 22).
"""

import dataclasses

from repro.analysis import geometric_mean, render_table
from repro.chip import execute
from repro.config import smarco_scaled
from repro.exp import RunRequest
from repro.workloads import HTC_PROFILES

WORKLOADS = list(HTC_PROFILES)
PROTO_FREQUENCY_GHZ = 1.0       # 40nm tapeout clocks below the 32nm target
BOARD_OVERHEAD_W = 60.0         # card DDR DIMMs + PCIe + VRM + cooling


def _prototype_config():
    # 32 cores x 8 threads = the prototype's 256 threads
    base = smarco_scaled(2, 16)
    return dataclasses.replace(base, frequency_ghz=PROTO_FREQUENCY_GHZ,
                               technology_nm=40)


def _gain(workload, cfg, instrs):
    # the compare run bills the prototype itself (power_config), not the
    # full chip; the card's board overhead comes on top
    result = execute(RunRequest(
        kind="compare", workload=workload, seed=26, smarco_config=cfg,
        power_config=cfg, technology_nm=40, threads_per_core=8,
        instrs_per_thread=instrs, xeon_threads=48,
        xeon_instrs_per_thread=30_000)).result
    smarco_eff = result.smarco.throughput_ips / (result.smarco_watts
                                                 + BOARD_OVERHEAD_W)
    xeon_eff = result.xeon.throughput_ips / result.xeon_watts
    return smarco_eff / xeon_eff


def test_fig26_prototype(emit, chip_scale):
    _, _, instrs = chip_scale
    cfg = _prototype_config()

    def sweep():
        return {wl: _gain(wl, cfg, instrs) for wl in WORKLOADS}

    gains = sweep()

    rows = [[wl, round(gains[wl], 2)] for wl in WORKLOADS]
    rows.append(["geomean", round(geometric_mean(list(gains.values())), 2)])
    emit("fig26_prototype", render_table(
        ["workload", "energy-eff gain (x)"], rows,
        title="Fig 26: 40nm 256-thread prototype energy efficiency "
              "(SmarCo over Xeon)"))

    # the prototype still beats the Xeon on energy efficiency...
    for wl in WORKLOADS:
        assert gains[wl] > 1.2, (wl, gains[wl])
    # ...in the paper's band (2.05x-6.84x, average 3.85x)
    mean_gain = geometric_mean(list(gains.values()))
    assert 2.0 < mean_gain < 8.0, mean_gain
    assert max(gains.values()) < 12.0
