"""Ablation (paper §3.1.1): thread scheduling policies at chip level.

Fig 17 evaluates scheduling on a single core with a fixed memory
latency; this bench repeats the in-pair / blocking / coarse comparison on
the assembled chip, where memory latency is produced by the real
MACT + NoC + DRAM path — pairing must still win under self-induced
congestion.
"""

from repro.analysis import render_table
from repro.chip import SmarCoChip
from repro.config import smarco_scaled
from repro.workloads import get_profile

WORKLOAD = "kmp"


def _run(policy, threads_per_core, instrs):
    chip = SmarCoChip(smarco_scaled(2, 8), seed=55, core_policy=policy)
    chip.load_profile(get_profile(WORKLOAD),
                      threads_per_core=threads_per_core,
                      instrs_per_thread=instrs)
    return chip.run()


def test_ablation_inpair_chip(emit, chip_scale):
    instrs = chip_scale[2]

    def sweep():
        return {
            "inpair@8": _run("inpair", 8, instrs),
            "coarse@8": _run("coarse", 8, instrs),
            "blocking@4": _run("blocking", 4, instrs),
            "inpair@4": _run("inpair", 4, instrs),
        }

    results = sweep()

    emit("ablation_inpair_chip", render_table(
        ["policy", "threads/core", "throughput (Ginstr/s)",
         "mean req latency"],
        [[name.split("@")[0], name.split("@")[1],
          round(r.throughput_ips / 1e9, 2),
          round(r.mean_request_latency, 1)]
         for name, r in results.items()],
        title=f"Ablation: thread scheduling on the chip ({WORKLOAD})",
    ))

    tput = {name: r.throughput_ips for name, r in results.items()}
    # pairing (8 threads) beats both a blocking core and 4-thread in-pair
    assert tput["inpair@8"] > tput["blocking@4"]
    assert tput["inpair@8"] > tput["inpair@4"]
    # simple pairing stays within reach of the heavier coarse scheduler
    assert tput["inpair@8"] > tput["coarse@8"] * 0.75
