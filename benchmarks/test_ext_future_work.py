"""Extension benches: the paper's §7 future-work items, implemented.

1. **SPM stream prefetch** ("data penetration and prefetch from memory to
   SPM"): sequential uncached streams get pulled into SPM ahead of use.
2. **In-memory string matching**: a near-memory KMP engine scans DRAM-
   resident text at internal bandwidth and returns only the match count,
   against the baseline of streaming the text to TCG cores over the NoC.
"""

import dataclasses

from repro.analysis import render_table
from repro.chip import SmarCoChip
from repro.config import smarco_scaled
from repro.mem.pim import PimMatchUnit
from repro.noc import GranularityDist
from repro.sim import Simulator
from repro.workloads import get_profile
from repro.workloads.datasets import low_entropy_string
from repro.workloads.kmp import kmp_count


def _run_prefetch(enabled, instrs):
    profile = dataclasses.replace(
        get_profile("kmp"), uncached_fraction=0.15,
        shared_uncached_fraction=0.0, streaming_locality=1.0,
    )
    chip = SmarCoChip(smarco_scaled(2, 8), seed=77, spm_prefetch=enabled)
    chip.load_profile(profile, threads_per_core=8, instrs_per_thread=instrs)
    result = chip.run()
    hits = sum(p.hits.value for p in chip.prefetchers if p is not None)
    return result, hits


def _pim_vs_cores(text_bytes=64 * 1024):
    """Match a DRAM-resident text: near-memory engine vs core streaming."""
    text = low_entropy_string(text_bytes, seed=6)
    pattern = "acgta"

    # near-memory: command + scan at internal bandwidth + reply
    sim = Simulator()
    unit = PimMatchUnit(sim, scan_bytes_per_cycle=64)
    unit.store(0x0, text.encode())
    proc = unit.match(0x0, pattern)
    sim.run()
    pim_cycles = proc.result.latency
    assert proc.result.matches == kmp_count(text, pattern)

    # core baseline: the text streams over the NoC to one sub-ring's
    # cores as small uncached reads (1B scan granularity), cores overlap
    # the scan perfectly — a generous baseline
    chip = SmarCoChip(smarco_scaled(1, 16), seed=6)
    profile = dataclasses.replace(
        get_profile("kmp"),
        granularity=GranularityDist(((1, 1.0),)),
        uncached_fraction=0.45, spm_fraction=0.4,
        shared_uncached_fraction=1.0, mem_ratio=0.45,
    )
    # each byte of text needs ~1 uncached read: instructions per thread
    threads = 16 * 8
    reads_per_thread = text_bytes // threads
    instrs_per_thread = int(reads_per_thread / 0.45 / 0.45)
    chip.load_profile(profile, threads_per_core=8,
                      instrs_per_thread=instrs_per_thread)
    core_cycles = chip.run().cycles
    return pim_cycles, core_cycles, text_bytes


def test_ext_future_work(emit, chip_scale):
    instrs = chip_scale[2]

    def sweep():
        on, hits = _run_prefetch(True, instrs)
        off, _ = _run_prefetch(False, instrs)
        pim_cycles, core_cycles, nbytes = _pim_vs_cores()
        return on, hits, off, pim_cycles, core_cycles, nbytes

    on, hits, off, pim_cycles, core_cycles, nbytes = sweep()

    prefetch_tbl = render_table(
        ["configuration", "cycles", "mean req latency", "prefetch hits"],
        [["SPM prefetch ON", round(on.cycles), round(on.mean_request_latency, 1), hits],
         ["SPM prefetch OFF", round(off.cycles), round(off.mean_request_latency, 1), 0]],
        title="Extension 1: stream prefetch into SPM (sequential-scan kmp)",
    )
    pim_tbl = render_table(
        ["engine", "cycles", "speedup"],
        [["near-memory KMP unit", round(pim_cycles), ""],
         ["16 TCG cores over the NoC", round(core_cycles),
          f"{core_cycles / pim_cycles:.1f}x slower"]],
        title=f"Extension 2: string matching over {nbytes // 1024}KB "
              "of DRAM-resident text",
    )
    emit("ext_future_work", prefetch_tbl + "\n\n" + pim_tbl)

    # prefetch: hits happen, latency and runtime drop
    assert hits > 0
    assert on.mean_request_latency < off.mean_request_latency
    assert on.cycles < off.cycles
    # PIM: scanning in memory beats shipping every byte to the cores
    assert pim_cycles < core_cycles / 5
