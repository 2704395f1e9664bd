"""Paper Table 2: hardware parameters of the Xeon E7-8890V4 vs SmarCo."""

import pytest

from repro.analysis import render_table
from repro.config import smarco_default, xeon_default

MB = 1024 * 1024
GB = 1024 * MB


def _sweep():
    return smarco_default(), xeon_default()


def test_table2_configs(emit):
    smarco, xeon = _sweep()

    rows = [
        ["Cores", f"{xeon.cores} cores, {xeon.total_hw_threads} threads",
         f"{smarco.total_cores} cores, {smarco.total_hw_threads} threads"],
        ["Frequency", f"{xeon.frequency_ghz}-{xeon.turbo_ghz} GHz",
         f"{smarco.frequency_ghz} GHz"],
        ["L1 I$", f"{xeon.cores * xeon.l1i_bytes / MB:.2f} MB",
         f"{smarco.total_icache_bytes // MB} MB"],
        ["L1 D$", f"{xeon.cores * xeon.l1d_bytes / MB:.2f} MB",
         f"{smarco.total_dcache_bytes // MB} MB"],
        ["L2 / SPM", f"{xeon.cores * xeon.l2_bytes // MB} MB L2",
         f"{smarco.total_spm_bytes // MB} MB SPM"],
        ["LLC", f"{xeon.llc_bytes // MB} MB", "-"],
        ["NoC", "QPI", f"hier ring {smarco.ring.sub_ring_bits}b sub / "
         f"{smarco.ring.main_ring_bits}b main"],
        ["Memory", f"{xeon.memory_bandwidth_gbps:.0f} GB/s",
         f"{smarco.memory.peak_bandwidth_gbps:.1f} GB/s, "
         f"{smarco.memory.total_bytes // GB} GB"],
        ["Process", f"{xeon.technology_nm} nm", f"{smarco.technology_nm} nm"],
        ["Power", f"{xeon.tdp_watts:.0f} W", "240 W"],
    ]
    emit("table2_configs", render_table(
        ["parameter", "Xeon E7-8890V4", "SmarCo"], rows,
        title="Table 2: hardware configurations"))

    # paper's headline parameters
    assert smarco.total_cores == 256
    assert smarco.total_hw_threads == 2048
    assert smarco.total_spm_bytes == 32 * MB
    assert smarco.memory.peak_bandwidth_gbps == pytest.approx(136.5, rel=0.01)
    assert smarco.memory.total_bytes == 64 * GB
    assert xeon.cores == 24 and xeon.total_hw_threads == 48
    assert xeon.llc_bytes == 60 * MB
    assert xeon.memory_bandwidth_gbps == 85.0
