"""Scratchpad and address-map tests."""

import pytest

from repro.errors import MemoryError_
from repro.mem import SPM_REGION_BASE, DmaEngine, Scratchpad, SpmAddressMap
from repro.sim import Simulator


class TestScratchpad:
    def test_default_base_address_is_per_core(self):
        s0 = Scratchpad(0)
        s1 = Scratchpad(1)
        assert s0.base_addr == SPM_REGION_BASE
        assert s1.base_addr == SPM_REGION_BASE + s0.size_bytes

    def test_out_of_range_raises(self):
        spm = Scratchpad(0)
        spm.check_range(spm.base_addr, spm.size_bytes)
        with pytest.raises(MemoryError_):
            spm.check_range(spm.base_addr - 1, 1)
        with pytest.raises(MemoryError_):
            spm.check_range(spm.base_addr + spm.size_bytes - 2, 4)  # straddles end

    def test_data_capacity_excludes_control(self):
        spm = Scratchpad(0, size_bytes=128 * 1024)
        assert spm.data_bytes == 128 * 1024 - 256

    def test_control_window_must_fit(self):
        with pytest.raises(MemoryError_):
            Scratchpad(0, size_bytes=128, control_bytes=256)

    def test_stats_counted(self):
        # a DMA copy reads its source SPM once and writes its target once
        sim = Simulator()
        src, dst = Scratchpad(0), Scratchpad(1)
        DmaEngine(sim).copy(src, dst, src.base_addr, dst.base_addr, 8)
        sim.run()
        assert src.reads.value == 1 and src.writes.value == 0
        assert dst.reads.value == 0 and dst.writes.value == 1


class TestSpmAddressMap:
    def make_map(self, n=4):
        spms = {i: Scratchpad(i) for i in range(n)}
        return spms, SpmAddressMap(spms)

    def test_route_local_remote_mem(self):
        spms, amap = self.make_map()
        addr0 = spms[0].base_addr + 8
        assert amap.route(addr0, core_id=0) == "spm-local"
        assert amap.route(addr0, core_id=1) == "spm-remote"
        assert amap.route(0x1000, core_id=0) == "mem"

    def test_owner_of(self):
        spms, amap = self.make_map()
        assert amap.owner_of(spms[2].base_addr) is spms[2]
        assert amap.owner_of(0x100) is None
        # region hole past the last SPM
        end = spms[3].base_addr + spms[3].size_bytes
        assert amap.owner_of(end) is None

    def test_spm_lookup(self):
        spms, amap = self.make_map()
        assert amap.spm(3) is spms[3]
        assert len(amap) == 4

    def test_empty_map(self):
        amap = SpmAddressMap({})
        assert amap.owner_of(SPM_REGION_BASE) is None
        assert amap.route(SPM_REGION_BASE, 0) == "mem"

    def test_non_uniform_layout_falls_back_to_search(self):
        """Custom base addresses disable the O(1) shift lookup; the map
        must still resolve owners correctly by searching."""
        spms = {
            0: Scratchpad(0, base_addr=SPM_REGION_BASE),
            1: Scratchpad(1, base_addr=SPM_REGION_BASE + (1 << 24)),
        }
        amap = SpmAddressMap(spms)
        assert amap._uniform_size is None
        assert amap.owner_of(spms[0].base_addr + 8) is spms[0]
        assert amap.owner_of(spms[1].base_addr + 8) is spms[1]
        # a hole between the two regions belongs to nobody
        assert amap.owner_of(SPM_REGION_BASE + (1 << 23)) is None
