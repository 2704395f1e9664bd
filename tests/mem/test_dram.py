"""DRAM channel / memory controller tests."""

import pytest

from repro.config import MemoryConfig
from repro.mem import DramChannel, MemRequest, MemorySystem
from repro.sim import Simulator


def make_channel(**kwargs):
    return DramChannel(0, MemoryConfig(**kwargs))


class TestDramChannel:
    def test_row_miss_then_hit(self):
        ch = make_channel()
        cfg = ch.config
        t1 = ch.access(0x0, 64, now=0)
        assert t1 >= cfg.row_miss_latency          # cold row
        t2 = ch.access(0x40, 64, now=t1)           # same 2KB row
        assert t2 - t1 < cfg.row_miss_latency
        assert ch.row_hit_ratio == pytest.approx(0.5)

    def test_bank_conflict_serialises(self):
        ch = make_channel(banks_per_channel=1)
        t1 = ch.access(0x0, 64, now=0)
        # different row, same (only) bank: must wait for the first access
        t2 = ch.access(0x10000, 64, now=0)
        assert t2 > t1

    def test_different_banks_overlap(self):
        ch = make_channel(banks_per_channel=16)
        t1 = ch.access(0x0, 8, now=0)              # bank 0
        t2 = ch.access(2048, 8, now=0)             # bank 1 (next row)
        # bank access overlaps; only the narrow data burst serialises
        assert t2 - t1 < ch.config.row_miss_latency

    def test_bus_serialises_large_transfers(self):
        ch = make_channel()
        big = 4096
        t1 = ch.access(0, big, now=0)
        t2 = ch.access(2048, big, now=0)
        burst = big / ch.bytes_per_cycle
        assert t2 >= t1 + burst * 0.99

    def test_bandwidth_accounting(self):
        ch = make_channel()
        ch.access(0, 64, now=0)
        assert ch.bytes_moved.value == 64
        assert 0 < ch.utilization(1000) <= 1.0

    def test_bytes_per_cycle_matches_paper_bandwidth(self):
        # 4 channels must aggregate to ~136.5 GB/s => each ~34.1GB/s
        # at 1.5GHz: ~22.75 B/cycle
        ch = DramChannel(0, MemoryConfig(), frequency_ghz=1.5)
        assert ch.bytes_per_cycle == pytest.approx(22.75, rel=0.01)


class TestMemorySystem:
    def test_interleaving_spreads_lines(self):
        sim = Simulator()
        system = MemorySystem(sim, MemoryConfig(channels=4))
        targets = {system.controller_for(i * 64).controller_id for i in range(4)}
        assert targets == {0, 1, 2, 3}

    def test_same_line_same_controller(self):
        sim = Simulator()
        system = MemorySystem(sim, MemoryConfig(channels=4))
        assert (system.controller_for(0x100).controller_id
                == system.controller_for(0x13F).controller_id)

    def test_submit_completes_request_via_sim(self):
        sim = Simulator()
        system = MemorySystem(sim, MemoryConfig(channels=2))
        done = []
        r = MemRequest(addr=0x40, size=64, is_write=False, issue_time=0,
                       on_complete=lambda req, t: done.append(t))
        finish = system.controller_for(r.addr).submit(r)
        sim.run()
        assert done == [finish]
        assert r.latency == finish

    def test_parallel_channels_increase_throughput(self):
        def run_with(channels):
            sim = Simulator()
            system = MemorySystem(sim, MemoryConfig(channels=channels))
            finish = 0.0
            for i in range(64):
                r = MemRequest(addr=i * 64, size=64, is_write=False)
                finish = max(finish,
                             system.controller_for(r.addr).submit(r))
            sim.run()
            return finish

        assert run_with(4) < run_with(1)

    def test_mean_latency_tracked(self):
        sim = Simulator()
        system = MemorySystem(sim, MemoryConfig(channels=1))
        for i in range(4):
            r = MemRequest(addr=i * 64, size=64, is_write=False)
            system.controller_for(r.addr).submit(r)
        sim.run()
        assert system.mean_latency() > 0
        assert system.total_requests == 4
        assert system.total_bytes == 256
