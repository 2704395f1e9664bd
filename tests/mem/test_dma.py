"""DMA engine tests."""

import pytest

from repro.errors import MemoryError_
from repro.mem import DmaEngine, Scratchpad
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    dma = DmaEngine(sim, bytes_per_cycle=32, setup_latency=8)
    src, dst = Scratchpad(0), Scratchpad(1)
    return sim, dma, src, dst


def test_copy_moves_payload():
    sim, dma, src, dst = make_pair()
    proc = dma.copy(src, dst, src.base_addr, dst.base_addr + 64, 12)
    sim.run()
    assert proc.finished and proc.result == 12
    assert dma.bytes_moved.value == 12
    assert src.reads.value == 1 and dst.writes.value == 1


def test_transfer_time_scales_with_size():
    sim, dma, src, dst = make_pair()
    assert dma.transfer_cycles(32) == 8 + 1
    assert dma.transfer_cycles(33) == 8 + 2
    assert dma.transfer_cycles(3200) == 8 + 100


def test_copy_completion_time():
    sim, dma, src, dst = make_pair()
    dma.copy(src, dst, src.base_addr, dst.base_addr, 64)
    sim.run()
    assert sim.now == dma.transfer_cycles(64)


def test_prefetch_fill_completion_time():
    sim, dma, _, dst = make_pair()
    dma.prefetch_fill(dst, dst.base_addr, 64)
    sim.run()
    assert sim.now == dma.transfer_cycles(64)


def test_engine_serialises_back_to_back_transfers():
    sim, dma, _, dst = make_pair()
    first = dma.prefetch_fill(dst, dst.base_addr, 32)
    second = dma.prefetch_fill(dst, dst.base_addr + 32, 32)
    done = []
    for proc in (first, second):
        proc.done_signal.wait(lambda size: done.append(sim.now))
    sim.run()
    assert done == [dma.transfer_cycles(32), 2 * dma.transfer_cycles(32)]
    assert dma.queue_wait.total == dma.transfer_cycles(32)


def test_prefetch_fill_writes_instruction_segment():
    sim, dma, _, dst = make_pair()
    dma.prefetch_fill(dst, dst.base_addr + 256, 64)
    sim.run()
    assert dst.writes.value == 1
    assert dma.transfers.value == 1 and dma.bytes_moved.value == 64


def test_zero_size_rejected():
    sim, dma, src, dst = make_pair()
    with pytest.raises(MemoryError_):
        dma.copy(src, dst, src.base_addr, dst.base_addr, 0)
    with pytest.raises(MemoryError_):
        dma.prefetch_fill(dst, dst.base_addr, 0)


def test_out_of_range_fill_rejected():
    sim, dma, src, dst = make_pair()
    with pytest.raises(MemoryError_):
        dma.prefetch_fill(dst, dst.base_addr + dst.size_bytes - 8, 16)
    with pytest.raises(MemoryError_):
        dma.prefetch_fill(dst, src.base_addr, 16)      # another core's SPM
    assert sim.pending() == 0


def test_bad_bandwidth_rejected():
    with pytest.raises(MemoryError_):
        DmaEngine(Simulator(), bytes_per_cycle=0)
