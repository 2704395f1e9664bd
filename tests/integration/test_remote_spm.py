"""Chip-level remote-SPM access tests (paper §3.5.1: "SPM ... can also be
shared among cores in sub-ring")."""

import pytest

from repro.chip import SmarCoChip
from repro.config import smarco_scaled
from repro.core import CoreInstr


def make_chip():
    return SmarCoChip(smarco_scaled(2, 4), seed=2)


def spm_loads(chip, requester: int, owner: int, n=10):
    """Loads from `requester`'s perspective to `owner`'s SPM."""
    base = chip.spms[owner].base_addr
    return iter([CoreInstr("load", addr=base + i * 8, size=8)
                 for i in range(n)])


def run_thread_on(chip, core_id, stream):
    # place explicitly: bypass the balancer by adding directly
    hw = chip.cores[core_id].add_thread(stream, name="probe")
    chip._loaded = True
    chip.cores[core_id].start()
    chip.sim.run()
    return hw


def test_local_spm_access_stays_on_core():
    chip = make_chip()
    run_thread_on(chip, 0, spm_loads(chip, 0, owner=0))
    assert chip.cores[0].spm_hits.value == 10
    assert chip.noc.delivered.value == 0          # nothing on the wires


def test_remote_spm_access_rides_the_ring():
    chip = make_chip()
    # core 0 reads core 2's SPM (same sub-ring)
    run_thread_on(chip, 0, spm_loads(chip, 0, owner=2))
    assert chip.cores[0].spm_hits.value == 0
    assert chip.noc.delivered.value >= 10          # request + reply legs
    assert chip.memory.total_requests == 0         # never touches DRAM


def test_remote_spm_slower_than_local():
    local_chip = make_chip()
    hw_local = run_thread_on(local_chip, 0,
                             spm_loads(local_chip, 0, owner=0))
    remote_chip = make_chip()
    hw_remote = run_thread_on(remote_chip, 0,
                              spm_loads(remote_chip, 0, owner=2))
    assert hw_remote.finish_time > hw_local.finish_time


def test_cross_ring_spm_access_crosses_main_ring():
    chip = make_chip()
    # core 0 (ring 0) reads core 5's SPM (ring 1)
    run_thread_on(chip, 0, spm_loads(chip, 0, owner=5))
    assert chip.noc.main_ring.total_bytes() > 0


def test_remote_spm_write_is_posted():
    chip = make_chip()
    base = chip.spms[2].base_addr
    stores = iter([CoreInstr("store", addr=base + i * 8, size=8)
                   for i in range(10)])
    hw = run_thread_on(chip, 0, stores)
    assert hw.finish_time is not None
    # posted writes: the thread finished long before a blocking
    # round-trip per store would allow
    assert hw.finish_time < 10 * 20
