"""SmarCo full-chip integration tests."""

import pytest

from repro.config import MACTConfig, RingConfig, SmarCoConfig, smarco_scaled
from repro.chip import SmarCoChip, execute
from repro.errors import ConfigError
from repro.exp import RunRequest
from repro.workloads import get_profile


def small_chip(**overrides):
    base = smarco_scaled(2, 4)
    cfg = SmarCoConfig(
        sub_rings=2, cores_per_sub_ring=4,
        memory=base.memory, **overrides,
    )
    return SmarCoChip(cfg, seed=1)


class TestConstruction:
    def test_geometry(self):
        chip = small_chip()
        assert len(chip.cores) == 8
        assert len(chip.macts) == 2
        assert len(chip.spms) == 8
        assert chip.noc.num_sub_rings == 2

    def test_ring_of_and_core_node(self):
        chip = small_chip()
        assert chip.ring_of(0) == 0 and chip.ring_of(5) == 1
        node = chip.core_node(5)
        assert node.ring == 1 and node.index == 1

    def test_run_requires_load(self):
        with pytest.raises(ConfigError):
            small_chip().run()

    def test_double_load_rejected(self):
        chip = small_chip()
        chip.load_profile(get_profile("kmp"), 2, 50)
        with pytest.raises(ConfigError):
            chip.load_profile(get_profile("kmp"), 2, 50)

    def test_too_many_threads_rejected(self):
        chip = small_chip()
        with pytest.raises(ConfigError):
            chip.load_profile(get_profile("kmp"), threads_per_core=9,
                              instrs_per_thread=10)


class TestExecution:
    def test_all_cores_complete(self):
        chip = small_chip()
        chip.load_profile(get_profile("wordcount"), threads_per_core=4,
                          instrs_per_thread=150)
        result = chip.run()
        assert result.cores_done == result.total_cores == 8
        assert result.instructions == 8 * 4 * 150
        assert result.cycles > 0

    def test_requests_flow_through_mact_to_memory(self):
        chip = small_chip()
        chip.load_profile(get_profile("kmp"), threads_per_core=4,
                          instrs_per_thread=200)
        result = chip.run()
        assert result.mem_requests > 0
        assert result.mem_transactions > 0
        assert chip.memory.total_requests > 0
        assert result.mean_request_latency > 0

    def test_mact_batches_at_least_some_requests(self):
        chip = small_chip()
        chip.load_profile(get_profile("kmp"), threads_per_core=8,
                          instrs_per_thread=300)
        result = chip.run()
        assert result.mact_request_reduction > 1.0

    def test_deterministic_across_seeds(self):
        def once():
            chip = SmarCoChip(smarco_scaled(2, 4), seed=7)
            chip.load_profile(get_profile("rnc"), 4, 100)
            return chip.run().cycles

        assert once() == once()

    def test_different_seed_differs(self):
        def once(seed):
            chip = SmarCoChip(smarco_scaled(2, 4), seed=seed)
            chip.load_profile(get_profile("rnc"), 4, 100)
            return chip.run().cycles

        assert once(1) != once(2)

    def test_max_cycles_horizon(self):
        chip = small_chip()
        chip.load_profile(get_profile("kmp"), 8, 5000)
        result = chip.run(max_cycles=500)
        assert result.cycles <= 500
        assert result.cores_done < result.total_cores

    def test_result_metrics_sane(self):
        result = execute(RunRequest(
            kind="smarco", workload="kmeans",
            smarco_config=smarco_scaled(2, 4), threads_per_core=4,
            instrs_per_thread=150)).result
        assert 0 < result.ipc
        assert 0 < result.utilization <= 1
        assert result.throughput_ips == pytest.approx(
            result.ipc * 1.5e9, rel=1e-6)
        assert 0 <= result.noc_bandwidth_utilization <= 1


class TestInPairBenefit:
    def test_eight_threads_beat_four_at_same_work(self):
        """In-pair threading (threads 5-8) must add throughput."""
        def tput(threads):
            chip = SmarCoChip(smarco_scaled(2, 4), seed=3)
            chip.load_profile(get_profile("kmp"), threads_per_core=threads,
                              instrs_per_thread=200)
            return chip.run().throughput_ips

        assert tput(8) > tput(4)


class TestDirectDatapath:
    def test_realtime_loads_use_direct_path(self):
        cfg = smarco_scaled(2, 4)
        chip = SmarCoChip(cfg, seed=1, realtime_fraction=0.5)
        chip.load_profile(get_profile("rnc"), 4, 200)
        chip.run()
        assert chip.direct is not None
        assert chip.direct.delivered.value > 0

    def test_direct_path_disabled_by_config(self):
        base = smarco_scaled(2, 4)
        cfg = SmarCoConfig(
            sub_rings=2, cores_per_sub_ring=4, memory=base.memory,
            ring=RingConfig(direct_datapath=False),
        )
        chip = SmarCoChip(cfg, seed=1, realtime_fraction=0.5)
        chip.load_profile(get_profile("rnc"), 4, 100)
        result = chip.run()
        assert chip.direct is None
        assert result.cores_done == 8      # still completes via the rings


class TestMactDisabled:
    def test_disabled_mact_sends_every_request_alone(self):
        base = smarco_scaled(2, 4)
        cfg = SmarCoConfig(
            sub_rings=2, cores_per_sub_ring=4, memory=base.memory,
            mact=MACTConfig(enabled=False),
        )
        chip = SmarCoChip(cfg, seed=1)
        chip.load_profile(get_profile("kmp"), 4, 200)
        result = chip.run()
        assert result.mact_request_reduction == pytest.approx(1.0)
