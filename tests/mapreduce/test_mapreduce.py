"""MapReduce framework tests (paper §3.6)."""

import pytest

from repro.config import smarco_scaled
from repro.errors import WorkloadError
from repro.mapreduce import (
    MapReduceJob,
    MapReduceRuntime,
    slice_sequence,
    slice_text,
    slices_for_chip,
)
from repro.workloads import wordcount
from repro.workloads.datasets import synthetic_text


class TestSlicing:
    def test_sequence_even_split(self):
        out = slice_sequence(list(range(10)), 3)
        assert [len(c) for c in out] == [4, 3, 3]
        assert sum(out, []) == list(range(10))

    def test_sequence_more_slices_than_items(self):
        out = slice_sequence([1, 2], 5)
        assert out == [[1], [2]]

    def test_sequence_empty(self):
        assert slice_sequence([], 4) == []

    def test_sequence_bad_slices(self):
        with pytest.raises(WorkloadError):
            slice_sequence([1], 0)

    def test_text_preserves_words(self):
        text = synthetic_text(200, seed=0)
        chunks = slice_text(text, 8)
        assert " ".join(chunks).split() == text.split()
        assert all(not c[0].isspace() or True for c in chunks)

    def test_text_word_never_split(self):
        text = "alpha beta gamma delta epsilon zeta"
        for n in (2, 3, 4):
            words = []
            for chunk in slice_text(text, n):
                words.extend(chunk.split())
            assert words == text.split()

    def test_slices_for_chip(self):
        # 2 sub-rings x 4 cores x 4 threads = 32 max
        assert slices_for_chip(1000, 2, 4) == 32
        assert slices_for_chip(5, 2, 4) == 5
        assert slices_for_chip(0, 2, 4) == 1


class TestRuntimeConstruction:
    def test_default_ring_split(self):
        rt = MapReduceRuntime(smarco_scaled(4))
        assert rt.map_sub_rings == [0, 1, 2]
        assert rt.reduce_sub_rings == [3]

    def test_single_subring_shares(self):
        rt = MapReduceRuntime(smarco_scaled(1))
        assert rt.map_sub_rings == [0] and rt.reduce_sub_rings == [0]

    def test_invalid_rings_rejected(self):
        with pytest.raises(WorkloadError):
            MapReduceRuntime(smarco_scaled(2), map_sub_rings=[5])


class TestWordcountJob:
    def make_job(self):
        return MapReduceJob("wordcount", wordcount.map_fn, wordcount.reduce_fn)

    def test_output_matches_reference(self):
        text = synthetic_text(400, seed=3)
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=False)
        result = rt.run(self.make_job(), slice_text(text, 16))
        assert result.output == wordcount.wordcount(text)

    def test_placements_cover_both_stages(self):
        text = synthetic_text(100, seed=4)
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=False)
        result = rt.run(self.make_job(), slice_text(text, 8))
        stages = {p.stage for p in result.placements}
        assert stages == {"map", "reduce"}

    def test_map_tasks_on_map_rings_only(self):
        text = synthetic_text(100, seed=5)
        rt = MapReduceRuntime(smarco_scaled(4), simulate_timing=False)
        result = rt.run(self.make_job(), slice_text(text, 12))
        for p in result.placements:
            rings = rt.map_sub_rings if p.stage == "map" else rt.reduce_sub_rings
            assert p.sub_ring in rings

    def test_timing_present_when_enabled(self):
        text = synthetic_text(100, seed=6)
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=True)
        result = rt.run(self.make_job(), slice_text(text, 8))
        assert result.map_timing.cycles > 0
        assert result.reduce_timing.cycles > 0
        assert result.total_cycles == (result.map_timing.cycles
                                       + result.reduce_timing.cycles)

    def test_more_slices_do_not_change_answer(self):
        text = synthetic_text(300, seed=7)
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=False)
        job = self.make_job()
        out4 = rt.run(job, slice_text(text, 4)).output
        out32 = rt.run(job, slice_text(text, 32)).output
        assert out4 == out32

    def test_empty_input(self):
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=False)
        assert rt.run(self.make_job(), []).output == {}

    def test_shuffle_pairs_counted(self):
        text = "a b c a"
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=False)
        result = rt.run(self.make_job(), slice_text(text, 2))
        assert result.shuffle_pairs == 4


class TestSpmResidency:
    def test_small_tasks_are_spm_resident(self):
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=False,
                              bytes_per_item=64)
        job = MapReduceJob("wc", wordcount.map_fn, wordcount.reduce_fn)
        result = rt.run(job, ["tiny chunk"] * 4)
        assert all(p.spm_resident for p in result.placements
                   if p.stage == "map")

    def test_oversized_tasks_spill(self):
        rt = MapReduceRuntime(smarco_scaled(2), simulate_timing=False,
                              bytes_per_item=1 << 20)      # 1MB per item
        job = MapReduceJob("wc", wordcount.map_fn, wordcount.reduce_fn)
        result = rt.run(job, ["big big big chunk here now"])
        map_places = [p for p in result.placements if p.stage == "map"]
        assert any(not p.spm_resident for p in map_places)

    def test_spill_costs_more_time(self):
        job = MapReduceJob("wc", wordcount.map_fn, wordcount.reduce_fn)
        text_slices = ["word " * 50] * 8
        fast = MapReduceRuntime(smarco_scaled(2), bytes_per_item=8
                                ).run(job, text_slices)
        slow = MapReduceRuntime(smarco_scaled(2), bytes_per_item=1 << 20
                                ).run(job, text_slices)
        assert slow.map_timing.cycles > fast.map_timing.cycles
