"""Functional-kernel tests for the HTC benchmarks that have one."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads import kmp, rnc, wordcount
from repro.workloads.datasets import (
    low_entropy_string,
    rnc_events,
    synthetic_text,
)


class TestWordcount:
    def test_counts(self):
        assert wordcount.wordcount("a b a") == {"a": 2, "b": 1}

    def test_map_reduce_agree_with_reference(self):
        text = synthetic_text(300, seed=1)
        pairs = wordcount.map_fn(text)
        grouped = {}
        for word, one in pairs:
            grouped.setdefault(word, []).append(one)
        reduced = dict(wordcount.reduce_fn(w, vs) for w, vs in grouped.items())
        assert reduced == wordcount.wordcount(text)


class TestKmp:
    def test_overlapping_matches(self):
        assert kmp.kmp_search("abababa", "aba") == [0, 2, 4]

    def test_no_match(self):
        assert kmp.kmp_search("aaaa", "b") == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(WorkloadError):
            kmp.failure_table("")

    @given(st.text(alphabet="ab", max_size=120),
           st.text(alphabet="ab", min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference(self, text, pattern):
        ref = [i for i in range(len(text) - len(pattern) + 1)
               if text[i:i + len(pattern)] == pattern]
        assert kmp.kmp_search(text, pattern) == ref

    def test_python_and_asm_kernels_agree(self):
        """Cross-validate the Python KMP against the ISA machine's."""
        from repro.isa import Machine
        from repro.isa.programs import (
            kmp_failure_table, kmp_search_program, load_words)

        text = low_entropy_string(300, seed=7)
        pattern = "acgt"
        machine = Machine(kmp_search_program())
        machine.memory.write_bytes(0x1000, text.encode())
        machine.memory.write_bytes(0x4000, pattern.encode())
        load_words(machine.memory, 0x5000, kmp_failure_table(pattern.encode()))
        machine.write_reg(1, 0x1000)
        machine.write_reg(2, len(text))
        machine.write_reg(3, 0x4000)
        machine.write_reg(4, len(pattern))
        machine.write_reg(5, 0x5000)
        machine.run()
        assert machine.read_reg(10) == kmp.kmp_count(text, pattern)

    def test_mapreduce_rebases_offsets(self):
        text = "xabxxabx"
        half = len(text) // 2
        out0 = kmp.map_fn((text[:half], "ab", 0))
        out1 = kmp.map_fn((text[half:], "ab", half))
        _, merged = kmp.reduce_fn("ab", [out0[0][1], out1[0][1]])
        assert merged == kmp.kmp_search(text, "ab")


class TestRnc:
    def test_event_validation(self):
        with pytest.raises(WorkloadError):
            rnc.ConnectionEvent(arrival=10, work_cycles=5, deadline=10)
        with pytest.raises(WorkloadError):
            rnc.ConnectionEvent(arrival=0, work_cycles=0, deadline=10)

    def test_make_tasks_priorities(self):
        events = rnc.default_events(20, seed=8)
        tasks = rnc.make_tasks(events, high_priority_fraction=0.1)
        from repro.sched import TaskPriority

        assert sum(1 for t in tasks if t.priority is TaskPriority.HIGH) == 2
        assert len(tasks) == 20

    def test_serial_processor_meets_when_lightly_loaded(self):
        events = [rnc.ConnectionEvent(arrival=i * 1000.0, work_cycles=100,
                                      deadline=i * 1000.0 + 10_000)
                  for i in range(10)]
        met, missed = rnc.process_serial(events)
        assert (met, missed) == (10, 0)

    def test_serial_processor_misses_under_overload(self):
        events = [rnc.ConnectionEvent(arrival=0.0, work_cycles=10_000,
                                      deadline=15_000)
                  for _ in range(10)]
        met, missed = rnc.process_serial(events)
        assert missed > 0

    def test_map_reduce_totals(self):
        events = rnc.default_events(30, seed=9)
        half = len(events) // 2
        pairs = rnc.map_fn(events[:half]) + rnc.map_fn(events[half:])
        grouped = {}
        for k, v in pairs:
            grouped.setdefault(k, []).append(v)
        totals = dict(rnc.reduce_fn(k, vs) for k, vs in grouped.items())
        assert totals["met"] + totals["missed"] == 30


class TestDatasets:
    def test_synthetic_text_deterministic(self):
        assert synthetic_text(50, seed=1) == synthetic_text(50, seed=1)
        assert synthetic_text(50, seed=1) != synthetic_text(50, seed=2)

    def test_rnc_events_monotone_arrivals(self):
        events = rnc_events(50, seed=1)
        arrivals = [a for a, _, _ in events]
        assert arrivals == sorted(arrivals)
        assert all(d - a == pytest.approx(340_000) for a, _, d in events)
