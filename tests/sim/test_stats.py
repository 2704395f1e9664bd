"""Unit and property tests for the statistics primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    Accumulator,
    Counter,
    Histogram,
    StatsRegistry,
    StatsScope,
    TimeWeighted,
    nest_flat_stats,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("hits")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_reset(self):
        c = Counter("hits")
        c.inc(3)
        c.reset()
        assert c.value == 0

    def test_snapshot(self):
        c = Counter("hits")
        c.inc(2)
        assert c.snapshot() == {"hits": 2}


class TestAccumulator:
    def test_empty(self):
        a = Accumulator("lat")
        assert a.mean == 0.0 and a.count == 0 and a.stddev == 0.0

    def test_mean_min_max(self):
        a = Accumulator("lat")
        for v in [2.0, 4.0, 6.0]:
            a.add(v)
        assert a.mean == pytest.approx(4.0)
        assert a.min == 2.0 and a.max == 6.0 and a.total == 12.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_matches_reference_statistics(self, samples):
        a = Accumulator("x")
        for s in samples:
            a.add(s)
        ref_mean = sum(samples) / len(samples)
        assert a.mean == pytest.approx(ref_mean, rel=1e-9, abs=1e-6)
        assert a.min == min(samples) and a.max == max(samples)
        ref_var = sum((s - ref_mean) ** 2 for s in samples) / len(samples)
        assert a.variance == pytest.approx(ref_var, rel=1e-6, abs=1e-3)


class TestHistogram:
    def test_binning(self):
        h = Histogram("gran", [2, 4, 8])
        for size, expected_bin in [(1, 0), (2, 0), (3, 1), (4, 1), (8, 2), (9, 3)]:
            h.add(size)
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6

    def test_fractions_sum_to_one(self):
        h = Histogram("g", [2, 4])
        for v in [1, 3, 5, 7]:
            h.add(v)
        assert sum(h.fractions()) == pytest.approx(1.0)

    def test_weighted_add(self):
        h = Histogram("g", [10])
        h.add(5, weight=3)
        assert h.counts == [3, 0] and h.count == 3

    def test_mean(self):
        h = Histogram("g", [10])
        h.add(4)
        h.add(8)
        assert h.mean == pytest.approx(6.0)

    def test_labels(self):
        h = Histogram("g", [2, 4])
        assert h.bin_labels() == ["<=2", "(2,4]", ">4"]

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", [4, 2])

    @given(st.lists(st.integers(1, 64), min_size=1, max_size=100))
    def test_total_count_conserved(self, samples):
        h = Histogram("g", [2, 4, 8, 16, 32])
        for s in samples:
            h.add(s)
        assert h.count == len(samples)
        assert sum(h.counts) == len(samples)


class TestTimeWeighted:
    def test_constant_level(self):
        tw = TimeWeighted("util", initial=0.5)
        assert tw.average(10) == pytest.approx(0.5)

    def test_step_change(self):
        tw = TimeWeighted("util")
        tw.set(1.0, 5)       # 0 for [0,5), 1 for [5,10)
        assert tw.average(10) == pytest.approx(0.5)

    def test_adjust_tracks_max(self):
        tw = TimeWeighted("q")
        tw.adjust(+3, 2)
        tw.adjust(-1, 4)
        assert tw.level == 2 and tw.max_level == 3

    def test_time_must_not_go_backwards(self):
        tw = TimeWeighted("q")
        tw.set(1, 5)
        with pytest.raises(ValueError):
            tw.set(2, 3)


class TestStatsRegistry:
    def test_register_and_dump(self):
        reg = StatsRegistry()
        c = reg.counter("core0.instrs")
        h = reg.histogram("core0.gran", [4])
        c.inc(7)
        h.add(2)
        dump = reg.dump()
        assert dump["core0.instrs"] == 7
        assert dump["core0.gran.count"] == 1

    def test_duplicate_name_rejected(self):
        reg = StatsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.counter("x")

    def test_contains_and_names(self):
        reg = StatsRegistry()
        reg.counter("b")
        reg.accumulator("a")
        assert "a" in reg and "b" in reg
        assert reg.names() == ["a", "b"]

    def test_get(self):
        reg = StatsRegistry()
        c = reg.counter("x")
        assert reg.get("x") is c


class TestNestedDump:
    def test_nest_splits_dotted_names(self):
        nested = nest_flat_stats({
            "chip.subring0.mact.requests_in": 5,
            "chip.subring0.mact.batches_out": 2,
            "chip.noc.delivered": 9,
        })
        assert nested == {
            "chip": {
                "subring0": {"mact": {"requests_in": 5, "batches_out": 2}},
                "noc": {"delivered": 9},
            }
        }

    def test_histogram_bin_labels_stay_atomic(self):
        # "(2,4.5]" contains a dot that must not split into path segments
        nested = nest_flat_stats({
            "chip.gran.count": 3,
            "chip.gran[<=2]": 0.5,
            "chip.gran[(2,4.5]]": 0.5,
        })
        chip = nested["chip"]
        assert chip["gran"] == {"count": 3}
        assert chip["gran[<=2]"] == 0.5 and chip["gran[(2,4.5]]"] == 0.5

    def test_leaf_and_prefix_collision_uses_value_key(self):
        # "lat" is both a scalar and a prefix of "lat.count" — order-independent
        for flat in ({"a.lat": 1.0, "a.lat.count": 2},
                     {"a.lat.count": 2, "a.lat": 1.0}):
            nested = nest_flat_stats(dict(flat))
            assert nested["a"]["lat"] == {"_value": 1.0, "count": 2}

    def test_registry_dump_nests_by_component_path(self):
        reg = StatsRegistry()
        reg.counter("chip.core0.retired").inc(11)
        reg.counter("chip.noc.delivered").inc(3)
        nested = nest_flat_stats(reg.dump())
        assert nested["chip"]["core0"]["retired"] == 11
        assert nested["chip"]["noc"]["delivered"] == 3


class TestStatsScope:
    def test_counter_registers_under_prefix(self):
        reg = StatsRegistry()
        scope = reg.scope("chip.subring0.mact")
        c = scope.counter("requests_in")
        c.inc(4)
        assert reg.dump()["chip.subring0.mact.requests_in"] == 4
        assert c.name == "chip.subring0.mact.requests_in"

    def test_nested_scopes_compose(self):
        reg = StatsRegistry()
        chip = StatsScope(reg, "chip")
        mact = chip.scope("subring1").scope("mact")
        assert mact.qualify("x") == "chip.subring1.mact.x"
        mact.accumulator("latency").add(2.0)
        assert reg.dump()["chip.subring1.mact.latency.mean"] == 2.0

    def test_empty_prefix_is_transparent(self):
        reg = StatsRegistry()
        scope = StatsScope(reg)
        scope.counter("free").inc()
        assert reg.dump()["free"] == 1

    def test_register_qualifies_external_stat(self):
        reg = StatsRegistry()
        scope = reg.scope("mem")
        h = Histogram("gran", [4])
        scope.register(h)
        h.add(3)
        assert h.name == "mem.gran"
        assert reg.dump()["mem.gran.count"] == 1

    def test_scope_collisions_still_rejected(self):
        reg = StatsRegistry()
        reg.scope("chip").counter("x")
        with pytest.raises(ValueError):
            reg.scope("chip").counter("x")
