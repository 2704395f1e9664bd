"""The content-addressed result cache.

The satellite requirement: same spec twice => second run is all cache
hits with bit-identical stats; a changed seed or config => miss.
"""

import pytest

from repro.config import smarco_scaled
from repro.exp import (
    ExperimentSpec,
    ResultCache,
    Runner,
    RunRequest,
    code_version,
    request_key,
)

FAST = RunRequest(kind="smarco", workload="kmp",
                  smarco_config=smarco_scaled(1, 4),
                  threads_per_core=4, instrs_per_thread=60)


class TestKeying:
    def test_same_request_same_key(self):
        assert request_key(FAST) == request_key(FAST.replace())

    def test_seed_changes_key(self):
        assert request_key(FAST) != request_key(FAST.replace(seed=1))

    def test_config_changes_key(self):
        other = FAST.replace(smarco_config=smarco_scaled(2, 4))
        assert request_key(FAST) != request_key(other)

    def test_code_version_changes_key(self):
        assert (request_key(FAST, "aaaa")
                != request_key(FAST, "bbbb"))

    def test_code_version_is_stable_per_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"result": {"x": 1.5}, "stats": {"a.count": 2}}
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, payload)
        assert key in cache
        assert cache.get(key) == payload
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_torn_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"ok": True})
        cache._path(key).write_text("{not json")
        with pytest.warns(RuntimeWarning, match="unreadable result cache"):
            assert cache.get(key) is None

    def test_corrupt_entries_counted_and_warned_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [f"e{i}" + str(i) * 62 for i in range(2)]
        for key in keys:
            cache.put(key, {"ok": True})
            cache._path(key).write_text("")
        assert cache.get("ff" + "2" * 62) is None      # plain miss
        assert cache.corrupt == 0
        with pytest.warns(RuntimeWarning) as seen:
            assert [cache.get(key) for key in keys] == [None, None]
        assert len(seen) == 1
        assert cache.corrupt == 2


class TestCachedSweeps:
    @pytest.fixture
    def spec(self):
        return ExperimentSpec.grid("cache-sweep", FAST,
                                   workload=["kmp", "wordcount"],
                                   seed=[0, 1])

    def test_second_run_all_hits_bit_identical(self, tmp_path, spec):
        runner = Runner(workers=1, base_dir=tmp_path)
        cold = runner.run(spec)
        warm = runner.run(spec)
        assert cold.misses == spec.n_points and cold.hits == 0
        assert warm.hits == spec.n_points and warm.misses == 0
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert a.stats == b.stats          # bit-identical stats
            assert a.result == b.result
            assert a.request == b.request

    def test_changed_seed_misses(self, tmp_path, spec):
        runner = Runner(workers=1, base_dir=tmp_path)
        runner.run(spec)
        shifted = ExperimentSpec.grid("cache-sweep", FAST,
                                      workload=["kmp", "wordcount"],
                                      seed=[2, 3])
        again = runner.run(shifted)
        assert again.hits == 0 and again.misses == shifted.n_points

    def test_changed_config_misses(self, tmp_path):
        runner = Runner(workers=1, base_dir=tmp_path)
        one = ExperimentSpec.grid("c", FAST, seed=[0])
        runner.run(one)
        bigger = ExperimentSpec.grid(
            "c", FAST.replace(smarco_config=smarco_scaled(2, 4)), seed=[0])
        assert runner.run(bigger).misses == 1

    def test_code_version_invalidates(self, tmp_path, spec):
        old = Runner(workers=1, base_dir=tmp_path, version="v-old")
        new = Runner(workers=1, base_dir=tmp_path, version="v-new")
        old.run(spec)
        assert old.run(spec).hits == spec.n_points
        assert new.run(spec).hits == 0

    def test_use_cache_false_always_simulates(self, tmp_path, spec):
        runner = Runner(workers=1, base_dir=tmp_path, use_cache=False)
        assert runner.run(spec).misses == spec.n_points
        assert runner.run(spec).misses == spec.n_points
