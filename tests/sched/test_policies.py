"""Scheduling policy and testbed tests (paper §3.7, Fig 21)."""

import pytest

from repro.errors import SchedulerError
from repro.sched import (
    DeadlineScheduler,
    FifoScheduler,
    LaxityScheduler,
    MainScheduler,
    SchedulerTestbed,
    Task,
    TaskPriority,
    create_policy,
)
from repro.sim import RngTree, Simulator


def rnc_tasks(n=64, deadline=340_000, seed=0):
    """RNC-like task set: same deadline, varied work (paper Fig 21 setup)."""
    rng = RngTree(seed).stream("tasks")
    return [Task(work_cycles=rng.uniform(60_000, 160_000), deadline=deadline)
            for _ in range(n)]


class TestLaxityScheduler:
    def test_least_slack_first(self):
        s = LaxityScheduler()
        short = Task(work_cycles=10, deadline=340)
        long = Task(work_cycles=300, deadline=340)
        s.submit(short)
        s.submit(long)
        assert s.next_task() is long

    def test_high_priority_preempts_normal_ordering(self):
        s = LaxityScheduler()
        normal = Task(work_cycles=300, deadline=340)
        high = Task(work_cycles=10, deadline=340, priority=TaskPriority.HIGH)
        s.submit(normal)
        s.submit(high)
        assert s.next_task() is high

    def test_pending_counts_both_tables(self):
        s = LaxityScheduler()
        s.submit(Task(work_cycles=1, deadline=10))
        s.submit(Task(work_cycles=1, deadline=10, priority=TaskPriority.HIGH))
        assert s.pending == 2

    def test_empty_returns_none(self):
        assert LaxityScheduler().next_task() is None

    def test_null_chain_tracks_free_contexts(self):
        """Fig 16's third table: free thread contexts in FIFO order."""
        s = LaxityScheduler()
        assert s.free_contexts == 0 and s.acquire_context() is None
        s.release_context(3)
        s.release_context(7)
        assert s.free_contexts == 2
        assert s.acquire_context() == 3          # FIFO
        assert s.acquire_context() == 7

    def test_assign_pairs_context_with_best_task(self):
        s = LaxityScheduler()
        long = Task(work_cycles=300, deadline=340)
        short = Task(work_cycles=10, deadline=340)
        s.submit(short)
        s.submit(long)
        assert s.assign() is None                # no free contexts yet
        s.release_context(0)
        ctx, task = s.assign()
        assert ctx == 0 and task is long         # least slack dispatched
        assert s.assign() is None                # context chain drained


class TestDeadlineScheduler:
    def test_edf_order(self):
        s = DeadlineScheduler()
        late = Task(work_cycles=10, deadline=500)
        early = Task(work_cycles=10, deadline=100)
        s.submit(late)
        s.submit(early)
        assert s.next_task() is early

    def test_fifo_tie_break(self):
        s = DeadlineScheduler()
        first = Task(work_cycles=10, deadline=100, arrival=0)
        second = Task(work_cycles=10, deadline=100, arrival=1)
        s.submit(second)
        s.submit(first)
        assert s.next_task() is first

    def test_software_overhead_larger_than_hardware(self):
        assert DeadlineScheduler.decision_overhead > LaxityScheduler.decision_overhead


class TestFactory:
    def test_make_each_policy(self):
        assert isinstance(create_policy("laxity"), LaxityScheduler)
        assert isinstance(create_policy("deadline"), DeadlineScheduler)
        assert isinstance(create_policy("fifo"), FifoScheduler)

    def test_unknown_policy(self):
        with pytest.raises(SchedulerError):
            create_policy("lottery")


class TestMainScheduler:
    def test_least_loaded_balances(self):
        subs = [LaxityScheduler(f"s{i}") for i in range(4)]
        main = MainScheduler(subs)
        for _ in range(16):
            main.dispatch(Task(work_cycles=10, deadline=100))
        assert main.dispatched_to == [4, 4, 4, 4]
        assert main.imbalance() == pytest.approx(1.0)

    def test_round_robin(self):
        subs = [LaxityScheduler(f"s{i}") for i in range(3)]
        main = MainScheduler(subs, policy="round-robin")
        rings = [main.dispatch(Task(work_cycles=10, deadline=100))
                 for _ in range(6)]
        assert rings == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_empty_ring(self):
        subs = [LaxityScheduler(f"s{i}") for i in range(2)]
        subs[0].submit(Task(work_cycles=10, deadline=100))
        main = MainScheduler(subs)
        assert main.dispatch(Task(work_cycles=10, deadline=100)) == 1

    def test_validation(self):
        with pytest.raises(SchedulerError):
            MainScheduler([])
        with pytest.raises(SchedulerError):
            MainScheduler([LaxityScheduler()], policy="chaotic")


class TestTestbed:
    def test_single_context_serialises(self):
        sim = Simulator()
        bed = SchedulerTestbed(sim, FifoScheduler(), contexts=1)
        bed.submit_all([Task(work_cycles=100, deadline=10_000) for _ in range(3)])
        result = bed.run()
        times = sorted(result.exit_times)
        assert len(times) == 3
        assert times[1] - times[0] >= 100       # back-to-back, not parallel

    def test_parallel_contexts_overlap(self):
        sim = Simulator()
        bed = SchedulerTestbed(sim, FifoScheduler(), contexts=4)
        bed.submit_all([Task(work_cycles=100, deadline=10_000) for _ in range(4)])
        result = bed.run()
        assert result.spread == 0               # identical tasks, 4 contexts

    def test_success_rate(self):
        sim = Simulator()
        bed = SchedulerTestbed(sim, FifoScheduler(), contexts=1)
        bed.submit_all([Task(work_cycles=100, deadline=150),
                        Task(work_cycles=100, deadline=150)])
        result = bed.run()
        assert result.success_rate == pytest.approx(0.5)

    def test_empty_run(self):
        sim = Simulator()
        bed = SchedulerTestbed(sim, FifoScheduler(), contexts=2)
        result = bed.run()
        assert result.exit_times == [] and result.spread == 0

    def test_zero_contexts_rejected(self):
        with pytest.raises(SchedulerError):
            SchedulerTestbed(Simulator(), FifoScheduler(), contexts=0)


class TestFig21Shape:
    """The paper's Fig 21 comparison: hardware laxity scheduling tightens
    the exit-time spread and improves the deadline success rate versus
    the software Deadline scheduler."""

    def run_policy(self, scheduler, n_tasks=128, contexts=64):
        sim = Simulator()
        bed = SchedulerTestbed(sim, scheduler, contexts=contexts)
        bed.submit_all(rnc_tasks(n_tasks))
        return bed.run()

    def test_laxity_tightens_exit_spread(self):
        edf = self.run_policy(DeadlineScheduler())
        lax = self.run_policy(LaxityScheduler())
        assert lax.spread < edf.spread

    def test_laxity_success_rate_at_least_edf(self):
        edf = self.run_policy(DeadlineScheduler())
        lax = self.run_policy(LaxityScheduler())
        assert lax.success_rate >= edf.success_rate

    def test_edf_earliest_exit_before_laxity(self):
        """Paper: 'the execution time of the earliest exit thread is
        greater than that of the left figure' — EDF lets short tasks out
        early; laxity holds them back."""
        edf = self.run_policy(DeadlineScheduler())
        lax = self.run_policy(LaxityScheduler())
        assert edf.earliest < lax.earliest
