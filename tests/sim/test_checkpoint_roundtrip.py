"""Snapshot round-trip conformance (modeled on tests/sched/test_policy_api.py).

Three contracts, enforced for *every* registered participant so new
components and policies are covered the day they are registered:

* ``load_state(state_dict())`` is an identity for every component of a
  built-and-partly-run SmarCo chip and Xeon system;
* every registered scheduler policy round-trips its queue and context
  state through ``SchedulerPolicy.state_dict()``;
* the checkpoint container fails loudly on schema mismatch and
  format/code version skew instead of restoring garbage.
"""

import pytest

from repro.chip.session import RunSession
from repro.config import smarco_scaled
from repro.errors import (CheckpointError, CheckpointSchemaError,
                          CheckpointVersionError, ConfigError)
from repro.exp.request import RunRequest
from repro.sched import Task, TaskPriority, create_policy, list_policies
from repro.sim.rng import RngTree


def _smarco_request(**overrides):
    base = dict(kind="smarco", workload="kmp", seed=3,
                smarco_config=smarco_scaled(2), threads_per_core=4,
                instrs_per_thread=120)
    base.update(overrides)
    return RunRequest(**base)


def _partly_run_session(request, cycles):
    session = RunSession(request)
    session.run_to(cycles)
    return session


# -- component conformance ----------------------------------------------------


class TestComponentIdentity:
    """load_state(state_dict()) is an identity, component by component."""

    @pytest.fixture(scope="class")
    def smarco_session(self):
        return _partly_run_session(_smarco_request(), cycles=800)

    @pytest.fixture(scope="class")
    def xeon_session(self):
        return _partly_run_session(
            RunRequest(kind="xeon", workload="wordcount", seed=1,
                       xeon_threads=4, xeon_instrs_per_thread=2000),
            cycles=10_000)

    def _assert_identity(self, root):
        seen = 0
        for comp in root.walk():
            state = comp.state_dict()
            comp.load_state(state)
            again = comp.state_dict()
            assert again == state, f"{comp.path}: round-trip drifted"
            seen += 1
        return seen

    def test_every_smarco_component(self, smarco_session):
        assert self._assert_identity(smarco_session.system) > 10

    def test_every_xeon_component(self, xeon_session):
        assert self._assert_identity(xeon_session.system) > 2

    def test_simulator_state_roundtrip(self, smarco_session):
        sim = smarco_session.sim
        state = sim.state_dict()
        assert state["now"] == sim.now
        assert state["queue"], "a paused chip must have pending events"

    def test_rng_tree_roundtrip(self, smarco_session):
        rng = smarco_session.system.rng
        state = rng.state_dict()
        before = {name: stream.random()
                  for name, stream in rng.items()}
        rng.load_state(state)
        after = {name: stream.random() for name, stream in rng.items()}
        assert before == after


# -- scheduler policy conformance ---------------------------------------------


def _tasks(n=12, seed=0):
    rng = RngTree(seed).stream("ckpt.tasks")
    out = []
    for _ in range(n):
        pri = TaskPriority.HIGH if rng.random() < 0.3 else TaskPriority.NORMAL
        out.append(Task(work_cycles=rng.uniform(10_000, 90_000),
                        deadline=500_000.0, priority=pri,
                        payload={"criticality": rng.random()}))
    return out


@pytest.fixture(params=list_policies())
def policy_name(request):
    return request.param


class TestPolicyStateConformance:
    """Every registered policy must checkpoint its queues and contexts."""

    def _loaded_pair(self, policy_name):
        sched = create_policy(policy_name)
        for t in _tasks(12):
            sched.submit(t)
        for cid in range(4):
            sched.release_context(cid)
        sched.next_task()              # leave a partially drained queue
        sched.acquire_context()
        fresh = create_policy(policy_name)
        fresh.load_state(sched.state_dict())
        return sched, fresh

    def test_state_dict_roundtrip_identity(self, policy_name):
        sched, fresh = self._loaded_pair(policy_name)
        assert fresh.state_dict() == sched.state_dict()
        assert fresh.pending == sched.pending
        assert fresh.free_contexts == sched.free_contexts

    def test_loaded_policy_drains_identically(self, policy_name):
        sched, fresh = self._loaded_pair(policy_name)
        drain = lambda s: [s.next_task() for _ in range(s.pending)]  # noqa: E731
        assert drain(fresh) == drain(sched)

    def test_base_class_requires_queue_state(self):
        from repro.sched.policy import SchedulerPolicy

        class Bare(SchedulerPolicy):
            def _enqueue(self, task):      # pragma: no cover - unused
                pass

            def _select(self):             # pragma: no cover - unused
                return None

            @property
            def pending(self):
                return 0

        bare = Bare()
        with pytest.raises(NotImplementedError, match="_queue_state"):
            bare.state_dict()
        with pytest.raises(NotImplementedError, match="_load_queue_state"):
            bare.load_state({"null_chain": [], "queue": None})


# -- container error paths ----------------------------------------------------


class TestCheckpointErrors:
    @pytest.fixture(scope="class")
    def ckpt(self):
        return _partly_run_session(_smarco_request(), cycles=500).checkpoint()

    def test_schema_mismatch_on_different_geometry(self, ckpt):
        bigger = _smarco_request(smarco_config=smarco_scaled(4))
        with pytest.raises(CheckpointSchemaError, match="schema"):
            RunSession.restore(ckpt, request=bigger)

    def test_format_version_skew(self, ckpt):
        import dataclasses

        stale = dataclasses.replace(ckpt, format=ckpt.format + 1)
        with pytest.raises(CheckpointVersionError, match="format"):
            RunSession.restore(stale)

    def test_code_digest_skew_and_override(self, ckpt):
        import dataclasses

        skewed = dataclasses.replace(ckpt, code_digest="0" * 16)
        with pytest.raises(CheckpointVersionError, match="code"):
            RunSession.restore(skewed)
        session = RunSession.restore(skewed, allow_code_skew=True)
        assert session.now == ckpt.cycle

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ConfigError, match="does not support sessions"):
            RunSession(RunRequest(kind="tcg", workload="kmp"))

    def test_finished_session_cannot_checkpoint(self):
        session = RunSession(
            RunRequest(kind="sched", sched_policy="fifo",
                       sched_scenario="uniform", sched_tasks=6,
                       sched_contexts=4, seed=0))
        session.finish()
        with pytest.raises(CheckpointError, match="already finished"):
            session.checkpoint()

    def test_not_a_checkpoint_file(self, tmp_path):
        from repro.sim.checkpoint import load_checkpoint

        bogus = tmp_path / "nope.json"
        bogus.write_text("{}")
        with pytest.raises(CheckpointError, match="not a repro-smarco"):
            load_checkpoint(bogus)

    @pytest.mark.parametrize("name", ["torn.ckpt.gz", "torn.ckpt.json"])
    def test_interrupted_save_leaves_no_file(self, ckpt, tmp_path,
                                             monkeypatch, name):
        import builtins
        import io

        from repro.sim.checkpoint import load_checkpoint, save_checkpoint

        real_open = builtins.open

        class Torn:
            """A file for writing that takes half a write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return Torn(fh) if "w" in mode else fh

        target = tmp_path / name
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", torn_open)
            patch.setattr(io, "open", torn_open)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(ckpt, target)
        assert list(tmp_path.iterdir()) == []
        # a completed save is readable and leaves nothing else behind
        save_checkpoint(ckpt, target)
        assert list(tmp_path.iterdir()) == [target]
        assert load_checkpoint(target).cycle == ckpt.cycle
