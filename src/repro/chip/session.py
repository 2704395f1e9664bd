"""Run sessions: build a system, pause it at a cycle, freeze it, resume it.

A :class:`RunSession` builds the system a
:class:`~repro.exp.request.RunRequest` describes and finishes it into a
:class:`~repro.chip.run.RunOutcome`.  :func:`repro.chip.run.execute`
runs one straight to its horizon; the warm-started sweep runner and the
``checkpoint`` CLI subcommands also pause it at an arbitrary cycle
(``run_to``), capture a versioned :class:`~repro.sim.checkpoint.Checkpoint`
of everything live (kernel queues, component state, RNG streams, stats,
id counters) and restore one into a freshly rebuilt system.  The runner
drives one session per warm group through its horizons and finishes each
earlier horizon on a copy (:meth:`RunSession.finish_copy`): a forked
child process where the platform allows, else a restored checkpoint.

The contract is bit-identical resume: ``build -> run_to(T) -> save;
restore -> finish`` returns exactly the outcome of ``build -> finish``,
energy report included.  A session built with an auditor installs it
before the workload is loaded; a restored session is unaudited.

Session kinds are ``smarco``, ``xeon`` and ``sched`` — the three run
kinds with a single long-lived simulator.  (``tcg`` is a microbench
that finishes in milliseconds; ``compare`` is two sessions back to back.)
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import CheckpointError, ConfigError, SimulationError
from ..exp.request import RunRequest, request_from_snapshot
from ..mem.request import request_id_state, set_request_id_state
from ..noc.packet import packet_id_state, set_packet_id_state
from ..sched.task import set_task_id_state, task_id_state
from ..sim.checkpoint import (
    Checkpoint,
    SnapshotScope,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from ..workloads.base import get_profile
from .run import RunOutcome, build_outcome
from .smarco import SmarCoChip
from .xeon import XeonSystem

__all__ = ["RunSession", "SESSION_KINDS", "session_code_digest"]

#: run kinds a session can checkpoint/restore
SESSION_KINDS = ("smarco", "xeon", "sched")


def session_code_digest() -> str:
    """The code digest stamped into (and checked against) checkpoints."""
    from ..exp.cache import code_version

    return code_version()


def _id_state() -> Dict[str, int]:
    return {"request": request_id_state(), "packet": packet_id_state(),
            "task": task_id_state()}


def _set_id_state(ids: Dict[str, int]) -> None:
    set_request_id_state(ids["request"])
    set_packet_id_state(ids["packet"])
    set_task_id_state(ids["task"])


class RunSession:
    """One buildable, pausable, freezable simulation run."""

    def __init__(self, request: RunRequest, auditor=None) -> None:
        if request.kind not in SESSION_KINDS:
            raise ConfigError(
                f"run kind {request.kind!r} does not support sessions; "
                f"supported: {', '.join(SESSION_KINDS)}")
        request.validate()
        self.request = request
        self.kind = request.kind
        #: the invariant auditor (:class:`~repro.sim.invariants.Auditor`)
        #: watching this run, or None
        self.auditor = auditor
        self._result = None
        if self.kind == "smarco":
            profile = get_profile(request.workload)
            chip = SmarCoChip(request.smarco_config, seed=request.seed,
                              core_policy=request.core_policy,
                              realtime_fraction=request.realtime_fraction)
            if auditor is not None:
                auditor.install(chip)
            chip.load_profile(profile, request.threads_per_core,
                              request.instrs_per_thread,
                              total_threads=request.total_threads,
                              shared_code=request.shared_code)
            self.system = chip
            self.sim = chip.sim
            self.scope = SnapshotScope(
                chip.sim, roots=(chip,), rng=chip.rng,
                registry=chip.registry)
        elif self.kind == "xeon":
            profile = get_profile(request.workload)
            system = XeonSystem(request.xeon_config, seed=request.seed)
            if auditor is not None:
                # the baseline declares no checkers yet; install() is a
                # no-op walk and the summary records zero checks
                auditor.install(system)
            system.load_profile(profile, request.xeon_threads,
                                request.xeon_instrs_per_thread,
                                stagger_creation=request.stagger_creation)
            self.system = system
            self.sim = system.sim
            self.scope = SnapshotScope(
                system.sim, roots=(system,), rng=system.rng,
                registry=system.registry)
        else:  # sched
            from ..sched.scenarios import prepare_sched_scenario

            sched_config = (request.smarco_config.scheduler
                            if request.smarco_config is not None else None)
            run = prepare_sched_scenario(
                policy=request.sched_policy,
                scenario=request.sched_scenario,
                seed=request.seed,
                workload=request.workload,
                tasks=request.sched_tasks,
                contexts=request.sched_contexts,
                config=sched_config,
                auditor=auditor,
            )
            self.system = run
            self.sim = run.sim
            self.scope = SnapshotScope(
                run.sim, roots=(), rng=run.rng, registry=run.registry,
                extra_anchors={"testbed": run.bed, "policy": run.scheduler})

    # -- driving -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def finished(self) -> bool:
        return self._result is not None

    def run_to(self, cycles: float) -> None:
        """Simulate to an absolute cycle horizon (a clean snapshot point)."""
        if self.kind == "smarco" or self.kind == "xeon":
            self.system.run_to(cycles)
        else:
            self.system.bed.start()
            self.sim.run(until=cycles)

    def finish(self) -> RunOutcome:
        """Run to the horizon (``request.run_cycles`` or completion) and
        collect the run outcome (idempotent)."""
        if self._result is not None:
            return self._result
        horizon = self.request.run_cycles
        components: Dict[str, Any] = {}
        if self.kind == "smarco":
            result = self.system.run(max_cycles=horizon)
            components = self.system.tree_dict()
        elif self.kind == "xeon":
            self.sim.run(until=horizon)
            result = self.system.collect_result()
            components = self.system.tree_dict()
        else:
            from ..sched.scenarios import collect_sched_result

            if horizon is not None:
                # bounded horizon: the testbed's end-of-run audit would
                # flag the deliberately unfinished tasks, so only a full
                # run takes it
                self.system.bed.start()
                self.sim.run(until=horizon)
            else:
                self.system.bed.run()
            result = collect_sched_result(self.system)
        audit = None
        if self.auditor is not None:
            # a run cut at its run_cycles horizon still has events queued
            self.auditor.end_of_run(self.now, drained=not self.sim.pending())
            audit = self.auditor.summary()
        self._result = build_outcome(self.request, result,
                                     self.system.registry.dump(),
                                     components, audit)
        return self._result

    # -- checkpointing -------------------------------------------------------

    def _extra_state(self) -> Dict[str, Any]:
        extra: Dict[str, Any] = {"ids": _id_state()}
        if self.kind == "sched":
            extra["testbed"] = self.system.bed.state_dict()
            extra["policy"] = self.system.scheduler.state_dict()
        return extra

    def _apply_extra(self, extra: Dict[str, Any]) -> None:
        _set_id_state(extra["ids"])
        if self.kind == "sched":
            self.system.bed.load_state(extra["testbed"])
            self.system.scheduler.load_state(extra["policy"])

    def checkpoint(self) -> Checkpoint:
        """Freeze the session at the current cycle."""
        if self._result is not None:
            raise CheckpointError("session already finished; nothing to save")
        data, objects = self.scope.capture(self._extra_state())
        return Checkpoint(
            format=FORMAT_VERSION,
            code_digest=session_code_digest(),
            schema=self.scope.schema_hash(),
            kind=self.kind,
            request=self.request.snapshot(),
            cycle=self.sim.now,
            data=data,
            objects=objects,
        )

    def finish_copy(self, request: RunRequest) -> RunOutcome:
        """Finish a copy of this session built from ``request``.

        ``request`` may differ from the session's own only in warm axes,
        which a session reads at finish.  The copy runs to its own
        horizon; this session is left where it is, module-level id
        counters included, so it goes on exactly as the straight run
        would.  Where the process can fork (see :meth:`_forks_copies`)
        the copy is a child process that finishes this session and
        pipes the outcome back; elsewhere it is restored from an
        in-memory checkpoint of the current cycle.
        """
        if not self._forks_copies():
            return self._finish_restored_copy(request)
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:  # the child: finish, report, never return
            try:
                os.close(read_fd)
                self.request = request
                try:
                    data = pickle.dumps((True, self.finish().to_dict()),
                                        pickle.HIGHEST_PROTOCOL)
                except BaseException as exc:  # re-raised in the parent
                    # an exception that cannot be pickled sends nothing
                    data = pickle.dumps((False, exc))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(data)
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
        if not data:
            raise SimulationError(
                f"copy process {pid} exited without an outcome "
                f"(wait status {status})")
        ok, payload = pickle.loads(data)
        if not ok:
            raise payload
        return RunOutcome.from_dict(payload)

    def _forks_copies(self) -> bool:
        """Whether :meth:`finish_copy` forks: the platform has ``fork``,
        the process runs one thread, and no auditor watches this session
        (its copies stay unaudited, as every restored session is)."""
        return (hasattr(os, "fork") and threading.active_count() == 1
                and self.auditor is None)

    def _finish_restored_copy(self, request: RunRequest) -> RunOutcome:
        """The checkpoint copy: restore a fresh, unaudited session from
        an in-memory checkpoint and finish it."""
        ids = _id_state()
        try:
            return RunSession.restore(self.checkpoint(),
                                      request=request).finish()
        finally:
            _set_id_state(ids)

    def save(self, path: Union[str, Path]) -> Path:
        """Checkpoint and write to ``path`` (gzip when it ends in .gz)."""
        return save_checkpoint(self.checkpoint(), Path(path))

    @classmethod
    def restore(cls, source: Union[Checkpoint, str, Path],
                request: Optional[RunRequest] = None,
                allow_code_skew: bool = False) -> "RunSession":
        """Rebuild a session from a checkpoint (strict by default).

        The system is rebuilt from the checkpoint's own request snapshot
        (or an explicitly supplied equivalent ``request``), verified
        against the header, and then overwritten wholesale with the
        frozen state.
        """
        ckpt = (source if isinstance(source, Checkpoint)
                else load_checkpoint(Path(source)))
        req = (request if request is not None
               else request_from_snapshot(ckpt.request))
        session = cls(req)
        ckpt.verify(session.scope, session_code_digest(),
                    allow_code_skew=allow_code_skew)
        extra = session.scope.restore(ckpt.data, ckpt.objects)
        session._apply_extra(extra)
        return session
