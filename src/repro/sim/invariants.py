"""Runtime invariant audit layer.

An :class:`Auditor` installs checkers over an existing
:class:`~repro.sim.component.Component` tree and observes a simulation
without perturbing it: hooks are guarded ``is not None`` checks on hot
paths, checkers never schedule events, and an audits-off run is
bit-identical to a run without the layer.  Checkers:

* **request conservation** — every core request issued into the chip
  completes exactly once; none are orphaned at end-of-run;
* **flit/byte conservation** — every :class:`~repro.noc.link.SlicedLink`
  reservation starts in the present, carries the packet's bytes within
  the reserved slice-cycles, and no reservation outlives the run; per
  network, injected packets equal delivered packets;
* **MACT line consistency** — a flushed line's byte bitmap equals the
  union of its member requests' byte ranges (popcount included), every
  member is line-local, and no line outlives its deadline generation;
* **thread FSM legality** — ``RUNNING <-> WAITING`` transitions only via
  ``block``/``unblock``, an in-pair resume requires the friend to have
  missed, no fetch/retire after ``DONE``;
* **trace tiling** — a completed request's hop chain tiles
  ``[issue_time, finish_time]`` gap-free, so the per-layer breakdown
  segments sum to the end-to-end latency (PR 3's contract).

With ``fail_fast`` a violation raises :class:`~repro.errors.AuditError`
immediately ("fails loudly"); in collect mode violations accumulate (up
to ``max_violations``) into :meth:`Auditor.summary`, which the run layer
attaches to its outcome — the soak harness (``repro.exp.soak``) runs
randomized configs in collect mode and reports everything found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import AuditConfig
from ..errors import AuditError

__all__ = ["Violation", "Auditor", "ThreadFsmObserver"]

#: Absolute slack for float time comparisons (cycle timestamps are exact
#: sums of small integers/halves in practice; this absorbs fp noise).
_EPS = 1e-6


@dataclass
class Violation:
    """One detected invariant break."""

    checker: str        # "request_conservation", "mact_consistency", ...
    component: str      # dotted component path (or link name)
    time: float         # sim time of detection
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {"checker": self.checker, "component": self.component,
                "time": self.time, "message": self.message}

    def __str__(self) -> str:
        return (f"[{self.checker}] {self.component} @ {self.time:g}: "
                f"{self.message}")


class ThreadFsmObserver:
    """Per-core observer the :class:`~repro.core.thread.HardwareThread`
    mutators call *before* each transition, validating its legality.

    State names are compared as strings so this module never imports
    ``repro.core`` (which imports ``repro.sim``).
    """

    __slots__ = ("_auditor", "_core")

    def __init__(self, auditor: "Auditor", core: Any) -> None:
        self._auditor = auditor
        self._core = core

    def _fail(self, thread: Any, message: str) -> None:
        self._auditor.violation(
            "thread_fsm", self._core.path, self._core.sim.now,
            f"{thread.name}: {message}")

    def pre_block(self, thread: Any) -> None:
        self._auditor.count("thread_fsm")
        if thread.state.name != "RUNNING":
            self._fail(thread, f"block() while {thread.state.name}")
        if not thread.data_ready:
            self._fail(thread, "block() with a miss already outstanding")

    def pre_unblock(self, thread: Any) -> None:
        self._auditor.count("thread_fsm")
        if thread.state.name != "WAITING":
            self._fail(thread, f"unblock() while {thread.state.name}")
        if thread.data_ready:
            self._fail(thread, "unblock() without an outstanding miss")

    def pre_finish(self, thread: Any) -> None:
        self._auditor.count("thread_fsm")
        if thread.state.name != "RUNNING":
            self._fail(thread, f"finish() while {thread.state.name}")

    def pre_retire(self, thread: Any) -> None:
        if thread.state.name == "DONE":
            self._auditor.count("thread_fsm")
            self._fail(thread, "instruction fetch after DONE")


class Auditor:
    """Registers invariant checkers over a component tree and collects
    (or raises on) violations.

    Usage::

        auditor = Auditor(AuditConfig(enabled=True)).install(chip)
        ... run the simulation ...
        auditor.end_of_run(chip.sim.now)
        report = auditor.summary()
    """

    def __init__(self, config: Optional[AuditConfig] = None) -> None:
        self.config = config if config is not None else AuditConfig(enabled=True)
        self.config.validate()
        self.violations: List[Violation] = []
        self.dropped = 0
        self.checks: Dict[str, int] = {}
        self.installed: List[str] = []
        # request conservation
        self._outstanding: Dict[int, Any] = {}
        self.issued = 0
        self.completed = 0
        # flit/byte conservation
        self._links: List[Any] = []
        self._flows: List[Tuple[str, Any, Any]] = []
        # MACT line consistency
        self._macts: List[Any] = []
        self._finished = False

    # -- violation plumbing ------------------------------------------------

    def count(self, checker: str) -> None:
        """Tally one performed check (for the summary's coverage view)."""
        self.checks[checker] = self.checks.get(checker, 0) + 1

    def violation(self, checker: str, component: str, time: float,
                  message: str) -> None:
        v = Violation(checker, component, time, message)
        if self.config.fail_fast:
            raise AuditError(str(v))
        if len(self.violations) < self.config.max_violations:
            self.violations.append(v)
        else:
            self.dropped += 1

    @property
    def clean(self) -> bool:
        return not self.violations and not self.dropped

    # -- installation ------------------------------------------------------

    def install(self, root: Any) -> "Auditor":
        """Walk ``root``'s component tree, letting each component attach."""
        for comp in root.walk():
            comp.attach_audit(self)
        return self

    def register_chip(self, chip: Any) -> bool:
        if not (self.config.request_conservation or self.config.trace_tiling):
            return False
        self.installed.append(f"chip:{chip.path}")
        return True

    def register_mact(self, mact: Any) -> bool:
        if not self.config.mact_consistency:
            return False
        self._macts.append(mact)
        self.installed.append(f"mact:{mact.path}")
        return True

    def register_core(self, core: Any) -> Optional[ThreadFsmObserver]:
        if not self.config.thread_fsm:
            return None
        self.installed.append(f"core:{core.path}")
        return ThreadFsmObserver(self, core)

    def register_flow(self, name: str, injected: Any, delivered: Any) -> None:
        """Register an injected/delivered counter pair for end-of-run."""
        if self.config.link_conservation:
            self._flows.append((name, injected, delivered))

    def register_link(self, link: Any) -> None:
        if not self.config.link_conservation:
            return
        link.audit_hook = self.link_reserved
        self._links.append(link)

    # -- request conservation + trace tiling -------------------------------

    def request_issued(self, request: Any, now: float) -> None:
        if not self.config.request_conservation:
            return
        self.count("request_conservation")
        self.issued += 1
        if request.req_id in self._outstanding:
            self.violation(
                "request_conservation", "chip", now,
                f"request {request.req_id} issued twice")
        self._outstanding[request.req_id] = request

    def request_completed(self, request: Any, now: float) -> None:
        if self.config.request_conservation:
            self.count("request_conservation")
            self.completed += 1
            if self._outstanding.pop(request.req_id, None) is None:
                self.violation(
                    "request_conservation", "chip", now,
                    f"request {request.req_id} completed but was never "
                    f"issued (or completed twice)")
        if self.config.trace_tiling and request.trace is not None:
            self._check_trace(request, now)

    def _check_trace(self, request: Any, now: float) -> None:
        self.count("trace_tiling")
        hops = request.trace.hops
        if not hops:
            self.violation("trace_tiling", "chip", now,
                           f"request {request.req_id}: sampled trace has "
                           f"no hops at completion")
            return
        where = hops[0].component
        rid = request.req_id
        if abs(hops[0].enter - request.issue_time) > _EPS:
            self.violation(
                "trace_tiling", where, now,
                f"request {rid}: first hop enters at {hops[0].enter:g}, "
                f"issue_time is {request.issue_time:g}")
        prev_exit: Optional[float] = None
        for hop in hops:
            if hop.exit is None:
                self.violation(
                    "trace_tiling", hop.component, now,
                    f"request {rid}: hop {hop.stage!r} still open at "
                    f"completion")
                return
            if hop.exit < hop.enter - _EPS:
                self.violation(
                    "trace_tiling", hop.component, now,
                    f"request {rid}: hop {hop.stage!r} exits before it "
                    f"enters ({hop.exit:g} < {hop.enter:g})")
            if prev_exit is not None and abs(hop.enter - prev_exit) > _EPS:
                kind = "gap" if hop.enter > prev_exit else "overlap"
                self.violation(
                    "trace_tiling", hop.component, now,
                    f"request {rid}: {kind} of "
                    f"{abs(hop.enter - prev_exit):g} cycles before hop "
                    f"{hop.stage!r}")
            prev_exit = hop.exit
        if prev_exit is not None and abs(prev_exit - now) > _EPS:
            self.violation(
                "trace_tiling", hops[-1].component, now,
                f"request {rid}: last hop exits at {prev_exit:g}, "
                f"completion is at {now:g}")
        total = sum(h.exit - h.enter for h in hops)
        end_to_end = now - request.issue_time
        if abs(total - end_to_end) > _EPS * max(1.0, abs(end_to_end)):
            self.violation(
                "trace_tiling", where, now,
                f"request {rid}: hop durations sum to {total:g}, "
                f"end-to-end latency is {end_to_end:g}")

    # -- flit/byte conservation --------------------------------------------

    def link_reserved(self, link: Any, size_bytes: int, start: float,
                      finish: float, now: float) -> None:
        self.count("link_conservation")
        if start < now - _EPS:
            self.violation(
                "link_conservation", link.name, now,
                f"reservation starts in the past ({start:g} < {now:g})")
        if finish <= start - _EPS:
            self.violation(
                "link_conservation", link.name, now,
                f"reservation finishes at {finish:g}, before its start "
                f"{start:g}")
        capacity = (finish - start) * link.width_bytes
        if size_bytes > capacity + _EPS:
            self.violation(
                "link_conservation", link.name, now,
                f"{size_bytes} bytes reserved into {capacity:g} "
                f"byte-cycles of link capacity")

    # -- MACT line consistency ---------------------------------------------

    def mact_collected(self, mact: Any, line: Any, request: Any) -> None:
        self.count("mact_consistency")
        span = mact.config.line_span_bytes
        lo = request.addr - line.base_addr
        if lo < 0 or lo + request.size > span:
            self.violation(
                "mact_consistency", mact.path, mact.sim.now,
                f"request {request.req_id} ({request.addr:#x}+{request.size}) "
                f"falls outside line {line.base_addr:#x}+{span}")

    def mact_flushed(self, mact: Any, line: Any, reason: str,
                     now: float) -> None:
        self.count("mact_consistency")
        span = mact.config.line_span_bytes
        union = 0
        for req in line.requests:
            lo = req.addr - line.base_addr
            if lo < 0 or lo + req.size > span:
                self.violation(
                    "mact_consistency", mact.path, now,
                    f"flushed line {line.base_addr:#x} holds out-of-line "
                    f"member {req.req_id} ({req.addr:#x}+{req.size})")
                continue
            union |= ((1 << req.size) - 1) << lo
        if union != line.bitmap:
            self.violation(
                "mact_consistency", mact.path, now,
                f"line {line.base_addr:#x} bitmap popcount "
                f"{bin(line.bitmap).count('1')} != union of member byte "
                f"ranges ({bin(union).count('1')} bytes)")
        # "drain" is the explicit end-of-run flush; every in-run flush must
        # happen within the line's deadline generation.
        age = now - line.created_at
        if reason != "drain" and age > mact.config.threshold_cycles + _EPS:
            self.violation(
                "mact_consistency", mact.path, now,
                f"line {line.base_addr:#x} flushed ({reason}) {age:g} "
                f"cycles after creation, past its "
                f"{mact.config.threshold_cycles}-cycle deadline")

    # -- thread FSM ---------------------------------------------------------

    def thread_picked(self, core: Any, slot_id: int, thread: Any,
                      prev: Any, idle: bool) -> None:
        """Called by the TCG slot scheduler at pick time (before any yield)."""
        self.count("thread_fsm")
        if thread.state.name == "DONE" or not thread.data_ready:
            self.violation(
                "thread_fsm", core.path, core.sim.now,
                f"{thread.name} picked while not runnable "
                f"({thread.state.name}, data_ready={thread.data_ready})")
        for other in core.slot_threads(slot_id):
            if other is not thread and other.state.name == "RUNNING":
                self.violation(
                    "thread_fsm", core.path, core.sim.now,
                    f"{thread.name} picked while {other.name} is RUNNING "
                    f"in the same slot")
        # In-pair takeover legality: a parked thread (ready_at set) resumes
        # directly after its friend yielded the slot only because the
        # friend missed (or finished).  After an idle wait the slot is
        # free, so any runnable thread may be picked.
        if (core.policy == "inpair" and thread.ready_at is not None
                and not idle and prev is not None and prev is not thread
                and prev.state.name != "DONE" and prev.data_ready):
            self.violation(
                "thread_fsm", core.path, core.sim.now,
                f"{thread.name} resumed in-pair while friend {prev.name} "
                f"had not missed")

    # -- end-of-run ----------------------------------------------------------

    def end_of_run(self, now: float, drained: bool = True) -> None:
        """Final conservation checks once the simulation has stopped.

        ``drained=False`` means the run stopped at a cycle horizon with
        events still queued: requests and packets in flight, link
        reservations ending past the horizon and MACT lines still pending
        are then legal.  More completions than issues never are.
        """
        if self._finished:
            return
        self._finished = True
        if self.config.request_conservation:
            self.count("request_conservation")
            if self.completed > self.issued:
                self.violation(
                    "request_conservation", "chip", now,
                    f"{self.completed} completions for {self.issued} "
                    f"issued requests")
        if not drained:
            return
        if self.config.request_conservation:
            for req in list(self._outstanding.values())[:10]:
                self.violation(
                    "request_conservation", "chip", now,
                    f"request {req.req_id} ({req!r}) still outstanding at "
                    f"end-of-run")
            extra = len(self._outstanding) - 10
            if extra > 0:
                self.violation(
                    "request_conservation", "chip", now,
                    f"...and {extra} more orphaned requests")
        for name, injected, delivered in self._flows:
            self.count("link_conservation")
            if injected.value != delivered.value:
                self.violation(
                    "link_conservation", name, now,
                    f"{injected.value} packets injected but "
                    f"{delivered.value} delivered (in-flight at end-of-run)")
        for link in self._links:
            self.count("link_conservation")
            busy = link.busy_until()
            if busy > now + _EPS:
                self.violation(
                    "link_conservation", link.name, now,
                    f"reservation outlives the run (busy until {busy:g}, "
                    f"run ended at {now:g})")
        for mact in self._macts:
            self.count("mact_consistency")
            if mact.pending_lines:
                self.violation(
                    "mact_consistency", mact.path, now,
                    f"{mact.pending_lines} lines still pending at "
                    f"end-of-run (flush_all not drained)")

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """A JSON-ready report for RunOutcome / telemetry records."""
        return {
            "enabled": self.config.enabled,
            "fail_fast": self.config.fail_fast,
            "checks": dict(self.checks),
            "total_checks": sum(self.checks.values()),
            "violations": [v.to_dict() for v in self.violations],
            "dropped_violations": self.dropped,
            "clean": self.clean,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Auditor(checks={sum(self.checks.values())}, "
                f"violations={len(self.violations)})")
