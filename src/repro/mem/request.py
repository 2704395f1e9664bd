"""Memory request objects shared by caches, SPM, MACT, NoC and DRAM.

A request is a *transaction*: it can carry a :class:`HopTrace` that every
layer it crosses stamps with ``(stage, component_path, enter, exit)``
records.  The trace is an ordered, gap-free partition of the request's
lifetime — each ``advance`` closes the current hop and opens the next —
so per-stage durations always sum back to the end-to-end latency
(``repro.analysis.breakdown`` builds the per-layer attribution from it).
Tracing is opt-in per request (see :class:`TraceSampler` and
``SmarCoConfig.trace_sample_rate``); an untraced request pays one ``None``
check per layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import MemoryModelError
from ..sim.snapshot import register_snapshot_class, snapshotable

__all__ = ["Priority", "MemRequest", "Hop", "HopTrace", "TraceSampler"]

# a plain module counter (not itertools.count) so checkpoints can capture
# and restore the id high-water mark — restored runs must mint the same
# req_ids the straight run would
_next_request_id = 0


def _new_request_id() -> int:
    global _next_request_id
    rid = _next_request_id
    _next_request_id += 1
    return rid


def request_id_state() -> int:
    return _next_request_id


def set_request_id_state(value: int) -> None:
    global _next_request_id
    _next_request_id = value


class Priority(enum.IntEnum):
    """Request priority classes (paper §3.4/§3.5.2).

    ``REALTIME`` requests bypass the MACT and may use the direct datapath;
    ``NORMAL`` requests are eligible for collection/batching.
    """

    NORMAL = 0
    REALTIME = 1


@snapshotable
@dataclass
class Hop:
    """One stamped segment of a transaction's lifetime."""

    stage: str            # dot-free stage label ("collect", "link_xfer", ...)
    component: str        # dotted component path ("chip.subring0.mact")
    enter: float
    exit: Optional[float] = None    # open until the next advance/close
    note: str = ""                  # e.g. the MACT flush reason

    @property
    def duration(self) -> float:
        return (self.exit - self.enter) if self.exit is not None else 0.0


@snapshotable
class HopTrace:
    """The ordered hop records of one transaction.

    Two stamping styles:

    * :meth:`advance` — the chained style every chip layer uses: closes
      the currently open hop at ``now`` and opens the next one, so the
      records tile ``[issue, finish]`` with no gaps or overlaps;
    * :meth:`stamp` — appends one already-closed record; used for
      out-of-band segments (post-completion resume wait, DMA legs) that
      are not part of the chain.
    """

    __slots__ = ("hops",)

    def __init__(self) -> None:
        self.hops: List[Hop] = []

    @property
    def open_hop(self) -> Optional[Hop]:
        if self.hops and self.hops[-1].exit is None:
            return self.hops[-1]
        return None

    def advance(self, stage: str, component: str, now: float,
                note: str = "") -> Hop:
        """Close the open hop at ``now`` and open ``(stage, component)``."""
        current = self.open_hop
        if current is not None:
            if now < current.enter:
                raise MemoryModelError(
                    f"hop {stage!r} stamped at {now} before the open hop "
                    f"{current.stage!r} entered at {current.enter}"
                )
            current.exit = now
        hop = Hop(stage, component, now, note=note)
        self.hops.append(hop)
        return hop

    def close(self, now: float) -> None:
        """Close the open hop (transaction completion)."""
        current = self.open_hop
        if current is not None:
            current.exit = now

    def annotate(self, note: str) -> None:
        """Attach a note to the currently open hop (no-op when closed)."""
        current = self.open_hop
        if current is not None:
            current.note = note

    def stamp(self, stage: str, component: str, enter: float, exit: float,
              note: str = "") -> Hop:
        """Append one closed, out-of-chain record."""
        if exit < enter:
            raise MemoryModelError(
                f"hop {stage!r} exits at {exit} before entering at {enter}"
            )
        hop = Hop(stage, component, enter, exit, note=note)
        self.hops.append(hop)
        return hop

    # -- aggregation ------------------------------------------------------

    def total_cycles(self) -> float:
        return sum(h.duration for h in self.hops if h.exit is not None)

    def stage_totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for hop in self.hops:
            if hop.exit is not None:
                out[hop.stage] = out.get(hop.stage, 0.0) + hop.duration
        return out

    def records(self) -> List[tuple]:
        """The trace as plain ``(stage, component, enter, exit)`` tuples."""
        return [(h.stage, h.component, h.enter, h.exit) for h in self.hops]

    def __len__(self) -> int:
        return len(self.hops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = " > ".join(h.stage for h in self.hops)
        return f"HopTrace({len(self.hops)} hops: {path})"


@snapshotable
class TraceSampler:
    """Deterministic every-``1/rate``-th sampler (Bresenham-style).

    Spreads ``rate`` of the population evenly with no RNG, so the sampled
    set is identical across runs and across worker processes — the
    property the ``trace_sample_rate`` knob needs to keep fixed-seed
    sweeps reproducible.
    """

    __slots__ = ("rate", "_acc")

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise MemoryModelError(
                f"trace sample rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self._acc = 0.0

    def sample(self) -> bool:
        if self.rate <= 0.0:
            return False
        self._acc += self.rate
        if self._acc >= 1.0 - 1e-12:
            self._acc -= 1.0
            return True
        return False


@snapshotable
class MemRequest:
    """One memory access travelling through the chip.

    ``on_complete(request, finish_time)`` is invoked when the data is back
    at the requester (loads) or accepted by memory (stores).

    A plain ``__slots__`` class rather than a dataclass: every load/store
    in a chip run allocates one, so instance size and attribute access
    cost are on the hot path.
    """

    __slots__ = ("addr", "size", "is_write", "core_id", "priority",
                 "issue_time", "on_complete", "req_id", "meta",
                 "finish_time", "trace")

    def __init__(
        self,
        addr: int,
        size: int,
        is_write: bool,
        core_id: int = 0,
        priority: Priority = Priority.NORMAL,
        issue_time: float = 0.0,
        on_complete: Optional[Callable[["MemRequest", float], None]] = None,
        req_id: Optional[int] = None,
        meta: Any = None,
        finish_time: Optional[float] = None,
        trace: Optional[HopTrace] = None,
    ) -> None:
        self.addr = addr
        self.size = size
        self.is_write = is_write
        self.core_id = core_id
        self.priority = priority
        self.issue_time = issue_time
        self.on_complete = on_complete
        self.req_id = _new_request_id() if req_id is None else req_id
        self.meta = meta
        self.finish_time = finish_time
        self.trace = trace

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.issue_time

    def complete(self, now: float) -> None:
        """Mark done at ``now`` and fire the completion callback once.

        A second completion is a lifecycle bug (it used to be silently
        swallowed, hiding real accounting errors) and raises.
        """
        if self.finish_time is not None:
            raise MemoryModelError(
                f"{self!r} completed twice: at {self.finish_time} and {now}"
            )
        self.finish_time = now
        if self.trace is not None:
            self.trace.close(now)
        if self.on_complete is not None:
            self.on_complete(self, now)

    # -- tracing ----------------------------------------------------------

    def start_trace(self) -> HopTrace:
        """Attach (and return) a fresh hop trace."""
        self.trace = HopTrace()
        return self.trace

    def trace_advance(self, stage: str, component: str, now: float,
                      note: str = "") -> None:
        """Advance the hop chain; no-op for untraced requests."""
        if self.trace is not None:
            self.trace.advance(stage, component, now, note=note)

    def trace_annotate(self, note: str) -> None:
        if self.trace is not None:
            self.trace.annotate(note)

    def line_base(self, line_bytes: int) -> int:
        return (self.addr // line_bytes) * line_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"MemRequest#{self.req_id}({kind} {self.addr:#x}+{self.size} "
            f"core={self.core_id} prio={self.priority.name})"
        )
