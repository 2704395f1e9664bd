"""Discrete-event simulation kernel.

The kernel is deliberately small: a binary-heap event queue, a cycle clock,
and two programming styles on top of it:

* **callbacks** — ``sim.schedule(delay, fn, *args)`` runs ``fn`` at
  ``now + delay``;
* **processes** — generator functions that ``yield`` a delay (int/float) to
  sleep, or an :class:`EventSignal` to block until another component fires
  it.  Processes are resumed by the kernel, which keeps component code
  (memory controllers, DMA engines, routers) readable.

Time is measured in *cycles* of the component's clock domain; the library
runs everything in a single 1.5 GHz domain, matching the paper, so a cycle
is globally meaningful.  One :class:`Simulator` drives a whole simulated
system serially: every component, signal and completion schedules on the
engine it was built with.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["Simulator", "EventSignal", "Process", "Completion"]


class EventSignal:
    """A one-to-many wakeup primitive.

    Processes block on a signal by ``yield``-ing it; callbacks subscribe
    with :meth:`wait`.  :meth:`fire` wakes every current waiter exactly once
    (waiters registered after the fire wait for the next one).  A signal can
    carry a payload, delivered to resumed processes as the value of the
    ``yield`` expression.
    """

    __slots__ = ("sim", "name", "_waiters", "fire_count", "last_payload")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0
        self.last_payload: Any = None

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(payload)`` to run on the next :meth:`fire`."""
        self._waiters.append(callback)

    def fire(self, payload: Any = None) -> int:
        """Wake all current waiters at the current simulation time.

        Returns the number of waiters woken.
        """
        self.fire_count += 1
        self.last_payload = payload
        waiters, self._waiters = self._waiters, []
        schedule = self.sim.schedule
        for cb in waiters:
            schedule(0, cb, payload)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventSignal({self.name!r}, waiters={len(self._waiters)})"


class Completion:
    """A serialisable result handle with the :class:`Process` wait surface.

    Callback-FSM components (the NoC flights, DMA transfers, chip batch
    procs) return one of these from their ``send``-style entry points so
    callers can block on it exactly as they would on a spawned process:
    ``finished`` / ``result`` / ``done_signal`` have identical semantics,
    and a generator process may ``yield`` a Completion directly.  Unlike
    a Process it holds no generator frame, so it snapshots cleanly.

    Waiters queue on the completion itself; the done signal is only built
    when someone asks for it (most completions are one NoC leg with one
    waiter).  Either way every waiter wakes in registration order.
    """

    __slots__ = ("sim", "name", "finished", "result", "_waiters",
                 "_done_signal")

    def __init__(self, sim: "Simulator", name: str = "completion") -> None:
        self.sim = sim
        self.name = name
        self.finished = False
        self.result: Any = None
        self._waiters: List[Callable[[Any], None]] = []
        self._done_signal: Optional[EventSignal] = None

    @property
    def done_signal(self) -> EventSignal:
        """Signal fired (with the result) when this completion finishes.

        Waiters registered through :meth:`wait` before the signal existed
        move onto it, ahead of any later ones.
        """
        if self._done_signal is None:
            sig = self._done_signal = EventSignal(self.sim, f"{self.name}.done")
            sig._waiters, self._waiters = self._waiters, []
        return self._done_signal

    def finish(self, result: Any = None) -> None:
        """Mark finished and wake every waiter (exactly once)."""
        if self.finished:
            raise SimulationError(f"completion {self.name!r} finished twice")
        self.finished = True
        self.result = result
        if self._done_signal is not None:
            self._done_signal.fire(result)
            return
        waiters = self._waiters
        if waiters:
            self._waiters = []
            schedule = self.sim.schedule
            for cb in waiters:
                schedule(0, cb, result)

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(result)`` when finished, mirroring the engine's
        process-wait protocol: already-finished completions schedule a
        zero-delay wakeup (one sequence number), pending ones queue (no
        sequence number until the finish)."""
        if self.finished:
            self.sim.schedule(0, callback, self.result)
        elif self._done_signal is not None:
            self._done_signal.wait(callback)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "pending"
        return f"Completion({self.name!r}, {state})"


class Process:
    """A running generator-based simulation process.

    Created via :meth:`Simulator.spawn`.  The wrapped generator may yield:

    * a non-negative number — sleep that many cycles;
    * an :class:`EventSignal` — block until it fires (the fire payload
      becomes the value of the yield expression);
    * another :class:`Process` — block until that process finishes.
    """

    __slots__ = ("sim", "gen", "name", "finished", "result", "_done_signal")

    def __init__(self, sim: "Simulator", gen: Generator, name: str) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.finished = False
        self.result: Any = None
        self._done_signal: Optional[EventSignal] = None

    @property
    def done_signal(self) -> EventSignal:
        """Signal fired (with the process result) when this process ends."""
        if self._done_signal is None:
            self._done_signal = EventSignal(self.sim, f"{self.name}.done")
        return self._done_signal

    def _step(self, send_value: Any = None) -> None:
        if self.finished:
            return
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            if self._done_signal is not None:
                self._done_signal.fire(self.result)
            return
        if isinstance(yielded, EventSignal):
            yielded.wait(self._step)
        elif isinstance(yielded, (Process, Completion)):
            if yielded.finished:
                # already done: resume immediately with its result instead
                # of waiting on a done_signal that will never fire again
                self.sim.schedule(0, self._step, yielded.result)
            else:
                yielded.done_signal.wait(self._step)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            self.sim.schedule(yielded, self._step, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value "
                f"{yielded!r}; yield a delay, EventSignal, or Process"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """The discrete-event kernel: clock + ordered event queue.

    Events scheduled for the same cycle run in FIFO order of scheduling,
    which makes runs deterministic for a fixed seed.

    Internally there are two event stores with one logical ordering (by
    ``(time, scheduling sequence)``): a binary heap for future events and
    a FIFO *due lane* for zero-delay events.  About half of all schedules
    in a chip run are zero-delay (signal fires, process wakeups, port
    sends), and the due lane turns their O(log n) heap sift into a list
    append/index.  The global FIFO tie-break is preserved exactly: every
    event carries its scheduling sequence number, and a due entry only
    runs once no heap event at the current time with a smaller sequence
    remains.
    """

    __slots__ = ("now", "_queue", "_seq", "_running", "events_executed",
                 "_due", "_signals")

    #: consumed due-lane prefix is garbage-collected past this length
    _DUE_COMPACT = 8192

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        #: zero-delay events due at the current time: (seq, fn, args)
        self._due: List[Tuple[int, Callable, tuple]] = []
        #: signals created via :meth:`signal`, keyed by a unique name —
        #: the anchor table checkpoints resolve signal references against
        self._signals: dict = {}

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles (0 allowed)."""
        if delay:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule {delay} cycles in the past")
            self._seq = seq = self._seq + 1
            heappush(self._queue, (self.now + delay, seq, fn, args))
        else:
            self._seq = seq = self._seq + 1
            self._due.append((seq, fn, args))

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (must be >= now)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, current time is {self.now}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, seq, fn, args))

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Start a generator process immediately (first step at ``now``)."""
        proc = Process(self, gen, name)
        self.schedule(0, proc._step, None)
        return proc

    def signal(self, name: str = "") -> EventSignal:
        """Create a new :class:`EventSignal` bound to this simulator.

        The signal is registered under a unique key (the name, suffixed
        on collision) so checkpoints can reference it by identity;
        creation order is deterministic, so the keys are stable across
        identically-built systems.
        """
        sig = EventSignal(self, name)
        key = name
        n = 1
        while key in self._signals:
            key = f"{name}#{n}"
            n += 1
        self._signals[key] = sig
        return sig

    def signals(self) -> dict:
        """The registered signals, keyed by their unique registry name."""
        return dict(self._signals)

    # -- snapshot protocol ---------------------------------------------------

    def state_dict(self) -> dict:
        """The kernel's live state, with raw callables in the queues.

        The checkpoint codec encodes the callables as descriptors; this
        method only gathers.  Signal waiter lists are included so blocked
        callbacks survive the round-trip.
        """
        if self._running:
            raise SimulationError("cannot snapshot while run() is active")
        return {
            "now": self.now,
            "seq": self._seq,
            "events_executed": self.events_executed,
            "queue": list(self._queue),
            "due": list(self._due),
            "signals": {key: {"waiters": list(sig._waiters),
                              "fire_count": sig.fire_count,
                              "last_payload": sig.last_payload}
                        for key, sig in self._signals.items()},
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (queues replaced verbatim).

        Restoring the heap list as-is preserves pop order exactly —
        heapq ordering is a function of the entries alone.
        """
        if self._running:
            raise SimulationError("cannot restore while run() is active")
        self.now = state["now"]
        self._seq = state["seq"]
        self.events_executed = state["events_executed"]
        self._queue = [tuple(entry) for entry in state["queue"]]
        self._due = [tuple(entry) for entry in state["due"]]
        for key, sig_state in state["signals"].items():
            sig = self._signals.get(key)
            if sig is None:
                raise SimulationError(
                    f"checkpoint names unknown signal {key!r}")
            sig._waiters = list(sig_state["waiters"])
            sig.fire_count = sig_state["fire_count"]
            sig.last_payload = sig_state["last_payload"]

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty or when the next event lies beyond
        ``until`` (the clock is then advanced *to* ``until``).  Returns
        the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        # Same-time events run in FIFO (_seq) order across both stores, so
        # the fast path is observably identical to the general one.
        # Scheduling into the past is impossible, which makes the
        # unconditional clock store in the fast path safe.
        # ``events_executed`` is folded in once per call.
        queue = self._queue
        due = self._due
        due_head = 0            # consumed prefix of ``due``
        pop = heappop
        compact = self._DUE_COMPACT
        try:
            if until is None:
                # Hot path: drain everything (the overwhelmingly common
                # call shape).  The executed count falls out of the seq
                # counter: everything pending or scheduled gets run.
                seq0 = self._seq
                pending0 = len(queue) + len(due) - due_head
                try:
                    while True:
                        if due_head < len(due):
                            if queue:
                                head = queue[0]
                                # a heap event at the current time that was
                                # scheduled before the due entry goes first
                                if (head[0] == self.now
                                        and head[1] < due[due_head][0]):
                                    pop(queue)
                                    head[2](*head[3])
                                    continue
                            _sq, fn, args = due[due_head]
                            due_head += 1
                            if due_head >= compact:
                                del due[:due_head]
                                due_head = 0
                            fn(*args)
                            continue
                        if due_head:
                            del due[:due_head]
                            due_head = 0
                        if not queue:
                            break
                        when, _sq, fn, args = pop(queue)
                        self.now = when
                        fn(*args)
                finally:
                    executed = (pending0 + (self._seq - seq0)
                                - (len(queue) + len(due) - due_head))
            else:
                while True:
                    if due_head < len(due) and self.now <= until:
                        if queue:
                            head = queue[0]
                            if (head[0] == self.now
                                    and head[1] < due[due_head][0]):
                                pop(queue)
                                head[2](*head[3])
                                executed += 1
                                continue
                        _sq, fn, args = due[due_head]
                        due_head += 1
                        fn(*args)
                        executed += 1
                        continue
                    if not queue:
                        break
                    when = queue[0][0]
                    if when > until:
                        break
                    _w, _sq, fn, args = pop(queue)
                    if when > self.now:
                        self.now = when
                    fn(*args)
                    executed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            if due_head:
                del due[:due_head]
            self.events_executed += executed
            self._running = False
        return executed

    def pending(self) -> int:
        """Number of events currently queued."""
        return len(self._queue) + len(self._due)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending()})"


# Floating engine objects that may be reachable from checkpointed state:
# unregistered EventSignals (completion done-signals) and Completions
# travel by value; anchored signals take the anchor path first.  Process
# is deliberately NOT registered — a generator frame reachable from a
# snapshot is a hard error, surfaced by the codec.
from .snapshot import register_snapshot_class as _register_snapshot_class

_register_snapshot_class(EventSignal)
_register_snapshot_class(Completion)
