"""Thread Core Group timing model (paper §3.1).

A TCG is a 4-wide in-order core with 4 *slots*; each slot hosts an
in-pair thread couple (8 hardware threads total).  Because only one
thread of a pair runs at a time, the four slots structurally satisfy the
4-wide issue limit: each running thread issues at most one instruction
per cycle.  That is exactly why the paper sees IPC "growing linearly"
from 1 to 4 threads (Fig 17).

Scheduling policies (the Fig 17 ablation set):

* ``"inpair"`` — the paper's mechanism: slot *i* hosts threads
  ``(2i, 2i+1)``; on an SPM/D-cache miss the friend thread takes over;
  the blocked thread resumes only when its data is back **and** the
  friend blocks;
* ``"blocking"`` — no pairing: one thread per slot, stalls on miss;
* ``"coarse"`` — coarse-grained MT with a *global* ready pool: a slot
  picks any runnable thread, modelling the more complex scheduler the
  paper argues is unnecessary for same-behaviour HTC threads.

Memory routing follows the paper's LSQ address check (§3.5.1): SPM-window
addresses hit the scratchpad, addresses above :data:`UNCACHED_BASE` are
streaming/uncached small-granularity accesses that travel to memory
as-is (the MACT path), everything else goes through the 16 KB D-cache at
line granularity.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Deque, Dict, Generator, Iterator, List, Optional, Tuple

from ..config import TCGConfig
from ..errors import ConfigError, SimulationError
from ..mem.cache import Cache
from ..mem.request import MemRequest, Priority
from ..mem.spm import SpmAddressMap, SPM_REGION_BASE
from ..sim.component import Component
from ..sim.engine import EventSignal, Simulator
from ..sim.snapshot import snapshotable
from ..sim.stats import StatsRegistry
from .ports import FunctionPort, MemoryPort
from .stream import CoreInstr
from .thread import HardwareThread, ThreadState

__all__ = ["TCGCore", "UNCACHED_BASE"]

# LSQ address map: [0, SPM_REGION_BASE) cacheable DRAM,
# [SPM_REGION_BASE, UNCACHED_BASE) scratchpads,
# [UNCACHED_BASE, ...) uncached streaming accesses (MACT-eligible).
UNCACHED_BASE = 0x8000_0000_0000

_POLICIES = ("inpair", "blocking", "coarse")


@snapshotable
class _SlotEngine:
    """Explicit-state form of the slot scheduling process.

    One engine per slot replaces the old ``_slot_proc`` generator.  Each
    ``_step`` call is one resume of that generator: it executes
    synchronously through pick/dispatch/run until it must wait (a
    thread-switch delay, an instruction bundle, an idle slot) and then
    issues exactly one ``schedule``/``wait`` — the same calls, in the
    same order, with the same sequence numbers the generator produced.
    Being a plain object with field state, it survives a checkpoint.
    """

    __slots__ = ("core", "slot_id", "prev", "idle", "thread",
                 "blocking", "posted", "phase")

    def __init__(self, core: "TCGCore", slot_id: int) -> None:
        self.core = core
        self.slot_id = slot_id
        self.prev: Optional[HardwareThread] = None
        self.idle = False       # the slot just slept on its wake signal
        self.thread: Optional[HardwareThread] = None
        self.blocking: Optional[MemRequest] = None
        self.posted: tuple = ()
        self.phase = "pick"

    def _wake_signal(self) -> EventSignal:
        core = self.core
        return (core._coarse_wake if core.policy == "coarse"
                else core._slot_wake[self.slot_id])

    def _step(self, _payload=None) -> None:
        core = self.core
        sim = core.sim
        while True:
            if self.phase == "pick":
                thread, any_alive = core._pick(self.slot_id, self.prev)
                if not any_alive:
                    return                       # slot retires
                if thread is None:
                    self.idle = True
                    self._wake_signal().wait(self._step)
                    return
                if core._audit is not None:
                    # at pick time, before any yield: prev may legally
                    # unblock during the switch-latency wait below
                    core._audit.thread_picked(core, self.slot_id, thread,
                                              self.prev, self.idle)
                self.idle = False
                self.thread = thread
                self.phase = "dispatch"
                if self.prev is not None and thread is not self.prev:
                    thread.switches += 1
                    core.switch_count.inc()
                    sim.schedule(core.config.thread_switch_latency,
                                 self._step, None)
                    return
                continue
            if self.phase == "dispatch":
                thread = self.thread
                if thread.ready_at is not None:
                    core.resume_wait.add(sim.now - thread.ready_at)
                    if thread.resume_trace is not None:
                        # out-of-chain record: the request already
                        # completed, this is how long its thread then
                        # waited for the slot
                        thread.resume_trace.stamp(
                            "resume", core.path, thread.ready_at, sim.now)
                    thread.ready_at = None
                    thread.resume_trace = None
                thread.state = ThreadState.RUNNING
                self.prev = thread
                self.phase = "run"
                continue
            if self.phase == "run":
                # Non-interacting instructions (ALU, branches, cache/SPM
                # hits) accumulate into one delay — exact under in-pair
                # semantics, since a slot only switches threads at misses
                # anyway.  The clock is synced before any request issues.
                next_instr = self.thread.next_instr
                retire = core.retired.inc
                execute = core._execute
                pending = 0.0
                nxt = None
                while True:
                    instr = next_instr()
                    if instr is None:
                        if pending:
                            self.phase = "finish"
                            sim.schedule(pending, self._step, None)
                            return
                        nxt = "finish"
                        break
                    retire()
                    cost, blocking, posted = execute(instr)
                    pending += cost
                    if posted or blocking is not None:
                        if pending:
                            self.blocking = blocking
                            self.posted = posted
                            self.phase = "issue"
                            sim.schedule(pending, self._step, None)
                            return
                        nxt = self._issue(blocking, posted)
                        if nxt is not None:
                            break
                if nxt is None:
                    raise SimulationError("slot run loop fell through")
                self.phase = nxt
                continue
            if self.phase == "issue":
                blocking, posted = self.blocking, self.posted
                self.blocking, self.posted = None, ()
                nxt = self._issue(blocking, posted)
                self.phase = nxt if nxt is not None else "run"
                continue
            if self.phase == "finish":
                thread = self.thread
                thread.finish(sim.now)
                if thread.state is ThreadState.DONE:
                    core._maybe_finish()
                self.phase = "pick"
                continue
            raise SimulationError(f"slot engine in unknown phase {self.phase!r}")

    def _issue(self, blocking: Optional[MemRequest],
               posted: tuple) -> Optional[str]:
        """Issue the flushed requests; returns the next phase when the
        thread blocked, None to keep running it."""
        core = self.core
        for req in posted:
            core.port.issue(req)
        if blocking is None:
            return None
        thread = self.thread
        thread.block()
        thread.blocked_at = core.sim.now
        signal = core.port.issue(blocking)
        # the chip may have attached a trace during issue
        thread.resume_trace = blocking.trace
        signal.wait(functools.partial(core._data_returned, thread,
                                      self.slot_id))
        return "pick"


class TCGCore(Component):
    """One Thread Core Group.

    Misses leave the core through ``self.port``.  When no explicit port is
    supplied, the core issues through its declared ``mem_req`` output port
    and the chip wires that to the memory path; unit rigs instead pass a
    :class:`~repro.core.ports.FixedLatencyPort` (or similar) directly.
    """

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        port: Optional[MemoryPort] = None,
        config: Optional[TCGConfig] = None,
        policy: str = "inpair",
        spm_map: Optional[SpmAddressMap] = None,
        mul_latency: int = 3,
        branch_penalty: int = 2,
        icache_miss_penalty: int = 20,
        realtime_fraction: float = 0.0,
        rng=None,
        registry: Optional[StatsRegistry] = None,
        parent: Optional[Component] = None,
        name: Optional[str] = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ConfigError(f"unknown TCG policy {policy!r}")
        if realtime_fraction and rng is None:
            raise ConfigError("realtime_fraction needs an rng")
        super().__init__(name if name is not None else f"core{core_id}",
                         parent=parent, sim=sim, registry=registry)
        self.core_id = core_id
        self.mem_req = self.out_port(
            "mem_req", MemRequest, optional=port is not None,
            doc="misses and posted writes bound for the memory path",
        )
        self.port: MemoryPort = (
            port if port is not None else FunctionPort(sim, self.mem_req.send)
        )
        self.config = config if config is not None else TCGConfig()
        self.policy = policy
        self.spm_map = spm_map
        self.mul_latency = mul_latency
        self.branch_penalty = branch_penalty
        self.icache_miss_penalty = icache_miss_penalty
        self.realtime_fraction = realtime_fraction
        self._rng = rng

        self.dcache = Cache("dcache", self.config.dcache_bytes,
                            self.config.cache_line_bytes,
                            self.config.cache_ways, self.stats,
                            hit_latency=self.config.dcache_hit_latency)
        self.icache = Cache("icache", self.config.icache_bytes,
                            self.config.cache_line_bytes,
                            self.config.cache_ways, self.stats)
        self.spm_hits = self.stats.counter("spm_hits")
        self.uncached_accesses = self.stats.counter("uncached")
        self.switch_count = self.stats.counter("switches")
        self.retired = self.stats.counter("retired")
        # in-pair park/resume accounting: block -> data-back, and
        # data-back -> actually re-picked by the slot
        self.park_cycles = self.stats.accumulator("park_cycles")
        self.resume_wait = self.stats.accumulator("resume_wait")

        self.threads: List[HardwareThread] = []
        self._engines: List[_SlotEngine] = []
        self._slots: List[List[HardwareThread]] = []
        # registered up front (never at start()) so the signal registry is
        # purely structural: a fresh build and a mid-run snapshot of the
        # same config expose identical signal sets to checkpoints
        self._slot_wake_pool: List[EventSignal] = [
            sim.signal(f"core{core_id}.slot{i}.wake")
            for i in range(self.config.running_threads)
        ]
        self._slot_wake: List[EventSignal] = []
        self._coarse_pool: Deque[HardwareThread] = deque()
        self._coarse_wake = sim.signal(f"core{core_id}.coarse_wake")
        self._shared_segments: List[Tuple[int, int]] = []
        self._last_fetch_line = -1
        self.started = False
        self.start_time: float = 0.0
        self.finish_time: Optional[float] = None
        #: fired (with the core) when the last thread finishes
        self.done_signal = sim.signal(f"core{core_id}.done")
        self._audit = None              # set by attach_audit
        self._thread_observer = None

    def attach_audit(self, auditor) -> None:
        observer = auditor.register_core(self)
        if observer is None:
            return
        self._audit = auditor
        self._thread_observer = observer
        for thread in self.threads:
            thread.observer = observer

    # -- configuration -----------------------------------------------------------

    def add_thread(self, stream: Iterator[CoreInstr], name: str = "") -> HardwareThread:
        """Attach a hardware thread; must be called before :meth:`start`."""
        if self.started:
            raise SimulationError("cannot add threads after start()")
        if len(self.threads) >= self.config.hw_threads:
            raise ConfigError(
                f"core {self.core_id}: at most {self.config.hw_threads} threads"
            )
        if self.policy == "blocking" and len(self.threads) >= self.config.running_threads:
            raise ConfigError(
                "blocking policy supports at most one thread per slot"
            )
        tid = len(self.threads)
        # First `running_threads` threads occupy distinct slots; later ones
        # become their friends (pairing engages past 4 threads, Fig 17).
        thread = HardwareThread(tid, pair_id=tid % self.config.running_threads,
                                stream=stream, name=name)
        if self._thread_observer is not None:
            thread.observer = self._thread_observer
        self.threads.append(thread)
        return thread

    def set_shared_segment(self, lo_pc: int, hi_pc: int) -> None:
        """Mark a PC range as SPM-prefetched (paper §3.1.2): instruction
        fetches in the range never miss the I-cache."""
        self._shared_segments.append((lo_pc, hi_pc))

    # -- slot construction ---------------------------------------------------------

    def _build_slots(self) -> None:
        n_slots = self.config.running_threads
        if self.policy == "inpair":
            self._slots = [
                [t for t in self.threads if t.pair_id == s]
                for s in range(n_slots)
            ]
        elif self.policy == "blocking":
            self._slots = [[t] for t in self.threads[:n_slots]]
        else:  # coarse: slots share the pool
            self._coarse_pool.extend(self.threads)
            self._slots = [[] for _ in range(min(n_slots, len(self.threads)))]
        self._slots = [s for s in self._slots if s or self.policy == "coarse"]
        self._slot_wake = self._slot_wake_pool[:len(self._slots)]

    def start(self) -> None:
        """Start the slot engines.  Call once, then run the simulator."""
        if self.started:
            raise SimulationError("core already started")
        if not self.threads:
            raise ConfigError("core has no threads")
        self.started = True
        self.start_time = self.sim.now
        self._build_slots()
        for slot_id in range(len(self._slots)):
            engine = _SlotEngine(self, slot_id)
            self._engines.append(engine)
            self.sim.schedule(0, engine._step, None)

    # -- scheduling ---------------------------------------------------------------

    def _pick(self, slot_id: int, prev: Optional[HardwareThread]) -> Tuple[Optional[HardwareThread], bool]:
        """(next thread, any_alive).  Rotates for fairness within a slot."""
        if self.policy == "coarse":
            alive = [t for t in self._coarse_pool if t.state is not ThreadState.DONE]
            if not alive:
                return None, False
            for _ in range(len(self._coarse_pool)):
                t = self._coarse_pool[0]
                self._coarse_pool.rotate(-1)
                # a RUNNING thread is claimed by another slot
                if t.runnable and t.state is not ThreadState.RUNNING:
                    t.state = ThreadState.RUNNING      # claim before any yield
                    return t, True
            return None, True

        slot = self._slots[slot_id]
        alive = [t for t in slot if t.state is not ThreadState.DONE]
        if not alive:
            return None, False
        # prefer a runnable thread that is not the one that just blocked
        for t in alive:
            if t.runnable and t is not prev:
                return t, True
        if prev is not None and prev in alive and prev.runnable:
            return prev, True
        return None, True

    def slot_threads(self, slot_id: int) -> Tuple[HardwareThread, ...]:
        """Threads bound to one slot (empty under the coarse global pool)."""
        if self.policy == "coarse" or not self._slots:
            return ()
        return tuple(self._slots[slot_id])

    def _wake_slot(self, slot_id: int) -> None:
        if self.policy == "coarse":
            self._coarse_wake.fire()
        else:
            self._slot_wake[slot_id].fire()

    def _data_returned(self, thread: HardwareThread, slot_id: int,
                       _payload=None) -> None:
        thread.unblock()
        thread.ready_at = self.sim.now
        self.park_cycles.add(self.sim.now - thread.blocked_at)
        self._wake_slot(slot_id)

    def _maybe_finish(self) -> None:
        if all(t.state is ThreadState.DONE for t in self.threads):
            self.finish_time = self.sim.now
            self.done_signal.fire(self)

    # -- execution ------------------------------------------------------------------

    def _in_shared_segment(self, pc: int) -> bool:
        return any(lo <= pc <= hi for lo, hi in self._shared_segments)

    def _fetch_cost(self, instr: CoreInstr) -> int:
        pc = instr.pc
        if pc is None or (self._shared_segments
                          and self._in_shared_segment(pc)):
            return 0
        fetch_addr = pc * 4
        line = fetch_addr // self.config.cache_line_bytes
        if self.icache.access(fetch_addr).hit:
            self._last_fetch_line = line
            return 0
        sequential = line == self._last_fetch_line + 1
        self._last_fetch_line = line
        # straight-line code is covered by next-line prefetch; only
        # discontinuous fetches pay the full refill
        return 2 if sequential else self.icache_miss_penalty

    _NO_REQS: tuple = ()

    def _execute(self, instr: CoreInstr):
        """(cycles, blocking request or None, posted requests)."""
        cost: float = self._fetch_cost(instr)
        kind = instr.kind
        if kind == "alu":
            return cost + 1, None, self._NO_REQS
        if kind == "mul":
            return cost + self.mul_latency, None, self._NO_REQS
        if kind == "branch":
            penalty = self.branch_penalty if instr.taken else 0
            return cost + 1 + penalty, None, self._NO_REQS
        if kind in ("load", "store"):
            return self._execute_mem(instr, cost)
        raise SimulationError(f"unknown instruction kind {kind!r}")

    def _route(self, addr: int) -> str:
        if addr >= UNCACHED_BASE:
            return "uncached"
        if addr >= SPM_REGION_BASE:
            if self.spm_map is None:
                return "spm-local"
            return self.spm_map.route(addr, self.core_id)
        return "cached"

    def _execute_mem(self, instr: CoreInstr, cost: float):
        cfg = self.config
        addr = instr.addr if instr.addr is not None else 0
        is_write = instr.kind == "store"
        route = self._route(addr)

        if route == "spm-local":
            self.spm_hits.inc()
            return cost + cfg.spm_hit_latency, None, self._NO_REQS

        if route == "spm-remote":
            # remote SPM access rides the sub-ring; loads block
            request = MemRequest(addr=addr, size=instr.size or 8,
                                 is_write=is_write, core_id=self.core_id)
            if is_write:
                return cost + 1, None, (request,)      # posted write
            return cost + 1, request, self._NO_REQS

        if route == "uncached":
            self.uncached_accesses.inc()
            priority = Priority.NORMAL
            if (self.realtime_fraction and self._rng is not None
                    and self._rng.random() < self.realtime_fraction):
                priority = Priority.REALTIME
            request = MemRequest(addr=addr, size=instr.size or 4,
                                 is_write=is_write, core_id=self.core_id,
                                 priority=priority)
            if is_write:
                return cost + 1, None, (request,)      # store buffer drains it
            return cost + 1, request, self._NO_REQS

        # cached path: 16KB write-back D-cache, line-granular fills
        result = self.dcache.access(addr, is_write)
        posted = []
        if result.victim_dirty and result.victim_addr is not None:
            posted.append(MemRequest(
                addr=result.victim_addr, size=cfg.cache_line_bytes,
                is_write=True, core_id=self.core_id,
            ))
        if result.hit:
            return cost + cfg.dcache_hit_latency, None, tuple(posted)
        line_addr = (addr // cfg.cache_line_bytes) * cfg.cache_line_bytes
        fill = MemRequest(addr=line_addr, size=cfg.cache_line_bytes,
                          is_write=False, core_id=self.core_id)
        if is_write:
            posted.append(fill)                 # write-allocate, non-blocking
            return cost + cfg.dcache_hit_latency, None, tuple(posted)
        return cost + cfg.dcache_hit_latency, fill, tuple(posted)

    # -- snapshot protocol -------------------------------------------------------------

    def extra_state(self) -> dict:
        return {
            "threads": self.threads,
            "engines": self._engines,
            "slots": [list(slot) for slot in self._slots],
            "coarse_pool": list(self._coarse_pool),
            "shared_segments": list(self._shared_segments),
            "last_fetch_line": self._last_fetch_line,
            "started": self.started,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "dcache": self.dcache.state_dict(),
            "icache": self.icache.state_dict(),
        }

    def load_extra_state(self, state: dict) -> None:
        self.threads = list(state["threads"])
        self._engines = list(state["engines"])
        self._slots = [list(slot) for slot in state["slots"]]
        self._coarse_pool = deque(state["coarse_pool"])
        self._shared_segments = [tuple(seg)
                                 for seg in state["shared_segments"]]
        self._last_fetch_line = state["last_fetch_line"]
        self.started = state["started"]
        self.start_time = state["start_time"]
        self.finish_time = state["finish_time"]
        self.dcache.load_state(state["dcache"])
        self.icache.load_state(state["icache"])
        # slot wake signals are construction-time structure; re-derive the
        # active prefix for the restored slot partition
        self._slot_wake = self._slot_wake_pool[:len(self._slots)]

    # -- results ----------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def elapsed(self) -> float:
        end = self.finish_time if self.finish_time is not None else self.sim.now
        return max(0.0, end - self.start_time)

    @property
    def instructions(self) -> int:
        return self.retired.value

    @property
    def ipc(self) -> float:
        return self.instructions / self.elapsed if self.elapsed else 0.0

    @property
    def utilization(self) -> float:
        """Issue-slot utilisation (IPC / issue width)."""
        return self.ipc / self.config.issue_width

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TCGCore({self.core_id}, {self.policy}, "
            f"threads={len(self.threads)}, ipc={self.ipc:.2f})"
        )
