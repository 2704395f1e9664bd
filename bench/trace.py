"""Outside-in layer tracing: host time and event counts per simulator layer.

Nothing in ``src/`` knows about this module.  :func:`traced` patches, at
class level and only for the duration of a ``with`` block:

* ``Simulator.schedule`` / ``Simulator.schedule_at`` — every handler is
  wrapped as ``partial(_dispatch, layer, fn)``, where ``layer`` is the
  layer owning ``fn`` (see :meth:`Tracer.layer_of`).  A partial of a
  module-level function stays checkpointable, so warm-started sweeps
  still snapshot and restore under tracing.
* the synchronous public entry points in :data:`ENTRY_POINTS`, each
  wrapped in a span of its layer.

Spans nest on one stack.  Host time is charged to whichever layer is on
top of the stack, so a layer's self time is its spans' duration minus
their child spans, and the self times of all layers add up to the traced
wall time exactly.  Only the few coarse spans that :data:`ENTRY_POINTS`
names (build, engine, energy, dump, cache, record, checkpoint, traffic)
are kept whole, for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import types
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "ENTRY_POINTS", "Tracer", "traced"]

#: The simulator's layers, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "core", "mem.spm", "mem.mact", "mem.dram", "noc.sub", "noc.main",
    "noc.bridge", "chip", "build", "xeon", "sched", "traffic", "power",
    "ckpt", "exp", "stats",
)

#: Time and events outside any traced phase (never reported as a layer).
_OUTSIDE = "outside"

#: Owner module prefix -> layer; the longest matching prefix wins.
_MODULE_LAYERS: Dict[str, str] = {
    "repro": "exp",
    "repro.analysis": "stats",
    "repro.chip": "exp",
    "repro.chip.session": "ckpt",
    "repro.chip.smarco": "chip",
    "repro.chip.xeon": "xeon",
    "repro.config": "build",
    "repro.core": "core",
    "repro.core.ooo": "xeon",
    "repro.exp": "exp",
    "repro.isa": "core",
    "repro.mapreduce": "core",
    "repro.mem": "mem.dram",
    "repro.mem.cache": "xeon",
    "repro.mem.dma": "mem.spm",
    "repro.mem.hierarchy": "xeon",
    "repro.mem.mact": "mem.mact",
    "repro.mem.prefetch": "mem.spm",
    "repro.mem.spm": "mem.spm",
    "repro.noc": "noc.sub",
    "repro.noc.hierring": "noc.bridge",
    "repro.power": "power",
    "repro.sched": "sched",
    "repro.sim": "sim",
    "repro.sim.checkpoint": "ckpt",
    "repro.sim.snapshot": "ckpt",
    "repro.sim.stats": "stats",
    "repro.traffic": "traffic",
    "repro.workloads": "core",
}


def module_layer(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    name = module
    while name:
        layer = _MODULE_LAYERS.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return "sim"


def _ring_layer(ring: Any) -> str:
    return "noc.main" if ring.name == "main" else "noc.sub"


#: Owner markers for handlers whose layer depends on the instance.
_BY_RING = object()
_BY_GENERATOR = object()


def _resolve(key: Any, fn: Callable) -> Any:
    """A layer, or an owner marker, for a handler cache key."""
    from repro.sim.engine import Process

    if key is Process:
        return _BY_GENERATOR
    if isinstance(key, type):
        if key.__module__ == "repro.noc.ring":
            return _BY_RING
        return module_layer(key.__module__)
    return module_layer(getattr(fn, "__module__", None) or "")


#: (module, dotted attribute, layer or resolver(args), kept span name).
#: A resolver maps the call's positional arguments to a layer.
ENTRY_POINTS: Tuple[Tuple[str, str, Any, Optional[str]], ...] = (
    ("repro.chip.smarco", "SmarCoChip.__init__", "build", "build"),
    ("repro.chip.smarco", "SmarCoChip.load_profile", "build", "build"),
    ("repro.core.tcg", "TCGCore.__init__", "build", None),
    ("repro.chip.xeon", "XeonSystem.__init__", "xeon", "build"),
    ("repro.chip.xeon", "XeonSystem.load_profile", "xeon", "build"),
    ("repro.sched.scenarios", "prepare_sched_scenario", "sched", "build"),
    ("repro.sim.engine", "Simulator.run", "sim", "engine"),
    ("repro.chip.run", "build_energy_report", "power", "energy"),
    ("repro.sim.stats", "StatsRegistry.dump", "stats", "dump"),
    ("repro.sim.component", "Component.tree_dict", "stats", "dump"),
    ("repro.chip.run", "RunOutcome.to_dict", "stats", "dump"),
    ("repro.chip.run", "RunOutcome.from_dict", "stats", "dump"),
    ("repro.exp.runner", "nest_flat_stats", "stats", "dump"),
    ("repro.exp.cache", "ResultCache.get", "exp", "cache"),
    ("repro.exp.cache", "ResultCache.put", "exp", "cache"),
    ("repro.exp.runner", "write_record", "exp", "record"),
    ("repro.chip.session", "RunSession.checkpoint", "ckpt", "checkpoint"),
    ("repro.chip.session", "RunSession.save", "ckpt", "checkpoint"),
    ("repro.chip.session", "RunSession.restore", "ckpt", "checkpoint"),
    ("repro.traffic.cluster", "run_traffic", "traffic", "traffic"),
    ("repro.noc.hierring", "HierarchicalRingNoC.send", "noc.bridge", None),
    ("repro.noc.ring", "Ring.send", lambda args: _ring_layer(args[0]), None),
    ("repro.mem.mact", "MACT.submit", "mem.mact", None),
    ("repro.mem.mact", "MACT.flush_all", "mem.mact", None),
    ("repro.mem.controller", "MemoryController.submit", "mem.dram", None),
    ("repro.mem.spm", "SpmAddressMap.route", "mem.spm", None),
    ("repro.mem.spm", "SpmAddressMap.owner_of", "mem.spm", None),
    ("repro.mem.spm", "Scratchpad.serve_remote", "mem.spm", None),
    ("repro.mem.dma", "DmaEngine.copy", "mem.spm", None),
    ("repro.mem.dma", "DmaEngine.prefetch_fill", "mem.spm", None),
)

#: The tracer the patched code reports to (set only inside :func:`traced`).
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Per-layer self time, event and call counts, and the kept spans."""

    def __init__(self) -> None:
        keys = LAYERS + (_OUTSIDE,)
        self.self_s: Dict[str, float] = dict.fromkeys(keys, 0.0)
        self.events: Dict[str, int] = dict.fromkeys(keys, 0)
        self.calls: Dict[str, int] = dict.fromkeys(keys, 0)
        #: kept spans: [name, layer, start, end, parent index or None]
        self.spans: List[List[Any]] = []
        #: summed duration of the top-level phases
        self.wall_s = 0.0
        self._stack: List[str] = [_OUTSIDE]
        self._open: List[int] = []
        self._t0 = self._mark = perf_counter()
        self._owner_layers: Dict[Any, Any] = {}

    # -- the span stack ------------------------------------------------------

    def enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.append(layer)

    def exit(self) -> None:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def enter_kept(self, name: str, layer: str) -> None:
        self.enter(layer)
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, layer, self._mark - self._t0, None, parent])

    def exit_kept(self) -> None:
        self.exit()
        self.spans[self._open.pop()][3] = self._mark - self._t0

    @contextlib.contextmanager
    def phase(self, name: str, layer: str = "exp") -> Iterator[None]:
        """A top-level span; its glue time is charged to ``layer``."""
        self.enter_kept(name, layer)
        start = self._mark
        try:
            yield
        finally:
            self.exit_kept()
            self.wall_s += self._mark - start

    # -- handler ownership ---------------------------------------------------

    def layer_of(self, fn: Callable) -> str:
        """The layer owning an event handler.

        ``functools.partial`` is unwrapped; a bound method belongs to its
        class's module, a ``Process`` step to its generator's module, and
        a ring flight to the main ring or a sub-ring by the ring's name.
        """
        while type(fn) is partial:
            fn = fn.func
        owner = getattr(fn, "__self__", None)
        if owner is None or type(owner) is types.ModuleType:
            key: Any = getattr(fn, "__code__", fn)
        else:
            key = type(owner)
        layer = self._owner_layers.get(key)
        if layer is None:
            layer = self._owner_layers[key] = _resolve(key, fn)
        if type(layer) is str:
            return layer
        if layer is _BY_RING:
            return _ring_layer(getattr(owner, "ring", owner))
        frame = owner.gen.gi_frame
        if frame is None:
            return "sim"
        return module_layer(frame.f_globals.get("__name__", ""))

    # -- report ----------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Per-layer totals plus the kept spans (times relative to start)."""
        return {
            "wall_s": self.wall_s,
            "layers": {layer: {"events": self.events[layer],
                               "calls": self.calls[layer],
                               "self_s": self.self_s[layer]}
                       for layer in LAYERS},
            "spans": [{"name": name, "layer": layer, "start_s": start,
                       "end_s": end, "parent": parent}
                      for name, layer, start, end, parent in self.spans],
        }


def _dispatch(layer: str, fn: Callable, *args: Any) -> None:
    """Run one event handler inside a span of its owner's layer.

    This is :meth:`Tracer.enter` / :meth:`Tracer.exit` inlined: it runs
    once per simulated event, so its cost is most of the tracing overhead.
    """
    tracer = _ACTIVE
    if tracer is None:
        fn(*args)
        return
    tracer.events[layer] += 1
    stack = tracer._stack
    self_s = tracer.self_s
    now = perf_counter()
    self_s[stack[-1]] += now - tracer._mark
    tracer._mark = now
    stack.append(layer)
    try:
        fn(*args)
    finally:
        now = perf_counter()
        self_s[stack.pop()] += now - tracer._mark
        tracer._mark = now


def _span_wrapper(orig: Callable, layer: Any,
                  kept: Optional[str]) -> Callable:
    """Wrap a synchronous entry point in a span of ``layer``.

    A call made from inside the same wrapper (a recursive
    ``Component.tree_dict``) is not a span of its own.
    """
    depth = [0]

    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None or depth[0]:
            return orig(*args, **kwargs)
        name = layer if type(layer) is str else layer(args)
        tracer.calls[name] += 1
        if kept is None:
            tracer.enter(name)
        else:
            tracer.enter_kept(kept, name)
        depth[0] = 1
        try:
            return orig(*args, **kwargs)
        finally:
            depth[0] = 0
            if kept is None:
                tracer.exit()
            else:
                tracer.exit_kept()

    return wrapper


def _patch(owner: Any, attr: str, layer: Any, kept: Optional[str]) -> Any:
    """Replace ``owner.attr`` by a span wrapper; returns the original."""
    orig = owner.__dict__[attr]
    if isinstance(orig, (classmethod, staticmethod)):
        wrapped: Any = type(orig)(_span_wrapper(orig.__func__, layer, kept))
    else:
        wrapped = _span_wrapper(orig, layer, kept)
    setattr(owner, attr, wrapped)
    return orig


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the block; every patch is undone on exit."""
    global _ACTIVE
    from repro.sim.engine import Simulator

    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already installed")
    restore: List[Tuple[Any, str, Any]] = []
    layer_of = tracer.layer_of
    # fast path: a bound method of a class whose layer is fixed
    by_class = tracer._owner_layers
    schedule = Simulator.__dict__["schedule"]
    schedule_at = Simulator.__dict__["schedule_at"]

    def traced_schedule(sim: Any, delay: float, fn: Callable,
                        *args: Any) -> None:
        layer = by_class.get(type(getattr(fn, "__self__", None)))
        if type(layer) is not str:
            layer = layer_of(fn)
        schedule(sim, delay, partial(_dispatch, layer, fn), *args)

    def traced_schedule_at(sim: Any, when: float, fn: Callable,
                           *args: Any) -> None:
        layer = by_class.get(type(getattr(fn, "__self__", None)))
        if type(layer) is not str:
            layer = layer_of(fn)
        schedule_at(sim, when, partial(_dispatch, layer, fn), *args)

    try:
        restore.append((Simulator, "schedule", schedule))
        Simulator.schedule = traced_schedule
        restore.append((Simulator, "schedule_at", schedule_at))
        Simulator.schedule_at = traced_schedule_at
        for module_name, dotted, layer, kept in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            restore.append((owner, attr, _patch(owner, attr, layer, kept)))
        _ACTIVE = tracer
        yield tracer
    finally:
        _ACTIVE = None
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)
