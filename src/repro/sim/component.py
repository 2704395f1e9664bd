"""Hierarchical component model: tree, typed ports, lifecycle, scoped stats.

The paper's chip is an explicit hierarchy — chip → sub-ring → TCG core —
with per-sub-ring MACT/DMA/bridge resources (Fig 4).  This module makes
that hierarchy a first-class object:

* :class:`Component` — a node in a parent/child tree with a scoped path
  name (``chip.subring3.mact``).  Children inherit the simulator, the
  :class:`~repro.sim.stats.StatsRegistry` from their parent, and every
  stat a component registers carries its hierarchical path.
* :class:`Port` / :class:`Wire` — typed, declared connection points
  replacing ad-hoc callables.  An :class:`OutputPort` connects to an
  :class:`InputPort` (fan-in and fan-out both allowed); delivery is a
  synchronous call, so wiring through ports is timing-neutral — any
  latency is modelled by the components themselves (NoC, links, DRAM).
* an explicit lifecycle — **build** (constructors create the tree and
  declare ports) → **connect** (:meth:`Component.on_connect` hooks wire
  ports) → **finalize** (wiring validated, :meth:`Component.on_finalize`
  hooks run) → **ready**; :meth:`Component.reset` re-arms components for
  another run.

The tree is introspectable: :meth:`Component.tree` renders it,
:meth:`Component.find` matches glob patterns (``chip.find("subring*/mact")``),
and :meth:`Component.tree_dict` produces the JSON form the experiment
layer embeds in per-run telemetry.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    TYPE_CHECKING)

from ..errors import WiringError
from .stats import StatsRegistry, StatsScope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

__all__ = ["Component", "Port", "InputPort", "OutputPort", "Wire"]

#: Lifecycle phases, in order.
PHASES = ("build", "connect", "finalize", "ready")


class Port:
    """A declared connection point on a component.

    ``payload_type`` is the message class the port carries; it is checked
    at connect time (output and input must agree) and at delivery time.
    """

    __slots__ = ("owner", "name", "payload_type", "doc", "wires")

    def __init__(self, owner: "Component", name: str,
                 payload_type: type = object, doc: str = "") -> None:
        self.owner = owner
        self.name = name
        self.payload_type = payload_type
        self.doc = doc
        self.wires: List["Wire"] = []

    @property
    def path(self) -> str:
        return f"{self.owner.path}.{self.name}"

    @property
    def connected(self) -> bool:
        return bool(self.wires)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.path}, "
                f"{self.payload_type.__name__}, wires={len(self.wires)})")


class InputPort(Port):
    """Receives payloads; dispatches them to the bound handler."""

    __slots__ = ("_handler", "received")

    def __init__(self, owner: "Component", name: str,
                 payload_type: type = object,
                 handler: Optional[Callable[[Any], Any]] = None,
                 doc: str = "") -> None:
        super().__init__(owner, name, payload_type, doc)
        self._handler = handler
        self.received = 0

    def bind(self, handler: Callable[[Any], Any]) -> "InputPort":
        """Attach the receive handler (once; constructors may pre-bind)."""
        if self._handler is not None:
            raise WiringError(f"input port {self.path} already bound")
        self._handler = handler
        return self

    def recv(self, payload: Any) -> Any:
        """Deliver one payload (called by wires; also useful in tests)."""
        if self._handler is None:
            raise WiringError(f"input port {self.path} has no handler")
        if not isinstance(payload, self.payload_type):
            raise WiringError(
                f"input port {self.path} expects {self.payload_type.__name__},"
                f" got {type(payload).__name__}"
            )
        self.received += 1
        return self._handler(payload)


class OutputPort(Port):
    """Sends payloads down its connected wires.

    ``optional=True`` marks ports that may legitimately stay unconnected
    (finalize skips them); sending on an unconnected port always raises.
    """

    __slots__ = ("optional", "sent")

    def __init__(self, owner: "Component", name: str,
                 payload_type: type = object, optional: bool = False,
                 doc: str = "") -> None:
        super().__init__(owner, name, payload_type, doc)
        self.optional = optional
        self.sent = 0

    def connect(self, dst: "InputPort") -> "Wire":
        """Wire this output to ``dst``; returns the new :class:`Wire`."""
        if not isinstance(dst, InputPort):
            raise WiringError(
                f"{self.path}: can only connect to an InputPort, "
                f"got {type(dst).__name__}"
            )
        if self.owner.phase not in ("build", "connect"):
            raise WiringError(
                f"{self.path}: cannot connect during phase {self.owner.phase!r}"
            )
        if not (issubclass(self.payload_type, dst.payload_type)
                or issubclass(dst.payload_type, self.payload_type)):
            raise WiringError(
                f"type mismatch wiring {self.path} "
                f"({self.payload_type.__name__}) -> {dst.path} "
                f"({dst.payload_type.__name__})"
            )
        wire = Wire(self, dst)
        self.wires.append(wire)
        dst.wires.append(wire)
        return wire

    def send(self, payload: Any) -> Any:
        """Deliver a payload to every connected wire (synchronously)."""
        if not self.wires:
            raise WiringError(f"send on unconnected output port {self.path}")
        if not isinstance(payload, self.payload_type):
            raise WiringError(
                f"output port {self.path} carries {self.payload_type.__name__},"
                f" got {type(payload).__name__}"
            )
        self.sent += 1
        if len(self.wires) == 1:
            return self.wires[0].deliver(payload)
        result = None
        for wire in self.wires:
            result = wire.deliver(payload)
        return result


class Wire:
    """One directed connection between an output and an input port."""

    __slots__ = ("src", "dst", "messages")

    def __init__(self, src: OutputPort, dst: InputPort) -> None:
        self.src = src
        self.dst = dst
        self.messages = 0

    def deliver(self, payload: Any) -> Any:
        self.messages += 1
        return self.dst.recv(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Wire({self.src.path} -> {self.dst.path}, n={self.messages})"


class Component:
    """A node in the chip's component tree.

    A component created with a ``parent`` is adopted into the parent's
    tree and inherits its simulator and stats registry; a component
    created without one is a *root* (a whole chip, or a unit under test)
    and owns a fresh registry unless given one.  Either way,
    ``self.stats`` is a :class:`~repro.sim.stats.StatsScope` that
    registers stats under the component's hierarchical path.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["Component"] = None,
        sim: Optional["Simulator"] = None,
        registry: Optional[StatsRegistry] = None,
    ) -> None:
        if not name or "." in name or "/" in name:
            raise WiringError(f"bad component name {name!r}")
        self.name = name
        self.parent = parent
        self._children: Dict[str, "Component"] = {}
        self._ports: Dict[str, Port] = {}
        self._phase = "build"
        if parent is not None:
            self.path = f"{parent.path}.{name}"
            self.sim = sim if sim is not None else parent.sim
            self.registry = registry if registry is not None else parent.registry
            parent._adopt(self)
        else:
            self.path = name
            self.sim = sim
            self.registry = registry if registry is not None else StatsRegistry()
        self.stats = StatsScope(self.registry, self.path)

    # -- tree structure ------------------------------------------------------

    def _adopt(self, child: "Component") -> None:
        if child.name in self._children:
            raise WiringError(
                f"{self.path}: duplicate child name {child.name!r}"
            )
        if self._phase != "build":
            raise WiringError(
                f"{self.path}: cannot add children during phase {self._phase!r}"
            )
        self._children[child.name] = child

    @property
    def children(self) -> Tuple["Component", ...]:
        return tuple(self._children.values())

    def child(self, name: str) -> "Component":
        return self._children[name]

    @property
    def root(self) -> "Component":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def walk(self) -> Iterator["Component"]:
        """Pre-order traversal of this subtree (self first)."""
        yield self
        for child in self._children.values():
            yield from child.walk()

    def find(self, pattern: str) -> List["Component"]:
        """Descendants whose path below this component matches ``pattern``.

        Patterns are glob-style per path segment; ``/`` and ``.`` are both
        accepted as separators: ``chip.find("subring*/mact")`` returns
        every sub-ring's MACT.
        """
        want = pattern.replace("/", ".").split(".")
        out: List["Component"] = []
        skip = len(self.path) + 1
        for comp in self.walk():
            if comp is self:
                continue
            have = comp.path[skip:].split(".")
            if len(have) == len(want) and all(
                fnmatchcase(seg, pat) for seg, pat in zip(have, want)
            ):
                out.append(comp)
        return out

    # -- ports ---------------------------------------------------------------

    def in_port(self, name: str, payload_type: type = object,
                handler: Optional[Callable[[Any], Any]] = None,
                doc: str = "") -> InputPort:
        """Declare an input port on this component."""
        port = InputPort(self, name, payload_type, handler=handler, doc=doc)
        self._add_port(port)
        return port

    def out_port(self, name: str, payload_type: type = object,
                 optional: bool = False, doc: str = "") -> OutputPort:
        """Declare an output port on this component."""
        port = OutputPort(self, name, payload_type, optional=optional, doc=doc)
        self._add_port(port)
        return port

    def _add_port(self, port: Port) -> None:
        if port.name in self._ports:
            raise WiringError(f"{self.path}: duplicate port {port.name!r}")
        self._ports[port.name] = port

    @property
    def ports(self) -> Tuple[Port, ...]:
        return tuple(self._ports.values())

    def port(self, name: str) -> Port:
        return self._ports[name]

    # -- lifecycle -----------------------------------------------------------

    @property
    def phase(self) -> str:
        return self._phase

    def elaborate(self) -> "Component":
        """Run the connect → finalize lifecycle over this (root) subtree."""
        if self.parent is not None:
            raise WiringError(f"{self.path}: elaborate() only on the root")
        if self._phase != "build":
            raise WiringError(f"{self.path}: already elaborated")
        comps = list(self.walk())
        for comp in comps:
            comp._phase = "connect"
        for comp in comps:
            comp.on_connect()
        for comp in comps:
            comp._phase = "finalize"
        for comp in comps:
            comp._check_wiring()
            comp.on_finalize()
        for comp in comps:
            comp._phase = "ready"
        return self

    def _check_wiring(self) -> None:
        for port in self._ports.values():
            if (isinstance(port, OutputPort) and not port.optional
                    and not port.connected):
                raise WiringError(
                    f"output port {port.path} left unconnected at finalize"
                )

    def reset(self) -> None:
        """Re-arm this subtree for another run (calls ``on_reset`` hooks)."""
        for comp in self.walk():
            comp.on_reset()

    # hooks — override in subclasses; defaults do nothing
    def on_connect(self) -> None:
        """Wire this component's ports (runs in the connect phase)."""

    def on_finalize(self) -> None:
        """Validate invariants after wiring (runs in the finalize phase)."""

    def on_reset(self) -> None:
        """Clear per-run state so the component can simulate again."""

    def attach_audit(self, auditor: Any) -> None:
        """Hook for the runtime invariant audit layer.

        ``repro.sim.invariants.Auditor.install`` walks the tree and calls
        this on every component; subclasses that expose checkable
        invariants (MACT, TCG cores, the NoC, the chip) override it to
        register themselves.  The default is a no-op so auditing stays
        strictly opt-in.
        """

    # -- snapshot protocol -----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """This component's mutable state (not its children's).

        The base captures port/wire delivery counters; subclasses expose
        their own state through :meth:`extra_state`.  Values may be raw
        Python objects (requests, FSMs, deques) — the checkpoint codec
        handles encoding.  The checkpoint layer calls this per node along
        the :meth:`walk` traversal, keyed by scoped path.
        """
        state: Dict[str, Any] = {
            "ports": {
                name: {
                    "count": (port.received if isinstance(port, InputPort)
                              else port.sent),
                    "wires": [wire.messages for wire in port.wires],
                }
                for name, port in self._ports.items()
            },
        }
        extra = self.extra_state()
        if extra:
            state["extra"] = extra
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output into this component."""
        from ..errors import CheckpointSchemaError

        for name, port_state in state["ports"].items():
            port = self._ports.get(name)
            if port is None:
                raise CheckpointSchemaError(
                    f"{self.path}: checkpoint names unknown port {name!r}")
            if isinstance(port, InputPort):
                port.received = port_state["count"]
            else:
                port.sent = port_state["count"]
            wire_counts = port_state["wires"]
            if len(wire_counts) != len(port.wires):
                raise CheckpointSchemaError(
                    f"{self.path}.{name}: wire count mismatch "
                    f"({len(wire_counts)} saved, {len(port.wires)} built)")
            for wire, messages in zip(port.wires, wire_counts):
                wire.messages = messages
        self.load_extra_state(state.get("extra", {}))

    def extra_state(self) -> Dict[str, Any]:
        """Subclass hook: mutable state beyond the port counters."""
        return {}

    def load_extra_state(self, state: Dict[str, Any]) -> None:
        """Subclass hook: restore :meth:`extra_state` output.

        The default rejects non-empty state so a class that grows
        :meth:`extra_state` without the inverse fails loudly on restore
        instead of silently dropping state.
        """
        if state:
            from ..errors import CheckpointError

            raise CheckpointError(
                f"{self.path} ({type(self).__name__}) saved extra state "
                f"but does not implement load_extra_state")

    def snapshot_anchors(self) -> Dict[str, Any]:
        """Subclass hook: structural non-Component sub-objects this
        component owns (rings, links, DRAM banks), keyed by a stable
        local name.  The checkpoint codec encodes references to anchored
        objects by key instead of by value, so a restored reference
        resolves to the rebuilt system's own object."""
        return {}

    # -- introspection ---------------------------------------------------------

    def tree(self) -> str:
        """Human-readable rendering of this subtree."""
        lines: List[str] = [f"{self.name} ({type(self).__name__})"]
        self._render_children(lines, "")
        return "\n".join(lines)

    def _render_children(self, lines: List[str], indent: str) -> None:
        kids = list(self._children.values())
        for i, child in enumerate(kids):
            last = i == len(kids) - 1
            branch = "└── " if last else "├── "
            lines.append(f"{indent}{branch}{child.name} "
                         f"({type(child).__name__})")
            child._render_children(lines, indent + ("    " if last else "│   "))

    def tree_dict(self) -> Dict[str, Any]:
        """JSON-ready description of this subtree (for run telemetry)."""
        return {
            "name": self.name,
            "type": type(self).__name__,
            "path": self.path,
            "ports": [
                {
                    "name": port.name,
                    "direction": ("in" if isinstance(port, InputPort)
                                  else "out"),
                    "payload": port.payload_type.__name__,
                    "wires": len(port.wires),
                }
                for port in self._ports.values()
            ],
            "children": [c.tree_dict() for c in self._children.values()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.path!r}, "
                f"children={len(self._children)}, phase={self._phase})")
