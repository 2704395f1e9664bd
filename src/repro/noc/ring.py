"""Bidirectional ring network (paper §3.2, Fig 7).

A :class:`Ring` is an ordered list of stops joined by
:class:`~repro.noc.link.RingSegment` wires.  Packets traverse hop-by-hop
as simulation processes: per hop one router-pipeline delay plus the link
reservation.  Direction is chosen per packet: shortest path, ties broken
by congestion — "cores are able to choose both directions of sub-ring to
send packets based on the congestion condition".
"""

from __future__ import annotations

from typing import List, Optional

from ..config import RingConfig
from ..errors import NocError
from ..sim.engine import Completion, Simulator
from ..sim.snapshot import snapshotable
from ..sim.stats import StatsRegistry, StatsScope
from .link import RingSegment
from .packet import Packet

__all__ = ["Ring"]


@snapshotable
class _RingFlight:
    """Explicit-state form of the per-packet traversal.

    A leg of ``h`` hops is ``h + 2`` events.  The first step (a zero-delay
    event at injection) chooses the direction — not at injection itself,
    since other same-cycle events may change congestion first — and
    enters the source router.  Each ``"xfer"`` step reserves one segment;
    when the packet has not arrived it passes the next router without an
    event of its own: the step stamps the ``"router"`` stage at the
    arrival time and schedules the next xfer at ``arrival +
    router_latency`` directly.  The last xfer schedules the arrival step.

    Link reservations happen in the order a separate router event per
    hop would give: two xfers of one cycle are ordered by the xfers that
    scheduled them, as their router events would be, and first-hop xfers
    come from due-lane steps, which run after every heap event of their
    cycle (hence ``router_latency >= 1``).  See docs/performance.md,
    "Hub path: one event per hop".
    """

    __slots__ = ("ring", "packet", "stop", "dst", "final", "completion",
                 "direction", "hops", "phase")

    def __init__(self, ring: "Ring", packet: Packet, src: int, dst: int,
                 final: bool, completion: Completion) -> None:
        self.ring = ring
        self.packet = packet
        self.stop = src
        self.dst = dst
        self.final = final
        self.completion = completion
        self.direction: Optional[str] = None
        self.hops = 0
        self.phase = "route"

    def _step(self, _payload=None) -> None:
        ring = self.ring
        sim = ring.sim
        packet = self.packet
        now = sim.now
        if self.phase == "xfer":
            direction = self.direction
            stop = self.stop
            if direction == "cw":
                segment = ring.segments[stop]
                nxt = (stop + 1) % ring.num_stops
            else:
                nxt = (stop - 1) % ring.num_stops
                segment = ring.segments[nxt]
            start, finish = segment.transmit_detail(
                direction, packet.size_bytes, now)
            traces = packet.traces
            if traces:
                if start > now:
                    packet.advance_traces("link_wait", ring.qualname, now)
                packet.advance_traces("link_xfer", ring.qualname, start)
            self.stop = nxt
            self.hops += 1
            delay = max(0.0, finish - now) + ring.hop_latency
            if nxt == self.dst:
                self.phase = "route"
                sim.schedule(delay, self._step, None)
                return
            # the same float sum the heap makes for a separate router event
            arrival = now + delay
            if traces:
                packet.advance_traces("router", ring.qualname, arrival)
            sim.schedule_at(arrival + ring.router_latency, self._step, None)
            return
        if self.phase != "route":
            raise NocError(f"ring flight in unknown phase {self.phase!r}")
        if self.stop == self.dst:
            packet.hops += self.hops
            ring.hop_count.add(self.hops)
            if self.final:
                ring.delivered.inc()
                ring.latency.add(now - packet.created_at)
                packet.deliver(now)
            self.completion.finish(now)
            return
        self.direction = ring.choose_direction(self.stop, self.dst)
        if packet.traces:
            packet.advance_traces("router", ring.qualname, now)
        self.phase = "xfer"
        sim.schedule(ring.router_latency, self._step, None)


class Ring:
    """A ring of ``n`` stops with per-segment wires and per-hop routing.

    ``stop_names`` are opaque labels (e.g. :class:`NodeId`); the ring only
    needs their order.  Segment ``i`` connects stop ``i`` to ``(i+1) % n``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_stops: int,
        datapath_bytes: int = 8,
        fixed_per_dir: int = 1,
        bidi_datapaths: int = 2,
        slice_bytes: int = 2,
        policy: str = "greedy",
        hop_latency: int = 1,
        router_latency: int = 1,
        registry: Optional[StatsRegistry] = None,
    ) -> None:
        if num_stops < 2:
            raise NocError(f"ring needs >=2 stops, got {num_stops}")
        # a router stage takes at least a cycle: a flight's merged hop
        # relies on it to keep its xfer ahead of same-cycle injections
        if router_latency < 1:
            raise NocError(f"router latency must be >= 1, got {router_latency}")
        self.sim = sim
        self.name = name
        self.num_stops = num_stops
        self.hop_latency = hop_latency
        self.router_latency = router_latency
        self.segments: List[RingSegment] = [
            RingSegment(
                f"{name}.seg{i}", datapath_bytes, fixed_per_dir,
                bidi_datapaths, slice_bytes, policy, registry,
            )
            for i in range(num_stops)
        ]
        reg = registry if registry is not None else StatsRegistry()
        # Fully-qualified component path for hop stamping (a chip-built ring
        # receives a StatsScope; a bare ring just uses its name).
        self.qualname = reg.qualify(name) if isinstance(reg, StatsScope) else name
        self.delivered = reg.counter(f"{name}.delivered")
        self.latency = reg.accumulator(f"{name}.latency")
        self.hop_count = reg.accumulator(f"{name}.hops")

    @classmethod
    def from_config(
        cls,
        sim: Simulator,
        name: str,
        num_stops: int,
        config: RingConfig,
        is_main: bool = False,
        registry: Optional[StatsRegistry] = None,
    ) -> "Ring":
        """Build a main-ring or sub-ring per the paper's datapath counts."""
        fixed = config.main_ring_fixed_per_dir if is_main else config.sub_ring_fixed_per_dir
        total = config.main_ring_datapaths if is_main else config.sub_ring_datapaths
        bidi = total - 2 * fixed
        return cls(
            sim, name, num_stops,
            datapath_bytes=config.datapath_bits // 8,
            fixed_per_dir=fixed,
            bidi_datapaths=bidi,
            slice_bytes=config.slice_bytes,
            policy="greedy" if config.greedy_allocation else "monolithic",
            hop_latency=config.hop_latency,
            router_latency=config.router_latency,
            registry=registry,
        )

    # -- routing ---------------------------------------------------------------

    def distance(self, src: int, dst: int, direction: str) -> int:
        """Hop count from src to dst travelling cw (+1) or ccw (-1)."""
        if direction == "cw":
            return (dst - src) % self.num_stops
        return (src - dst) % self.num_stops

    def choose_direction(self, src: int, dst: int) -> str:
        """Shortest path; near-ties broken by first-segment congestion."""
        d_cw = (dst - src) % self.num_stops          # self.distance, inlined
        d_ccw = (src - dst) % self.num_stops
        if d_cw < d_ccw:
            return "cw"
        if d_ccw < d_cw:
            return "ccw"
        # equal distance: pick the less congested first hop
        seg_cw = self.segments[src]
        seg_ccw = self.segments[(src - 1) % self.num_stops]
        return "cw" if seg_cw.next_free("cw") <= seg_ccw.next_free("ccw") else "ccw"

    # -- transmission -------------------------------------------------------------

    def send(self, packet: Packet, src_stop: int, dst_stop: int,
             final: bool = True) -> Completion:
        """Inject ``packet`` at ``src_stop``; returns the traversal handle.

        With ``final=True`` (a complete route) the packet's ``deliver``
        fires at arrival; hierarchical routing chains rings with
        ``final=False`` legs and a final leg.  The completion result is
        the arrival time.
        """
        if not (0 <= src_stop < self.num_stops and 0 <= dst_stop < self.num_stops):
            raise NocError(
                f"{self.name}: stops {src_stop}->{dst_stop} outside ring "
                f"of {self.num_stops}"
            )
        completion = Completion(self.sim, f"{self.name}.pkt{packet.pkt_id}")
        flight = _RingFlight(self, packet, src_stop, dst_stop, final,
                             completion)
        self.sim.schedule(0, flight._step, None)
        return completion

    def total_bytes(self) -> int:
        return sum(seg.total_bytes for seg in self.segments)

    # -- snapshot protocol -----------------------------------------------------

    def state_dict(self) -> dict:
        return {"segments": [seg.state_dict() for seg in self.segments]}

    def load_state(self, state: dict) -> None:
        saved = state["segments"]
        if len(saved) != len(self.segments):
            raise NocError(
                f"{self.name}: checkpoint has {len(saved)} segments, "
                f"ring has {len(self.segments)}")
        for seg, seg_state in zip(self.segments, saved):
            seg.load_state(seg_state)
