"""The one-event-per-hop ring flight against its two-event reference.

``_RingFlight`` passes each intermediate router without an event of its
own: an xfer step stamps the ``"router"`` stage at the arrival time and
schedules the next xfer at ``arrival + router_latency``.  The reference
below is the form it replaced, kept here verbatim apart from the segment
lookup (inlined; ``Ring`` no longer exposes it): a router event and an
xfer event per hop.  Patched into ``repro.noc.ring``, it must give the
same chip results, and the same per-packet and per-link numbers on
standalone rings under contention, for every link policy.  Only the
engine event count may differ, by exactly one event per hop past the
first of each leg.
"""

import dataclasses
import random
from typing import Optional

import pytest

import repro.noc.ring as ring_module
from repro.chip.run import execute
from repro.config import smarco_scaled
from repro.errors import NocError
from repro.exp import RunRequest
from repro.mem.request import MemRequest
from repro.noc.hierring import HierarchicalRingNoC
from repro.noc.packet import NodeId, Packet, PacketKind
from repro.noc.ring import Ring
from repro.perf.kernels import result_digest
from repro.sim.engine import Completion, Simulator


class ReferenceRingFlight:
    """The two-event-per-hop ``_RingFlight``: router delay, then xfer."""

    __slots__ = ("ring", "packet", "stop", "dst", "final", "completion",
                 "direction", "hops", "phase")

    def __init__(self, ring, packet, src, dst, final, completion):
        self.ring = ring
        self.packet = packet
        self.stop = src
        self.dst = dst
        self.final = final
        self.completion = completion
        self.direction: Optional[str] = None
        self.hops = 0
        self.phase = "route"

    def _next_segment(self, stop, direction):
        ring = self.ring
        if direction == "cw":
            return ring.segments[stop], (stop + 1) % ring.num_stops
        return (ring.segments[(stop - 1) % ring.num_stops],
                (stop - 1) % ring.num_stops)

    def _step(self, _payload=None):
        ring = self.ring
        sim = ring.sim
        packet = self.packet
        if self.direction is None:
            self.direction = ring.choose_direction(self.stop, self.dst)
        while True:
            if self.phase == "route":
                if self.stop == self.dst:
                    packet.hops += self.hops
                    ring.hop_count.add(self.hops)
                    if self.final:
                        ring.delivered.inc()
                        ring.latency.add(sim.now - packet.created_at)
                        packet.deliver(sim.now)
                    self.completion.finish(sim.now)
                    return
                if packet.traces:
                    packet.advance_traces("router", ring.qualname, sim.now)
                self.phase = "xfer"
                sim.schedule(ring.router_latency, self._step, None)
                return
            if self.phase == "xfer":
                segment, nxt = self._next_segment(self.stop, self.direction)
                start, finish = segment.transmit_detail(
                    self.direction, packet.size_bytes, sim.now)
                if packet.traces:
                    if start > sim.now:
                        packet.advance_traces("link_wait", ring.qualname,
                                              sim.now)
                    packet.advance_traces("link_xfer", ring.qualname, start)
                self.stop = nxt
                self.hops += 1
                self.phase = "route"
                sim.schedule(max(0.0, finish - sim.now) + ring.hop_latency,
                             self._step, None)
                return
            raise NocError(f"ring flight in unknown phase {self.phase!r}")


@pytest.fixture
def reference_flight(monkeypatch):
    """Call the returned function to route every ring through the reference."""
    return lambda: monkeypatch.setattr(ring_module, "_RingFlight",
                                       ReferenceRingFlight)


# -- whole-chip digests ---------------------------------------------------------

WORKLOADS = ("kmp", "wordcount", "splash2.ocean", "terasort", "kmeans")
#: (sub_rings, cores_per_sub_ring), 2x4 up to 8x8
GEOMETRIES = ((2, 4), (2, 8), (4, 4), (4, 8), (8, 4), (8, 8))
N_DRAWS = 100


def _draw(i: int) -> RunRequest:
    rng = random.Random(1000 + i)
    sub_rings, cores = rng.choice(GEOMETRIES)
    config = dataclasses.replace(smarco_scaled(sub_rings, cores),
                                 trace_sample_rate=rng.choice((0.0, 0.5)))
    # keep the instruction count per chip roughly flat across geometries
    instrs = max(10, 1600 // (sub_rings * cores))
    return RunRequest(kind="smarco", workload=rng.choice(WORKLOADS),
                      seed=rng.randrange(1 << 16), smarco_config=config,
                      threads_per_core=rng.choice((1, 2, 4)),
                      instrs_per_thread=instrs)


def _digest_both_ways(request, reference_flight):
    fast = result_digest(execute(request))
    reference_flight()
    return fast, result_digest(execute(request))


@pytest.mark.parametrize("i", range(N_DRAWS))
def test_chip_digest_matches_reference(i, reference_flight):
    fast, ref = _digest_both_ways(_draw(i), reference_flight)
    assert fast == ref


def test_draws_cover_the_space():
    draws = [_draw(i) for i in range(N_DRAWS)]
    assert {r.workload for r in draws} == set(WORKLOADS)
    assert {(r.smarco_config.sub_rings, r.smarco_config.cores_per_sub_ring)
            for r in draws} == set(GEOMETRIES)
    assert {r.smarco_config.trace_sample_rate for r in draws} == {0.0, 0.5}
    assert len({r.seed for r in draws}) > N_DRAWS // 2


def test_full_geometry_digest_matches_reference(reference_flight):
    config = dataclasses.replace(smarco_scaled(16, 16), trace_sample_rate=0.5)
    request = RunRequest(kind="smarco", workload="splash2.ocean", seed=3,
                         smarco_config=config, threads_per_core=1,
                         instrs_per_thread=12)
    fast, ref = _digest_both_ways(request, reference_flight)
    assert fast == ref


# -- standalone rings under contention --------------------------------------------

POLICIES = ("greedy", "firstfit", "monolithic")
SIZES = (1, 4, 8, 16, 32, 64)


def _noise(sim: Simulator, chains: int, horizon: float) -> None:
    """Self-rescheduling non-ring events sharing every cycle with the hops."""
    def tick(k: int) -> None:
        if sim.now < horizon:
            sim.schedule(1 + k % 3, tick, k)

    for k in range(chains):
        sim.schedule(k % 2, tick, k)


def _traced_packet(rng: random.Random, src: NodeId, dst: NodeId,
                   sent: list) -> Packet:
    traces = ()
    if rng.random() < 0.3:
        request = MemRequest(addr=0, size=4, is_write=False)
        request.start_trace().advance("issue", "test", 0.0)
        traces = (request.trace,)
    packet = Packet(src=src, dst=dst, size_bytes=rng.choice(SIZES),
                    kind=PacketKind.MEM_READ, traces=traces)
    sent.append(packet)
    return packet


def _packet_view(packet: Packet) -> tuple:
    hops = [[(h.stage, h.component, h.enter, h.exit) for h in trace.hops]
            for trace in packet.traces]
    return (packet.created_at, packet.delivered_at, packet.hops, hops)


def _link_view(rings) -> dict:
    view = {}
    for ring in rings:
        for seg in ring.segments:
            for link in (seg.cw, seg.ccw, seg.bidi):
                if link is None:
                    continue
                w = link.wait_cycles
                view[link.name] = (link.packets.value, link.bytes_moved.value,
                                   w.count, w.total, w.min, w.max,
                                   list(link._slice_free))
    return view


def _run_ring(policy: str, seed: int) -> tuple:
    sim = Simulator()
    stops = 12
    ring = Ring(sim, "r", stops, datapath_bytes=8, fixed_per_dir=1,
                bidi_datapaths=2, slice_bytes=2, policy=policy)
    rng = random.Random(seed)
    sent: list = []

    def inject(src: int, dst: int) -> None:
        packet = _traced_packet(rng, NodeId("core", 0, src),
                                NodeId("core", 0, dst), sent)
        packet.created_at = sim.now
        ring.send(packet, src, dst)

    for i in range(600):
        src = rng.randrange(stops)
        dst = (src + rng.randrange(1, stops)) % stops
        sim.schedule(i // 4, inject, src, dst)
    _noise(sim, chains=5, horizon=400.0)
    sim.run()
    hop_stats = (ring.hop_count.count, ring.hop_count.total,
                 ring.latency.total, ring.delivered.value)
    return ([_packet_view(p) for p in sent], _link_view([ring]), hop_stats,
            sim.events_executed)


def _run_noc(policy: str, seed: int) -> tuple:
    sim = Simulator()
    noc = HierarchicalRingNoC(sim, sub_rings=4, cores_per_sub_ring=4,
                              mem_channels=2)
    rings = [noc.main_ring] + noc.sub_ring_nets
    for ring in rings:
        for seg in ring.segments:
            for link in (seg.cw, seg.ccw, seg.bidi):
                if link is not None:
                    link.policy = policy
    rng = random.Random(seed)
    sent: list = []

    def inject(src: NodeId, dst: NodeId) -> None:
        noc.send(_traced_packet(rng, src, dst, sent))

    for i in range(500):
        src = NodeId("core", rng.randrange(4), rng.randrange(4))
        if rng.random() < 0.4:
            dst = NodeId("mc", index=rng.randrange(2))
        else:
            dst = NodeId("core", rng.randrange(4), rng.randrange(4))
            if dst == src:
                dst = NodeId("core", (src.ring + 1) % 4, src.index)
        if rng.random() < 0.2:
            src, dst = dst, src            # replies leave the controllers
        sim.schedule(i // 3, inject, src, dst)
    _noise(sim, chains=7, horizon=300.0)
    sim.run()
    assert noc.delivered.value == len(sent)
    hop_stats = [(r.hop_count.count, r.hop_count.total) for r in rings]
    return ([_packet_view(p) for p in sent], _link_view(rings), hop_stats,
            sim.events_executed)


def _saved_events(hop_stats) -> int:
    """Events the merged hop saves: h - 1 per leg of h >= 1 hops."""
    return sum(total - count for count, total in hop_stats)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("policy", POLICIES)
def test_standalone_ring_matches_reference(policy, seed, reference_flight):
    packets, links, stats, events = _run_ring(policy, seed)
    reference_flight()
    ref_packets, ref_links, ref_stats, ref_events = _run_ring(policy, seed)
    assert packets == ref_packets
    assert links == ref_links
    assert stats == ref_stats
    # every leg here has at least one hop
    assert ref_events - events == _saved_events([stats[:2]]) > 0


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("policy", POLICIES)
def test_hierarchical_noc_matches_reference(policy, seed, reference_flight):
    packets, links, stats, events = _run_noc(policy, seed)
    reference_flight()
    ref_packets, ref_links, ref_stats, ref_events = _run_noc(policy, seed)
    assert packets == ref_packets
    assert links == ref_links
    assert stats == ref_stats
    assert ref_events - events == _saved_events(stats) > 0


def test_traced_hops_tile_the_leg():
    """The merged hop stamps router/link stages gap-free, in hop order."""
    packets, _links, _stats, _events = _run_ring("greedy", 3)
    traced = [p for p in packets if p[3]]
    assert traced
    for _created, delivered, hops, (chain,) in traced:
        stages = [stage for stage, _c, _e, _x in chain[1:]]
        assert stages.count("router") == hops
        assert stages.count("link_xfer") == hops
        for (_s, _c, _enter, exit_), (_s2, _c2, enter, _x2) in zip(
                chain, chain[1:]):
            assert exit_ == enter
        assert chain[-1][3] is None and chain[-1][2] <= delivered


# -- Completion wake order ------------------------------------------------------


def test_completion_wakes_waiters_in_fifo_order():
    sim = Simulator()
    done = Completion(sim, "leg")
    woken = []
    done.wait(lambda r: woken.append(("wait-1", r)))
    done.wait(lambda r: woken.append(("wait-2", r)))
    done.done_signal.wait(lambda r: woken.append(("signal-1", r)))
    done.wait(lambda r: woken.append(("wait-3", r)))
    done.done_signal.wait(lambda r: woken.append(("signal-2", r)))
    sim.schedule(5, done.finish, 42)
    sim.run()
    assert woken == [("wait-1", 42), ("wait-2", 42), ("signal-1", 42),
                     ("wait-3", 42), ("signal-2", 42)]
    late = []
    done.wait(late.append)              # already finished: next event
    sim.run()
    assert late == [42]


def test_completion_without_signal_wakes_in_fifo_order():
    sim = Simulator()
    done = Completion(sim, "leg")
    woken = []
    for k in range(4):
        done.wait(lambda r, k=k: woken.append(k))
    done.finish(None)
    assert woken == []                  # wakeups are events, not calls
    sim.run()
    assert woken == [0, 1, 2, 3]
    assert done._done_signal is None
