"""Ring network tests."""

import pytest

from repro.config import RingConfig
from repro.errors import ConfigError, NocError
from repro.noc import Packet, Ring
from repro.noc.packet import NodeId
from repro.sim import Simulator


def make_ring(n=8, **kwargs):
    sim = Simulator()
    defaults = dict(datapath_bytes=8, fixed_per_dir=1, bidi_datapaths=2,
                    slice_bytes=2, hop_latency=1, router_latency=1)
    defaults.update(kwargs)
    return sim, Ring(sim, "r", n, **defaults)


def pkt(size=8):
    return Packet(src=NodeId("core", 0, 0), dst=NodeId("core", 0, 1),
                  size_bytes=size)


class TestRouting:
    def test_distance_both_directions(self):
        _, ring = make_ring(8)
        assert ring.distance(0, 3, "cw") == 3
        assert ring.distance(0, 3, "ccw") == 5
        assert ring.distance(3, 0, "cw") == 5
        assert ring.distance(3, 0, "ccw") == 3

    def test_choose_shortest_direction(self):
        _, ring = make_ring(8)
        assert ring.choose_direction(0, 2) == "cw"
        assert ring.choose_direction(0, 6) == "ccw"

    def test_tie_breaks_by_congestion(self):
        _, ring = make_ring(8)
        # opposite node: distance 4 both ways; congest the cw first hop
        for _ in range(10):
            ring.segments[0].transmit("cw", 16, 0)
            if ring.segments[0].bidi is not None:
                ring.segments[0].bidi.transmit(16, 0)
        assert ring.choose_direction(0, 4) == "ccw"


class TestTraversal:
    def test_delivery_and_latency(self):
        sim, ring = make_ring(8)
        p = pkt()
        ring.send(p, 0, 2)
        sim.run()
        assert p.delivered_at is not None
        # 2 hops x (router 1 + hop 1 + transmit 1) = 6
        assert p.delivered_at == 6
        assert p.hops == 2

    def test_long_way_round_is_slower(self):
        sim1, ring1 = make_ring(8)
        p1 = pkt()
        ring1.send(p1, 0, 1)
        sim1.run()
        sim2, ring2 = make_ring(8)
        p2 = pkt()
        ring2.send(p2, 0, 4)
        sim2.run()
        assert p2.delivered_at > p1.delivered_at

    def test_zero_hop_send_delivers_immediately(self):
        sim, ring = make_ring(4)
        p = pkt()
        ring.send(p, 2, 2)
        sim.run()
        assert p.delivered_at == 0 and p.hops == 0

    def test_invalid_stop_raises(self):
        sim, ring = make_ring(4)
        with pytest.raises(NocError):
            ring.send(pkt(), 0, 9)

    def test_zero_cycle_router_is_rejected(self):
        with pytest.raises(NocError, match="router latency"):
            make_ring(4, router_latency=0)
        with pytest.raises(ConfigError, match="router_latency"):
            RingConfig(router_latency=0).validate()

    def test_non_final_leg_does_not_deliver(self):
        sim, ring = make_ring(4)
        p = pkt()
        proc = ring.send(p, 0, 1, final=False)
        sim.run()
        assert proc.finished and p.delivered_at is None

    def test_on_delivered_callback(self):
        sim, ring = make_ring(4)
        seen = []
        p = pkt()
        p.on_delivered = lambda packet, t: seen.append(t)
        ring.send(p, 0, 1)
        sim.run()
        assert seen == [p.delivered_at]


class TestContention:
    def test_many_packets_through_one_segment_queue_up(self):
        sim, ring = make_ring(4, bidi_datapaths=0)
        packets = [pkt(size=16) for _ in range(8)]
        for p in packets:
            ring.send(p, 0, 1)
        sim.run()
        finish_times = sorted(p.delivered_at for p in packets)
        # 16B packets on an 8B/cycle fixed link: 2 cycles each, serialised
        assert finish_times[-1] - finish_times[0] >= 7 * 2

    def test_small_packets_share_wide_ring(self):
        sim, ring = make_ring(4, fixed_per_dir=2, slice_bytes=2)
        packets = [pkt(size=2) for _ in range(8)]
        for p in packets:
            ring.send(p, 0, 1)
        sim.run()
        finish = {p.delivered_at for p in packets}
        assert len(finish) == 1          # all share the same slice-cycle

    def test_stats(self):
        sim, ring = make_ring(4)
        ring.send(pkt(), 0, 2)
        sim.run()
        assert ring.delivered.value == 1
        assert ring.hop_count.mean == 2
        assert ring.latency.mean > 0


class TestFromConfig:
    def test_main_ring_width(self):
        sim = Simulator()
        ring = Ring.from_config(sim, "main", 8, RingConfig(), is_main=True)
        # 3 fixed datapaths x 8B = 24B per direction
        assert ring.segments[0].cw.width_bytes == 24
        assert ring.segments[0].bidi.width_bytes == 16     # 2 bidi x 8B

    def test_sub_ring_width(self):
        sim = Simulator()
        ring = Ring.from_config(sim, "sub", 8, RingConfig(), is_main=False)
        assert ring.segments[0].cw.width_bytes == 8
        assert ring.segments[0].bidi.width_bytes == 16

    def test_conventional_config_uses_monolithic_links(self):
        sim = Simulator()
        cfg = RingConfig(greedy_allocation=False, slice_bytes=8)
        ring = Ring.from_config(sim, "r", 4, cfg)
        assert ring.segments[0].cw.policy == "monolithic"
