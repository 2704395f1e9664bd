"""Ablation (DESIGN.md §5): hierarchical ring vs flat ring vs mesh.

The paper chooses a hierarchical ring over a mesh for simpler, cheaper
routers (lower per-hop cost, more predictable latency) and over one flat
ring for scalability (a 256-stop ring has a 128-hop diameter).  This
bench measures memory-pattern traffic latency on all three.
"""

from repro.analysis import render_table
from repro.noc import (
    GranularityDist,
    HierarchicalRingNoC,
    MeshNoC,
    NodeId,
    Packet,
    PacketKind,
    Ring,
)
from repro.sim import RngTree, Simulator

CORES = 64                     # 4 sub-rings x 16 cores
PACKETS = 1500
DIST = GranularityDist(((2, 0.4), (4, 0.3), (8, 0.2), (16, 0.1)))


def _random_pairs(rng, n):
    pairs = []
    for _ in range(n):
        src = rng.randrange(CORES)
        dst = rng.randrange(CORES)
        if dst == src:
            dst = (dst + 1) % CORES
        pairs.append((src, dst, DIST.sample(rng)))
    return pairs


def _run_hier(pairs):
    sim = Simulator()
    noc = HierarchicalRingNoC(sim, 4, 16, 4)
    t = 0.0
    for src, dst, size in pairs:
        pkt = Packet(src=NodeId("core", src // 16, src % 16),
                     dst=NodeId("core", dst // 16, dst % 16),
                     size_bytes=size, kind=PacketKind.MEM_READ)
        sim.schedule_at(t, noc.send, pkt)
        t += 1.0
    sim.run()
    return noc.mean_latency()


def _run_flat(pairs):
    sim = Simulator()
    ring = Ring(sim, "flat", CORES, datapath_bytes=8, fixed_per_dir=1,
                bidi_datapaths=2, slice_bytes=2)
    latencies = []
    t = 0.0
    for src, dst, size in pairs:
        pkt = Packet(src=NodeId("core", 0, src), dst=NodeId("core", 0, dst),
                     size_bytes=size, kind=PacketKind.MEM_READ,
                     on_delivered=lambda p, now: latencies.append(p.latency))
        def go(p=pkt, s=src, d=dst):
            p.created_at = sim.now
            ring.send(p, s, d)
        sim.schedule_at(t, go)
        t += 1.0
    sim.run()
    return sum(latencies) / len(latencies)


def _run_mesh(pairs):
    sim = Simulator()
    mesh = MeshNoC(sim, 8, 8)
    t = 0.0
    for src, dst, size in pairs:
        pkt = Packet(src=NodeId("core", 0, src), dst=NodeId("core", 0, dst),
                     size_bytes=size, kind=PacketKind.MEM_READ)
        sim.schedule_at(t, mesh.send, pkt, src, dst)
        t += 1.0
    sim.run()
    return mesh.latency.mean, mesh.hop_count.mean


def _router_ports():
    """Router port counts: the paper's 'less on-chip resources' claim.

    A ring router has 3 ports (2 ring + local); the bridge routers have
    4; a mesh router has up to 5 (4 neighbours + local).
    """
    hier = 4 * 17 * 3 + 4 * 4           # sub-ring stops + bridges
    mesh = sum(2 + (0 < x < 7) + (0 < y < 7) + 1 + 1
               for x in range(8) for y in range(8))
    return hier, mesh


def test_ablation_topology(emit):
    pairs = _random_pairs(RngTree(64).stream("topo"), PACKETS)

    def sweep():
        mesh_lat, mesh_hops = _run_mesh(pairs)
        return {
            "hier_lat": _run_hier(pairs),
            "flat_lat": _run_flat(pairs),
            "mesh_lat": mesh_lat,
            "mesh_hops": mesh_hops,
        }

    data = sweep()
    hier_ports, mesh_ports = _router_ports()

    emit("ablation_topology", render_table(
        ["topology", "mean latency (cycles)", "router ports"],
        [["hierarchical ring", round(data["hier_lat"], 2), hier_ports],
         ["flat 64-stop ring", round(data["flat_lat"], 2), 64 * 3],
         ["8x8 mesh", round(data["mesh_lat"], 2), mesh_ports]],
        title="Ablation: 64-core uniform-random traffic by topology",
    ))

    # the hierarchy fixes the flat ring's diameter problem
    assert data["hier_lat"] < data["flat_lat"]
    # mesh wins raw uniform-random latency only through its much more
    # expensive routers: per-hop cost on the ring is lower...
    mesh_per_hop = data["mesh_lat"] / data["mesh_hops"]
    # hierarchical ring hop cost = router(1) + hop(1) + transmit(>=1)
    assert mesh_per_hop > 3.5
    # ...and the ring needs fewer router ports (cheaper, simpler NoC)
    assert hier_ports < mesh_ports
    # the latency penalty the ring pays for that is bounded
    assert data["hier_lat"] < data["mesh_lat"] * 1.6
