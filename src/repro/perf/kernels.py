"""The fixed microbenchmark suite the ``perf`` subcommand runs.

Each kernel isolates one simulator hot path:

* ``engine_churn``     — raw event-queue throughput: callback chains that
  reschedule themselves with a 0/1/2-cycle delay mix;
* ``process_signal``   — generator processes ping-ponging over
  :class:`~repro.sim.engine.EventSignal` (spawn/resume overhead);
* ``link_greedy``      — :class:`~repro.noc.link.SlicedLink` greedy slice
  allocation under a mixed-size reservation stream;
* ``ring_saturation``  — a 16-stop ring saturated with seeded random
  traffic (router + segment + borrow paths);
* ``hierring_saturation`` — cross-ring traffic over the full
  :class:`~repro.noc.hierring.HierarchicalRingNoC` (bridge chains);
* ``mact_batching``    — a seeded request stream through the MACT
  (bitmap merge, deadline timers, capacity evictions);
* ``sched_assign``     — the scheduler dispatch hot loop (submit /
  assign / release-context) across every registered policy;
* ``traffic_arrivals`` — the open-loop cluster tier on a synthetic chip
  calibration: bursty arrivals through the subring-aware balancer into
  queueing chip servers, every latency folded through the streaming
  quantile sketch (``repro.traffic`` + ``repro.analysis.quantiles`` hot
  paths, no chip-simulation time);
* ``energy_accounting`` — seeded synthetic scoped stats folded through
  the activity-proportional energy model (stat classification, per-path
  attribution, DVFS/node scaling, power gating) across the full
  operating-point grid — the post-run accounting cost every smarco/
  compare run now pays, measured in isolation.

The kernels isolate a path for timing and profiling; nothing records or
judges their numbers.  Whole runs (the Fig 17 single-core rig, a full
chip, a cached warm sweep) are recorded and judged by the outside-in
benchmark in ``bench/`` (``tcg-kmp``, ``chip64-ocean``,
``sweep-mixed``); their fixed-seed digests are pinned in
``tests/perf/test_golden_digest.py``.

Kernels are deterministic: fixed seeds, no wall-clock feedback into the
simulation — so their *results* (events, units, digests) are identical
run-to-run and the only thing that moves between two runs is time.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Any, Callable, Dict, List

from ..errors import ConfigError

__all__ = [
    "KERNELS",
    "SIZES",
    "kernel_names",
    "run_kernel",
    "run_suite",
    "result_digest",
]

#: per-kernel workload knobs for each suite size; ``tiny`` is a
#: sub-second suite for tests, ``default`` the one profiling and
#: optimization work use.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "tiny": {
        "engine_churn": {"events": 20_000, "chains": 8},
        "process_signal": {"rounds": 2_000, "pairs": 4},
        "link_greedy": {"reservations": 10_000},
        "ring_saturation": {"packets": 1_000},
        "hierring_saturation": {"packets": 400},
        "mact_batching": {"requests": 5_000},
        "sched_assign": {"tasks": 400},
        "traffic_arrivals": {"requests": 2_000, "chips": 2},
        "energy_accounting": {"rounds": 20},
    },
    "default": {
        "engine_churn": {"events": 1_000_000, "chains": 32},
        "process_signal": {"rounds": 100_000, "pairs": 16},
        "link_greedy": {"reservations": 500_000},
        "ring_saturation": {"packets": 30_000},
        "hierring_saturation": {"packets": 10_000},
        "mact_batching": {"requests": 200_000},
        "sched_assign": {"tasks": 12_000},
        "traffic_arrivals": {"requests": 150_000, "chips": 8},
        "energy_accounting": {"rounds": 1_000},
    },
}


def result_digest(outcome: Any) -> str:
    """Canonical digest of a run outcome (result dict + stats dump).

    Two simulator builds produce the same digest iff their fixed-seed
    runs are bit-identical — the property every hot-path optimization in
    this package must preserve (``tests/perf/test_golden_digest.py``).
    """
    from ..exp.cache import canonical_json

    payload = {"result": outcome.result.to_dict(), "stats": outcome.stats}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


# -- kernels ----------------------------------------------------------------


def _k_engine_churn(params: Dict[str, int]) -> Dict[str, Any]:
    """Callback chains rescheduling themselves with a 0/1/2 delay mix."""
    from ..sim.engine import Simulator

    sim = Simulator()
    target = params["events"]
    chains = params["chains"]
    # 50% zero-delay, matching the measured schedule mix of a real chip
    # run (signal fires / process wakeups are zero-delay; timed hops are
    # not) — see docs/performance.md
    delays = (0, 1, 0, 2, 0, 3)
    schedule = sim.schedule
    fired = [0]

    def hop() -> None:
        n = fired[0] + 1
        fired[0] = n
        if n + chains <= target:
            schedule(delays[n % 6], hop)

    for c in range(chains):
        sim.schedule(c % 3, hop)
    sim.run()
    return {"events": sim.events_executed,
            "units": sim.events_executed, "unit": "events"}


def _k_process_signal(params: Dict[str, int]) -> Dict[str, Any]:
    """Pairs of processes ping-ponging payloads over EventSignals."""
    from ..sim.engine import Simulator

    sim = Simulator()
    rounds = params["rounds"]
    pairs = params["pairs"]
    done = [0]

    def player(my_sig, other_sig):
        count = 0
        while count < rounds:
            value = yield my_sig
            count += 1
            yield 1
            other_sig.fire(value + 1)
        done[0] += 1

    for p in range(pairs):
        a = sim.signal(f"a{p}")
        b = sim.signal(f"b{p}")
        sim.spawn(player(a, b), f"ping{p}")
        sim.spawn(player(b, a), f"pong{p}")
        # kick off after both players are parked on their signals
        sim.schedule(0, a.fire, 0)
    sim.run()
    if done[0] != 2 * pairs:
        raise ConfigError("process_signal kernel did not converge")
    return {"events": sim.events_executed,
            "units": rounds * pairs * 2, "unit": "handoffs"}


def _k_link_greedy(params: Dict[str, int]) -> Dict[str, Any]:
    """Mixed-size reservation stream through one greedy SlicedLink."""
    from ..noc.link import SlicedLink

    link = SlicedLink("bench", width_bytes=64, slice_bytes=2, policy="greedy")
    n = params["reservations"]
    rng = random.Random(1234)
    sizes = [rng.choice((1, 2, 4, 8, 8, 16, 32, 64)) for _ in range(n)]
    now = 0.0
    for i, size in enumerate(sizes):
        start, finish = link.reserve(size, now)
        if i % 4 == 0:
            now = start  # advance with the congestion wave
    flits = int(link.bytes_moved.value // link.slice_bytes)
    return {"events": 0, "units": n, "unit": "reservations",
            "flits": flits}


def _k_ring_saturation(params: Dict[str, int]) -> Dict[str, Any]:
    """Seeded random traffic over a 16-stop standalone ring."""
    from ..noc.packet import NodeId, Packet, PacketKind
    from ..noc.ring import Ring
    from ..sim.engine import Simulator

    sim = Simulator()
    stops = 16
    ring = Ring(sim, "bench", stops, datapath_bytes=8, fixed_per_dir=1,
                bidi_datapaths=2, slice_bytes=2)
    rng = random.Random(99)
    n = params["packets"]
    delivered = [0]

    def on_delivered(_pkt, _now):
        delivered[0] += 1

    def inject(src: int, dst: int, size: int) -> None:
        pkt = Packet(src=NodeId("core", 0, src), dst=NodeId("core", 0, dst),
                     size_bytes=size, kind=PacketKind.MEM_READ,
                     on_delivered=on_delivered)
        ring.send(pkt, src, dst)

    for i in range(n):
        src = rng.randrange(stops)
        dst = (src + rng.randrange(1, stops)) % stops
        size = rng.choice((4, 8, 16, 32, 64))
        sim.schedule(i % 257, inject, src, dst, size)
    sim.run()
    if delivered[0] != n:
        raise ConfigError(
            f"ring kernel lost packets: {delivered[0]}/{n} delivered")
    slice_bytes = ring.segments[0].cw.slice_bytes
    flits = int(ring.total_bytes() // slice_bytes)
    return {"events": sim.events_executed, "units": flits, "unit": "flits",
            "packets": n}


def _k_hierring_saturation(params: Dict[str, int]) -> Dict[str, Any]:
    """Cross-ring core-to-core and core-to-MC traffic over the full NoC."""
    from ..noc.hierring import HierarchicalRingNoC
    from ..noc.packet import NodeId, Packet, PacketKind
    from ..sim.engine import Simulator

    sim = Simulator()
    sub_rings, cores = 4, 4
    noc = HierarchicalRingNoC(sim, sub_rings, cores, mem_channels=2)
    rng = random.Random(7)
    n = params["packets"]

    def inject(src: "NodeId", dst: "NodeId", size: int) -> None:
        noc.send(Packet(src=src, dst=dst, size_bytes=size,
                        kind=PacketKind.MEM_READ))

    for i in range(n):
        src = NodeId("core", rng.randrange(sub_rings), rng.randrange(cores))
        if rng.random() < 0.5:
            dst = NodeId("mc", index=rng.randrange(2))
        else:
            dst = NodeId("core", rng.randrange(sub_rings),
                         rng.randrange(cores))
            if dst == src:
                dst = NodeId("core", (src.ring + 1) % sub_rings, src.index)
        sim.schedule(i % 101, inject, src, dst, rng.choice((8, 16, 32, 64)))
    sim.run()
    if noc.delivered.value != n:
        raise ConfigError(
            f"hierring kernel lost packets: {noc.delivered.value}/{n}")
    slice_bytes = noc.main_ring.segments[0].cw.slice_bytes
    flits = int(noc.total_bytes() // slice_bytes)
    return {"events": sim.events_executed, "units": flits, "unit": "flits",
            "packets": n}


def _k_mact_batching(params: Dict[str, int]) -> Dict[str, Any]:
    """Seeded small-request stream through the collection table."""
    from ..mem.mact import MACT
    from ..mem.request import MemRequest
    from ..sim.engine import Simulator

    sim = Simulator()
    batches: List[Any] = []
    mact = MACT(sim, send=batches.append)
    rng = random.Random(4242)
    n = params["requests"]
    completed = [0]

    def on_complete(_req, _now):
        completed[0] += 1

    def submit(addr: int, size: int, is_write: bool) -> None:
        req = MemRequest(addr=addr, size=size, is_write=is_write,
                         on_complete=on_complete)
        mact.submit(req)
        req.complete(sim.now)   # memory side is out of scope here

    window = 1 << 14
    for i in range(n):
        addr = rng.randrange(window)
        size = rng.choice((1, 2, 4, 8))
        sim.schedule(i // 8, submit, addr, size, rng.random() < 0.3)
    sim.run()
    mact.flush_all()
    if completed[0] < n:
        raise ConfigError(f"mact kernel lost requests: {completed[0]}/{n}")
    return {"events": sim.events_executed, "units": n, "unit": "requests",
            "batches": len(batches)}


def _k_sched_assign(params: Dict[str, int]) -> Dict[str, Any]:
    """The scheduler dispatch hot loop across every registered policy.

    Seeded task windows stream through submit -> assign -> release for
    each policy in registry order (windowed so the laxity chain tables
    stay under their hardware capacity).  An order-sensitive checksum of
    the assignment sequence keeps the kernel's determinism contract: any
    ordering change in any policy shows up as a result mismatch.
    """
    from ..sched.policy import create_policy, list_policies
    from ..sched.task import Task, TaskPriority
    from ..sim.rng import RngTree

    n = params["tasks"]               # per policy
    contexts, window = 32, 128
    assignments = 0
    checksum = 0
    for name in list_policies():
        sched = create_policy(name)
        rng = RngTree(2025).stream(f"bench.{name}")
        for cid in range(contexts):
            sched.release_context(cid)
        submitted = 0
        while submitted < n or sched.pending:
            while submitted < n and sched.pending < window:
                pri = (TaskPriority.HIGH if rng.random() < 0.25
                       else TaskPriority.NORMAL)
                sched.submit(Task(
                    work_cycles=rng.uniform(1_000, 90_000),
                    deadline=1_000_000, priority=pri,
                    payload={"criticality": rng.random()}))
                submitted += 1
            pair = sched.assign()
            if pair is None:
                raise ConfigError(
                    f"sched_assign: {name} stalled with "
                    f"{sched.pending} pending tasks")
            context, task = pair
            assignments += 1
            checksum = (checksum * 31 + int(task.work_cycles)) % (1 << 61)
            sched.release_context(context)
    return {"events": 0, "units": assignments, "unit": "assigns",
            "checksum": checksum}


def _k_energy_accounting(params: Dict[str, int]) -> Dict[str, Any]:
    """Synthetic scoped stats through the activity energy model.

    One seeded flat-stats dump shaped like a real 4x4 chip run (every
    billable counter family populated, one sub-ring left idle so the
    gating path engages) is accounted ``rounds`` times, cycling through
    every DVFS point x technology node x gating combination.  The digest
    pins the final accounting dict plus a joule checksum over all
    rounds, so any change to classification, calibration or scaling
    shows up as a determinism break.
    """
    from ..config import smarco_scaled
    from ..exp.cache import canonical_json
    from ..power import ActivityEnergyModel, list_dvfs
    from ..power.tech import NODES

    cfg = smarco_scaled(4, 4)
    model = ActivityEnergyModel(cfg)
    rng = random.Random(31_415)
    stats: Dict[str, float] = {}
    for sr in range(cfg.sub_rings):
        idle = sr == cfg.sub_rings - 1    # exercise the gating path
        for c in range(cfg.cores_per_sub_ring):
            cid = sr * cfg.cores_per_sub_ring + c
            base = f"chip.subring{sr}.core{cid}"
            stats[f"{base}.retired"] = 0 if idle else rng.randrange(50_000)
            stats[f"{base}.icache.hits"] = rng.randrange(40_000)
            stats[f"{base}.icache.misses"] = rng.randrange(2_000)
            stats[f"{base}.dcache.hits"] = rng.randrange(8_000)
            stats[f"{base}.dcache.misses"] = rng.randrange(1_000)
            stats[f"{base}.spm_hits"] = rng.randrange(4_000)
            stats[f"chip.subring{sr}.spm{cid}.reads"] = rng.randrange(3_000)
            stats[f"chip.subring{sr}.spm{cid}.writes"] = rng.randrange(1_500)
        stats[f"chip.subring{sr}.mact.requests_in"] = rng.randrange(20_000)
        stats[f"chip.subring{sr}.mact.bypasses"] = rng.randrange(500)
        stats[f"chip.subring{sr}.dma.transfers"] = rng.randrange(200)
        for seg in range(cfg.cores_per_sub_ring + 1):
            for d in ("cw", "ccw", "bidi"):
                stats[f"chip.noc.sub{sr}.seg{seg}.{d}.bytes"] = \
                    rng.randrange(100_000)
        stats[f"chip.direct.link{sr}.bytes"] = rng.randrange(50_000)
    for mc in range(cfg.memory.channels):
        for bank in range(4):
            stats[f"chip.mem.mc{mc}.dram{bank}.requests"] = \
                rng.randrange(10_000)

    points = list_dvfs()
    nodes = sorted(NODES)
    rounds = params["rounds"]
    cycles = 250_000.0
    checksum = 0.0
    acct = None
    for i in range(rounds):
        acct = model.accounting(
            stats, cycles,
            dvfs=points[i % len(points)],
            technology_nm=nodes[(i // len(points)) % len(nodes)],
            power_gate_idle=bool(i % 2))
        checksum += acct.total_joules
    digest = hashlib.sha256(canonical_json(
        {"last": acct.to_dict(), "checksum": round(checksum, 9)}
    ).encode()).hexdigest()[:16]
    return {"events": 0, "units": rounds * len(stats),
            "unit": "stat-folds", "digest": digest}


def _k_traffic_arrivals(params: Dict[str, int]) -> Dict[str, Any]:
    """The open-loop cluster hot path on a synthetic chip calibration.

    Bursty arrivals at rho 0.9 through the subring-aware balancer into
    ``chips`` queueing servers, every latency folded through the
    streaming quantile sketch (the reservoir path engages above its
    8192-sample capacity, i.e. in the default size).  Injected
    synthetic calibration keeps the kernel free of chip-simulation time:
    it measures the traffic tier alone.  The digest pins the full result
    record, so any change to arrivals, routing, service sampling or the
    quantile fold shows up as a determinism break.
    """
    from ..exp import RunRequest
    from ..exp.cache import canonical_json
    from ..traffic.cluster import run_traffic, synthetic_calibration

    request = RunRequest(kind="traffic", workload="synthetic", seed=11,
                         traffic_requests=params["requests"],
                         traffic_chips=params["chips"],
                         traffic_load=0.9, traffic_arrival="bursty",
                         traffic_balancer="subring-aware")
    result = run_traffic(request, calibration=synthetic_calibration())
    digest = hashlib.sha256(
        canonical_json(result.to_dict()).encode()).hexdigest()[:16]
    return {"events": 0, "units": result.requests_completed,
            "unit": "requests", "digest": digest}


KERNELS: Dict[str, Callable[[Dict[str, int]], Dict[str, Any]]] = {
    "engine_churn": _k_engine_churn,
    "process_signal": _k_process_signal,
    "link_greedy": _k_link_greedy,
    "ring_saturation": _k_ring_saturation,
    "hierring_saturation": _k_hierring_saturation,
    "mact_batching": _k_mact_batching,
    "sched_assign": _k_sched_assign,
    "traffic_arrivals": _k_traffic_arrivals,
    "energy_accounting": _k_energy_accounting,
}


def kernel_names() -> List[str]:
    return list(KERNELS)


def run_kernel(name: str, size: str = "default",
               repeat: int = 3) -> Dict[str, Any]:
    """Run one kernel ``repeat`` times; report the best wall time.

    The kernel's *results* must be identical across repeats (they are
    deterministic); a mismatch means nondeterminism crept into a hot path
    and is raised loudly rather than averaged away.
    """
    if name not in KERNELS:
        raise ConfigError(f"unknown perf kernel {name!r} "
                          f"(have: {', '.join(KERNELS)})")
    if size not in SIZES:
        raise ConfigError(f"unknown suite size {size!r} "
                          f"(have: {', '.join(SIZES)})")
    if repeat < 1:
        raise ConfigError(f"repeat must be >= 1, got {repeat}")
    params = SIZES[size][name]
    fn = KERNELS[name]
    best_wall = float("inf")
    reference: Dict[str, Any] = {}
    for i in range(repeat):
        t0 = time.perf_counter()
        out = fn(dict(params))
        wall = time.perf_counter() - t0
        if i == 0:
            reference = out
        elif out != reference:
            raise ConfigError(
                f"kernel {name!r} is nondeterministic across repeats: "
                f"{out} != {reference}")
        best_wall = min(best_wall, wall)
    record = dict(reference)
    record["wall_s"] = best_wall
    record["events_per_sec"] = (record["events"] / best_wall
                                if best_wall > 0 else 0.0)
    record["units_per_sec"] = (record["units"] / best_wall
                               if best_wall > 0 else 0.0)
    return record


def run_suite(size: str = "default", repeat: int = 3,
              only: Any = None) -> Dict[str, Dict[str, Any]]:
    """Run the whole suite (or the ``only`` subset) in registry order."""
    names = kernel_names() if not only else list(only)
    return {name: run_kernel(name, size=size, repeat=repeat)
            for name in names}
