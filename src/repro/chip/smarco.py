"""Full-chip SmarCo assembly (paper Fig 4).

Wires every subsystem together and simulates the complete memory path:

    TCG core --sub-ring--> MACT (at the bridge) --main-ring--> memory
    controller --DRAM--> reply --main-ring--> bridge --sub-ring--> core

Real-time reads may ride the star-shaped direct datapath instead
(§3.5.2).  Remote-SPM requests travel core-to-core over the rings.

The chip is a :class:`~repro.sim.component.Component` tree::

    chip
    ├── noc                 hierarchical ring network
    ├── mem                 memory controllers + DRAM channels
    ├── direct              (optional) star datapath
    └── subring{s}
        ├── mact            request collection table
        ├── dma             sub-ring DMA engine
        ├── spm{cid}        per-core scratchpads
        └── core{cid}       TCG cores
            └── prefetch    (optional) SPM stream prefetcher

All cross-subsystem traffic flows over declared ports: cores issue on
``core{cid}.mem_req`` into the chip's ``core_req`` fan-in; MACT batches
leave on ``mact.batch_out`` into per-ring ``batch_in{s}`` ports; NoC
deliveries feed MACTs through ``mact_feed{s}``; packets are injected
through ``noc_out`` → ``noc.inject``.  ``chip.tree()`` renders the
hierarchy; ``chip.find("subring*/mact")`` navigates it.

The chip is the engine behind the headline experiments: Fig 19/20 (MACT),
Fig 22 (performance & energy vs Xeon), Fig 23 (scalability), and the
topology/direct-path ablations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.breakdown import LatencyBreakdown
from ..config import SmarCoConfig, smarco_scaled
from ..core.tcg import TCGCore
from ..errors import ConfigError
from ..mem.controller import MemorySystem
from ..mem.dma import DmaEngine
from ..mem.mact import MACT, Batch
from ..mem.prefetch import StreamPrefetcher
from ..mem.request import MemRequest, Priority, TraceSampler
from ..mem.spm import Scratchpad, SpmAddressMap
from ..noc.directpath import DirectDatapath
from ..noc.hierring import HierarchicalRingNoC
from ..noc.packet import NodeId, Packet, PacketKind
from ..sim.component import Component
from ..sim.engine import Simulator
from ..sim.rng import RngTree
from ..sim.snapshot import snapshotable
from ..workloads.base import WorkloadProfile
from .results import DictResult

__all__ = ["SmarCoChip", "SmarcoRunResult", "SubRing"]

_BATCH_HEADER_BYTES = 8
# per-sub-ring gang datasets live here (uncached streaming space)
UNCACHED_GANG_BASE = 0x9000_0000_0000


@dataclass
class SmarcoRunResult(DictResult):
    """Measured outcome of one workload run on the chip."""

    cycles: float
    instructions: int
    cores_done: int
    total_cores: int
    frequency_ghz: float
    mem_requests: int
    mem_transactions: int
    mean_request_latency: float
    noc_bandwidth_utilization: float
    mact_request_reduction: float

    _COMPUTED = ("ipc", "throughput_ips", "utilization")

    @property
    def ipc(self) -> float:
        """Chip-level instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def throughput_ips(self) -> float:
        """Instructions per second (the cross-chip comparison metric)."""
        return self.ipc * self.frequency_ghz * 1e9

    @property
    def utilization(self) -> float:
        """Issue-slot activity factor, used by the power model."""
        if not self.total_cores:
            return 0.0
        return min(1.0, self.ipc / (4 * self.total_cores))


class SubRing(Component):
    """One sub-ring cluster: its MACT, DMA engine, cores and SPMs."""

    def __init__(self, ring_id: int, parent: Component) -> None:
        super().__init__(f"subring{ring_id}", parent=parent)
        self.ring_id = ring_id


@snapshotable
class _BatchFlight:
    """Explicit-state form of the packed-batch memory round trip.

    Each phase is one resume of the old ``_batch_proc`` generator;
    everything derivable from ``(ring, batch)`` is recomputed per step so
    the flight state stays three fields.
    """

    __slots__ = ("chip", "ring", "batch", "phase")

    def __init__(self, chip: "SmarCoChip", ring: int, batch: Batch) -> None:
        self.chip = chip
        self.ring = ring
        self.batch = batch
        self.phase = "command"

    def _step(self, _payload=None) -> None:
        chip = self.chip
        sim = chip.sim
        batch = self.batch
        covered = max(1, batch.wanted_bytes)
        mc = chip.memory.controller_for(batch.base_addr)
        mc_node = chip._mc_nodes[mc.controller_id]
        bridge = chip._bridge_nodes[self.ring]
        if self.phase == "command":
            # command (reads) or command+data (writes) to the controller
            out_size = _BATCH_HEADER_BYTES + (covered if batch.is_write else 0)
            out_pkt = Packet(src=bridge, dst=mc_node, size_bytes=out_size,
                             kind=PacketKind.MEM_WRITE if batch.is_write
                             else PacketKind.MEM_READ,
                             traces=chip._pkt_traces(*batch.requests))
            self.phase = "dram"
            chip.noc.send(out_pkt).wait(self._step)
            return
        if self.phase == "dram":
            # DRAM access for the packed transaction; the members' hop
            # chains ride the proxy request through the controller
            dram_req = MemRequest(addr=batch.base_addr, size=covered,
                                  is_write=batch.is_write)
            finish = mc.submit(dram_req, carried=batch.requests)
            self.phase = "reply"
            sim.schedule(max(0.0, finish - sim.now), self._step, None)
            return
        if self.phase == "reply":
            if batch.is_write:
                for req in batch.requests:
                    req.complete(sim.now)
                return
            # data back to the bridge, then per-request sub-ring delivery
            reply = Packet(src=mc_node, dst=bridge,
                           size_bytes=_BATCH_HEADER_BYTES + covered,
                           kind=PacketKind.MEM_REPLY,
                           traces=chip._pkt_traces(*batch.requests))
            self.phase = "fanout"
            chip.noc.send(reply).wait(self._step)
            return
        for req in batch.requests:
            final = Packet(
                src=bridge, dst=chip.core_node(req.core_id),
                size_bytes=max(1, req.size), kind=PacketKind.MEM_REPLY,
                on_delivered=functools.partial(chip._deliver_reply, req),
                traces=chip._pkt_traces(req),
            )
            chip.noc_out.send(final)


@snapshotable
class _DirectReadFlight:
    """Explicit-state form of the real-time direct-datapath read."""

    __slots__ = ("chip", "ring", "core_id", "request", "phase")

    def __init__(self, chip: "SmarCoChip", ring: int, core_id: int,
                 request: MemRequest) -> None:
        self.chip = chip
        self.ring = ring
        self.core_id = core_id
        self.request = request
        self.phase = "command"

    def _step(self, _payload=None) -> None:
        chip = self.chip
        sim = chip.sim
        request = self.request
        if self.phase == "command":
            out = Packet(src=chip.core_node(self.core_id),
                         dst=chip._mc_nodes[0], size_bytes=8,
                         kind=PacketKind.MEM_READ, realtime=True,
                         traces=chip._pkt_traces(request))
            self.phase = "dram"
            chip.direct.send(out, self.ring).wait(self._step)
            return
        if self.phase == "dram":
            mc = chip.memory.controller_for(request.addr)
            dram_req = MemRequest(addr=request.addr, size=request.size,
                                  is_write=False)
            finish = mc.submit(dram_req, carried=(request,))
            self.phase = "reply"
            sim.schedule(max(0.0, finish - sim.now), self._step, None)
            return
        if self.phase == "reply":
            mc = chip.memory.controller_for(request.addr)
            back = Packet(src=chip._mc_nodes[mc.controller_id],
                          dst=chip.core_node(self.core_id),
                          size_bytes=max(1, request.size),
                          kind=PacketKind.MEM_REPLY, realtime=True,
                          traces=chip._pkt_traces(request))
            self.phase = "done"
            chip.direct.send(back, self.ring).wait(self._step)
            return
        request.complete(sim.now)


@snapshotable
class _RemoteSpmFlight:
    """Explicit-state form of the core-to-core remote-SPM access."""

    __slots__ = ("chip", "core_id", "owner", "request", "phase")

    def __init__(self, chip: "SmarCoChip", core_id: int, owner: Scratchpad,
                 request: MemRequest) -> None:
        self.chip = chip
        self.core_id = core_id
        self.owner = owner
        self.request = request
        self.phase = "there"

    def _step(self, _payload=None) -> None:
        chip = self.chip
        sim = chip.sim
        request = self.request
        if self.phase == "there":
            there = Packet(src=chip.core_node(self.core_id),
                           dst=chip.core_node(self.owner.core_id),
                           size_bytes=max(1, request.size),
                           kind=PacketKind.SPM_TRANSFER,
                           traces=chip._pkt_traces(request))
            self.phase = "serve"
            chip.noc.send(there).wait(self._step)
            return
        if self.phase == "serve":
            latency = self.owner.serve_remote(
                request, sim.now, chip.config.tcg.spm_hit_latency)
            self.phase = "back"
            sim.schedule(latency, self._step, None)
            return
        if self.phase == "back" and not request.is_write:
            back = Packet(src=chip.core_node(self.owner.core_id),
                          dst=chip.core_node(self.core_id),
                          size_bytes=max(1, request.size),
                          kind=PacketKind.SPM_TRANSFER,
                          traces=chip._pkt_traces(request))
            self.phase = "done"
            chip.noc.send(back).wait(self._step)
            return
        request.complete(sim.now)


class SmarCoChip(Component):
    """A complete SmarCo processor instance."""

    def __init__(
        self,
        config: Optional[SmarCoConfig] = None,
        seed: int = 0,
        core_policy: str = "inpair",
        realtime_fraction: float = 0.0,
        spm_prefetch: bool = False,
        name: str = "chip",
    ) -> None:
        self.config = config if config is not None else smarco_scaled(4)
        self.config.validate()
        cfg = self.config

        super().__init__(name, sim=Simulator())
        self.rng = RngTree(seed)

        # -- chip-level ports (the seams between subsystems) ------------------
        self.core_req = self.in_port(
            "core_req", MemRequest, handler=self._on_core_request,
            doc="fan-in of every core's mem_req port",
        )
        self.noc_out = self.out_port(
            "noc_out", Packet, doc="fire-and-forget packet injection",
        )
        self._batch_in = [
            self.in_port(f"batch_in{s}", Batch,
                         handler=functools.partial(self._dispatch_batch, s),
                         doc=f"packed batches leaving sub-ring {s}'s MACT")
            for s in range(cfg.sub_rings)
        ]
        self._mact_feed = [
            self.out_port(f"mact_feed{s}", MemRequest,
                          doc=f"NoC-delivered requests entering MACT {s}")
            for s in range(cfg.sub_rings)
        ]

        # -- subsystems --------------------------------------------------------
        self.noc = HierarchicalRingNoC(
            self.sim, cfg.sub_rings, cfg.cores_per_sub_ring,
            cfg.memory.channels, cfg.ring, parent=self,
        )
        self.memory = MemorySystem(self.sim, cfg.memory, cfg.frequency_ghz,
                                   parent=self)
        self.direct: Optional[DirectDatapath] = None
        if cfg.ring.direct_datapath:
            self.direct = DirectDatapath(
                self.sim, cfg.sub_rings,
                latency=cfg.ring.direct_datapath_latency,
                parent=self,
            )

        self.subrings: List[SubRing] = [
            SubRing(s, parent=self)
            for s in range(cfg.sub_rings)
        ]
        self.macts: List[MACT] = [
            MACT(self.sim, config=cfg.mact, parent=self.subrings[s])
            for s in range(cfg.sub_rings)
        ]
        # one DMA engine per sub-ring (SPM transfers + code prefetch, §3.5.1)
        self.dmas: List[DmaEngine] = [
            DmaEngine(self.sim, parent=self.subrings[s])
            for s in range(cfg.sub_rings)
        ]

        self.spms: Dict[int, Scratchpad] = {
            cid: Scratchpad(cid, cfg.tcg.spm_bytes, cfg.tcg.spm_control_bytes,
                            parent=self.subrings[self.ring_of(cid)])
            for cid in range(cfg.total_cores)
        }
        self.spm_map = SpmAddressMap(self.spms)
        # NodeIds are immutable: one per core, bridge and controller serves
        # every packet addressed to it
        self._core_nodes = [
            NodeId("core", *divmod(cid, cfg.cores_per_sub_ring))
            for cid in range(cfg.total_cores)]
        self._bridge_nodes = [NodeId("bridge", ring=s)
                              for s in range(cfg.sub_rings)]
        self._mc_nodes = [NodeId("mc", index=i)
                          for i in range(cfg.memory.channels)]

        self.req_latency = self.stats.accumulator("req_latency")
        # hop-stamped transaction sampling (tentpole): which core requests
        # carry a trace, and where completed traces are aggregated
        self._trace_sampler = TraceSampler(cfg.trace_sample_rate)
        self.breakdown = LatencyBreakdown(self.registry)
        self.cores: List[TCGCore] = []
        # optional §7 extension: sequential-stream prefetch into SPM
        self.prefetchers: List[Optional[StreamPrefetcher]] = []
        for cid in range(cfg.total_cores):
            core = TCGCore(
                self.sim, cid,
                config=cfg.tcg, policy=core_policy,
                spm_map=self.spm_map,
                realtime_fraction=realtime_fraction,
                rng=self.rng.stream(f"core{cid}.rt") if realtime_fraction else None,
                parent=self.subrings[self.ring_of(cid)],
            )
            self.cores.append(core)
            if spm_prefetch:
                self.prefetchers.append(
                    StreamPrefetcher(cid, parent=core, name="prefetch"))
            else:
                self.prefetchers.append(None)
        self._loaded = False
        self._started = False
        self._shared_code = False
        self._code_segment_bytes = 0
        self._audit = None              # set by attach_audit
        self.elaborate()

    def attach_audit(self, auditor) -> None:
        if auditor.register_chip(self):
            self._audit = auditor

    def on_connect(self) -> None:
        """Declare every cross-subsystem wire of Fig 4."""
        for core in self.cores:
            core.mem_req.connect(self.core_req)
        self.noc_out.connect(self.noc.inject)
        for s in range(self.config.sub_rings):
            mact = self.macts[s]
            mact.batch_out.connect(self._batch_in[s])
            self._mact_feed[s].connect(mact.submit_in)
        for prefetcher in self.prefetchers:
            if prefetcher is not None:
                ring = self.ring_of(prefetcher.core_id)
                prefetcher.fetch_out.connect(self.macts[ring].submit_in)

    # -- topology helpers --------------------------------------------------------

    def ring_of(self, core_id: int) -> int:
        return core_id // self.config.cores_per_sub_ring

    def core_node(self, core_id: int) -> NodeId:
        return self._core_nodes[core_id]

    # -- the memory path ------------------------------------------------------------

    def _on_core_request(self, request: MemRequest) -> None:
        """``core_req`` handler: maybe trace, account latency, then route."""
        if self._trace_sampler.sample():
            trace = request.start_trace()
            trace.advance("issue", self.cores[request.core_id].path,
                          request.issue_time)
        request.on_complete = functools.partial(
            self._record_completion, request.on_complete)
        if self._audit is not None:
            self._audit.request_issued(request, self.sim.now)
        self._route_request(request.core_id, request)

    def _record_completion(self, prev, request: MemRequest, now: float) -> None:
        self.req_latency.add(now - request.issue_time)
        if self._audit is not None:
            self._audit.request_completed(request, now)
        if request.trace is not None:
            self.breakdown.record(request)
        if prev is not None:
            prev(request, now)

    @staticmethod
    def _pkt_traces(*requests: MemRequest) -> tuple:
        """Hop traces a packet must carry for the given riding requests."""
        return tuple(r.trace for r in requests if r.trace is not None)

    def _route_request(self, core_id: int, request: MemRequest) -> None:
        ring = self.ring_of(core_id)
        spm_owner = self.spm_map.owner_of(request.addr)
        sim = self.sim
        if spm_owner is not None:
            flight = _RemoteSpmFlight(self, core_id, spm_owner, request)
            sim.schedule(0, flight._step, None)
            return
        prefetcher = self.prefetchers[core_id]
        if prefetcher is not None and not request.is_write:
            if prefetcher.lookup(request.addr, request.size, sim.now,
                                 request=request):
                # data already staged in SPM by the stream prefetcher
                sim.schedule(self.config.tcg.spm_hit_latency + 1,
                             self._complete_now, request)
                return
            prefetcher.observe(request.addr, request.size, sim.now)
        if (self.direct is not None and not request.is_write
                and request.priority is Priority.REALTIME):
            flight = _DirectReadFlight(self, ring, core_id, request)
            sim.schedule(0, flight._step, None)
            return
        # normal path: ride the sub-ring to the MACT at the bridge
        packet = Packet(
            src=self.core_node(core_id), dst=self._bridge_nodes[ring],
            size_bytes=max(1, request.size),
            kind=PacketKind.MEM_WRITE if request.is_write else PacketKind.MEM_READ,
            on_delivered=functools.partial(self._forward_to_mact, ring, request),
            traces=self._pkt_traces(request),
        )
        self.noc_out.send(packet)

    def _forward_to_mact(self, ring: int, request: MemRequest,
                         packet: Packet, now: float) -> None:
        self._mact_feed[ring].send(request)

    def _deliver_reply(self, request: MemRequest,
                       packet: Packet, now: float) -> None:
        request.complete(now)

    def _complete_now(self, request: MemRequest) -> None:
        request.complete(self.sim.now)

    def _dispatch_batch(self, ring: int, batch: Batch) -> None:
        flight = _BatchFlight(self, ring, batch)
        self.sim.schedule(0, flight._step, None)

    # -- workload loading & running ------------------------------------------------------

    def load_profile(
        self,
        profile: WorkloadProfile,
        threads_per_core: int = 8,
        instrs_per_thread: int = 1000,
        total_threads: Optional[int] = None,
        shared_code: bool = False,
    ) -> None:
        """Attach synthetic workload threads.

        Default: ``threads_per_core`` threads on every core.  With
        ``total_threads`` set, exactly that many threads are distributed
        round-robin over the cores (the Fig 23 thread sweep) and
        ``threads_per_core`` becomes the per-core ceiling.

        ``shared_code=True`` enables the paper's §3.1.2 optimisation: the
        kernel's instruction segment is DMA-prefetched into each core's
        SPM before execution (cores start when their sub-ring's DMA
        delivers the segment) and instruction fetches then bypass the
        I-cache entirely.
        """
        if self._loaded:
            raise ConfigError("chip already loaded")
        if threads_per_core > self.config.tcg.hw_threads:
            raise ConfigError("more threads than hardware contexts")
        cfg = self.config
        if total_threads is None:
            assignment = [threads_per_core] * len(self.cores)
        else:
            if total_threads <= 0:
                raise ConfigError("total_threads must be positive")
            if total_threads > len(self.cores) * cfg.tcg.hw_threads:
                raise ConfigError("total_threads exceeds chip capacity")
            assignment = [0] * len(self.cores)
            for i in range(total_threads):
                assignment[i % len(self.cores)] += 1
        self._loaded = True
        self._shared_code = shared_code
        if shared_code:
            self._code_segment_bytes = min(
                profile.code_footprint_bytes,
                self.config.tcg.spm_bytes - self.config.tcg.spm_control_bytes)
            code_pcs = max(1, profile.code_footprint_bytes // 4)
            for core in self.cores:
                core.set_shared_segment(0, code_pcs)
        for cid, core in enumerate(self.cores):
            spm_base = self.spms[cid].base_addr
            ring, core_idx = divmod(cid, cfg.cores_per_sub_ring)
            # each sub-ring's threads form one gang over a shared dataset
            gang_base = (UNCACHED_GANG_BASE
                         + ring * profile.shared_window_bytes)
            n = assignment[cid]
            gang_size = max(1, cfg.cores_per_sub_ring * n)
            for t in range(n):
                tid = cid * cfg.tcg.hw_threads + t
                rng = self.rng.stream(f"wl.{cid}.{t}")
                core.add_thread(
                    profile.stream(instrs_per_thread, rng, thread_id=tid,
                                   spm_base=spm_base,
                                   spm_bytes=cfg.tcg.spm_bytes,
                                   gang_size=gang_size,
                                   gang_rank=core_idx * n + t,
                                   gang_base=gang_base),
                    name=f"{profile.name}.{tid}",
                )

    def _start_ring_cores(self, cores, _payload) -> None:
        for core in cores:
            core.start()

    def start(self) -> None:
        """Kick off every loaded core (idempotent across resumes)."""
        if not self._loaded:
            raise ConfigError("load a workload first")
        if self._started:
            return
        self._started = True
        active = [core for core in self.cores if core.threads]
        if self._shared_code and self._code_segment_bytes:
            # §3.1.2: ONE segment per sub-ring is DMA-staged into SPM and
            # shared among the neighbouring threads (the scheduler's job
            # in the paper); the ring's cores start when it lands.
            by_ring: Dict[int, List[TCGCore]] = {}
            for core in active:
                by_ring.setdefault(self.ring_of(core.core_id), []).append(core)
            for ring, cores in by_ring.items():
                spm = self.spms[cores[0].core_id]
                proc = self.dmas[ring].prefetch_fill(
                    spm, spm.base_addr, self._code_segment_bytes)
                proc.done_signal.wait(
                    functools.partial(self._start_ring_cores, tuple(cores)))
        else:
            for core in active:
                core.start()

    def run_to(self, cycles: float) -> None:
        """Simulate to an absolute cycle horizon (a clean snapshot point)."""
        self.start()
        self.sim.run(until=cycles)

    def run(self, max_cycles: Optional[float] = None) -> SmarcoRunResult:
        """Start every core and simulate to completion (or the horizon)."""
        self.start()
        self.sim.run(until=max_cycles)
        for mact in self.macts:
            mact.flush_all()
        self.sim.run(until=max_cycles)
        return self.collect_result()

    def collect_result(self) -> SmarcoRunResult:
        """Gather the run metrics at the current simulation time."""
        active = [core for core in self.cores if core.threads]
        instructions = sum(core.instructions for core in active)
        requests_in = sum(m.requests_in.value for m in self.macts)
        batches = sum(m.batches_out.value for m in self.macts)
        return SmarcoRunResult(
            cycles=self.sim.now,
            instructions=instructions,
            cores_done=sum(1 for c in active if c.done),
            total_cores=len(active),
            frequency_ghz=self.config.frequency_ghz,
            mem_requests=requests_in,
            mem_transactions=batches,
            mean_request_latency=self.req_latency.mean,
            noc_bandwidth_utilization=self.noc.bandwidth_utilization(self.sim.now),
            mact_request_reduction=(requests_in / batches) if batches
            else float("nan"),
        )

    # -- snapshot protocol ---------------------------------------------------------

    def extra_state(self) -> dict:
        return {
            "loaded": self._loaded,
            "started": self._started,
            "shared_code": self._shared_code,
            "code_segment_bytes": self._code_segment_bytes,
            "sampler": self._trace_sampler,
            "breakdown": self.breakdown.state_dict(),
        }

    def load_extra_state(self, state: dict) -> None:
        self._loaded = state["loaded"]
        self._started = state["started"]
        self._shared_code = state["shared_code"]
        self._code_segment_bytes = state["code_segment_bytes"]
        self._trace_sampler = state["sampler"]
        self.breakdown.load_state(state["breakdown"])
