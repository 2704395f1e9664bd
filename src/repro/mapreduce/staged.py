"""Staged MapReduce execution on a real SmarCoChip (paper Fig 15).

:class:`MapReduceRuntime` computes placements and times stages on the
scheduler testbed; this module goes further and *drives the chip
simulator* through the paper's four stages:

1. map-task input slices are DMA-staged into the assigned cores' SPMs
   (serialised on each sub-ring's DMA engine, as §3.5.1 describes);
2. a map core starts the moment its data has landed; its threads execute
   profile-derived instruction streams sized by the slice volume;
3. when every map core has exited, the shuffle rides the NoC: one
   SPM-transfer packet per reduce task, sized by its key group;
4. reduce cores start when their shuffle data arrives and run to
   completion.

The result carries the functional output (the real map/reduce functions
run host-side, exactly like Phoenix++ masters do) plus the measured
per-stage cycle boundaries on the chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Hashable, List, Optional, Sequence, Tuple

from ..chip.smarco import SmarCoChip
from ..errors import ConfigError, WorkloadError
from ..noc.packet import NodeId, Packet, PacketKind
from ..sim.rng import RngTree
from ..workloads.base import WorkloadProfile
from .framework import MapReduceJob

__all__ = ["StagedResult", "StagedMapReduce"]


@dataclass
class StagedResult:
    """Functional output + measured stage boundaries (cycles)."""

    output: Dict[Hashable, Any]
    staging_done: float = 0.0
    map_done: float = 0.0
    shuffle_done: float = 0.0
    reduce_done: float = 0.0
    map_tasks: int = 0
    reduce_tasks: int = 0
    shuffle_bytes: int = 0

    @property
    def total_cycles(self) -> float:
        return self.reduce_done


class StagedMapReduce:
    """Drives one job through a chip's map and reduce sub-rings."""

    def __init__(
        self,
        chip: SmarCoChip,
        profile: WorkloadProfile,
        bytes_per_item: int = 64,
        instrs_per_item: int = 40,
        seed: int = 0,
    ) -> None:
        if chip.config.sub_rings < 2:
            raise ConfigError("staged MapReduce needs >=2 sub-rings "
                              "(distinct map and reduce nodes, Fig 15)")
        self.chip = chip
        self.profile = profile
        self.bytes_per_item = bytes_per_item
        self.instrs_per_item = instrs_per_item
        self.rng = RngTree(seed)
        cut = max(1, chip.config.sub_rings * 3 // 4)
        self.map_rings = list(range(cut))
        self.reduce_rings = list(range(cut, chip.config.sub_rings))

    # -- assignment -----------------------------------------------------------

    def _cores_of(self, rings: Sequence[int]) -> List[int]:
        per = self.chip.config.cores_per_sub_ring
        return [ring * per + idx for ring in rings for idx in range(per)]

    def _assign(self, n_tasks: int, rings: Sequence[int]) -> Dict[int, List[int]]:
        """{core_id: [task sizes indexes]} round-robin over ring cores."""
        cores = self._cores_of(rings)
        capacity = len(cores) * self.chip.config.tcg.hw_threads
        if n_tasks > capacity:
            raise WorkloadError(
                f"{n_tasks} tasks exceed {capacity} thread contexts; "
                "slice coarser")
        assignment: Dict[int, List[int]] = {}
        for task in range(n_tasks):
            core = cores[task % len(cores)]
            assignment.setdefault(core, []).append(task)
        return assignment

    @staticmethod
    def _items_in(chunk: Any) -> int:
        try:
            return max(1, len(chunk))
        except TypeError:
            return 1

    # -- execution ----------------------------------------------------------------

    def run(self, job: MapReduceJob,
            input_slices: Sequence[Any]) -> StagedResult:
        """Execute the job; returns output + stage boundaries."""
        if not input_slices:
            return StagedResult(output={})
        if self.chip._loaded:
            raise ConfigError("chip already in use")
        self.chip._loaded = True

        # ---- functional pass (host master, as in the paper) ----
        intermediate: List[Tuple[Hashable, Any]] = []
        for chunk in input_slices:
            intermediate.extend(job.map_fn(chunk))
        grouped: Dict[Hashable, List[Any]] = {}
        for key, value in intermediate:
            grouped.setdefault(key, []).append(value)
        output: Dict[Hashable, Any] = {}
        for key in sorted(grouped, key=str):
            out_key, out_value = job.reduce_fn(key, grouped[key])
            output[out_key] = out_value

        # keys are hash-partitioned over the reduce contexts: one reduce
        # *task* handles many keys, as Phoenix++ reducers do
        reduce_capacity = (len(self._cores_of(self.reduce_rings))
                           * self.chip.config.tcg.hw_threads)
        keys = sorted(grouped, key=str)
        n_parts = max(1, min(len(keys), reduce_capacity))
        reduce_sizes = [0] * n_parts
        for i, key in enumerate(keys):
            reduce_sizes[i % n_parts] += len(grouped[key])

        result = StagedResult(
            output=output,
            map_tasks=len(input_slices),
            reduce_tasks=n_parts,
        )

        # ---- timed pass on the chip ----
        map_sizes = [self._items_in(c) for c in input_slices]
        driver = self.chip.sim.spawn(
            self._pipeline(map_sizes, reduce_sizes, result), "mr.pipeline")
        self.chip.sim.run()
        if not driver.finished:
            raise ConfigError("MapReduce pipeline deadlocked")
        return result

    # -- the pipeline process ---------------------------------------------------------

    def _attach_threads(self, assignment: Dict[int, List[int]],
                        sizes: List[int], stage: str) -> None:
        cfg = self.chip.config.tcg
        for core_id, tasks in assignment.items():
            core = self.chip.cores[core_id]
            spm_base = self.chip.spms[core_id].base_addr
            for task in tasks:
                n_instrs = max(10, sizes[task] * self.instrs_per_item)
                rng = self.rng.stream(f"{stage}.{task}")
                core.add_thread(
                    self.profile.stream(
                        n_instrs, rng, thread_id=core_id * 8 + len(core.threads),
                        spm_base=spm_base, spm_bytes=cfg.spm_bytes),
                    name=f"{stage}{task}",
                )

    def _pipeline(self, map_sizes: List[int], reduce_sizes: List[int],
                  result: StagedResult) -> Generator:
        chip = self.chip
        sim = chip.sim
        map_assign = self._assign(len(map_sizes), self.map_rings)
        reduce_assign = self._assign(len(reduce_sizes), self.reduce_rings)
        self._attach_threads(map_assign, map_sizes, "map")
        self._attach_threads(reduce_assign, reduce_sizes, "reduce")

        # Stage 1: DMA-stage every map task's slice into its core's SPM;
        # a core starts as soon as ITS data is resident.
        staging_procs = []
        for core_id, tasks in map_assign.items():
            ring = chip.ring_of(core_id)
            spm = chip.spms[core_id]
            payload_bytes = min(
                sum(map_sizes[t] for t in tasks) * self.bytes_per_item,
                spm.data_bytes,
            )
            proc = chip.dmas[ring].prefetch_fill(
                spm, spm.base_addr, max(1, payload_bytes))
            proc.done_signal.wait(
                lambda _p, c=chip.cores[core_id]: c.start())
            staging_procs.append(proc)
        for proc in staging_procs:
            if not proc.finished:
                yield proc
        result.staging_done = sim.now

        # Stage 2: wait for every map core to exit.
        for core_id in map_assign:
            core = chip.cores[core_id]
            if not core.done:
                yield core.done_signal
        result.map_done = sim.now

        # Stage 3: shuffle — one SPM-transfer packet per reduce task,
        # from a map core to the reduce core that owns the key group.
        map_cores = sorted(map_assign)
        pending = {"n": 0}
        done = sim.signal("mr.shuffle")
        for i, (core_id, tasks) in enumerate(sorted(reduce_assign.items())):
            volume = sum(reduce_sizes[t] for t in tasks) * self.bytes_per_item
            src = map_cores[i % len(map_cores)]
            result.shuffle_bytes += volume
            pending["n"] += 1

            def arrived(_p, _t) -> None:
                pending["n"] -= 1
                if pending["n"] == 0:
                    done.fire()

            packet = Packet(
                src=chip.core_node(src), dst=chip.core_node(core_id),
                size_bytes=max(1, min(volume, 4096)),
                kind=PacketKind.SPM_TRANSFER, on_delivered=arrived,
            )
            chip.noc.send(packet)
        if pending["n"]:
            yield done
        result.shuffle_done = sim.now

        # Stage 4: reduce cores start on their shuffled data.
        for core_id in reduce_assign:
            chip.cores[core_id].start()
        for core_id in reduce_assign:
            core = chip.cores[core_id]
            if not core.done:
                yield core.done_signal
        result.reduce_done = sim.now
        return result
