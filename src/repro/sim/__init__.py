"""Discrete-event simulation kernel: engine, components, stats, RNG, checkpoints."""

from .checkpoint import (FORMAT_VERSION, Checkpoint, SnapshotScope,
                         load_checkpoint, save_checkpoint)
from .component import Component, InputPort, OutputPort, Port, Wire
from .engine import EventSignal, Process, Simulator
from .invariants import Auditor, Violation
from .snapshot import register_snapshot_class, snapshotable
from .rng import RngTree, derive_seed
from .stats import (Accumulator, Counter, Histogram, StatsRegistry,
                    StatsScope, TimeWeighted, nest_flat_stats)

__all__ = [
    "Simulator",
    "EventSignal",
    "Process",
    "Component",
    "Port",
    "InputPort",
    "OutputPort",
    "Wire",
    "RngTree",
    "derive_seed",
    "Counter",
    "Accumulator",
    "Histogram",
    "TimeWeighted",
    "StatsRegistry",
    "StatsScope",
    "nest_flat_stats",
    "Auditor",
    "Violation",
    "Checkpoint",
    "SnapshotScope",
    "FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "register_snapshot_class",
    "snapshotable",
]
