"""MapReduce programming model on SmarCo (paper §3.6)."""

from .framework import (
    MapReduceJob,
    MapReduceResult,
    MapReduceRuntime,
    StageTiming,
    TaskPlacement,
)
from .slicing import slice_sequence, slice_text, slices_for_chip
from .staged import StagedMapReduce, StagedResult

__all__ = [
    "MapReduceJob",
    "MapReduceRuntime",
    "MapReduceResult",
    "TaskPlacement",
    "StageTiming",
    "StagedMapReduce",
    "StagedResult",
    "slice_sequence",
    "slice_text",
    "slices_for_chip",
]
