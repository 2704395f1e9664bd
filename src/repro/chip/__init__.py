"""Full-chip assemblies: SmarCo, the Xeon baseline, and the run harness."""

from .results import DictResult, result_from_dict
from .run import (
    ComparisonResult,
    RunOutcome,
    TcgRunResult,
    execute,
)
from .session import SESSION_KINDS, RunSession
from .smarco import SmarCoChip, SmarcoRunResult
from .xeon import XeonRunResult, XeonSystem

__all__ = [
    "RunSession",
    "SESSION_KINDS",
    "SmarCoChip",
    "SmarcoRunResult",
    "XeonSystem",
    "XeonRunResult",
    "TcgRunResult",
    "ComparisonResult",
    "RunOutcome",
    "DictResult",
    "result_from_dict",
    "execute",
]
