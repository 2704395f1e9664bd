"""cProfile integration: find where a kernel actually spends its time.

This is the mode that drove the hot-path optimization pass: run one suite
kernel under :mod:`cProfile`, aggregate by function, and print the top
offenders by cumulative and internal time.  The output is plain text so
it can be pasted into ``docs/performance.md`` optimization notes.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Dict, Tuple

from .kernels import run_kernel

__all__ = ["profile_kernel"]


def profile_kernel(name: str, size: str = "default",
                   top: int = 20) -> Tuple[Dict[str, Any], str]:
    """Run ``name`` once under cProfile.

    Returns ``(kernel_result, report_text)`` where the report holds the
    ``top`` functions sorted by cumulative time and again by internal
    (self) time.  An unknown kernel or size raises
    :class:`~repro.errors.ConfigError` from :func:`run_kernel`.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_kernel(name, size=size, repeat=1)
    finally:
        profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs()
    buf.write(f"== {name} [{size}] by cumulative time ==\n")
    stats.sort_stats("cumulative").print_stats(top)
    buf.write(f"\n== {name} [{size}] by internal time ==\n")
    stats.sort_stats("tottime").print_stats(top)
    return result, buf.getvalue()
