"""``repro.perf`` — microbenchmarks that isolate the simulator's hot paths.

Two pieces:

* :mod:`repro.perf.kernels` — a fixed suite of microbenchmarks over the
  simulator's hot paths (event engine, links, rings, MACT, scheduler,
  traffic tier, energy accounting), each deterministic so only *time*
  varies between runs;
* :mod:`repro.perf.profile` — cProfile mode for finding the next hot
  spot.

The kernels isolate a path; they record nothing.  Whole-run speed is
recorded and judged by the outside-in benchmark in ``bench/``.

Entry point: ``repro-smarco perf`` (see ``docs/performance.md``).
"""

from .kernels import (
    KERNELS,
    SIZES,
    kernel_names,
    result_digest,
    run_kernel,
    run_suite,
)

__all__ = [
    "KERNELS",
    "SIZES",
    "kernel_names",
    "result_digest",
    "run_kernel",
    "run_suite",
]
