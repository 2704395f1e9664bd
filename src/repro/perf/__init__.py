"""``repro.perf`` — the simulator's self-recording performance harness.

Three pieces:

* :mod:`repro.perf.kernels` — a fixed suite of microbenchmarks over the
  simulator's hot paths (event engine, links, rings, MACT, scheduler,
  traffic tier, energy accounting), each deterministic so only *time*
  varies between runs;
* :mod:`repro.perf.bench` — the ``BENCH_<timestamp>.json`` record those
  runs write (events/sec, units/sec, peak RSS, code digest) and the
  comparator behind the ``perf --compare`` regression gate;
* :mod:`repro.perf.profile` — cProfile mode for finding the next hot
  spot.

Entry point: ``repro-smarco perf`` (see ``docs/performance.md``).
"""

from .bench import (
    SCHEMA,
    BenchComparison,
    BenchRecord,
    KernelComparison,
    compare_benches,
    load_bench,
    peak_rss_kb,
)
from .kernels import (
    KERNELS,
    SIZES,
    kernel_names,
    result_digest,
    run_kernel,
    run_suite,
)
from .profile import profile_kernel

__all__ = [
    "SCHEMA",
    "BenchComparison",
    "BenchRecord",
    "KernelComparison",
    "compare_benches",
    "load_bench",
    "peak_rss_kb",
    "KERNELS",
    "SIZES",
    "kernel_names",
    "result_digest",
    "run_kernel",
    "run_suite",
    "profile_kernel",
]
