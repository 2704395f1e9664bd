"""SmarCo reproduction: a many-core high-throughput processor simulator.

Reimplementation of *SmarCo: An Efficient Many-Core Processor for
High-Throughput Applications in Datacenters* (Fan et al., HPCA 2018) as a
pure-Python discrete-event simulation library.

Quickstart::

    from repro import SmarCoChip, smarco_scaled, get_profile

    chip = SmarCoChip(smarco_scaled(sub_rings=2))
    chip.load_profile(get_profile("kmp"), threads_per_core=8,
                      instrs_per_thread=500)
    result = chip.run()
    print(result.ipc, result.mean_request_latency)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-figure reproduction status.
"""

from .chip import (
    ComparisonResult,
    RunOutcome,
    SmarCoChip,
    SmarcoRunResult,
    TcgRunResult,
    XeonRunResult,
    XeonSystem,
    execute,
)
from .config import (
    MACTConfig,
    MemoryConfig,
    RingConfig,
    SchedulerConfig,
    SmarCoConfig,
    TCGConfig,
    XeonConfig,
    smarco_default,
    smarco_scaled,
    xeon_default,
)
from .exp import ExperimentSpec, RunRequest
from .workloads import all_profiles, get_profile

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "SmarCoChip",
    "SmarcoRunResult",
    "XeonSystem",
    "XeonRunResult",
    "TcgRunResult",
    "ComparisonResult",
    "RunOutcome",
    "execute",
    "RunRequest",
    "ExperimentSpec",
    "SmarCoConfig",
    "TCGConfig",
    "RingConfig",
    "MACTConfig",
    "MemoryConfig",
    "SchedulerConfig",
    "XeonConfig",
    "smarco_default",
    "smarco_scaled",
    "xeon_default",
    "get_profile",
    "all_profiles",
]
