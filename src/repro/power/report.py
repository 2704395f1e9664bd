"""Per-run energy report (the Fig 22/26 perf-per-watt surface).

:func:`build_energy_report` folds a finished run's scoped stats through
the :class:`~repro.power.activity.ActivityEnergyModel` and packages the
result — joules by Table 1 component, joules by component path, average
watts, perf/W, and (for ``compare`` runs) the SmarCo/Xeon efficiency
ratio — as the ``energy`` field of :class:`~repro.chip.run.RunOutcome`
and of the per-run telemetry record.

Everything here is observation-only: it reads ``RunOutcome.stats`` after
the simulation ends and never feeds back, so all pinned golden digests
are unchanged by energy accounting, DVFS points, or power gating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import smarco_default
from .activity import ActivityEnergyModel, EnergyAccounting
from .dvfs import get_dvfs
from .energy import PowerModel, XeonPowerModel, energy_efficiency

__all__ = ["EnergyReport", "build_energy_report", "TOP_PATHS"]

#: how many hottest component paths the report keeps
TOP_PATHS = 8

#: activity floors of every power bill, here and in the Fig 22 compare
SMARCO_UTILIZATION_FLOOR = 0.5
XEON_UTILIZATION_FLOOR = 0.1


@dataclass
class EnergyReport:
    """Energy view of one run (all derived, observation-only)."""

    kind: str
    workload: str
    dvfs: str
    technology_nm: int
    accounting: EnergyAccounting
    throughput_ips: float
    perf_per_watt: float
    #: hottest component paths by dynamic joules, descending
    top_paths: List[Tuple[str, float]] = field(default_factory=list)
    #: static Table 1 watts at the run's utilization (cross-check column)
    static_model_watts: float = math.nan
    #: baseline side (compare runs only)
    xeon_watts: float = math.nan
    xeon_throughput_ips: float = math.nan
    xeon_perf_per_watt: float = math.nan
    #: (perf/W SmarCo) / (perf/W Xeon); NaN outside compare runs
    efficiency_ratio: float = math.nan

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "dvfs": self.dvfs,
            "technology_nm": self.technology_nm,
            "accounting": self.accounting.to_dict(),
            "throughput_ips": self.throughput_ips,
            "perf_per_watt": self.perf_per_watt,
            "top_paths": [[p, j] for p, j in self.top_paths],
            "static_model_watts": self.static_model_watts,
            "xeon_watts": self.xeon_watts,
            "xeon_throughput_ips": self.xeon_throughput_ips,
            "xeon_perf_per_watt": self.xeon_perf_per_watt,
            "efficiency_ratio": self.efficiency_ratio,
        }


def _top_paths(acct: EnergyAccounting, n: int = TOP_PATHS) -> List[Tuple[str, float]]:
    ranked = sorted(acct.by_path.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(path, joules) for path, joules in ranked[:n]]


def build_energy_report(outcome: Any) -> Optional[EnergyReport]:
    """Energy report for a finished run, or None for kinds without one.

    Only ``smarco`` and ``compare`` runs carry chip activity counters;
    every other kind returns None (telemetry stores ``energy: null``).
    """
    request = outcome.request
    if request.kind not in ("smarco", "compare"):
        return None
    result = outcome.result
    smarco_result = result.smarco if request.kind == "compare" else result

    config = (request.smarco_config if request.smarco_config is not None
              else smarco_default())
    model = ActivityEnergyModel(config)
    node = (request.technology_nm if request.technology_nm is not None
            else config.technology_nm)
    acct = model.accounting(
        outcome.stats, smarco_result.cycles,
        technology_nm=node, dvfs=request.dvfs,
        power_gate_idle=request.power_gate_idle)

    point = get_dvfs(request.dvfs)
    # throughput at the operating point: same simulated IPC, DVFS clock
    throughput = smarco_result.ipc * point.frequency_ghz * 1e9
    perf_per_watt = energy_efficiency(throughput, acct.average_watts)
    static_watts = PowerModel(config).total_watts(
        utilization=max(SMARCO_UTILIZATION_FLOOR, smarco_result.utilization),
        technology_nm=node)

    report = EnergyReport(
        kind=request.kind,
        workload=request.workload,
        dvfs=request.dvfs,
        technology_nm=node,
        accounting=acct,
        throughput_ips=throughput,
        perf_per_watt=perf_per_watt,
        top_paths=_top_paths(acct),
        static_model_watts=static_watts,
    )

    if request.kind == "compare":
        xeon_result = result.xeon
        xeon_watts = XeonPowerModel(request.xeon_config).total_watts(
            utilization=max(XEON_UTILIZATION_FLOOR, xeon_result.utilization))
        report.xeon_watts = xeon_watts
        report.xeon_throughput_ips = xeon_result.throughput_ips
        report.xeon_perf_per_watt = energy_efficiency(
            xeon_result.throughput_ips, xeon_watts)
        if (report.xeon_perf_per_watt and report.perf_per_watt
                and not math.isnan(report.xeon_perf_per_watt)
                and not math.isnan(report.perf_per_watt)):
            report.efficiency_ratio = (report.perf_per_watt
                                       / report.xeon_perf_per_watt)
    return report
