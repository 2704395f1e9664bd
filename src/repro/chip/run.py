"""The unified run API.

Every simulation the repo can perform — one TCG core, a SmarCo chip, the
Xeon baseline, a SmarCo-vs-Xeon comparison, a scheduler race or a
serving cluster — is described by a frozen :class:`repro.exp.RunRequest`
and executed by :func:`execute`, which returns a :class:`RunOutcome`:
the result object *plus* the full ``StatsRegistry`` dump of the
simulation.  The sweep runner (``repro.exp.runner``), the CLI and the
benches all go through this one entry point; a caller that wants only
the result reads ``execute(request).result``.

``smarco``, ``xeon`` and ``sched`` requests run as a
:class:`~repro.chip.session.RunSession` finished to its horizon, the
object the warm-started sweep and the checkpoint commands drive too, and
``compare`` is two such sessions plus the power bill.  Every run kind
builds its outcome with :func:`build_outcome`, so a cold run and a warm
run of one request carry the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..config import AuditConfig
from ..core.ports import FixedLatencyPort
from ..core.tcg import TCGCore
from ..errors import ConfigError
from ..exp.request import RunRequest
from ..power.report import build_energy_report, smarco_watts, xeon_watts
from ..sim.engine import Simulator
from ..sim.rng import RngTree
from ..sim.stats import StatsRegistry
from ..workloads.base import get_profile
from .results import DictResult, result_from_dict
from .smarco import SmarcoRunResult
from .xeon import XeonRunResult

__all__ = [
    "TcgRunResult",
    "ComparisonResult",
    "RunOutcome",
    "execute",
]


@dataclass
class TcgRunResult(DictResult):
    """Outcome of a single-core microbench (``kind="tcg"``, Fig 17)."""

    workload: str
    policy: str
    threads: int
    cycles: float
    instructions: int

    _COMPUTED = ("ipc",)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class ComparisonResult(DictResult):
    """SmarCo-vs-Xeon outcome for one workload (one Fig 22 bar pair)."""

    workload: str
    smarco: SmarcoRunResult
    xeon: XeonRunResult
    smarco_watts: float
    xeon_watts: float

    _COMPUTED = ("speedup", "energy_efficiency_gain")

    @property
    def speedup(self) -> float:
        """SmarCo throughput over Xeon throughput (Fig 22 left bars).

        ``nan`` (never a silent ``0.0``) when the baseline did no work.
        """
        if not self.xeon.throughput_ips:
            return float("nan")
        return self.smarco.throughput_ips / self.xeon.throughput_ips

    @property
    def energy_efficiency_gain(self) -> float:
        """(perf/W SmarCo) / (perf/W Xeon) (Fig 22 right bars).

        ``nan`` when either side's perf/W is undefined (zero baseline
        throughput or zero billed watts).
        """
        if not (self.xeon.throughput_ips and self.xeon_watts
                and self.smarco_watts):
            return float("nan")
        smarco_eff = self.smarco.throughput_ips / self.smarco_watts
        xeon_eff = self.xeon.throughput_ips / self.xeon_watts
        return smarco_eff / xeon_eff

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "type": type(self).__name__,
            "workload": self.workload,
            "smarco": self.smarco.to_dict(),
            "xeon": self.xeon.to_dict(),
            "smarco_watts": self.smarco_watts,
            "xeon_watts": self.xeon_watts,
        }
        for name in self._COMPUTED:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ComparisonResult":
        return cls(
            workload=data["workload"],
            smarco=SmarcoRunResult.from_dict(data["smarco"]),
            xeon=XeonRunResult.from_dict(data["xeon"]),
            smarco_watts=data["smarco_watts"],
            xeon_watts=data["xeon_watts"],
        )


@dataclass
class RunOutcome:
    """What :func:`execute` returns: the result plus the stats dump.

    ``stats`` is the flat registry dump; :meth:`stats_tree` nests it by
    component path.  ``components`` is the simulated system's component
    tree (:meth:`repro.sim.Component.tree_dict`) so per-run telemetry
    records exactly what was wired to what.
    """

    request: RunRequest
    result: DictResult
    stats: Dict[str, float]
    components: Dict[str, Any] = field(default_factory=dict)
    #: invariant audit report (:meth:`repro.sim.Auditor.summary`), or None
    #: when the run was not audited
    audit: Optional[Dict[str, Any]] = None
    #: activity-proportional energy report
    #: (:meth:`repro.power.report.EnergyReport.to_dict`), or None for run
    #: kinds without chip activity counters.  Observation-only: excluded
    #: from the pinned golden digests, which hash result + stats alone.
    energy: Optional[Dict[str, Any]] = None

    def stats_tree(self) -> Dict[str, Any]:
        """The flat stats dump nested by dotted component path."""
        from ..sim.stats import nest_flat_stats

        return nest_flat_stats(self.stats)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request": self.request.snapshot(),
            "result": self.result.to_dict(),
            "stats": self.stats,
            "components": self.components,
            "audit": self.audit,
            "energy": self.energy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunOutcome":
        from ..exp.request import request_from_snapshot

        return cls(
            request=request_from_snapshot(data["request"]),
            result=result_from_dict(data["result"]),
            stats=dict(data["stats"]),
            # tolerate cache files written before components existed
            components=dict(data.get("components", {})),
            audit=data.get("audit"),
            # tolerate cache files written before energy accounting existed
            energy=data.get("energy"),
        )


# -- the dispatcher ----------------------------------------------------------------


def execute(request: RunRequest,
            audit: Optional[AuditConfig] = None) -> RunOutcome:
    """Build the system a request describes, run it, and collect stats.

    ``audit=None`` defers to the ``REPRO_AUDIT`` environment variable
    (unset/off means no auditing); pass an explicit
    :class:`~repro.config.AuditConfig` to override.  An audited run adds
    no simulation events — results match the unaudited run exactly — and
    attaches the auditor's report as ``RunOutcome.audit``.
    """
    from .session import SESSION_KINDS, RunSession

    if request.kind in SESSION_KINDS:
        return RunSession(request, _make_auditor(audit)).finish()
    request.validate()
    executors = {
        "tcg": _execute_tcg,
        "compare": _execute_compare,
        "traffic": _execute_traffic,
    }
    try:
        executor = executors[request.kind]
    except KeyError:  # pragma: no cover
        raise ConfigError(f"unknown run kind {request.kind!r}") from None
    return executor(request, audit)


def build_outcome(request: RunRequest, result: DictResult,
                  stats: Dict[str, float],
                  components: Optional[Dict[str, Any]] = None,
                  audit: Optional[Dict[str, Any]] = None) -> RunOutcome:
    """The outcome of a finished run, with its energy report attached.

    Every run kind finishes through here, so a run finished by
    :func:`execute` and one finished by a restored session carry the
    same fields.  The energy report is observation-only: billed from the
    finished run's stats and never fed back, so results and golden
    digests are untouched.
    """
    outcome = RunOutcome(request=request, result=result, stats=stats,
                         components=components or {}, audit=audit)
    energy_report = build_energy_report(outcome)
    if energy_report is not None:
        outcome.energy = energy_report.to_dict()
    return outcome


def _make_auditor(audit: Optional[AuditConfig]):
    """Resolve the effective audit config; None when auditing is off."""
    cfg = audit if audit is not None else AuditConfig.from_env()
    if not cfg.enabled:
        return None
    from ..sim.invariants import Auditor

    return Auditor(cfg)


def _execute_tcg(request: RunRequest,
                 audit: Optional[AuditConfig] = None) -> RunOutcome:
    """One TCG core behind a fixed-latency memory port (the Fig 17 rig)."""
    auditor = _make_auditor(audit)
    profile = get_profile(request.workload)
    sim = Simulator()
    registry = StatsRegistry()
    port = FixedLatencyPort(sim, request.mem_latency)
    core = TCGCore(sim, 0, port, policy=request.core_policy,
                   registry=registry)
    if auditor is not None:
        auditor.install(core)
    rng_tree = RngTree(request.seed)
    n = request.threads_per_core
    for t in range(n):
        core.add_thread(profile.stream(
            request.instrs_per_thread,
            rng_tree.stream(f"{request.workload}.{t}"),
            thread_id=t, gang_size=n, gang_rank=t,
        ))
    core.start()
    sim.run()
    if auditor is not None:
        auditor.end_of_run(sim.now)
    result = TcgRunResult(
        workload=request.workload,
        policy=request.core_policy,
        threads=n,
        # elapsed, not sim.now: core.ipc is defined over start->finish
        cycles=core.elapsed,
        instructions=core.instructions,
    )
    return build_outcome(
        request, result, registry.dump(), core.tree_dict(),
        auditor.summary() if auditor is not None else None)


def _execute_compare(request: RunRequest,
                     audit: Optional[AuditConfig] = None) -> RunOutcome:
    """One Fig 22 (or Fig 26, via ``technology_nm=40`` and the prototype
    as ``power_config``) data point.

    Both sides are billed by :func:`~repro.power.report.smarco_watts`
    and :func:`~repro.power.report.xeon_watts`.  Energy accounting is
    conservative: unless ``request.power_config`` names another config,
    SmarCo is billed the *full-chip* power (paper Table 1's 240 W class)
    even when the simulated geometry is scaled down.
    """
    smarco_outcome = execute(replace(request, kind="smarco"), audit)
    xeon_outcome = execute(replace(request, kind="xeon"), audit)
    smarco_result = smarco_outcome.result
    xeon_result = xeon_outcome.result
    result = ComparisonResult(
        workload=request.workload,
        smarco=smarco_result,
        xeon=xeon_result,
        smarco_watts=smarco_watts(request.power_config,
                                  smarco_result.utilization,
                                  request.technology_nm),
        xeon_watts=xeon_watts(request.xeon_config, xeon_result.utilization),
    )
    # both systems are component roots ("chip." / "xeon." prefixes), so the
    # two flat dumps merge without collision
    stats: Dict[str, float] = {}
    stats.update(smarco_outcome.stats)
    stats.update(xeon_outcome.stats)
    combined_audit = None
    if smarco_outcome.audit is not None or xeon_outcome.audit is not None:
        combined_audit = {"smarco": smarco_outcome.audit,
                          "xeon": xeon_outcome.audit}
    return build_outcome(
        request, result, stats,
        {"smarco": smarco_outcome.components,
         "xeon": xeon_outcome.components},
        combined_audit)


def _execute_traffic(request: RunRequest,
                     audit: Optional[AuditConfig] = None) -> RunOutcome:
    """One open-loop cluster run (see :mod:`repro.traffic.cluster`).

    The chip-model calibration run inside :func:`~repro.traffic.cluster.
    calibrate_chip` goes back through :func:`execute` (under the
    ``REPRO_AUDIT`` environment setting, like any run); the queueing tier
    itself declares no invariant checkers, so the explicit ``audit``
    override has nothing to attach to here.
    """
    from ..traffic.cluster import run_traffic

    registry = StatsRegistry()
    result = run_traffic(request, registry=registry)
    return build_outcome(request, result, registry.dump())
