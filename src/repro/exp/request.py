"""The unified run request: one frozen, serialisable description of a run.

Every way of running a simulation — a single TCG core, a SmarCo chip, the
Xeon baseline, or a SmarCo-vs-Xeon comparison — is described by one
:class:`RunRequest`.  ``repro.chip.run.execute`` consumes it, the sweep
runner (`repro.exp.runner`) fans grids of them across worker processes,
and the result cache keys on its canonical snapshot, so a request is the
unit of reproducibility: same request (+ same code) => same result.

Fields are a superset over the run kinds; each kind reads its own slice
and ignores the rest (the unused fields still participate in the cache
key, which is harmless: they are fixed defaults unless a sweep varies
them).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..config import (
    MACTConfig,
    MemoryConfig,
    RingConfig,
    SchedulerConfig,
    SmarCoConfig,
    TCGConfig,
    XeonConfig,
)
from ..errors import ConfigError, SchedulerError

__all__ = ["RunRequest", "RUN_KINDS", "WARM_AXES", "request_from_snapshot"]

#: Supported values of :attr:`RunRequest.kind`.
RUN_KINDS = ("tcg", "smarco", "xeon", "compare", "sched", "traffic")

#: The fields a warm-started sweep may vary within one warm group: the
#: measurement horizon and the observation-only energy axes.  A session
#: reads them only after the warm restore, so every point of a group
#: follows one simulated trajectory up to its own horizon.
WARM_AXES = ("run_cycles", "dvfs", "technology_nm", "power_gate_idle")


@dataclass(frozen=True)
class RunRequest:
    """A declarative, hashable description of one simulation run."""

    kind: str = "smarco"
    workload: str = "kmp"
    seed: int = 0

    # -- SmarCo chip (kind in {"smarco", "compare"}) --
    smarco_config: Optional[SmarCoConfig] = None
    threads_per_core: int = 8
    instrs_per_thread: int = 600
    core_policy: str = "inpair"
    realtime_fraction: float = 0.0
    total_threads: Optional[int] = None
    shared_code: bool = False

    # -- single TCG core (kind == "tcg"): a fixed-latency memory port --
    mem_latency: float = 150.0

    # -- Xeon baseline (kind in {"xeon", "compare"}) --
    xeon_config: Optional[XeonConfig] = None
    xeon_threads: int = 48
    xeon_instrs_per_thread: int = 40_000
    stagger_creation: bool = True

    # -- power / energy accounting (kinds {"smarco", "compare"}) --
    technology_nm: Optional[int] = None
    power_config: Optional[SmarCoConfig] = None
    #: DVFS operating point (see :mod:`repro.power.dvfs`).  Observation
    #: -only — it scales billed energy and wall-clock seconds, never the
    #: simulated cycle count — but it is a cache-key axis so swept
    #: operating points cache apart.
    dvfs: str = "nominal"
    #: shed the static share of sub-rings whose cores retired nothing
    power_gate_idle: bool = False

    # -- scheduler policy race (kind == "sched") --
    sched_policy: str = "laxity"
    sched_scenario: str = "uniform"
    sched_tasks: int = 128
    sched_contexts: int = 64

    # -- open-loop cluster traffic (kind == "traffic") --
    #: arrival process name (see :mod:`repro.traffic.arrivals`)
    traffic_arrival: str = "poisson"
    #: front-end balancer name (see :mod:`repro.traffic.balancer`)
    traffic_balancer: str = "least-outstanding"
    #: chips behind the front end
    traffic_chips: int = 2
    #: requests the arrival process expands to
    traffic_requests: int = 2000
    #: offered load rho as a fraction of calibrated cluster capacity
    traffic_load: float = 0.7
    #: service demand per request, in instructions
    traffic_instrs: int = 400
    #: SLO latency targets, as multiples of the calibrated solo service
    #: time (each becomes one violation-fraction column in the report)
    traffic_slo: Tuple[float, ...] = (2.0, 5.0, 10.0)

    # -- checkpoint / warm start (kinds with a RunSession) --
    #: simulate at most this many cycles (None = run to completion); a
    #: post-warm measurement-horizon axis for fig-style sweeps
    run_cycles: Optional[float] = None
    #: cycle at which a warm-started sweep snapshots the shared prefix
    #: (0 disables warm starting for this request)
    warm_cycles: float = 0.0
    #: request fields (a subset of :data:`WARM_AXES`) that points sharing
    #: one warm checkpoint may differ in (see :meth:`warm_base`)
    warm_axes: Tuple[str, ...] = ()

    def validate(self) -> None:
        if self.kind not in RUN_KINDS:
            raise ConfigError(f"unknown run kind {self.kind!r}")
        if self.kind == "sched":
            # fail at request time, not inside a worker process
            from ..sched.policy import get_policy
            from ..sched.scenarios import get_scenario

            try:
                get_policy(self.sched_policy)
                get_scenario(self.sched_scenario)
            except SchedulerError as exc:
                raise ConfigError(str(exc)) from None
            if self.sched_tasks <= 0 or self.sched_contexts <= 0:
                raise ConfigError("sched runs need >=1 task and context")
        if self.kind == "traffic":
            # fail at request time, not inside a worker process
            from ..errors import TrafficError
            from ..traffic.arrivals import get_arrival
            from ..traffic.balancer import get_balancer

            try:
                get_arrival(self.traffic_arrival)
                get_balancer(self.traffic_balancer)
            except TrafficError as exc:
                raise ConfigError(str(exc)) from None
            if self.traffic_chips <= 0:
                raise ConfigError("traffic runs need >= 1 chip")
            if self.traffic_requests <= 0 or self.traffic_instrs <= 0:
                raise ConfigError(
                    "traffic runs need >= 1 request and instruction")
            if self.traffic_load <= 0:
                raise ConfigError("traffic_load (offered rho) must be > 0")
            if not self.traffic_slo or any(t <= 0 for t in self.traffic_slo):
                raise ConfigError(
                    f"traffic_slo targets must be positive: "
                    f"{self.traffic_slo!r}")
        # fail on bad power axes at request time, not inside a worker
        from ..power.dvfs import get_dvfs

        get_dvfs(self.dvfs)
        if self.technology_nm is not None:
            from ..power.tech import NODES

            if self.technology_nm not in NODES:
                raise ConfigError(
                    f"unknown technology node {self.technology_nm}nm; "
                    f"known: {sorted(NODES)}")
        if self.threads_per_core <= 0 or self.instrs_per_thread <= 0:
            raise ConfigError("thread and instruction counts must be positive")
        if self.xeon_threads <= 0 or self.xeon_instrs_per_thread <= 0:
            raise ConfigError("Xeon thread and instruction counts must be positive")
        if self.smarco_config is not None:
            self.smarco_config.validate()
        if self.xeon_config is not None:
            self.xeon_config.validate()
        if self.run_cycles is not None and self.run_cycles <= 0:
            raise ConfigError("run_cycles must be positive (or None)")
        if self.warm_cycles < 0:
            raise ConfigError("warm_cycles must be >= 0")
        if self.warm_cycles:
            # session-capable kinds only (kept literal to avoid importing
            # repro.chip from the request layer)
            if self.kind not in ("smarco", "xeon", "sched"):
                raise ConfigError(
                    f"kind {self.kind!r} cannot warm-start: no run session")
            if self.run_cycles is not None and self.run_cycles <= self.warm_cycles:
                raise ConfigError(
                    "run_cycles must exceed warm_cycles (the warm-up "
                    "prefix must end before the measurement horizon)")
        for axis in self.warm_axes:
            if axis not in WARM_AXES:
                raise ConfigError(
                    f"{axis!r} cannot be a warm axis: it may change the "
                    f"simulated run; allowed warm axes: "
                    f"{', '.join(WARM_AXES)}")

    def replace(self, **changes: Any) -> "RunRequest":
        """A copy with ``changes`` applied (sweep axes use this)."""
        return dataclasses.replace(self, **changes)

    def warm_base(self) -> "RunRequest":
        """The request whose first ``warm_cycles`` cycles this run shares.

        Every field named in ``warm_axes`` is reset to its class default,
        so sweep points that differ only in warm axes collapse onto one
        warm-base request — the runner simulates *that* request to
        ``warm_cycles`` once, checkpoints it, and runs the group's points
        as one chain of horizons from the checkpoint.  The contract
        (documented in ``docs/checkpointing.md``) is that warm axes must
        not influence the simulated trajectory at all; :meth:`validate`
        admits only the fields in :data:`WARM_AXES`.
        """
        defaults = {f.name: f.default for f in dataclasses.fields(RunRequest)}
        return self.replace(**{axis: defaults[axis] for axis in self.warm_axes})

    # -- serialisation -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain, JSON-ready dict; the cache key hashes its canonical form."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            out[f.name] = value
        return out


def _smarco_config_from(data: Optional[Dict[str, Any]]) -> Optional[SmarCoConfig]:
    if data is None:
        return None
    return SmarCoConfig(
        sub_rings=data["sub_rings"],
        cores_per_sub_ring=data["cores_per_sub_ring"],
        frequency_ghz=data["frequency_ghz"],
        tcg=TCGConfig(**data["tcg"]),
        ring=RingConfig(**data["ring"]),
        mact=MACTConfig(**data["mact"]),
        memory=MemoryConfig(**data["memory"]),
        scheduler=SchedulerConfig(**data["scheduler"]),
        technology_nm=data["technology_nm"],
        trace_sample_rate=data.get("trace_sample_rate", 0.0),
    )


def _xeon_config_from(data: Optional[Dict[str, Any]]) -> Optional[XeonConfig]:
    if data is None:
        return None
    return XeonConfig(**data)


def request_from_snapshot(data: Dict[str, Any]) -> RunRequest:
    """Inverse of :meth:`RunRequest.snapshot` (worker processes use this)."""
    payload = dict(data)
    payload["smarco_config"] = _smarco_config_from(payload.get("smarco_config"))
    payload["xeon_config"] = _xeon_config_from(payload.get("xeon_config"))
    payload["power_config"] = _smarco_config_from(payload.get("power_config"))
    # JSON round-trips tuples as lists; restore hashability
    payload["warm_axes"] = tuple(payload.get("warm_axes") or ())
    if "traffic_slo" in payload:
        payload["traffic_slo"] = tuple(payload["traffic_slo"] or ())
    names = {f.name for f in dataclasses.fields(RunRequest)}
    return RunRequest(**{k: v for k, v in payload.items() if k in names})
