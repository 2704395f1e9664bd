"""Task scheduling: the pluggable policy zoo and its adversarial scenarios.

The package is a plug-in subsystem: :mod:`repro.sched.policy` defines the
:class:`SchedulerPolicy` contract and the named registry, the paper's
schedulers live in :mod:`repro.sched.policies`, the related-work
competitors in :mod:`repro.sched.zoo`, and :mod:`repro.sched.scenarios`
supplies the deterministic adversarial scripts plus the audited harness
that races any (policy, scenario) pair.
"""

from .chains import ChainTable
from .dispatch import (
    MainScheduler,
    SchedulerTestbed,
    TestbedResult,
    TimeSharedTestbed,
)
from .policies import (
    DeadlineScheduler,
    FifoScheduler,
    LaxityScheduler,
)
from .policy import (
    SchedulerPolicy,
    create_policy,
    get_policy,
    list_policies,
    policy_summaries,
    register_policy,
)
from .scenarios import (
    SchedRunResult,
    ScenarioTestbed,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_sched_scenario,
    scenario_summaries,
)
from .task import Task, TaskPriority
from .zoo import (
    CriticalityScheduler,
    SmtBalanceScheduler,
    criticality_from_breakdown,
    task_criticality,
)

__all__ = [
    "Task",
    "TaskPriority",
    "ChainTable",
    # the policy protocol + registry
    "SchedulerPolicy",
    "register_policy",
    "get_policy",
    "create_policy",
    "list_policies",
    "policy_summaries",
    # registered policies
    "LaxityScheduler",
    "DeadlineScheduler",
    "FifoScheduler",
    "SmtBalanceScheduler",
    "CriticalityScheduler",
    "task_criticality",
    "criticality_from_breakdown",
    # testbeds and scenarios
    "MainScheduler",
    "SchedulerTestbed",
    "TimeSharedTestbed",
    "TestbedResult",
    "ScenarioTestbed",
    "SchedRunResult",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_summaries",
    "run_sched_scenario",
]
