"""Self-healing replication: the automated intrusion-recovery orchestrator.

Closes the loop the paper leaves to the operator: evidence of intrusion
or failure (failure detector, liveness watchdog, protocol anomalies,
equivocation at the router tap) is fused into per-replica suspicion
scores, a guardrailed planner chooses typed repair actions, and the
orchestrator executes them through epoch reconfiguration — refresh,
drain-and-replace, restart, quarantine — with retries, timeouts and
rollback.  See docs/SELFHEALING.md.
"""

from repro.heal.evidence import (
    BYZANTINE_KINDS,
    EV_BAD_CERT,
    EV_BAD_SHARE,
    EV_EQUIVOCATION,
    EV_FD_DOWN,
    EV_FD_SUSPECT,
    EV_SILENCE,
    EV_STALL,
    EquivocationMonitor,
    Evidence,
    SuspicionScorer,
)
from repro.heal.orchestrator import (
    HealOrchestrator,
    OrchestratorConfig,
    ServiceFactory,
)
from repro.heal.planner import (
    Action,
    DrainAndReplace,
    GroupView,
    PlannerConfig,
    Quarantine,
    RecoveryPlanner,
    RefreshShares,
    RestartReplica,
)
from repro.heal.scenario import (
    CounterMachine,
    run_heal_case,
    stale_share_rejected,
)

__all__ = [
    "Evidence",
    "SuspicionScorer",
    "EquivocationMonitor",
    "EV_FD_SUSPECT",
    "EV_FD_DOWN",
    "EV_STALL",
    "EV_SILENCE",
    "EV_BAD_SHARE",
    "EV_BAD_CERT",
    "EV_EQUIVOCATION",
    "BYZANTINE_KINDS",
    "Action",
    "RefreshShares",
    "DrainAndReplace",
    "RestartReplica",
    "Quarantine",
    "PlannerConfig",
    "GroupView",
    "RecoveryPlanner",
    "HealOrchestrator",
    "OrchestratorConfig",
    "ServiceFactory",
    "CounterMachine",
    "run_heal_case",
    "stale_share_rejected",
]
