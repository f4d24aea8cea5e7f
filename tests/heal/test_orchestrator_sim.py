"""The orchestrator under the deterministic simulator.

Covers the tentpole acceptance criteria:

* the pinned closed-loop case — a ``doublevote`` replica is detected,
  drained and replaced autonomously, the healed group converges on one
  digest, and the evicted replica's pre-refresh shares are stale;
* an epoch change that never commits rolls back without wedging the
  channel (the group keeps ordering on ``n - t`` replicas);
* an onboarding that times out mid-transfer rolls back and shuts the
  half-born successor down;
* the proactive refresh cadence fires with zero suspicion;
* every step shows up as ``heal.*`` counters in an exported BENCH record.
"""

import pytest

from repro.heal.evidence import EV_EQUIVOCATION, Evidence, SuspicionScorer
from repro.heal.orchestrator import HealOrchestrator, OrchestratorConfig
from repro.heal.planner import PlannerConfig, RecoveryPlanner
from repro.heal.scenario import CounterMachine, run_heal_case
from repro.membership.epoch import EpochKeychain
from repro.membership.service import ReconfigurableService
from repro.obs.export import make_record
from repro.obs.recorder import MemoryRecorder
from repro.testing.case import Case

from tests.helpers import sim_runtime

pytestmark = pytest.mark.heal

#: the pinned seed of the e2e case — CI replays exactly this run
PINNED_CASE = 0x1


def test_closed_loop_doublevote_pinned_case(tmp_path):
    """A doublevote intruder is autonomously detected, drained, replaced
    via certified state transfer; the healed group agrees byte-for-byte
    and the evicted replica's pre-refresh shares are rejected."""
    obs = MemoryRecorder()
    result = run_heal_case(
        Case("heal", "heal", "doublevote", seed=PINNED_CASE), str(tmp_path),
        recorder=obs,
    )
    assert result.ok, result.repro_line()
    flags = result.details
    assert flags["detected"] and flags["replaced"]
    assert flags["digests_agree"] and flags["stale_share_rejected"]
    assert flags["final_epoch"] >= 1
    replaced = [h for h in result.dump["heals"] if h["outcome"] == "replaced"]
    assert any(h["slot"] == result.case.adversaries[0] for h in replaced)

    # the whole loop is observable: one BENCH record carries the story.
    record = make_record(
        "heal-e2e", experiment="heal-campaign", recorder=obs, outcome="ok"
    )
    counters = record["counters"]
    assert counters["heal.equivocation.observed"] >= 1
    assert counters["heal.evidence.equivocation"] >= 1
    assert counters["heal.plan.replace"] >= 1
    assert counters["heal.fence"] >= 1
    assert counters["heal.submitted"] >= 1
    assert counters["heal.committed"] >= 1
    assert counters["heal.onboarding"] >= 1
    assert counters["heal.replaced"] >= 1
    assert "heal.replace.e2e" in record["phases"]


class _Harness:
    """A live n=4 group with an orchestrator, no intrusion: the repair
    machinery is driven by directly injected evidence."""

    def __init__(self, tmp_path, group, *, planner_config=None, config=None,
                 factory=None, spares=None):
        self.obs = MemoryRecorder()
        self.runtime = sim_runtime(group, seed=5, recorder=self.obs)
        self.keychain = EpochKeychain(group)
        self.tmp_path = tmp_path
        self.spawned = 0
        from repro.core.party import make_parties

        self.parties = make_parties(self.runtime)
        self.services = {
            i: self.build(i, "") for i in range(group.n)
        }
        for svc in self.services.values():
            svc.start()
        self.orchestrator = HealOrchestrator(
            self.runtime,
            dict(self.services),
            scorer=SuspicionScorer(half_life=60.0, recorder=self.obs),
            planner=RecoveryPlanner(
                planner_config or PlannerConfig(refresh_interval=None),
                recorder=self.obs,
            ),
            spares=list(spares if spares is not None else ["spare-0"]),
            service_factory=factory or self.default_factory,
            config=config
            or OrchestratorConfig(tick_interval=5.0, commit_timeout=40.0),
            recorder=self.obs,
        ).attach()
        self.orchestrator.start()

    def build(self, slot, suffix, min_epoch=0):
        return ReconfigurableService(
            self.parties[slot],
            "svc",
            CounterMachine(),
            str(self.tmp_path / f"replica{slot}{suffix}"),
            self.keychain,
            min_epoch=min_epoch,
            checkpoint_interval=2,
            fsync="never",
        )

    def default_factory(self, slot, member, min_epoch, kind):
        self.spawned += 1
        return self.build(slot, f"-{member}-{self.spawned}", min_epoch)

    def accuse(self, slot, times=3):
        now = self.runtime.now
        for _ in range(times):
            self.orchestrator.ingest(Evidence(EV_EQUIVOCATION, slot, now))

    def live(self):
        return [
            svc
            for slot, svc in self.orchestrator.services.items()
            if svc is not None and slot not in self.orchestrator._fenced
        ]

    def pump(self, seconds):
        self.runtime.run(until=self.runtime.now + seconds)

    def order_traffic(self, count=2):
        """Prove the channel still orders commands on the live quorum."""
        live = self.live()
        base = max(s.applied_seq for s in live)
        for i in range(count):
            live[i % len(live)].submit(b"add:1")
        for _ in range(200):
            if all(s.applied_seq >= base + count for s in live):
                return True
            self.pump(5.0)
        return False


def test_commit_timeout_rolls_back_without_wedging(tmp_path, group4):
    """A submitted epoch change that never reaches the total order is
    rolled back: the spare returns to the pool, the slot cools down, and
    the surviving n - t replicas keep ordering traffic."""
    h = _Harness(
        tmp_path,
        group4,
        planner_config=PlannerConfig(
            refresh_interval=None, slot_cooldown=10_000.0
        ),
        config=OrchestratorConfig(tick_interval=5.0, commit_timeout=30.0),
    )
    # fake the membership API on every executor: the submission
    # "succeeds" (a target epoch comes back) but no barrier ever fires.
    for svc in h.services.values():
        svc.drain_and_replace = (  # type: ignore[method-assign]
            lambda slot, member, _svc=svc: _svc.membership_epoch + 1
        )
    h.accuse(3)
    h.pump(10.0)  # tick: fence + submit
    orch = h.orchestrator
    assert orch._in_flight is not None
    assert 3 in orch._fenced
    assert orch.spares == []  # the spare is committed to the attempt

    h.pump(60.0)  # past the commit timeout
    assert orch._in_flight is None
    assert orch.stats["rollbacks"] == 1
    assert orch.heals[-1]["outcome"] == "rolled-back"
    assert "commit timed out" in orch.heals[-1]["error"]
    assert orch.spares == ["spare-0+retry"]  # returned, name burnt
    assert orch._cooldowns[3] > h.runtime.now

    orch.stop()
    assert h.order_traffic()  # the group never wedged


def test_onboard_timeout_shuts_successor_down_and_rolls_back(
    tmp_path, group4
):
    """An onboarding stuck mid-state-transfer (its pull requests go
    nowhere) is abandoned at the timeout: the half-born successor is shut
    down and the group keeps running without the slot."""
    stuck = []

    def wedged_factory(slot, member, min_epoch, kind):
        svc = _Harness.build(h, slot, f"-{member}-stuck", min_epoch)
        svc._send_pull = lambda: None  # type: ignore[method-assign]
        stuck.append(svc)
        return svc

    h = _Harness.__new__(_Harness)
    _Harness.__init__(
        h,
        tmp_path,
        group4,
        planner_config=PlannerConfig(
            refresh_interval=None, slot_cooldown=10_000.0
        ),
        config=OrchestratorConfig(
            tick_interval=5.0, commit_timeout=120.0, onboard_timeout=60.0
        ),
        factory=wedged_factory,
    )
    h.accuse(3)
    for _ in range(80):
        if h.orchestrator.stats["rollbacks"]:
            break
        h.pump(10.0)
    orch = h.orchestrator
    assert orch.stats["rollbacks"] == 1
    assert orch.heals[-1]["outcome"] == "rolled-back"
    assert "onboarding timed out" in orch.heals[-1]["error"]
    assert stuck
    assert all(
        s.channel is None or s.channel.is_closed() for s in stuck
    )  # the half-born successor was shut down, not leaked
    assert orch.services[3] is None or 3 in orch._fenced

    orch.stop()
    assert h.order_traffic()


def test_proactive_refresh_cadence_with_zero_suspicion(tmp_path, group4):
    """Shares rotate every R seconds with nobody under suspicion — the
    paper's proactive mobile-adversary countermeasure on a timer."""
    h = _Harness(
        tmp_path,
        group4,
        planner_config=PlannerConfig(refresh_interval=60.0),
        config=OrchestratorConfig(tick_interval=5.0, commit_timeout=120.0),
    )
    for _ in range(40):
        if h.orchestrator.stats["refreshed"] >= 2:
            break
        h.pump(10.0)
    orch = h.orchestrator
    orch.stop()
    h.pump(30.0)
    assert orch.stats["refreshed"] >= 2
    assert orch.stats["rollbacks"] == 0 and orch.stats["aborts"] == 0
    epochs = {svc.membership_epoch for svc in h.live()}
    assert len(epochs) == 1 and epochs.pop() >= 2
    counters = h.obs.snapshot()["counters"]
    assert counters["heal.plan.refresh"] >= 2
    assert counters["heal.refreshed"] >= 2
    # roster surgery never happened — only share rotation
    assert "heal.fence" not in counters
