"""Deterministic schedule-exploration fuzzer for the SINTRA stack.

One integer *case seed* determines an entire adversarial run:

* a **fault plan** — random delivery-order exploration (per-message delay
  spikes), slow links, healing partitions, crash timings and the set of
  compromised parties, generated as a list of :class:`Directive` records
  by :func:`plan_from_seed`;
* the **wire mutation stream** of the compromised parties (a
  :class:`~repro.testing.mutator.ByzantineMutator`);
* the protocol **workload** of a chosen :class:`Scenario` (which channel
  or agreement protocol to run and what the honest parties send).

Everything stays within the paper's model: at most ``t`` parties are
faulty (crashed or compromised), honest links remain reliable FIFO, and
partitions heal.  Protocol invariant checkers
(:mod:`repro.testing.invariants`) run after every delivery; a liveness
failure surfaces as the simulator going idle or over its time limit.

Replaying is exact: the same ``(scenario, n, t, case_seed)`` reproduces
the run bit-for-bit, and ``keep`` restricts the fault plan to a subset of
directive indices, the representation the shrinker minimizes over.  The
case runner, shrinker, campaign loop and CLI live in
:mod:`repro.testing.case`; every failure is reported as a one-line
``FUZZ-REPRO:`` summary plus a command that replays it from the shell::

    PYTHONPATH=src python -m repro.testing.schedule \\
        --scenario atomic --n 4 --t 1 --case 0x1234abcd --keep 0,3
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common import rng as rng_mod
from repro.common.encoding import encode
from repro.core.party import Party, make_parties
from repro.crypto.dealer import GroupConfig, fast_group
from repro.crypto.params import SecurityParams
from repro.net.faults import (
    CompositeAdversary,
    CrashFault,
    DelaySpikeAdversary,
    FaultPlan,
    HealingPartitionAdversary,
    SlowLinkAdversary,
)
from repro.net.runtime import SimRuntime
from repro.testing.invariants import (
    AgreementInvariant,
    InvariantSuite,
    LedgerInvariant,
    SecureCausalityInvariant,
    StabilityInvariant,
    TotalOrderInvariant,
)
from repro.testing.mutator import BatchFrameMutator, ByzantineMutator


# --- fault plans ------------------------------------------------------------------


@dataclass(frozen=True)
class Directive:
    """One replayable element of a fault plan."""

    kind: str  # "spike" | "slow-link" | "partition" | "crash" | "compromise"
    params: Tuple[Any, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.params}"


def plan_from_seed(case_seed: int, n: int, t: int) -> List[Directive]:
    """The deterministic fault plan of one fuzz case.

    Scheduler directives (spikes, slow links, one healing partition) are
    always in the model's envelope; crashes plus compromises never exceed
    ``t`` parties in total.
    """
    r = rng_mod.derive(case_seed, "plan")
    plan: List[Directive] = []
    for _ in range(r.randint(1, 3)):
        plan.append(Directive("spike", (
            round(r.uniform(0.05, 0.35), 3),   # per-message probability
            round(r.uniform(0.05, 1.0), 3),    # max extra delay (s)
        )))
    for _ in range(r.randint(0, 2)):
        src, dst = r.randrange(n), r.randrange(n)
        plan.append(Directive("slow-link", (src, dst, round(r.uniform(0.05, 0.5), 3))))
    if r.random() < 0.4:
        side = tuple(sorted(r.sample(range(n), r.randint(1, max(1, n // 2)))))
        plan.append(Directive("partition", (side, round(r.uniform(0.5, 3.0), 2))))
    pool = list(range(n))
    r.shuffle(pool)
    budget = t
    crashes = r.randint(0, budget)
    for _ in range(crashes):
        plan.append(Directive("crash", (pool.pop(), round(r.uniform(0.0, 2.0), 2))))
    budget -= crashes
    for _ in range(r.randint(0, budget)):
        plan.append(Directive("compromise", (pool.pop(),)))
    return plan


def build_fault_plan(
    directives: Sequence[Directive],
) -> Tuple[FaultPlan, Set[int]]:
    """Materialize directives into a :class:`FaultPlan` + compromised set."""
    adversaries = []
    crashes: List[CrashFault] = []
    compromised: Set[int] = set()
    for d in directives:
        if d.kind == "spike":
            prob, max_delay = d.params
            adversaries.append(DelaySpikeAdversary(prob=prob, max_delay=max_delay))
        elif d.kind == "slow-link":
            src, dst, delay = d.params
            adversaries.append(SlowLinkAdversary({(src, dst): delay}))
        elif d.kind == "partition":
            side, heal_at = d.params
            adversaries.append(
                HealingPartitionAdversary(group_a=set(side), heal_at=heal_at)
            )
        elif d.kind == "crash":
            victim, crash_at = d.params
            crashes.append(CrashFault(victim=victim, crash_at=crash_at))
        elif d.kind == "compromise":
            compromised.add(d.params[0])
        else:  # pragma: no cover - plan generator only emits the kinds above
            raise ValueError(f"unknown directive kind {d.kind!r}")
    adversary = CompositeAdversary(adversaries) if adversaries else None
    return FaultPlan(adversary=adversary, crashes=tuple(crashes)), compromised


# --- scenarios ------------------------------------------------------------------


@dataclass
class CaseSetup:
    """What a scenario hands back to the driver for one run."""

    suite: InvariantSuite
    #: futures the driver must run to completion, in order
    futures: List[Any]
    #: party id -> the protocol instance whose progress defines liveness;
    #: the adversary harness derives its watchdog sentinels from these
    probes: Dict[int, Any] = field(default_factory=dict)


class Scenario:
    """A protocol workload the fuzzer can drive.

    ``setup`` builds all protocol instances on ``runtime``, injects the
    workload (parties in ``crashed`` stay passive; parties in
    ``compromised`` act honestly at the protocol layer — the wire mutator
    corrupts their traffic), and returns the invariant suite plus the
    futures whose resolution defines a live run.
    """

    name = "scenario"

    #: wire-mutator class for compromised parties; ``None`` means the
    #: generic :class:`~repro.testing.mutator.ByzantineMutator`.  Scenarios
    #: whose wire format has structure worth targeting (e.g. the batched
    #: atomic channel) install a specialized subclass here.
    mutator_factory: Optional[Callable[..., ByzantineMutator]] = None

    def setup(
        self,
        runtime: SimRuntime,
        group: GroupConfig,
        crashed: Set[int],
        compromised: Set[int],
    ) -> CaseSetup:
        raise NotImplementedError


class ChannelScenario(Scenario):
    """Fuzz one of the broadcast channels end to end.

    Every non-crashed party sends ``messages_per_party`` payloads and
    closes; the run is live when every never-faulty party's channel
    terminates.  ``channel_overrides`` maps a party id to a replacement
    channel factory ``(party) -> Channel`` — the hook the planted-bug
    tests use to infect a single replica.
    """

    #: kind -> (factory attribute on Party, extra kwargs)
    KINDS: Dict[str, Tuple[str, Dict[str, Any]]] = {
        "atomic": ("atomic_channel", {}),
        "batched": ("atomic_channel", {"max_batch": 4, "pipeline_depth": 2}),
        "offload": (
            "atomic_channel",
            {"max_batch": 4, "pipeline_depth": 2, "offload": True},
        ),
        "secure": ("secure_atomic_channel", {}),
        "optimistic": ("optimistic_atomic_channel", {"suspect_timeout": 2.0}),
        "stability": ("stabilized_consistent_channel", {}),
    }

    def __init__(
        self,
        kind: str,
        messages_per_party: int = 2,
        channel_overrides: Optional[Dict[int, Callable[[Party], Any]]] = None,
        mutator_factory: Optional[Callable[..., ByzantineMutator]] = None,
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown channel kind {kind!r}")
        self.name = kind
        self.kind = kind
        self.messages_per_party = messages_per_party
        self.channel_overrides = channel_overrides or {}
        if mutator_factory is not None:
            self.mutator_factory = mutator_factory

    def _make_channel(self, party: Party) -> Any:
        override = self.channel_overrides.get(party.id)
        if override is not None:
            return override(party)
        factory_name, kwargs = self.KINDS[self.kind]
        return getattr(party, factory_name)(self.name, **kwargs)

    def setup(self, runtime, group, crashed, compromised) -> CaseSetup:
        channels = {p.id: self._make_channel(p) for p in make_parties(runtime)}
        for i, ch in channels.items():
            if i in crashed:
                continue  # crashed parties never join the workload
            for k in range(self.messages_per_party):
                ch.send(encode(("payload", i, k)))
            ch.close()
        honest = set(channels) - compromised
        live = honest - crashed
        suite = InvariantSuite()
        if self.kind == "stability":
            # The consistent channel orders per sender only; the checkable
            # properties are the stability mechanism's.
            suite.add(StabilityInvariant(channels, honest))
        else:
            suite.add(TotalOrderInvariant(channels, honest, live=live))
        if self.kind == "secure":
            suite.add(SecureCausalityInvariant(channels, honest))
        return CaseSetup(
            suite=suite,
            futures=[channels[i].closed for i in sorted(live)],
            probes=dict(channels),
        )


class AgreementScenario(Scenario):
    """Fuzz binary or multi-valued agreement.

    All non-crashed parties propose seed-derived values; the run is live
    when every never-faulty party decides.
    """

    def __init__(self, kind: str):
        if kind not in ("binary", "mvba"):
            raise ValueError(f"unknown agreement kind {kind!r}")
        self.name = kind
        self.kind = kind

    def setup(self, runtime, group, crashed, compromised) -> CaseSetup:
        parties = make_parties(runtime)
        r = runtime.sim.derive("workload", self.kind)
        honest = set(range(group.n)) - compromised
        live = honest - crashed
        if self.kind == "binary":
            instances = {p.id: p.binary_agreement(self.name) for p in parties}
            proposals = {i: r.randrange(2) for i in instances}
            # CKS validity: a unanimous honest proposal must win.
            honest_props = {proposals[i] for i in live}
            valid = list(honest_props) if len(honest_props) == 1 else None
        else:
            instances = {p.id: p.array_agreement(self.name) for p in parties}
            proposals = {i: encode(("proposal", i)) for i in instances}
            # External validity is trivial here, so the decided value can
            # be anything a (possibly mutated) proposer put forward; only a
            # fully honest run pins it to the proposal set.
            valid = list(proposals.values()) if not compromised else None
        for i, inst in instances.items():
            if i not in crashed:
                inst.propose(proposals[i])
        suite = InvariantSuite().add(
            AgreementInvariant(instances, live, valid_values=valid)
        )
        return CaseSetup(
            suite=suite,
            futures=[instances[i].decided for i in sorted(live)],
            probes=dict(instances),
        )


class LedgerScenario(Scenario):
    """Fuzz the replicated payment ledger over atomic broadcast."""

    name = "ledger"

    def __init__(self, opens_per_party: int = 1, transfers_per_party: int = 1):
        self.opens_per_party = opens_per_party
        self.transfers_per_party = transfers_per_party

    def setup(self, runtime, group, crashed, compromised) -> CaseSetup:
        from repro.app.ledger import ReplicatedLedger

        keys = _ledger_keys(group.n)
        replicas = {p.id: ReplicatedLedger(p, "ledger") for p in make_parties(runtime)}
        for i, rep in replicas.items():
            if i in crashed:
                continue
            account = encode(("acct", i))
            rep.open(account, keys[i].public, 100 * (i + 1))
            for k in range(self.transfers_per_party):
                dst = encode(("acct", (i + 1) % group.n))
                rep.transfer(account, dst, 10, k, keys[i])
            rep.close()
        honest = set(replicas) - compromised
        live = honest - crashed
        suite = (
            InvariantSuite()
            .add(LedgerInvariant(replicas, honest))
            .add(
                TotalOrderInvariant(
                    {i: rep.channel for i, rep in replicas.items()}, honest, live=live
                )
            )
        )
        return CaseSetup(
            suite=suite,
            futures=[replicas[i].channel.closed for i in sorted(live)],
            probes={i: rep.channel for i, rep in replicas.items()},
        )


_LEDGER_KEYS: Dict[int, Any] = {}


def _ledger_keys(n: int):
    """Small cached client RSA keys (keygen is the slow part)."""
    import random as _random

    from repro.crypto.rsa import generate_keypair

    for i in range(n):
        if i not in _LEDGER_KEYS:
            _LEDGER_KEYS[i] = generate_keypair(256, _random.Random(1000 + i))
    return _LEDGER_KEYS


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "atomic": lambda: ChannelScenario("atomic"),
    "batched": lambda: ChannelScenario(
        "batched", messages_per_party=4, mutator_factory=BatchFrameMutator
    ),
    "offload": lambda: ChannelScenario(
        "offload", messages_per_party=4, mutator_factory=BatchFrameMutator
    ),
    "secure": lambda: ChannelScenario("secure"),
    "optimistic": lambda: ChannelScenario("optimistic"),
    "stability": lambda: ChannelScenario("stability"),
    "binary": lambda: AgreementScenario("binary"),
    "mvba": lambda: AgreementScenario("mvba"),
    "ledger": lambda: LedgerScenario(),
}


def make_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


# --- groups and campaign seeds ------------------------------------------------------


_GROUP_CACHE: Dict[Tuple[int, int], GroupConfig] = {}


def default_group(n: int, t: int) -> GroupConfig:
    """Deal (or reuse) the toy-parameter group every harness runs on.

    It keeps the raw key material the heal scenario's
    :class:`~repro.membership.epoch.EpochKeychain` derives epochs from.
    """
    key = (n, t)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = fast_group(
            n, t, SecurityParams.toy(), sig_mode="multi", seed=1
        )
    return _GROUP_CACHE[key]


def case_seed_for(root_seed: int, scenario_name: str, n: int, t: int, i: int) -> int:
    """The i-th case seed of a fuzz campaign (stable across versions)."""
    return rng_mod.derive_int(root_seed, "case", scenario_name, n, t, i)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.testing.case import main

    sys.exit(main("fuzz"))
