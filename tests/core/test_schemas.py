"""Declared message shapes: one per handled type, checked at the router.

The structural test pins every protocol's :attr:`schemas` to the
``MSG_*`` constants its ``on_message`` handles.  The sweep drives the
Byzantine harnesses over fixed seeds and checks that malformed input
stops at the router: every case passes, no exception escapes a handler,
rejections happen, and every error an honest router records names a
compromised sender.
"""

from __future__ import annotations

import inspect
import re
import sys

import pytest

from repro.adversary.strategies import STRATEGIES
from repro.core.agreement import ArrayAgreement, BinaryAgreement, ValidatedAgreement
from repro.core.broadcast import ConsistentBroadcast, ReliableBroadcast
from repro.core.broadcast.verifiable import VerifiableConsistentBroadcast
from repro.core.channel import (
    AtomicChannel,
    ConsistentChannel,
    OptimisticAtomicChannel,
    ReliableChannel,
    SecureAtomicChannel,
    StabilizedConsistentChannel,
)
from repro.core.channel.atomic import MSG_QUEUE, OFFLOAD_MTYPES
from repro.core.protocol import Protocol
from repro.core.schema import ANY, NAT, POS, ListOf, Maybe, OneOf, conforms
from repro.obs.recorder import MemoryRecorder
from repro.recovery.service import CheckpointExchange
from repro.testing import SCENARIOS, Case, build_fault_plan, plan_from_seed, run
from repro.testing import case as case_mod
from repro.testing.case import case_seed

from tests.conftest import cached_group
from tests.helpers import MockContext, record_runtimes

PROTOCOLS = [
    ReliableBroadcast,
    ConsistentBroadcast,
    VerifiableConsistentBroadcast,
    BinaryAgreement,
    ValidatedAgreement,
    ArrayAgreement,
    AtomicChannel,
    SecureAtomicChannel,
    OptimisticAtomicChannel,
    ReliableChannel,
    ConsistentChannel,
    StabilizedConsistentChannel,
    CheckpointExchange,
]


def _handled(cls: type) -> set:
    """Values of the ``MSG_*`` constants named in ``cls.on_message``,
    following ``super().on_message`` up the class hierarchy."""
    values: set = set()
    for klass in cls.__mro__:
        if klass is Protocol or "on_message" not in vars(klass):
            continue
        source = inspect.getsource(vars(klass)["on_message"])
        module = sys.modules[klass.__module__]
        values |= {getattr(module, name) for name in re.findall(r"\bMSG_\w+", source)}
        if "super().on_message" not in source:
            break
    return values


@pytest.mark.parametrize("cls", PROTOCOLS, ids=lambda cls: cls.__name__)
def test_schemas_declare_exactly_the_handled_mtypes(cls):
    assert set(cls.schemas) == _handled(cls)


def test_configuration_narrows_the_declared_shapes():
    group = cached_group()
    inline = AtomicChannel(MockContext(group), "inline")
    offload = AtomicChannel(MockContext(group), "offload", offload=True)
    assert set(inline.schemas) == {MSG_QUEUE}
    assert set(offload.schemas) == {MSG_QUEUE, *OFFLOAD_MTYPES}
    digest_candidate = (1, b"digest", b"certificate")
    assert conforms(offload.schemas[MSG_QUEUE], digest_candidate)
    assert not conforms(inline.schemas[MSG_QUEUE], digest_candidate)
    stable = StabilizedConsistentChannel(MockContext(group), "stab")
    assert conforms(stable.schemas["stab-ack"], [0] * group.n)
    assert not conforms(stable.schemas["stab-ack"], [0] * (group.n + 1))


def test_conforms():
    assert conforms(int, True)  # isinstance semantics: a bool is an int
    assert conforms((NAT, bytes), (0, b"")) and not conforms((NAT, bytes), [0, b""])
    assert not conforms((NAT, bytes), (0, b"", None)) and not conforms(POS, 0)
    assert conforms(ListOf(NAT, 2, min_len=1), [1, 2])
    assert not conforms(ListOf(NAT, 2, min_len=1), [])
    assert not conforms(ListOf(NAT, 2, min_len=1), [1, 2, 3])
    assert conforms(Maybe(bytes), None) and not conforms(Maybe(bytes), "x")
    assert conforms(OneOf(0, 1), 1) and not conforms(OneOf(0, 1), 2)
    assert conforms(ANY, object())


# -- the Byzantine-input sweep ---------------------------------------------------------

SWEEP_ROOT = 0x5C4E3A
#: fuzz cases per scenario, each with a compromised party on the wire
FUZZ_CASES = 3
#: the BatchFrameMutator case of tests/fuzz/test_fuzz_batched.py
BATCH_SEED = 0xBA7C


def _compromising(scenario: str, root: int, count: int) -> list:
    template = Case("fuzz", scenario)
    seeds = (case_seed(template, root, i) for i in range(200))
    wanted = [
        s for s in seeds if any(d.kind == "compromise" for d in plan_from_seed(s, 4, 1))
    ]
    return [Case("fuzz", scenario, seed=s) for s in wanted[:count]]


def _sweep_cases() -> list:
    cases = []
    for scenario in sorted(SCENARIOS):
        cases += _compromising(scenario, SWEEP_ROOT, FUZZ_CASES)
    cases += _compromising("batched", BATCH_SEED, 1)
    for strategy in sorted(STRATEGIES):
        template = Case("adv", "atomic", strategy=strategy)
        cases.append(Case("adv", "atomic", strategy=strategy,
                          seed=case_seed(template, SWEEP_ROOT, 0)))
    return cases


def test_byzantine_input_stops_at_the_router(monkeypatch, group4):
    runtimes = record_runtimes(monkeypatch, case_mod)
    rejected = 0.0
    for case in _sweep_cases():
        runtimes.clear()
        obs = MemoryRecorder()
        result = run(case, group=group4, recorder=obs)
        assert result.ok, result.repro_line()
        rejected += obs.counters.get("router.rejected", 0.0)
        if case.harness == "fuzz":
            compromised = build_fault_plan(result.directives)[1]
        else:
            compromised = set(result.case.adversaries)
        (runtime,) = runtimes
        for i, router in enumerate(runtime.routers):
            if i in compromised:
                continue
            blamed = {sender for _pid, sender, _exc in router.errors}
            assert blamed <= compromised, (result.repro_line(), router.errors[:3])
    assert rejected > 0
