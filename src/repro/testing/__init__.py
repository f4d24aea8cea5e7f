"""Deterministic schedule-exploration and Byzantine fuzzing harness.

Everything a test needs to fuzz the SINTRA stack from one integer seed:

* :mod:`repro.testing.schedule` — seeded fault plans and protocol
  workload scenarios (``python -m repro.testing.schedule`` is the fuzz
  CLI);
* :mod:`repro.testing.case` — the case core every harness shares: one
  case, runner, shrinker, campaign loop, replay line and failure writer;
* :mod:`repro.testing.invariants` — live protocol safety checkers;
* :mod:`repro.testing.mutator` — the wire-level Byzantine mutator;
* :mod:`repro.testing.netchaos` — seeded socket-level chaos proxies for
  the real asyncio TCP runtime.

See ``docs/TESTING.md`` for the guided tour.

Re-exports resolve lazily (PEP 562) so that ``python -m
repro.testing.schedule`` does not import the CLI module twice.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "case": [
        "Case",
        "Result",
        "campaign",
        "report",
        "run",
        "shrink",
    ],
    "invariants": [
        "AgreementInvariant",
        "Invariant",
        "InvariantSuite",
        "InvariantViolation",
        "LedgerInvariant",
        "SecureCausalityInvariant",
        "StabilityInvariant",
        "TotalOrderInvariant",
    ],
    "mutator": ["BatchFrameMutator", "ByzantineMutator", "MutationRates"],
    "netchaos": ["ChaosFabric", "ChaosProxy"],
    "schedule": [
        "AgreementScenario",
        "ChannelScenario",
        "Directive",
        "LedgerScenario",
        "SCENARIOS",
        "Scenario",
        "build_fault_plan",
        "case_seed_for",
        "default_group",
        "make_scenario",
        "plan_from_seed",
    ],
}

_NAME_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name: str) -> Any:
    module_name = _NAME_TO_MODULE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
