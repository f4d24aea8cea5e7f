"""Seeded fuzz campaigns over binary and multi-valued agreement.

Also pins down the determinism contract the whole harness rests on:
identical ``(scenario, n, t, case seed, keep)`` must reproduce identical
runs, and dropping fault directives must not perturb the surviving ones.
"""

from __future__ import annotations

import pytest

from repro.testing import (
    Case,
    build_fault_plan,
    campaign,
    case_seed_for,
    plan_from_seed,
    report,
    run,
)


@pytest.mark.parametrize("kind", ("binary", "mvba"))
def test_fuzz_agreement_n4(kind, group4, fuzz_seed, fuzz_iterations):
    results = campaign(Case("fuzz", kind), fuzz_seed, fuzz_iterations, group=group4)
    assert all(r.ok for r in results), "\n" + report(results)


@pytest.mark.parametrize("kind", ("binary", "mvba"))
def test_fuzz_agreement_n7(kind, group7, fuzz_seed, fuzz_iterations):
    iterations = min(fuzz_iterations, 5)  # n=7 agreement runs are heavier
    results = campaign(Case("fuzz", kind, n=7, t=2), fuzz_seed, iterations, group=group7)
    assert all(r.ok for r in results), "\n" + report(results)


# --- harness determinism ------------------------------------------------------------


def test_plans_are_deterministic_and_bounded(fuzz_seed):
    for i in range(20):
        seed = case_seed_for(fuzz_seed, "det", 4, 1, i)
        plan = plan_from_seed(seed, 4, 1)
        assert plan == plan_from_seed(seed, 4, 1)
        faults, compromised = build_fault_plan(plan)
        faulty = compromised | {c.victim for c in faults.crashes}
        assert len(faulty) <= 1, f"plan exceeds t=1 faulty parties: {plan}"


def test_case_replay_is_identical(group4, fuzz_seed):
    seed = case_seed_for(fuzz_seed, "replay", 4, 1, 0)
    a = run(Case("fuzz", "atomic", seed=seed), group=group4)
    b = run(Case("fuzz", "atomic", seed=seed), group=group4)
    assert (a.ok, a.error, a.checks_run) == (b.ok, b.error, b.checks_run)
    assert a.directives == b.directives


def test_keep_subset_replays(group4, fuzz_seed):
    """A --keep subset runs the surviving directives, deterministically."""
    seed = case_seed_for(fuzz_seed, "keep", 4, 1, 1)
    plan = plan_from_seed(seed, 4, 1)
    assert plan, "generator always emits at least one spike directive"
    sub = tuple(range(0, len(plan), 2))
    a = run(Case("fuzz", "atomic", seed=seed, keep=sub), group=group4)
    b = run(Case("fuzz", "atomic", seed=seed, keep=sub), group=group4)
    assert a.directives == [plan[i] for i in sub]
    assert (a.ok, a.error, a.checks_run) == (b.ok, b.error, b.checks_run)
    empty = run(Case("fuzz", "atomic", seed=seed, keep=()), group=group4)
    assert empty.ok and not empty.directives
