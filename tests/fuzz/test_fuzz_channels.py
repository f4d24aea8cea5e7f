"""Seeded fuzz campaigns over the three atomic-broadcast channels.

Each test drives ``--fuzz-iterations`` cases of one channel kind on one
group configuration.  Every case is a full adversarial run: randomized
delivery orderings, slow links, a healing partition, up to ``t`` faulty
parties (crashed or wire-mutating Byzantine), with the safety invariants
re-checked after every delivery and liveness enforced by the simulator.

A failure prints (and, under ``REPRO_FILE``, records) a shrunk
``FUZZ-REPRO`` line that replays the exact counterexample from the shell.
"""

from __future__ import annotations

import pytest

from repro.testing import Case, campaign, report

CHANNEL_KINDS = ("atomic", "secure", "optimistic")


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n4(kind, group4, fuzz_seed, fuzz_iterations):
    results = campaign(Case("fuzz", kind), fuzz_seed, fuzz_iterations, group=group4)
    assert all(r.ok for r in results), "\n" + report(results)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n7(kind, group7, fuzz_seed, fuzz_iterations):
    results = campaign(Case("fuzz", kind, n=7, t=2), fuzz_seed, fuzz_iterations, group=group7)
    assert all(r.ok for r in results), "\n" + report(results)


def test_fuzz_stability_channel(group4, fuzz_seed, fuzz_iterations):
    results = campaign(Case("fuzz", "stability"), fuzz_seed, fuzz_iterations, group=group4)
    assert all(r.ok for r in results), "\n" + report(results)


def test_fuzz_replicated_ledger(group4, fuzz_seed, fuzz_iterations):
    results = campaign(Case("fuzz", "ledger"), fuzz_seed, fuzz_iterations, group=group4)
    assert all(r.ok for r in results), "\n" + report(results)
