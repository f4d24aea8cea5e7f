"""The harness must catch deliberately planted protocol bugs.

Two classic bug shapes are injected and must be (a) detected, (b) shrunk
to a minimal fault plan, and (c) replayable from the reported seed line:

* a **safety** bug — one replica delivers each agreed batch in *reversed*
  signer order, violating total order (the sort at the end of the atomic
  channel's round is exactly the kind of line a refactor breaks);
* a **liveness** bug — binary agreement waits for ``n - t + 1`` votes
  instead of ``n - t`` (the textbook quorum off-by-one), which deadlocks
  as soon as one party crashes.
"""

from __future__ import annotations

import pytest

from repro.core.agreement.binary import BinaryAgreement
from repro.core.channel.atomic import AtomicChannel
from repro.testing import Case, ChannelScenario, case_seed_for, run, shrink

from tests.helpers import first_case

#: Fixed root seed: these tests must find their counterexample at a known
#: iteration, independent of --fuzz-seed (random.Random is stable across
#: CPython versions for the draws the planner makes).
PLANTED_SEED = 0x5EED


class ReversedOrderChannel(AtomicChannel):
    """Planted bug: delivers agreed batches in reversed signer order."""

    def _deliver_round(self, r, batch, resolved):
        for signer, vector in sorted(resolved, key=lambda e: -e[0]):  # BUG
            for record in vector:
                self._deliver_record(record, r)
        self.rounds_completed += 1
        self._candidates.pop(r, None)
        self._emitted.discard(r)
        self._emitted_keys.pop(r, None)
        if len(self._close_origins) >= self.ctx.t + 1:
            self._closing = True
            self._abort_inflight()
            self._finish()
            return
        self.round = r + 1


def _buggy_atomic_scenario() -> ChannelScenario:
    return ChannelScenario(
        "atomic",
        channel_overrides={0: lambda party: ReversedOrderChannel(party.ctx, "atomic")},
    )


def test_safety_bug_is_caught_shrunk_and_replayable(group4):
    case = Case("fuzz", "atomic", seed=case_seed_for(PLANTED_SEED, "atomic", 4, 1, 0))
    result = run(case, scenario=_buggy_atomic_scenario(), group=group4)
    assert not result.ok
    assert "invariant violated" in result.error
    assert "total-order" in result.error

    # The bug is fault-independent, so shrinking must strip the entire
    # fault plan: the minimal counterexample is the bare seed.
    shrunk = shrink(result, scenario=_buggy_atomic_scenario(), group=group4)
    assert not shrunk.ok
    assert shrunk.case.keep == ()
    assert "--keep none" in shrunk.replay_command()
    assert hex(case.seed) in shrunk.replay_command()
    assert "FUZZ-REPRO" in shrunk.repro_line()

    # The repro line's (seed, keep) pair replays the exact failure.
    replay = run(shrunk.case, scenario=_buggy_atomic_scenario(), group=group4)
    assert (replay.ok, replay.error) == (shrunk.ok, shrunk.error)

    # Sanity: the same case on the unmodified protocol stays green.
    assert run(case, group=group4).ok


def plant_quorum_offbyone(monkeypatch) -> None:
    """Binary agreement waits for ``n - t + 1`` votes instead of ``n - t``."""
    monkeypatch.setattr(
        BinaryAgreement,
        "_quorum",
        property(lambda self: self.ctx.n - self.ctx.t + 1),  # BUG
    )


def test_quorum_offbyone_stalls_and_is_caught(group4, monkeypatch):
    # A crashed party never proposes in AgreementScenario, so with the
    # planted n - t + 1 quorum *any* crash starves the vote count and the
    # protocol stalls, whatever the crash time.
    seed = first_case(PLANTED_SEED, "binary", 4, 1, lambda p: any(d.kind == "crash" for d in p))
    case = Case("fuzz", "binary", seed=seed, time_limit=60.0)

    # Sanity first: with the correct n - t quorum the case passes.
    assert run(case, group=group4).ok

    plant_quorum_offbyone(monkeypatch)
    result = run(case, group=group4)
    assert not result.ok
    assert result.error.startswith("liveness")

    # Shrinking keeps the crash (the trigger) and discards the noise.
    shrunk = shrink(result, group=group4)
    assert not shrunk.ok
    kinds = [d.kind for d in shrunk.directives]
    assert kinds == ["crash"], f"expected the crash alone to survive, got {kinds}"

    replay = run(shrunk.case, group=group4)
    assert not replay.ok
    assert replay.error.startswith("liveness")
    assert "--keep" in shrunk.replay_command()
