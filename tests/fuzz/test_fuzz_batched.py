"""Fuzz-tier coverage for the batched + pipelined atomic channel.

The ``batched`` and ``offload`` scenarios run the atomic channel with
``max_batch=4, pipeline_depth=2`` (the latter with payload offloading),
under the full adversarial envelope: schedule exploration, crashes,
partitions and wire-mutating compromised parties.  Compromised traffic
goes through :class:`~repro.testing.mutator.BatchFrameMutator`, which
targets the batched wire frames specifically — malformed vectors,
duplicate payloads inside a batch, cross-round splices — on top of the
generic equivocation/replay arsenal.

A planted batch-sub-order bug shows the tier has teeth: it must be
detected by the total-order invariant, shrunk to the bare seed, and
replayable from the reported ``FUZZ-REPRO`` line.
"""

from __future__ import annotations

import pytest

from repro.common import rng as rng_mod
from repro.common.encoding import decode, encode
from repro.core.channel.atomic import AtomicChannel
from repro.testing import (
    BatchFrameMutator,
    Case,
    ChannelScenario,
    campaign,
    make_scenario,
    report,
    run,
    shrink,
)

from tests.helpers import first_case

BATCHED_KINDS = ("batched", "offload")

#: Fixed root seed for the deterministic (non-campaign) tests below.
BATCH_SEED = 0xBA7C


# --- campaigns ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_fuzz_batched_n4(kind, group4, fuzz_seed, fuzz_iterations):
    results = campaign(Case("fuzz", kind), fuzz_seed, fuzz_iterations, group=group4)
    assert all(r.ok for r in results), "\n" + report(results)


@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_fuzz_batched_n7(kind, group7, fuzz_seed, fuzz_iterations):
    results = campaign(Case("fuzz", kind, n=7, t=2), fuzz_seed, fuzz_iterations, group=group7)
    assert all(r.ok for r in results), "\n" + report(results)


def test_batched_scenarios_install_batch_mutator():
    for kind in BATCHED_KINDS:
        scenario = make_scenario(kind)
        assert scenario.mutator_factory is BatchFrameMutator
    # The plain channels keep the generic mutator (factory unset).
    assert make_scenario("atomic").mutator_factory is None


@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_batched_survives_compromised_party(kind, group4):
    # a plan that compromises a party puts the batch-frame mutator on the wire
    seed = first_case(BATCH_SEED, kind, 4, 1, lambda p: any(d.kind == "compromise" for d in p))
    result = run(Case("fuzz", kind, seed=seed), group=group4)
    assert result.ok, result.error


# --- the mutator really targets batch frames ----------------------------------------


def _record(origin: int, seq: int) -> tuple:
    return (origin, seq, 0, encode(("payload", origin, seq)))


def test_batch_frame_mutator_produces_batch_shapes(group4):
    mutator = BatchFrameMutator(
        group4, {0}, rng_mod.derive(BATCH_SEED, "unit-mutator")
    )
    vector = [_record(0, k) for k in range(4)]
    body = encode(("chan", "queue", (3, tuple(vector), b"sig")))
    shapes = set()
    for _ in range(300):
        out = mutator._mutate_body(body)
        if out is None:
            continue
        _pid, mtype, payload = decode(out)
        if mtype != "queue" or len(payload) != 3:
            shapes.add("reshaped")
            continue
        r, vec, _sig = payload
        if r != 3:
            shapes.add("round-spliced")
        if not vec:
            shapes.add("emptied")
        elif len(vec) > len(vector):
            shapes.add("grown")
        elif len(vec) < len(vector):
            shapes.add("truncated")
        keys = [
            (rec[0], rec[1])
            for rec in vec
            if isinstance(rec, tuple)
            and len(rec) == 4
            and isinstance(rec[0], int)
            and isinstance(rec[1], int)
        ]
        if len(keys) != len(set(keys)):
            shapes.add("duplicate-payload")
        if len(keys) < len(vec):
            shapes.add("malformed-record")
    assert {
        "round-spliced",
        "emptied",
        "grown",
        "truncated",
        "duplicate-payload",
        "malformed-record",
    } <= shapes, f"missing batch mutation shapes, saw {sorted(shapes)}"
    assert mutator.actions.get("batch-frame", 0) > 0


def test_batch_frame_mutator_falls_back_on_other_frames(group4):
    mutator = BatchFrameMutator(
        group4, {0}, rng_mod.derive(BATCH_SEED, "unit-fallback")
    )
    # A non-channel frame type: must take the generic mutation path.
    body = encode(("chan", "vote", (2, True, b"closing")))
    outs = [mutator._mutate_body(body) for _ in range(50)]
    assert any(o is not None and o != body for o in outs)
    assert mutator.actions.get("batch-frame", 0) == 0


# --- planted batch-sub-order bug ----------------------------------------------------


class ReversedVectorChannel(AtomicChannel):
    """Planted bug: delivers every agreed vector back to front.

    Batching introduces *sub-sequencing* inside an agreement round — each
    signer's vector must be delivered front to back on every replica.
    This channel breaks exactly that, leaving round-level ordering intact,
    so only the batched tier can catch it.
    """

    def _deliver_round(self, r, batch, resolved):
        reversed_vectors = [
            (signer, list(reversed(vector))) for signer, vector in resolved
        ]
        super()._deliver_round(r, batch, reversed_vectors)


def _buggy_batched_scenario() -> ChannelScenario:
    return ChannelScenario(
        "batched",
        messages_per_party=4,
        channel_overrides={
            0: lambda party: ReversedVectorChannel(
                party.ctx, "batched", max_batch=4, pipeline_depth=2
            )
        },
    )


def test_batch_suborder_bug_is_caught_shrunk_and_replayable(group4):
    # the infected replica 0 must stay honest and alive, inside the
    # invariant's checked set
    seed = first_case(BATCH_SEED, "batched", 4, 1, lambda p: not any(
        d.kind in ("crash", "compromise") and d.params[0] == 0 for d in p
    ))
    case = Case("fuzz", "batched", seed=seed)
    result = run(case, scenario=_buggy_batched_scenario(), group=group4)
    assert not result.ok
    assert "invariant violated" in result.error
    assert "total-order" in result.error

    # Batching happens with no faults at all (later submissions queue
    # behind the in-flight round), so the bug is fault-independent and the
    # shrunk counterexample is the bare seed.
    shrunk = shrink(result, scenario=_buggy_batched_scenario(), group=group4)
    assert not shrunk.ok
    assert shrunk.case.keep == ()
    assert "FUZZ-REPRO" in shrunk.repro_line()
    assert hex(case.seed) in shrunk.replay_command()

    replay = run(shrunk.case, scenario=_buggy_batched_scenario(), group=group4)
    assert (replay.ok, replay.error) == (shrunk.ok, shrunk.error)

    # Sanity: the unmodified batched channel passes the same case.
    assert run(case, group=group4).ok
