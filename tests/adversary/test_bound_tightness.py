"""The n > 3t resilience bound is *tight* for the shipped attack strategies.

Two halves of the same demonstration, pinned to exact seeds:

* at exactly ``t`` intrusions the double-vote coalition achieves nothing —
  every honest party decides, identically, under the same network
  conditions;
* at ``t + 1`` intrusions (``--allow-excess``) the very same strategy
  breaks the protocol: one pinned seed yields a **safety** violation
  (honest parties decide different values), the others a **liveness**
  violation (the coalition livelocks the honest pair indefinitely).

The coalition holds ``n - t - 1 = 2`` of the ``k = n - t = 3`` required
signature shares, so hoarding the honest parties' broadcast shares lets it
assemble threshold justifications for *both* values and drive the two
honest parties down different decision paths across a slow link.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.testing.case import Case, main, run, shrink
from repro.testing.schedule import Directive

#: a symmetric slow link separating the honest pair {0, 1}; every case in
#: this module runs under it so the t vs. t+1 comparison is apples to apples.
EXTRA = (
    Directive("slow-link", (0, 1, 5.0)),
    Directive("slow-link", (1, 0, 5.0)),
)

#: the pinned t+1 coalition and the seed whose honest proposals diverge
#: (0 proposes one bit, 1 the other) — the precondition for a split decision.
COALITION = (2, 3)
SAFETY_SEED = 2
LIVENESS_SEED = 0

#: the t+1 coalition's case under the pinned slow links, bare of any
#: seed-derived chaos
SAFETY_CASE = Case(
    "adv", "binary", "doublevote", seed=SAFETY_SEED,
    adversaries=COALITION, keep=(), extra=EXTRA, allow_excess=True,
)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("adversary", [2, 3])
def test_exactly_t_doublevote_is_absorbed(adversary, seed, group4):
    """Each coalition member *alone* (exactly t) is harmless under the
    identical network conditions that doom the t+1 runs below."""
    case = Case(
        "adv", "binary", "doublevote", seed=seed,
        adversaries=(adversary,), keep=(), extra=EXTRA,
    )
    result = run(case, group=group4)
    assert result.ok, result.repro_line()


def test_t_plus_one_doublevote_breaks_safety(group4):
    result = run(SAFETY_CASE, group=group4)
    assert not result.ok
    assert result.kind == "safety"
    assert "decided differently" in result.error
    line = result.repro_line()
    assert "ADV-REPRO" in line and "--allow-excess" in line
    assert "--extra slow-link:0,1,5.0 --extra slow-link:1,0,5.0" in line


def test_safety_repro_line_replays_via_cli(group4, capsys):
    """Pasting the printed replay command reproduces the exact failure —
    the pinned slow links travel with it as ``--extra`` specs."""
    result = run(SAFETY_CASE, group=group4)
    argv = result.replay_command().split()
    argv = argv[argv.index("repro.adversary") + 1:]
    assert main("adv", argv) == 1
    out = capsys.readouterr().out
    assert "ADV-REPRO" in out and "decided differently" in out


def test_t_plus_one_doublevote_breaks_liveness(group4):
    """Seeds where the honest proposals agree livelock instead: the
    coalition keeps both values viable forever, so rounds spin without a
    decision until the simulated-time budget trips."""
    case = replace(SAFETY_CASE, seed=LIVENESS_SEED, time_limit=10.0)
    result = run(case, group=group4)
    assert not result.ok
    assert result.kind == "liveness"
    assert result.error


def test_safety_break_is_deterministic(group4):
    runs = [run(SAFETY_CASE, group=group4) for _ in range(2)]
    assert runs[0].error == runs[1].error
    assert runs[0].kind == runs[1].kind == "safety"


def test_shrink_discards_superfluous_chaos(group4):
    """The safety break needs none of the seed-derived chaos plan — only
    the pinned slow links — so the shrinker reduces ``kept`` to empty and
    the failure survives, same kind, same error."""
    case = replace(SAFETY_CASE, keep=None, time_limit=10.0)
    first = run(case, group=group4)
    assert not first.ok and first.kind == "safety"
    assert first.plan_size > 0  # there is chaos to discard
    shrunk = shrink(first, group=group4)
    assert not shrunk.ok
    assert shrunk.kind == first.kind
    assert len(shrunk.case.keep) < shrunk.plan_size
    assert shrunk.case.keep == ()
    # the plan holds one directive: the first binary chop drops all of it
    assert shrunk.shrink_runs == 1
    assert "--keep none" in shrunk.replay_command()
