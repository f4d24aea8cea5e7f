"""Safety and liveness of every shipped strategy at exactly ``t`` intrusions.

The acceptance bar for the adversary framework: with ``t`` Byzantine
replicas running each cataloged strategy under pinned seeds, no safety
invariant fires, all honest replicas decide/deliver identically (the
scenarios' invariant suites check exactly that), and every run
terminates — ``result.ok`` asserts all three at once, since a hang would
surface as a typed ``LivenessViolation`` or simulator timeout and fail
the case.
"""

from __future__ import annotations

import pytest

from repro.adversary import STRATEGIES, make_strategy
from repro.obs.recorder import MemoryRecorder
from repro.testing.case import Case, main, run

#: three pinned case seeds per strategy (acceptance criterion: >= 3)
PINNED_SEEDS = [0x51, 0xA7, 0x1234]

ALL_STRATEGIES = sorted(STRATEGIES)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_binary_agreement_absorbs_t_adversaries(strategy, seed, group4):
    result = run(Case("adv", "binary", strategy, seed=seed), group=group4)
    assert result.ok, result.repro_line()
    assert result.checks_run > 0


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_atomic_channel_absorbs_t_adversaries(strategy, group4):
    result = run(Case("adv", "atomic", strategy, seed=0x1234), group=group4)
    assert result.ok, result.repro_line()


@pytest.mark.parametrize("strategy", ["doublevote", "badshare", "forgecert"])
def test_mvba_absorbs_t_adversaries(strategy, group4):
    result = run(Case("adv", "mvba", strategy, seed=0x1234), group=group4)
    assert result.ok, result.repro_line()


@pytest.mark.parametrize("strategy", ["silence", "withhold", "equivocate", "replay"])
def test_secure_channel_absorbs_t_adversaries(strategy, group4):
    result = run(Case("adv", "secure", strategy, seed=0x1234), group=group4)
    assert result.ok, result.repro_line()


def test_strategies_actually_act(group4):
    """Every strategy's action counters are non-zero on a busy scenario —
    a do-nothing strategy would vacuously pass the safety tests."""
    expected = {
        "silence": "dropped",
        "withhold": "withheld",
        "badshare": "flipped",
        "equivocate": "spliced",
        "replay": "replayed",
        "forgecert": "forged",
        "doublevote": "split-pre-vote",
    }
    for strategy, action in expected.items():
        result = run(Case("adv", "atomic", strategy, seed=0x1234), group=group4)
        assert result.actions.get(action, 0) > 0, (strategy, result.actions)


def test_strategy_actions_surface_as_obs_counters(group4):
    recorder = MemoryRecorder()
    result = run(
        Case("adv", "binary", "silence", seed=0x1234), group=group4, recorder=recorder
    )
    assert result.ok
    counters = recorder.snapshot()["counters"]
    assert counters.get("adversary.silence.dropped", 0) > 0


def test_replay_is_deterministic(group4):
    first = run(Case("adv", "binary", "doublevote", seed=0x51), group=group4)
    second = run(Case("adv", "binary", "doublevote", seed=0x51), group=group4)
    assert first.ok == second.ok
    assert first.actions == second.actions
    assert first.case.adversaries == second.case.adversaries
    assert first.directives == second.directives


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("no-such-strategy")


def test_excess_adversaries_rejected_by_default(group4):
    with pytest.raises(ValueError, match="exceeds t"):
        run(Case("adv", "binary", "silence", adversaries=(1, 2)), group=group4)


def test_cli_replays_a_case(capsys, group4):
    code = main(
        "adv",
        [
            "--scenario", "binary", "--strategy", "withhold",
            "--n", "4", "--t", "1", "--case", "0x51",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK:" in out and "strategy=withhold" in out
