"""The case core shared by the fuzz, adversary and heal harnesses.

* Every harness's :class:`Case` survives the trip through its printed
  replay command, and re-running the parsed case gives an equal result.
* The three CLIs reject malformed input as a usage error (exit 2).
* Every ``replay:`` command documented in ``docs/*.md`` reproduces the
  exit status and error text the docs print next to it.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.testing.case import HARNESSES, Case, main, parse_argv, replay_command, run
from repro.testing.schedule import Directive

from tests.fuzz.test_planted_bug import plant_quorum_offbyone

ROUND_TRIP_CASES = [
    Case("fuzz", "binary", seed=0x51, keep=(0,), time_limit=60.0),
    Case(
        "adv", "binary", "doublevote", seed=2, adversaries=(2, 3), keep=(),
        extra=(
            Directive("slow-link", (0, 1, 5.0)),
            Directive("partition", ((0, 3), 2.5)),
        ),
        allow_excess=True, deadline=15.0, time_limit=10.0,
    ),
    Case("heal", "heal", "badshare", seed=0x1, adversaries=(2,)),
]


def _cli_args(command: str):
    """``(harness, argv)`` of a ``PYTHONPATH=src python -m <module> ...`` line."""
    words = shlex.split(command)
    module = words[words.index("-m") + 1]
    harness = {spec.module: name for name, spec in HARNESSES.items()}[module]
    return harness, words[words.index(module) + 1:]


@pytest.mark.parametrize("case", ROUND_TRIP_CASES, ids=lambda c: c.harness)
def test_case_round_trips_through_its_replay_line(case, group4):
    parsed, _ = parse_argv(*_cli_args(replay_command(case)))
    assert parsed == case
    result = run(case, group=group4)
    assert run(parsed, group=group4) == result
    # the result's case (adversaries resolved) round-trips as well
    assert parse_argv(*_cli_args(result.replay_command()))[0] == result.case


@pytest.mark.parametrize(
    "harness, argv",
    [
        ("fuzz", ["--scenario", "binary", "--n", "3", "--t", "1"]),
        ("fuzz", ["--scenario", "binary", "--t", "-1"]),
        ("fuzz", ["--scenario", "binary", "--case", "0x1", "--keep", "99"]),
        ("adv", ["--scenario", "binary", "--strategy", "silence", "--n", "3", "--t", "1"]),
        ("adv", ["--scenario", "binary", "--strategy", "silence", "--case", "0x1",
                 "--adversaries", "9"]),
        ("heal", ["--n", "3", "--t", "1"]),
        ("heal", ["--case", "0x1", "--victim", "9"]),
    ],
)
def test_bad_input_is_a_usage_error(harness, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(harness, argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_chaos_repro_names_this_test(chaos_repro, fuzz_seed, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FILE", str(tmp_path / "repro.txt"))
    chaos_repro()
    line = capsys.readouterr().out.strip()
    assert line == (
        "CHAOS-REPRO: PYTHONPATH=src python -m pytest "
        "tests/test_case_core.py::test_chaos_repro_names_this_test "
        f"--fuzz-seed={hex(fuzz_seed)}"
    )
    assert open(tmp_path / "repro.txt").read() == line + "\n"


# --- documented replay lines -------------------------------------------------------


def _documented_repros():
    """``(doc, tag, error, replay command)`` for each REPRO block in the docs."""
    found = []
    for path in sorted((Path(__file__).parent.parent / "docs").glob("*.md")):
        text = path.read_text()
        for m in re.finditer(
            r"^(\w+)-REPRO: (.*?)^\s*replay: ((?:[^\n]*\\\n)*[^\n]*)", text, re.M | re.S
        ):
            error = re.search(r"error=('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")", m.group(2))
            assert error, f"{path}: {m.group(1)}-REPRO block has no error= field"
            command = m.group(3).replace("\\\n", " ")
            found.append((path.name, m.group(1), ast.literal_eval(error.group(1)), command))
    return found


DOCUMENTED = _documented_repros()


def test_docs_document_fuzz_and_adversary_repros():
    assert {tag for _, tag, _, _ in DOCUMENTED} >= {"FUZZ", "ADV"}


@pytest.mark.parametrize(
    "doc, tag, error, command", DOCUMENTED, ids=[f"{d}:{t}" for d, t, _, _ in DOCUMENTED]
)
def test_documented_replay_reproduces(doc, tag, error, command, capsys, monkeypatch):
    harness, argv = _cli_args(command)
    if tag == "FUZZ":
        # docs/TESTING.md shows the planted quorum bug's counterexample,
        # which the real protocol passes
        assert main(harness, argv) == 0
        assert "OK:" in capsys.readouterr().out
        plant_quorum_offbyone(monkeypatch)
    assert main(harness, argv) == 1
    out = capsys.readouterr().out
    assert f"{tag}-REPRO:" in out and error in out
