"""Liveness failures leave a full protocol-state dump on disk.

``REPRO_FILE`` captures the one-line replay command; ``REPRO_DUMP_DIR``
captures what the line cannot: the watchdog's sentinel fingerprints and
failure-detector suspects at the moment of the stall, one timestamped
JSON artifact per failure — the file a CI run uploads so the stall is
diagnosable without replaying it.
"""

import json

import pytest

from repro.testing.case import Case, Result, report, run, write_dump
from repro.testing.schedule import Directive

#: the pinned t+1 doublevote livelock from test_bound_tightness — the
#: cheapest deterministic liveness failure the harness can produce.
EXTRA = (
    Directive("slow-link", (0, 1, 5.0)),
    Directive("slow-link", (1, 0, 5.0)),
)
COALITION = (2, 3)
LIVENESS_SEED = 0


@pytest.fixture(scope="module")
def liveness_failure(group4):
    result = run(
        Case(
            "adv", "binary", "doublevote", seed=LIVENESS_SEED,
            adversaries=COALITION, keep=(), extra=EXTRA, allow_excess=True,
            time_limit=10.0,
        ),
        group=group4,
    )
    assert not result.ok and result.kind == "liveness"
    assert result.dump  # the violation carries the watchdog's state
    return result


def test_dump_dir_unset_writes_nothing(liveness_failure, monkeypatch):
    monkeypatch.delenv("REPRO_DUMP_DIR", raising=False)
    assert write_dump(liveness_failure) is None


def test_liveness_failure_writes_timestamped_artifact(
    liveness_failure, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_DUMP_DIR", str(tmp_path / "dumps"))
    path = write_dump(liveness_failure)
    assert path is not None
    name = path.rsplit("/", 1)[-1]
    assert name.startswith("liveness-")
    assert "binary-doublevote-0x0" in name and name.endswith(".json")

    artifact = json.loads(open(path).read())
    assert artifact["kind"] == "liveness"
    assert artifact["adversaries"] == list(COALITION)
    assert artifact["replay"] == liveness_failure.replay_command()
    # the dump itself: sentinel fingerprints + detector suspicion (this
    # pinned case times out rather than stalls, so "stalled" is empty —
    # the per-sentinel fingerprints are the diagnosable payload)
    assert artifact["dump"]["sentinels"]
    assert "stalled" in artifact["dump"]
    assert "suspects" in artifact["dump"]


def test_colliding_names_get_serial_suffixes(
    liveness_failure, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_DUMP_DIR", str(tmp_path))
    first = write_dump(liveness_failure)
    second = write_dump(liveness_failure)
    assert first is not None and second is not None and first != second


def test_report_failures_links_the_artifacts(
    liveness_failure, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_DUMP_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_FILE", str(tmp_path / "repro.txt"))
    text = report([liveness_failure])
    assert "ADV-REPRO:" in text
    assert "state dump: " in text
    # the repro file carries the pointer too
    assert "state dump: " in open(tmp_path / "repro.txt").read()


def test_failures_without_dumps_are_skipped(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DUMP_DIR", str(tmp_path))
    safety = Result(
        case=Case("adv", "binary", "doublevote", seed=2, adversaries=COALITION),
        ok=False, kind="safety", error="agreement violated",
    )
    assert write_dump(safety) is None
