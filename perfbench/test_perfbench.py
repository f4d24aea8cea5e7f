"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q

They pin the benchmark to the repository's CI gate (``fig4-lan`` and
``burst-lan`` reproduce ``benchmarks/baseline.json`` at its seeds), check
that the simulated clock repeats exactly for a seed and is untouched by
tracing, and smoke-test the command line contract of ``run.py``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SIM_WORKLOADS = ("fig4-lan", "burst-lan", "byz-burst")


def baseline(name):
    with open(os.path.join(ROOT, "benchmarks", "baseline.json")) as fh:
        return json.load(fh)["benches"][name]["metrics"]


def test_fig4_reproduces_the_committed_baseline():
    out = workloads.Outcome()
    result = workloads.fig4_iteration(out, 44, 72)
    expected = baseline("fig4-LAN")
    assert not out.errors
    assert result.sim_seconds == pytest.approx(expected["sim_seconds"], rel=1e-12)
    assert result.mean_delivery_s == pytest.approx(expected["mean_delivery_s"], rel=1e-12)
    assert result.messages_sent == expected["messages_sent"]
    assert result.bytes_sent == expected["bytes_sent"]


def test_burst_reproduces_the_committed_baseline():
    out = workloads.Outcome()
    elapsed = workloads.burst_iteration(out, 47, [b"inc"] * 96)
    assert not out.errors
    assert out.ops == 96
    assert elapsed == pytest.approx(baseline("bench-throughput")["burst_elapsed_s"], rel=1e-12)


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_sim_clock_repeats_for_a_seed_and_ignores_tracing(name):
    untraced = run.run_workload(name, 5, 0.5, trace=False)
    first = run.run_workload(name, 5, 0.5, trace=True)
    second = run.run_workload(name, 5, 0.5, trace=True)
    # A traced run fails its check if tracing moved any sim-clock result.
    errors = untraced["errors"] + first["errors"] + second["errors"]
    assert untraced["correct"] and first["correct"] and second["correct"], errors
    assert untraced["fingerprint"] == first["fingerprint"] == second["fingerprint"]
    assert first["per_layer"]["sim.ops_per_s"] == untraced["e2e"]["sim_ops_per_s"]
    for key in ("opcount.modexp", "atomic.rounds", "sim.msgs_per_op", "sim.bytes_per_op",
                "sim.ops_per_s"):
        assert first["per_layer"][key] == second["per_layer"][key], key
        assert first["per_layer"][key] > 0, key
    if name != "byz-burst":
        assert first["per_layer"]["router.handler_errors"] == 0
    else:
        assert first["per_layer"]["adversary.actions"] > 0


def test_another_seed_changes_the_inputs():
    seeds = {workloads.iteration_seed(seed, "burst-lan", 0) for seed in (1, 2)}
    assert len(seeds) == 2
    assert workloads.burst_commands(1, 8) != workloads.burst_commands(2, 8)
    assert workloads.tcp_payloads(1, 8) != workloads.tcp_payloads(2, 8)
    one = run.run_workload("burst-lan", 1, 0.5, trace=False)
    two = run.run_workload("burst-lan", 2, 0.5, trace=False)
    assert one["fingerprint"] != two["fingerprint"]


def test_a_failed_check_fails_every_op_and_the_command(monkeypatch, capsys):
    steps = itertools.count(1)

    def diverging_apply(self, command):
        # Each replica's state machine counts in its own step.
        self.step = getattr(self, "step", None) or next(steps)
        self.value += self.step
        return str(self.value).encode()

    monkeypatch.setattr(workloads.Tally, "apply", diverging_apply)
    report = run.run_workload("burst-lan", 1, 0.5, trace=False)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] > 0
    assert run.main(["--workload", "burst-lan", "--seconds", "0.5", "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_line_contract(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else layers.PER_LAYER
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == list(expected)
    if trace == "0":
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "burst-lan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
