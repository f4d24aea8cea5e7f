"""One case, replay line, shrinker and failure writer for every harness.

The fuzz (``python -m repro.testing.schedule``), adversary
(``python -m repro.adversary``) and heal (``python -m repro.heal``) CLIs
are front ends over :func:`main`.  A :class:`Case` names one
deterministic run and :func:`run` executes it:

* fuzz cases drive a scenario under a seed-derived fault plan whose
  ``compromise`` directives put a wire-level mutator on those parties;
* adversary cases keep the plan's scheduler-level chaos and run up to
  ``t`` replicas behind a seeded protocol-level strategy, watched by a
  liveness watchdog;
* heal cases run the closed loop of
  :func:`repro.heal.scenario.run_heal_case` (no plan, nothing to shrink).

:func:`case_argv` and :func:`parse_argv` are exact inverses, so the
``replay:`` command of a ``<TAG>-REPRO:`` line re-creates the very case
that failed.  :func:`report` appends repro lines to ``$REPRO_FILE`` and
writes every carried state dump as a JSON artifact under
``$REPRO_DUMP_DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adversary.context import infect
from repro.adversary.strategies import STRATEGIES, Strategy
from repro.adversary.watchdog import LivenessViolation, LivenessWatchdog, sentinel_for
from repro.common import rng as rng_mod
from repro.crypto.dealer import GroupConfig
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime
from repro.net.sim import SimError
from repro.obs.recorder import MemoryRecorder, Recorder
from repro.testing.invariants import InvariantViolation
from repro.testing.mutator import ByzantineMutator
from repro.testing.schedule import (
    SCENARIOS,
    Directive,
    Scenario,
    build_fault_plan,
    case_seed_for,
    default_group,
    make_scenario,
    plan_from_seed,
)

#: environment variable naming the file that collects every repro line
REPRO_FILE_ENV = "REPRO_FILE"
#: environment variable naming the directory for state-dump artifacts
REPRO_DUMP_DIR_ENV = "REPRO_DUMP_DIR"

#: fault-plan directive kinds adversary cases keep; the fuzzer's
#: crash/compromise budget is spent on protocol-level adversaries instead.
SCHED_KINDS = frozenset({"spike", "slow-link", "partition"})


@dataclass(frozen=True)
class HarnessSpec:
    """What differs between the harnesses besides the run itself."""

    tag: str
    module: str
    description: str
    deadline: Optional[float]  # liveness-watchdog deadline; fuzz has none
    time_limit: float
    root_seed: str
    iterations: int


HARNESSES: Dict[str, HarnessSpec] = {
    "fuzz": HarnessSpec(
        "FUZZ", "repro.testing.schedule",
        "Seeded schedule/Byzantine fuzzing for the SINTRA stack.", None, 300.0, "0", 10,
    ),
    "adv": HarnessSpec(
        "ADV", "repro.adversary",
        "Protocol-level Byzantine adversary campaigns for SINTRA.", 30.0, 300.0, "0", 5,
    ),
    "heal": HarnessSpec(
        "HEAL", "repro.heal",
        "Closed-loop intrusion-recovery campaigns for SINTRA.", 20.0, 2000.0, "0xc0ffee", 1,
    ),
}


@dataclass(frozen=True)
class Case:
    """Everything that determines one harness run.

    ``keep`` restricts the seed-derived fault plan to the given directive
    indices (``None`` keeps all of it); ``extra`` pins chaos outside the
    plan.  ``adversaries`` are the intruded replicas (``None``: derived
    from the seed); a heal case's victim is ``adversaries=(v,)``.
    ``deadline`` and ``time_limit`` of ``None`` mean the harness default.
    """

    harness: str
    scenario: str
    strategy: Optional[str] = None
    n: int = 4
    t: int = 1
    seed: int = 0
    keep: Optional[Tuple[int, ...]] = None
    extra: Tuple[Directive, ...] = ()
    adversaries: Optional[Tuple[int, ...]] = None
    allow_excess: bool = False
    deadline: Optional[float] = None
    time_limit: Optional[float] = None

    @property
    def spec(self) -> HarnessSpec:
        return HARNESSES[self.harness]

    def limits(self) -> Tuple[Optional[float], float]:
        """``(deadline, time_limit)`` with the harness defaults filled in."""
        spec = self.spec
        return (
            spec.deadline if self.deadline is None else self.deadline,
            spec.time_limit if self.time_limit is None else self.time_limit,
        )


@dataclass
class Result:
    """Outcome of one case, carrying everything needed to replay it.

    ``case`` is the case as run, adversaries resolved.  ``kind`` is
    ``"safety"`` (an invariant fired), ``"liveness"`` (a stall, or the
    simulator idling or timing out) or ``"acceptance"`` (a heal criterion
    missed).  ``dump`` is diagnostic state for an artifact file;
    ``details`` are the heal flags.
    """

    case: Case
    ok: bool = True
    kind: Optional[str] = None
    error: Optional[str] = None
    directives: List[Directive] = field(default_factory=list)
    plan_size: int = 0
    checks_run: int = 0
    shrink_runs: int = 0
    #: merged per-strategy action counters, e.g. ``{"split-pre-vote": 12}``
    actions: Dict[str, int] = field(default_factory=dict)
    dump: Dict[str, Any] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)

    def fail(self, kind: str, error: str, dump: Optional[Dict[str, Any]] = None) -> None:
        self.ok, self.kind, self.error = False, kind, error
        self.dump = dump if dump is not None else self.dump

    def summary(self) -> str:
        parts = [describe(self.case)]
        if self.case.harness != "heal":
            parts.append(f"faults=[{'; '.join(map(str, self.directives)) or 'no faults'}]")
        return " ".join(parts + [f"{k}={v}" for k, v in self.details.items()])

    def replay_command(self) -> str:
        return replay_command(self.case)

    def repro_line(self) -> str:
        return (
            f"{self.case.spec.tag}-REPRO: {self.summary()}"
            f" kind={self.kind} error={self.error!r}\n  replay: {self.replay_command()}"
        )


def describe(case: Case, with_seed: bool = True) -> str:
    """``scenario=... strategy=... n=... t=... case=...`` for one case."""
    parts = [] if case.harness == "heal" else [f"scenario={case.scenario}"]
    if case.strategy is not None:
        parts.append(f"strategy={case.strategy}")
    parts += [f"n={case.n}", f"t={case.t}"] + ([f"case={hex(case.seed)}"] if with_seed else [])
    if case.adversaries:
        if case.harness == "heal":
            parts.append(f"victim={case.adversaries[0]}")
        else:
            parts.append(f"adversaries={list(case.adversaries)}")
    return " ".join(parts)


# --- case <-> command line ----------------------------------------------------------


def format_directive(d: Directive) -> str:
    """Render a directive as an ``--extra`` spec (``slow-link:0,1,5.0``).

    Inverse of :func:`parse_directive`; partition sides join their party
    ids with ``+`` (``partition:0+1,2.0``) so the spec stays one
    shell-safe token.
    """
    parts = [
        "+".join(map(str, p)) if isinstance(p, (tuple, list)) else str(p)
        for p in d.params
    ]
    return f"{d.kind}:{','.join(parts)}"


def parse_directive(spec: str) -> Directive:
    """Parse an ``--extra`` spec back into a :class:`Directive`."""
    kind, _, rest = spec.partition(":")
    if kind not in SCHED_KINDS:
        raise ValueError(
            f"unknown extra-directive kind {kind!r} in {spec!r}; "
            f"expected one of {sorted(SCHED_KINDS)}"
        )
    try:
        if kind == "spike":
            prob, max_delay = rest.split(",")
            return Directive("spike", (float(prob), float(max_delay)))
        if kind == "slow-link":
            src, dst, delay = rest.split(",")
            return Directive("slow-link", (int(src), int(dst), float(delay)))
        side, heal_at = rest.split(",")
        return Directive(
            "partition",
            (tuple(int(p) for p in side.split("+")), float(heal_at)),
        )
    except ValueError as exc:
        raise ValueError(f"malformed extra-directive spec {spec!r}: {exc}")


def _ids(text: str) -> Tuple[int, ...]:
    """``"0,3"`` -> ``(0, 3)``; ``"none"`` (or empty) -> ``()``."""
    text = text.strip()
    return () if text in ("", "none") else tuple(int(p) for p in text.split(","))


def case_argv(case: Case) -> List[str]:
    """The CLI arguments that replay ``case``; inverse of :func:`parse_argv`."""
    argv = [] if case.harness == "heal" else ["--scenario", case.scenario]
    if case.strategy is not None:
        argv += ["--strategy", case.strategy]
    argv += ["--n", str(case.n), "--t", str(case.t), "--case", hex(case.seed)]
    if case.adversaries is not None:
        flag = "--victim" if case.harness == "heal" else "--adversaries"
        argv += [flag, ",".join(map(str, case.adversaries)) or "none"]
    if case.keep is not None:
        argv += ["--keep", ",".join(map(str, case.keep)) or "none"]
    for d in case.extra:
        argv += ["--extra", format_directive(d)]
    if case.allow_excess:
        argv.append("--allow-excess")
    if case.deadline is not None:
        argv += ["--deadline", repr(case.deadline)]
    if case.time_limit is not None:
        argv += ["--time-limit", repr(case.time_limit)]
    return argv


def replay_command(case: Case) -> str:
    return f"PYTHONPATH=src python -m {case.spec.module} {' '.join(case_argv(case))}"


def _build_parser(harness: str) -> argparse.ArgumentParser:
    """The harness's CLI; every :class:`Case` field is its own ``dest``."""
    spec = HARNESSES[harness]
    p = argparse.ArgumentParser(prog=f"python -m {spec.module}", description=spec.description)
    p.set_defaults(scenario="heal", strategy=None, adversaries=None, keep=None, extra=[],
                   allow_excess=False, deadline=None, no_shrink=False)
    if harness != "heal":
        p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS),
                       help="protocol workload to drive")
    if harness != "fuzz":
        p.add_argument("--strategy", required=harness == "adv",
                       default="doublevote" if harness == "heal" else None,
                       choices=sorted(STRATEGIES),
                       help="intrusion strategy the compromised replicas execute")
    p.add_argument("--n", type=int, default=4, help="group size")
    p.add_argument("--t", type=int, default=1, help="fault threshold")
    p.add_argument("--case", dest="seed", type=rng_mod.parse_seed, metavar="CASE",
                   help="replay exactly this case seed (int, hex, or arbitrary string)")
    if harness == "adv":
        p.add_argument("--adversaries", type=_ids,
                       help="comma-separated compromised party ids (default: seed-derived)")
        p.add_argument("--extra", action="append", type=parse_directive, metavar="KIND:PARAMS",
                       help="pinned chaos outside the seed-derived plan, e.g. slow-link:0,1,5.0 "
                       "spike:0.2,0.5 partition:0+1,2.0 (repeatable)")
        p.add_argument("--allow-excess", action="store_true",
                       help="permit more than t adversaries (bound-tightness replays)")
    if harness == "heal":
        p.add_argument("--victim", dest="adversaries", type=_ids, metavar="VICTIM",
                       help="pin the compromised slot (default: derived from the case seed)")
        p.add_argument("--bench-name", help="override the exported BENCH record name")
    else:
        p.add_argument("--keep", type=_ids,
                       help="comma-separated fault-directive indices to keep ('none' = all off)")
        p.add_argument("--no-shrink", action="store_true", help="report failures unshrunk")
    p.add_argument("--seed", dest="root_seed", default=spec.root_seed, metavar="SEED",
                   help="campaign root seed (with --iterations)")
    p.add_argument("--iterations", type=int, default=spec.iterations, help="cases per campaign")
    if spec.deadline is not None:
        p.add_argument("--deadline", type=float,
                       help=f"liveness-watchdog deadline, simulated s (default {spec.deadline})")
    p.add_argument("--time-limit", type=float,
                   help=f"simulated-seconds budget per case (default {spec.time_limit})")
    return p


def parse_argv(
    harness: str, argv: Optional[Sequence[str]] = None
) -> Tuple[Case, argparse.Namespace]:
    """Parse a harness command line into its :class:`Case` (seed 0 when
    no ``--case`` is given) plus the campaign options; malformed input
    is a usage error (exit 2)."""
    parser = _build_parser(harness)
    args = parser.parse_args(argv)
    values = dict(vars(args), harness=harness, seed=args.seed or 0, extra=tuple(args.extra))
    case = Case(**{f.name: values[f.name] for f in fields(Case)})
    try:
        if args.seed is None and case.keep is not None:
            raise ValueError("--keep selects directives of one case; pass --case")
        check(case)
    except ValueError as exc:
        parser.error(str(exc))
    return case, args


# --- running one case ---------------------------------------------------------------


def _plan(case: Case) -> List[Directive]:
    """The case's full seed-derived fault plan (before ``keep``)."""
    if case.harness == "heal":
        return []
    plan = plan_from_seed(case.seed, case.n, case.t)
    return [d for d in plan if d.kind in SCHED_KINDS] if case.harness == "adv" else plan


def check(case: Case) -> None:
    """Reject (``ValueError``) a case that cannot run, before anything is built."""
    if case.harness not in HARNESSES:
        raise ValueError(f"unknown harness {case.harness!r}; choose from {sorted(HARNESSES)}")
    if case.harness != "fuzz" and case.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {case.strategy!r}; choose from {sorted(STRATEGIES)}")
    if not case.n > 3 * case.t >= 0:
        raise ValueError(f"SINTRA requires n > 3t >= 0 (got n={case.n}, t={case.t})")
    advs = sorted(set(case.adversaries or ()))
    if any(not 0 <= a < case.n for a in advs):
        raise ValueError(f"adversary ids {advs} out of range for n={case.n}")
    if len(advs) > case.t and not case.allow_excess:
        raise ValueError(
            f"{len(advs)} adversaries exceeds t={case.t}; pass allow_excess=True "
            "only to demonstrate bound tightness"
        )
    size = len(_plan(case))
    bad = [i for i in case.keep or () if not 0 <= i < size]
    if bad:
        raise ValueError(
            f"keep indices {bad} out of range: case {hex(case.seed)} plans "
            f"{size} fault directives"
        )


def run(
    case: Case,
    *,
    scenario: Optional[Scenario] = None,
    group: Optional[GroupConfig] = None,
    recorder: Optional[Recorder] = None,
) -> Result:
    """Execute one case; deterministic in all arguments.

    ``scenario`` replaces the workload named by ``case.scenario`` (the
    planted-bug tests pass a scenario with an infected replica).
    """
    check(case)
    if case.harness == "heal":
        from repro.heal.scenario import run_heal_case

        with tempfile.TemporaryDirectory(prefix="repro-heal-") as workdir:
            return run_heal_case(case, workdir, group=group, recorder=recorder)
    scenario = scenario or make_scenario(case.scenario)
    group = group or default_group(case.n, case.t)
    deadline, time_limit = case.limits()
    adversarial = case.harness == "adv"
    advs: List[int] = []
    if adversarial:  # the colluding set; t seed-derived parties by default
        advs = sorted(
            set(case.adversaries) if case.adversaries is not None
            else rng_mod.derive(case.seed, "adversaries").sample(range(case.n), case.t)
        )
        case = replace(case, adversaries=tuple(advs))
    plan = _plan(case)
    kept = range(len(plan)) if case.keep is None else case.keep
    directives = [plan[i] for i in kept] + list(case.extra)
    faults, compromised = build_fault_plan(directives)
    runtime = SimRuntime(
        group,
        latency=lan_latency(),
        seed=(case.harness, case.seed),
        faults=faults,
        recorder=recorder,
    )
    if compromised:
        factory = scenario.mutator_factory or ByzantineMutator
        runtime.wire_taps.append(factory(
            group, compromised, rng_mod.derive(case.seed, "mutator"), recorder=runtime.obs,
        ))
    strategies: List[Strategy] = []
    if adversarial:
        # Intruded replicas run their whole stack behind the strategy, so
        # they are infected before the scenario builds protocol instances.
        assert case.strategy is not None
        strategies = infect(runtime, case.strategy, case.seed, advs)
    setup = scenario.setup(
        runtime, group,
        crashed={c.victim for c in faults.crashes},
        compromised=compromised | set(advs),
    )
    setup.suite.attach(runtime)
    watchdog: Optional[LivenessWatchdog] = None
    if adversarial:
        assert deadline is not None
        watchdog = LivenessWatchdog(deadline=deadline, recorder=runtime.obs)
        for i in sorted(setup.probes):
            if i not in advs:  # an adversary's own stack may legitimately stall
                watchdog.watch(sentinel_for(f"{scenario.name}[{i}]", i, setup.probes[i]))
        watchdog.attach(runtime)
        watchdog.arm()
    result = Result(case=case, directives=directives, plan_size=len(plan))
    try:
        for fut in setup.futures:
            runtime.run_until(fut, limit=time_limit)
        setup.suite.finalize()
    except InvariantViolation as exc:
        result.fail("safety", f"invariant violated: {exc}")
    except LivenessViolation as exc:
        result.fail("liveness", f"liveness violated: {exc.detail}", exc.dump)
    except SimError as exc:
        if watchdog is None:
            result.fail("liveness", f"liveness: {exc}")
        else:
            # The simulator died before a watchdog deadline fired (idle
            # with no pending events, or over the time limit): same
            # liveness bug, wrapped so it still carries the state dump.
            violation = watchdog.diagnose(str(exc))
            result.fail("liveness", f"liveness violated: {violation.detail}", violation.dump)
    result.checks_run = setup.suite.checks_run
    for strategy in strategies:
        for action, count in strategy.actions.items():
            result.actions[action] = result.actions.get(action, 0) + count
    return result


# --- shrinking and campaigns --------------------------------------------------------


def shrink(
    first: Result,
    *,
    scenario: Optional[Scenario] = None,
    group: Optional[GroupConfig] = None,
    max_runs: int = 60,
) -> Result:
    """Minimize the fault plan of a failing case.

    Removing directives leaves the rest of a run deterministic (every
    random stream is derived from the case seed by label), so a subset
    of the plan either still fails or it does not, repeatably.  The
    shrinker chops ever smaller chunks off the kept directives, then
    sweeps single ones until none can go (1-minimal), within ``max_runs``
    re-runs.  A candidate counts only if it fails with the same
    ``kind``.  Pinned ``extra`` chaos and the adversaries never shrink.
    """
    if first.ok or first.case.harness == "heal":
        return first
    best = first
    kept = list(range(first.plan_size)) if first.case.keep is None else list(first.case.keep)
    runs = 0

    def attempt(subset: List[int]) -> bool:
        nonlocal best, runs
        runs += 1
        candidate = run(replace(first.case, keep=tuple(subset)), scenario=scenario, group=group)
        if candidate.ok or candidate.kind != first.kind:
            return False
        best = candidate
        return True

    # Phase 1: binary chop — try dropping large chunks first.
    chunk = max(1, len(kept) // 2)
    while chunk >= 1 and runs < max_runs:
        removed_any = False
        start = 0
        while start < len(kept) and runs < max_runs:
            trial = kept[:start] + kept[start + chunk:]
            if attempt(trial):
                kept = trial
                removed_any = True  # same start now points at fresh indices
            else:
                start += chunk
        if not removed_any or chunk == 1:
            chunk //= 2

    # Phase 2: 1-minimality sweep (mostly a no-op after phase 1).
    improved = True
    while improved and runs < max_runs:
        improved = False
        for i in range(len(kept)):
            trial = kept[:i] + kept[i + 1:]
            if attempt(trial):
                kept = trial
                improved = True
                break
            if runs >= max_runs:
                break

    best.shrink_runs = runs
    return best


def case_seed(template: Case, root_seed: int, i: int) -> int:
    """The i-th case seed of a campaign (stable across versions)."""
    c = template
    if c.harness == "fuzz":
        return case_seed_for(root_seed, c.scenario, c.n, c.t, i)
    if c.harness == "adv":
        return rng_mod.derive_int(root_seed, "adv-case", c.scenario, c.strategy, c.n, c.t, i)
    return rng_mod.derive(root_seed, "heal", i).getrandbits(32)


def campaign(
    template: Case,
    root_seed: int,
    iterations: int,
    *,
    shrink_failures: bool = True,
    fail_fast: bool = True,
    scenario: Optional[Scenario] = None,
    group: Optional[GroupConfig] = None,
    recorder: Optional[Recorder] = None,
) -> List[Result]:
    """Run ``iterations`` seeded variants of ``template``; returns every
    result, failures shrunk, stopping after the first with ``fail_fast``."""
    results: List[Result] = []
    for i in range(iterations):
        case = replace(template, seed=case_seed(template, root_seed, i))
        result = run(case, scenario=scenario, group=group, recorder=recorder)
        if not result.ok and shrink_failures:
            result = shrink(result, scenario=scenario, group=group)
        results.append(result)
        if not result.ok and fail_fast:
            break
    return results


# --- the failure writer -------------------------------------------------------------


def write_repro(lines: Sequence[str]) -> str:
    """Join ``lines``; also append them to ``$REPRO_FILE`` when set —
    the file CI uploads as the artifact of a failing job."""
    text = "\n".join(lines)
    path = os.environ.get(REPRO_FILE_ENV)
    if path and lines:
        with open(path, "a") as f:
            f.write(text + "\n")
    return text


def write_dump(result: Result) -> Optional[str]:
    """Write ``result.dump`` as a timestamped JSON artifact under
    ``$REPRO_DUMP_DIR``; returns its path, or ``None`` when the variable
    is unset or there is no dump."""
    dump_dir = os.environ.get(REPRO_DUMP_DIR_ENV)
    if not dump_dir or not result.dump:
        return None
    os.makedirs(dump_dir, exist_ok=True)
    c, now = result.case, datetime.now(timezone.utc)
    stamp = now.strftime("%Y%m%dT%H%M%S")
    parts = (result.kind, stamp, c.scenario, c.strategy, hex(c.seed))
    base = "-".join(str(part) for part in parts if part is not None)
    path = os.path.join(dump_dir, f"{base}.json")
    serial = 1
    while os.path.exists(path):
        path = os.path.join(dump_dir, f"{base}-{serial}.json")
        serial += 1
    artifact = dict(
        asdict(c), seed=hex(c.seed), written_at=now.isoformat(), kind=result.kind,
        error=result.error, replay=result.replay_command(), dump=result.dump,
    )
    with open(path, "w") as f:
        json.dump(artifact, f, indent=2, sort_keys=True, default=repr)
        f.write("\n")
    return path


def report(results: Sequence[Result]) -> str:
    """Repro lines of the failing ``results``, each followed by its state
    dump's path when one was written; recorded via :func:`write_repro`."""
    lines: List[str] = []
    for result in results:
        if not result.ok:
            lines.append(result.repro_line())
            path = write_dump(result)
            if path:
                lines.append(f"  state dump: {path}")
    return write_repro(lines)


# --- the CLI ------------------------------------------------------------------------


def _export_heal_bench(
    args: argparse.Namespace, template: Case, results: List[Result], recorder: Recorder
) -> None:
    from repro.obs.export import bench_dir_from_env, make_record, write_record

    bench_dir = bench_dir_from_env()
    if not bench_dir:
        return
    failures = sum(1 for r in results if not r.ok)
    replaced = sum(1 for r in results if r.details.get("replaced"))
    record = make_record(
        args.bench_name or f"heal-{template.strategy}-n{template.n}t{template.t}",
        experiment="heal-campaign",
        meta={"strategy": template.strategy, "n": template.n, "t": template.t,
              "cases": [hex(r.case.seed) for r in results]},
        metrics={"cases": float(len(results)), "failures": float(failures),
                 "replaced": float(replaced)},
        recorder=recorder,
        outcome="ok" if not failures else "fail",
    )
    print(f"bench record: {write_record(bench_dir, record)}")


def main(harness: str, argv: Optional[Sequence[str]] = None) -> int:
    """Replay one case (``--case``) or run a seeded campaign.

    Prints one status line per case, then exits 0 if every case passed
    and 1 with the failures' repro lines otherwise (2 on a usage error).
    Heal campaigns run every case and export a BENCH record when
    ``REPRO_BENCH_DIR`` is set.
    """
    template, args = parse_argv(harness, argv)
    recorder = MemoryRecorder() if harness == "heal" else None
    summary = describe(template, with_seed=args.seed is not None)
    if args.seed is not None:
        results = [run(template, recorder=recorder)]
    else:
        root_seed = rng_mod.parse_seed(args.root_seed)
        summary += f" seed={hex(root_seed)}"
        results = campaign(
            template, root_seed, args.iterations, shrink_failures=not args.no_shrink,
            fail_fast=harness != "heal", recorder=recorder,
        )
    for r in results:
        actions = ", ".join(f"{k}={v}" for k, v in sorted(r.actions.items()))
        sweeps = f" ({r.checks_run} invariant sweeps{f', actions=[{actions}]' if actions else ''})"
        print(f"[{'ok' if r.ok else 'FAIL'}] {r.summary()}{'' if harness == 'heal' else sweeps}")
    if recorder is not None:
        _export_heal_bench(args, template, results, recorder)
    if not all(r.ok for r in results):
        print(report(results))
        return 1
    print(f"OK: {len(results)} case(s) of {summary}")
    return 0
