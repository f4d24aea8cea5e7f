"""The benchmark's four workloads, each driven through the program's public API.

Every workload turns a seed into inputs, runs a fixed amount of work for
it (the number of iterations or sends follows from ``--seconds`` alone, so
two runs with the same arguments do the same work on any machine) and
checks the outputs.  A pass returns an :class:`Outcome`; ``run.py`` turns
it into metrics.

* ``fig4-lan`` -- the paper's Figure 4 run (``run_channel_experiment`` on
  ``LAN_SETUP``, atomic channel, senders P0/P2/P3, all payloads queued at
  t=0, ``SecurityParams.small()``).  Crypto-bound.
* ``burst-lan`` -- the ``bench-throughput`` configuration: four
  ``SimClientNetwork`` clients burst requests through ``RequestServer``
  and ``DedupStateMachine`` into a batched, pipelined atomic channel.
  Encoding-bound.
* ``tcp-open`` -- the atomic channel over four loopback ``TcpNode``s on one
  asyncio loop, fed open-loop at a fixed rate.  The only wall-clock
  end-to-end workload, and the only one that exercises ``net.tcp``.
* ``byz-burst`` -- ``burst-lan`` with replica 3 running the ``doublevote``
  intrusion strategy behind an ``AdversarialContext``.

Measurement hooks never schedule simulator events, so they leave every
simulated-clock figure unchanged: delivery times are taken, and the CPU's
speed probed (:class:`SpeedMeter`), by wrapping the measuring replica's
output queue ``put`` and each client's ``on_reply`` on the instance.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adversary import AdversarialContext, make_strategy
from repro.app.replication import ReplicatedService, StateMachine
from repro.client import DedupStateMachine, RequestServer, parse_envelope
from repro.client.simnet import SimClientNetwork
from repro.common import rng as rng_mod
from repro.common.encoding import decode
from repro.common.errors import ReproError
from repro.core.party import Party, make_parties
from repro.crypto import opcount
from repro.crypto.dealer import fast_group
from repro.crypto.params import SecurityParams
from repro.experiments import LAN_SETUP, run_channel_experiment
from repro.experiments import runner as exp_runner
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime
from repro.net.sim import SimError
from repro.net.tcp import TcpNode, local_endpoints
from repro.obs.recorder import MemoryRecorder

clock = time.perf_counter

#: iterations of the speed probe's loop, and its wall seconds on the
#: reference CPU (an uncontended 2.1 GHz Xeon vCPU running Python 3.11)
PROBE_LOOPS = 60_000
REFERENCE_PROBE_S = 0.0063
#: least wall time between two probes inside a sim iteration
PROBE_EVERY_S = 0.1

#: roughly the wall seconds one iteration of each sim workload takes on a
#: 2.1 GHz Xeon vCPU; with --seconds they fix a pass's iteration count
FIG4_NOMINAL_S = 2.0
BURST_NOMINAL_S = 0.6
BYZ_NOMINAL_S = 0.8

FIG4_SENDERS = (0, 2, 3)
#: payloads queued per fig4-lan iteration
FIG4_MESSAGES = 24

BURST_REQUESTS = 96
BURST_CLIENTS = 4
#: bench-throughput's channel configuration
MAX_BATCH = 64
PIPELINE_DEPTH = 4
#: a burst request that takes longer than this (simulated) counts as failed
BURST_LIMIT_S = 300.0

BYZ_REPLICA = 3
BYZ_STRATEGY = "doublevote"

TCP_SENDERS = (0, 2, 3)
#: total open-loop send rate, ~40% of the measured burst capacity (~23/s)
TCP_RATE = 10.0
#: group set-ups per tcp-open pass; the last one carries the load
TCP_SETUPS = 3
#: how long to wait for the last sends to be delivered everywhere
TCP_DRAIN_S = 30.0
#: consecutive sends per tcp-open section; the CPU is probed between sections
TCP_WINDOW = 10
#: how long before a section's first send its speed probe starts
PROBE_LEAD_S = 0.02


@dataclass
class Section:
    """One timed stretch of a pass: a sim iteration or a tcp-open window."""

    #: ops completed in the section
    ops: int
    #: wall seconds the section took (set-up excluded)
    seconds: float
    #: wall ms from when each completed op was due to its completion
    latencies_ms: List[float]
    #: the CPU's speed around the section relative to the reference CPU
    speed: float
    #: the section's length is set by a wall-clock schedule (open loop)
    paced: bool = False


def probe() -> float:
    """Wall seconds one fixed pure-Python loop takes on this CPU right now.

    The CPUs of a shared machine change speed by up to half for seconds
    or minutes at a time while other tenants come and go.  Running this
    loop around each timed section measures that speed, so the section's
    wall time can be scaled to the reference CPU's (see ``speed_around``).
    The loop allocates nothing that outlives it, so the program's own
    state does not slow it down.
    """
    start = clock()
    total = 0
    table: Dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        total += (i * 7919) % 104729
        table[i & 255] = total
    return clock() - start


def speed_around(before: float, after: float) -> float:
    """CPU speed during a section from the probes run before and after it."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


class SpeedMeter:
    """Probes the CPU's speed while a sim iteration runs.

    The measurement hooks call :meth:`tick` as the program runs; at most
    every ``PROBE_EVERY_S`` it runs :func:`probe`, whose own time
    :meth:`now` (the iteration's clock) leaves out.  The speed of the
    iteration is the mean over its probes, first and last included.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.paused = 0.0
        self.due = clock() + PROBE_EVERY_S

    def now(self) -> float:
        return clock() - self.paused

    def tick(self) -> None:
        start = clock()
        if start >= self.due:
            self.probes.append(probe())
            end = clock()
            self.paused += end - start
            self.due = end + PROBE_EVERY_S

    def speed(self) -> float:
        """Probe once more and return the iteration's speed."""
        self.probes.append(probe())
        return REFERENCE_PROBE_S / (sum(self.probes) / len(self.probes))


@dataclass
class Outcome:
    """What one pass over a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    sections: List[Section] = field(default_factory=list)
    #: reference-CPU seconds of each set-up: dealing keys to first op issuable
    setup_s: List[float] = field(default_factory=list)
    #: simulated seconds of the timed sections (sim workloads)
    sim_s: float = 0.0
    #: worst lateness of the open-loop generator (tcp-open)
    late_ms: Optional[float] = None
    #: program counters and runtime statistics, summed over the pass
    counters: Counter = field(default_factory=Counter)
    #: failed correctness checks
    errors: List[str] = field(default_factory=list)
    #: simulated-clock facts that must repeat exactly for a seed
    fingerprint: List[Any] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return self.attempted - self.failed

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def iteration_seed(seed: int, workload: str, i: int) -> int:
    """The seed of iteration ``i``: every input of the pass derives from it."""
    return rng_mod.derive_int(seed, "perfbench", workload, i)


def iterations(seconds: float, nominal_s: float) -> int:
    return max(1, round(seconds / nominal_s))


def _recorder(traced: bool) -> Optional[MemoryRecorder]:
    return MemoryRecorder() if traced else None


def _add_counters(out: Outcome, recorder: Optional[MemoryRecorder]) -> None:
    if recorder is not None:
        out.counters.update(recorder.counters)


# -- fig4-lan -------------------------------------------------------------------------


def fig4_iteration(out: Outcome, seed: int, messages: int, traced: bool = False) -> Any:
    """One Figure 4 run; returns the ``ExperimentResult`` (or None on error).

    ``run_channel_experiment`` deals the keys and builds the channels
    itself, so set-up is timed by wrapping the runner's ``fast_group`` and
    ``make_channel`` for the length of the call; the channel wrapper also
    records every payload sent and the wall time of every delivery at the
    measuring replica.
    """
    marks: Dict[str, float] = {}
    channels: List[Any] = []
    sent: List[bytes] = []
    delivered_at: List[float] = []
    fast_group_fn, make_channel_fn = exp_runner.fast_group, exp_runner.make_channel

    def timed_fast_group(*args: Any, **kwargs: Any) -> Any:
        marks["deal"] = meter.now()
        return fast_group_fn(*args, **kwargs)

    def watched_make_channel(party: Any, *args: Any, **kwargs: Any) -> Any:
        channel = make_channel_fn(party, *args, **kwargs)
        channels.append(channel)
        send = channel.send

        def recorded_send(message: bytes) -> None:
            sent.append(bytes(message))
            send(message)

        channel.send = recorded_send
        if party.id == LAN_SETUP.measure_at:
            put = channel.outputs.put

            def timed_put(item: Any) -> None:
                meter.tick()
                delivered_at.append(meter.now())
                put(item)

            channel.outputs.put = timed_put
        marks["ready"] = meter.now()
        return channel

    recorder = _recorder(traced)
    meter = SpeedMeter()
    exp_runner.fast_group, exp_runner.make_channel = timed_fast_group, watched_make_channel
    try:
        result = run_channel_experiment(
            LAN_SETUP, "atomic", senders=FIG4_SENDERS, messages=messages,
            seed=seed, recorder=recorder,
        )
    except ReproError as exc:
        result = None
        out.check(False, f"fig4-lan seed {seed}: {exc!r}")
    finally:
        exp_runner.fast_group, exp_runner.make_channel = fast_group_fn, make_channel_fn
    end = meter.now()
    speed = meter.speed()
    out.attempted += len(sent)
    if result is None or "ready" not in marks:
        out.failed += len(sent)
        return None
    ready = marks["ready"]
    out.setup_s.append((ready - marks["deal"]) * speed)
    out.sections.append(Section(result.count, end - ready,
                                [(t - ready) * 1e3 for t in delivered_at[: result.count]],
                                speed))
    out.sim_s += result.sim_seconds

    runtime = channels[0].ctx.runtime
    events = runtime.sim.events_processed
    runtime.run()  # let every replica finish delivering (untimed)
    order = [list(ch.deliveries) for ch in channels]
    at_p0 = [data for _, data in result.deliveries]
    out.check(all(o == order[0] for o in order),
              f"fig4-lan seed {seed}: replicas delivered different orders")
    out.check(sorted(at_p0) == sorted(sent) and len(order[0]) == len(sent),
              f"fig4-lan seed {seed}: delivered payloads differ from those sent")
    out.check(not runtime.router_errors(), f"fig4-lan seed {seed}: handler errors")
    out.failed += len(Counter(sent) - Counter(at_p0))
    out.fingerprint.append((result.sim_seconds, result.messages_sent, result.bytes_sent,
                            events, result.mean_delivery_s))
    out.counters.update({"sim.events": events, "sim.messages": result.messages_sent,
                         "sim.bytes": result.bytes_sent})
    _add_counters(out, recorder)
    return result


def fig4_pass(seed: int, seconds: float, traced: bool = False) -> Outcome:
    out = Outcome()
    for i in range(iterations(seconds, FIG4_NOMINAL_S)):
        fig4_iteration(out, iteration_seed(seed, "fig4-lan", i), FIG4_MESSAGES, traced)
    return out


# -- burst-lan / byz-burst ---------------------------------------------------------------


class Tally(StateMachine):
    """bench-throughput's counter: every command adds one, replies the count."""

    def __init__(self) -> None:
        self.value = 0

    def apply(self, command: bytes) -> bytes:
        self.value += 1
        return str(self.value).encode()

    def snapshot(self) -> bytes:
        return str(self.value).encode()

    def restore(self, snapshot: bytes) -> None:
        self.value = int(snapshot)


def burst_commands(seed: int, count: int) -> List[bytes]:
    """``count`` short seeded commands (8 to 24 bytes of printable text)."""
    rng = rng_mod.derive(seed, "perfbench", "commands")
    alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789"
    return [bytes(rng.choice(alphabet) for _ in range(rng.randint(8, 24)))
            for _ in range(count)]


def burst_iteration(
    out: Outcome,
    seed: int,
    commands: Sequence[bytes],
    adversary: Optional[str] = None,
    traced: bool = False,
) -> float:
    """One client burst; returns the simulated seconds until the last reply."""
    name = "byz-burst" if adversary else "burst-lan"
    meter = SpeedMeter()
    start = meter.now()
    recorder = _recorder(traced)
    group = fast_group(4, 1, SecurityParams.toy(), sig_mode="multi", seed=seed)
    runtime = SimRuntime(group, latency=lan_latency(), seed=seed, recorder=recorder)
    strategies = []
    if adversary is not None:
        strategy = make_strategy(adversary, rng_mod.derive(seed, "strategy", BYZ_REPLICA))
        strategy.adversaries = frozenset({BYZ_REPLICA})
        runtime.contexts[BYZ_REPLICA] = AdversarialContext(runtime.contexts[BYZ_REPLICA], strategy)
        runtime.routers[BYZ_REPLICA].observers.append(strategy.observe)
        strategies.append(strategy)
    services = [
        ReplicatedService(p, "bench", DedupStateMachine(Tally()),
                          max_batch=MAX_BATCH, pipeline_depth=PIPELINE_DEPTH)
        for p in make_parties(runtime)
    ]
    net = SimClientNetwork(runtime)
    for i, svc in enumerate(services):
        net.attach(i, RequestServer(svc, max_inflight_per_client=256, max_backlog=1024,
                                    obs=recorder))
    clients = [
        net.connect(f"bench-client-{k}", contact=k % 4, timeout=5.0, seed=seed)
        for k in range(BURST_CLIENTS)
    ]
    requests: Dict[Tuple[int, int], Any] = {}
    done_at: Dict[Tuple[int, int], float] = {}

    for k, client in enumerate(clients):
        on_reply = client.on_reply

        def timed_on_reply(replica: int, seq: int, *rest: Any,
                           _k: int = k, _on_reply: Callable = on_reply) -> None:
            meter.tick()
            _on_reply(replica, seq, *rest)
            key = (_k, seq)
            if key not in done_at and requests[key].done:
                done_at[key] = meter.now()

        client.on_reply = timed_on_reply
    ready = meter.now()

    sim_start = runtime.now
    next_seq = [0] * BURST_CLIENTS
    for j, command in enumerate(commands):
        k = j % BURST_CLIENTS
        requests[(k, next_seq[k])] = clients[k].submit(command)
        next_seq[k] += 1
    try:
        runtime.run_all(list(requests.values()), limit=sim_start + BURST_LIMIT_S)
    except (SimError, ReproError) as exc:
        out.check(False, f"{name} seed {seed}: burst did not complete: {exc!r}")
    end = meter.now()
    speed = meter.speed()
    out.setup_s.append((ready - start) * speed)
    elapsed = runtime.now - sim_start
    events = runtime.sim.events_processed
    messages, nbytes = runtime.messages_sent, runtime.bytes_sent

    ok = {key for key, fut in requests.items() if fut.done and fut.error is None}
    out.attempted += len(requests)
    out.failed += len(requests) - len(ok)
    out.sections.append(Section(len(ok), end - ready,
                                [(done_at[key] - ready) * 1e3 for key in ok if key in done_at],
                                speed))
    out.sim_s += elapsed

    # Replicas may still be applying when the t+1 replies are in: drain
    # (untimed) before comparing their states.
    runtime.run(until=runtime.now + BURST_LIMIT_S)
    honest = [svc for i, svc in enumerate(services) if adversary is None or i != BYZ_REPLICA]
    expected = Counter((f"bench-client-{k}", seq) for k, seq in requests)
    for i, svc in enumerate(honest):
        applied = Counter()
        for command, _ in svc.log:
            env = parse_envelope(command)
            applied[(env[0], env[1]) if env else None] += 1
        out.check(applied == expected,
                  f"{name} seed {seed}: a replica did not apply every request exactly once")
    out.check(len({svc.log_digest() for svc in honest}) == 1,
              f"{name} seed {seed}: honest replicas applied different orders")
    out.check(len({svc.last_state_digest() for svc in honest}) == 1,
              f"{name} seed {seed}: honest state digests differ")
    results = {}
    for command, result in honest[0].log:
        env = parse_envelope(command)
        if env is not None:
            results[(env[0], env[1])] = decode(result)
    for key in ok:
        status_result = results.get((f"bench-client-{key[0]}", key[1]))
        out.check(status_result is not None and status_result[1] == requests[key].value,
                  f"{name} seed {seed}: voted reply differs from the replicated result")
    errors = runtime.router_errors()
    if adversary is not None:
        errors = [e for e in errors if e[1] != BYZ_REPLICA]
    out.check(not errors, f"{name} seed {seed}: handler errors from honest parties: {errors[:3]}")

    out.fingerprint.append((elapsed, messages, nbytes, events))
    out.counters.update({
        "sim.events": events, "sim.messages": messages, "sim.bytes": nbytes,
        "replication.applied": sum(svc.applied for svc in services),
        "adversary.actions": sum(sum(s.actions.values()) for s in strategies),
    })
    _add_counters(out, recorder)
    return elapsed


def burst_pass(seed: int, seconds: float, traced: bool = False,
               adversary: Optional[str] = None) -> Outcome:
    out = Outcome()
    name = "byz-burst" if adversary else "burst-lan"
    for i in range(iterations(seconds, BYZ_NOMINAL_S if adversary else BURST_NOMINAL_S)):
        iseed = iteration_seed(seed, name, i)
        burst_iteration(out, iseed, burst_commands(iseed, BURST_REQUESTS), adversary, traced)
    return out


def byz_pass(seed: int, seconds: float, traced: bool = False) -> Outcome:
    return burst_pass(seed, seconds, traced, adversary=BYZ_STRATEGY)


# -- tcp-open ----------------------------------------------------------------------------


def tcp_payloads(seed: int, count: int) -> List[bytes]:
    """``count`` distinct short payloads (< 32 bytes, as in the paper)."""
    rng = rng_mod.derive(seed, "perfbench", "payloads")
    return [b"%05d:" % k + rng.randbytes(8).hex().encode() for k in range(count)]


async def _wait_for(predicate: Callable[[], bool], timeout: float, poll: float) -> bool:
    deadline = clock() + timeout
    while not predicate():
        if clock() > deadline:
            return False
        await asyncio.sleep(poll)
    return True


class _TcpGroup:
    """Four loopback ``TcpNode``s with one atomic channel each."""

    def __init__(self, seed: int, recorder: Optional[MemoryRecorder]):
        self.seed = seed
        self.recorder = recorder
        self.nodes: List[TcpNode] = []
        self.channels: List[Any] = []
        self.delivered_at: List[Tuple[float, bytes]] = []

    async def start(self) -> float:
        """Deal, start, connect; returns the set-up seconds.

        The group counts as set up once a warm-up payload has been
        delivered at every node, i.e. every link is connected and the
        first op can be issued.
        """
        start = clock()
        group = fast_group(4, 1, SecurityParams.toy(), sig_mode="multi", seed=self.seed)
        endpoints = local_endpoints(4)
        self.nodes = [TcpNode(group, i, endpoints, seed=self.seed, recorder=self.recorder)
                      for i in range(4)]
        await asyncio.gather(*(node.start() for node in self.nodes))
        self.channels = [Party(node.ctx).atomic_channel("perfbench") for node in self.nodes]
        put = self.channels[0].outputs.put

        def timed_put(item: Any) -> None:
            self.delivered_at.append((clock(), item))
            put(item)

        self.channels[0].outputs.put = timed_put
        self.channels[0].send(b"warm-up")
        if not await _wait_for(lambda: self.delivered(1), 30.0, 0.002):
            raise ReproError("tcp-open: warm-up payload was not delivered everywhere")
        return clock() - start

    def delivered(self, count: int) -> bool:
        """Whether every node has delivered ``count`` payloads and P0's
        application has received them (outputs reach it one loop step
        after the channel delivers)."""
        return len(self.delivered_at) >= count and all(
            len(ch.deliveries) >= count for ch in self.channels)

    async def stop(self) -> None:
        await asyncio.gather(*(node.stop() for node in self.nodes))


async def _tcp_pass(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    recorder = _recorder(traced)
    group: Optional[_TcpGroup] = None
    try:
        for i in range(TCP_SETUPS):
            if group is not None:
                await group.stop()
            group = _TcpGroup(iteration_seed(seed, "tcp-open", i),
                              recorder if i == TCP_SETUPS - 1 else None)
            before = probe()
            wall = await group.start()
            out.setup_s.append(wall * speed_around(before, probe()))
        await _tcp_load(out, group, seed, seconds, traced)
    except ReproError as exc:
        out.check(False, str(exc))
    finally:
        if group is not None:
            await group.stop()
    _add_counters(out, recorder)
    return out


async def _tcp_load(out: Outcome, group: _TcpGroup, seed: int, seconds: float,
                    traced: bool) -> None:
    count = max(1, round(TCP_RATE * seconds))
    payloads = tcp_payloads(seed, count)
    due: Dict[bytes, float] = {}
    lags: List[float] = []
    stop = asyncio.Event()

    async def ticker(period: float = 0.01) -> None:
        while not stop.is_set():
            t = clock()
            await asyncio.sleep(period)
            lags.append(clock() - t - period)

    lag_task = asyncio.ensure_future(ticker()) if traced else None
    late = 0.0
    probes: List[float] = []
    first_due = clock() + 0.05
    try:
        with opcount.counting() as modexp:
            for k, payload in enumerate(payloads):
                when = first_due + k / TCP_RATE
                if k % TCP_WINDOW == 0:
                    # Probe the CPU just before a window opens, when the
                    # previous send has usually been delivered already.
                    await asyncio.sleep(max(0.0, when - PROBE_LEAD_S - clock()))
                    probes.append(probe())
                delay = when - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                late = max(late, clock() - when)
                due[payload] = when
                group.channels[TCP_SENDERS[k % len(TCP_SENDERS)]].send(payload)
            drained = await _wait_for(lambda: group.delivered(count + 1), TCP_DRAIN_S, 0.02)
            probes.append(probe())
    finally:
        stop.set()
        if lag_task is not None:
            await lag_task
    out.check(drained, "tcp-open: sends still undelivered after the drain timeout")
    stats = [node.stats() for node in group.nodes]

    arrived = {data: t for t, data in group.delivered_at if data in due}
    out.attempted += count
    out.failed += count - len(arrived)
    out.late_ms = late * 1e3
    for i, w in enumerate(range(0, count, TCP_WINDOW)):
        window = [p for p in payloads[w:w + TCP_WINDOW] if p in arrived]
        if window:
            latencies = [(arrived[p] - due[p]) * 1e3 for p in window]
            span = max(arrived[p] for p in window) - due[payloads[w]]
            out.sections.append(Section(len(window), span, latencies,
                                        speed_around(probes[i], probes[i + 1]), paced=True))

    order = [list(ch.deliveries) for ch in group.channels]
    out.check(all(o == order[0] for o in order), "tcp-open: replicas delivered different orders")
    out.check(sorted(d for _, _, d in order[0]) == sorted(payloads + [b"warm-up"]),
              "tcp-open: delivered payloads differ from those sent")
    errors = [e for node in group.nodes for e in node.ctx.router.errors]
    out.check(not errors, f"tcp-open: handler errors: {errors[:3]}")
    out.counters.update({
        "crypto.modexp": modexp.ops,
        "tcp.retransmissions": sum(s["retransmissions"] for s in stats),
        "tcp.heartbeats": sum(p.heartbeats for s in stats for p in s["peers"].values()),
        "tcp.loop_lag_ms": 1e3 * sum(lags) / len(lags) if lags else 0.0,
        "tcp.late_ms": out.late_ms,
    })


def tcp_pass(seed: int, seconds: float, traced: bool = False) -> Outcome:
    return asyncio.run(_tcp_pass(seed, seconds, traced))


#: workload name -> (pass function, clock its ops complete on)
WORKLOADS: Dict[str, Tuple[Callable[..., Outcome], str]] = {
    "fig4-lan": (fig4_pass, "sim"),
    "burst-lan": (burst_pass, "sim"),
    "tcp-open": (tcp_pass, "wall"),
    "byz-burst": (byz_pass, "sim"),
}
