"""End-to-end client lifecycle on the simulated runtime.

The acceptance scenarios, deterministic and seed-replayable:

(a) **Byzantine repliers** — ``t`` replicas return forged result bytes;
    the ``t + 1`` vote still yields the correct answer.
(b) **failover + at-most-once** — the contact replica is unreachable;
    the client times out, fails over to broadcasting, several replicas
    submit the same envelope, and the command executes exactly once on
    every replica (identical digests).
(c) **overload + backoff-retry** — admission control sheds a request
    with the retryable OVERLOADED status; the client backs off, retries,
    and eventually succeeds.

Failures print a ``CHAOS-REPRO`` line pinning the seed.
"""

import pytest

from repro.app.replication import ReplicatedService
from repro.client.dedup import DedupStateMachine
from repro.client.protocol import STATUS_OK
from repro.client.server import RequestServer
from repro.client.simnet import DROP, SimClientNetwork
from repro.common.errors import RetriesExhausted
from repro.core.party import make_parties
from repro.obs import MemoryRecorder

from tests.helpers import no_errors, sim_runtime
from tests.recovery.test_service_sim import RCounter


def _deployment(group, seed, server_kwargs=None, **service_kwargs):
    """Runtime + replicated services (dedup-wrapped) + client network."""
    obs = MemoryRecorder()
    rt = sim_runtime(group, seed=seed, recorder=obs)
    services = [
        ReplicatedService(p, "svc", DedupStateMachine(RCounter()),
                          **service_kwargs)
        for p in make_parties(rt)
    ]
    net = SimClientNetwork(rt)
    for i, svc in enumerate(services):
        net.attach(i, RequestServer(svc, obs=obs, **(server_kwargs or {})))
    return rt, services, net, obs


def test_correct_reply_with_t_byzantine_repliers(group4, fuzz_seed, chaos_repro):
    """(a) The contact replica forges every reply byte; the client still
    returns the honest t+1 result."""
    rt, services, net, obs = _deployment(group4, fuzz_seed)

    def forge(replica, client_id, seq, status, result):
        if replica == 0:  # exactly t Byzantine repliers
            return (STATUS_OK, b"forged:" + result)
        return None

    net.reply_taps.append(forge)
    client = net.connect("alice", contact=0, timeout=2.0, seed=fuzz_seed)
    try:
        fut = client.submit(b"add:5")
        result = rt.run_until(fut, limit=600)
        assert result == b"5"
        fut2 = client.submit(b"add:3")
        assert rt.run_until(fut2, limit=600) == b"8"
        assert all(s.state.inner.value == 8 for s in services)
        no_errors(rt)
    except AssertionError:
        chaos_repro()
        raise


def test_failover_executes_exactly_once(group4, fuzz_seed, chaos_repro):
    """(b) Contact unreachable: timeout, failover broadcast, several
    replicas submit the same envelope — applied exactly once everywhere."""
    rt, services, net, obs = _deployment(group4, fuzz_seed)
    net.detach(0)  # the contact replica is unreachable to clients
    client = net.connect("alice", contact=0, timeout=0.2, seed=fuzz_seed)
    try:
        fut = client.submit(b"add:5")
        result = rt.run_until(fut, limit=600)
        assert result == b"5"
        # Let the duplicate channel entries drain.
        rt.run(until=rt.now + 30)
        assert obs.counters["client.failovers"] == 1
        assert obs.counters["client.retransmits"] >= 1
        # The envelope was ordered by several replicas (each surviving
        # contact submitted it)...
        ordered = {len(s.log) for s in services}
        assert ordered == {3}, f"expected 3 ordered envelopes, got {ordered}"
        # ...but executed exactly once, on every replica, identically.
        assert all(s.state.inner.value == 5 for s in services)
        assert len({s.last_state_digest() for s in services}) == 1
        no_errors(rt)
    except AssertionError:
        chaos_repro()
        raise


def test_overloaded_shed_then_backoff_retry_succeeds(group4, fuzz_seed, chaos_repro):
    """(c) The second concurrent request is shed with OVERLOADED; the
    client's backoff retry lands after the first completes and succeeds."""
    rt, services, net, obs = _deployment(
        group4, fuzz_seed, server_kwargs=dict(max_inflight_per_client=1))
    client = net.connect("alice", contact=0, timeout=0.5, seed=fuzz_seed)
    try:
        fut_a = client.submit(b"add:1")
        fut_b = client.submit(b"add:1")
        results = rt.run_all([fut_a, fut_b], limit=600)
        # Execution order (and thus which future sees which running
        # count) depends on arrival timing; the set does not.
        assert sorted(results) == [b"1", b"2"]
        assert obs.counters["reqserver.shed.client"] >= 1
        assert obs.counters["client.overloaded"] >= 1
        assert all(s.state.inner.value == 2 for s in services)
        # Exactly two executions despite the shed/retry churn.
        assert all(len(s.log) == 2 for s in services)
        no_errors(rt)
    except AssertionError:
        chaos_repro()
        raise


def test_channel_backpressure_reaches_the_client(group4, fuzz_seed, chaos_repro):
    """The atomic channel's max_pending bound becomes an OVERLOADED
    reply at the network edge, not a crash or a silent drop."""
    rt, services, net, obs = _deployment(group4, fuzz_seed, max_pending=1)
    client = net.connect("alice", contact=0, timeout=0.5, seed=fuzz_seed)
    try:
        futures = [client.submit(b"add:1") for _ in range(3)]
        results = rt.run_all(futures, limit=600)
        # Shed retries may reorder execution; the *set* of running-count
        # results and the final state are order-independent.
        assert sorted(results) == [b"1", b"2", b"3"]
        assert obs.counters["reqserver.shed.channel"] >= 1
        assert all(s.state.inner.value == 3 for s in services)
        no_errors(rt)
    except AssertionError:
        chaos_repro()
        raise


def test_retries_exhausted_rejects_the_future(group4, fuzz_seed):
    """With every request frame dropped, a bounded client gives up with
    the typed RetriesExhausted error instead of hanging forever."""
    rt, services, net, obs = _deployment(group4, fuzz_seed)
    net.request_taps.append(lambda *a: DROP)
    client = net.connect(
        "alice", contact=0, timeout=0.1, max_attempts=3, seed=fuzz_seed)
    fut = client.submit(b"add:5")
    with pytest.raises(RetriesExhausted):
        rt.run_until(fut, limit=600)
    assert client.pending() == 0
    assert obs.counters["client.exhausted"] == 1
    assert all(s.state.inner.value == 0 for s in services)


def test_e2e_latency_phase_is_recorded(group4, fuzz_seed):
    """Every completed request contributes one sample to the
    phase.client.request.e2e histogram (the BENCH-gated latency)."""
    rt, services, net, obs = _deployment(group4, fuzz_seed)
    client = net.connect("alice", contact=1, timeout=2.0, seed=fuzz_seed)
    for k in range(3):
        rt.run_until(client.submit(b"add:1"), limit=600)
    hist = obs.histograms["phase.client.request.e2e"]
    assert hist.count == 3
    assert hist.mean > 0.0
