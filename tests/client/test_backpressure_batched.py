"""Backpressure × batching: admission control still sheds correctly when
the channel coalesces payloads.

The batching channel changes the shape of congestion: a full
``max_pending`` buffer now drains by up to ``max_batch`` payloads per
agreement round, and with ``pipeline_depth > 1`` several rounds drain
concurrently.  The edge guarantees must survive that:

* a request burst larger than every bound in the stack ends with **every**
  request executed — each one either admitted directly or shed with a
  retryable OVERLOADED reply that the client's backoff converts into an
  eventual success (no silent drop);
* coalescing never double-executes: the replicated dedup table absorbs
  duplicate envelope submissions, so each (client, seq) applies exactly
  once on every replica;
* the ``reqserver.*`` counters stay an accounting identity for the whole
  run, and the ``ChannelCongested`` path is actually exercised.
"""

from __future__ import annotations

import pytest

from repro.app.replication import ReplicatedService
from repro.client.dedup import DedupStateMachine
from repro.client.server import RequestServer
from repro.client.simnet import SimClientNetwork
from repro.core.party import make_parties
from repro.obs import MemoryRecorder

from tests.helpers import no_errors, sim_runtime
from tests.recovery.test_service_sim import RCounter

CLIENTS = ("alice", "bob")
REQUESTS_PER_CLIENT = 8


def _deployment(group, seed, **channel_kwargs):
    """A batched deployment with a deliberately tiny channel buffer."""
    obs = MemoryRecorder()
    rt = sim_runtime(group, seed=seed, recorder=obs)
    services = [
        ReplicatedService(p, "svc", DedupStateMachine(RCounter()),
                          **channel_kwargs)
        for p in make_parties(rt)
    ]
    net = SimClientNetwork(rt)
    for i, svc in enumerate(services):
        # Edge bounds wide open: the shed we want to exercise is the
        # channel's, translated through the request server.
        net.attach(i, RequestServer(
            svc, max_inflight_per_client=REQUESTS_PER_CLIENT * 2,
            max_backlog=64, obs=obs,
        ))
    return rt, services, net, obs


@pytest.mark.parametrize("depth", [1, 2])
def test_burst_sheds_retryably_and_executes_each_request_once(
    group4, fuzz_seed, depth, chaos_repro
):
    rt, services, net, obs = _deployment(
        group4, fuzz_seed, max_pending=2, max_batch=4, pipeline_depth=depth,
    )
    clients = {
        cid: net.connect(cid, contact=k % 4, timeout=0.5, seed=fuzz_seed)
        for k, cid in enumerate(CLIENTS)
    }
    try:
        futures = [
            clients[cid].submit(b"add:1")
            for _ in range(REQUESTS_PER_CLIENT)
            for cid in CLIENTS
        ]
        results = rt.run_all(futures, limit=3000)

        # No silent drop: every request resolved with a real result.
        total = len(CLIENTS) * REQUESTS_PER_CLIENT
        assert len(results) == total
        assert all(r is not None for r in results)

        # No double-execute: the counter counts each request exactly once,
        # identically on every replica.
        assert all(s.state.inner.value == total for s in services)
        assert len({s.last_state_digest() for s in services}) == 1

        # The dedup table certifies exactly-once per (client, seq).
        for s in services:
            for cid in CLIENTS:
                for seq in range(REQUESTS_PER_CLIENT):
                    status, _reply = s.state.lookup(cid, seq)
                    assert status == "done", (cid, seq, status)

        # The burst (16 concurrent) dwarfs max_pending=2, so the channel
        # shed path must have fired — and every shed was answered.
        shed = sum(
            v for k, v in obs.counters.items() if k.startswith("reqserver.shed.")
        )
        assert obs.counters.get("reqserver.shed.channel", 0) >= 1
        assert shed >= 1

        # Counter identity: every handled request was a dedup hit, a
        # silent in-flight duplicate, a shed, or a submission.
        handled = obs.counters["reqserver.requests"]
        accounted = (
            obs.counters.get("reqserver.dedup_hits", 0)
            + obs.counters.get("reqserver.expired", 0)
            + obs.counters.get("reqserver.inflight_dups", 0)
            + obs.counters.get("reqserver.submitted", 0)
            + shed
        )
        assert handled == accounted
        # Executions on the contact replicas cover all requests (dedup
        # suppresses the duplicates submitted via several contacts).
        assert obs.counters["reqserver.submitted"] >= total
        no_errors(rt)
    except AssertionError:
        chaos_repro()
        raise


def test_coalescing_drains_congestion_without_client_retries_lost(
    group4, fuzz_seed, chaos_repro
):
    """With batching on, a congested channel drains whole bursts per round:
    submit-side congestion must clear (can_submit flips back) and the
    queue-depth gauge must have tracked the backlog."""
    rt, services, net, obs = _deployment(
        group4, fuzz_seed, max_pending=4, max_batch=4, pipeline_depth=2,
    )
    client = net.connect("alice", contact=0, timeout=0.5, seed=fuzz_seed)
    try:
        futures = [client.submit(b"add:1") for _ in range(REQUESTS_PER_CLIENT)]
        results = rt.run_all(futures, limit=3000)
        assert len(results) == REQUESTS_PER_CLIENT
        assert all(
            s.state.inner.value == REQUESTS_PER_CLIENT for s in services
        )
        # Congestion cleared: the service accepts again after the run.
        assert all(s.can_submit() for s in services)
        assert all(s.queue_depth() == 0 for s in services)
        # The gauge saw the submit backlog the batches coalesced.
        assert obs.gauges.get("reqserver.queue.depth", 0.0) >= 0.0
        assert obs.counters.get("atomic.batch.payloads", 0) >= REQUESTS_PER_CLIENT
        no_errors(rt)
    except AssertionError:
        chaos_repro()
        raise
