"""Consistent (echo) broadcast: certificates, consistency, bad shares."""

import pytest

from repro.common.encoding import encode
from repro.core.broadcast import ConsistentBroadcast
from repro.core.broadcast.consistent import _bound_message
from repro.net.faults import CrashFault, FaultPlan

from tests.conftest import cached_group
from tests.core.byz import BadShareEchoer, GarbageSpammer
from tests.helpers import no_errors, sim_runtime


def _cbcs(rt, basepid="cbc", sender=0, parties=None):
    parties = parties if parties is not None else range(rt.group.n)
    return {i: ConsistentBroadcast(rt.contexts[i], basepid, sender) for i in parties}


def test_all_honest_deliver(group4):
    rt = sim_runtime(group4)
    cbcs = _cbcs(rt)
    cbcs[0].send(b"payload")
    values = rt.run_all([c.delivered for c in cbcs.values()])
    assert values == [b"payload"] * 4
    no_errors(rt)


def test_signature_attached_and_valid(group4):
    rt = sim_runtime(group4)
    cbcs = _cbcs(rt)
    cbcs[0].send(b"m")
    rt.run_until(cbcs[2].delivered)
    scheme = rt.contexts[2].crypto.cbc_scheme
    assert scheme.verify(_bound_message(cbcs[2].pid, b"m"), cbcs[2].signature)


def test_delivery_with_shoup_threshold_signatures():
    rt = sim_runtime(cached_group(4, 1, "shoup"))
    cbcs = _cbcs(rt, sender=1)
    cbcs[1].send(b"shoup payload")
    values = rt.run_all([c.delivered for c in cbcs.values()])
    assert values == [b"shoup payload"] * 4
    no_errors(rt)


def test_works_with_t_crashed_receivers(group4):
    """The quorum ceil((n+t+1)/2)=3 tolerates one crash (the sender counts)."""
    rt = sim_runtime(group4, faults=FaultPlan(crashes=(CrashFault(3),)))
    cbcs = _cbcs(rt)
    cbcs[0].send(b"x")
    values = rt.run_all([cbcs[i].delivered for i in range(3)])
    assert values == [b"x"] * 3


def test_two_crashes_stall_n4(group4):
    """With n=4 only one failure is tolerated; two crashed receivers stall."""
    rt = sim_runtime(
        group4, faults=FaultPlan(crashes=(CrashFault(2), CrashFault(3)))
    )
    cbcs = _cbcs(rt)
    cbcs[0].send(b"x")
    rt.run(until=60)
    assert not cbcs[1].delivered.done


def test_bad_share_evicted_optimistically(group4):
    """A corrupted participant's bogus share delays nothing fatal."""
    rt = sim_runtime(group4)
    honest = _cbcs(rt, basepid="bs", sender=0, parties=[0, 1, 2])
    BadShareEchoer(rt.contexts[3], "bs.0", target_sender=0)
    honest[0].send(b"x")
    values = rt.run_all([c.delivered for c in honest.values()], limit=120)
    assert values == [b"x"] * 3


def test_garbage_ignored(group4):
    rt = sim_runtime(group4)
    honest = _cbcs(rt, basepid="spam", sender=1, parties=[1, 2, 3])
    GarbageSpammer(rt.contexts[0], "spam.1", ["send", "echo", "final"]).start()
    honest[1].send(b"real")
    values = rt.run_all([c.delivered for c in honest.values()], limit=120)
    assert values == [b"real"] * 3


def test_forged_final_rejected(group4):
    """A final message with an invalid certificate does not deliver."""
    rt = sim_runtime(group4)
    cbcs = _cbcs(rt, basepid="forge", parties=[1, 2, 3], sender=0)

    from repro.core.protocol import Protocol

    class ForgedFinal(Protocol):
        schemas = ConsistentBroadcast.schemas

        def start(self):
            self.ctx.api(
                lambda: self.send_all("final", (b"forged", encode([(1, 12345)])))
            )

        def on_message(self, sender, mtype, payload):
            pass

    ForgedFinal(rt.contexts[0], "forge.0").start()
    rt.run(until=60)
    assert not any(c.delivered.done for c in cbcs.values())


def test_consistency_is_quorum_bound(group4):
    """The sender cannot assemble certificates for two different payloads:
    echo shares are given out once per party."""
    rt = sim_runtime(group4)
    cbcs = _cbcs(rt)
    cbcs[0].send(b"first")
    rt.run_until(cbcs[1].delivered)
    # every party echoed exactly once
    echo_counts = [c._echoed for c in cbcs.values()]
    assert all(echo_counts)


def test_seven_party(group7):
    rt = sim_runtime(group7)
    cbcs = _cbcs(rt, sender=6)
    cbcs[6].send(b"seven")
    assert rt.run_all([c.delivered for c in cbcs.values()]) == [b"seven"] * 7
