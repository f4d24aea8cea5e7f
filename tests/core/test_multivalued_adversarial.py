"""Adversarial tests for multi-valued agreement and the secure channel.

Three attacks the ISSUE calls out — an equivocating VCBC proposer, bogus
threshold-decryption shares, and a ``t``-crash schedule — each run with
the :mod:`repro.testing` invariant checkers attached and must stay green.
"""

from __future__ import annotations

import pytest

from repro.core.agreement import ArrayAgreement
from repro.core.channel import SecureAtomicChannel
from repro.core.protocol import Protocol
from repro.testing import (
    AgreementInvariant,
    Case,
    InvariantSuite,
    SecureCausalityInvariant,
    TotalOrderInvariant,
    plan_from_seed,
    run,
)

from tests.helpers import first_case, sim_runtime


class EquivocatingProposer(ArrayAgreement):
    """A corrupted party that proposes a *different* value to each peer.

    It speaks the VCBC wire protocol directly: instead of broadcasting
    one payload it unicasts per-destination variants, hoping to split the
    group.  Echo shares then sign conflicting bound messages, so no
    threshold certificate can ever form for any variant.
    """

    def _start(self, value, proof):
        bc = self._vcbc[self.ctx.node_id]
        for dst in range(self.ctx.n):
            bc.unicast(dst, "send", b"equiv-%d" % dst)


def test_equivocating_vcbc_proposer_cannot_split_agreement(group4):
    rt = sim_runtime(group4, seed=101)
    honest = {i: ArrayAgreement(rt.contexts[i], "eq") for i in range(3)}
    EquivocatingProposer(rt.contexts[3], "eq").propose(b"decoy")

    proposals = [b"hp-%d" % i for i in honest]
    suite = InvariantSuite(
        [AgreementInvariant(honest, honest, valid_values=proposals)]
    ).attach(rt)
    for i, m in honest.items():
        m.propose(b"hp-%d" % i)
    decisions = [
        v[0] for v in rt.run_all([m.decided for m in honest.values()], limit=2000)
    ]
    suite.finalize()
    assert suite.checks_run > 0
    assert len(set(decisions)) == 1
    # The equivocator never assembled a closing message for any variant,
    # so external validity restricts the decision to an honest proposal.
    assert decisions[0] in proposals


def test_bogus_decryption_shares_stay_green(group4):
    """Party 3 floods forged decryption shares; the causality and total-
    order invariants hold throughout and every cleartext is released."""
    rt = sim_runtime(group4, seed=102)
    honest = {i: SecureAtomicChannel(rt.contexts[i], "bs") for i in range(3)}

    class ShareForger(Protocol):
        """Answers every queue broadcast with a burst of forged shares."""

        def on_message(self, sender, mtype, payload):
            if mtype == "queue":
                for index in range(6):
                    self.send_all("dec", (index, b"forged-share"))

    ShareForger(rt.contexts[3], "bs")
    suite = InvariantSuite(
        [
            TotalOrderInvariant(honest, honest, live=honest),
            SecureCausalityInvariant(honest, honest),
        ]
    ).attach(rt)
    secrets = [b"secret-%d" % i for i in honest]
    for i, ch in honest.items():
        ch.send(b"secret-%d" % i)
    for ch in honest.values():
        ch.close()
    rt.run_all([ch.closed for ch in honest.values()], limit=3000)
    suite.finalize()
    assert suite.checks_run > 0
    # Cleartext releases appear as (-1, index, data) entries; all honest
    # parties release the same sequence, covering every secret sent.
    releases = [
        tuple(e[2] for e in ch.deliveries if e[0] == -1) for ch in honest.values()
    ]
    assert len(set(releases)) == 1
    assert sorted(releases[0]) == sorted(secrets)


@pytest.mark.parametrize("scenario", ("mvba", "secure"))
def test_t_crash_run_through_harness(scenario, group4):
    # a plan crashing exactly t parties; keeping only those directives
    # replays a pure t-crash schedule
    seed = first_case(
        0xC7A54, scenario, 4, 1, lambda p: sum(d.kind == "crash" for d in p) == 1
    )
    crash_idx = [k for k, d in enumerate(plan_from_seed(seed, 4, 1)) if d.kind == "crash"]
    result = run(Case("fuzz", scenario, seed=seed, keep=tuple(crash_idx)), group=group4)
    assert [d.kind for d in result.directives] == ["crash"]
    assert result.ok, result.error
    assert result.checks_run > 0
