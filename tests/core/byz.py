"""Byzantine party behaviours for protocol tests.

A corrupted party is modelled as a raw :class:`Protocol` registered under
the attacked instance's pid that crafts arbitrary messages of the
protocol's vocabulary — exactly the power of the Byzantine adversary (it
holds its own keys, but not other parties' keys).  Each accepts any
payload of the vocabulary it receives, so its own router records nothing.
"""

from __future__ import annotations

from typing import Any

from repro.core.protocol import Protocol
from repro.core.schema import ANY

#: the message types of reliable and consistent broadcast
BROADCAST_MTYPES = dict.fromkeys(("send", "echo", "ready", "final"), ANY)


class SilentParty(Protocol):
    """Participates in nothing; swallows all broadcast messages."""

    schemas = BROADCAST_MTYPES

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        pass


class EquivocatingBroadcastSender(Protocol):
    """A corrupted broadcast sender: different payloads to different parties.

    Used against reliable broadcast (pid must be ``basepid.sender``); also
    echoes both values to maximize confusion.
    """

    schemas = BROADCAST_MTYPES

    def __init__(self, ctx, pid, value_a: bytes, value_b: bytes, split: int):
        super().__init__(ctx, pid)
        self.value_a = value_a
        self.value_b = value_b
        self.split = split

    def start(self) -> None:
        def go():
            for dst in range(self.ctx.n):
                value = self.value_a if dst < self.split else self.value_b
                self.unicast(dst, "send", value)
                self.unicast(dst, "echo", value)

        self.ctx.api(go)

    def on_message(self, sender, mtype, payload):
        pass


class GarbageSpammer(Protocol):
    """Floods an instance with malformed messages of every known type."""

    def __init__(self, ctx, pid, mtypes):
        super().__init__(ctx, pid)
        self.mtypes = mtypes
        self.schemas = dict.fromkeys(mtypes, ANY)

    def start(self) -> None:
        def go():
            junk = [b"\x00garbage", (1, 2, 3), None, ("x", b"y"), 2 ** 70]
            for mtype in self.mtypes:
                for payload in junk:
                    self.send_all(mtype, payload)

        self.ctx.api(go)

    def on_message(self, sender, mtype, payload):
        pass


class BadShareEchoer(Protocol):
    """Corrupted CBC participant: echoes an invalid signature share."""

    schemas = BROADCAST_MTYPES

    def __init__(self, ctx, pid, target_sender: int):
        super().__init__(ctx, pid)
        self.target_sender = target_sender

    def on_message(self, sender, mtype, payload):
        if mtype == "send" and sender == self.target_sender:
            # A structurally valid share (correct index) with bogus crypto,
            # to attack the optimistic combiner.
            bogus = self.ctx.crypto.cbc_signer.sign_share(b"wrong message")
            self.unicast(self.target_sender, "echo", bogus)
