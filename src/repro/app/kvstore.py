"""A replicated key-value store — the example service used by the paper's
state-machine-replication story.

Commands are canonical encodings of tuples:

* ``("put", key, value)`` — store; returns the previous value or ``b""``;
* ``("get", key)`` — read; returns the value or ``b""``;
* ``("del", key)`` — delete; returns the deleted value or ``b""``;
* ``("cas", key, expected, new)`` — compare-and-swap; returns ``b"ok"`` or
  ``b"fail"``.

Reads go through the channel too, which gives them a position in the total
order (linearizability); a real deployment could serve reads locally with
weaker guarantees.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.app.replication import ReplicatedService, StateMachine
from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.core.party import Party
from repro.core.schema import ListOf, conforms


class KVStore(StateMachine):
    """The deterministic state machine of the key-value service."""

    def __init__(self) -> None:
        self.data: Dict[bytes, bytes] = {}

    # -- command encoding helpers ----------------------------------------------------

    @staticmethod
    def cmd_put(key: bytes, value: bytes) -> bytes:
        return encode(("put", key, value))

    @staticmethod
    def cmd_get(key: bytes) -> bytes:
        return encode(("get", key))

    @staticmethod
    def cmd_del(key: bytes) -> bytes:
        return encode(("del", key))

    @staticmethod
    def cmd_cas(key: bytes, expected: bytes, new: bytes) -> bytes:
        return encode(("cas", key, expected, new))

    # -- state machine -------------------------------------------------------------------

    def apply(self, command: bytes) -> bytes:
        try:
            parsed = decode(command)
        except EncodingError:
            return b"error:malformed"
        if not isinstance(parsed, tuple) or not parsed:
            return b"error:malformed"
        op = parsed[0]
        try:
            if op == "put":
                _, key, value = parsed
                previous = self.data.get(key, b"")
                self.data[key] = value
                return previous
            if op == "get":
                _, key = parsed
                return self.data.get(key, b"")
            if op == "del":
                _, key = parsed
                return self.data.pop(key, b"")
            if op == "cas":
                _, key, expected, new = parsed
                if self.data.get(key, b"") == expected:
                    self.data[key] = new
                    return b"ok"
                return b"fail"
        except (ValueError, TypeError):
            return b"error:malformed"
        return b"error:unknown-op"

    def snapshot(self) -> bytes:
        return encode(sorted(self.data.items()))

    def restore(self, snapshot: bytes) -> None:
        items = decode(snapshot)
        if not conforms(ListOf((bytes, bytes)), items):
            raise EncodingError("kvstore snapshot must be a list of (key, value) pairs")
        self.data = dict(items)


class ReplicatedKVStore(ReplicatedService):
    """One replica of the key-value service with typed client helpers."""

    def __init__(self, party: Party, pid: str = "kv", secure: bool = False,
                 **channel_kwargs: Any):
        super().__init__(party, pid, KVStore(), secure=secure, **channel_kwargs)

    @property
    def store(self) -> KVStore:
        return self.state  # type: ignore[return-value]

    def put(self, key: bytes, value: bytes) -> None:
        self.submit(KVStore.cmd_put(key, value))

    def get(self, key: bytes) -> None:
        self.submit(KVStore.cmd_get(key))

    def delete(self, key: bytes) -> None:
        self.submit(KVStore.cmd_del(key))

    def cas(self, key: bytes, expected: bytes, new: bytes) -> None:
        self.submit(KVStore.cmd_cas(key, expected, new))

    def local_value(self, key: bytes) -> bytes:
        """This replica's current value for ``key`` (post-application)."""
        return self.store.data.get(key, b"")
