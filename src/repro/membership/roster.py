"""Group rosters and the ordered reconfiguration commands that move them.

SINTRA's dealer hands out ``n`` share *slots* once, at setup; those slots
are fixed for the lifetime of the deployment (the threshold schemes are
dealt for exactly ``n`` evaluation points).  What *can* change is which
operational replica currently holds each slot.  A :class:`Roster` is that
mapping — ``members[slot]`` is the uid of the replica occupying slot
``slot``, or ``None`` while the slot is vacant (a retired replica whose
successor has not joined yet).  Every roster belongs to a membership
*epoch*; applying a :class:`MembershipChange` yields the epoch ``e + 1``
roster.

Reconfiguration rides the total order: :func:`make_reconfig_command`
wraps a change in a tagged payload that is submitted like any other
request.  Whichever replica's copy commits first wins; replicas parse
delivered payloads with :func:`parse_reconfig_command` and treat the
first command matching their current epoch as the epoch barrier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import ConfigError, EncodingError
from repro.core.schema import Maybe, OneOf, conforms

CHANGE_REFRESH = "refresh"
CHANGE_REPLACE = "replace"
CHANGE_RETIRE = "retire"
CHANGE_JOIN = "join"

_CHANGE_KINDS = (CHANGE_REFRESH, CHANGE_REPLACE, CHANGE_RETIRE, CHANGE_JOIN)

_COMMAND_TAG = "sintra-reconfig"
#: (tag, epoch, kind, slot, member); a refresh names no slot or member
_COMMAND = (OneOf(_COMMAND_TAG), int, str, Maybe(int), Maybe(str))


@dataclass(frozen=True)
class MembershipChange:
    """One epoch step.

    ``refresh``  — no membership change; rotate key shares only
                   (proactive refresh against a mobile adversary).
    ``replace``  — ``member`` takes over ``slot`` from its current holder.
    ``retire``   — vacate ``slot`` (its holder leaves; no successor yet).
    ``join``     — ``member`` fills the vacant ``slot``.
    """

    kind: str
    slot: Optional[int] = None
    member: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _CHANGE_KINDS:
            raise ConfigError(f"unknown membership change kind {self.kind!r}")
        if self.kind == CHANGE_REFRESH:
            if self.slot is not None or self.member is not None:
                raise ConfigError("refresh takes no slot or member")
        elif self.kind == CHANGE_RETIRE:
            if self.slot is None or self.member is not None:
                raise ConfigError("retire takes a slot and no member")
        else:
            if self.slot is None or not self.member:
                raise ConfigError(f"{self.kind} takes a slot and a member uid")


@dataclass(frozen=True)
class Roster:
    """The slot → member-uid mapping for one membership epoch."""

    epoch: int
    members: Tuple[Optional[str], ...]

    @classmethod
    def initial(cls, n: int, uids: Optional[Tuple[str, ...]] = None) -> "Roster":
        if uids is None:
            uids = tuple(f"replica-{i}" for i in range(n))
        if len(uids) != n:
            raise ConfigError(f"expected {n} uids, got {len(uids)}")
        return cls(epoch=0, members=tuple(uids))

    @property
    def n(self) -> int:
        return len(self.members)

    def vacancies(self) -> int:
        return sum(1 for m in self.members if m is None)

    def slot_of(self, member: str) -> Optional[int]:
        for slot, uid in enumerate(self.members):
            if uid == member:
                return slot
        return None

    def apply(self, change: MembershipChange, t: int) -> "Roster":
        """The epoch ``e + 1`` roster, or :class:`ConfigError` if the
        change is inadmissible (bad slot, occupancy conflict, duplicate
        uid, or more than ``t`` vacant slots — beyond ``t`` vacancies the
        remaining group could not even clear the ``n - t`` agreement
        threshold, so the change would wedge the channel)."""
        members = list(self.members)
        if change.kind != CHANGE_REFRESH:
            slot = change.slot
            assert slot is not None
            if not 0 <= slot < len(members):
                raise ConfigError(f"slot {slot} out of range for n={len(members)}")
            if change.member is not None:
                if change.member in members and members.index(change.member) != slot:
                    raise ConfigError(
                        f"member {change.member!r} already holds another slot"
                    )
            if change.kind == CHANGE_REPLACE:
                if members[slot] is None:
                    raise ConfigError(f"slot {slot} is vacant; use join")
                members[slot] = change.member
            elif change.kind == CHANGE_RETIRE:
                if members[slot] is None:
                    raise ConfigError(f"slot {slot} is already vacant")
                members[slot] = None
            else:  # join
                if members[slot] is not None:
                    raise ConfigError(f"slot {slot} is occupied; use replace")
                members[slot] = change.member
        nxt = Roster(epoch=self.epoch + 1, members=tuple(members))
        if nxt.vacancies() > t:
            raise ConfigError(
                f"change would leave {nxt.vacancies()} vacant slots (> t={t})"
            )
        return nxt

    def digest(self) -> bytes:
        return hashlib.sha256(encode((self.epoch, list(self.members)))).digest()

    def short_digest(self) -> bytes:
        """The 8-byte prefix carried in client reply frames."""
        return self.digest()[:8]


def make_reconfig_command(epoch: int, change: MembershipChange) -> bytes:
    """The ordered-request payload for a change applied at ``epoch``."""
    return encode((_COMMAND_TAG, epoch, change.kind, change.slot, change.member))


def parse_reconfig_command(payload: bytes):
    """``(epoch, MembershipChange)`` if ``payload`` is a reconfiguration
    command, else ``None`` (ordinary application payloads never collide:
    the canonical encoding of the tagged tuple is unambiguous)."""
    try:
        value = decode(payload)
    except EncodingError:
        return None
    if not conforms(_COMMAND, value):
        return None
    _tag, epoch, kind, slot, member = value
    try:
        change = MembershipChange(kind=kind, slot=slot, member=member)
    except ConfigError:
        return None
    return epoch, change


__all__ = [
    "CHANGE_JOIN",
    "CHANGE_REFRESH",
    "CHANGE_REPLACE",
    "CHANGE_RETIRE",
    "MembershipChange",
    "Roster",
    "make_reconfig_command",
    "parse_reconfig_command",
]
