"""Declared payload shapes and the one checker for them.

Every protocol declares, next to its ``MSG_*`` constants, the payload
shape of each message type it handles
(:attr:`repro.core.protocol.Protocol.schemas`), and the router checks
each message against it before the handler runs; values decoded from
bytes inside a message are checked with the same :func:`conforms`.

A shape is a type (``isinstance`` semantics, so a ``bool`` passes as an
``int``), a tuple of shapes (a tuple of exactly that arity), or a
:class:`Rule`: :data:`NAT` / :data:`POS`, :class:`ListOf`, :class:`OneOf`,
:class:`Maybe` and :data:`ANY` — the last for a field whose check depends
on another field's value.  Such checks, and every check of values
(quorums, freshness, signatures), stay in the handlers.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union


class Rule:
    """A shape that is neither a type nor a tuple of shapes."""

    def accepts(self, value: Any) -> bool:
        raise NotImplementedError


Shape = Union[type, Rule, Tuple[Any, ...]]


def conforms(shape: Shape, value: Any) -> bool:
    """Does ``value`` have the declared ``shape``?  Walks it once."""
    if isinstance(shape, tuple):
        if not isinstance(value, tuple) or len(value) != len(shape):
            return False
        for field, item in zip(shape, value):
            # the common leaf cases inline: this runs for every message
            if isinstance(field, type):
                if not isinstance(item, field):
                    return False
            elif isinstance(field, Rule):
                if not field.accepts(item):
                    return False
            elif not conforms(field, item):
                return False
        return True
    if isinstance(shape, type):
        return isinstance(value, shape)
    return shape.accepts(value)


class AtLeast(Rule):
    """An ``int`` no smaller than ``low``."""

    def __init__(self, low: int) -> None:
        self.low = low

    def accepts(self, value: Any) -> bool:
        return isinstance(value, int) and value >= self.low


class ListOf(Rule):
    """A list of ``min_len`` to ``max_len`` items (``None``: no upper
    bound), each of the shape ``item``."""

    def __init__(self, item: Shape, max_len: Optional[int] = None, min_len: int = 0) -> None:
        self.item = item
        self.max_len = max_len
        self.min_len = min_len

    def accepts(self, value: Any) -> bool:
        if not isinstance(value, list) or len(value) < self.min_len:
            return False
        if self.max_len is not None and len(value) > self.max_len:
            return False
        shape = self.item
        for item in value:
            if not conforms(shape, item):
                return False
        return True


class OneOf(Rule):
    """One of the given constants (compared with ``in``)."""

    def __init__(self, *choices: Any) -> None:
        self.choices = choices

    def accepts(self, value: Any) -> bool:
        return value in self.choices


class Maybe(Rule):
    """``None`` or a value of the shape ``inner``."""

    def __init__(self, inner: Shape) -> None:
        self.inner = inner

    def accepts(self, value: Any) -> bool:
        return value is None or conforms(self.inner, value)


class _Any(Rule):
    def accepts(self, value: Any) -> bool:
        return True


#: any value at all
ANY = _Any()
#: a non-negative ``int``
NAT = AtLeast(0)
#: a positive ``int``
POS = AtLeast(1)
