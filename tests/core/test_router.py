"""Router: buffering, replay, tombstones, schema checks, error handling."""

import pytest

from repro.common.errors import InvalidShare, ProtocolError
from repro.core.protocol import Protocol, Router
from repro.core.schema import ANY
from repro.obs.recorder import MemoryRecorder

from tests.conftest import cached_group
from tests.helpers import MockContext


class Recorder(Protocol):
    schemas = {"m": ANY, "ok": ANY, "num": int, "bad-share": ANY, "bug": ANY}

    def __init__(self, ctx, pid):
        super().__init__(ctx, pid)
        self.seen = []

    def on_message(self, sender, mtype, payload):
        if mtype == "bad-share":
            raise InvalidShare("share does not verify")
        if mtype == "bug":
            raise ValueError("a bug in the handler")
        self.seen.append((sender, mtype, payload))


def _ctx():
    return MockContext(cached_group())


def test_dispatch_to_registered():
    ctx = _ctx()
    proto = Recorder(ctx, "p")
    ctx.router.dispatch(1, "p", "m", b"x")
    assert proto.seen == [(1, "m", b"x")]


def test_early_messages_buffered_and_replayed_in_order():
    ctx = _ctx()
    ctx.router.dispatch(1, "late", "m", 1)
    ctx.router.dispatch(2, "late", "m", 2)
    proto = Recorder(ctx, "late")
    assert proto.seen == []  # replay is deferred until construction is done
    ctx.flush()
    assert proto.seen == [(1, "m", 1), (2, "m", 2)]


def test_duplicate_pid_rejected():
    ctx = _ctx()
    Recorder(ctx, "p")
    with pytest.raises(ProtocolError):
        Recorder(ctx, "p")


def test_tombstone_drops_after_halt():
    ctx = _ctx()
    proto = Recorder(ctx, "p")
    proto.halt()
    ctx.router.dispatch(0, "p", "m", b"x")
    assert ctx.router.dropped == 1
    assert proto.seen == []
    with pytest.raises(ProtocolError):
        Recorder(ctx, "p")  # terminated pids cannot be reused


def test_handler_errors_contained():
    """Malformed input and verification failures are recorded against
    their sender; any other handler exception is a bug and propagates."""
    ctx = _ctx()
    obs = MemoryRecorder()
    ctx.router = Router(recorder=obs)
    proto = Recorder(ctx, "p")
    ctx.router.dispatch(2, "p", "num", b"not an int")
    ctx.router.dispatch(3, "p", "undeclared", 7)
    ctx.router.dispatch(1, "p", "bad-share", None)
    ctx.router.dispatch(0, "p", "num", 5)
    assert [(pid, sender, type(exc), str(exc)) for pid, sender, exc in ctx.router.errors] == [
        ("p", 2, ProtocolError, "malformed num"),
        ("p", 3, ProtocolError, "malformed undeclared"),
        ("p", 1, InvalidShare, "share does not verify"),
    ]
    assert proto.seen == [(0, "num", 5)]  # instance keeps working
    assert obs.counters["router.rejected"] == 2
    assert obs.counters["router.rejected.num"] == 1
    assert obs.counters["router.rejected.undeclared"] == 1
    assert obs.counters["router.handler_errors"] == 1
    assert obs.counters["router.dispatched"] == 4
    with pytest.raises(ValueError, match="a bug in the handler"):
        ctx.router.dispatch(0, "p", "bug", None)


def test_observers_see_rejected_messages():
    ctx = _ctx()
    seen = []
    ctx.router.observers.append(lambda *message: seen.append(message))
    proto = Recorder(ctx, "p")
    ctx.router.dispatch(1, "p", "num", "x")
    assert seen == [(1, "p", "num", "x")]
    assert proto.seen == []


def test_forget_clears_sub_protocol_tombstones():
    ctx = _ctx()
    for pid in ("ch", "ch/r.1", "ch/r.1/vba.0", "ch:rec", "other"):
        Recorder(ctx, pid).halt()
    ctx.router.forget("ch")
    for pid in ("ch", "ch/r.1", "ch/r.1/vba.0"):
        Recorder(ctx, pid)  # successors may register the retired ids
    for pid in ("ch:rec", "other"):
        with pytest.raises(ProtocolError):
            Recorder(ctx, pid)


def test_buffer_limit():
    ctx = _ctx()
    ctx.router._buffer_limit = 5
    for i in range(10):
        ctx.router.dispatch(0, "never", "m", i)
    assert ctx.router.dropped == 5


def test_unregister_unknown_is_noop_tombstone():
    ctx = _ctx()
    ctx.router.unregister("ghost")
    ctx.router.dispatch(0, "ghost", "m", None)
    assert ctx.router.dropped == 1


def test_abort_unregisters():
    ctx = _ctx()
    proto = Recorder(ctx, "p")
    proto.abort()
    assert proto.halted
    assert "p" not in ctx.router.active_pids


def test_active_pids():
    ctx = _ctx()
    Recorder(ctx, "b")
    Recorder(ctx, "a")
    assert ctx.router.active_pids == ["a", "b"]
