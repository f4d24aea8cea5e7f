"""The disabled recorder must cost nothing on the hot path.

The <5% wall-clock criterion is enforced structurally rather than with a
flaky timing assertion: every instrumented call site guards with
``if obs.enabled:``, so with a disabled recorder no instrument method may
ever be invoked.  ``RaisingRecorder`` turns any violation into a loud
test failure on a real protocol run.
"""

from repro.core.agreement.binary import MSG_COIN, BinaryAgreement
from repro.core.protocol import Router
from repro.experiments import LAN_SETUP, run_channel_experiment
from repro.obs.recorder import Recorder

from tests.conftest import cached_group
from tests.helpers import MockContext


class RaisingRecorder(Recorder):
    """Disabled recorder whose instruments explode if ever called."""

    enabled = False

    def _boom(self, *a, **k):
        raise AssertionError(
            "instrument method called while recorder is disabled — "
            "a call site is missing its 'if obs.enabled:' guard"
        )

    count = _boom
    set_gauge = _boom
    observe = _boom
    span = _boom
    phase = _boom
    phase_end = _boom


def test_disabled_recorder_never_invoked_on_protocol_hot_path():
    # A full atomic-broadcast run through the instrumented stack: channel
    # send/deliver, protocol phases, router dispatch, sim CPU accounting.
    result = run_channel_experiment(
        LAN_SETUP, "atomic", senders=[0], messages=6, seed=3,
        recorder=RaisingRecorder(),
    )
    assert result.count == 6


def test_disabled_recorder_never_invoked_on_secure_channel():
    # The secure channel exercises the threshold-decryption instruments.
    result = run_channel_experiment(
        LAN_SETUP, "secure", senders=[0], messages=6, seed=3,
        recorder=RaisingRecorder(),
    )
    assert result.count == 6


def test_disabled_recorder_never_invoked_on_router_rejection():
    # A malformed message stops at the router's schema check and is
    # recorded, without touching the disabled recorder.
    router = Router(recorder=RaisingRecorder())
    ctx = MockContext(cached_group())
    ctx.router = router
    agreement = BinaryAgreement(ctx, "noop-reject")
    router.dispatch(1, agreement.pid, MSG_COIN, "not a coin share")
    router.dispatch(1, agreement.pid, "undeclared", None)
    assert [str(exc) for _pid, _sender, exc in router.errors] == [
        f"malformed {MSG_COIN}", "malformed undeclared",
    ]
