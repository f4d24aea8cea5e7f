"""Shared fixtures: dealt groups are expensive, so they are cached per
configuration and session-scoped.

Also wires the fuzz harness (``tests/fuzz``) into pytest: ``--fuzz-seed``
sets the campaign root seed (any string; hashed if not an integer) and
``--fuzz-iterations`` the number of cases per scenario/configuration.
Seeded chaos tests report a failure through the ``chaos_repro`` fixture.
"""

from __future__ import annotations

import pytest

from repro.common.rng import parse_seed
from repro.crypto.dealer import fast_group
from repro.crypto.params import SecurityParams
from repro.testing.case import write_repro
from repro.testing.schedule import default_group

_GROUP_CACHE = {}


def pytest_collection_modifyitems(items):
    """Everything under tests/fuzz carries the ``fuzz`` marker, everything
    under tests/adversary the ``adversary`` marker, and everything under
    tests/heal the ``heal`` marker."""
    for item in items:
        path = str(getattr(item, "path", ""))
        if "/fuzz/" in path:
            item.add_marker(pytest.mark.fuzz)
        if "/adversary/" in path:
            item.add_marker(pytest.mark.adversary)
        if "/heal/" in path:
            item.add_marker(pytest.mark.heal)


def pytest_addoption(parser):
    group = parser.getgroup("fuzz", "seeded schedule/Byzantine fuzzing")
    group.addoption(
        "--fuzz-seed",
        default="0xS1NTRA",
        help="root seed for fuzz campaigns (int, hex, or arbitrary string)",
    )
    group.addoption(
        "--fuzz-iterations",
        type=int,
        default=5,
        help="fuzz cases per scenario and group configuration",
    )


@pytest.fixture(scope="session")
def fuzz_seed(request):
    """The campaign root seed as an integer."""
    return parse_seed(request.config.getoption("--fuzz-seed"))


@pytest.fixture(scope="session")
def fuzz_iterations(request):
    return request.config.getoption("--fuzz-iterations")


@pytest.fixture
def chaos_repro(request, fuzz_seed):
    """Call on failure: prints this test's ``CHAOS-REPRO`` line, which
    re-runs it under the same seed, and records it in ``$REPRO_FILE``."""

    def emit() -> None:
        print(write_repro([
            f"CHAOS-REPRO: PYTHONPATH=src python -m pytest "
            f"{request.node.nodeid} --fuzz-seed={hex(fuzz_seed)}"
        ]))

    return emit


def cached_group(n=4, t=1, sig_mode="multi", seed=1):
    """Deal (or reuse) a toy group for tests."""
    key = (n, t, sig_mode, seed)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = fast_group(
            n, t, SecurityParams.toy(), sig_mode=sig_mode, seed=seed
        )
    return _GROUP_CACHE[key]


@pytest.fixture(scope="session")
def group4():
    """The standard n=4, t=1 multi-signature group."""
    return default_group(4, 1)


@pytest.fixture(scope="session")
def group4_shoup():
    """n=4, t=1 with Shoup threshold signatures."""
    return cached_group(4, 1, "shoup")


@pytest.fixture(scope="session")
def group7():
    """The paper's hybrid-size group: n=7, t=2."""
    return default_group(7, 2)
