"""Shared fixtures: the built-in seed plans and the constructed families.

Construction is the expensive part (each family re-verifies itself), so
everything here is session-scoped and shared across test modules.
"""

import os
from pathlib import Path

import pytest

import orthoplan
from orthoplan import (
    construct_asym,
    construct_potb2,
    construct_potb3,
    construct_potp,
    seed_plans,
)


@pytest.fixture(scope="session")
def seeds():
    return seed_plans()


@pytest.fixture(scope="session")
def potb27(seeds):
    return seeds["potb_2_7"]


@pytest.fixture(scope="session")
def ico26(seeds):
    return seeds["ico_2_6"]


@pytest.fixture(scope="session")
def potb33(seeds):
    return seeds["potb_3_3"]


@pytest.fixture(scope="session")
def potp34(seeds):
    return seeds["potp_3_4"]


@pytest.fixture(scope="session")
def potp43():
    return construct_potp(4, 3)


@pytest.fixture(scope="session")
def potp47():
    return construct_potp(4, 7)


@pytest.fixture(scope="session")
def potb2_14():
    return construct_potb2(2)


@pytest.fixture(scope="session")
def potb2_28():
    return construct_potb2(4)


@pytest.fixture(scope="session")
def potb3_15():
    return construct_potb3()


@pytest.fixture(scope="session")
def asym3():
    return construct_asym(3)


@pytest.fixture(scope="session")
def asym7():
    return construct_asym(7)


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(module, name, calls=None)`` replaces ``module.name``
    by a wrapper that appends the positional arguments of each call to
    ``calls`` (a new list unless given) and returns that list."""
    def record(module, name, calls=None):
        calls = [] if calls is None else calls
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls
    return record


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter that imports this orthoplan."""
    src = str(Path(orthoplan.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
