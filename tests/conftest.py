"""Fixtures shared across the test modules."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def child_env():
    """A function returning ``os.environ`` plus its keyword overrides, with
    the package's src directory first on PYTHONPATH, for a test that starts
    a child Python: pytest's ``pythonpath`` setting reaches only pytest's
    own process."""
    def build(**overrides) -> dict:
        env = dict(os.environ, **overrides)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return env
    return build
