"""Fixtures shared by every test module."""

import pytest

from hadamard_jsr import chains


@pytest.fixture(autouse=True)
def _cold_bracket_cache():
    """Start each test with an empty set-bracket cache, so that no spy or
    count depends on brackets cached by an earlier test or on test order."""
    chains._brackets.clear()
