"""Fixtures shared by every test module."""

from collections import OrderedDict

import pytest


@pytest.fixture(autouse=True)
def empty_basis_table(monkeypatch):
    """An empty basis store and a zero byte count for each test, the
    process's own restored after it.

    Build counts then do not depend on which tests ran before.
    """
    from markovsharp import markov

    monkeypatch.setattr(markov, "_BASES", OrderedDict())
    monkeypatch.setattr(markov, "_BASES_BYTES", 0)
