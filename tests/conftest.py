"""Fixtures shared by every test module."""

import weakref

import pytest


@pytest.fixture(autouse=True)
def empty_basis_table(monkeypatch):
    """An empty basis table for each test, the process's own restored after it.

    Build counts then do not depend on which tests ran before.
    """
    from markovsharp import markov

    monkeypatch.setattr(markov, "_BASES", weakref.WeakKeyDictionary())
