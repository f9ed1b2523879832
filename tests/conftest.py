"""Fixtures shared by every test module."""

from collections import OrderedDict

import pytest


@pytest.fixture(autouse=True)
def no_kept_bases():
    """Each test starts with no kept basis in the process's store, while the
    reference rules kept there persist across tests, as in a long-running
    process.

    Basis build counts then do not depend on which tests ran before.
    """
    from markovsharp import quadrature

    for key in [key for key in quadrature._STORE if isinstance(key, str)]:
        quadrature._STORE_BYTES -= quadrature._STORE.pop(key)[1]


@pytest.fixture
def empty_store(monkeypatch):
    """An empty store of its own for the test, with a zero byte total, the cold
    case; the process's own store is back afterwards."""
    from markovsharp import quadrature

    store = OrderedDict()
    monkeypatch.setattr(quadrature, "_STORE", store)
    monkeypatch.setattr(quadrature, "_STORE_BYTES", 0)
    return store
