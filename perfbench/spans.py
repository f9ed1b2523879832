"""In-memory span recorder that wraps markovsharp's public functions.

``Tracer.install`` replaces every public function of the traced modules with
a timing wrapper.  Because ``from .x import y`` copies a binding into the
importing module, the wrapper is written into every markovsharp module that
holds the original object (``markov.svd_largest`` as well as
``linalg.svd_largest``).  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, request_id, attrs]``: ``parent`` is the
index of the enclosing span in the same list (-1 at top level) and ``attrs``
carries the work counts of the layers that have them.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

MODULES = ("orthopoly", "quadrature", "_kernels", "markov", "linalg", "bounds", "cli")


def _key(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


def _attrs(name: str, args, out) -> dict:
    """Work counts for the layers whose metrics need them.

    Reads positional arguments as the package passes them today; a call made
    another way records no counts rather than failing the traced call.
    """
    try:
        if name == "quadrature.composite_rule":
            return {"nodes": int(out.nodes.shape[0])}
        if name in ("quadrature.gauss_rule", "markov.basis_for"):
            return {"key": _key(args[0].weight_id, args[1])}
        if name == "kernels.stieltjes":
            return {"node_steps": int(args[0].shape[0]) * int(args[2])}
        if name in ("kernels.poly_table", "kernels.deriv_tables"):
            return {"points": int(args[3].shape[0])}
    except (AttributeError, IndexError, TypeError):
        pass
    return {}


class Tracer:
    """Records spans while installed; one tracer per process."""

    def __init__(self):
        self.spans: list = []
        self.request_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = _attrs(name, args, out) if out is not None else {}
                spans[idx] = [name, start, end, parent, self.request_id, attrs]

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced module that is imported."""
        if self._saved:
            return
        wrappers = {}
        for short in MODULES:
            module = sys.modules.get(f"markovsharp.{short}")
            if module is None:
                continue
            # Aliases (``poly_table = poly_table_numpy``) take the shortest name.
            for attr in sorted(vars(module), key=len):
                obj = getattr(module, attr)
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or id(obj) in wrappers):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short.lstrip('_')}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "markovsharp" and not name.startswith("markovsharp."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved.clear()

    def drain(self) -> list:
        """Hand over the recorded spans; call only between top-level calls."""
        out = list(self.spans)
        self.spans.clear()
        return out
