"""In-memory span tracing of the dirac8 layers, installed from outside.

Each wrapped function records one span per call: name, start, end, the
enclosing span (parent) and the traced unit it belongs to.  Spans are kept in
flat arrays while the run lasts and written out once, when it ends.

Wrappers are installed at every module attribute where callers look a
function up.  ``evolution`` binds ``spin_sector_hamiltonian`` at import time,
for example, so replacing ``matrices.spin_sector_hamiltonian`` alone would
miss its hottest caller; ``install`` therefore replaces each bound copy in all
``dirac8`` modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "chain", "evolution", "matrices", "dispersion", "planewaves", "verify")

# Private functions traced besides every public one.  Hot private helpers
# (``cli._fmt`` runs once per CSV value) stay unwrapped: their time counts as
# self time of the span that calls them.
PRIVATE = {
    "evolution": ("_sector_matrices", "_propagators"),
    "verify": ("_squaring_checks", "_determinant_checks", "_velocity_checks",
               "_eigen_checks", "_amplitude_checks", "_catalog_checks",
               "_chain_checks", "_evolution_checks"),
}


def _sites_stepped(args, kwargs):
    """Lattice sites advanced by one ``chain.step`` call (its state's size).

    Counts 0, rather than failing the unit, if the state loses its ``u`` array.
    """
    state = args[0] if args else kwargs.get("state")
    return getattr(getattr(state, "u", None), "size", 0)


# Work counted at a boundary besides the call count: span name -> extractor.
WORK = {"chain.step": _sites_stepped}


class Tracer:
    """Flat in-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = {}
        self.present: set[str] = set()
        self.current_unit = -1
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_unit(self, unit: int, fn):
        """Call ``fn()`` inside a root span named ``unit``; return its result."""
        self.current_unit = unit
        idx = self._open(self._intern("unit"))
        try:
            return fn()
        finally:
            self._close(idx)

    def wrap(self, qualname: str, fn):
        nid = self._intern(qualname)
        work = WORK.get(qualname)
        self.present.add(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[qualname] = self.work.get(qualname, 0) + work(args, kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so summing self time over a layer's spans gives the time
        spent in that layer's own code.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        own = np.bincount(a["name"], weights=self_time, minlength=n_names)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions (and ``PRIVATE`` ones) of every layer module.

    Traced names are ``<layer>.<function>``; ``tracer.present`` collects them.
    A module or function that no longer exists is skipped; the metrics that
    need it report it as absent.
    """
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"dirac8.{layer}")
        except ModuleNotFoundError:
            continue
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "dirac8" or name.startswith("dirac8."))]
    for layer, mod in modules.items():
        extra = PRIVATE.get(layer, ())
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, traced)
