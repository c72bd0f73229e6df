"""In-memory span tracer for the covrate benchmark.

The tracer times covrate's layers from outside: :meth:`Tracer.install`
replaces every public function of the traced modules, and the ``__init__`` of
every validating dataclass they define, with a wrapper that records a span.
Because the package imports by name (``from .spd import psd_leq``), the
wrapper is also bound in place of the original in every ``covrate`` module
that holds it, so calls between layers are seen.  ``numpy.linalg`` is wrapped
to count LAPACK calls, attributed to the innermost open span, and the
``bisect`` bound in ``covrate.special`` and ``covrate.fusion`` is wrapped to
count root-finder evaluations.  :meth:`Tracer.remove` restores every binding.

Spans are kept in memory as parallel arrays (name id, start, end, parent,
op id) and written out by :meth:`Tracer.dump` as one ``.npz`` file.
Wrappers record only while :attr:`Tracer.active` is true, so the
benchmark's own output checks, which call the same functions, are not
traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Modules whose public functions and validating constructors get spans.
LAYERS = ("spd", "model", "rdf", "special", "fusion", "jsonio")

#: numpy.linalg entry points by the kind of LAPACK work they do.
EIG_FUNCS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "pinv", "cond")
FACTOR_FUNCS = ("cholesky", "solve", "inv", "det", "slogdet", "lstsq", "qr")

#: Functions whose boolean outcome is counted (``<name>.true`` counters).
OUTCOMES = {
    "spd.psd_leq": bool,
    "fusion.highrate_allocate": lambda res: bool(res.valid),
}

#: Module binding of scipy's ``bisect`` -> counter name for its evaluations.
ROOTFINDERS = {
    "special": "special.rootfind_evals",
    "fusion": "fusion.highrate.rootfind_evals",
}


class Tracer:
    """Span and counter recorder; one per traced phase."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.wrapped: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _layer_of_innermost(self) -> str:
        if not self.stack:
            return "bench"
        return self.names[self.name_ids[self.stack[-1]]].split(".", 1)[0]

    # ---- wrapper factories -------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        outcome = OUTCOMES.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if outcome is not None:
                counts[name + ".true"] += outcome(out)
            return out

        return wrapper

    def _lapack_wrapper(self, fn, kind: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[f"{self._layer_of_innermost()}.{kind}_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bisect_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not self.active:
                return fn(f, *args, **kwargs)

            def counted(x, *fargs):
                counts[counter] += 1
                return f(x, *fargs)

            return fn(counted, *args, **kwargs)

        return wrapper

    # ---- install / remove --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced layer; undo with :meth:`remove`."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"covrate.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    if "__post_init__" in vars(obj):
                        self._set(obj, "__init__", self._span_wrapper(obj.__init__, name))
                        self.wrapped.append(name)
                elif callable(obj):
                    replaced[id(obj)] = self._span_wrapper(obj, name)
                    self.wrapped.append(name)
        # Rebind every name that holds a wrapped function, in every covrate
        # module (the package re-exports and cross-module imports).
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "covrate" or modname.startswith("covrate.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        for kind, funcs in (("eig", EIG_FUNCS), ("factor", FACTOR_FUNCS)):
            for fname in funcs:
                self._set(np.linalg, fname, self._lapack_wrapper(getattr(np.linalg, fname), kind))
        for layer, counter in ROOTFINDERS.items():
            mod = sys.modules[f"covrate.{layer}"]
            self._set(mod, "bisect", self._bisect_wrapper(mod.bisect, counter))

    def remove(self) -> None:
        """Restore every binding :meth:`install` replaced, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        self.remove()

    # ---- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct child spans cover."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(n)]

    def summarize(self, op_class: list[str]) -> dict[str, dict[str, float]]:
        """Per span name, and per ``name@class`` with ``op_class[op]`` the
        class of each op: call count and total inclusive and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(selfs):
            name = self.names[self.name_ids[i]]
            for key in (name, f"{name}@{op_class[self.ops[i]]}"):
                row = out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["incl_s"] += self.ends[i] - self.starts[i]
                row["self_s"] += s
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        cid = self._name_ids.get(child)
        pid = self._name_ids.get(parent)
        if cid is None or pid is None:
            return 0
        nids, parents = self.name_ids, self.parents
        return sum(
            1
            for i in range(len(nids))
            if nids[i] == cid and parents[i] >= 0 and nids[parents[i]] == pid
        )

    def dump(self, path: Path) -> None:
        """Write the spans as numpy arrays: ``names`` and, per span,
        ``name_id``, ``start``, ``end`` (perf_counter seconds), ``parent``
        (span index or -1) and ``op``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.intc),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.intc),
            op=np.frombuffer(self.ops, dtype=np.intc),
        )
