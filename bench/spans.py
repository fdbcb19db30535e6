"""In-memory span tracer for the traced benchmark run.

Spans are recorded by wrappers that the benchmark installs at
module-attribute level; the package source is not modified.  Layer spans
wrap the public entry points of the absnorm modules, kernel spans wrap
the numpy routines those layers call.  Every module attribute that refers
to a wrapped function is replaced, so calls between layers (``mu_bounds``
calling ``sign_equivalent_to_abs``, ``verify_norm_axioms`` calling
``eval_norm``) nest.  A kernel call nests under whichever layer span is
open in the main thread, including calls made from the library's worker
threads.

Wrappers pass straight through while the tracer is paused, so the
benchmark's own correctness checks are never measured.
"""

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYER_FUNCTIONS = {
    "bounds": ("mu_bounds", "mu_lower_bound", "mu_upper_bound", "check_growth_condition"),
    "diagonals": ("enumerate_sign_diagonals", "enumerate_phase_diagonals", "word_product"),
    "signequiv": ("sign_equivalent_to_abs", "is_nonnegative"),
    "perron": ("nonneg_spectral_radius", "optimal_weighted_l1"),
    "extremal": ("build_norm", "eval_norm", "verify_norm_axioms", "contraction_check"),
    "cli": ("main",),
}
KERNELS = (("linalg", "eigvals"), ("linalg", "svd"), ("linalg", "solve"), (None, "einsum"))


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.attrs = {}


class Tracer:
    """Span recorder shared by all wrappers of one benchmark process."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.job = None
        self._stack = []
        self._main = threading.get_ident()

    @contextmanager
    def job_scope(self, name):
        """Tag every span opened inside with the job (request) identifier."""
        self.job = name
        try:
            yield
        finally:
            self.job = None

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _parent(self):
        return self._stack[-1] if self._stack else -1

    def wrap_layer(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def layer(*args, **kwargs):
            if not self.active or threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), self._parent(), self.job)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                if annotate is not None:
                    span.attrs.update(annotate(args, None, exc))
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.attrs.update(annotate(args, out, None))
            return out

        return layer

    def wrap_kernel(self, name, fn):
        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            span = Span(name, start, self._parent(), self.job)
            span.end = end
            shape = getattr(args[0], "shape", ()) if args else ()
            stacked = 1
            for d in shape[:-2]:
                stacked *= int(d)
            first = out[0] if isinstance(out, tuple) else out
            span.attrs = {"matrices": stacked, "bytes": int(getattr(first, "nbytes", 0))}
            self.spans.append(span)
            return out

        return kernel

    def install_kernels(self):
        """Wrap the numpy kernels; call before absnorm is imported."""
        for sub, fname in KERNELS:
            owner = getattr(np, sub) if sub else np
            setattr(owner, fname, self.wrap_kernel(f"numpy.{fname}", getattr(owner, fname)))

    def install_layers(self):
        """Wrap the public layer functions everywhere absnorm refers to them."""
        modules = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "absnorm"}
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            mod = modules.get(f"absnorm.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    wrappers[id(fn)] = self.wrap_layer(
                        f"{layer}.{fname}", fn, _ANNOTATORS.get(fname)
                    )
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    setattr(mod, attr, wrappers[id(value)])

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "job": s.job,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def _bounds_attrs(args, out, exc):
    if out is None:
        return {}
    return {"nodes": int(out.nodes_visited), "shortcut": out.shortcut}


def _perron_attrs(args, out, exc):
    return {"iterations": int(out.iterations if out is not None else getattr(exc, "iterations", 0))}


def _letters_attrs(args, out, exc):
    return {"letters": len(out) if out is not None else 0}


def _edges_attrs(args, out, exc):
    a = args[0]
    return {"edges": int(np.count_nonzero(getattr(a, "arr", a)))}


_ANNOTATORS = {
    "mu_bounds": _bounds_attrs,
    "nonneg_spectral_radius": _perron_attrs,
    "enumerate_sign_diagonals": _letters_attrs,
    "enumerate_phase_diagonals": _letters_attrs,
    "sign_equivalent_to_abs": _edges_attrs,
}


def self_times(spans):
    """Duration of each span minus the union of its children's intervals.

    Children can overlap when the library runs kernels in worker threads,
    so covered time is the union, not the sum.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[k].start, reach), min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def within(spans, name):
    """Flags: span i is ``name`` or lies inside a span called ``name``."""
    flags = []
    for s in spans:
        flags.append(s.name == name or (s.parent >= 0 and flags[s.parent]))
    return flags
