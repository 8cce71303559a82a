"""Span tracing of the regar layers from outside the package.

``Tracer`` wraps every public function defined in a layer module of
``regar`` and patches each name that refers to it, in every ``regar`` module
and in any extra module the caller names (the benchmark's own workload
code), so a call is traced wherever its caller looks the name up.  Leaving
the ``with`` block restores every patched name.  ``circulant_quadratic_prox``
is a factory: the closure it returns is wrapped as ``fastops.quadratic_prox``.

A span is (name, parent span, start, end); spans live in flat arrays in
memory and are written out once, at the end.  Self time is a span's duration
minus the durations of its child spans (one thread, so children never
overlap).  A few wrapped calls also record exact counts: inner iterations of
``douglas_rachford`` (credited to the calling update as well), missing
samples per Janssen solve and the circulant embedding size.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("pipeline", "solver", "fastops", "prox", "armodel", "framing",
          "metrics", "audio_io", "cli")

_FACTORIES = {"fastops.circulant_quadratic_prox": "fastops.quadratic_prox"}


def _count_dr_iters(tracer, span, args, kwargs, result):
    iters = int(kwargs["iters"] if "iters" in kwargs else args[4])
    tracer.add("solver.douglas_rachford.iters", iters)
    parent = tracer.parent[span]
    if parent >= 0:
        tracer.add(tracer.names[tracer.name[parent]] + ".iters", iters)


def _count_missing(tracer, span, args, kwargs, result):
    reliable = kwargs["reliable"] if "reliable" in kwargs else args[2]
    tracer.add("solver.janssen_signal_update.missing",
               int(np.count_nonzero(~np.asarray(reliable, dtype=bool))))


def _count_embed_len(tracer, span, args, kwargs, result):
    tracer.add("fastops.circulant_embed_filter.L", int(result.L))


_HOOKS = {
    "solver.douglas_rachford": _count_dr_iters,
    "solver.janssen_signal_update": _count_missing,
    "fastops.circulant_embed_filter": _count_embed_len,
}


def layer_functions():
    """(qualified name, function) for every public function of every layer."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"regar.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                out.append((f"{layer}.{attr}", obj))
    return out


class Tracer:
    """Context manager that traces the regar layers while it is active."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.names = []
        self._index = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _name_id(self, qual: str) -> int:
        if qual not in self._index:
            self._index[qual] = len(self.names)
            self.names.append(qual)
        return self._index[qual]

    def wrap(self, qual: str, fn):
        name_id = self._name_id(qual)
        hook = _HOOKS.get(qual)
        closure_name = _FACTORIES.get(qual)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            if closure_name is not None:
                result = self.wrap(closure_name, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        wrappers = {id(fn): (fn, self.wrap(qual, fn)) for qual, fn in layer_functions()}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "regar" or key.startswith("regar.")]
        modules += list(self.extra_modules)
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, busy (inclusive) and self seconds; per layer:
        busy (spans entered from another layer) and self seconds; counts."""
        n_names = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        functions = {q: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                         "self_s": float(own[i])}
                     for i, q in enumerate(self.names)}
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.names]
                            + [-1], dtype=int)
        span_layer = layer_of[name]
        parent_layer = layer_of[np.where(has_parent, name[parent], -1)]
        entered = span_layer != parent_layer
        layers = {}
        for k, layer in enumerate(LAYERS):
            mine = span_layer == k
            layers[layer] = {"busy_s": float(dur[mine & entered].sum()),
                             "self_s": float(self_time[mine].sum())}
        return {"functions": functions, "layers": layers, "counts": dict(self.counts)}

    def save(self, path) -> None:
        """Write every span (name table, name, parent, start, end) to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))
