"""Span tracing of the spincm layers, installed from outside the package.

Every public function of a layer module, and every public method of the
classes it defines, is replaced by a wrapper that records one span: its
name, start, end, parent span and the operation (root span) it belongs to.
The wrapper is installed in every spincm module namespace that holds the
function, so calls between layers are seen however the name was imported.
Spans stay in memory until the benchmark writes them at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "spincm"
#: the layers of the package, one module each, in call order from the top
LAYERS = ("cli", "verify", "kp", "flows", "lax", "phase")


def _public_callables(module, layer):
    """(owner, attribute, function, span name) for each public function the
    module defines and each public plain method of the classes it defines."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for mname, meth in vars(obj).items():
                if not mname.startswith("_") and inspect.isfunction(meth):
                    out.append((obj, mname, meth, f"{layer}.{obj.__name__}.{mname}"))
    return out


class Tracer:
    """Records spans while installed (``with tracer:``); restores the
    original functions on exit."""

    def __init__(self):
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self._ids = itertools.count(1)
        self._stack = [None]
        self._op = None
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self._op, name, t0, t1))

        return wrapper

    def __enter__(self):
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for owner, attr, fn, name in _public_callables(module, layer):
                wrappers[id(fn)] = self._wrap(name, fn)
                if inspect.isclass(owner):
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, wrappers[id(fn)])
        for module in modules:
            for attr, val in list(vars(module).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    self._restore.append((module, attr, val))
                    setattr(module, attr, wrappers[id(val)])
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    def op(self, name, fn):
        """Run fn() as one operation under a root span; returns its result."""
        sid = next(self._ids)
        self._op = sid
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, None, sid, name, t0, t1))
            self._op = None

    def write(self, path, env, keep_ops):
        """Write the spans of the given operations as gzipped JSON."""
        rows = [s for s in self.spans if s[2] in keep_ops]
        with gzip.open(path, "wt") as fh:
            json.dump({"env": env, "columns": ["id", "parent", "op", "name", "start", "end"],
                       "spans": rows}, fh)
        return len(rows)


def self_times(spans):
    """{op id: {layer: self seconds}}; self time is a span's duration minus
    the time its child spans cover. Root spans count as layer 'bench'."""
    child = defaultdict(float)
    for sid, parent, op, name, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = defaultdict(lambda: defaultdict(float))
    for sid, parent, op, name, t0, t1 in spans:
        layer = name.split(".", 1)[0] if parent is not None else "bench"
        out[op][layer] += (t1 - t0) - child[sid]
    return out


def count_under(spans, name, ancestor):
    """Number of spans called `name` that run inside a span called `ancestor`."""
    by_id = {s[0]: s for s in spans}
    n = 0
    for s in spans:
        if s[3] != name:
            continue
        parent = s[1]
        while parent is not None:
            if by_id[parent][3] == ancestor:
                n += 1
                break
            parent = by_id[parent][1]
    return n
