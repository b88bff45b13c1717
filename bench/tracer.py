"""Outside-in span tracer for the partition_ot package.

`Tracer.install()` replaces every public function of every
``partition_ot.*`` module, and every public method of the classes those
modules define, with a wrapper that records one span per call.  A function
bound under several names (``wasserstein`` lives in ``transport`` and is
re-bound in ``theorems``, ``cli`` and the package root) gets one wrapper,
set in every namespace that binds it, so every call path is seen.  Spans
are tagged with the module that defines the function: that module is the
layer.  The package source is never edited.

Generator functions are left unwrapped: a span around one would close
before the generator runs.  Their work is charged to the span that
consumes them.  Private names (leading underscore) are never wrapped, so
helpers such as the solver core count toward their public caller.

Spans live in memory as flat int64 arrays until `write` dumps them; `summarize`
reduces them to per-layer self times, per-function inclusive times and
call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

PACKAGE = "partition_ot"

# Arguments or results a few functions expose for size counters:
# function name -> callable(args, result) -> (rows, cols).
SIZE_PROBES = {
    "transport.cost_matrix": lambda args, result: (result.rows, result.cols),
    "transport.solve_assignment": lambda args, result: (args[0].rows, args[0].cols),
}


class Tracer:
    """Records (name, layer, start, end, parent, op) spans for wrapped calls."""

    def __init__(self):
        self.names = []  # function index -> (qualified name, layer)
        # One slot per span, in call order (a parent precedes its children).
        self.starts = array("q")  # perf_counter_ns
        self.ends = array("q")
        self.parents = array("q")  # span index of the caller, -1 at the root
        self.ops = array("q")  # op id the span belongs to
        self.fn_index = array("q")  # index into `names`
        self.sizes = {}  # function name -> [(rows, cols), ...]
        self.op = 0
        self._stack = []
        self._restore = []

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        root = importlib.import_module(PACKAGE)
        mods = [root]
        for info in pkgutil.iter_modules(root.__path__):
            mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
        return mods

    def install(self):
        wrappers = {}  # original function -> wrapper, shared across namespaces
        classes = set()  # a class is bound in several namespaces too
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if self._traceable(obj):
                    self._bind(mod, attr, obj, self._wrapper_for(obj, wrappers))
                elif inspect.isclass(obj) and self._owns(obj) and obj not in classes:
                    classes.add(obj)
                    self._wrap_class(obj, wrappers)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @staticmethod
    def _owns(obj):
        module = getattr(obj, "__module__", "") or ""
        return module == PACKAGE or module.startswith(PACKAGE + ".")

    def _traceable(self, obj):
        return (
            inspect.isfunction(obj)
            and self._owns(obj)
            and not inspect.isgeneratorfunction(obj)
        )

    def _wrap_class(self, cls, wrappers):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                if self._traceable(raw.__func__):
                    wrapped = type(raw)(self._wrapper_for(raw.__func__, wrappers))
                    self._bind(cls, attr, raw, wrapped)
            elif self._traceable(raw):
                self._bind(cls, attr, raw, self._wrapper_for(raw, wrappers))

    def _bind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def _wrapper_for(self, fn, wrappers):
        if fn not in wrappers:
            layer = fn.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{fn.__qualname__}"
            self.names.append((name, layer))
            wrappers[fn] = self._make_wrapper(fn, len(self.names) - 1, name)
        return wrappers[fn]

    def _make_wrapper(self, fn, index, name):
        clock = time.perf_counter_ns
        stack = self._stack
        starts, ends, parents = self.starts, self.ends, self.parents
        ops, fn_index = self.ops, self.fn_index
        probe = SIZE_PROBES.get(name)
        sizes = self.sizes.setdefault(name, []) if probe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            fn_index.append(index)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if probe is not None:
                sizes.append(probe(args, result))
            return result

        return traced

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Dump every span: one JSON header line, then five int64 columns.

        The header names the columns (start, end, parent, op, function
        index, each `count` native-endian int64 values, in that order) and
        holds the function table mapping an index to (name, layer).
        """
        columns = (self.starts, self.ends, self.parents, self.ops, self.fn_index)
        header = {
            "columns": ["start_ns", "end_ns", "parent", "op", "function"],
            "count": len(self.starts),
            "functions": self.names,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
            for column in columns:
                column.tofile(fh)

    def summarize(self):
        """Per-layer self time, per-function inclusive time, counts and sizes.

        Self time of a span is its duration minus the durations of its
        direct children.  Inclusive time of a function counts only its
        outermost spans, so recursion is not double counted.  Times are
        in seconds.
        """
        n = len(self.starts)
        dur = [self.ends[k] - self.starts[k] for k in range(n)]
        child_ns = [0] * n
        for k in range(n):
            p = self.parents[k]
            if p >= 0:
                child_ns[p] += dur[k]
        layer_self = {}
        fn_incl = {}
        fn_calls = {}
        root_ns = 0
        open_spans = []  # ancestors of the current span, outermost first
        open_fns = {}  # function index -> how often it is on open_spans
        for k in range(n):
            parent = self.parents[k]
            while open_spans and open_spans[-1] != parent:
                open_fns[self.fn_index[open_spans.pop()]] -= 1
            fn = self.fn_index[k]
            name, layer = self.names[fn]
            layer_self[layer] = layer_self.get(layer, 0) + dur[k] - child_ns[k]
            fn_calls[name] = fn_calls.get(name, 0) + 1
            if parent < 0:
                root_ns += dur[k]
            if not open_fns.get(fn):
                fn_incl[name] = fn_incl.get(name, 0) + dur[k]
            open_spans.append(k)
            open_fns[fn] = open_fns.get(fn, 0) + 1
        sizes = {
            name: {
                "calls": len(dims),
                "entries": sum(r * c for r, c in dims),
                "n3_sum": sum(r**3 for r, _ in dims),
                "n_max": max((r for r, _ in dims), default=0),
            }
            for name, dims in self.sizes.items()
        }
        return {
            "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
            "fn_inclusive_s": {k: v / 1e9 for k, v in fn_incl.items()},
            "fn_calls": fn_calls,
            "root_s": root_ns / 1e9,
            "spans": n,
            "sizes": sizes,
        }
