"""Span tracer that wraps foleyflow's public functions from outside.

install() walks the layer modules and replaces every public function and
every public method of every public class with a wrapper that records
one span per call: name, start, end, parent span, request id and pass
index. Functions are rebound at every foleyflow module that imports
them by name (for example ``model.matmul`` or ``training.backward``),
so calls through either binding are seen. uninstall() restores every
original binding. Spans live in typed arrays in memory and are written
out once, at the end, by dump().

Nothing here knows the shape of the current code beyond the layer names:
tensor op kinds come from ``tensor.__all__``, and whatever exists is
wrapped, so refactors that add a fused op or delete a class keep the
tracer working. ``found`` lists every wrapped name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "tensor",
    "model",
    "flow",
    "training",
    "rng",
    "container",
    "refiner",
    "metrics",
    "datapipe",
    "providers",
    "cli",
)


def op_kinds(tensor_module) -> list:
    """Public tensor functions other than backward: the tape op kinds."""
    kinds = []
    for name in getattr(tensor_module, "__all__", ()):
        obj = getattr(tensor_module, name, None)
        if inspect.isfunction(obj) and name != "backward":
            kinds.append(name)
    return kinds


class Tracer:
    """Records spans of wrapped foleyflow calls while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.col_name = array("i")
        self.col_parent = array("q")
        self.col_request = array("q")
        self.col_pass = array("i")
        self.col_start = array("q")
        self.col_end = array("q")
        self.stack = [-1]
        self.request = -1
        self.pass_index = -1
        # observer outputs: key -> list of (pass, span, value)
        self.observed: dict = {}
        self.found: list = []  # span names of everything wrapped
        self.missing_layers: list = []
        self.kinds: list = []
        self._patches: list = []

    # -- span storage -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
        return nid

    def note(self, key: str, span: int, value) -> None:
        self.observed.setdefault(key, []).append((self.pass_index, span, value))

    def _wrap(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        c_name, c_parent, c_req, c_pass = self.col_name, self.col_parent, self.col_request, self.col_pass
        c_start, c_end = self.col_start, self.col_end
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1])
            c_req.append(tracer.request)
            c_pass.append(tracer.pass_index)
            c_start.append(0)
            c_end.append(0)
            stack.append(idx)
            before = hook.before(args, kwargs) if hook is not None else None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                c_start[idx] = t0
                c_end[idx] = t1
            if hook is not None:
                hook.after(tracer, idx, args, kwargs, out, before)
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, hook_for=None) -> None:
        """Wrap every public function and method of the layer modules.

        hook_for(span name), when given, returns an object whose before()
        and after() see the arguments and result of each call, or None.
        """
        hook_for = hook_for or (lambda name: None)
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"foleyflow.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
        package = sys.modules["foleyflow"]
        binders = [package] + list(modules.values())
        if "tensor" in modules:
            self.kinds = op_kinds(modules["tensor"])

        wrapped: dict = {}  # id(original) -> wrapper, shared by aliases
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(obj, name, hook_for(name))
                    wrapped[id(obj)] = wrapper
                    self.found.append(name)
                    for binder in binders:
                        for bound_name, bound in list(vars(binder).items()):
                            if bound is obj:
                                self._patch(binder, bound_name, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj, hook_for, wrapped)

    def _install_class(self, layer: str, cls, hook_for, wrapped: dict) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            descriptor = isinstance(member, (classmethod, staticmethod))
            fn = member.__func__ if descriptor else member
            if not inspect.isfunction(fn):
                continue  # properties and class constants
            if id(fn) not in wrapped:  # aliases such as __call__ = forward share one wrapper
                name = f"{layer}.{fn.__qualname__}"
                wrapped[id(fn)] = self._wrap(fn, name, hook_for(name))
                self.found.append(name)
            self._patch(cls, attr, type(member)(wrapped[id(fn)]) if descriptor else wrapped[id(fn)])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.col_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.col_parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.col_request, dtype=np.int64).copy(),
            "pass": np.frombuffer(self.col_pass, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.col_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.col_end, dtype=np.int64).copy(),
        }

    def dump(self, path: str) -> None:
        """Write all spans as one .npz file; span names ride along as JSON."""
        cols = self.arrays()
        names = np.frombuffer(json.dumps(self.names).encode("utf-8"), dtype=np.uint8)
        np.savez(path, names_json=names, **cols)


def self_times(cols: dict) -> np.ndarray:
    """Per-span self time in ns: duration minus the children's durations."""
    dur = cols["end_ns"] - cols["start_ns"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def load_dump(path: str) -> tuple[list, dict]:
    """Read a dump() file back: (span names, column arrays)."""
    with np.load(path) as data:
        names = json.loads(bytes(data["names_json"]).decode("utf-8"))
        cols = {key: data[key] for key in data.files if key != "names_json"}
    return names, cols
