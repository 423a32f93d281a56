"""Times advgrad's layers from outside the library.

`instrument` replaces the public functions of the advgrad modules, every
alias of them that another advgrad module imported by name, and the public
methods of `Model` (and its subclasses) and `ScalingFactorGenerator` with
wrappers that record a span per call into a `Recorder`.  Everything it
replaced is put back when the `with` block ends.  No library file changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "models", "attacks", "generator", "interaction", "harness", "cli")


class Recorder:
    """Spans and per-name counters of one episode, kept in memory.

    A span is (name index, start, end, parent span index or -1).  Self time
    is a span's duration minus the time covered by its direct children.
    `hooks` maps a function key (``layer.function``, without the model
    kind) to a callable ``hook(recorder, key, bind, result, start, end)`` that
    runs after each successful call; ``bind()`` returns the call's
    `inspect.BoundArguments`.  `on_error(recorder, key)` runs when a call
    with a hook raises.
    """

    def __init__(self, hooks=None, on_error=None, keep_spans=True):
        self.hooks = hooks or {}
        self.on_error = on_error
        self.keep_spans = keep_spans
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.open: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def call(self, name, key, layer, signature, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        entry = [-1, layer, 0.0]
        if self.keep_spans:
            # reserve the span's slot now, so spans stay in start order
            entry[0] = len(self.spans)
            self.spans.append(None)
        self._stack.append(entry)
        self.open[key] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            # count an exception once, where it leaves its layer
            if parent is None or parent[1] != layer:
                self.errors[layer] += 1
            if self.on_error is not None and key in self.hooks:
                self.on_error(self, key)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.open[key] -= 1
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - entry[2]
            if parent is not None:
                parent[2] += duration
            if self.keep_spans:
                idx = self._name_index.get(name)
                if idx is None:
                    idx = self._name_index[name] = len(self.names)
                    self.names.append(name)
                self.spans[entry[0]] = (idx, start, end, parent[0] if parent else -1)
        hook = self.hooks.get(key)
        if hook is not None:
            hook(self, key, lambda: signature.bind(*args, **kwargs), result, start, end)
        return result


def _advgrad_modules(package):
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items())
                        if n.startswith(prefix) and m is not None]


def _function_wrapper(recorder, key, layer, fn, post=None):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = recorder.call(key, key, layer, signature, fn, args, kwargs)
        return post(result) if post is not None else result

    return wrapper


def _method_wrapper(recorder, layer, method_name, fn, tag_kind):
    key = f"{layer}.{method_name}"
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        name = f"{layer}.{self.kind}.{method_name}" if tag_kind else key
        return recorder.call(name, key, layer, signature, fn, (self,) + args, kwargs)

    return wrapper


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _public_functions(obj, module_name=None):
    for attr, value in vars(obj).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if module_name is None or value.__module__ == module_name:
            yield attr, value


@contextlib.contextmanager
def instrument(package, recorder: Recorder, only: set[str] | None = None):
    """Wrap advgrad's public API so that calls are recorded in `recorder`.

    With `only`, just the function keys listed there are wrapped (a cheap
    probe); otherwise every public function and method of the layers is.
    """
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    replaced: list[tuple[object, str, object]] = []
    wrappers: dict[int, tuple[object, object]] = {}

    def wanted(key):
        return only is None or key in only

    def setfn_post(result):
        v, n = result
        return _function_wrapper(recorder, "interaction.setfn", "interaction", v), n

    try:
        for layer, mod in modules.items():
            for attr, fn in _public_functions(mod, mod.__name__):
                key = f"{layer}.{attr}"
                if not wanted(key):
                    continue
                post = setfn_post if key == "interaction.make_model_setfn" and only is None else None
                wrappers[id(fn)] = (fn, _function_wrapper(recorder, key, layer, fn, post))
        # rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules and the package root
        for mod in _advgrad_modules(package):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    replaced.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        classes = [(cls, "models", True) for cls in _subclasses(modules["models"].Model)]
        classes.append((modules["generator"].ScalingFactorGenerator, "generator", False))
        for cls, layer, tag_kind in classes:
            for attr, fn in list(_public_functions(cls)):
                if wanted(f"{layer}.{attr}"):
                    replaced.append((cls, attr, fn))
                    setattr(cls, attr, _method_wrapper(recorder, layer, attr, fn, tag_kind))
        yield recorder
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
