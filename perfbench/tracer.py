"""Spans and counts recorded around the icmor functions, from outside the
package.

``icmor`` modules import each other's functions by name (``reduction`` and
``experiment`` each bind ``gramian_factors``), so a function is wrapped at
every binding site in every loaded ``icmor`` module, not only where it is
defined.  Library calls made from inside a module (``sla.schur`` in
``icmor.linalg``) are reached by replacing that module's ``np``/``sla``
name with a proxy whose one attribute path is wrapped.  Everything is
restored when the tracer's ``with`` block ends.
"""

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["Tracer", "layer_totals", "union_length"]


class _Proxy:
    """Stands in for a module: the overridden attributes, else the module's."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _replace_path(obj, dotted, new):
    head, _, rest = dotted.partition(".")
    return _Proxy(obj, {head: _replace_path(getattr(obj, head), rest, new) if rest else new})


def _icmor_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "icmor" or name.startswith("icmor."))]


class Tracer:
    """Records ``(name, start, end, parent, recursive)`` spans in memory.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``recursive`` marks a span nested inside another span of the same name,
    so inclusive times are not counted twice.  ``counts`` holds named
    counters filled by the hooks.  Use as a context manager: patches are
    installed by the ``wrap_*`` calls and undone on exit.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open = Counter()
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def is_open(self, name):
        """True while a span called ``name`` is running."""
        return self._open[name] > 0

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def timed(self, name, fn, on_return=None):
        """``fn`` wrapped so that every call records a span; ``on_return``
        gets ``(tracer, args, kwargs, result)`` for counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            self._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.spans[idx] = (name, start, end, parent, self._open[name] > 0)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_function(self, name, module, attr, on_return=None, fixed_kwargs=None):
        """Wrap ``module.attr`` at every icmor binding site.

        ``fixed_kwargs`` are forced onto every call.  Returns the number of
        sites patched; 0 when the program has no such function.
        """
        original = getattr(module, attr, None)
        if original is None:
            return 0
        fn = original
        if fixed_kwargs:
            fn = functools.wraps(original)(
                lambda *a, **k: original(*a, **{**k, **fixed_kwargs}))
        wrapper = self.timed(name, fn, on_return)
        sites = 0
        for mod in _icmor_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    sites += 1
        return sites

    def wrap_constructor(self, name, cls):
        """Wrap ``cls.__init__``, which every construction goes through."""
        self._set(cls, "__init__", self.timed(name, cls.__init__))

    def wrap_library_call(self, modules, alias, dotted, wrap):
        """In each module, replace the name ``alias`` (a library module such
        as ``np``) by a proxy whose ``dotted`` attribute is ``wrap(f)``."""
        for mod in modules:
            lib = getattr(mod, alias, None)
            if lib is not None:
                target = functools.reduce(getattr, dotted.split("."), lib)
                self._set(mod, alias, _replace_path(lib, dotted, wrap(target)))

    def originals_left(self, originals):
        """``(module, attr)`` pairs in icmor modules that still bind one of
        ``originals`` (functions meant to be wrapped everywhere)."""
        ids = {id(f) for f in originals}
        return [(m.__name__, k) for m in _icmor_modules()
                for k, v in vars(m).items() if id(v) in ids]


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans):
    """Per span name: ``calls``, ``s`` (inclusive time of spans not nested in
    a span of the same name) and ``self_s`` (each span's duration minus the
    part of it that its child spans cover)."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, _, recursive) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        if not recursive:
            row["s"] += end - start
        covered = union_length(
            (max(s, start), min(e, end)) for s, e in children[idx] if e > start and s < end)
        row["self_s"] += (end - start) - covered
    return dict(out)
