"""Per-layer tracing from outside the program.

`install()` wraps the public functions and class methods of every
creaturelab module, and rebinds each name that another module imported
with `from ... import`, so calls between layers pass through a wrapper.
A wrapper opens a span (layer, start, parent) when the call crosses from
one layer into another and closes it on return.  Spans are folded into
per-layer totals as they close: a 16-point halving check opens about a
million of them, too many to keep.  A layer's self time is the time of its
spans minus the time of the spans they caused; the self times of all
layers plus the benchmark's own add up to the root span.
"""

from __future__ import annotations

import inspect
import sys
import time

from creaturelab.errors import CreatureLabError, Indeterminate

LAYER_OF_MODULE = {
    "creaturelab.logreal": "logreal",
    "creaturelab.tower": "tower",
    "creaturelab.params": "params",
    "creaturelab.atomic.base": "atomic.families",
    "creaturelab.atomic.families": "atomic.families",
    "creaturelab.atomic.checks": "atomic.checks",
    "creaturelab.atomic.certificates": "atomic.checks",
    "creaturelab.atomic.niceness": "atomic.ops",
    "creaturelab.atomic.ops": "atomic.ops",
    "creaturelab.mlcore": "mlcore",
    "creaturelab.conditions": "conditions",
    "creaturelab.serialize": "serialize",
    "creaturelab.cli": "cli",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))
BENCH = "bench"

# private helpers that a per-layer counter needs to see
_PRIVATE = {("creaturelab.logreal", "_interval_sign")}
# operators worth a span: LogReal arithmetic and order are the hot path
_DUNDERS = {"__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
            "__lt__", "__le__", "__gt__", "__ge__"}
# call sites whose outermost inclusive time is reported
INCLUSIVE = {
    "logreal.lr_log2_int", "params.ToyProfile.star_param",
    "params.ToyProfile.slot_param", "atomic.checks.check_bigness",
    "atomic.checks.check_halving", "atomic.checks.replay_certificate",
    "atomic.ops.homogenize_product", "mlcore.ml_successor_check",
    "conditions.rapid_read", "conditions.cover_step", "conditions.evade_step",
}
# call sites whose result length is summed
SIZED = {"mlcore.poss_enumerate", "conditions.cond_poss"}


class Site:
    """Counters of one wrapped callable."""

    __slots__ = ("key", "layer", "calls", "incl_s", "depth", "items")

    def __init__(self, key, layer):
        self.key, self.layer = key, layer
        self.calls = 0
        self.incl_s = 0.0
        self.depth = 0
        self.items = 0


class Tracer:
    def __init__(self):
        self.sites = {}
        self.self_s = dict.fromkeys(LAYERS + (BENCH,), 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.indeterminate = 0
        # open spans: [layer, time covered by child spans]
        self.stack = [[BENCH, 0.0]]
        self.root_start = None
        self.wall_s = 0.0

    # -- spans -----------------------------------------------------------

    def begin(self):
        self.root_start = time.perf_counter()

    def end(self):
        end = time.perf_counter()
        root = self.stack[0]
        self.wall_s = end - self.root_start
        self.self_s[BENCH] += self.wall_s - root[1]
        root[1] = self.wall_s

    def site(self, key, layer):
        s = self.sites.get(key)
        if s is None:
            s = self.sites[key] = Site(key, layer)
        return s

    def _wrap_function(self, fn, site):
        stack, self_s = self.stack, self.self_s
        layer = site.layer
        inclusive = site.key in INCLUSIVE
        sized = site.key in SIZED
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            site.calls += 1
            parent = stack[-1]
            if parent[0] == layer and not inclusive and not sized:
                return fn(*args, **kwargs)
            span = [layer, 0.0]
            stack.append(span)
            site.depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except CreatureLabError as exc:
                if parent[0] != layer:
                    tracer._count_error(layer, exc)
                raise
            finally:
                dur = perf() - start
                stack.pop()
                site.depth -= 1
                self_s[layer] += dur - span[1]
                parent[1] += dur
                if site.depth == 0:
                    site.incl_s += dur
            if sized:
                site.items += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _wrap_generator(self, fn, site):
        """Generators do their work when resumed; time each resumption."""
        stack, self_s = self.stack, self.self_s
        layer = site.layer
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            site.calls += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    parent = stack[-1]
                    span = [layer, 0.0]
                    stack.append(span)
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except CreatureLabError as exc:
                        if parent[0] != layer:
                            tracer._count_error(layer, exc)
                        raise
                    finally:
                        dur = perf() - start
                        stack.pop()
                        self_s[layer] += dur - span[1]
                        parent[1] += dur
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count_error(self, layer, exc):
        self.errors[layer] += 1
        if layer == "tower" and isinstance(exc, Indeterminate):
            self.indeterminate += 1

    def wrap(self, fn, key, layer):
        site = self.site(key, layer)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, site)
        return self._wrap_function(fn, site)

    def callback(self, fn, key):
        """Wrap a function the benchmark hands to the program (F, G, an
        oracle), so its time counts as the benchmark's own."""
        return self._wrap_function(fn, self.site(key, BENCH))

    # -- installation ----------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every layer, then rebind imported names everywhere."""
        replaced = {}
        for modname, layer in LAYER_OF_MODULE.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer)
                elif (inspect.isfunction(obj) and obj.__module__ == modname
                      and (not name.startswith("_") or (modname, name) in _PRIVATE)):
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{name}", layer)
        targets = [m for n, m in list(sys.modules.items())
                   if n == "creaturelab" or n.startswith("creaturelab.")]
        targets += list(extra_modules)
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    setattr(mod, name, new)

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(attr.__func__, key, layer)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(attr.__func__, key, layer)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, key, layer))

    # -- results ---------------------------------------------------------

    def summary(self):
        """Plain numbers, mergeable across processes by addition."""
        keys = [k for k, s in self.sites.items() if s.calls]
        return {
            "wall_s": self.wall_s,
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "indeterminate": self.indeterminate,
            "calls": {k: self.sites[k].calls for k in keys},
            "incl_s": {k: self.sites[k].incl_s for k in keys},
            "items": {k: self.sites[k].items for k in keys if self.sites[k].items},
        }


def merge(total, part):
    """Add one summary into another, key by key."""
    for name, value in part.items():
        if isinstance(value, dict):
            merge(total.setdefault(name, {}), value)
        else:
            total[name] = total.get(name, 0) + value
    return total
