"""Outside-in layer trace of salemrel, installed from the benchmark.

``Tracer.install`` replaces every public module-level function of the layer
modules, in every salemrel module that binds it, with a wrapper that records
a span; ``uninstall`` puts the originals back.  Only calls through those
module-level names are seen: work done inside ``IntPoly`` methods counts as
self time of the layer that called them.  ``IntPoly.sign_at`` gets a
count-only hook.  salemrel runs on one thread, so no layer ever waits and
the trace reports no wait time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = ("parsing", "polyarith", "realroots", "factorint", "cyclo",
          "salemkit", "relations", "cli")
_MODULES = {f"salemrel.{layer}": layer for layer in LAYERS}
MARK = "__perfbench_wrapped__"


def _modules():
    return [importlib.import_module(name)
            for name in ("salemrel",) + tuple(_MODULES)]


def _bindings():
    """(module, name, function, layer) for every public layer function bound
    in a salemrel module, the package itself included."""
    out = []
    for mod in _modules():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or isinstance(obj, type) \
                    or not callable(obj):
                continue
            layer = _MODULES.get(getattr(obj, "__module__", None))
            if layer is not None:
                out.append((mod, name, obj, layer))
    return out


def find_wrapped() -> list[str]:
    """Names of salemrel functions that are currently trace wrappers."""
    from salemrel.polyarith import IntPoly
    found = [f"{mod.__name__}.{name}" for mod in _modules()
             for name, obj in vars(mod).items() if hasattr(obj, MARK)]
    if hasattr(IntPoly.sign_at, MARK):
        found.append("IntPoly.sign_at")
    return found


class Tracer:
    """Spans (name, start, end, parent, item) and counts of one traced pass.

    Times come from ``time.perf_counter``; a span's parent is the index of
    the span that was open when it started, or -1.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s = Counter()      # layer -> seconds not spent in children
        self.counts = Counter()
        self.item = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._active = Counter()     # span name -> open spans of that name
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from salemrel.polyarith import IntPoly
        wrappers = {}
        for mod, name, fn, layer in _bindings():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__name__}",
                                              layer)
            self._restore.append((mod, name, fn))
            setattr(mod, name, wrappers[id(fn)])
        sign_at = IntPoly.sign_at
        counts = self.counts

        def counted_sign_at(poly, t):
            counts["polyarith.sign_at.calls"] += 1
            return sign_at(poly, t)

        setattr(counted_sign_at, MARK, True)
        self._restore.append((IntPoly, "sign_at", sign_at))
        IntPoly.sign_at = counted_sign_at

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, active = self.spans, self._stack, self._active
        counts, self_s = self.counts, self.self_s
        calls_key = f"{layer}.calls"
        on_result = _RESULT_HOOKS.get(name)
        isolates = name == "realroots.isolate_roots"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            counts[name] += 1
            if isolates and active["salemkit.window_poly_search"]:
                counts["salemkit.window.isolations"] += 1
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - frame[1]
                self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name, frame[1], end, parent, self.item)
            if on_result is not None:
                on_result(counts, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, True)
        return wrapper

    # -- results ------------------------------------------------------------

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "item"],
            "span_names": names,
            "spans": [[index[n], round(a, 7), round(b, 7), p, i]
                      for n, a, b, p, i in self.spans],
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _salem_check_result(counts, result) -> None:
    if result:
        counts["salemkit.salem_check.accepted"] += 1


def _window_result(counts, result) -> None:
    counts["salemkit.window.hits"] += len(result)


def _relations_result(counts, result) -> None:
    counts["relations.reports"] += len(result)
    counts["relations.certified"] += sum(r.status != "numeric_only"
                                         for r in result)


_RESULT_HOOKS = {
    "salemkit.salem_check": _salem_check_result,
    "salemkit.window_poly_search": _window_result,
    "relations.find_relations": _relations_result,
}
