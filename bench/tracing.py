"""Per-layer spans and counts, installed from outside the library.

``Tracer.install(fb)`` replaces every public function of each freebax
module, and the public and arithmetic methods of its classes, with a
wrapper.  The function is replaced under every name that binds it, in
every freebax module (``from .shuffle import element`` makes a second
binding), so the library source stays untouched.

A wrapper opens a span only when the call crosses into its layer from
another one (or from the benchmark); a call inside the same layer just
runs.  So a layer's self time is the time of its spans minus the time of
the spans of other layers they contain, and ``calls`` counts entries into
the layer.

The value types ``Coeff``, ``Ring`` and ``Monomial``, and the per-word
helpers ``word_key`` and ``word_str``, are not timed: they run millions of
times and a span around each would swamp the layers that call them, so
their time stays in the caller's self time.
``Monomial.__mul__`` and the arithmetic methods of ``Coeff`` are counted
instead (``poly.monomial_muls``, ``rings.coeff_ops``).
"""
from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("rings", "poly", "shuffle", "series", "sequences", "ideals", "verify", "lang", "cli")

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")
SPANNED_DUNDERS = ARITHMETIC + ("__str__",)
UNTIMED_CLASSES = ("Coeff", "Ring", "Monomial")
# sort-key and rendering helpers that other layers call once per word
UNTIMED_FUNCTIONS = ("word_key", "word_str")
COUNTED_METHODS = {
    ("Monomial", "__mul__"): "poly.monomial_muls",
    **{("Coeff", name): "rings.coeff_ops" for name in ARITHMETIC},
}

COUNT_NAMES = (
    "shuffle.products",
    "shuffle.term_pairs",
    "shuffle.out_terms",
    "shuffle.normalize_calls",
    "series.products",
    "series.kernel_calls",
    "series.out_terms",
    "sequences.phi_calls",
    "sequences.bar_calls",
    "poly.monomial_muls",
    "rings.coeff_ops",
)


def _count_shuffle_product(counts, args, out):
    a, b = args[0], args[1]
    counts["shuffle.products"] += 1
    counts["shuffle.term_pairs"] += len(a.terms) * len(b.terms)
    counts["shuffle.out_terms"] += len(out.terms)


def _count_complete_product(counts, args, out):
    counts["series.products"] += 1
    counts["series.out_terms"] += sum(len(e.terms) for _, e in out.components)


def _counter(key):
    def count(counts, args, out):
        counts[key] += 1
    return count


# (layer, function name) -> what to count on each call, inside a span or not
FUNCTION_COUNTS = {
    ("shuffle", "shuffle_product"): _count_shuffle_product,
    ("shuffle", "element"): _counter("shuffle.normalize_calls"),
    ("series", "complete_product"): _count_complete_product,
    ("sequences", "phi"): _counter("sequences.phi_calls"),
    ("sequences", "bar"): _counter("sequences.bar_calls"),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, name, time covered by child spans]
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter({k: 0 for k in COUNT_NAMES})

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": {layer: self.calls[layer] for layer in LAYERS},
            "counts": dict(self.counts),
        }

    # -- wrappers --

    def spanned(self, layer: str, name: str, fn):
        stack, self_s, calls, counts = self.stack, self.self_s, self.calls, self.counts
        count = FUNCTION_COUNTS.get((layer, name))
        kernel = name == "shuffle_product"

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                out = fn(*args, **kwargs)
                if count:
                    count(counts, args, out)
                return out
            if kernel and stack and stack[-1][0] == "series":
                counts["series.kernel_calls"] += 1
            frame = [layer, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[layer] += dur - frame[2]
                calls[layer] += 1
                if stack:
                    stack[-1][2] += dur
            if count:
                count(counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --

    def install(self, fb) -> None:
        modules = {layer: sys.modules[f"{fb.__name__}.{layer}"] for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNTIMED_FUNCTIONS
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.spanned(layer, name, obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod in [fb, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _install_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            key = COUNTED_METHODS.get((cls.__name__, name))
            if key:
                setattr(cls, name, self.counted(key, attr))
                continue
            if cls.__name__ in UNTIMED_CLASSES:
                continue
            if name.startswith("_") and name not in SPANNED_DUNDERS:
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.spanned(layer, label, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.spanned(layer, label, attr))
