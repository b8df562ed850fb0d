"""Spans around cmccheck's module boundaries, installed from outside.

:func:`install` wraps every public function of each cmccheck module and
the arithmetic methods of ``Polynomial``, then rebinds each wrapped name
in every ``cmccheck.*`` namespace that holds it: modules import with
``from .calculus import delta1``, so wrapping ``cmccheck.calculus.delta1``
alone would miss the call made through ``cmccheck.replay.delta1``.

Spans are aggregated as they close, per span name: calls, busy time
(outermost call of that name only, so recursion is not counted twice),
self time (busy minus the time of child spans), time per child span name,
and counts of the work done.  The counting runs outside every span's
clock, so it shows up in the run's wall time (the tracing overhead) but
not in any span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType

LAYERS = ("ring", "parse", "calculus", "divide", "cubic", "cmc", "replay", "cli")

# Called once per term, inside sort keys and constructors: a span on these
# would cost far more than the work it measures.
LEAF_HELPERS = {"as_fraction", "grevlex_key", "lex_key"}

POLYNOMIAL_SPANS = {
    "__mul__": "ring.mul",
    "__rmul__": "ring.mul",
    "__pow__": "ring.pow",
    "__add__": "ring.addsub",
    "__radd__": "ring.addsub",
    "__sub__": "ring.addsub",
    "__rsub__": "ring.addsub",
    "__neg__": "ring.addsub",
    "homogeneous_part": "ring.parts",
    "high_part": "ring.parts",
    "substitute": "ring.parts",
}


class SpanStats:
    __slots__ = ("calls", "busy", "self_time", "children", "counts", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.children: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        # One frame per open span: [start, child time, excluded time at start, stats]
        self._stack: list[list] = []
        self._excluded = 0.0  # clock time spent counting, kept out of spans

    def wrap(self, name: str, fn, count=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0, self._excluded, stats]
            stack.append(frame)
            stats.depth += 1
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats.depth -= 1
                elapsed = end - frame[0] - (self._excluded - frame[2])
                stats.calls += 1
                stats.self_time += elapsed - frame[1]
                if not stats.depth:
                    stats.busy += elapsed
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[3].children[name] += elapsed
            if count is not None:
                count(stats.counts, args, result)
                self._excluded += clock() - end
            return result

        return traced


def _count_mul(counts, args, result) -> None:
    if result is NotImplemented:
        return
    a, b = args
    bterms = [c for _, c in b.terms()] if hasattr(b, "terms") else [b]
    products = len(a) * len(bterms)
    counts["term_products"] += products
    counts["out_terms"] += len(result)
    if any(c.denominator != 1 for c in bterms) or any(
        c.denominator != 1 for _, c in a.terms()
    ):
        counts["frac_products"] += products
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for _, c in result.terms()),
        default=0,
    )
    counts["max_coeff_bits"] = max(counts["max_coeff_bits"], bits)


def _count_divide(counts, args, result) -> None:
    counts["dividend_terms"] += len(args[0])
    counts["quotient_terms"] += len(result.quotient)
    counts["remainder_terms"] += len(result.remainder)


def _count_text(counts, args, result) -> None:
    counts["chars"] += len(result)


COUNTERS = {
    "ring.mul": _count_mul,
    "divide.divide": _count_divide,
    "parse.to_text": _count_text,
}


def cmccheck_modules() -> list[ModuleType]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cmccheck" or name.startswith("cmccheck."))
    ]


def install(tracer: Tracer) -> dict[int, object]:
    """Wrap and rebind; return ``{id(original): original}`` for checking."""
    originals: dict[int, object] = {}
    replacements: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"cmccheck.{layer}"]
        for attr, fn in vars(mod).items():
            if (
                attr.startswith("_")
                or attr in LEAF_HELPERS
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
            ):
                continue
            span = f"{layer}.{attr}"
            originals[id(fn)] = fn
            replacements[id(fn)] = tracer.wrap(span, fn, COUNTERS.get(span))
    polynomial = sys.modules["cmccheck.ring"].Polynomial
    for attr, span in POLYNOMIAL_SPANS.items():
        fn = vars(polynomial)[attr]
        originals[id(fn)] = fn
        # __rmul__ is __mul__, and __radd__ is __add__: one wrapper each.
        if id(fn) not in replacements:
            replacements[id(fn)] = tracer.wrap(span, fn, COUNTERS.get(span))
        setattr(polynomial, attr, replacements[id(fn)])
    for mod in cmccheck_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements and value is originals[id(value)]:
                setattr(mod, attr, replacements[id(value)])
    return originals


def unwrapped_references(originals: dict[int, object]) -> list[str]:
    """Every name in a cmccheck namespace that still holds an original."""
    found = []
    namespaces = [(mod.__name__, vars(mod)) for mod in cmccheck_modules()]
    namespaces += [
        (f"{mod.__name__}.{attr}", vars(cls))
        for mod in cmccheck_modules()
        for attr, cls in vars(mod).items()
        if inspect.isclass(cls) and cls.__module__.startswith("cmccheck")
    ]
    for where, namespace in namespaces:
        for attr, value in namespace.items():
            if id(value) in originals and originals[id(value)] is value:
                found.append(f"{where}.{attr}")
    return found
