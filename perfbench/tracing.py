"""Spans around the library's public functions, installed from outside.

:class:`Tracer` replaces each traced function by a wrapper in every
namespace that holds it: the defining module, the ``polygauss`` package,
and the names that ``polygauss.cli`` imported (``from .igs import sift``
binds a second reference that patching ``polygauss.igs`` alone would
miss).  A wrapper records a span ``[name, start, end, parent, op]`` only
while an operation id is set, so reference checks run untraced.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import polygauss
import polygauss.cli as cli
import polygauss.elements as elements
import polygauss.igs as igs
import polygauss.presentation as presentation

# span name -> (owner, attribute)
TARGETS = {
    "presentation.load": (presentation, "load_presentation"),
    "presentation.validate": (presentation, "validate_inverse_tails"),
    "cli.main": (cli, "main"),
    "elements.collect": (elements, "collect"),
    "elements.mul": (elements.Element, "__mul__"),
    "elements.pow": (elements.Element, "__pow__"),
    "elements.inverse": (elements.Element, "inverse"),
    "elements.conjugate": (elements.Element, "conjugate"),
    "elements.commutator": (elements.Element, "commutator"),
    "elements.normalised": (elements.Element, "normalised"),
    "igs.closure": (igs, "igs_by_generators"),
    "igs.add": (igs, "add_gen_to_pigs"),
    "igs.sift": (igs, "sift"),
    "igs.canonical": (igs, "canonical_igs"),
    "igs.order": (igs, "subgroup_order"),
    "igs.index": (igs, "subgroup_index"),
    "igs.equal": (igs, "subgroups_equal"),
}

# names polygauss.cli rebinds at import; each must end up wrapped
CLI_NAMES = ("collect", "igs_by_generators", "sift", "canonical_igs",
             "subgroups_equal", "subgroup_order", "subgroup_index",
             "load_presentation")

NAMESPACES = (polygauss, cli, elements, igs, presentation)


def _entry_bits(seq) -> list[int]:
    return [max(abs(e).bit_length() for e in u.exponents) for u in seq.gens]


# span name -> what to keep of the wrapped call's result
ANNOTATE = {
    "igs.add": lambda result: not result[1],    # the change map is empty
    "igs.closure": _entry_bits,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, note]
        self.op = None                # spans are recorded only while set
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(result)
            return result

        return wrapper

    def install(self):
        for name, (owner, attr) in TARGETS.items():
            original = getattr(owner, attr, None)
            if original is None:
                raise RuntimeError(f"cannot trace {name}: {owner.__name__}.{attr} is gone")
            wrapper = self._wrap(name, original)
            for space in (owner,) + NAMESPACES:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patched.append((space, key, original))
                        setattr(space, key, wrapper)
        for key in CLI_NAMES:
            if not hasattr(getattr(cli, key, None), "__wrapped__"):
                raise RuntimeError(f"polygauss.cli.{key} was not wrapped")

    def uninstall(self):
        while self._patched:
            space, key, original = self._patched.pop()
            setattr(space, key, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        noop = candidates = 0
        bits: list[int] = []
        for k, (name, start, end, parent, _, note) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[k]
            # a call that raised has no note
            if name == "igs.add":
                noop += bool(note)
                candidates += parent >= 0 and self.spans[parent][0] == "igs.closure"
            elif name == "igs.closure":
                bits += note or []

        def ms(table, name):
            return table[name] * 1e3

        return {
            "presentation.load_calls": calls["presentation.load"],
            "presentation.load_ms": ms(total, "presentation.load"),
            "presentation.validate_ms": ms(total, "presentation.validate"),
            "cli.calls": calls["cli.main"],
            "cli.self_ms": ms(own, "cli.main"),
            "elements.collect_calls": calls["elements.collect"],
            "elements.collect_ms": ms(total, "elements.collect"),
            "elements.mul_calls": calls["elements.mul"],
            "elements.mul_ms": ms(total, "elements.mul"),
            "elements.pow_calls": calls["elements.pow"],
            "elements.pow_ms": ms(total, "elements.pow"),
            "elements.inverse_ms": ms(total, "elements.inverse"),
            "elements.commutator_calls": calls["elements.commutator"],
            "elements.commutator_ms": ms(total, "elements.commutator"),
            "elements.normalised_ms": ms(total, "elements.normalised"),
            "igs.closure_calls": calls["igs.closure"],
            "igs.closure_self_ms": ms(own, "igs.closure"),
            "igs.add_calls": calls["igs.add"],
            "igs.add_self_ms": ms(own, "igs.add"),
            "igs.add_noop_ratio": noop / calls["igs.add"] if calls["igs.add"] else 0.0,
            "igs.candidates_per_closure":
                candidates / calls["igs.closure"] if calls["igs.closure"] else 0.0,
            "igs.sift_calls": calls["igs.sift"],
            "igs.sift_self_ms": ms(own, "igs.sift"),
            "igs.canonical_self_ms": ms(own, "igs.canonical"),
            "igs.max_exponent_bits": max(bits, default=0),
            "igs.mean_exponent_bits": sum(bits) / len(bits) if bits else 0.0,
        }


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
