"""Per-layer spans and counters for the traced run.

The library carries no instrumentation.  `install` wraps, from outside,
every public function of dims, macaulay, weights and oracle, plus
`oracle._field_rank` and `cli.main`, and rebinds each module attribute
that names one of them, including the names other modules import (so
`weights.decompose` and `macaulay.rho` go through the wrappers too).
Two leaf helpers stay unwrapped: `binomial` runs once per term inside
the rho kernel and `is_prime_power` is a cache lookup, so a span per
call would cost more than the work it measures.

Spans are folded into per-name totals as they close: calls, total time
and self time (the span minus the time of the spans it called).  The
timed runs never import this module.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

UNWRAPPED = frozenset({"binomial", "is_prime_power"})


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, total seconds, self seconds]
        self.counts = Counter()
        self.rho_args = set()
        self._stack = []

    def span(self, name, fn, after=None):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counting(self, counter, gen_fn):
        """Wrap a generator function so that each item it yields bumps a counter."""
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return wrapper

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "rho_args": sorted(self.rho_args),
        }


def install(tracer: Tracer) -> None:
    import rmweights
    from rmweights import cli, dims, macaulay, oracle, weights

    counts = tracer.counts
    hooks = {
        "dims.rho": lambda args, _: tracer.rho_args.add(tuple(args)),
        "macaulay.decompose": lambda _, rep: counts.update(coeffs=len(rep.coeffs)),
        "weights.hierarchy": lambda _, h: counts.update(ranks=len(h)),
        "oracle.enumerate_tuples": lambda _, ts: counts.update(tuples_listed=len(ts)),
    }
    wrapped = {}
    for mod in (dims, macaulay, weights, oracle):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
                and not name.startswith("_")
                and name not in UNWRAPPED
            ):
                label = f"{short}.{name}"
                wrapped[obj] = tracer.span(label, obj, hooks.get(label))
    wrapped[oracle._field_rank] = tracer.span("oracle.field_rank", oracle._field_rank)
    wrapped[oracle._rref_bases] = tracer.counting("subspaces", oracle._rref_bases)
    wrapped[cli.main] = tracer.span("cli.main", cli.main)

    for mod in (rmweights, dims, macaulay, weights, oracle, cli):
        for name, obj in list(vars(mod).items()):
            if callable(obj) and not isinstance(obj, type) and obj in wrapped:
                setattr(mod, name, wrapped[obj])

