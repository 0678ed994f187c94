"""Spans and counters around gatc's public functions, from outside.

The tracer replaces each traced function at every binding inside the
gatc package: the module attribute (``deriv.eq_check``) and every name
another module imported it under (``from .gatcat import equivalent``).
Spans (name, start, end, parent) stay in memory until the run ends.
A layer's self time is its spans' time minus the time of their direct
child spans; its total time counts only spans with no ancestor of the
same name, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Layer functions, named "module.function" relative to the gatc package.
TRACED = (
    "deriv.eq_check",
    "deriv.check_judgment",
    "deriv.replay_eq_trace",
    "theory.check_theory",
    "gatform.parse",
    "gatform.print_theory",
    "gatcat.check_interpretation",
    "gatcat.equivalent",
    "gatcat.coproduct",
    "gatcat.coequalizer",
    "gatcat.pushout",
    "gatcat.limit_presentation",
    "gatcat.reconstruct",
    "poly.poly_apply",
    "poly.verify_polynomial_axioms",
    "poly.derive_unit",
    "poly.check_unit_laws",
    "poly.check_triangles",
    "poly.pi_square",
    "models.enumerate_models",
    "models.reduct",
    "models.check_colimit_duality",
    "cli.main",
)

_STEP_KINDS = {"AxiomStep": "axiom", "CongStep": "congruence", "BetaStep": "beta", "EtaStep": "eta"}

# Counters the observers below fill in; listed so every one is reported.
COUNTERS = (
    "deriv.eq.proved",
    "deriv.eq.closed",
    "deriv.eq.fuel",
    *(f"deriv.eq.steps.{k}" for k in _STEP_KINDS.values()),
    "deriv.replay_eq_trace.ok",
    "theory.decls_certified",
    "gatform.parse.bytes",
    "models.found",
    "models.budget_exceeded",
    "cli.report_bytes",
)


def _observe_eq(args, result, exc, counts: Counter) -> None:
    if result is None:
        return
    if result.proved:
        counts["deriv.eq.proved"] += 1
    else:
        counts[f"deriv.eq.{result.reason}"] += 1
    for s in result.steps:
        counts[f"deriv.eq.steps.{_STEP_KINDS[type(s).__name__]}"] += 1


def _observe_replay(args, result, exc, counts: Counter) -> None:
    if result:
        counts["deriv.replay_eq_trace.ok"] += 1


def _observe_check_theory(args, result, exc, counts: Counter) -> None:
    if result is not None:
        counts["theory.decls_certified"] += len(result.decls)


def _observe_parse(args, result, exc, counts: Counter) -> None:
    counts["gatform.parse.bytes"] += len(args[0].encode("utf-8"))


def _observe_models(args, result, exc, counts: Counter) -> None:
    if result is not None:
        counts["models.found"] += len(result)
    elif type(exc).__name__ == "BudgetExceeded":
        counts["models.budget_exceeded"] += 1


_OBSERVERS = {
    "deriv.eq_check": _observe_eq,
    "deriv.replay_eq_trace": _observe_replay,
    "theory.check_theory": _observe_check_theory,
    "gatform.parse": _observe_parse,
    "models.enumerate_models": _observe_models,
}


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.layers()`` after."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, outermost)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        package = [m for n, m in sorted(sys.modules.items()) if n == "gatc" or n.startswith("gatc.")]
        for target in TRACED:
            module_name, func_name = target.split(".")
            orig = getattr(sys.modules[f"gatc.{module_name}"], func_name)
            wrapper = self._wrap(target, orig)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        observe = _OBSERVERS.get(name)
        clock = time.thread_time_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outermost = active[name] == 0
            spans.append(None)  # the slot keeps start order; filled on return
            stack.append(idx)
            active[name] += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                # a tuple of atoms, which the cyclic collector stops tracking
                spans[idx] = (name, start, clock(), parent, outermost)
                active[name] -= 1
                stack.pop()
                if observe is not None:
                    observe(args, result, exc, counts)

        traced.__wrapped__ = fn
        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, total_ms and self_ms."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {t: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for t in TRACED}
        for i, (name, start, end, parent, outermost) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            if outermost:
                row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def write(self, path: str) -> None:
        """The raw spans as JSON lines of [name, start_ns, end_ns, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
