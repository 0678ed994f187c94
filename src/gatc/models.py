"""Brute-force finite-set semantics of theories.

A model assigns a finite carrier {0, ..., s-1} to every semantic
instance of each dependent type symbol and an element to every instance
of each term symbol, such that all instantiated axioms hold.  Models are
counted as labeled structures on canonical carriers, which makes counts
well-defined and the colimit comparison bijections literal.  The
enumerator is the independent oracle for the colimit universal
properties; it is exhaustive, duplicate-free and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .errors import BudgetExceeded, ModelError
from .expr import App, Expr, Var, subexprs
from .gatcat import Coequalizer, Coproduct, Interpretation, Pushout
from .theory import TermEqKind, TermKind, Theory, TypeEqKind, TypeKind

Instance = tuple[int, ...]


@dataclass
class Model:
    theory: Theory
    carriers: dict[str, dict[Instance, int]] = field(default_factory=dict)
    funcs: dict[str, dict[Instance, int]] = field(default_factory=dict)

    def key(self):
        """Canonical hashable form, independent of declaration names' order."""
        cs = tuple(
            (c, tuple(sorted(t.items()))) for c, t in sorted(self.carriers.items())
        )
        fs = tuple((c, tuple(sorted(t.items()))) for c, t in sorted(self.funcs.items()))
        return (cs, fs)


def _require_first_order(theory: Theory) -> None:
    for d in theory.decls:
        for e in d.exprs():
            for sub in subexprs(e):
                if not isinstance(sub, (Var, App)):
                    raise ModelError(
                        f"theory {theory.name!r} uses binders; finite models cover "
                        "only binder-free theories"
                    )


def eval_term(model: Model, env: dict[str, int], e: Expr) -> int:
    """Compositional evaluation of a term to an element tag."""
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, App):
        table = model.funcs.get(e.head)
        if table is None:
            raise ModelError(f"no function table for {e.head!r}")
        key = tuple(eval_term(model, env, a) for a in e.args)
        if key not in table:
            raise ModelError(f"function {e.head!r} undefined at {key}")
        return table[key]
    raise ModelError("cannot evaluate a binder expression in a finite model")


def eval_type(model: Model, env: dict[str, int], e: Expr) -> int:
    """Evaluate a type expression to its carrier size.

    Carriers are canonical initial segments, so a carrier is determined
    by its size; provably equal types must evaluate to equal sizes.
    """
    if isinstance(e, App):
        table = model.carriers.get(e.head)
        if table is None:
            raise ModelError(f"no carrier table for {e.head!r}")
        key = tuple(eval_term(model, env, a) for a in e.args)
        if key not in table:
            raise ModelError(f"carrier {e.head!r} undefined at {key}")
        return table[key]
    raise ModelError("type expression expected")


def context_instances(model: Model, ctx) -> Iterator[dict[str, int]]:
    """Environments for a telescope, in lexicographic element order."""

    def rec(i: int, env: dict[str, int]) -> Iterator[dict[str, int]]:
        if i == len(ctx):
            yield dict(env)
            return
        x, ty = ctx[i]
        size = eval_type(model, env, ty)
        for val in range(size):
            env[x] = val
            yield from rec(i + 1, env)
        env.pop(x, None)

    yield from rec(0, {})


def validate_model(model: Model) -> None:
    for d in model.theory.decls:
        k = d.kind
        if isinstance(k, TypeKind):
            table = model.carriers.get(d.name)
            if table is None:
                raise ModelError(f"missing carrier table for {d.name!r}")
            for env in context_instances(model, d.ctx):
                key = tuple(env[x] for x in d.arity)
                if key not in table:
                    raise ModelError(f"carrier {d.name!r} undefined at {key}")
                if table[key] < 0:
                    raise ModelError("carrier sizes must be non-negative")
        elif isinstance(k, TermKind):
            table = model.funcs.get(d.name)
            if table is None:
                raise ModelError(f"missing function table for {d.name!r}")
            for env in context_instances(model, d.ctx):
                key = tuple(env[x] for x in d.arity)
                if key not in table:
                    raise ModelError(f"function {d.name!r} undefined at {key}")
                size = eval_type(model, env, k.ty)
                if not 0 <= table[key] < size:
                    raise ModelError(f"function {d.name!r} out of range at {key}")
        elif isinstance(k, TypeEqKind):
            for env in context_instances(model, d.ctx):
                if eval_type(model, env, k.lhs) != eval_type(model, env, k.rhs):
                    raise ModelError(f"type axiom {d.name!r} fails at {env}")
        elif isinstance(k, TermEqKind):
            for env in context_instances(model, d.ctx):
                if eval_term(model, env, k.lhs) != eval_term(model, env, k.rhs):
                    raise ModelError(f"axiom {d.name!r} fails at {env}")


def enumerate_models(theory: Theory, bound: int, budget: int = 2_000_000) -> list[Model]:
    """All models with carrier sizes at most bound, by backtracking.

    Declaration-order search with axiom checks as soon as an axiom's
    symbols are all assigned; the node budget caps visited partial
    assignments.
    """
    if bound < 0:
        raise ModelError("carrier bound must be non-negative")
    _require_first_order(theory)
    decls = theory.decls
    out: list[Model] = []
    model = Model(theory)
    nodes = 0

    def spend(n: int = 1) -> None:
        nonlocal nodes
        nodes += n
        if nodes > budget:
            raise BudgetExceeded(
                f"model search for {theory.name!r} exceeded {budget} nodes"
            )

    def rec(i: int) -> None:
        if i == len(decls):
            out.append(
                Model(
                    theory,
                    {c: dict(t) for c, t in model.carriers.items()},
                    {c: dict(t) for c, t in model.funcs.items()},
                )
            )
            return
        d = decls[i]
        k = d.kind
        if isinstance(k, TypeKind):
            keys = [tuple(env[x] for x in d.arity) for env in context_instances(model, d.ctx)]
            for sizes in itertools.product(range(bound + 1), repeat=len(keys)):
                spend()
                model.carriers[d.name] = dict(zip(keys, sizes))
                rec(i + 1)
            model.carriers.pop(d.name, None)
        elif isinstance(k, TermKind):
            envs = list(context_instances(model, d.ctx))
            keys = [tuple(env[x] for x in d.arity) for env in envs]
            ranges = [range(eval_type(model, env, k.ty)) for env in envs]
            for values in itertools.product(*ranges):
                spend()
                model.funcs[d.name] = dict(zip(keys, values))
                rec(i + 1)
            model.funcs.pop(d.name, None)
        elif isinstance(k, TypeEqKind):
            spend()
            for env in context_instances(model, d.ctx):
                if eval_type(model, env, k.lhs) != eval_type(model, env, k.rhs):
                    return
            rec(i + 1)
        else:
            spend()
            for env in context_instances(model, d.ctx):
                if eval_term(model, env, k.lhs) != eval_term(model, env, k.rhs):
                    return
            rec(i + 1)

    rec(0)
    return out


def count_models(theory: Theory, bound: int, budget: int = 2_000_000) -> int:
    return len(enumerate_models(theory, bound, budget))


def reduct(model: Model, interp: Interpretation) -> Model:
    """The model of the source theory induced along an interpretation.

    Each source carrier (function) is the evaluation of the symbol's
    image; equivalent interpretations induce identical reducts.
    """
    imgs = interp.images()
    out = Model(interp.src)
    for d in interp.src.decls:
        if not d.is_symbol:
            continue
        params, body = imgs[d.name]
        table: dict[Instance, int] = {}
        for env in context_instances(out, d.ctx):
            key = tuple(env[x] for x in d.arity)
            bound_env = {p: env[p] for p in params}
            if isinstance(d.kind, TypeKind):
                table[key] = eval_type(model, bound_env, body)
            else:
                table[key] = eval_term(model, bound_env, body)
        if isinstance(d.kind, TypeKind):
            out.carriers[d.name] = table
        else:
            out.funcs[d.name] = table
    return out


@dataclass
class DualityReport:
    construction: str
    bijection: bool
    colimit_count: int
    component_counts: tuple[int, ...]
    detail: str = ""


def check_colimit_duality(construction, bound: int, budget: int = 2_000_000) -> DualityReport:
    """Verify the comparison map between colimit models and the limit of
    component model sets is a bijection at the given carrier bound."""
    if isinstance(construction, Coproduct):
        return _coproduct_duality(construction, bound, budget)
    if isinstance(construction, Pushout):
        return _pushout_duality(construction, bound, budget)
    if isinstance(construction, Coequalizer):
        return _coequalizer_duality(construction, bound, budget)
    raise ModelError(f"unsupported construction: {construction!r}")


def _coproduct_duality(cp: Coproduct, bound: int, budget: int) -> DualityReport:
    ms = enumerate_models(cp.theory, bound, budget)
    m1 = enumerate_models(cp.left.src, bound, budget)
    m2 = enumerate_models(cp.right.src, bound, budget)
    pairs = [(reduct(m, cp.left).key(), reduct(m, cp.right).key()) for m in ms]
    expected = {(a.key(), b.key()) for a in m1 for b in m2}
    ok = len(pairs) == len(set(pairs)) and set(pairs) == expected
    return DualityReport(
        "coproduct", ok, len(ms), (len(m1), len(m2)),
        "" if ok else "comparison map is not a bijection",
    )


def _pushout_duality(po: Pushout, bound: int, budget: int) -> DualityReport:
    if po.sub is None:
        raise ModelError("pushout lacks construction data")
    ms = enumerate_models(po.theory, bound, budget)
    prime = enumerate_models(po.along.dst, bound, budget)
    total = enumerate_models(po.total, bound, budget)
    incl = Interpretation(
        po.sub,
        po.total,
        {
            d.name: App(d.name, tuple(Var(x) for x in d.arity))
            for d in po.sub.decls
            if d.is_symbol
        },
    )
    expected = {
        (a.key(), b.key())
        for a in prime
        for b in total
        if reduct(a, po.along).key() == reduct(b, incl).key()
    }
    pairs = [(reduct(m, po.into_prime).key(), reduct(m, po.into_total).key()) for m in ms]
    ok = len(pairs) == len(set(pairs)) and set(pairs) == expected
    return DualityReport(
        "pushout", ok, len(ms), (len(prime), len(total)),
        "" if ok else "comparison map is not a bijection",
    )


def _coequalizer_duality(ce: Coequalizer, bound: int, budget: int) -> DualityReport:
    ms = enumerate_models(ce.theory, bound, budget)
    base = enumerate_models(ce.left.dst, bound, budget)
    expected = {
        m.key() for m in base if reduct(m, ce.left).key() == reduct(m, ce.right).key()
    }
    got = [reduct(m, ce.quotient).key() for m in ms]
    ok = len(got) == len(set(got)) and set(got) == expected
    return DualityReport(
        "coequalizer", ok, len(ms), (len(base),),
        "" if ok else "comparison map is not a bijection",
    )
