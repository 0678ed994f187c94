"""Randomized whole-pipeline properties on generated theories.

Flat theories (nullary type symbols, arbitrary term operators and
equations) are enough to drive every pipeline stage, and applying the
families functor turns them into genuinely dependent ones.
"""

import itertools
import random

from gatc import deriv
from gatc.expr import App, Expr, Var
from gatc.gatcat import (
    check_interpretation,
    check_mutually_inverse,
    coproduct,
    limit_presentation,
    reconstruct,
    renaming_interpretation,
)
from gatc.gatform import parse, print_theory
from gatc.models import check_colimit_duality, enumerate_models
from gatc.poly import poly_apply
from gatc.theory import (
    Declaration,
    HasType,
    IsType,
    TermEq,
    Theory,
    check_theory,
    term_eq_ax,
    term_sym,
    type_sym,
)

from model_oracle import context_instances
from model_oracle import evaluate as eval_term


def random_flat_theory(rng: random.Random, tag: int, units: bool = False) -> Theory:
    """A random well-formed theory with nullary type symbols.  With units,
    it also declares a constant e and, after it, a binary operator u with
    the unit law u(e, x) = x or u(x, e) = x, which the other axioms may
    mention too; without, the draws from rng are as they always were."""
    n_types = rng.randint(1, 3)
    types = [f"T{tag}_{i}" for i in range(n_types)]
    decls = [type_sym(t) for t in types]
    ops: dict[str, list[tuple[str, tuple[str, ...]]]] = {t: [] for t in types}

    def gen_term(target: str, pool: dict[str, list[str]], depth: int) -> Expr:
        choices = []
        if pool.get(target):
            choices.append("var")
        usable = [op for op in ops[target] if depth > 0 or not op[1]]
        if usable:
            choices.append("op")
        if not choices:
            return None
        if rng.choice(choices) == "var":
            return Var(rng.choice(pool[target]))
        name, arg_types = rng.choice(usable)
        args = []
        for at in arg_types:
            sub = gen_term(at, pool, depth - 1)
            if sub is None:
                return None
            args.append(sub)
        return App(name, tuple(args))

    n_ops = rng.randint(2, 4)
    for i in range(n_ops):
        arity = rng.randint(0, 2)
        arg_types = tuple(rng.choice(types) for _ in range(arity))
        result = rng.choice(types)
        name = f"f{tag}_{i}"
        ctx = tuple((f"v{j}", App(at)) for j, at in enumerate(arg_types))
        decls.append(term_sym(name, ctx, App(result)))
        ops[result].append((name, arg_types))

    unit_laws = []
    if units:
        e, u, x = f"e{tag}", f"u{tag}", Var("x")
        unit_type, carrier, left = rng.choice(types), rng.choice(types), rng.random() < 0.5
        arg_types = (unit_type, carrier) if left else (carrier, unit_type)
        ctx = tuple((f"v{j}", App(at)) for j, at in enumerate(arg_types))
        decls += [term_sym(e, (), App(unit_type)), term_sym(u, ctx, App(carrier))]
        ops[unit_type].append((e, ()))
        ops[carrier].append((u, arg_types))
        side = App(u, (App(e), x) if left else (x, App(e)))
        unit_laws.append(term_eq_ax(f"unit{tag}", (("x", App(carrier)),), side, x, App(carrier)))

    def groundable(ctx, lhs: Expr, rhs: Expr) -> bool:
        # the engine only instantiates an axiom side that is not a bare
        # variable and binds every variable of the axiom's context, so the
        # generator sticks to axioms with at least one such side
        from gatc.expr import free_vars

        return any(
            not isinstance(side, Var) and {x for x, _ in ctx} <= set(free_vars(side))
            for side in (lhs, rhs)
        )

    for i in range(rng.randint(0, 2)):
        target = rng.choice(types)
        n_vars = rng.randint(0, 2)
        ctx_types = [rng.choice(types) for _ in range(n_vars)]
        pool: dict[str, list[str]] = {}
        ctx = []
        for j, ct in enumerate(ctx_types):
            ctx.append((f"w{j}", App(ct)))
            pool.setdefault(ct, []).append(f"w{j}")
        lhs = gen_term(target, pool, 2)
        rhs = gen_term(target, pool, 2)
        if lhs is None or rhs is None or lhs == rhs or not groundable(ctx, lhs, rhs):
            continue
        decls.append(term_eq_ax(f"ax{tag}_{i}", tuple(ctx), lhs, rhs, App(target)))
    return check_theory(decls + unit_laws, name=f"R{tag}")


def independent_model_count(theory: Theory, bound: int) -> int:
    """Second oracle: no backtracking, enumerate every full assignment of
    carrier sizes and operation tables, then filter by the axioms."""
    type_names = [d.name for d in theory.decls if isinstance(d.kind, IsType)]
    terms = [d for d in theory.decls if isinstance(d.kind, HasType)]
    axioms = [d for d in theory.decls if isinstance(d.kind, TermEq)]
    count = 0
    for sizes in itertools.product(range(bound + 1), repeat=len(type_names)):
        size_of = dict(zip(type_names, sizes))
        choices: list[list[dict]] = []  # each term symbol's candidate tables
        for d in terms:
            arg_sizes = [size_of[ty.head] for _, ty in d.ctx]
            out_size = size_of[d.kind.ty.head]
            keys = list(itertools.product(*[range(s) for s in arg_sizes]))
            if out_size == 0 and keys:
                choices.append([])
                continue
            choices.append(
                [dict(zip(keys, vals)) for vals in itertools.product(range(out_size), repeat=len(keys))]
            )
        for combo in itertools.product(*choices):
            tables = {d.name: t for d, t in zip(terms, combo)}

            def ev(e: Expr, env) -> int:
                if isinstance(e, Var):
                    return env[e.name]
                return tables[e.head][tuple(ev(a, env) for a in e.args)]

            ok = True
            for ax in axioms:
                arg_sizes = [size_of[ty.head] for _, ty in ax.ctx]
                for vals in itertools.product(*[range(s) for s in arg_sizes]):
                    env = {x: v for (x, _), v in zip(ax.ctx, vals)}
                    if ev(ax.kind.lhs, env) != ev(ax.kind.rhs, env):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def test_random_theories_full_pipeline():
    rng = random.Random(20240809)
    for tag in range(24):
        t = random_flat_theory(rng, tag)

        # print -> parse -> certify -> print is a fixed point
        text = print_theory(t)
        [tb] = parse(text).theories()
        t2 = check_theory(tb.decls, name=tb.name)
        assert print_theory(t2) == text

        # the families theory certifies (stability) and round-trips too
        p = poly_apply(t)
        assert len(p.theory.decls) == len(t.decls) + 1
        text_p = print_theory(p.theory)
        [pb] = parse(text_p).theories()
        assert print_theory(check_theory(pb.decls, name=pb.name)) == text_p

        # a second application stacks another index variable
        pp = poly_apply(p.theory)
        assert len(pp.theory.decls) == len(t.decls) + 2


def test_random_theories_reconstruct():
    rng = random.Random(77)
    for tag in range(10):
        t = random_flat_theory(rng, 100 + tag)
        rec, renaming = reconstruct(limit_presentation(t))
        fwd = renaming_interpretation(t, rec, renaming)
        inv = {v: k for k, v in renaming.items()}
        back = renaming_interpretation(
            rec, t, {d.name: inv[d.name] for d in rec.decls if d.is_symbol}
        )
        assert check_interpretation(fwd).ok
        assert check_interpretation(back).ok
        assert check_mutually_inverse(fwd, back).proved


def test_random_theories_model_counts_match_independent_oracle():
    rng = random.Random(99)
    checked = 0
    for tag in range(14):
        t = random_flat_theory(rng, 200 + tag)
        # keep the flat oracle's blunt enumeration affordable
        table_cells = sum(2 ** len(d.ctx) for d in t.decls if isinstance(d.kind, HasType))
        if table_cells > 12:
            continue
        expected = independent_model_count(t, 1)
        got = len(enumerate_models(t, 1))
        assert got == expected, t.name
        checked += 1
    assert checked >= 5


def test_random_theories_coproduct_duality():
    rng = random.Random(123)
    done = 0
    for tag in range(10):
        a = random_flat_theory(rng, 300 + tag)
        b = random_flat_theory(rng, 400 + tag)
        cells = sum(2 ** len(d.ctx) for d in a.decls + b.decls if isinstance(d.kind, HasType))
        if cells > 10:
            continue
        r = check_colimit_duality(coproduct(a, b), 1)
        assert r.bijection, (a.name, b.name)
        done += 1
    assert done >= 3


def test_random_proved_equalities_hold_in_random_models():
    rng = random.Random(321)
    bridged = 0
    for tag in range(12):
        t = random_flat_theory(rng, 500 + tag)
        if not t.axioms():
            continue
        cells = sum(2 ** len(d.ctx) for d in t.decls if isinstance(d.kind, HasType))
        if cells > 10:
            continue
        ms = enumerate_models(t, 2, budget=400_000)
        ax = t.axioms()[0]
        v = deriv.eq_check(t, ax.ctx, ax.kind.lhs, ax.kind.rhs)
        assert v.proved
        for m in ms[: min(len(ms), 40)]:
            for env in context_instances(m, ax.ctx):
                assert eval_term(m, env, ax.kind.lhs) == eval_term(m, env, ax.kind.rhs)
                bridged += 1
    assert bridged > 0
