"""Finite-set semantics of theories and an exhaustive model finder.

A model assigns a finite carrier {0, ..., s-1} to every semantic
instance of each dependent type symbol and an element to every instance
of each term symbol; it is valid when every declaration's judgment holds
at every instance of its context.  One evaluator reads both kinds of
table for validate_model, the finder's whole-equation checks and reduct.
Models are counted as labeled structures on canonical carriers, which
makes counts well-defined and the colimit comparison bijections literal.
The enumerator is the independent oracle for the colimit universal
properties; it is exhaustive, duplicate-free and deterministic.  It
fills a function table one cell at a time when axioms can be checked on
it cell by cell, and checks each such axiom instance, grounded once,
when the latest cell it reads is set, after Zhang & Zhang's SEM (IJCAI
1995) and McCune's Mace4 (2003); it breaks no symmetries, so counts stay
those of labeled structures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .deriv import HasType, IsType, Statement, TermEq, TypeEq
from .errors import BudgetExceeded, ModelError
from .expr import App, Expr, Var, walk
from .gatcat import Coequalizer, Coproduct, Interpretation, Pushout, identity
from .theory import Declaration, TermEqKind, TermKind, Theory, TypeKind

Instance = tuple[int, ...]


@dataclass
class Model:
    """Carrier sizes and function values, one table per symbol keyed by
    the symbol's arguments.  Models from one enumeration share tables, so
    treat every table as read-only."""

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


def _plan(theory: Theory) -> list[tuple[Declaration, list[Declaration], list[Declaration]]]:
    """The symbols in declaration order, each with the equations placed at it.

    One pass rejects binders and places every equation at the last
    symbol its sides or context types mention.  The equation is watched
    cell by cell when that symbol is a term symbol its context does not
    read; otherwise it is checked whole once the symbol's table is
    complete.  Each entry is (symbol, watched, checked after).
    """
    plan: list[tuple[Declaration, list[Declaration], list[Declaration]]] = []
    position: dict[str, int] = {}
    for d in theory.decls:
        reads: set[str] = set()
        mentions: set[str] = set()
        for j, e in enumerate(d.exprs()):
            for sub, _ in walk(e):
                if sub.__class__ is App:
                    if j < len(d.ctx):
                        reads.add(sub.head)
                    if j < len(d.ctx) + 2:  # a TermEqKind.ty is never evaluated
                        mentions.add(sub.head)
                elif sub.__class__ is not Var:
                    raise ModelError(
                        f"theory {theory.name!r} uses binders; finite models cover "
                        "only binder-free theories"
                    )
        if d.is_symbol:
            position[d.name] = len(plan)
            plan.append((d, [], []))
            continue
        sym, watched, after = plan[max(position[h] for h in mentions)]
        watch = isinstance(d.kind, TermEqKind) and isinstance(sym.kind, TermKind)
        (watched if watch and sym.name not in reads else after).append(d)
    return plan


def evaluate(model: Model, env: dict[str, int], e: Expr) -> int:
    """The element a term denotes at env, or the size of the carrier a
    type denotes: carriers are initial segments, so a size determines one.
    A head's table is looked up in funcs, then in carriers."""
    if e.__class__ is Var:
        return env[e.name]
    if e.__class__ is not App:
        raise ModelError("cannot evaluate a binder expression in a finite model")
    table = model.funcs.get(e.head)
    if table is None:
        table = model.carriers.get(e.head)
        if table is None:
            raise ModelError(f"no table for {e.head!r}")
    key = tuple([env[a.name] if a.__class__ is Var else evaluate(model, env, a) for a in e.args])
    v = table.get(key)
    if v is None:
        raise ModelError(f"{e.head!r} undefined at {key}")
    return v


def context_instances(model: Model, ctx) -> list[dict[str, int]]:
    """Environments for a telescope, in lexicographic element order.

    Each environment binds the telescope's variables in telescope order.
    """
    envs: list[dict[str, int]] = [{}]
    for x, ty in ctx:
        envs = [{**env, x: v} for env in envs for v in range(evaluate(model, env, ty))]
    return envs


def _tables(model: Model, d: Declaration) -> dict[str, dict[Instance, int]]:
    """Where symbol d's table lives: carriers for a type, funcs for a term."""
    return model.carriers if isinstance(d.kind, TypeKind) else model.funcs


def _true_at(model: Model, env: dict[str, int], j: Statement) -> bool:
    """Whether a declaration's judgment holds at one context instance."""
    match j:
        case IsType(ty):
            return evaluate(model, env, ty) >= 0
        case HasType(term, ty):
            return 0 <= evaluate(model, env, term) < evaluate(model, env, ty)
        case TypeEq(lhs, rhs) | TermEq(lhs, rhs):
            return evaluate(model, env, lhs) == evaluate(model, env, rhs)


def validate_model(model: Model) -> None:
    """Raise ModelError unless there is one table per symbol, in the dict of
    its kind only and keyed by exactly its context's instances, and each
    declaration's judgment holds at each instance of its context: a size is
    at least 0, an element below its type's size, an equation's sides equal."""
    decls = model.theory.decls
    for d in decls:
        if d.is_symbol and d.name not in _tables(model, d):
            raise ModelError(f"missing table for {d.name!r}")
    both = model.carriers.keys() & model.funcs.keys()
    if both:
        raise ModelError(f"{min(both)!r} has both a carrier and a function table")
    stray = (model.carriers.keys() | model.funcs.keys()) - {d.name for d in decls if d.is_symbol}
    if stray:
        raise ModelError(f"{min(stray)!r} is not a symbol of {model.theory.name!r}")
    for d in decls:
        envs = context_instances(model, d.ctx)
        if d.is_symbol and _tables(model, d)[d.name].keys() != {tuple(e.values()) for e in envs}:
            raise ModelError(f"{d.name!r} is not defined at exactly its context's instances")
        j = d.judgment()
        for env in envs:
            if not _true_at(model, env, j):
                raise ModelError(f"{d.name!r} fails at {env}")


def enumerate_models(theory: Theory, bound: int, budget: int = 2_000_000) -> list[Model]:
    """All models with carrier sizes at most bound, by backtracking.

    Symbols are assigned in declaration order.  A carrier table, or a
    function table that no equation watches, is chosen whole; a watched
    function table is filled one cell at a time in context-instance key
    order.  Each watched equation instance is grounded once, with its
    variables and the complete tables read, and waits on the latest cell
    it reads that is still unset: as cells are set in key order, it is
    evaluated again exactly when that cell is set, and it can turn false
    only then.  Values are tried in ascending order, so models come out
    in the order of the whole-table product.  The budget counts nodes:
    one per whole table chosen and one per cell value tried.  The models
    share every table that is the same in several of them, so they must
    be treated as read-only.
    """
    out: list[Model] = []
    _search(
        theory, bound, budget, lambda m: out.append(Model(theory, dict(m.carriers), dict(m.funcs)))
    )
    return out


def count_models(theory: Theory, bound: int, budget: int = 2_000_000) -> int:
    """len(enumerate_models(...)), without copying the models."""
    found = itertools.count()
    _search(theory, bound, budget, lambda _: next(found))
    return next(found)


def _search(theory: Theory, bound: int, budget: int, leaf: Callable[[Model], None]) -> None:
    """The search of enumerate_models; leaf sees each model as it is completed."""
    if bound < 0:
        raise ModelError("carrier bound must be non-negative")
    if budget < 0:
        raise ModelError("node budget must be non-negative")
    plan = _plan(theory)
    model = Model(theory)
    nodes = 0

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"model search for {theory.name!r} exceeded {budget} nodes")

    def holds(eqs: list[Declaration]) -> bool:
        # An undefined value means some equation not yet checked fails in
        # every completion of this assignment, so it prunes like a failure.
        try:
            envs = ((d, env) for d in eqs for env in context_instances(model, d.ctx))
            return all(_true_at(model, env, d.judgment()) for d, env in envs)
        except ModelError:
            return False

    def fill(s: int, keys: list[Instance], sizes: list[int]) -> None:
        d, watched, eqs = plan[s]
        name = d.name
        funcs = model.funcs
        table: dict[Instance, int] = {}
        funcs[name] = table
        get = table.get
        watches: dict[Instance, list] = {key: [] for key in keys}
        late: Instance = ()  # the latest cell ground has made a key for

        def ground(e: Expr, env: dict[str, int]):
            """e at env with the complete tables read: an element, the key
            of a cell of table, or [table of e's head, grounded arguments]
            for an application that waits on cells of table."""
            nonlocal late
            if e.__class__ is Var:
                return env[e.name]
            args = []
            for a in e.args:
                args.append(env[a.name] if a.__class__ is Var else ground(a, env))
            tbl = funcs[e.head]
            for a in args:
                if a.__class__ is not int:
                    return [tbl, args]
            key = tuple(args)
            if tbl is table and key in watches:
                late = key if key > late else late
                return key
            return tbl[key]

        def value(g):
            """g's element, or the latest unset cell it waits on; KeyError if undefined."""
            if g.__class__ is tuple:
                return get(g, g)
            tbl, args = g
            key = []
            wait = None
            for a in args:
                if a.__class__ is not int:
                    a = get(a, a) if a.__class__ is tuple else value(a)
                    if a.__class__ is not int:
                        if wait is None or a > wait:
                            wait = a
                        continue
                key.append(a)
            if wait is not None:
                return wait
            key = tuple(key)
            return get(key, key) if tbl is table and key in watches else tbl[key]

        def propagate(insts: list, moved: list[Instance]) -> bool:
            """Check instances; watch each undecided one on the latest unset cell it reads."""
            try:
                for inst in insts:
                    lhs, rhs = inst
                    a = lhs if lhs.__class__ is int else value(lhs)
                    b = rhs if rhs.__class__ is int else value(rhs)
                    if a.__class__ is int and b.__class__ is int:
                        if a != b:
                            return False
                        continue
                    r = b if a.__class__ is int or (b.__class__ is not int and b > a) else a
                    watches[r].append(inst)
                    moved.append(r)
            except KeyError:  # an undefined value fails in every completion
                return False
            return True

        try:
            # The table is empty and each watched equation applies name, so an
            # instance waits on the latest cell that grounding it made a key for.
            try:
                for eq in watched:
                    for env in context_instances(model, eq.ctx):
                        late = ()
                        inst = (ground(eq.kind.lhs, env), ground(eq.kind.rhs, env))
                        watches[late].append(inst)
            except (KeyError, ModelError):
                return
            # Iterative backtracking over the cells: tried[j] is the value of
            # cell j, moved[j] the cells it moved watches to, undone in reverse.
            n = len(keys)
            tried = [-1] * n
            moved: list[list[Instance]] = [[] for _ in keys]
            j = 0
            while j >= 0:
                if j == n:
                    if not eqs or holds(eqs):
                        funcs[name] = dict(table)  # the snapshot later levels and models share
                        rec(s + 1)
                        funcs[name] = table
                    j -= 1
                    continue
                key = keys[j]
                for r in reversed(moved[j]):
                    watches[r].pop()
                moved[j].clear()
                v = tried[j] + 1
                if v == sizes[j]:
                    tried[j] = -1
                    table.pop(key, None)
                    j -= 1
                    continue
                spend()
                tried[j] = v
                table[key] = v
                if propagate(watches[key], moved[j]):
                    j += 1
        finally:  # end their self-reference cycles on every exit: free the instances now
            del ground, value

    def rec(s: int) -> None:
        if s == len(plan):
            leaf(model)
            return
        d, watched, eqs = plan[s]
        envs = context_instances(model, d.ctx)
        keys = [tuple(env.values()) for env in envs]
        tables = _tables(model, d)
        carrier = tables is model.carriers
        sizes = [bound + 1 if carrier else evaluate(model, env, d.kind.ty) for env in envs]
        if watched:
            fill(s, keys, sizes)
        else:
            for values in itertools.product(*map(range, sizes)):
                spend()
                tables[d.name] = dict(zip(keys, values))
                if not eqs or holds(eqs):
                    rec(s + 1)
        tables.pop(d.name, None)

    try:
        rec(0)
    finally:  # end the cycle through rec's own closure cell on every exit
        del rec


def reduct(model: Model, interp: Interpretation) -> Model:
    """The model of the source theory induced along an interpretation.

    Each source symbol's table is the evaluation of the symbol's image;
    equivalent interpretations induce identical reducts.
    """
    imgs = interp.images
    out = Model(interp.src)
    for d in interp.src.decls:
        if d.is_symbol:
            params, body = imgs[d.name]
            _tables(out, d)[d.name] = {
                tuple(env.values()): evaluate(model, {p: env[p] for p in params}, body)
                for env in context_instances(out, d.ctx)
            }
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


def _bijection(construction: str, got: list, expected: set, components) -> DualityReport:
    """The report on the comparison map, which sends the colimit's models to got."""
    ok = len(got) == len(set(got)) and set(got) == expected
    detail = "" if ok else "comparison map is not a bijection"
    return DualityReport(construction, ok, len(got), tuple(map(len, components)), detail)


def _coproduct_duality(cp: Coproduct, bound: int, budget: int) -> DualityReport:
    ms = enumerate_models(cp.theory, bound, budget)
    m1 = enumerate_models(cp.left.src, bound, budget)
    m2 = enumerate_models(cp.right.src, bound, budget)
    pairs = [(reduct(m, cp.left).key(), reduct(m, cp.right).key()) for m in ms]
    expected = {(a.key(), b.key()) for a in m1 for b in m2}
    return _bijection("coproduct", pairs, expected, (m1, m2))


def _pushout_duality(po: Pushout, bound: int, budget: int) -> DualityReport:
    if po.sub is None:
        raise ModelError("pushout lacks construction data")
    ms = enumerate_models(po.theory, bound, budget)
    prime = enumerate_models(po.along.dst, bound, budget)
    total = enumerate_models(po.total, bound, budget)
    incl = identity(po.sub).retarget(po.total)
    over: dict = {}  # the total models over each model of the shared part
    for b in total:
        over.setdefault(reduct(b, incl).key(), []).append(b.key())
    expected = {(a.key(), b) for a in prime for b in over.get(reduct(a, po.along).key(), ())}
    pairs = [(reduct(m, po.into_prime).key(), reduct(m, po.into_total).key()) for m in ms]
    return _bijection("pushout", pairs, expected, (prime, total))


def _coequalizer_duality(ce: Coequalizer, bound: int, budget: int) -> DualityReport:
    ms = enumerate_models(ce.theory, bound, budget)
    base = enumerate_models(ce.left.dst, bound, budget)
    expected = {
        m.key() for m in base if reduct(m, ce.left).key() == reduct(m, ce.right).key()
    }
    got = [reduct(m, ce.quotient).key() for m in ms]
    return _bijection("coequalizer", got, expected, (base,))
