"""Finite-set semantics of theories and an exhaustive model finder.

A model assigns a finite carrier {0, ..., s-1} to every semantic
instance of each dependent type symbol and an element to every instance
of each term symbol; it is valid when every declaration's judgment holds
at every instance of its context.  Each Theory object compiles its
declarations once into one program of readers, which take a model's
tables and a context instance as a tuple of values; validate_model, the
finder and reduct read models only through it.
Models are counted as labeled structures on canonical carriers, which
makes counts well-defined and the colimit comparison bijections literal.
The enumerator is the independent oracle for the colimit universal
properties; it is exhaustive, duplicate-free and deterministic.  It
fills a function table one cell at a time when axioms can be checked on
it cell by cell, and checks each such axiom instance, grounded once,
when the latest cell it reads is set, after Zhang & Zhang's SEM (IJCAI
1995) and McCune's Mace4 (2003); it breaks no symmetries, so counts stay
those of labeled structures.  A search creates no reference cycles, and
it relies on that: it runs with the cyclic garbage collector paused, so
a cycle made during a search lives until the next collection after it.
The switch is process-wide; a search in another thread at the same time
only loses the speed-up.
"""

from __future__ import annotations

import gc
import itertools
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .deriv import HasType, IsType, TermEq, TypeEq
from .errors import BudgetExceeded, ModelError
from .expr import App, Expr, Var, walk
from .gatcat import Coequalizer, Coproduct, Interpretation, Pushout, identity
from .theory import Declaration, Theory

Instance = tuple[int, ...]
Tables = dict[str, dict[Instance, int]]  # every symbol's table, by name


@dataclass
class Model:
    """One table per symbol, keyed by the symbol's context instances; the
    symbol's judgment decides what a cell holds: a type symbol's is the
    size of a carrier, a term symbol's an element of its type's carrier.
    Models from one enumeration share tables, so treat every table as
    read-only."""

    theory: Theory
    tables: Tables

    def key(self):
        """Canonical hashable form, independent of declaration names' order."""
        return tuple((c, tuple(sorted(t.items()))) for c, t in sorted(self.tables.items()))


def _reader(e: Expr, pos: dict[str, int]) -> Callable[[Tables, Instance], int]:
    """e's value at an instance x of the telescope whose variables pos
    numbers: an element, or the size of the carrier a type denotes
    (carriers are initial segments, so a size determines one).  A flat
    application reads its key straight from x.  KeyError if undefined."""
    if e.__class__ is Var:
        return lambda tables, x, i=pos[e.name]: x[i]
    if all(a.__class__ is Var for a in e.args):
        idx = [pos[a.name] for a in e.args]
        if idx == list(range(len(idx))):
            return lambda tables, x, h=e.head, n=len(idx): tables[h][x[:n]]
    args = [_reader(a, pos) for a in e.args]
    return lambda tables, x, h=e.head: tables[h][tuple([a(tables, x) for a in args])]


def _instances(ctx) -> Callable[[Tables], list[Instance]]:
    """A telescope's instances in lexicographic order, each the tuple of
    its variables' values in telescope order."""
    sizes = [
        _reader(ty, {x: i for i, (x, _) in enumerate(ctx[:k])}) for k, (_, ty) in enumerate(ctx)
    ]

    def instances(tables: Tables) -> list[Instance]:
        xs: list[Instance] = [()]
        for size in sizes:
            xs = [x + (v,) for x in xs for v in range(size(tables, x))]
        return xs

    return instances


# One declaration, compiled: the instances of its context, whether its
# judgment holds at one of them, and a term symbol's type (None for a
# type symbol, whose table is a carrier).
_Compiled = NamedTuple(
    "_Compiled",
    [
        ("decl", Declaration),
        ("instances", Callable[[Tables], list[Instance]]),
        ("true_at", Callable[[Tables, Instance], bool]),
        ("ty", Optional[Callable[[Tables, Instance], int]]),
    ],
)


def _compiled(d: Declaration) -> _Compiled:
    pos, instances = {x: i for i, x in enumerate(d.arity)}, _instances(d.ctx)
    match d.judgment():
        case IsType(ty):
            a = _reader(ty, pos)
            return _Compiled(d, instances, lambda t, x: a(t, x) >= 0, None)
        case HasType(term, ty):
            a, b = _reader(term, pos), _reader(ty, pos)
            return _Compiled(d, instances, lambda t, x: 0 <= a(t, x) < b(t, x), b)
        case TypeEq(lhs, rhs) | TermEq(lhs, rhs):
            a, b = _reader(lhs, pos), _reader(rhs, pos)
            return _Compiled(d, instances, lambda t, x: a(t, x) == b(t, x), None)


def _compile(theory: Theory) -> list[tuple[_Compiled, list[_Compiled], list[_Compiled]]]:
    """theory's finite-model program, its plan: the symbols in declaration
    order, compiled, each with the equations placed at it, compiled.
    Theory._program builds it once per Theory object.

    One pass rejects binders and places every equation at the last
    symbol its sides or context types mention.  The equation is watched
    cell by cell when that symbol is a term symbol its context does not
    read; otherwise it is checked whole once the symbol's table is
    complete.  Each plan entry is (symbol, watched, checked after).
    """
    plan: list[tuple[_Compiled, list[_Compiled], list[_Compiled]]] = []
    position: dict[str, int] = {}
    for d in theory.decls:
        exprs = list(d.exprs())  # the context's types, then the kind's
        if any(t.__class__ not in (App, Var) for e in exprs for t, _ in walk(e)):
            raise ModelError(
                f"theory {theory.name!r} uses binders; finite models cover "
                "only binder-free theories"
            )
        reads = {t.head for e in exprs[: len(d.ctx)] for t, _ in walk(e, App)}
        # a TermEqKind.ty, the third of its kind's expressions, is never evaluated
        mentions = {t.head for e in exprs[: len(d.ctx) + 2] for t, _ in walk(e, App)}
        c = _compiled(d)
        if d.is_symbol:
            position[d.name] = len(plan)
            plan.append((c, [], []))
            continue
        sym, watched, after = plan[max(position[h] for h in mentions)]
        watch = isinstance(d.judgment(), TermEq) and sym.ty is not None
        (watched if watch and sym.decl.name not in reads else after).append(c)
    return plan


def validate_model(model: Model) -> None:
    """Raise ModelError unless there is one table per symbol, keyed by
    exactly its context's instances, and each declaration's judgment holds
    at each instance of its context: a size is at least 0, an element
    below its type's size, an equation's sides equal."""
    plan, tables = model.theory._program, model.tables
    if stray := tables.keys() - {c.decl.name for c, _, _ in plan}:
        raise ModelError(f"{min(stray)!r} is not a symbol of {model.theory.name!r}")
    try:  # each symbol, then the equations placed at it: a table is checked before it is read
        for c in itertools.chain.from_iterable((sym, *eqs, *after) for sym, eqs, after in plan):
            d, xs = c.decl, c.instances(tables)
            if d.is_symbol and (d.name not in tables or tables[d.name].keys() != set(xs)):
                raise ModelError(f"{d.name!r} has no table keyed by exactly its context's instances")
            for x in xs:
                if not c.true_at(tables, x):
                    raise ModelError(f"{d.name!r} fails at {dict(zip(d.arity, x))}")
    except KeyError as exc:
        raise ModelError(f"{c.decl.name!r} reads an undefined value at {exc}") from None


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
    one per whole table chosen and one per cell value tried.  It bounds
    memory as well: a whole table's values are built only as far as the
    budget can reach.  The models share every table that is the same in
    several of them, so they must be treated as read-only.
    """
    out: list[Model] = []
    _search(theory, bound, budget, lambda tables: out.append(Model(theory, dict(tables))))
    return out


def count_models(theory: Theory, bound: int, budget: int = 2_000_000) -> int:
    """len(enumerate_models(...)), without copying the models."""
    found = itertools.count()
    _search(theory, bound, budget, lambda _: next(found))
    return next(found)


def _search(theory: Theory, bound: int, budget: int, leaf: Callable[[Tables], None]) -> None:
    """The search of enumerate_models; leaf sees each model's tables as
    they are completed, in a dict the search goes on to change.

    It runs with the cyclic collector paused and restores the caller's
    setting on every exit.  That is sound only because the search makes
    no reference cycles: fill and this function end their closures' own
    cycles, and tests check that a search leaves no cyclic garbage.
    """
    if bound < 0:
        raise ModelError("carrier bound must be non-negative")
    if budget < 0:
        raise ModelError("node budget must be non-negative")
    plan = theory._program
    # Carrier sizes range below top, as itertools.product builds every range
    # in full first: a carrier reaches size v only after v nodes, so no size
    # past the budget is reached, and elements range below carrier sizes.
    top = min(bound, budget) + 1
    if top > sys.maxsize:
        raise ModelError(f"a carrier range of {top} sizes exceeds {sys.maxsize}")
    tables: Tables = {}  # the tables set so far, read by the compiled program
    nodes = 0

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"model search for {theory.name!r} exceeded {budget} nodes")

    def holds(eqs: list[_Compiled]) -> bool:
        # An undefined value means some equation not yet checked fails in
        # every completion of this assignment, so it prunes like a failure.
        try:
            return all(c.true_at(tables, x) for c in eqs for x in c.instances(tables))
        except KeyError:
            return False

    def fill(s: int, keys: list[Instance], sizes: list[int]) -> None:
        c, watched, eqs = plan[s]
        name = c.decl.name
        table: dict[Instance, int] = {}
        tables[name] = table
        get = table.get
        watches: dict[Instance, list] = {key: [] for key in keys}
        late: Instance = ()  # the latest cell ground has made a key for

        def ground(e: Expr, x: Instance):
            """e at instance x with the complete tables read: an element, the
            key of a cell of table, or [table of e's head, grounded arguments]
            for an application that waits on cells of table."""
            nonlocal late
            if e.__class__ is Var:
                return x[pos[e.name]]
            args = []
            for a in e.args:
                args.append(x[pos[a.name]] if a.__class__ is Var else ground(a, x))
            tbl = tables[e.head]
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
                    pos = {v: i for i, v in enumerate(eq.decl.arity)}  # read by ground
                    for x in eq.instances(tables):
                        late = ()
                        inst = (ground(eq.decl.kind.lhs, x), ground(eq.decl.kind.rhs, x))
                        watches[late].append(inst)
            except KeyError:
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
                        # the snapshot later levels and models share
                        tables[name] = dict(table)
                        rec(s + 1)
                        tables[name] = table
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
            leaf(tables)
            return
        c, watched, eqs = plan[s]
        # The tables this level sets stay behind when it returns: every
        # check reads only symbols set before it, so none reads a stale one.
        name, keys = c.decl.name, c.instances(tables)
        if watched:
            fill(s, keys, [c.ty(tables, x) for x in keys])
        else:
            sizes = [top] * len(keys) if c.ty is None else [c.ty(tables, x) for x in keys]
            for values in itertools.product(*map(range, sizes)):
                spend()
                tables[name] = dict(zip(keys, values))
                if not eqs or holds(eqs):
                    rec(s + 1)

    # A collection during the search would free nothing, only walk the
    # growing heap of live models again and again: pause the collector.
    enabled = gc.isenabled()
    gc.disable()
    try:
        rec(0)
    finally:  # end the cycle through rec's own closure cell on every exit
        del rec
        if enabled:
            gc.enable()


def _reducer(interp: Interpretation) -> Callable[[Model], Model]:
    """reduct along interp, with each source symbol's image compiled once."""
    images = [  # an image is over its symbol's own telescope
        (c, _reader(interp.image(c.decl.name), {x: i for i, x in enumerate(c.decl.arity)}))
        for c, _, _ in interp.src._program
    ]

    def reduce(model: Model) -> Model:
        tables, got = model.tables, {}
        for c, image in images:  # got is read by the source telescopes as it grows
            got[c.decl.name] = {x: image(tables, x) for x in c.instances(got)}
        return Model(interp.src, got)

    return reduce


def reduct(model: Model, interp: Interpretation) -> Model:
    """The model of the source theory induced along an interpretation.

    Each source symbol's table is the evaluation of the symbol's image;
    equivalent interpretations induce identical reducts.
    """
    return _reducer(interp)(model)


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
    check = _DUALITY.get(type(construction))
    if check is None:
        raise ModelError(f"unsupported construction: {construction!r}")
    return check(construction, bound, budget)


def _bijection(construction: str, got: list, expected: set, components) -> DualityReport:
    """The report on the comparison map, which sends the colimit's models to got."""
    ok = len(got) == len(set(got)) and set(got) == expected
    detail = "" if ok else "comparison map is not a bijection"
    return DualityReport(construction, ok, len(got), tuple(map(len, components)), detail)


def _coproduct_duality(cp: Coproduct, bound: int, budget: int) -> DualityReport:
    ms = enumerate_models(cp.theory, bound, budget)
    m1 = enumerate_models(cp.left.src, bound, budget)
    m2 = enumerate_models(cp.right.src, bound, budget)
    left, right = _reducer(cp.left), _reducer(cp.right)
    pairs = [(left(m).key(), right(m).key()) for m in ms]
    expected = set(itertools.product([a.key() for a in m1], [b.key() for b in m2]))
    return _bijection("coproduct", pairs, expected, (m1, m2))


def _pushout_duality(po: Pushout, bound: int, budget: int) -> DualityReport:
    ms = enumerate_models(po.theory, bound, budget)
    prime = enumerate_models(po.along.dst, bound, budget)
    total = enumerate_models(po.total, bound, budget)
    incl, along, into_prime, into_total = map(
        _reducer, (identity(po.sub).retarget(po.total), po.along, po.into_prime, po.into_total)
    )
    over: dict = {}  # the total models over each model of the shared part
    for b in total:
        over.setdefault(incl(b).key(), []).append(b.key())
    expected = {(a.key(), b) for a in prime for b in over.get(along(a).key(), ())}
    pairs = [(into_prime(m).key(), into_total(m).key()) for m in ms]
    return _bijection("pushout", pairs, expected, (prime, total))


def _coequalizer_duality(ce: Coequalizer, bound: int, budget: int) -> DualityReport:
    ms = enumerate_models(ce.theory, bound, budget)
    base = enumerate_models(ce.left.dst, bound, budget)
    left, right, quotient = map(_reducer, (ce.left, ce.right, ce.quotient))
    expected = {m.key() for m in base if left(m).key() == right(m).key()}
    got = [quotient(m).key() for m in ms]
    return _bijection("coequalizer", got, expected, (base,))


_DUALITY = {
    Coproduct: _coproduct_duality,
    Pushout: _pushout_duality,
    Coequalizer: _coequalizer_duality,
}
