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
it cell by cell, and checks each such axiom instance when the latest
cell it reads is set, after Zhang & Zhang's SEM (IJCAI 1995) and
McCune's Mace4 (2003); it breaks no symmetries, so counts stay those of
labeled structures.  The table's cells are numbered in key order, and
each instance is grounded into reads of numbered cells, whose nested
applications are resolved in advance into lookup lists, so a check
indexes lists and builds no key.  An instance is grounded once per
assignment of the tables its grounding reads, not once per fill: the
search keeps each watched equation's last grounding with those tables
and reuses it while they are the same objects.  One rule keeps a
level's context instances too, while the tables its context reads stay
the same; it does not apply at a level just after one of those tables,
where every visit follows a new table.  An instance with a
cell on one side and an element on the other fixes the cell, as in
SEM: the fill sets every fixed cell before it branches and backtracks
over the others only, so a search node is one whole table chosen or one
value tried at a cell that no instance fixes.  A search creates no
reference cycles, and it relies on that: it runs with the cyclic garbage
collector paused, so a cycle made during a search lives until the next
collection after it.  The switch is process-wide; a search in another
thread at the same time only loses the speed-up.
"""

from __future__ import annotations

import gc
import itertools
import sys
from dataclasses import dataclass
from operator import ge, itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import BudgetExceeded, ModelError
from .expr import App, Expr, Var, head_symbols, walk
from .gatcat import Coequalizer, Coproduct, Interpretation, Pushout, identity
from .theory import Declaration, HasType, IsType, TermEq, Theory, TypeEq

Instance = tuple[int, ...]
Tables = dict[str, dict[Instance, int]]  # every symbol's table, by name


@dataclass(slots=True)
class Model:
    """One table per symbol, keyed by the symbol's context instances; the
    symbol's judgment decides what a cell holds: a type symbol's is the
    size of a carrier, a term symbol's an element of its type's carrier.
    Models from one enumeration share tables, so treat every table as
    read-only.  A model has no __dict__: an enumeration can hold many."""

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
        if len(idx) > 1:
            return lambda tables, x, h=e.head, key=itemgetter(*idx): tables[h][key(x)]
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


# How a watched equation is grounded: the symbols whose tables that
# reads; its distinct applications, each after its arguments, as (head,
# the columns of its arguments, the positions of those that apply the
# watched symbol, so that their reads wait on a cell); and the columns
# of its sides, first one that mentions the watched symbol.  Its
# variables' columns come first, in context order, then one per
# application.
_Watch = NamedTuple(
    "_Watch",
    [
        ("reads", tuple[str, ...]),
        ("steps", tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]),
        ("lhs", int),
        ("rhs", int),
    ],
)
# One declaration, compiled: the instances of its context, whether its
# judgment holds at one of them, a term symbol's type (None for a type
# symbol, whose table is a carrier), a watched equation's grounding, and
# the tables a symbol's context reads where its instances are kept (empty
# where they are built on every visit).
_Compiled = NamedTuple(
    "_Compiled",
    [
        ("decl", Declaration),
        ("instances", Callable[[Tables], list[Instance]]),
        ("true_at", Callable[[Tables, Instance], bool]),
        ("ty", Optional[Callable[[Tables, Instance], int]]),
        ("watch", Optional[_Watch]),
        ("reads", tuple[str, ...]),
    ],
)


def _compiled(d: Declaration) -> _Compiled:
    pos, instances = {x: i for i, x in enumerate(d.arity)}, _instances(d.ctx)
    match d.judgment():
        case IsType(ty):
            a = _reader(ty, pos)
            return _Compiled(d, instances, lambda t, x: a(t, x) >= 0, None, None, ())
        case HasType(term, ty):
            a, b = _reader(term, pos), _reader(ty, pos)
            return _Compiled(d, instances, lambda t, x: 0 <= a(t, x) < b(t, x), b, None, ())
        case TypeEq(lhs, rhs) | TermEq(lhs, rhs):
            a, b = _reader(lhs, pos), _reader(rhs, pos)
            return _Compiled(d, instances, lambda t, x: a(t, x) == b(t, x), None, None, ())


def _compile(theory: Theory) -> list[tuple[_Compiled, list[_Compiled], list[_Compiled]]]:
    """theory's finite-model program, its plan: the symbols in declaration
    order, compiled, each with the equations placed at it, compiled.
    Theory._program builds it once per Theory object.

    One pass rejects binders and places every equation at the last
    symbol its sides or context types mention.  The equation is watched
    cell by cell when that symbol is a term symbol its context does not
    read; otherwise it is checked whole once the symbol's table is
    complete.  Each plan entry is (symbol, watched, checked after).
    A symbol's reads name the tables its context reads, where the search
    keeps its instances: not where the symbol just before is one of them.

    Grounding a watched equation reads the tables its context and sides
    mention, those the watched symbol's context and type mention (they
    fix the cells' keys and sizes), and every carrier before it (a
    lookup list over a read that is not a cell is as long as the largest
    carrier): the equation's reads, in declaration order.
    """
    plan: list[tuple[_Compiled, list[_Compiled], list[_Compiled]]] = []
    position: dict[str, int] = {}
    for d in theory.decls:
        exprs = list(d.exprs())  # the context's types, then the statement's
        if any(t.__class__ not in (App, Var) for e in exprs for t, _ in walk(e)):
            raise ModelError(
                f"theory {theory.name!r} uses binders; finite models cover "
                "only binder-free theories"
            )
        reads = {t.head for e in exprs[: len(d.ctx)] for t, _ in walk(e, App)}
        # a TermEq.ty, the third of its statement's expressions, is never evaluated
        mentions = {t.head for e in exprs[: len(d.ctx) + 2] for t, _ in walk(e, App)}
        c = _compiled(d)
        if d.is_symbol:
            # a level visited only after a table its context reads is set
            # afresh never sees the same reads twice
            if reads and plan[-1][0].decl.name not in reads:
                c = c._replace(reads=tuple(sorted(reads, key=position.get)))
            position[d.name] = len(plan)
            plan.append((c, [], []))
            continue
        sym, watched, after = plan[max(position[h] for h in mentions)]
        name, sides = sym.decl.name, (d.kind.lhs, d.kind.rhs)
        if isinstance(d.kind, TermEq) and sym.ty is not None and name not in reads:
            got = mentions.union(
                *map(head_symbols, sym.decl.exprs()),
                [e.decl.name for e, _, _ in plan[: position[name]] if e.ty is None],
            ) - {name}
            # the distinct applications, each after its arguments, and the columns
            apps = dict.fromkeys(t for side in sides for t, _ in reversed(walk(side, App)))
            cols = {e: i for i, e in enumerate([*map(Var, d.arity), *apps])}
            steps = tuple(
                (
                    t.head,
                    tuple(map(cols.get, t.args)),
                    tuple(i for i, a in enumerate(t.args) if name in head_symbols(a)),
                )
                for t in apps
            )
            # the side that mentions the watched symbol first, as fill reads it
            sides = sorted(sides, key=lambda e: name not in head_symbols(e))
            watch = _Watch(tuple(sorted(got, key=position.get)), steps, *map(cols.get, sides))
            watched.append(c._replace(watch=watch))
        else:
            after.append(c)
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
    order, the order its cells are numbered in.  Each watched equation
    instance is grounded, with its variables and the complete tables
    read, into reads: an element, a cell, or, for an application whose
    argument waits on a cell, a lookup list of the read that each value
    of the argument leads to.  It is grounded once per assignment of the
    tables its grounding reads, not once per fill: the fills under one
    assignment come one after another, and each reuses the grounding of
    the first.  A symbol's context instances, its table's keys, are built
    once per assignment of the tables its context reads by the same rule,
    unless the symbol just before is one of them: then each visit of the
    level follows a new table, and nothing is kept, or checked.  An
    instance with a cell on one side, read directly, and an element on
    the other fixes the cell to the element, the only value that can
    complete a model; the fill sets each fixed cell first and is empty
    when two instances fix one cell to different elements, when an
    element is not below its cell's size, or when an instance whose
    cells are all set fails.  Every other instance waits on the latest
    cell it reads that is still unset, which no instance fixes: as the
    other cells are set in key order, it is evaluated again exactly when
    that cell is set, and it can turn false only then.  Values are tried
    in ascending order, so models come out in the order of the
    whole-table product.  The budget counts nodes: one per whole table
    chosen and one per value tried at a cell that no instance fixes.  It
    bounds memory as well: whole tables are walked one at a time, so no
    value range is built before the search reaches it.  The models share
    every table that is the same in several of them, so they must be
    treated as read-only.
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
    they are completed, in a dict the search goes on to change.  A node is
    one whole table chosen or one value tried at a cell that no watched
    instance fixes; a fixed cell is set before its fill branches.  Each
    watched equation's grounding, and each level's context instances
    where the level's reads are compiled, go through kept: made once and
    reused while the latest table they read is the same object.

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
    # Carrier sizes range below top: a carrier reaches size v only after v
    # nodes, so no size past the budget is reached, and elements range
    # below carrier sizes.
    top = min(bound, budget) + 1
    if top > sys.maxsize:
        raise ModelError(f"a carrier range of {top} sizes exceeds {sys.maxsize}")
    tables: Tables = {}  # the tables set so far, read by the compiled program
    # Per kept result (a watched equation's grounding, None if an undefined
    # read emptied the fill, or a level's context instances), the latest of
    # the tables it read and the result then.  A table never changes once
    # set, and every table set is a new object, set after the tables before
    # it: so while the latest table read is the same object, so is every
    # other, and the result is the same.  The slot holds that table, so no
    # new table can share its id.
    slots: dict[str, tuple[dict, object]] = {}
    nodes = itertools.count(1)

    def kept(key: str, reads: tuple[str, ...], make: Callable, arg):
        """make(arg), which reads only the tables that reads names, in
        declaration order, unless the slot at key holds it from the same
        tables."""
        table = tables[reads[-1]]
        slot = slots.get(key)
        if slot is None or slot[0] is not table:
            slot = slots[key] = (table, make(arg))
        return slot[1]

    def holds(eqs: list[_Compiled]) -> bool:
        # An undefined value means some equation not yet checked fails in
        # every completion of this assignment, so it prunes like a failure.
        try:
            return all(c.true_at(tables, x) for c in eqs for x in c.instances(tables))
        except KeyError:
            return False

    def fill(s: int, keys: list[Instance], down: Callable, arg) -> None:
        c, watched, eqs = plan[s]
        name, n = c.decl.name, len(keys)
        # Cell j, the j-th key, is read as ~j, and every per-cell list holds
        # cell j at index ~j: vals[~j] is the cell's value, or ~j while it is
        # unset, so a negative value is the read of a cell still to be set.
        vals = list(range(-n, 0))
        sizes = [c.ty(tables, x) for x in reversed(keys)]
        watches: list[list] = [[] for _ in keys]
        moved: list[list[int]] = [[] for _ in keys]  # the watches each value placed
        undefined = ~n  # the read of no cell: reading it raises IndexError
        # The largest carrier size, once a grounding first needs it (the
        # carriers are set before this table): one that never does cannot
        # meet carriers with no cells.
        largest: list[int] = []

        def app(get: Callable, k: tuple, waits: tuple[int, ...]):
            """The read of a table, get its get, at the argument reads k, of
            which those at the positions waits wait on cells: (a, outs) for
            a, the first of them, where the lookup list outs holds at v the
            read for a's value v.  When others wait too, ((a, outs), more),
            which reads the others, the frozenset more, as well."""
            i = waits[0]
            a, pre, post = k[i], k[:i], k[i + 1 :]
            # a cell's values lie below its size, any other read's below the
            # largest carrier size
            if a.__class__ is not int and not largest:
                largest.append(
                    max([v for d, _, _ in plan[:s] if d.ty is None for v in tables[d.decl.name].values()])
                )
            values = range(sizes[a] if a.__class__ is int else largest[0])
            if len(waits) == 1:
                return a, tuple([get((*pre, v, *post), undefined) for v in values])
            outs = tuple([app(get, (*pre, v, *post), waits[1:]) for v in values])
            return (a, outs), frozenset([k[j] for j in waits[1:]])

        def ground(eq: _Compiled) -> Optional[tuple[list, Sequence]]:
            """eq's instances, each the pair of its sides' reads, grounded as
            eq.watch describes with the complete tables read once, and those
            of them that fix a cell: the read of the cell, then an element.
            None if a read that waits on no cell is undefined, or if an
            element fixed is not below its cell's size."""
            try:
                xs = eq.instances(tables)
                if not xs:
                    return [], ()
                cols: list = list(zip(*xs))  # the variables' columns
                for head, args, waits in eq.watch.steps:
                    get = tables[head].get
                    rows = zip(*map(cols.__getitem__, args)) if args else [()] * len(xs)
                    # a read that waits is a tuple, an undefined one None
                    cols.append(
                        [app(get, k, waits) for k in rows] if waits else list(map(get, rows))
                    )
                    if None in cols[-1]:
                        return None  # whatever the cells hold
                a, b = cols[eq.watch.lhs], cols[eq.watch.rhs]
                insts = list(zip(a, b))
                # Every instance reads alike.  An int read on the first side,
                # which mentions the watched symbol, is the read of a cell;
                # with an element on the other side, the instance fixes the
                # cell, whose size comes from tables that eq.watch.reads names.
                if a[0].__class__ is b[0].__class__ is int and b[0] >= 0:
                    return None if any(map(ge, b, map(sizes.__getitem__, a))) else (insts, insts)
                return insts, ()
            except KeyError:  # an instance of the context is undefined
                return None

        def value(r: tuple) -> int:
            """The element r reads, or the read of the latest unset cell it reads."""
            a, outs = r
            if a.__class__ is int:
                v = vals[a]
            else:  # a is a lookup list, read first
                v = value(a)
                if outs.__class__ is frozenset:  # r is (a, more): read all that wait
                    # once a is set, reading on through a's lists reads more
                    return v if v >= 0 else min(
                        v, *[vals[m] if m.__class__ is int else value(m) for m in outs]
                    )
            if v < 0:
                return v
            r = outs[v]
            return value(r) if r.__class__ is tuple else vals[r] if r < 0 else r

        def propagate(insts: list, moved: list[int]) -> bool:
            """Check instances; watch each undecided one on the latest unset cell
            it reads, whose read is the least."""
            try:
                for inst in insts:
                    a, b = inst
                    a = value(a) if a.__class__ is tuple else vals[a] if a < 0 else a
                    b = value(b) if b.__class__ is tuple else vals[b] if b < 0 else b
                    r = a if a < b else b
                    if r < 0:
                        watches[r].append(inst)
                        moved.append(r)
                    elif a != b:
                        return False
            except IndexError:  # an undefined value fails in every completion
                return False
            return True

        try:
            # Ground each watched instance with this table's cells read as
            # their reads, unless the slot holds its grounding over the
            # same tables, and set the cells the instances fix.
            tables[name] = {key: ~j for j, key in enumerate(keys)}
            insts = []
            for eq in watched:
                got = kept(eq.decl.name, eq.watch.reads, ground, eq)
                if got is None:
                    return
                more, fixed = got
                insts += more
                for r, e in fixed:
                    vals[r] = e
            # Check each instance whose cells are all set, which fails when
            # two instances fix one cell to different elements, and watch
            # every other on the latest cell it reads, which no instance fixes.
            if not propagate(insts, []):
                return
            # Iterative backtracking over the cells left unset, free[i] the
            # read of the cell to set; past them, ~n stands for the leaf.
            free = [*filter((0).__gt__, reversed(vals)), ~n]  # an unset cell holds its read
            i = 0
            while i >= 0:
                r = free[i]
                if r < -n:
                    # the snapshot later levels and models share
                    tables[name] = dict(zip(keys, reversed(vals)))
                    if not eqs or holds(eqs):
                        down(arg)
                    i -= 1
                else:
                    for w in reversed(moved[r]):
                        watches[w].pop()
                    moved[r].clear()
                    v = vals[r] + 1 if vals[r] >= 0 else 0
                    if v < sizes[r]:
                        if next(nodes) > budget:
                            raise _spent(theory, budget)
                        vals[r] = v
                        i += propagate(watches[r], moved[r])  # on when none fails
                    else:
                        vals[r] = r
                        i -= 1
        finally:  # end their self-reference cycles on every exit: free the instances now
            del app, value

    def rec(s: int) -> None:
        c, watched, eqs = plan[s]
        # The tables this level sets stay behind when it returns: every
        # check reads only symbols set before it, so none reads a stale one.
        name = c.decl.name
        keys = kept(name, c.reads, c.instances, tables) if c.reads else c.instances(tables)
        # the last level hands each model straight to leaf
        down, arg = (leaf, tables) if s + 1 == len(plan) else (rec, s + 1)
        if watched:
            fill(s, keys, down, arg)
            return
        sizes = [top] * len(keys) if c.ty is None else [c.ty(tables, x) for x in keys]
        for tables[name] in _tables(keys, sizes):
            if next(nodes) > budget:
                raise _spent(theory, budget)
            if not eqs or holds(eqs):
                down(arg)

    # A collection during the search would free nothing, only walk the
    # growing heap of live models again and again: pause the collector.
    enabled = gc.isenabled()
    gc.disable()
    try:
        rec(0) if plan else leaf(tables)
    finally:  # end the cycle through rec's own closure cell on every exit
        del rec
        if enabled:
            gc.enable()


def _spent(theory: Theory, budget: int) -> BudgetExceeded:
    """The error of a search past its node budget, built only when raised."""
    return BudgetExceeded(f"model search for {theory.name!r} exceeded {budget} nodes")


def _tables(keys: list[Instance], sizes: list[int]):
    """Every table on keys whose cell i holds a value below sizes[i], in the
    order of itertools.product(*map(range, sizes)).  No range is built, so
    a size past what the node budget reaches costs nothing."""
    table = dict.fromkeys(keys, 0)
    i = -1 if 0 in sizes else 0  # the cell last increased, -1 once none can be
    while i >= 0:
        yield table.copy()
        i = len(keys) - 1
        while i >= 0 and table[keys[i]] + 1 == sizes[i]:
            table[keys[i]] = 0
            i -= 1
        if i >= 0:
            table[keys[i]] += 1


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
