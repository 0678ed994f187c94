"""Theories: ordered symbol and axiom declarations with well-formedness.

A declaration holds the statement it asserts over its context, one of
the judgment forms that deriv checks: A type or c : T for a symbol, whose
subject, the symbol applied to its context's variables, is left None, or
an equation between types or terms for an axiom.  A pretheory is an
ordered list of declarations; the list order realizes the dependency
(well-founded) relation.  A Theory is a pretheory every declaration of
which checks over the strictly earlier prefix; construct one through
check_theory or extend, or from certified theories by the lemmas of
Theory.prefix, Theory.rename, disjoint_union and families.  There is one
rule set: the base rules with the Pi rules (Pi types, lambda and
application), which every theory lives under, so a theory that uses no
binder is checked exactly as under the base rules alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Container, Iterable, Mapping, Optional, Sequence

from .errors import DuplicateName, ForwardReference, GatError, UnknownSymbol
from .expr import Ap, App, Expr, Lam, Pi, Var, fresh_name, hypothesize, mk_lam, mk_pi, rename_symbols, walk
from .gatform_names import safe_name


class Statement:
    """Base of the five statement forms, frozen dataclasses whose fields
    are all expressions.  A field may be None: an omitted TermEq.ty, which
    is inferred from the left side, and the subject of a declaration's
    IsType or HasType, which is the declared symbol applied to its
    context's variables and is left implicit (Declaration.judgment)."""

    __slots__ = ()

    def exprs(self) -> tuple[Expr, ...]:
        """The expressions in field order; a None field is skipped."""
        return tuple(v for v in vars(self).values() if v is not None)

    def map(self, fn: Callable[[Expr], Expr]):
        """The same statement with fn applied to each of its expressions;
        a None field stays None."""
        return type(self)(*[v if v is None else fn(v) for v in vars(self).values()])


@dataclass(frozen=True)
class CtxOk(Statement):
    pass


@dataclass(frozen=True)
class IsType(Statement):
    ty: Expr


@dataclass(frozen=True)
class HasType(Statement):
    term: Expr
    ty: Expr


@dataclass(frozen=True)
class TypeEq(Statement):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class TermEq(Statement):
    lhs: Expr
    rhs: Expr
    ty: Optional[Expr] = None


@dataclass(frozen=True)
class Declaration:
    name: str
    ctx: tuple[tuple[str, Expr], ...]
    # what it asserts over ctx: IsType(None) or HasType(None, ty) for a
    # symbol, whose subject is implicit, or a TypeEq or TermEq axiom
    kind: Statement
    # the context's variable names, stored once: not compared, hashed or shown
    arity: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arity", tuple(x for x, _ in self.ctx))

    @property
    def is_symbol(self) -> bool:
        return isinstance(self.kind, (IsType, HasType))

    @property
    def is_axiom(self) -> bool:
        return not self.is_symbol

    def exprs(self) -> Iterable[Expr]:
        for _, ty in self.ctx:
            yield ty
        yield from self.kind.exprs()

    def map(self, fn: Callable[[Expr], Expr], name: Optional[str] = None) -> Declaration:
        """Apply fn to every telescope type and statement expression; optionally rename."""
        return Declaration(
            self.name if name is None else name,
            tuple((x, fn(ty)) for x, ty in self.ctx),
            self.kind.map(fn),
        )

    def judgment(self) -> Statement:
        """The statement the declaration asserts over its context, a
        symbol's with its subject c(ctx) filled in."""
        k = self.kind
        return type(k)(App(self.name, tuple(map(Var, self.arity))), *k.exprs()) if self.is_symbol else k


Pretheory = Sequence[Declaration]


def _name_index(decls: Sequence[Declaration]) -> dict[str, int]:
    """Each declaration name's position: the one place an index is built."""
    return {d.name: i for i, d in enumerate(decls)}


@dataclass(frozen=True)
class Theory:
    """A certified pretheory.  Its prefixes, extensions and renamed
    copies share one name index: a name is visible iff its position <
    len(decls).

    The constructor checks nothing: only check_theory, extend and the
    named lemmas (Theory.prefix, Theory.rename, disjoint_union and
    families) produce certified theories, and the rest of gatc trusts
    that every Theory came from one of them."""

    name: str
    decls: tuple[Declaration, ...]
    _index: Optional[dict[str, int]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self._index is None:
            object.__setattr__(self, "_index", _name_index(self.decls))

    def has(self, name: str) -> bool:
        return self._index.get(name, len(self.decls)) < len(self.decls)

    __contains__ = has

    def has_symbol(self, name: str) -> bool:
        return self.has(name) and self.decls[self._index[name]].is_symbol

    def index(self, name: str) -> int:
        i = self._index.get(name, len(self.decls))
        if i >= len(self.decls):
            raise UnknownSymbol(f"{name!r} is not declared in theory {self.name!r}")
        return i

    def decl(self, name: str) -> Declaration:
        return self.decls[self.index(name)]

    def symbols(self) -> tuple[Declaration, ...]:
        return tuple(d for d in self.decls if d.is_symbol)

    def axioms(self) -> tuple[Declaration, ...]:
        return tuple(d for d in self.decls if d.is_axiom)

    def prefix(self, n: int, name: Optional[str] = None) -> Theory:
        """The first n declarations; certified by prefix closure."""
        return Theory(name or f"{self.name}_pfx{n}", self.decls[:n], self._index)

    def rename(self, renaming: Mapping[str, str], name: Optional[str] = None) -> Theory:
        """Rename declarations and every symbol occurrence; shape-preserving.

        Lemma: a renaming that is injective on the declaration names,
        counting the names it leaves unchanged, takes a certified theory
        to a certified one.  The certify step compares names only with
        each other, so each renamed declaration checks over its renamed
        prefix as the original did over the original prefix.  A renaming
        that sends two declarations to one name raises DuplicateName.
        """
        fn = lambda e: rename_symbols(e, renaming)  # noqa: E731
        decls = tuple(d.map(fn, renaming.get(d.name, d.name)) for d in self.decls)
        index = _name_index(decls)  # a repeated name keeps its last position
        for i, d in enumerate(decls):
            if index[d.name] != i:
                a, b = self.decls[i].name, self.decls[index[d.name]].name
                raise DuplicateName(f"renaming sends {a!r} and {b!r} to {d.name!r}", decl=d.name)
        return Theory(name or self.name, decls, index)

    @property
    def pi(self) -> bool:
        """Whether a declaration mentions a binder (Pi or lambda).  No
        check reads it; the benchmark does, to choose its --rules flag."""
        return any(t.__class__ in (Pi, Lam) for d in self.decls for e in d.exprs() for t, _ in walk(e))

    @functools.cached_property
    def _program(self):
        """This object's finite-model program, compiled on first use.  It is
        not a field, so equality, hash, repr and replace ignore it, and
        __getstate__ leaves it, a structure of closures, out of a pickle."""
        from .models import _compile  # models imports this module

        return _compile(self)

    @functools.cached_property
    def _axiom_patterns(self) -> tuple:
        """eq_check's compiled axioms, built once per object like _program."""
        return tuple(_deriv._axiom_pattern(d) for d in self.axioms())

    @functools.cached_property
    def _families(self) -> tuple:
        """families(self), built once per object like _program; it does
        not hold self, so the memo makes no reference cycle."""
        return families(self)

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in ("_program", "_axiom_patterns", "_families")}


# Imported after the data definitions: deriv needs them back.
from . import deriv as _deriv  # noqa: E402


def _scan_references(prefix: Theory, d: Declaration, names: Container[str]) -> None:
    """Reject an application of anything but a symbol of prefix; names are
    the pretheory's, so one of them outside prefix is declared later."""
    for e in d.exprs():
        for t, _ in walk(e, App):  # preorder, so the first offender in the text is named
            h = t.head
            if prefix.has_symbol(h):
                continue
            if prefix.has(h):
                raise UnknownSymbol(f"{h!r} names an axiom and cannot be applied")
            if h in names:
                raise ForwardReference(
                    f"declaration {d.name!r} mentions {h!r} before it is declared"
                )
            raise UnknownSymbol(f"{h!r} is not declared")


def _extend(theory: Theory, d: Declaration, names: Container[str], fuel) -> Theory:
    """The one certify step: d's statement form, its references, its
    context and what its judgment presupposes, over the certified theory.
    Errors name the declaration; an omitted term-equation type comes back
    filled in."""
    if theory.has(d.name):
        raise DuplicateName(f"declaration name {d.name!r} repeated", decl=d.name)
    try:
        match d.kind:  # a symbol's subject is the symbol itself, left None
            case IsType(None) | HasType(None, _) | TypeEq() | TermEq():
                pass
            case _:
                raise GatError(
                    f"states a {type(d.kind).__name__} that is neither an equation "
                    "nor a symbol's statement with its subject left None"
                )
        _scan_references(theory, d, names)
        _deriv.check_context(theory, d.ctx, fuel)
        stmt = d.judgment()
        filled = _deriv.presupposed(theory, d.ctx, stmt, fuel)
    except GatError as exc:
        raise type(exc)(f"in declaration {d.name!r}: {exc}", decl=d.name) from None
    d = d if filled is stmt else replace(d, kind=filled)
    n = len(theory.decls)
    # an index that a longer theory already extends is rebuilt, not overwritten
    index = theory._index if len(theory._index) == n else _name_index(theory.decls)
    index[d.name] = n
    return Theory(theory.name, theory.decls + (d,), index)


def check_theory(
    decls: Pretheory,
    fuel=None,
    name: str = "theory",
) -> Theory:
    """Certify a pretheory: extend the empty theory by each declaration in turn."""
    fuel = _deriv.DEFAULT_FUEL if fuel is None else fuel
    names: set[str] = set()
    for d in decls:
        if d.name in names:
            raise DuplicateName(f"declaration name {d.name!r} repeated", decl=d.name)
        names.add(d.name)
    theory = Theory(name, ())
    for d in decls:
        theory = _extend(theory, d, names, fuel)
    return theory


def disjoint_union(t1: Theory, t2: Theory, name: str) -> Theory:
    """t1's declarations followed by t2's, certified without a re-check.

    Lemma: the union of two certified theories whose names are disjoint
    is certified.  t1 is a certified prefix.  Each declaration of t2
    mentions only earlier names of t2, and t1's axioms equate only
    expressions built from t1's symbols, so every check that certified
    it over its prefix of t2 goes through over t1 followed by that
    prefix (weakening by the declarations of t1).  A name that both
    declare raises DuplicateName, as check_theory would on the union.
    """
    for d in t2.decls:
        if t1.has(d.name):
            raise DuplicateName(f"declaration name {d.name!r} repeated", decl=d.name)
    return Theory(name, t1.decls + t2.decls)


def families(base: Theory) -> tuple[Theory, str, Mapping[str, str]]:
    """base's families theory, certified without a re-check, with its
    reserved type symbol and, per declaration of base, the name of the
    index variable prefixed to its context.

    The families theory declares a fresh closed type symbol H, then each
    declaration of base with a fresh variable h : H prefixed to its
    context and h passed first to every symbol of base it applies.
    Lemma: the families theory of a certified theory is certified.  It
    is base over the context extended by h : H, and derivations survive
    context extension (Cartmell 1986): every check that certified a
    declaration over its prefix of base goes through with h prefixed to
    each context and to each application of a symbol.
    """
    syms = {d.name for d in base.symbols()}
    reserved = fresh_name("A0", base)
    hyp_var = {d.name: fresh_name("x0", d.arity) for d in base.decls}
    decls = [type_sym(reserved)]
    for d in base.decls:
        h = d.map(lambda e: hypothesize(e, hyp_var[d.name], syms))
        decls.append(Declaration(d.name, ((hyp_var[d.name], App(reserved)),) + h.ctx, h.kind))
    return Theory(safe_name(f"P_{base.name}"), tuple(decls)), reserved, MappingProxyType(hyp_var)


def extend(theory: Theory, d: Declaration, fuel=None) -> Theory:
    """Append one declaration, checking only it."""
    fuel = _deriv.DEFAULT_FUEL if fuel is None else fuel
    return _extend(theory, d, (d.name,), fuel)


# ---------------------------------------------------------------------------
# Standard library of example theories
# ---------------------------------------------------------------------------


def _a(head: str, *args: Expr) -> App:
    return App(head, tuple(args))


def type_sym(name: str, ctx=()) -> Declaration:
    return Declaration(name, tuple(ctx), IsType(None))


def term_sym(name: str, ctx, ty: Expr) -> Declaration:
    return Declaration(name, tuple(ctx), HasType(None, ty))


def type_eq_ax(name: str, ctx, lhs: Expr, rhs: Expr) -> Declaration:
    return Declaration(name, tuple(ctx), TypeEq(lhs, rhs))


def term_eq_ax(name: str, ctx, lhs: Expr, rhs: Expr, ty: Optional[Expr] = None) -> Declaration:
    return Declaration(name, tuple(ctx), TermEq(lhs, rhs, ty))


@functools.lru_cache(maxsize=None)
def terminal_theory() -> Theory:
    return check_theory([], name="terminal")


@functools.lru_cache(maxsize=None)
def mk_Ty(n: int) -> Theory:
    """The theory of an n-fold dependent tower of type symbols A0..An."""
    decls: list[Declaration] = []
    for i in range(n + 1):
        ctx = tuple(
            (f"x{j}", _a(f"A{j}", *(Var(f"x{m}") for m in range(j)))) for j in range(i)
        )
        decls.append(type_sym(f"A{i}", ctx))
    return check_theory(decls, name=f"Ty{n}")


@functools.lru_cache(maxsize=None)
def mk_El(n: int) -> Theory:
    """mk_Ty(n) plus a generic element of the top type."""
    base = mk_Ty(n)
    ctx = tuple((f"x{j}", _a(f"A{j}", *(Var(f"x{m}") for m in range(j)))) for j in range(n))
    el = term_sym(f"e{n}", ctx, _a(f"A{n}", *(Var(f"x{m}") for m in range(n))))
    return replace(extend(base, el), name=f"El{n}")


def _theory_of_categories() -> Theory:
    ob = _a("Ob")
    hom = lambda a, b: _a("Hom", a, b)  # noqa: E731
    comp = lambda *args: _a("comp", *args)  # noqa: E731
    x1, x2, x3, x4 = Var("x1"), Var("x2"), Var("x3"), Var("x4")
    y, y1, y2, y3 = Var("y"), Var("y1"), Var("y2"), Var("y3")
    decls = [
        type_sym("Ob"),
        type_sym("Hom", (("x1", ob), ("x2", ob))),
        term_sym("id", (("x", ob),), hom(Var("x"), Var("x"))),
        term_sym(
            "comp",
            (
                ("x1", ob),
                ("x2", ob),
                ("x3", ob),
                ("y1", hom(x1, x2)),
                ("y2", hom(x2, x3)),
            ),
            hom(x1, x3),
        ),
        term_eq_ax(
            "_1",
            (("x1", ob), ("x2", ob), ("y", hom(x1, x2))),
            comp(x1, x1, x2, _a("id", x1), y),
            y,
            hom(x1, x2),
        ),
        term_eq_ax(
            "_2",
            (("x1", ob), ("x2", ob), ("y", hom(x1, x2))),
            comp(x1, x2, x2, y, _a("id", x2)),
            y,
            hom(x1, x2),
        ),
        term_eq_ax(
            "_3",
            (
                ("x1", ob),
                ("x2", ob),
                ("x3", ob),
                ("x4", ob),
                ("y1", hom(x1, x2)),
                ("y2", hom(x2, x3)),
                ("y3", hom(x3, x4)),
            ),
            comp(x1, x3, x4, comp(x1, x2, x3, y1, y2), y3),
            comp(x1, x2, x4, y1, comp(x2, x3, x4, y2, y3)),
            hom(x1, x4),
        ),
    ]
    return check_theory(decls, name="Cat")


def _theory_of_monoids() -> Theory:
    mon = _a("Mon")
    u = _a("u")
    mul = lambda a, b: _a("mul", a, b)  # noqa: E731
    y, y1, y2, y3 = Var("y"), Var("y1"), Var("y2"), Var("y3")
    decls = [
        type_sym("Mon"),
        term_sym("u", (), mon),
        term_sym("mul", (("y1", mon), ("y2", mon)), mon),
        term_eq_ax("_1", (("y", mon),), mul(u, y), y, mon),
        term_eq_ax("_2", (("y", mon),), mul(y, u), y, mon),
        term_eq_ax(
            "_3",
            (("y1", mon), ("y2", mon), ("y3", mon)),
            mul(mul(y1, y2), y3),
            mul(y1, mul(y2, y3)),
            mon,
        ),
    ]
    return check_theory(decls, name="Mon")


def _simply_typed_lambda() -> Theory:
    ty = _a("Ty")
    el = lambda t: _a("El", t)  # noqa: E731
    a, b, f, x = Var("a"), Var("b"), Var("f"), Var("x")
    arrow = mk_pi("x", el(a), el(b))
    decls = [
        type_sym("Ty"),
        type_sym("El", (("a", ty),)),
        term_sym("Fun", (("a", ty), ("b", ty)), ty),
        term_sym("abs", (("a", ty), ("b", ty), ("f", arrow)), el(_a("Fun", a, b))),
        term_sym(
            "app",
            (("a", ty), ("b", ty), ("f", el(_a("Fun", a, b))), ("x", el(a))),
            el(b),
        ),
        term_eq_ax(
            "_1",
            (("a", ty), ("b", ty), ("f", arrow), ("x", el(a))),
            _a("app", a, b, _a("abs", a, b, f), x),
            Ap(f, x),
            el(b),
        ),
        term_eq_ax(
            "_2",
            (("a", ty), ("b", ty), ("f", el(_a("Fun", a, b)))),
            _a("abs", a, b, mk_lam("x", el(a), _a("app", a, b, f, x))),
            f,
            el(_a("Fun", a, b)),
        ),
    ]
    return check_theory(decls, name="STLC")


def _mltt_naturals() -> Theory:
    ty = _a("Ty")
    el = lambda t: _a("El", t)  # noqa: E731
    n, c, c0, cs = Var("n"), Var("C"), Var("c0"), Var("cs")
    nat = _a("N")
    motive = mk_pi("x", el(nat), ty)
    step = mk_pi(
        "x",
        el(nat),
        mk_pi("y", el(Ap(c, Var("x"))), el(Ap(c, _a("succ", Var("x"))))),
    )
    rec_ctx = (("n", el(nat)), ("C", motive), ("c0", el(Ap(c, _a("zero")))), ("cs", step))
    decls = [
        type_sym("Ty"),
        type_sym("El", (("a", ty),)),
        term_sym("N", (), ty),
        term_sym("zero", (), el(nat)),
        term_sym("succ", (("n", el(nat)),), el(nat)),
        term_sym("natrec", rec_ctx, el(Ap(c, n))),
        term_eq_ax(
            "_1",
            rec_ctx[1:],
            _a("natrec", _a("zero"), c, c0, cs),
            c0,
            el(Ap(c, _a("zero"))),
        ),
        term_eq_ax(
            "_2",
            rec_ctx,
            _a("natrec", _a("succ", n), c, c0, cs),
            Ap(Ap(cs, n), _a("natrec", n, c, c0, cs)),
            el(Ap(c, _a("succ", n))),
        ),
    ]
    return check_theory(decls, name="MLTT-N")


@functools.lru_cache(maxsize=None)
def stdlib() -> dict[str, Theory]:
    """The named example theories; every entry is certified at build time."""
    cat = _theory_of_categories()
    catpt = replace(extend(cat, term_sym("b", (), _a("Ob"))), name="CatPt")
    out: dict[str, Theory] = {
        "Cat": cat,
        "Mon": _theory_of_monoids(),
        "CatPt": catpt,
    }
    for i in range(4):
        out[f"Ty{i}"] = mk_Ty(i)
        out[f"El{i}"] = mk_El(i)
    out["STLC"] = _simply_typed_lambda()
    out["MLTT-N"] = _mltt_naturals()
    return out
