"""Theories: ordered symbol and axiom declarations with well-formedness.

A pretheory is an ordered list of declarations, each over a context; the
list order realizes the dependency (well-founded) relation.  A Theory is
a pretheory every declaration of which checks over the strictly earlier
prefix; construct one through check_theory or extend.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import DuplicateName, ForwardReference, GatError, UnknownSymbol
from .expr import Ap, App, Expr, Var, head_symbols, mk_lam, mk_pi, rename_symbols


class DeclKind:
    """Base of the four declaration kinds.

    Every kind is a frozen dataclass whose fields are all expressions;
    only TermEqKind.ty may be None (omitted in source).
    """

    __slots__ = ()

    def exprs(self) -> tuple[Expr, ...]:
        """The kind's expressions in field order; an omitted type is skipped."""
        return tuple(v for v in vars(self).values() if v is not None)

    def map(self, fn: Callable[[Expr], Expr]) -> DeclKind:
        """The same kind with fn applied to each of its expressions."""
        return type(self)(**{k: fn(v) for k, v in vars(self).items() if v is not None})


@dataclass(frozen=True)
class TypeKind(DeclKind):
    """Declares a dependent type symbol."""


@dataclass(frozen=True)
class TermKind(DeclKind):
    """Declares a term symbol of the given type."""

    ty: Expr


@dataclass(frozen=True)
class TypeEqKind(DeclKind):
    """Equational axiom between two types."""

    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class TermEqKind(DeclKind):
    """Equational axiom between two terms of a type.

    The type may be omitted in source and is filled in from the left side
    during certification.
    """

    lhs: Expr
    rhs: Expr
    ty: Optional[Expr] = None


@dataclass(frozen=True)
class Declaration:
    name: str
    ctx: tuple[tuple[str, Expr], ...]
    kind: DeclKind

    @property
    def is_symbol(self) -> bool:
        return isinstance(self.kind, (TypeKind, TermKind))

    @property
    def is_axiom(self) -> bool:
        return isinstance(self.kind, (TypeEqKind, TermEqKind))

    @property
    def arity(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.ctx)

    def exprs(self) -> Iterable[Expr]:
        for _, ty in self.ctx:
            yield ty
        yield from self.kind.exprs()

    def map(self, fn: Callable[[Expr], Expr], name: Optional[str] = None) -> Declaration:
        """Apply fn to every telescope type and kind expression; optionally rename."""
        return Declaration(
            self.name if name is None else name,
            tuple((x, fn(ty)) for x, ty in self.ctx),
            self.kind.map(fn),
        )


Pretheory = Sequence[Declaration]


@dataclass(frozen=True)
class Theory:
    """A certified pretheory.  The pi flag records the rule set used."""

    name: str
    decls: tuple[Declaration, ...]
    pi: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {d.name: i for i, d in enumerate(self.decls)})

    def has(self, name: str) -> bool:
        return name in self._index

    def has_symbol(self, name: str) -> bool:
        i = self._index.get(name)
        return i is not None and self.decls[i].is_symbol

    def index(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            raise UnknownSymbol(f"{name!r} is not declared in theory {self.name!r}")
        return i

    def decl(self, name: str) -> Declaration:
        return self.decls[self.index(name)]

    def symbols(self) -> tuple[Declaration, ...]:
        return tuple(d for d in self.decls if d.is_symbol)

    def axioms(self) -> tuple[Declaration, ...]:
        return tuple(d for d in self.decls if d.is_axiom)

    def symbol_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls if d.is_symbol)

    def prefix(self, n: int, name: Optional[str] = None) -> Theory:
        """The first n declarations; certified by prefix closure."""
        return Theory(name or f"{self.name}_pfx{n}", self.decls[:n], self.pi)

    def rename(self, renaming: Mapping[str, str], name: Optional[str] = None) -> Theory:
        """Rename declarations and every symbol occurrence; shape-preserving."""
        fn = lambda e: rename_symbols(e, renaming)  # noqa: E731
        decls = tuple(d.map(fn, renaming.get(d.name, d.name)) for d in self.decls)
        return Theory(name or self.name, decls, self.pi)


# Imported after the data definitions: deriv needs them back.
from . import deriv as _deriv  # noqa: E402


def _scan_references(prefix: Theory, d: Declaration, pending: set[str]) -> None:
    for e in d.exprs():
        for h in head_symbols(e):
            if prefix.has_symbol(h):
                continue
            if h == d.name or h in pending:
                raise ForwardReference(
                    f"declaration {d.name!r} mentions {h!r} before it is declared"
                )
            if prefix.has(h):
                raise UnknownSymbol(f"{h!r} names an axiom and cannot be applied")
            raise UnknownSymbol(f"{h!r} is not declared")


def _check_decl(prefix: Theory, d: Declaration, rules, fuel) -> Declaration:
    """Check one declaration over an already certified prefix."""
    _deriv.check_context(prefix, d.ctx, rules, fuel)
    k = d.kind
    if isinstance(k, TypeKind):
        return d
    if isinstance(k, TermKind):
        _deriv.check_is_type(prefix, d.ctx, k.ty, rules, fuel)
        return d
    if isinstance(k, TypeEqKind):
        _deriv.check_is_type(prefix, d.ctx, k.lhs, rules, fuel)
        _deriv.check_is_type(prefix, d.ctx, k.rhs, rules, fuel)
        return d
    if isinstance(k, TermEqKind):
        ty = k.ty
        if ty is None:
            ty = _deriv.infer_type(prefix, d.ctx, k.lhs, rules, fuel)
        else:
            _deriv.check_is_type(prefix, d.ctx, ty, rules, fuel)
            got = _deriv.infer_type(prefix, d.ctx, k.lhs, rules, fuel)
            _deriv._equal_types(prefix, d.ctx, got, ty, rules, fuel, None)
        got = _deriv.infer_type(prefix, d.ctx, k.rhs, rules, fuel)
        _deriv._equal_types(prefix, d.ctx, got, ty, rules, fuel, None)
        return replace(d, kind=TermEqKind(k.lhs, k.rhs, ty))
    raise TypeError(f"unexpected kind: {k!r}")


def check_theory(
    decls: Pretheory,
    rules=None,
    fuel=None,
    name: str = "theory",
) -> Theory:
    """Certify a pretheory, checking declarations in order over their prefix."""
    rules = _deriv.BASE if rules is None else rules
    fuel = _deriv.DEFAULT_FUEL if fuel is None else fuel
    seen: set[str] = set()
    for d in decls:
        if d.name in seen:
            raise DuplicateName(f"declaration name {d.name!r} repeated")
        seen.add(d.name)
    certified: list[Declaration] = []
    names = [d.name for d in decls]
    for i, d in enumerate(decls):
        prefix = Theory(name, tuple(certified), rules.pi)
        try:
            _scan_references(prefix, d, set(names[i:]))
            certified.append(_check_decl(prefix, d, rules, fuel))
        except GatError as exc:
            raise type(exc)(f"in declaration {d.name!r}: {exc}") from None
    return Theory(name, tuple(certified), rules.pi)


def extend(theory: Theory, d: Declaration, rules=None, fuel=None) -> Theory:
    """Append one declaration, checking only it."""
    rules = _deriv.BASE if rules is None else rules
    fuel = _deriv.DEFAULT_FUEL if fuel is None else fuel
    if theory.has(d.name):
        raise DuplicateName(f"declaration name {d.name!r} repeated")
    try:
        _scan_references(theory, d, {d.name})
        d2 = _check_decl(theory, d, rules, fuel)
    except GatError as exc:
        raise type(exc)(f"in declaration {d.name!r}: {exc}") from None
    return Theory(theory.name, theory.decls + (d2,), theory.pi or rules.pi)


def anonymous_label(decls: Pretheory) -> str:
    """Next free auto label for an unnamed axiom."""
    taken = {d.name for d in decls}
    k = 1
    while f"_{k}" in taken:
        k += 1
    return f"_{k}"


# ---------------------------------------------------------------------------
# Standard library of example theories
# ---------------------------------------------------------------------------


def _a(head: str, *args: Expr) -> App:
    return App(head, tuple(args))


def _v(name: str) -> Var:
    return Var(name)


def type_sym(name: str, ctx=()) -> Declaration:
    return Declaration(name, tuple(ctx), TypeKind())


def term_sym(name: str, ctx, ty: Expr) -> Declaration:
    return Declaration(name, tuple(ctx), TermKind(ty))


def type_eq_ax(name: str, ctx, lhs: Expr, rhs: Expr) -> Declaration:
    return Declaration(name, tuple(ctx), TypeEqKind(lhs, rhs))


def term_eq_ax(name: str, ctx, lhs: Expr, rhs: Expr, ty: Optional[Expr] = None) -> Declaration:
    return Declaration(name, tuple(ctx), TermEqKind(lhs, rhs, ty))


@functools.lru_cache(maxsize=None)
def terminal_theory() -> Theory:
    return check_theory([], name="terminal")


@functools.lru_cache(maxsize=None)
def mk_Ty(n: int) -> Theory:
    """The theory of an n-fold dependent tower of type symbols A0..An."""
    decls: list[Declaration] = []
    for i in range(n + 1):
        ctx = tuple(
            (f"x{j}", _a(f"A{j}", *(_v(f"x{m}") for m in range(j)))) for j in range(i)
        )
        decls.append(type_sym(f"A{i}", ctx))
    return check_theory(decls, name=f"Ty{n}")


@functools.lru_cache(maxsize=None)
def mk_El(n: int) -> Theory:
    """mk_Ty(n) plus a generic element of the top type."""
    base = mk_Ty(n)
    ctx = tuple((f"x{j}", _a(f"A{j}", *(_v(f"x{m}") for m in range(j)))) for j in range(n))
    el = term_sym(f"e{n}", ctx, _a(f"A{n}", *(_v(f"x{m}") for m in range(n))))
    return extend(base, el).rename({}, name=f"El{n}")


def _theory_of_categories() -> Theory:
    ob = _a("Ob")
    hom = lambda a, b: _a("Hom", a, b)  # noqa: E731
    comp = lambda *args: _a("comp", *args)  # noqa: E731
    x1, x2, x3, x4 = _v("x1"), _v("x2"), _v("x3"), _v("x4")
    y, y1, y2, y3 = _v("y"), _v("y1"), _v("y2"), _v("y3")
    decls = [
        type_sym("Ob"),
        type_sym("Hom", (("x1", ob), ("x2", ob))),
        term_sym("id", (("x", ob),), hom(_v("x"), _v("x"))),
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
    y, y1, y2, y3 = _v("y"), _v("y1"), _v("y2"), _v("y3")
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
    a, b, f, x = _v("a"), _v("b"), _v("f"), _v("x")
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
    return check_theory(decls, rules=_deriv.WITH_PI, name="STLC")


def _mltt_naturals() -> Theory:
    ty = _a("Ty")
    el = lambda t: _a("El", t)  # noqa: E731
    n, c, c0, cs = _v("n"), _v("C"), _v("c0"), _v("cs")
    nat = _a("N")
    motive = mk_pi("x", el(nat), ty)
    step = mk_pi(
        "x",
        el(nat),
        mk_pi("y", el(Ap(c, _v("x"))), el(Ap(c, _a("succ", _v("x"))))),
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
    return check_theory(decls, rules=_deriv.WITH_PI, name="MLTT-N")


@functools.lru_cache(maxsize=None)
def stdlib() -> dict[str, Theory]:
    """The named example theories; every entry is certified at build time."""
    cat = _theory_of_categories()
    catpt = extend(cat, term_sym("b", (), _a("Ob")))
    catpt = Theory("CatPt", catpt.decls, catpt.pi)
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
