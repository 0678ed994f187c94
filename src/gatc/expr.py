"""Raw expressions over a theory's symbols.

Expressions are first-order symbol applications over named free variables,
optionally extended with Pi / lam / application nodes when the Pi rule set
is enabled.  Binders use de Bruijn indices internally while free variables
stay named (locally nameless), so alpha-equivalent expressions are
structurally equal and substitution of locally closed values never
captures.  Printed names of bound variables are kept as hints that do not
participate in equality or hashing.

Every structural operation reads a node's subexpressions through one
table of field getters, the one behind children().  The folds
(free_vars, head_symbols, locally_closed, mentions_bound) read walk(), an
iterative preorder walk with binder depths, so they take terms of any
depth.  The maps (substitute, abstract_var, open_bound, translate,
hypothesize, rename_symbols) are one recursive bottom-up rebuild,
_rebuild(), told what to do at variables, at bound variables and at
applications; a subterm that the map leaves unchanged is kept, not
copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, is_
from typing import Callable, Container, Iterable, Mapping

from .errors import ArityMismatch, UnknownSymbol, VariableClash


class Expr:
    """Base class of expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BVar(Expr):
    """Bound variable; index counts binders outward, innermost is 0."""

    index: int


@dataclass(frozen=True)
class App(Expr):
    head: str
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Pi(Expr):
    dom: Expr
    cod: Expr
    hint: str = field(default="x", compare=False, repr=False)


@dataclass(frozen=True)
class Lam(Expr):
    dom: Expr
    body: Expr
    hint: str = field(default="x", compare=False, repr=False)


@dataclass(frozen=True)
class Ap(Expr):
    fun: Expr
    arg: Expr


# (params, body): body's free variables are a subset of params.  Arities are
# positional; the names exist only so images can be written down readably.
SymbolImage = tuple[tuple[str, ...], Expr]


# The one place that knows which fields of a node are subexpressions.
_FIELDS = {
    App: attrgetter("args"),
    Ap: attrgetter("fun", "arg"),
    Pi: attrgetter("dom", "cod"),
    Lam: attrgetter("dom", "body"),
}


def children(e: Expr) -> tuple[Expr, ...]:
    """The immediate subexpressions of e in field order; the second child
    of a binder (Pi, Lam) sits one binder deeper than the node."""
    get = _FIELDS.get(e.__class__)
    return get(e) if get else ()


def walk(e: Expr, kind: type | None = None, depth: int = 0) -> list[tuple[Expr, int]]:
    """The subexpressions of e, e included, of class kind (all when kind is
    None) in preorder, each with its binder depth: the binders above it
    inside e, plus depth.  Iterative, so any nesting depth is fine."""
    out: list[tuple[Expr, int]] = []
    stack: list = [e]
    while stack:
        t = stack.pop()
        c = t.__class__
        if c is int:  # a binder's second child starts (+1) or ends (-1)
            depth += t
            continue
        if c is kind or kind is None:
            out.append((t, depth))
        get = _FIELDS.get(c)
        if get is not None:
            kids = get(t)
            if c is Pi or c is Lam:
                stack += (-1, kids[1], 1, kids[0])
            else:
                stack += kids[::-1]
    return out


def free_vars(e: Expr) -> tuple[str, ...]:
    """Free variables of e in first-occurrence (preorder) order."""
    return tuple(dict.fromkeys([t.name for t, _ in walk(e, Var)]))


def head_symbols(e: Expr) -> set[str]:
    """All symbol names applied anywhere in e."""
    return {t.head for t, _ in walk(e, App)}


def locally_closed(e: Expr, depth: int = 0) -> bool:
    """True when e has no bound-variable index escaping its own binders."""
    return all(t.index < d for t, d in walk(e, BVar, depth))


def mentions_bound(e: Expr, depth: int = 0) -> bool:
    """True when e mentions the bound variable of the binder depth levels out."""
    return any(t.index == d for t, d in walk(e, BVar, depth))


def _same(t: Expr, depth: int) -> Expr:
    return t


def _app(t: App, args: tuple[Expr, ...]) -> Expr:
    return t if args is t.args else App(t.head, args)


def _rebuild(
    e: Expr,
    app: Callable[[App, tuple[Expr, ...]], Expr] = _app,
    var: Callable[[Var, int], Expr] = _same,
    bvar: Callable[[BVar, int], Expr] = _same,
    depth: int = 0,
) -> Expr:
    """Rebuild e bottom-up.

    Variables become var(node, depth) and bound variables bvar(node,
    depth), where depth counts the binders above them inside e (plus the
    starting depth); an application becomes app(node, rebuilt arguments),
    its arguments rebuilt first, and gets the node's own argument tuple
    when no argument changed.  Pi, Lam and Ap nodes are rebuilt
    structurally, keeping binder hints, and a node none of whose
    children changed is returned itself.
    """
    c = e.__class__
    if c is App:
        new = tuple([_rebuild(a, app, var, bvar, depth) for a in e.args])
        return app(e, e.args if all(map(is_, new, e.args)) else new)
    if c is Var:
        return var(e, depth)
    if c is BVar:
        return bvar(e, depth)
    kids = children(e)
    if not kids:
        raise TypeError(f"unexpected expression node: {e!r}")
    first = _rebuild(kids[0], app, var, bvar, depth)
    second = _rebuild(kids[1], app, var, bvar, depth if c is Ap else depth + 1)
    if first is kids[0] and second is kids[1]:
        return e
    return Ap(first, second) if c is Ap else c(first, second, e.hint)


def substitute(e: Expr, sub: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of locally closed values for free variables.

    Unmapped variables are left fixed.  Capture is impossible: bound
    variables are indices, and substituted values carry no dangling
    indices to be captured.
    """
    if not sub:
        return e
    return _rebuild(e, var=lambda t, d: sub.get(t.name, t))


def abstract_var(e: Expr, name: str, depth: int = 0) -> Expr:
    """Turn free occurrences of name into the bound index at depth."""
    return _rebuild(e, var=lambda t, d: BVar(d) if t.name == name else t, depth=depth)


def open_bound(e: Expr, value: Expr, depth: int = 0) -> Expr:
    """Remove one binder: replace index depth by value, shift deeper indices down."""

    def bvar(t: BVar, d: int) -> Expr:
        if t.index == d:
            return value
        return BVar(t.index - 1) if t.index > d else t

    return _rebuild(e, bvar=bvar, depth=depth)


def _shift(e: Expr, by: int) -> Expr:
    """Raise the indices that escape e's own binders by `by`, for e moved
    under that many more binders."""
    return _rebuild(e, bvar=lambda t, d: BVar(t.index + by) if t.index >= d else t)


def fresh_name(base: str, avoid: Container[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def mk_pi(name: str, dom: Expr, cod: Expr) -> Pi:
    """Pi binder from a named codomain; name is abstracted away."""
    return Pi(dom, abstract_var(cod, name), name)


def mk_lam(name: str, dom: Expr, body: Expr) -> Lam:
    return Lam(dom, abstract_var(body, name), name)


def open_binder(bound_part: Expr, hint: str, avoid: Iterable[str]) -> tuple[str, Expr]:
    """Open a binder body with a fresh named variable."""
    name = fresh_name(hint, set(avoid))
    return name, open_bound(bound_part, Var(name))


def translate(e: Expr, images: Mapping[str, SymbolImage]) -> Expr:
    """Extend a symbol assignment to all expressions.

    Each application c(a1, ..., an) is replaced bottom-up by the image of c
    with its parameters simultaneously substituted by the translated
    arguments; variables are fixed.  An argument placed under binders of
    the image has its dangling indices shifted past them, so the binders
    around the application keep their occurrences.  The extension is the
    unique one that is identity on variables and commutes with
    substitution; c applied to its own telescope gives c's image itself.
    """

    def app(t: App, targs: tuple[Expr, ...]) -> Expr:
        if t.head not in images:
            raise UnknownSymbol(f"symbol {t.head!r} has no image")
        params, body = images[t.head]
        if len(params) != len(targs):
            raise ArityMismatch(
                f"symbol {t.head!r} expects {len(params)} arguments, got {len(targs)}"
            )
        if all(a.__class__ is Var and a.name == x for a, x in zip(targs, params)):
            return body
        sub = dict(zip(params, targs))

        def var(v: Var, d: int) -> Expr:
            a = sub.get(v.name, v)
            return _shift(a, d) if d else a

        return _rebuild(body, var=var)

    return _rebuild(e, app)


def hypothesize(e: Expr, x0: str, syms: Container[str]) -> Expr:
    """Prefix every application of a theory symbol with the hypothesis variable.

    c(a1, ..., an) becomes c(x0, a1', ..., an') for symbols c of the
    hypothesized theory; variables and binder nodes pass through
    structurally.  x0 must not occur free in e.
    """
    if x0 in free_vars(e):
        raise VariableClash(f"hypothesis variable {x0!r} already occurs free")
    hv = (Var(x0),)
    return _rebuild(e, lambda t, args: App(t.head, hv + args if t.head in syms else args))


def rename_symbols(e: Expr, renaming: Mapping[str, str]) -> Expr:
    return _rebuild(e, lambda t, args: App(renaming.get(t.head, t.head), args))
