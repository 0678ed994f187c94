"""Raw expressions over a theory's symbols.

Expressions are first-order symbol applications over named free variables,
optionally extended with Pi / lam / application nodes when the Pi rule set
is enabled.  Binders use de Bruijn indices internally while free variables
stay named (locally nameless), so alpha-equivalent expressions are
structurally equal and substitution of locally closed values never
captures.  Printed names of bound variables are kept as hints that do not
participate in equality or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping

from .errors import ArityMismatch, UnknownSymbol, VariableClash

VarName = str


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


def free_vars(e: Expr) -> tuple[str, ...]:
    """Free variables of e in first-occurrence order."""
    out: list[str] = []
    seen: set[str] = set()

    def go(t: Expr) -> None:
        if isinstance(t, Var):
            if t.name not in seen:
                seen.add(t.name)
                out.append(t.name)
        elif isinstance(t, App):
            for a in t.args:
                go(a)
        elif isinstance(t, Pi):
            go(t.dom)
            go(t.cod)
        elif isinstance(t, Lam):
            go(t.dom)
            go(t.body)
        elif isinstance(t, Ap):
            go(t.fun)
            go(t.arg)

    go(e)
    return tuple(out)


def head_symbols(e: Expr) -> set[str]:
    """All symbol names applied anywhere in e."""
    out: set[str] = set()

    def go(t: Expr) -> None:
        if isinstance(t, App):
            out.add(t.head)
            for a in t.args:
                go(a)
        elif isinstance(t, Pi):
            go(t.dom)
            go(t.cod)
        elif isinstance(t, Lam):
            go(t.dom)
            go(t.body)
        elif isinstance(t, Ap):
            go(t.fun)
            go(t.arg)

    go(e)
    return out


def locally_closed(e: Expr, depth: int = 0) -> bool:
    """True when e has no bound-variable index escaping its own binders."""
    if isinstance(e, BVar):
        return e.index < depth
    if isinstance(e, App):
        return all(locally_closed(a, depth) for a in e.args)
    if isinstance(e, Pi):
        return locally_closed(e.dom, depth) and locally_closed(e.cod, depth + 1)
    if isinstance(e, Lam):
        return locally_closed(e.dom, depth) and locally_closed(e.body, depth + 1)
    if isinstance(e, Ap):
        return locally_closed(e.fun, depth) and locally_closed(e.arg, depth)
    return True


def substitute(e: Expr, sub: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of locally closed values for free variables.

    Unmapped variables are left fixed.  Capture is impossible: bound
    variables are indices, and substituted values carry no dangling
    indices to be captured.
    """
    if not sub:
        return e
    if isinstance(e, Var):
        return sub.get(e.name, e)
    if isinstance(e, (BVar,)):
        return e
    if isinstance(e, App):
        return App(e.head, tuple(substitute(a, sub) for a in e.args))
    if isinstance(e, Pi):
        return Pi(substitute(e.dom, sub), substitute(e.cod, sub), e.hint)
    if isinstance(e, Lam):
        return Lam(substitute(e.dom, sub), substitute(e.body, sub), e.hint)
    if isinstance(e, Ap):
        return Ap(substitute(e.fun, sub), substitute(e.arg, sub))
    raise TypeError(f"unexpected expression node: {e!r}")


def abstract_var(e: Expr, name: str, depth: int = 0) -> Expr:
    """Turn free occurrences of name into the bound index at depth."""
    if isinstance(e, Var):
        return BVar(depth) if e.name == name else e
    if isinstance(e, BVar):
        return e
    if isinstance(e, App):
        return App(e.head, tuple(abstract_var(a, name, depth) for a in e.args))
    if isinstance(e, Pi):
        return Pi(abstract_var(e.dom, name, depth), abstract_var(e.cod, name, depth + 1), e.hint)
    if isinstance(e, Lam):
        return Lam(abstract_var(e.dom, name, depth), abstract_var(e.body, name, depth + 1), e.hint)
    if isinstance(e, Ap):
        return Ap(abstract_var(e.fun, name, depth), abstract_var(e.arg, name, depth))
    raise TypeError(f"unexpected expression node: {e!r}")


def open_bound(e: Expr, value: Expr, depth: int = 0) -> Expr:
    """Remove one binder: replace index depth by value, shift deeper indices down."""
    if isinstance(e, BVar):
        if e.index == depth:
            return value
        if e.index > depth:
            return BVar(e.index - 1)
        return e
    if isinstance(e, Var):
        return e
    if isinstance(e, App):
        return App(e.head, tuple(open_bound(a, value, depth) for a in e.args))
    if isinstance(e, Pi):
        return Pi(open_bound(e.dom, value, depth), open_bound(e.cod, value, depth + 1), e.hint)
    if isinstance(e, Lam):
        return Lam(open_bound(e.dom, value, depth), open_bound(e.body, value, depth + 1), e.hint)
    if isinstance(e, Ap):
        return Ap(open_bound(e.fun, value, depth), open_bound(e.arg, value, depth))
    raise TypeError(f"unexpected expression node: {e!r}")


def mentions_bound(e: Expr, depth: int = 0) -> bool:
    if isinstance(e, BVar):
        return e.index == depth
    if isinstance(e, App):
        return any(mentions_bound(a, depth) for a in e.args)
    if isinstance(e, Pi):
        return mentions_bound(e.dom, depth) or mentions_bound(e.cod, depth + 1)
    if isinstance(e, Lam):
        return mentions_bound(e.dom, depth) or mentions_bound(e.body, depth + 1)
    if isinstance(e, Ap):
        return mentions_bound(e.fun, depth) or mentions_bound(e.arg, depth)
    return False


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
    arguments; variables are fixed.  The extension is the unique one that
    is identity on variables and commutes with substitution.
    """
    if isinstance(e, (Var, BVar)):
        return e
    if isinstance(e, App):
        targs = tuple(translate(a, images) for a in e.args)
        if e.head not in images:
            raise UnknownSymbol(f"symbol {e.head!r} has no image")
        params, body = images[e.head]
        if len(params) != len(targs):
            raise ArityMismatch(
                f"symbol {e.head!r} expects {len(params)} arguments, got {len(targs)}"
            )
        return substitute(body, dict(zip(params, targs)))
    if isinstance(e, Pi):
        return Pi(translate(e.dom, images), translate(e.cod, images), e.hint)
    if isinstance(e, Lam):
        return Lam(translate(e.dom, images), translate(e.body, images), e.hint)
    if isinstance(e, Ap):
        return Ap(translate(e.fun, images), translate(e.arg, images))
    raise TypeError(f"unexpected expression node: {e!r}")


def hypothesize(e: Expr, x0: str, syms: Container[str]) -> Expr:
    """Prefix every application of a theory symbol with the hypothesis variable.

    c(a1, ..., an) becomes c(x0, a1', ..., an') for symbols c of the
    hypothesized theory; variables and binder nodes pass through
    structurally.  x0 must not occur free in e.
    """
    if x0 in free_vars(e):
        raise VariableClash(f"hypothesis variable {x0!r} already occurs free")

    def go(t: Expr) -> Expr:
        if isinstance(t, (Var, BVar)):
            return t
        if isinstance(t, App):
            args = tuple(go(a) for a in t.args)
            if t.head in syms:
                return App(t.head, (Var(x0),) + args)
            return App(t.head, args)
        if isinstance(t, Pi):
            return Pi(go(t.dom), go(t.cod), t.hint)
        if isinstance(t, Lam):
            return Lam(go(t.dom), go(t.body), t.hint)
        if isinstance(t, Ap):
            return Ap(go(t.fun), go(t.arg))
        raise TypeError(f"unexpected expression node: {t!r}")

    return go(e)


def rename_symbols(e: Expr, renaming: Mapping[str, str]) -> Expr:
    if isinstance(e, (Var, BVar)):
        return e
    if isinstance(e, App):
        return App(renaming.get(e.head, e.head), tuple(rename_symbols(a, renaming) for a in e.args))
    if isinstance(e, Pi):
        return Pi(rename_symbols(e.dom, renaming), rename_symbols(e.cod, renaming), e.hint)
    if isinstance(e, Lam):
        return Lam(rename_symbols(e.dom, renaming), rename_symbols(e.body, renaming), e.hint)
    if isinstance(e, Ap):
        return Ap(rename_symbols(e.fun, renaming), rename_symbols(e.arg, renaming))
    raise TypeError(f"unexpected expression node: {e!r}")


def subexprs(e: Expr) -> Iterable[Expr]:
    """e and all its subexpressions, preorder; binder bodies included."""
    yield e
    if isinstance(e, App):
        for a in e.args:
            yield from subexprs(a)
    elif isinstance(e, Pi):
        yield from subexprs(e.dom)
        yield from subexprs(e.cod)
    elif isinstance(e, Lam):
        yield from subexprs(e.dom)
        yield from subexprs(e.body)
    elif isinstance(e, Ap):
        yield from subexprs(e.fun)
        yield from subexprs(e.arg)
