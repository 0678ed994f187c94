"""Theories and interpretations as a category, with finite colimits.

An interpretation maps each source symbol to an expression over the
target whose free variables come from the symbol's own telescope; it is
valid when every translated declaration claim checks over the target.
Interpretations are the arrows and compose by translation; arrow
equality is the (semi-decidable) equivalence check, so no quotient is
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from . import deriv
from .deriv import EqVerdict, Fuel
from .errors import GatError, UnknownSymbol
from .gatform_names import safe_name
from .expr import App, Expr, Var, fresh_name, rename_symbols, substitute, translate
from .theory import (
    Declaration,
    HasType,
    IsType,
    Statement,
    TermEq,
    Theory,
    TypeEq,
    disjoint_union,
    extend,
    mk_El,
    mk_Ty,
    stdlib,
    terminal_theory,
)


@dataclass(frozen=True)
class Interpretation:
    """A symbol map src -> expressions over dst.

    Images are stored over the source symbol's own telescope variable
    names; arities are positional, so renaming-insensitive operations go
    through the (params, body) view.  Axiom entries are irrelevant and
    not stored.
    """

    src: Theory
    dst: Theory
    mapping: Mapping[str, Expr] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        # a read-only view of a private copy: the caller's dict stays theirs
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.mapping)))

    def image(self, sym: str) -> Expr:
        e = self.mapping.get(sym)
        if e is None:
            raise UnknownSymbol(f"interpretation has no image for {sym!r}")
        return e

    @cached_property
    def images(self) -> Mapping[str, tuple[tuple[str, ...], Expr]]:
        """Each source symbol's (telescope, image), built once and read-only."""
        imgs = {d.name: (d.arity, self.image(d.name)) for d in self.src.decls if d.is_symbol}
        return MappingProxyType(imgs)

    def apply(self, e: Expr) -> Expr:
        return translate(e, self.images)

    def apply_ctx(self, ctx) -> tuple[tuple[str, Expr], ...]:
        return tuple((x, translate(ty, self.images)) for x, ty in ctx)

    def retarget(self, new_dst: Theory) -> Interpretation:
        """Same images into an extension of the target."""
        return Interpretation(self.src, new_dst, dict(self.mapping), self.name)


def identity(theory: Theory, name: str = "") -> Interpretation:
    return renaming_interpretation(
        theory, theory, {d.name: d.name for d in theory.decls}, name or f"id[{theory.name}]"
    )


def compose(first: Interpretation, second: Interpretation, name: str = "") -> Interpretation:
    """Kleisli composition: (second . first)(c) = translate(first(c), second)."""
    imgs = second.images
    mapping = {c: translate(e, imgs) for c, e in first.mapping.items() if first.src.has_symbol(c)}
    return Interpretation(first.src, second.dst, mapping, name)


def check_interpretation(
    interp: Interpretation,
    fuel: Fuel = deriv.DEFAULT_FUEL,
) -> deriv.JudgmentResult:
    """Check validity declaration by declaration in source order.

    Each source declaration's claim must check over the target after
    translation: a type symbol's image is a type, a term symbol's image
    has the translated type, an axiom's translated equation is proved
    (Cartmell, APAL 1986).  The translated context and presuppositions
    are not re-checked; they hold by induction over the certified
    source.  Each of a declaration's context types and presupposed
    typings was derived over the earlier declarations, and the images
    of those declarations have already passed their own claims here, so
    translating a derivation of one yields a derivation over the target.
    The translated context keeps the telescope's names, so an image that
    mentions any other variable is a scope error.  Each symbol's image is
    scope-checked once, against its own telescope: a certified source
    translated by well-scoped images is well-scoped, so no translated
    statement is walked for scope.  An equality obligation that exhausts
    fuel makes the whole result inconclusive.  The equalities proved on
    the way, obligations and typing alike, come back in eq_traces in the
    order they were proved.
    """
    sink: list = []
    for d in interp.src.decls:
        stmt = d.judgment().map(interp.apply)
        try:
            if d.is_symbol:
                deriv._scope_check(d.arity, interp.image(d.name))
            r = deriv.check_claim(interp.dst, interp.apply_ctx(d.ctx), stmt, fuel, sink)
        except GatError as exc:
            raise type(exc)(f"at source symbol {d.name!r}: {exc}") from None
        if not r.ok:
            return deriv.JudgmentResult("inconclusive", f"obligation for {d.name!r}: {r.detail}")
    return deriv.JudgmentResult("ok", eq_traces=tuple(sink))


@dataclass
class EquivalenceResult:
    proved: bool
    reason: str = ""  # "fuel" or "closed" when not proved
    per_symbol: tuple[tuple[str, EqVerdict], ...] = ()

    def axiom_instances(self) -> int:
        return sum(v.axiom_instances() for _, v in self.per_symbol)


def equivalent(
    i1: Interpretation,
    i2: Interpretation,
    fuel: Fuel = deriv.DEFAULT_FUEL,
) -> EquivalenceResult:
    """Prove the per-symbol equalities that make two interpretations equal
    as arrows; only symbol images matter."""
    if i1.src.decls != i2.src.decls or i1.dst.decls != i2.dst.decls:
        raise GatError("equivalence needs interpretations with the same endpoints")
    per: list[tuple[str, EqVerdict]] = []
    for d in i1.src.decls:
        if not d.is_symbol:
            continue
        ctx2 = i1.apply_ctx(d.ctx)
        v = deriv.eq_check(i1.dst, ctx2, i1.image(d.name), i2.image(d.name), fuel=fuel)
        per.append((d.name, v))
        if not v.proved:
            return EquivalenceResult(False, v.reason, tuple(per))
    return EquivalenceResult(True, "", tuple(per))


def check_mutually_inverse(
    i: Interpretation,
    j: Interpretation,
    fuel: Fuel = deriv.DEFAULT_FUEL,
) -> EquivalenceResult:
    """Proved iff both composites are equivalent to the identities."""
    there = equivalent(compose(i, j), identity(i.src), fuel)
    if not there.proved:
        return there
    back = equivalent(compose(j, i), identity(j.src), fuel)
    if not back.proved:
        return back
    return EquivalenceResult(True, "", there.per_symbol + back.per_symbol)


# ---------------------------------------------------------------------------
# Finite colimits of theories
# ---------------------------------------------------------------------------


@dataclass
class Coproduct:
    theory: Theory
    left: Interpretation
    right: Interpretation


def coproduct(t1: Theory, t2: Theory, name: str = "") -> Coproduct:
    """Disjoint union; declarations are made disjoint by #1/#2 suffixes.

    Nothing is re-checked: each half is a certified theory renamed
    injectively (Theory.rename), and the union of certified theories
    with disjoint names is certified (disjoint_union).
    """
    r1 = {d.name: f"{d.name}#1" for d in t1.decls}
    r2 = {d.name: f"{d.name}#2" for d in t2.decls}
    out = disjoint_union(t1.rename(r1), t2.rename(r2), name or safe_name(f"{t1.name}_x_{t2.name}"))
    inc1 = renaming_interpretation(t1, out, r1, f"inl[{t1.name}]")
    inc2 = renaming_interpretation(t2, out, r2, f"inr[{t2.name}]")
    return Coproduct(out, inc1, inc2)


@dataclass
class Coequalizer:
    theory: Theory
    quotient: Interpretation  # from the shared target into the coequalizer
    left: Interpretation
    right: Interpretation


def coequalizer(
    i1: Interpretation,
    i2: Interpretation,
    fuel: Fuel = deriv.DEFAULT_FUEL,
    name: str = "",
) -> Coequalizer:
    """Adjoin one equational axiom per source symbol identifying the images.

    Each axiom is checked over the theory extended so far, so later
    obligations may use earlier adjoined equalities.
    """
    if i1.src.decls != i2.src.decls or i1.dst.decls != i2.dst.decls:
        raise GatError("coequalizer needs parallel interpretations")
    current = i1.dst
    for d in i1.src.decls:
        if not d.is_symbol:
            continue
        ctx2 = i1.apply_ctx(d.ctx)
        match d.kind:
            case IsType():
                kind = TypeEq(i1.image(d.name), i2.image(d.name))
            case HasType(_, ty):
                kind = TermEq(i1.image(d.name), i2.image(d.name), i1.apply(ty))
        label = fresh_name(f"eq_{d.name}", current)
        current = extend(current, Declaration(label, ctx2, kind), fuel)
    out = replace(current, name=name or safe_name(f"coeq_{i1.dst.name}"))
    return Coequalizer(out, identity(i1.dst).retarget(out), i1, i2)


@dataclass
class Pushout:
    theory: Theory
    into_prime: Interpretation  # from the interpretation's target (inclusion)
    into_total: Interpretation  # from the total theory (translated copies)
    sub: Theory
    total: Theory
    along: Interpretation


def pushout(
    sub: Theory,
    total: Theory,
    along: Interpretation,
    fuel: Fuel = deriv.DEFAULT_FUEL,
    name: str = "",
) -> Pushout:
    """Pushout of a prefix-closed subtheory inclusion along an interpretation.

    The result is the interpretation's target followed by translated
    copies of the non-shared declarations; each copy is checked as it is
    appended.
    """
    k = len(sub.decls)
    if total.decls[:k] != sub.decls:
        raise GatError(
            f"{sub.name!r} is not a literal prefix of {total.name!r}; "
            "route general pushouts through coproduct + coequalizer"
        )
    if along.src.decls != sub.decls:
        raise GatError("interpretation source must be the subtheory")
    current = along.dst
    tilde: dict[str, Expr] = dict(along.mapping)
    # the images of total's symbols in tilde, which the copies translate by
    imgs = {d.name: (d.arity, tilde[d.name]) for d in total.decls if d.is_symbol and d.name in tilde}
    for d in total.decls[k:]:
        new_name = fresh_name(d.name, current)
        copy = d.map(lambda e: translate(e, imgs), new_name)
        current = extend(current, copy, fuel)
        if d.is_symbol:
            tilde[d.name] = App(new_name, tuple(Var(x) for x in d.arity))
            imgs[d.name] = (d.arity, tilde[d.name])
    out = replace(current, name=name or safe_name(f"po_{total.name}_{along.dst.name}"))
    into_prime = identity(along.dst).retarget(out)
    into_total = Interpretation(
        total,
        out,
        {d.name: tilde[d.name] for d in total.decls if d.is_symbol},
        f"po-leg[{total.name}]",
    )
    return Pushout(out, into_prime, into_total, sub, total, along)


# ---------------------------------------------------------------------------
# Inductive (limit) presentation
# ---------------------------------------------------------------------------


@dataclass
class LimitClause:
    """One pullback-or-equalizer clause per declaration, which carries
    the declaration's statement.

    Type symbols (IsType) classify against the context-extension arrow
    between type towers; term symbols (HasType) against the element-of
    arrow; equational axioms (TypeEq, TermEq) are equalizers of two
    classifying arrows.
    """

    kind: Statement
    n: int
    decl_name: str
    arrows: tuple[Interpretation, ...]


def _classifier(
    prefix: Theory,
    d: Declaration,
    top: Optional[Expr],
    tower: Theory,
    element: Optional[Expr] = None,
) -> Interpretation:
    """Interpretation from a Ty/El tower into the prefix classifying d's
    context (and top type / element where applicable)."""
    renaming = {x: Var(f"x{j}") for j, (x, _) in enumerate(d.ctx)}
    n = len(d.ctx)
    mapping = {f"A{j}": substitute(ty, renaming) for j, (_, ty) in enumerate(d.ctx)}
    if top is not None:
        mapping[f"A{n}"] = substitute(top, renaming)
    if element is not None:
        mapping[f"e{n}"] = substitute(element, renaming)
    return Interpretation(tower, prefix, mapping)


def _context_tower(n: int) -> Theory:
    """The theory of an n-variable context: Ty(n-1), or terminal for none."""
    return mk_Ty(n - 1) if n > 0 else terminal_theory()


def limit_presentation(theory: Theory) -> list[LimitClause]:
    """One clause per declaration, read off from its context and statement."""
    out: list[LimitClause] = []
    for i, d in enumerate(theory.decls):
        prefix = theory.prefix(i)
        n = len(d.ctx)
        match d.kind:
            case IsType():
                arrows = (_classifier(prefix, d, None, _context_tower(n)),)
            case HasType(_, ty):
                arrows = (_classifier(prefix, d, ty, mk_Ty(n)),)
            case TypeEq(lhs, rhs):
                arrows = tuple(_classifier(prefix, d, side, mk_Ty(n)) for side in (lhs, rhs))
            case TermEq(lhs, rhs, ty):
                arrows = tuple(_classifier(prefix, d, ty, mk_El(n), side) for side in (lhs, rhs))
        out.append(LimitClause(d.kind, n, d.name, arrows))
    return out


def reconstruct(
    clauses: list[LimitClause],
    fuel: Fuel = deriv.DEFAULT_FUEL,
    name: str = "reconstruction",
) -> tuple[Theory, dict[str, str]]:
    """Re-run the clauses as pushouts and coequalizers, from the empty
    theory.

    Returns the rebuilt theory and the original-to-new symbol renaming;
    the result is isomorphic to the presented theory via that renaming
    (equational axioms come back as per-tower-symbol batches, which does
    not affect interpretations).
    """
    current = Theory(name, ())
    renaming: dict[str, str] = {}

    def retarget(i: Interpretation) -> Interpretation:
        mapping = {c: rename_symbols(e, renaming) for c, e in i.mapping.items()}
        return Interpretation(i.src, current, mapping)

    for cl in clauses:
        match cl.kind:
            case IsType():
                sub, total = _context_tower(cl.n), mk_Ty(cl.n)
            case HasType():
                sub, total = mk_Ty(cl.n), mk_El(cl.n)
            case _:
                current = coequalizer(*map(retarget, cl.arrows), fuel, name=name).theory
                continue
        po = pushout(sub, total, retarget(cl.arrows[0]), fuel, name=name)
        renaming[cl.decl_name] = po.theory.decls[len(current.decls)].name
        current = po.theory
    return current, renaming


def renaming_interpretation(
    src: Theory, dst: Theory, name_map: Mapping[str, str], name: str = ""
) -> Interpretation:
    """Symbol-to-symbol interpretation along a name correspondence."""
    mapping = {
        d.name: App(name_map[d.name], tuple(Var(x) for x in d.arity))
        for d in src.decls
        if d.is_symbol
    }
    return Interpretation(src, dst, mapping, name)


def positional_renaming(src: Theory, dst: Theory, name: str = "") -> Interpretation:
    """Map the i-th symbol of src to the i-th symbol of dst."""
    ss = src.symbols()
    ds = dst.symbols()
    if len(ss) != len(ds):
        raise GatError("positional renaming needs equally many symbols")
    return renaming_interpretation(src, dst, {a.name: b.name for a, b in zip(ss, ds)}, name)


# ---------------------------------------------------------------------------
# Corpus interpretations used across tests and the CLI corpus emitter
# ---------------------------------------------------------------------------


def mon_to_catpt() -> Interpretation:
    """Monoids as endomorphisms at the chosen object of a pointed category."""
    lib = stdlib()
    b = App("b")
    return Interpretation(
        lib["Mon"],
        lib["CatPt"],
        {
            "Mon": App("Hom", (b, b)),
            "u": App("id", (b,)),
            "mul": App("comp", (b, b, b, Var("y1"), Var("y2"))),
        },
        "MonToCatPt",
    )


def mon_to_catpt_variant() -> Interpretation:
    """Same, except the unit goes to a composite of identities."""
    lib = stdlib()
    b = App("b")
    i = mon_to_catpt()
    mapping = dict(i.mapping)
    mapping["u"] = App("comp", (b, b, b, App("id", (b,)), App("id", (b,))))
    return Interpretation(lib["Mon"], lib["CatPt"], mapping, "MonToCatPtVariant")


def corpus_interpretations() -> dict[str, Interpretation]:
    lib = stdlib()
    return {
        "MonToCatPt": mon_to_catpt(),
        "MonToCatPtVariant": mon_to_catpt_variant(),
        "Ty0ToMon": Interpretation(lib["Ty0"], lib["Mon"], {"A0": App("Mon")}, "Ty0ToMon"),
        "Ty0ToCat": Interpretation(lib["Ty0"], lib["Cat"], {"A0": App("Ob")}, "Ty0ToCat"),
        "CatToCatPt": renaming_interpretation(
            lib["Cat"], lib["CatPt"], {d.name: d.name for d in lib["Cat"].decls}, "CatToCatPt"
        ),
    }
