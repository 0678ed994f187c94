"""Theories and interpretations as a category, with finite colimits.

An interpretation maps each source symbol to an expression over the
target whose free variables come from the symbol's own telescope; it is
valid when every translated declaration judgment checks over the target.
Interpretations are the arrows and compose by translation; arrow
equality is the (semi-decidable) equivalence check, so no quotient is
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from . import deriv
from .deriv import (
    EqVerdict,
    Fuel,
    HasType,
    IsType,
    Judgment,
    RuleSet,
    TermEq,
    TypeEq,
)
from .errors import ArityMismatch, GatError, UnknownSymbol
from .gatform_names import safe_name
from .expr import App, Expr, Var, free_vars, fresh_name, rename_symbols, substitute, translate
from .theory import (
    Declaration,
    TermEqKind,
    TermKind,
    Theory,
    TypeEqKind,
    TypeKind,
    check_theory,
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

    def images(self) -> dict[str, tuple[tuple[str, ...], Expr]]:
        out = {}
        for d in self.src.decls:
            if d.is_symbol:
                out[d.name] = (d.arity, self.image(d.name))
        return out

    def apply(self, e: Expr) -> Expr:
        return translate(e, self.images())

    def apply_ctx(self, ctx) -> tuple[tuple[str, Expr], ...]:
        imgs = self.images()
        return tuple((x, translate(ty, imgs)) for x, ty in ctx)

    def retarget(self, new_dst: Theory) -> Interpretation:
        """Same images into an extension of the target."""
        return Interpretation(self.src, new_dst, dict(self.mapping), self.name)


def identity(theory: Theory, name: str = "") -> Interpretation:
    mapping = {
        d.name: App(d.name, tuple(Var(x) for x in d.arity))
        for d in theory.decls
        if d.is_symbol
    }
    return Interpretation(theory, theory, mapping, name or f"id[{theory.name}]")


def compose(first: Interpretation, second: Interpretation, name: str = "") -> Interpretation:
    """Kleisli composition: (second . first)(c) = translate(first(c), second)."""
    imgs = second.images()
    mapping = {c: translate(e, imgs) for c, e in first.mapping.items() if first.src.has_symbol(c)}
    return Interpretation(first.src, second.dst, mapping, name)


def _default_rules(*theories: Theory) -> RuleSet:
    return deriv.WITH_PI if any(t.pi for t in theories) else deriv.BASE


@dataclass
class ValidityResult:
    status: str  # "ok" or "inconclusive"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check_interpretation(
    interp: Interpretation,
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
) -> ValidityResult:
    """Check validity declaration by declaration in source order.

    Every source declaration's basic judgment must check over the target
    after translation; an equality obligation that exhausts fuel makes
    the whole result inconclusive.
    """
    rules = rules if rules is not None else _default_rules(interp.src, interp.dst)
    for d in interp.src.decls:
        ctx2 = interp.apply_ctx(d.ctx)
        k = d.kind
        if isinstance(k, TypeKind):
            img = interp.image(d.name)
            _image_scope(d, img)
            stmt = IsType(img)
        elif isinstance(k, TermKind):
            img = interp.image(d.name)
            _image_scope(d, img)
            stmt = HasType(img, interp.apply(k.ty))
        elif isinstance(k, TypeEqKind):
            stmt = TypeEq(interp.apply(k.lhs), interp.apply(k.rhs))
        elif isinstance(k, TermEqKind):
            stmt = TermEq(interp.apply(k.lhs), interp.apply(k.rhs), interp.apply(k.ty))
        else:
            raise TypeError(f"unexpected kind: {k!r}")
        try:
            r = deriv.check_judgment(interp.dst, Judgment(ctx2, stmt), rules, fuel)
        except GatError as exc:
            raise type(exc)(f"at source symbol {d.name!r}: {exc}") from None
        if not r.ok:
            return ValidityResult("inconclusive", f"obligation for {d.name!r}: {r.detail}")
    return ValidityResult("ok")


def _image_scope(d: Declaration, img: Expr) -> None:
    allowed = set(d.arity)
    for v in free_vars(img):
        if v not in allowed:
            raise ArityMismatch(
                f"image of {d.name!r} mentions {v!r} outside its telescope"
            )


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
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
) -> EquivalenceResult:
    """Prove the per-symbol equalities that make two interpretations equal
    as arrows; only symbol images matter."""
    if i1.src.decls != i2.src.decls or i1.dst.decls != i2.dst.decls:
        raise GatError("equivalence needs interpretations with the same endpoints")
    rules = rules if rules is not None else _default_rules(i1.src, i1.dst)
    per: list[tuple[str, EqVerdict]] = []
    for d in i1.src.decls:
        if not d.is_symbol:
            continue
        ctx2 = i1.apply_ctx(d.ctx)
        v = deriv.eq_check(i1.dst, ctx2, i1.image(d.name), i2.image(d.name), rules, fuel)
        per.append((d.name, v))
        if not v.proved:
            return EquivalenceResult(False, v.reason, tuple(per))
    return EquivalenceResult(True, "", tuple(per))


def check_mutually_inverse(
    i: Interpretation,
    j: Interpretation,
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
) -> EquivalenceResult:
    """Proved iff both composites are equivalent to the identities."""
    there = equivalent(compose(i, j), identity(i.src), rules, fuel)
    if not there.proved:
        return there
    back = equivalent(compose(j, i), identity(j.src), rules, fuel)
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


def coproduct(t1: Theory, t2: Theory, name: str = "", fuel: Fuel = deriv.DEFAULT_FUEL) -> Coproduct:
    """Disjoint union; declarations are made disjoint by #1/#2 suffixes."""
    r1 = {d.name: f"{d.name}#1" for d in t1.decls}
    r2 = {d.name: f"{d.name}#2" for d in t2.decls}
    a = t1.rename(r1)
    b = t2.rename(r2)
    rules = _default_rules(t1, t2)
    out = check_theory(
        a.decls + b.decls, rules, fuel, name or safe_name(f"{t1.name}_x_{t2.name}")
    )
    inc1 = Interpretation(
        t1,
        out,
        {
            d.name: App(r1[d.name], tuple(Var(x) for x in d.arity))
            for d in t1.decls
            if d.is_symbol
        },
        f"inl[{t1.name}]",
    )
    inc2 = Interpretation(
        t2,
        out,
        {
            d.name: App(r2[d.name], tuple(Var(x) for x in d.arity))
            for d in t2.decls
            if d.is_symbol
        },
        f"inr[{t2.name}]",
    )
    return Coproduct(out, inc1, inc2)


@dataclass
class Coequalizer:
    theory: Theory
    quotient: Interpretation  # from the shared target into the coequalizer
    left: Interpretation = None
    right: Interpretation = None


def coequalizer(
    i1: Interpretation,
    i2: Interpretation,
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
    name: str = "",
) -> Coequalizer:
    """Adjoin one equational axiom per source symbol identifying the images.

    Each axiom is checked over the theory extended so far, so later
    obligations may use earlier adjoined equalities.
    """
    if i1.src.decls != i2.src.decls or i1.dst.decls != i2.dst.decls:
        raise GatError("coequalizer needs parallel interpretations")
    rules = rules if rules is not None else _default_rules(i1.src, i1.dst)
    current = i1.dst
    for d in i1.src.decls:
        if not d.is_symbol:
            continue
        ctx2 = i1.apply_ctx(d.ctx)
        if isinstance(d.kind, TypeKind):
            kind = TypeEqKind(i1.image(d.name), i2.image(d.name))
        else:
            kind = TermEqKind(i1.image(d.name), i2.image(d.name), i1.apply(d.kind.ty))
        label = fresh_name(f"eq_{d.name}", {dd.name for dd in current.decls})
        current = extend(current, Declaration(label, ctx2, kind), rules, fuel)
    out = Theory(name or safe_name(f"coeq_{i1.dst.name}"), current.decls, current.pi)
    return Coequalizer(out, identity(i1.dst).retarget(out), i1, i2)


@dataclass
class Pushout:
    theory: Theory
    into_prime: Interpretation  # from the interpretation's target (inclusion)
    into_total: Interpretation  # from the total theory (translated copies)
    sub: Theory = None
    total: Theory = None
    along: Interpretation = None


def pushout(
    sub: Theory,
    total: Theory,
    along: Interpretation,
    rules: Optional[RuleSet] = None,
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
    rules = rules if rules is not None else _default_rules(sub, total, along.dst)
    current = along.dst
    tilde: dict[str, Expr] = dict(along.mapping)
    for d in total.decls[k:]:
        imgs = {
            dd.name: (dd.arity, tilde[dd.name])
            for dd in total.decls
            if dd.is_symbol and dd.name in tilde
        }
        new_name = fresh_name(d.name, {dd.name for dd in current.decls})
        copy = d.map(lambda e: translate(e, imgs), new_name)
        current = extend(current, copy, rules, fuel)
        if d.is_symbol:
            tilde[d.name] = App(new_name, tuple(Var(x) for x in d.arity))
    out = Theory(name or safe_name(f"po_{total.name}_{along.dst.name}"), current.decls, current.pi)
    into_prime = identity(along.dst).retarget(out)
    into_total = Interpretation(
        total,
        out,
        {d.name: tilde[d.name] for d in total.decls if d.is_symbol},
        f"po-leg[{total.name}]",
    )
    return Pushout(out, into_prime, into_total, sub, total, along)


@dataclass
class SpanPushout:
    theory: Theory
    into_left: Interpretation
    into_right: Interpretation


def pushout_general(
    f: Interpretation,
    g: Interpretation,
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
    name: str = "",
) -> SpanPushout:
    """Pushout of an arbitrary span, as the coequalizer of the two
    composites into the coproduct; use pushout() when one leg is a
    prefix-closed inclusion, which gives the small presentation."""
    if f.src.decls != g.src.decls:
        raise GatError("a span needs a common source")
    cp = coproduct(f.dst, g.dst, fuel=fuel)
    ce = coequalizer(compose(f, cp.left), compose(g, cp.right), rules, fuel, name=name)
    return SpanPushout(
        ce.theory, cp.left.retarget(ce.theory), cp.right.retarget(ce.theory)
    )


# ---------------------------------------------------------------------------
# Inductive (limit) presentation
# ---------------------------------------------------------------------------


@dataclass
class LimitClause:
    """One pullback-or-equalizer clause per declaration.

    Type symbols classify against the context-extension arrow between
    type towers; term symbols against the element-of arrow; equational
    axioms are equalizers of two classifying arrows.
    """

    kind: str  # "type-symbol" | "term-symbol" | "type-eq" | "term-eq"
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


def limit_presentation(theory: Theory) -> list[LimitClause]:
    """One clause per declaration, read off from its context and kind."""
    out: list[LimitClause] = []
    for i, d in enumerate(theory.decls):
        prefix = theory.prefix(i)
        n = len(d.ctx)
        k = d.kind
        if isinstance(k, TypeKind):
            tower = mk_Ty(n - 1) if n > 0 else terminal_theory()
            out.append(LimitClause("type-symbol", n, d.name, (_classifier(prefix, d, None, tower),)))
        elif isinstance(k, TermKind):
            f = _classifier(prefix, d, k.ty, mk_Ty(n))
            out.append(LimitClause("term-symbol", n, d.name, (f,)))
        elif isinstance(k, TypeEqKind):
            f = _classifier(prefix, d, k.lhs, mk_Ty(n))
            g = _classifier(prefix, d, k.rhs, mk_Ty(n))
            out.append(LimitClause("type-eq", n, d.name, (f, g)))
        else:
            f = _classifier(prefix, d, k.ty, mk_El(n), k.lhs)
            g = _classifier(prefix, d, k.ty, mk_El(n), k.rhs)
            out.append(LimitClause("term-eq", n, d.name, (f, g)))
    return out


def reconstruct(
    clauses: list[LimitClause],
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
    name: str = "reconstruction",
) -> tuple[Theory, dict[str, str]]:
    """Re-run the clauses as pushouts and coequalizers.

    Returns the rebuilt theory and the original-to-new symbol renaming;
    the result is isomorphic to the presented theory via that renaming
    (equational axioms come back as per-tower-symbol batches, which does
    not affect interpretations).
    """
    current = terminal_theory()
    current = Theory(name, current.decls, current.pi)
    renaming: dict[str, str] = {}

    def retarget(i: Interpretation) -> Interpretation:
        mapping = {c: rename_symbols(e, renaming) for c, e in i.mapping.items()}
        return Interpretation(i.src, current, mapping)

    for cl in clauses:
        if cl.kind == "type-symbol":
            tower_sub = mk_Ty(cl.n - 1) if cl.n > 0 else terminal_theory()
            tower_total = mk_Ty(cl.n)
            po = pushout(tower_sub, tower_total, retarget(cl.arrows[0]), rules, fuel, name=name)
            added = po.theory.decls[len(current.decls)]
            renaming[cl.decl_name] = added.name
            current = Theory(name, po.theory.decls, po.theory.pi)
        elif cl.kind == "term-symbol":
            po = pushout(mk_Ty(cl.n), mk_El(cl.n), retarget(cl.arrows[0]), rules, fuel, name=name)
            added = po.theory.decls[len(current.decls)]
            renaming[cl.decl_name] = added.name
            current = Theory(name, po.theory.decls, po.theory.pi)
        else:
            f = retarget(cl.arrows[0])
            g = retarget(cl.arrows[1])
            ce = coequalizer(f, g, rules, fuel, name=name)
            current = Theory(name, ce.theory.decls, ce.theory.pi)
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
    out = {
        "MonToCatPt": mon_to_catpt(),
        "MonToCatPtVariant": mon_to_catpt_variant(),
        "Ty0ToMon": Interpretation(lib["Ty0"], lib["Mon"], {"A0": App("Mon")}, "Ty0ToMon"),
        "Ty0ToCat": Interpretation(lib["Ty0"], lib["Cat"], {"A0": App("Ob")}, "Ty0ToCat"),
        "CatToCatPt": renaming_interpretation(
            lib["Cat"], lib["CatPt"], {d.name: d.name for d in lib["Cat"].decls}, "CatToCatPt"
        ),
    }
    return out
