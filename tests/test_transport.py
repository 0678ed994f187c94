"""Constructions that transport certification agree with re-checking.

check_interpretation checks each source declaration's claim and takes
the translated contexts and presuppositions from the certified source;
coproduct joins two renamed certified theories, poly_apply builds a
families theory and Theory.prefix cuts a certified theory, all without
re-certifying.  Each is compared here with the full re-check it
replaces: validity with tests/validity_oracle.py, the rest with
check_theory of the same declarations.
"""

import random

import pytest

from gatc import deriv
from gatc.errors import (
    ArgumentTypeMismatch,
    ArityMismatch,
    DuplicateName,
    GatError,
    NotAType,
    NotATerm,
    ScopeError,
)
from gatc.expr import App, Var, rename_symbols
from gatc.gatcat import (
    Interpretation,
    _default_rules,
    check_interpretation,
    compose,
    coproduct,
    corpus_interpretations,
    identity,
    limit_presentation,
    reconstruct,
    renaming_interpretation,
)
from gatc.poly import (
    derive_unit,
    fib_product_el0,
    point_symbol,
    poly_apply,
    poly_interp,
    product_leg,
    product_with_ty0,
    projection_interp,
    substitution_interp,
    weakening_interp,
)
from gatc.theory import (
    check_theory,
    disjoint_union,
    mk_El,
    stdlib,
    term_eq_ax,
    term_sym,
    terminal_theory,
    type_sym,
)

import validity_oracle
from test_random_theories import random_flat_theory

LIB = stdlib()


def outcome(check, interp: Interpretation, rules):
    """The verdict and detail, or the exception type and message."""
    try:
        r = check(interp, rules)
    except GatError as exc:
        return type(exc), str(exc)
    return r.status, r.detail


def same_as_full_check(arrows, rules=None) -> list:
    outcomes = []
    for i in arrows:
        got = outcome(check_interpretation, i, rules)
        assert got == outcome(validity_oracle.check_interpretation, i, rules), i.name
        outcomes.append(got)
    return outcomes


def test_corpus_interpretations_composites_and_identities():
    corpus = list(corpus_interpretations().values())
    composites = [compose(i, j) for i in corpus for j in corpus if i.dst.decls == j.src.decls]
    identities = [identity(t) for t in [terminal_theory(), *LIB.values()]]
    arrows = corpus + composites + identities + [compose(identity(i.src), i) for i in corpus]
    assert len(composites) == 3
    assert same_as_full_check(arrows) == [("ok", "")] * len(arrows)


def test_verifier_arrows():
    pel0 = poly_apply(mk_El(0))
    arrows = [projection_interp(pel0)]
    for i in corpus_interpretations().values():
        arrows.append(poly_interp(i, poly_apply(i.src), poly_apply(i.dst)))
    ty0, mon = LIB["Ty0"], LIB["Mon"]
    prod = product_with_ty0(mon)
    legs = [identity(ty0), product_leg(prod), Interpretation(ty0, LIB["El0"], {"A0": App("A0")})]
    for leg in legs:
        unit = derive_unit(leg)
        poly_fib = poly_apply(unit.fib.theory)
        arrows += [
            unit.eta,
            poly_interp(unit.pi1, poly_apply(unit.base), poly_fib),
            poly_interp(unit.pi2, pel0, poly_fib),
        ]
    for t in (ty0, mon, LIB["Cat"]):
        p = poly_apply(t)
        arrows += [
            weakening_interp(p, product_with_ty0(t)),
            substitution_interp(p, fib_product_el0(p.leg)),
        ]
    assert same_as_full_check(arrows) == [("ok", "")] * len(arrows)


def test_reconstruction_arrows():
    for name, t in LIB.items():
        rules = deriv.WITH_PI if t.pi else deriv.BASE
        clauses = limit_presentation(t)
        rec, renaming = reconstruct(clauses, rules)
        inverse = {v: k for k, v in renaming.items()}
        fwd = renaming_interpretation(t, rec, renaming)
        back = renaming_interpretation(rec, t, {d.name: inverse[d.name] for d in rec.decls if d.is_symbol})
        arrows = [fwd, back] + [a for c in clauses for a in c.arrows]
        assert same_as_full_check(arrows, rules) == [("ok", "")] * len(arrows), name


def unused_context_variable() -> Interpretation:
    """S's axiom a = b sent to T, where a = b holds only over x : E."""
    a, b = App("a"), App("b")
    common = [type_sym("A"), term_sym("a", (), App("A")), term_sym("b", (), App("A"))]
    s = check_theory(common + [term_eq_ax("ab", (), a, b, App("A"))], name="S")
    t = check_theory(
        [type_sym("E")] + common + [term_eq_ax("ab", (("x", App("E")),), a, b, App("A"))], name="T"
    )
    return renaming_interpretation(s, t, {"A": "A", "a": "a", "b": "b"}, "I")


def corrupted_substitution() -> Interpretation:
    """P2's substitution with the index variable's image replaced by the point."""
    pel0 = poly_apply(mk_El(0))
    fib = fib_product_el0(pel0.leg)
    subst = substitution_interp(pel0, fib)
    return Interpretation(subst.src, subst.dst, {**subst.mapping, "e0": App(point_symbol(fib))})


def test_invalid_interpretations():
    mon, catpt = LIB["Mon"], LIB["CatPt"]
    b, y1, y2 = App("b"), Var("y1"), Var("y2")
    to_catpt = {"Mon": App("Hom", (b, b)), "u": App("id", (b,)), "mul": App("comp", (b, b, b, y1, y2))}
    to_mon = {"Mon": App("Mon"), "u": App("u"), "mul": App("mul", (y1, y2))}
    arrows = [
        Interpretation(mon, catpt, {**to_catpt, "u": b}),  # ill-typed
        Interpretation(mon, catpt, {**to_catpt, "mul": App("comp", (b, b, y1, y2))}),  # arity
        Interpretation(mon, mon, {**to_mon, "u": Var("z")}),  # ill-scoped
        Interpretation(mon, mon, {**to_mon, "u": App("Mon")}),  # a type for a term
        Interpretation(mon, mon, {**to_mon, "Mon": App("u")}),  # a term for a type
        Interpretation(mon, catpt, {"Mon": App("Ob"), "u": b, "mul": y1}),  # unprovable axiom
        corrupted_substitution(),
        unused_context_variable(),
    ]
    assert same_as_full_check(arrows) == [
        (ArgumentTypeMismatch, "at source symbol 'u': expected type Hom(b, b), inferred Ob"),
        (ArityMismatch, "at source symbol 'mul': 'comp' expects 5 arguments, got 4"),
        (ScopeError, "at source symbol 'u': variable 'z' is not bound by the context"),
        (NotATerm, "at source symbol 'u': 'Mon' is a type symbol, not a term symbol"),
        (NotAType, "at source symbol 'Mon': 'u' is a term symbol, not a type symbol"),
        ("inconclusive", "obligation for '_1': term equality not proved (closed)"),
        (ArgumentTypeMismatch, "at source symbol 'e0': expected type A0(e0_1), inferred A0_1"),
        ("inconclusive", "obligation for 'ab': term equality not proved (closed)"),
    ]


def renamed_union(t1, t2, name: str):
    """check_theory of the #1/#2-renamed declarations, renamed by hand."""
    halves = []
    for t, tag in ((t1, "#1"), (t2, "#2")):
        r = {d.name: d.name + tag for d in t.decls}
        halves += [d.map(lambda e, r=r: rename_symbols(e, r), r[d.name]) for d in t.decls]
    return check_theory(halves, _default_rules(t1, t2), name=name)


def assert_union_certified(t1, t2) -> None:
    cp = coproduct(t1, t2)
    expected = renamed_union(t1, t2, cp.theory.name)
    assert (cp.theory.name, cp.theory.decls, cp.theory.pi) == (expected.name, expected.decls, expected.pi)


def test_coproduct_of_every_corpus_pair_is_certified():
    for t1 in LIB.values():
        for t2 in LIB.values():
            assert_union_certified(t1, t2)


def test_coproduct_of_random_flat_theories_is_certified():
    rng = random.Random(4242)
    theories = [random_flat_theory(rng, 600 + tag) for tag in range(8)]
    for t1, t2 in zip(theories, theories[1:] + theories[:1]):
        assert_union_certified(t1, t2)
        assert_union_certified(t1, t1)


def test_disjoint_union_rejects_a_shared_name_as_check_theory_does():
    mon, cat = LIB["Mon"], LIB["Cat"]
    with pytest.raises(DuplicateName) as info:
        check_theory(mon.decls + cat.decls)
    with pytest.raises(DuplicateName) as lemma:
        disjoint_union(mon, cat, "MonCat")
    assert (str(lemma.value), lemma.value.decl) == (str(info.value), info.value.decl) == (
        "declaration name '_1' repeated",
        "_1",
    )


def assert_recertifies(t, rules=None) -> None:
    """check_theory of t's declarations gives t's name, declarations and pi."""
    rules = rules if rules is not None else _default_rules(t)
    expected = check_theory(t.decls, rules, name=t.name)
    assert (t.name, t.decls, t.pi) == (expected.name, expected.decls, expected.pi), t.name


def test_families_of_every_corpus_theory_is_certified():
    for t in [terminal_theory(), *LIB.values()]:
        p = poly_apply(t)
        assert p.theory.pi == t.pi
        assert_recertifies(p.theory)
        assert_recertifies(poly_apply(p.theory).theory)


def test_families_of_random_flat_theories_is_certified():
    rng = random.Random(4343)
    for tag in range(12):
        p = poly_apply(random_flat_theory(rng, 700 + tag))
        assert_recertifies(p.theory)
        assert_recertifies(poly_apply(p.theory).theory)


def test_every_prefix_of_every_corpus_theory_is_certified():
    for t in LIB.values():
        for n in range(len(t.decls) + 1):
            pre = t.prefix(n)
            expected = check_theory(t.decls[:n], _default_rules(t), name=pre.name)
            assert pre.decls == expected.decls, pre.name
