import dataclasses

import pytest

from gatc.errors import GatError
from gatc.expr import App, Var
from gatc.gatcat import (
    Interpretation,
    check_interpretation,
    check_mutually_inverse,
    coequalizer,
    compose,
    coproduct,
    corpus_interpretations,
    equivalent,
    identity,
    limit_presentation,
    mon_to_catpt,
    mon_to_catpt_variant,
    positional_renaming,
    pushout,
    reconstruct,
    renaming_interpretation,
)
from gatc.theory import check_theory, stdlib, terminal_theory

LIB = stdlib()


def test_mon_to_catpt_validates():
    assert check_interpretation(mon_to_catpt()).ok


def test_interpretation_is_frozen():
    i = mon_to_catpt()
    with pytest.raises(dataclasses.FrozenInstanceError):
        i.mapping = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        i.name = "renamed"
    with pytest.raises(TypeError):
        i.mapping["u"] = App("b")


def test_identity_interpretation_validates():
    for name in ("Mon", "Cat", "El1"):
        assert check_interpretation(identity(LIB[name])).ok


def test_variant_validates_through_category_axioms():
    # unit-law obligations are discharged with at most two axiom instances
    assert check_interpretation(mon_to_catpt_variant()).ok


def test_invalid_interpretation_rejected():
    bad = Interpretation(LIB["Mon"], LIB["CatPt"], {
        "Mon": App("Ob"),
        "u": App("b"),
        "mul": Var("y1"),
    })
    v = check_interpretation(bad)
    assert not v.ok  # the left-unit obligation cannot be proved over Ob


def test_compose_identity_laws():
    i = mon_to_catpt()
    assert compose(i, identity(LIB["CatPt"])).mapping == i.mapping
    assert compose(identity(LIB["Mon"]), i).mapping == i.mapping


def test_compose_associativity_structural():
    lib = LIB
    a = corpus_interpretations()["Ty0ToMon"]
    b = mon_to_catpt()
    c = renaming_interpretation(lib["CatPt"], lib["CatPt"], {d.name: d.name for d in lib["CatPt"].decls})
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert left.mapping == right.mapping


def test_equivalent_reflexive():
    i = mon_to_catpt()
    assert equivalent(i, i).proved


def test_equivalent_variant_single_axiom_instance():
    r = equivalent(mon_to_catpt(), mon_to_catpt_variant())
    assert r.proved
    assert r.axiom_instances() == 1


def test_equivalent_symmetric_transitive_on_corpus():
    i1, i2 = mon_to_catpt(), mon_to_catpt_variant()
    assert equivalent(i2, i1).proved
    b = App("b")
    i3 = Interpretation(LIB["Mon"], LIB["CatPt"], {
        "Mon": App("Hom", (b, b)),
        "u": App("comp", (b, b, b, App("id", (b,)), App("comp", (b, b, b, App("id", (b,)), App("id", (b,)))))),
        "mul": App("comp", (b, b, b, Var("y1"), Var("y2"))),
    })
    assert check_interpretation(i3).ok
    assert equivalent(i2, i3).proved
    assert equivalent(i1, i3).proved


def test_equivalent_trivial_type_images():
    a = corpus_interpretations()["Ty0ToMon"]
    assert equivalent(a, a).proved


def test_compose_respects_equivalence():
    # composing an equivalent pair with a further map keeps them equivalent
    i1, i2 = mon_to_catpt(), mon_to_catpt_variant()
    j = corpus_interpretations()["Ty0ToMon"]
    assert equivalent(compose(j, i1), compose(j, i2)).proved


def test_coproduct_with_terminal_is_identity_up_to_iso():
    cp = coproduct(terminal_theory(), LIB["Mon"])
    fwd = positional_renaming(LIB["Mon"], cp.theory)
    back = positional_renaming(cp.theory, LIB["Mon"])
    assert check_interpretation(fwd).ok
    assert check_interpretation(back).ok
    assert check_mutually_inverse(fwd, back).proved


def test_coproduct_of_two_type_theories():
    cp = coproduct(LIB["Ty0"], LIB["Ty0"])
    assert [d.name for d in cp.theory.decls] == ["A0#1", "A0#2"]
    assert check_interpretation(cp.left).ok
    assert check_interpretation(cp.right).ok


def test_coequalizer_of_equal_pair():
    i = corpus_interpretations()["Ty0ToMon"]
    ce = coequalizer(i, i)
    # one reflexive type-equality axiom adjoined
    assert len(ce.theory.decls) == len(LIB["Mon"].decls) + 1
    fwd = renaming_interpretation(LIB["Mon"], ce.theory, {d.name: d.name for d in LIB["Mon"].decls if d.is_symbol})
    back = renaming_interpretation(ce.theory, LIB["Mon"], {d.name: d.name for d in ce.theory.decls if d.is_symbol})
    assert check_mutually_inverse(fwd, back).proved
    assert equivalent(ce.quotient, fwd).proved


def test_coequalizer_of_two_ty0_to_el0():
    el0 = LIB["El0"]
    i = Interpretation(LIB["Ty0"], el0, {"A0": App("A0")})
    ce = coequalizer(i, i)
    assert len(ce.theory.decls) == 3


def test_pushout_pointed_monoid():
    po = pushout(LIB["Ty0"], LIB["El0"], corpus_interpretations()["Ty0ToMon"])
    names = [d.name for d in po.theory.decls]
    assert names == ["Mon", "u", "mul", "_1", "_2", "_3", "e0"]
    point = po.theory.decl("e0")
    assert point.ctx == ()
    assert point.kind.ty == App("Mon")


def test_pushout_square_commutes_structurally():
    sub, total = LIB["Ty0"], LIB["El0"]
    along = corpus_interpretations()["Ty0ToMon"]
    po = pushout(sub, total, along)
    incl = Interpretation(sub, total, {"A0": App("A0")})
    left = compose(incl, po.into_total)
    right = compose(along, po.into_prime)
    assert left.mapping == right.mapping


def test_pushout_along_identity_recovers_total():
    po = pushout(LIB["Ty0"], LIB["El0"], identity(LIB["Ty0"]))
    assert po.theory.decls == LIB["El0"].decls


def test_pushout_of_catpt_along_identity():
    po = pushout(LIB["Cat"], LIB["CatPt"], identity(LIB["Cat"]))
    assert po.theory.decls == LIB["CatPt"].decls


def test_pushout_requires_prefix():
    with pytest.raises(GatError):
        pushout(LIB["Mon"], LIB["El0"], identity(LIB["Mon"]))


def test_limit_presentation_of_terminal_empty():
    assert limit_presentation(terminal_theory()) == []


def test_limit_presentation_ty1():
    clauses = limit_presentation(LIB["Ty1"])
    assert [(c.kind, c.n) for c in clauses] == [("type-symbol", 0), ("type-symbol", 1)]
    # the second clause classifies the one-variable context via the tower
    second = clauses[1]
    assert second.arrows[0].mapping == {"A0": App("A0")}


def test_limit_presentation_classifiers_are_valid():
    for name in ("Mon", "Cat", "El2"):
        t = LIB[name]
        for clause in limit_presentation(t):
            for arrow in clause.arrows:
                assert check_interpretation(arrow).ok, (name, clause.decl_name)


def test_limit_presentation_monoid_reconstructs():
    clauses = limit_presentation(LIB["Mon"])
    kinds = [c.kind for c in clauses]
    assert kinds == ["type-symbol", "term-symbol", "term-symbol", "term-eq", "term-eq", "term-eq"]
    rec, renaming = reconstruct(clauses)
    fwd = renaming_interpretation(LIB["Mon"], rec, renaming)
    inv = {v: k for k, v in renaming.items()}
    back = renaming_interpretation(rec, LIB["Mon"], {d.name: inv[d.name] for d in rec.decls if d.is_symbol})
    assert check_interpretation(fwd).ok
    assert check_interpretation(back).ok
    assert check_mutually_inverse(fwd, back).proved


def test_mutually_inverse_identity():
    i = identity(LIB["Mon"])
    assert check_mutually_inverse(i, i).proved


def test_mutually_inverse_reordered_monoid():
    d = list(LIB["Mon"].decls)
    mon2 = check_theory([d[0], d[1], d[2], d[4], d[3], d[5]], name="Mon2")
    ident = {x.name: x.name for x in LIB["Mon"].decls if x.is_symbol}
    fwd = renaming_interpretation(LIB["Mon"], mon2, ident)
    back = renaming_interpretation(mon2, LIB["Mon"], ident)
    assert check_mutually_inverse(fwd, back).proved
