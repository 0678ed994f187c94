"""The finite-model program is compiled once per Theory object: repeated
searches, validations and reducts reuse it, every new object (a prefix,
an extension, a renamed copy) compiles its own, a failed compile leaves
nothing behind, and the memo changes neither a theory's equality, hash,
repr nor its pickle.  The equality engine's axiom patterns follow the
same rules."""

import pickle
from dataclasses import replace

import pytest

from gatc import deriv, models
from gatc.errors import ModelError
from gatc.expr import App, Var
from gatc.gatcat import coproduct, identity
from gatc.models import (
    check_colimit_duality,
    count_models,
    enumerate_models,
    reduct,
    validate_model,
)
from gatc.theory import Theory, extend, stdlib, term_sym

LIB = stdlib()


def _fresh(name: str) -> Theory:
    """A new object equal to the library theory, with no program yet."""
    t = LIB[name]
    return Theory(t.name, t.decls)


def _keys(t: Theory, bound: int) -> list:
    return [m.key() for m in enumerate_models(t, bound)]


@pytest.fixture
def builds(monkeypatch):
    """The theories a program has been compiled for so far, in order."""
    built = []
    original = models._compile

    def counting(theory):
        built.append(theory)
        return original(theory)

    monkeypatch.setattr(models, "_compile", counting)
    return built


def test_fifty_enumerations_build_one_program(builds):
    mon = _fresh("Mon")
    for _ in range(50):
        assert len(enumerate_models(mon, 2)) == 5
    assert builds == [mon]


def test_searches_validation_and_reducts_share_one_program(builds):
    mon = _fresh("Mon")
    ms = enumerate_models(mon, 2)
    count_models(mon, 2)
    for m in ms:
        validate_model(m)
        assert reduct(m, identity(mon)).key() == m.key()
    assert builds == [mon]


def test_each_new_object_builds_its_own_program(builds):
    mon = _fresh("Mon")
    pre = mon.prefix(3)  # Mon, u and mul: magmas with a unit, no laws
    ext = extend(mon, term_sym("v", (), App("Mon")))
    renamed = replace(mon, name="Mon2")
    assert len(enumerate_models(mon, 2)) == 5
    assert len(enumerate_models(pre, 2)) == 1 + 2 * 2**4
    assert len(enumerate_models(ext, 2)) == 1 + 4 * 2
    assert _keys(renamed, 2) == _keys(mon, 2)
    assert [id(t) for t in builds] == [id(mon), id(pre), id(ext), id(renamed)]
    for t in (pre, ext, renamed):
        assert _keys(t, 2) == _keys(Theory(t.name, t.decls), 2)


def test_a_failed_build_memoizes_nothing(builds):
    stlc = LIB["STLC"]
    for _ in range(3):
        for search in (count_models, enumerate_models):
            with pytest.raises(ModelError):
                search(stlc, 1)
    assert len(builds) == 6
    assert "_program" not in vars(stlc)


def test_coproduct_duality_compiles_each_theory_once(builds):
    left, right = _fresh("Mon"), _fresh("El0")
    cp = coproduct(left, right)
    for _ in range(3):
        assert check_colimit_duality(cp, 1).bijection
    assert sorted(t.name for t in builds) == sorted({cp.theory.name, "Mon", "El0"})


def test_the_memo_is_invisible_to_equality_hash_repr_and_pickle():
    cat = _fresh("CatPt")
    before = (pickle.dumps(cat), hash(cat), repr(cat))
    n = len(enumerate_models(cat, 1))
    assert _proves_unit_law(cat)
    assert {"_program", "_axiom_patterns"} <= vars(cat).keys()
    assert (pickle.dumps(cat), hash(cat), repr(cat)) == before
    back = pickle.loads(pickle.dumps(cat))
    assert back == cat == LIB["CatPt"]
    assert not {"_program", "_axiom_patterns"} & vars(back).keys()
    assert len(enumerate_models(back, 1)) == n
    assert _proves_unit_law(back)


def _proves_unit_law(t: Theory) -> bool:
    """f ; id(y) = f, an axiom of Cat, of CatPt and of their prefixes
    with the associativity law left out."""
    x, y, f = Var("x"), Var("y"), Var("f")
    ctx = (("x", App("Ob")), ("y", App("Ob")), ("f", App("Hom", (x, y))))
    lhs = App("comp", (x, y, y, f, App("id", (y,))))
    return deriv.eq_check(t, ctx, lhs, f).proved


@pytest.fixture
def pattern_builds(monkeypatch):
    """The axioms compiled to patterns so far, in order."""
    built = []
    original = deriv._axiom_pattern

    def counting(d):
        built.append(d.name)
        return original(d)

    monkeypatch.setattr(deriv, "_axiom_pattern", counting)
    return built


def test_axiom_patterns_are_compiled_once_per_object(pattern_builds):
    cat = _fresh("Cat")
    axioms = [d.name for d in cat.axioms()]
    for _ in range(20):
        assert _proves_unit_law(cat)
    assert pattern_builds == axioms
    pre = cat.prefix(len(cat.decls) - 1)
    ext = extend(cat, term_sym("o", (), App("Ob")))
    renamed = replace(cat, name="Cat2")
    for t in (pre, ext, renamed):
        for _ in range(3):
            assert _proves_unit_law(t)
    assert pattern_builds == axioms + axioms[:-1] + axioms + axioms
