"""The families theory is built once per Theory object: repeated
poly_apply calls reuse it, every new object (a prefix, an extension, a
renamed copy) builds its own, and the memo changes neither a theory's
equality, hash, repr nor its pickle.  It holds no reference back to its
base, so building it makes no reference cycle."""

import dataclasses
import gc
import pickle
from dataclasses import replace

import pytest

from gatc import theory
from gatc.expr import App
from gatc.poly import poly_apply
from gatc.theory import Theory, extend, stdlib, term_sym

LIB = stdlib()


def _fresh(name: str) -> Theory:
    """A new object equal to the library theory, with no families theory yet."""
    t = LIB[name]
    return Theory(t.name, t.decls, t.pi)


@pytest.fixture
def builds(monkeypatch):
    """The theories a families theory has been built for so far, in order."""
    built = []
    original = theory.families

    def counting(base):
        built.append(base)
        return original(base)

    monkeypatch.setattr(theory, "families", counting)
    return built


def test_repeated_calls_build_once(builds):
    cat = _fresh("Cat")
    first = poly_apply(cat)
    for _ in range(20):
        p = poly_apply(cat)
        assert (p.theory, p.reserved, p.hyp_var) == (first.theory, first.reserved, first.hyp_var)
        assert p.theory is first.theory and p.base is cat
    assert builds == [cat]


def test_each_new_object_builds_its_own(builds):
    mon = _fresh("Mon")
    pre = mon.prefix(3)
    ext = extend(mon, term_sym("v", (), App("Mon")))
    renamed = replace(mon, name="Mon2")
    families = {id(t): poly_apply(t).theory for t in (mon, pre, ext, renamed)}
    for t in (mon, pre, ext, renamed):
        assert poly_apply(t).theory is families[id(t)]
    assert [id(t) for t in builds] == [id(mon), id(pre), id(ext), id(renamed)]
    assert families[id(pre)].decls == families[id(mon)].decls[:4]
    assert families[id(ext)].decls[:-1] == families[id(mon)].decls
    assert families[id(renamed)].decls == families[id(mon)].decls
    assert families[id(renamed)].name == "P_Mon2"


def test_the_memo_is_invisible_to_equality_hash_repr_and_pickle():
    cat = _fresh("CatPt")
    before = (pickle.dumps(cat), hash(cat), repr(cat))
    p = poly_apply(cat)
    assert "_families" in vars(cat)
    assert (pickle.dumps(cat), hash(cat), repr(cat)) == before
    back = pickle.loads(pickle.dumps(cat))
    assert back == cat == LIB["CatPt"]
    assert "_families" not in vars(back)
    assert poly_apply(back).theory == p.theory


def test_a_shared_families_theory_is_read_only():
    p = poly_apply(LIB["Mon"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.reserved = "B0"
    with pytest.raises(TypeError):
        p.hyp_var["u"] = "y"


def test_building_makes_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for name in ("Cat", "STLC", "El2"):
            t = _fresh(name)
            poly_apply(poly_apply(t).theory)
            del t
            assert gc.collect() == 0, name
    finally:
        gc.enable()
