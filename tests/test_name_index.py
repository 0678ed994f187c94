"""The shared name index: every view of it agrees with a freshly built
theory, and certification and the constructions build O(n) entries."""

import functools
from dataclasses import replace

import pytest

from gatc import theory as theory_mod
from gatc.errors import GatError
from gatc.expr import App
from gatc.gatcat import (
    Interpretation,
    check_interpretation,
    coequalizer,
    identity,
    limit_presentation,
    pushout,
)
from gatc.theory import Theory, check_theory, extend, term_eq_ax, term_sym, type_sym

A, a = App("A"), App("a")


def _constants(n: int) -> list:
    """A : Type and n constants of A."""
    return [type_sym("A")] + [term_sym(f"c{i}", (), A) for i in range(n)]


def _observe(t: Theory, names) -> tuple:
    """What has, has_symbol, index, decl and symbols() say about names."""

    def outcome(fn, name):
        try:
            return fn(name)
        except GatError as exc:
            return (type(exc), str(exc))

    return tuple(
        (t.has(n), t.has_symbol(n), outcome(t.index, n), outcome(t.decl, n)) for n in names
    ) + (t.symbols(),)


def test_shared_index_agrees_with_a_fresh_one_on_every_branch():
    base = check_theory([type_sym("A"), term_sym("a", (), A), term_eq_ax("e", (), a, a, A)])
    left = extend(extend(base, term_sym("l", (), A)), term_eq_ax("le", (), App("l"), a, A))
    right = extend(extend(base, term_sym("r", (), A)), term_eq_ax("re", (), a, App("r"), A))
    pre = left.prefix(2)
    views = {
        "base": base,
        "left": left,
        "right": right,
        "prefix-of-extension": pre,
        "extension-of-prefix": extend(pre, term_sym("p", (), A)),
        "extension-of-prefix-again": extend(pre, term_eq_ax("pe", (), a, a, A)),
        "renamed": replace(left, name="Renamed"),
        "extension-of-renamed": extend(replace(right, name="R2"), term_sym("z", (), A)),
        "prefix-past-the-end": base.prefix(10),
    }
    # extending base again after both branches still sees neither of them
    views["late-branch"] = extend(base, term_sym("late", (), A))
    names = sorted({d.name for t in views.values() for d in t.decls}) + ["absent"]
    for label, t in views.items():
        fresh = Theory(t.name, t.decls, t.pi)
        assert t == fresh, label
        assert _observe(t, names) == _observe(fresh, names), label


@pytest.fixture
def index_entries(monkeypatch):
    """The number of index entries built from declaration tuples so far."""
    built = [0]
    original = theory_mod._name_index

    def counting(decls):
        built[0] += len(decls)
        return original(decls)

    monkeypatch.setattr(theory_mod, "_name_index", counting)
    return built


@pytest.mark.parametrize("n", [500, 2000])
def test_check_theory_builds_linearly_many_index_entries(index_entries, n):
    decls = _constants(n)
    check_theory(decls)
    assert index_entries[0] <= 2 * len(decls)


def test_extend_chain_builds_linearly_many_index_entries(index_entries):
    t = check_theory(_constants(0))
    for i in range(2000):
        t = extend(t, term_sym(f"c{i}", (), A))
    assert index_entries[0] <= 2 * len(t.decls)


def test_constructions_build_linearly_many_index_entries(index_entries):
    n = 500
    decls = _constants(n)
    t = check_theory(decls)
    coequalizer(identity(t), identity(t))
    sub = check_theory(decls[:1], name="Sub")
    pushout(sub, t, identity(sub))
    limit_presentation(t)
    assert index_entries[0] <= 6 * len(decls)


def test_check_interpretation_builds_images_once(monkeypatch):
    builds = []
    original = Interpretation.images.func

    def images(self):
        builds.append(self)
        return original(self)

    counted = functools.cached_property(images)
    counted.__set_name__(Interpretation, "images")
    monkeypatch.setattr(Interpretation, "images", counted)
    axioms = [term_eq_ax(f"e{i}", (), a, a, A) for i in range(100)]
    t = check_theory([type_sym("A"), term_sym("a", (), A)] + axioms)
    assert check_interpretation(identity(t)).ok
    assert len(builds) == 1
