import random

import pytest

from conftest import CATEGORY_LIKE_SIG, MONOID_SIG, random_expr
from gatc.errors import UnknownSymbol, VariableClash
from gatc.expr import (
    Ap,
    App,
    BVar,
    Lam,
    Var,
    abstract_var,
    free_vars,
    head_symbols,
    hypothesize,
    locally_closed,
    mentions_bound,
    mk_lam,
    mk_pi,
    open_bound,
    rename_symbols,
    substitute,
    translate,
)


def test_free_vars_variable():
    assert free_vars(Var("x")) == ("x",)


def test_free_vars_application_order():
    e = App("Hom", (Var("x1"), Var("x2")))
    assert free_vars(e) == ("x1", "x2")


def test_free_vars_binder_removes_bound():
    e = mk_pi("x", App("A"), App("B", (Var("x"),)))
    assert free_vars(e) == ()
    e2 = mk_pi("x", App("A", (Var("y"),)), App("B", (Var("x"), Var("z"))))
    assert free_vars(e2) == ("y", "z")


def test_substitute_single_variable():
    e0 = App("e0")
    assert substitute(Var("x0"), {"x0": e0}) == e0


def test_substitute_identity_is_identity(gen):
    rng = random.Random(7)
    for binders in (False, True):
        for _ in range(200):
            e = random_expr(rng, MONOID_SIG, ["a", "b"], 4, binders)
            sub = {v: Var(v) for v in free_vars(e)}
            assert substitute(e, sub) == e


def test_substitute_unmapped_fixed():
    e = App("mul", (Var("a"), Var("b")))
    assert substitute(e, {"a": App("u")}) == App("mul", (App("u"), Var("b")))


def test_substitute_composition_law(gen):
    # oracle: applying sigma then rho agrees with applying the composed map
    rng = random.Random(11)
    for binders in (False, True):
        for _ in range(300):
            e = random_expr(rng, MONOID_SIG, ["a", "b", "c"], 4, binders)
            sigma = {v: random_expr(rng, MONOID_SIG, ["a", "b"], 2, binders) for v in ("a", "b", "c")}
            rho = {v: random_expr(rng, MONOID_SIG, [], 2, binders) for v in ("a", "b")}
            lhs = substitute(substitute(e, sigma), rho)
            composed = {v: substitute(t, rho) for v, t in sigma.items()}
            rhs = substitute(e, composed)
            assert lhs == rhs


def test_substitute_under_binder_no_capture():
    # the substituted value mentions the same display name the binder uses;
    # indices make capture impossible
    body = mk_lam("x", App("A"), App("mul", (Var("x"), Var("y"))))
    out = substitute(body, {"y": Var("x")})
    assert out == Lam(App("A"), App("mul", (BVar(0), Var("x"))), "x")


def test_substitute_keeps_what_it_does_not_change():
    e = App("f", (mk_pi("x", App("A"), App("g", (Var("x"), Var("y")))), Ap(Var("y"), App("c"))))
    assert substitute(e, {"z": App("c")}) is e
    # a changed argument is rebuilt, the unchanged one kept
    pair = App("f", (Var("x"), e))
    out = substitute(pair, {"x": App("c")})
    assert out == App("f", (App("c"), e)) and out.args[1] is e


def test_translate_of_a_symbol_over_its_own_telescope_is_its_image():
    image = mk_lam("z", App("A"), App("g", (Var("y1"), Var("z"), Var("y2"))))
    images = {"c": (("y1", "y2"), image), "u": ((), App("e"))}
    assert translate(App("c", (Var("y1"), Var("y2"))), images) is image
    assert translate(App("u"), images) is images["u"][1]
    # other arguments are substituted as before
    swapped = translate(App("c", (Var("y2"), Var("y1"))), images)
    assert swapped == mk_lam("z", App("A"), App("g", (Var("y2"), Var("z"), Var("y1"))))


def test_translate_identity_on_variables():
    images = {"u": ((), App("id", (App("b"),)))}
    assert translate(Var("x"), images) == Var("x")


def test_translate_monoid_unit_clause():
    # the unit of the monoid goes to the identity at the chosen object
    images = {"u": ((), App("id", (App("b"),)))}
    assert translate(App("u"), images) == App("id", (App("b"),))


def test_translate_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        translate(App("mystery"), {})


def test_translate_commutes_with_substitute(gen):
    rng = random.Random(13)
    images = {
        "u": ((), App("g2", (App("c0"), App("c0")))),
        "mul": (("y1", "y2"), App("g2", (Var("y1"), App("f1", (Var("y2"),))))),
    }
    for binders in (False, True):
        for _ in range(300):
            e = random_expr(rng, MONOID_SIG, ["a", "b"], 4, binders)
            sigma = {v: random_expr(rng, MONOID_SIG, ["a"], 2, binders) for v in ("a", "b")}
            lhs = translate(substitute(e, sigma), images)
            rhs = substitute(
                translate(e, images), {v: translate(t, images) for v, t in sigma.items()}
            )
            assert lhs == rhs


def test_translate_does_not_capture_under_image_binders():
    # c's image binds z around its parameter; the argument x stays the
    # outer binder's variable instead of becoming z
    e = mk_lam("x", App("A"), App("c", (Var("x"),)))
    images = {"A": ((), App("A")), "c": (("y",), mk_lam("z", App("A"), App("g", (Var("y"), Var("z")))))}
    expected = mk_lam("x", App("A"), mk_lam("z", App("A"), App("g", (Var("x"), Var("z")))))
    assert translate(e, images) == expected
    assert translate(e, images).body == Lam(App("A"), App("g", (BVar(1), BVar(0))))


def test_translate_commutes_with_binding_when_images_bind(gen):
    # oracle: translating then abstracting (or opening) a variable agrees
    # with abstracting (opening) it first, for images that have binders
    rng = random.Random(41)
    fixed = {
        "u": ((), mk_pi("z", App("c0"), App("f1", (Var("z"),)))),
        "mul": (("y1", "y2"), mk_lam("z", App("c0"), App("g2", (Var("y1"), App("g2", (Var("z"), Var("y2"))))))),
    }
    for k in range(400):
        images = fixed if k % 2 else {
            "u": ((), random_expr(rng, CATEGORY_LIKE_SIG, [], 2, True)),
            "mul": (("y1", "y2"), random_expr(rng, CATEGORY_LIKE_SIG, ["y1", "y2"], 3, True)),
        }
        e = random_expr(rng, MONOID_SIG, ["a", "b"], 4, True)
        body = abstract_var(e, "a")
        assert translate(body, images) == abstract_var(translate(e, images), "a")
        opened = open_bound(body, Var("b"))
        assert translate(opened, images) == open_bound(translate(body, images), Var("b"))


def test_translate_injective_preserves_distinctness(gen):
    # injective relabeling of symbols keeps distinct expressions distinct
    rng = random.Random(17)
    images = {
        "u": ((), App("u'")),
        "mul": (("y1", "y2"), App("mul'", (Var("y1"), Var("y2")))),
    }
    seen = {}
    for _ in range(300):
        e = random_expr(rng, MONOID_SIG, ["a"], 4)
        t = translate(e, images)
        if t in seen:
            assert seen[t] == e
        seen[t] = e


def test_hypothesize_variable_unchanged():
    assert hypothesize(Var("y"), "x0", {"Ob"}) == Var("y")


def test_hypothesize_nullary_symbol():
    assert hypothesize(App("Ob"), "x0", {"Ob"}) == App("Ob", (Var("x0"),))


def test_hypothesize_nested():
    e = App("Hom", (Var("a"), App("id", (Var("a"),))))
    out = hypothesize(e, "x0", {"Hom", "id"})
    assert out == App("Hom", (Var("x0"), Var("a"), App("id", (Var("x0"), Var("a")))))


def test_hypothesize_clash():
    with pytest.raises(VariableClash):
        hypothesize(App("f1", (Var("x0"),)), "x0", {"f1"})


def test_hypothesize_naturality_square(gen):
    # hypothesizing commutes with symbol translation once the images are
    # hypothesized too
    rng = random.Random(19)
    images = {
        "u": ((), App("g2", (App("c0"), App("c0")))),
        "mul": (("y1", "y2"), App("g2", (Var("y1"), Var("y2")))),
    }
    hyp_images = {
        "u": (("x0",), hypothesize(images["u"][1], "x0", set(CATEGORY_LIKE_SIG))),
        "mul": (
            ("x0", "y1", "y2"),
            hypothesize(images["mul"][1], "x0", set(CATEGORY_LIKE_SIG)),
        ),
    }
    for binders in (False, True):
        for _ in range(300):
            e = random_expr(rng, MONOID_SIG, ["a", "b"], 4, binders)
            lhs = hypothesize(translate(e, images), "x0", set(CATEGORY_LIKE_SIG))
            rhs = translate(hypothesize(e, "x0", set(MONOID_SIG)), hyp_images)
            assert lhs == rhs


def test_alpha_equivalent_binders_structurally_equal():
    p1 = mk_pi("x", App("A"), App("B", (Var("x"),)))
    p2 = mk_pi("y", App("A"), App("B", (Var("y"),)))
    assert p1 == p2
    assert hash(p1) == hash(p2)


def test_alpha_congruence_under_operations():
    p1 = mk_lam("x", App("A", (Var("v"),)), Ap(Var("f"), Var("x")))
    p2 = mk_lam("z", App("A", (Var("v"),)), Ap(Var("f"), Var("z")))
    sub = {"v": App("c0"), "f": App("c0")}
    assert substitute(p1, sub) == substitute(p2, sub)
    images = {"A": (("w",), App("A'", (Var("w"),))), "c0": ((), App("c0'"))}
    assert translate(p1, images) == translate(p2, images)


def test_abstract_then_open_round_trip(gen):
    rng = random.Random(23)
    for binders in (False, True):
        for _ in range(200):
            e = random_expr(rng, MONOID_SIG, ["a", "b"], 3, binders)
            body = abstract_var(e, "a")
            assert open_bound(body, Var("a")) == e


def test_head_symbols_of_a_substitution(gen):
    # the heads of e[sigma] are e's heads and those of the values substituted
    # for e's free variables
    rng = random.Random(29)
    for binders in (False, True):
        for _ in range(300):
            e = random_expr(rng, CATEGORY_LIKE_SIG, ["a", "b"], 4, binders)
            sigma = {"a": random_expr(rng, MONOID_SIG, ["c"], 2, binders)}
            expected = set(head_symbols(e))
            if "a" in free_vars(e):
                expected |= head_symbols(sigma["a"])
            assert head_symbols(substitute(e, sigma)) == expected


def test_rename_symbols_round_trip_and_agrees_with_translate(gen):
    rng = random.Random(31)
    renaming = {"u": "one", "mul": "times"}
    inverse = {b: a for a, b in renaming.items()}
    images = {"u": ((), App("one")), "mul": (("y1", "y2"), App("times", (Var("y1"), Var("y2"))))}
    for binders in (False, True):
        for _ in range(300):
            e = random_expr(rng, MONOID_SIG, ["a", "b"], 4, binders)
            renamed = rename_symbols(e, renaming)
            assert head_symbols(renamed) == {renaming[h] for h in head_symbols(e)}
            assert rename_symbols(renamed, inverse) == e
            assert renamed == translate(e, images)


def test_mentions_bound_and_opening_two_binders(gen):
    # x is e as the body of lam a. lam b. e: b at index 0, a at index 1;
    # opening the inner binder first shifts a's index down
    rng = random.Random(37)
    for binders in (False, True):
        for _ in range(300):
            e = random_expr(rng, MONOID_SIG, ["a", "b", "c"], 4, binders)
            x = abstract_var(abstract_var(e, "b"), "a", 1)
            fv = free_vars(e)
            assert locally_closed(e) and not mentions_bound(e)
            assert mentions_bound(x, 0) == ("b" in fv)
            assert mentions_bound(x, 1) == ("a" in fv)
            assert locally_closed(x) == ("a" not in fv and "b" not in fv)
            assert locally_closed(x, 1) == ("a" not in fv)
            assert locally_closed(x, 2)
            assert open_bound(open_bound(x, Var("b")), Var("a")) == e


DEEP = 10_000


def _deep_app_chain():
    # s(s(...s(x0, y1)..., y9998), y9999): preorder meets x0, y1, ..., y9999
    e = Var("x0")
    for i in range(1, DEEP):
        e = App("s", (e, Var(f"y{i}")))
    return e


def _deep_lam_chain(escape: int):
    # DEEP binders around f @ BVar(DEEP - 1 + escape)
    e = Ap(Var("f"), BVar(DEEP - 1 + escape))
    for _ in range(DEEP):
        e = Lam(App("A"), e)
    return e


@pytest.mark.parametrize("fold", ["free_vars", "head_symbols", "locally_closed", "mentions_bound", "walk"])
def test_folds_do_not_recurse_on_deep_terms(fold):
    from gatc import expr

    chain, closed, open_ = _deep_app_chain(), _deep_lam_chain(0), _deep_lam_chain(1)
    if fold == "free_vars":
        assert expr.free_vars(chain) == ("x0",) + tuple(f"y{i}" for i in range(1, DEEP))
        assert expr.free_vars(closed) == ("f",)
    elif fold == "head_symbols":
        assert expr.head_symbols(chain) == {"s"}
        assert expr.head_symbols(closed) == {"A"}
    elif fold == "locally_closed":
        assert expr.locally_closed(chain) and expr.locally_closed(closed)
        assert not expr.locally_closed(open_)
    elif fold == "mentions_bound":
        assert not expr.mentions_bound(chain) and not expr.mentions_bound(closed)
        assert expr.mentions_bound(open_)
        assert expr.mentions_bound(closed.body)
    else:
        nodes = expr.walk(closed)
        assert len(nodes) == 2 * DEEP + 3
        assert max(d for _, d in nodes) == DEEP
        assert len(expr.walk(chain)) == 2 * DEEP - 1
