import collections
import gc
import hashlib
import itertools
import pickle
import random
import tracemalloc
from dataclasses import replace

import pytest

from conftest import MONOID_SIG, random_expr
from model_oracle import context_instances, evaluate
from model_oracle import evaluate as eval_term
from test_random_theories import random_flat_theory
from gatc import deriv
from gatc.errors import BudgetExceeded, ModelError
from gatc.expr import App, Var, walk
from gatc.gatcat import (
    coequalizer,
    compose,
    coproduct,
    corpus_interpretations,
    mon_to_catpt,
    mon_to_catpt_variant,
    pushout,
)
from gatc.models import (
    Model,
    _search,
    check_colimit_duality,
    count_models,
    enumerate_models,
    reduct,
    validate_model,
)
from gatc.theory import (
    HasType,
    IsType,
    check_theory,
    families,
    stdlib,
    term_eq_ax,
    term_sym,
    type_eq_ax,
    type_sym,
)

LIB = stdlib()


def naive_monoid_count(max_size: int) -> int:
    """Independent oracle: loop over every (size, unit, table) triple and
    check the three monoid laws directly."""
    count = 0
    for size in range(max_size + 1):
        elems = range(size)
        for unit in elems:
            for flat in itertools.product(elems, repeat=size * size):
                mul = {}
                it = iter(flat)
                for a in elems:
                    for b in elems:
                        mul[(a, b)] = next(it)
                if any(mul[(unit, y)] != y for y in elems):
                    continue
                if any(mul[(y, unit)] != y for y in elems):
                    continue
                if any(
                    mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]
                    for a in elems
                    for b in elems
                    for c in elems
                ):
                    continue
                count += 1
    return count


def test_monoid_count_matches_independent_oracle():
    oracle = naive_monoid_count(2)
    assert oracle == 5  # frozen: 1 of size one, 4 of size two
    assert count_models(LIB["Mon"], 2) == oracle


def test_ty0_models_are_the_three_initial_segments():
    ms = enumerate_models(LIB["Ty0"], 2)
    assert [m.tables["A0"][()] for m in ms] == [0, 1, 2]


def test_el0_models_are_pointed_sets():
    ms = enumerate_models(LIB["El0"], 2)
    got = [(m.tables["A0"][()], m.tables["e0"][()]) for m in ms]
    assert got == [(1, 0), (2, 0), (2, 1)]


def test_ty1_model_count():
    # a set and a family over it: 1 + 3 + 9 at bound two
    assert count_models(LIB["Ty1"], 2) == 13


def test_enumeration_deterministic_and_duplicate_free():
    a = enumerate_models(LIB["Mon"], 2)
    b = enumerate_models(LIB["Mon"], 2)
    assert [m.key() for m in a] == [m.key() for m in b]
    assert len({m.key() for m in a}) == len(a)


def test_every_enumerated_model_checks():
    for name, bound in (
        ("Mon", 2), ("El1", 2), ("Ty2", 2), ("Cat", 1), ("CatPt", 1), ("Ty3", 1)
    ):
        for m in enumerate_models(LIB[name], bound):
            validate_model(m)


def test_eval_variable_is_environment_lookup():
    m = enumerate_models(LIB["Mon"], 2)[-1]
    assert eval_term(m, {"y": 1}, Var("y")) == 1


def test_type_symbol_evaluates_to_its_carrier_size():
    for m in enumerate_models(LIB["Mon"], 2):
        assert evaluate(m, {}, App("Mon")) == m.tables["Mon"][()]


def test_unit_law_forces_square_of_unit():
    for m in enumerate_models(LIB["Mon"], 2):
        u = eval_term(m, {}, App("u"))
        assert eval_term(m, {}, App("mul", (App("u"), App("u")))) == u


def test_proved_equalities_hold_in_every_model():
    # soundness bridge between the symbolic engine and the oracle
    rng = random.Random(41)
    mon = LIB["Mon"]
    ms = enumerate_models(mon, 2)
    ctx = (("a", App("Mon")), ("b", App("Mon")))
    checked = 0
    while checked < 100:
        lhs = random_expr(rng, MONOID_SIG, ["a", "b"], 3)
        rhs = random_expr(rng, MONOID_SIG, ["a", "b"], 3)
        v = deriv.eq_check(mon, ctx, lhs, rhs)
        if not v.proved:
            continue
        checked += 1
        for m in ms:
            for env_a in range(m.tables["Mon"][()]):
                for env_b in range(m.tables["Mon"][()]):
                    env = {"a": env_a, "b": env_b}
                    assert eval_term(m, env, lhs) == eval_term(m, env, rhs)


def test_substitution_lemma():
    rng = random.Random(43)
    m = enumerate_models(LIB["Mon"], 2)[-1]
    size = m.tables["Mon"][()]
    for _ in range(200):
        e = random_expr(rng, MONOID_SIG, ["a", "b"], 3)
        sub = {
            "a": random_expr(rng, MONOID_SIG, ["c"], 2),
            "b": random_expr(rng, MONOID_SIG, ["c"], 2),
        }
        from gatc.expr import substitute

        for c in range(size):
            env = {"c": c}
            pushed = {v: eval_term(m, env, t) for v, t in sub.items()}
            assert eval_term(m, pushed, e) == eval_term(m, env, substitute(e, sub))


def test_reduct_along_identity():
    from gatc.gatcat import identity

    m = enumerate_models(LIB["Mon"], 2)[2]
    r = reduct(m, identity(LIB["Mon"]))
    assert r.key() == m.key()


def hand_catpt_model() -> Model:
    # one object; the hom-set at it is the two-element group
    return Model(
        LIB["CatPt"],
        {
            "Ob": {(): 1},
            "Hom": {(0, 0): 2},
            "id": {(0,): 0},
            "comp": {(0, 0, 0, a, b): (a + b) % 2 for a in range(2) for b in range(2)},
            "b": {(): 0},
        },
    )


# each breaks one judgment of the valid hand-made model, or its tables
CATPT_DEFECTS = {
    "missing carrier table": lambda m: m.tables.pop("Hom"),
    "missing function table": lambda m: m.tables.pop("comp"),
    "undefined carrier cell": lambda m: m.tables["Hom"].clear(),
    "undefined function cell": lambda m: m.tables["comp"].pop((0, 0, 0, 1, 1)),
    "negative carrier": lambda m: m.tables["Hom"].update({(0, 0): -5}),
    "value out of range": lambda m: m.tables["b"].update({(): 1}),
    "failing unit law": lambda m: m.tables["id"].update({(0,): 1}),
    # tables and cells beyond the theory: each would change the model's key
    "table for an undeclared name": lambda m: m.tables.update({"zzz": {(): 0}}),
    "table for an axiom name": lambda m: m.tables.update({"_1": {(0, 0, 0): 0, (0, 0, 1): 1}}),
    "function cell outside the context": lambda m: m.tables["comp"].update({(0, 0, 0, 5, 5): 0}),
    "carrier cell outside the context": lambda m: m.tables["Hom"].update({(3, 3): 2}),
}


@pytest.mark.parametrize("defect", list(CATPT_DEFECTS))
def test_validate_model_rejects_each_defect(defect):
    m = hand_catpt_model()
    validate_model(m)
    CATPT_DEFECTS[defect](m)
    with pytest.raises(ModelError):
        validate_model(m)


def test_reduct_endomorphism_monoid():
    m = hand_catpt_model()
    validate_model(m)
    r = reduct(m, mon_to_catpt())
    validate_model(r)
    assert r.tables["Mon"][()] == 2
    assert r.tables["u"][()] == 0
    assert r.tables["mul"][(1, 1)] == 0


def test_equivalent_interpretations_same_reduct():
    m = hand_catpt_model()
    assert reduct(m, mon_to_catpt()).key() == reduct(m, mon_to_catpt_variant()).key()


def test_reduct_functoriality():
    m = hand_catpt_model()
    a = corpus_interpretations()["Ty0ToMon"]
    b = mon_to_catpt()
    lhs = reduct(m, compose(a, b))
    rhs = reduct(reduct(m, b), a)
    assert lhs.key() == rhs.key()


def test_coproduct_duality_ty0_ty0():
    cp = coproduct(LIB["Ty0"], LIB["Ty0"])
    r = check_colimit_duality(cp, 2)
    assert r.bijection
    assert r.colimit_count == 9
    assert r.component_counts == (3, 3)


def test_duality_at_every_bound_up_to_two():
    cp = coproduct(LIB["Mon"], LIB["El0"])
    po = pushout(LIB["Ty0"], LIB["El0"], corpus_interpretations()["Ty0ToMon"])
    for k in (0, 1, 2):
        assert check_colimit_duality(cp, k).bijection
        assert check_colimit_duality(po, k).bijection


def test_coproduct_duality_mon_ty0():
    cp = coproduct(LIB["Mon"], LIB["Ty0"])
    r = check_colimit_duality(cp, 2)
    assert r.bijection
    assert r.colimit_count == 15


def test_coproduct_duality_keys_each_component_model_once(monkeypatch):
    # 13 models of Ty1 and 13 of El1 at bound 2, whose 169 pairs are the
    # expected set; the 169 coproduct models' two reducts are keyed too
    cp = coproduct(LIB["Ty1"], LIB["El1"])
    before = check_colimit_duality(cp, 2)
    calls = []
    key = Model.key
    monkeypatch.setattr(Model, "key", lambda m: calls.append(m) or key(m))
    assert check_colimit_duality(cp, 2) == before
    assert before.component_counts == (13, 13) and before.bijection
    assert len(calls) == 2 * 169 + 26


def test_pushout_duality_pointed_monoid():
    po = pushout(LIB["Ty0"], LIB["El0"], corpus_interpretations()["Ty0ToMon"])
    r = check_colimit_duality(po, 2)
    assert r.bijection
    assert r.colimit_count == 9
    r = check_colimit_duality(po, 3)
    assert (r.bijection, r.colimit_count, r.component_counts) == (True, 108, (38, 6))


def test_general_pushout_agrees_with_prefix_pushout_on_models():
    # the coproduct+coequalizer route gives the same model content as the
    # small presentation: models biject with matching pairs
    from gatc.gatcat import Interpretation, identity, pushout_general

    el0, mon, ty0 = LIB["El0"], LIB["Mon"], LIB["Ty0"]
    incl = Interpretation(ty0, el0, {"A0": App("A0")})
    span = pushout_general(incl, corpus_interpretations()["Ty0ToMon"])
    ms = enumerate_models(span.theory, 2)
    a_side = enumerate_models(el0, 2)
    b_side = enumerate_models(mon, 2)
    fibre = {
        (a.key(), b.key())
        for a in a_side
        for b in b_side
        if reduct(a, incl).key() == reduct(b, corpus_interpretations()["Ty0ToMon"]).key()
    }
    pairs = [(reduct(m, span.into_left).key(), reduct(m, span.into_right).key()) for m in ms]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == fibre
    assert len(ms) == 9


def test_coequalizer_duality_reflexive_pair():
    i = corpus_interpretations()["Ty0ToMon"]
    ce = coequalizer(i, i)
    r = check_colimit_duality(ce, 2)
    assert r.bijection
    assert r.colimit_count == count_models(LIB["Mon"], 2)


@pytest.mark.parametrize(
    "name, bound, expected",
    # Cat and CatPt from the separate small-category counter of the
    # benchmark's reference; Mon from OEIS A058153 (1 + 4 + 33)
    [("Cat", 2, 340), ("CatPt", 2, 673), ("Mon", 3, 38)],
)
def test_counts_decided_within_default_budget(name, bound, expected):
    # every model is still itself once the search has moved on: a table
    # the search changed after handing it out would break one of these
    ms = enumerate_models(LIB[name], bound)
    assert len(ms) == expected
    assert len({m.key() for m in ms}) == expected
    for m in ms:
        validate_model(m)


# (library theory, bound, search nodes).  A cell that a watched instance
# fixes to an element costs no node: Cat@2 took 9,264 nodes, CatPt@2
# 9,937, Mon@3 552 and Mon@2 29 when such cells were tried value by value.
BOUNDARY = [
    ("Cat", 2, 4_166),
    ("CatPt", 2, 4_839),
    ("Ty3", 2, 33_872),
    ("Mon", 3, 176),
    ("Mon", 2, 10),
    ("El2", 2, 382),
]


@pytest.mark.parametrize("name, bound, nodes", BOUNDARY)
def test_budget_boundary_is_the_search_node_count(name, bound, nodes):
    count_models(LIB[name], bound, budget=nodes)
    with pytest.raises(BudgetExceeded, match=f"exceeded {nodes - 1} nodes"):
        count_models(LIB[name], bound, budget=nodes - 1)


def pinned_digest(theory, ms: list[Model]) -> str:
    """sha256 of the models' keys in order, each split into the layout the
    pins were first taken in: (type symbols' tables, term symbols' tables),
    each part sorted by name as in Model.key."""
    types = {d.name for d in theory.decls if isinstance(d.kind, IsType)}
    keys = [
        (tuple(e for e in k if e[0] in types), tuple(e for e in k if e[0] not in types))
        for k in (m.key() for m in ms)
    ]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


@pytest.mark.parametrize(
    "name, bound, digest",
    [
        ("Cat", 2, "95c245655046f5064a3f6a9103f604f24effd3c55c432e8ca7597c03548a3df2"),
        ("CatPt", 2, "eed03c5bec10eac7f48e9e5aef7a4e804d798042c3050a3749209d103ad2af1f"),
        ("Ty3", 2, "2410270e9e3d41c39cd3954466a28004819a56a843016cda9fafea877dff5881"),
        ("El2", 2, "01df88762a7799ba1c11ce506b415d09c86423e40776b386e21c9b5a26862609"),
        ("Mon", 3, "87b07d8a2d7fc867a6e8ddb7f28f5c98124efc553d36bb5db1f4b058e2d16a8b"),
    ],
)
def test_enumerated_models_in_order_are_pinned(name, bound, digest):
    assert pinned_digest(LIB[name], enumerate_models(LIB[name], bound)) == digest


def test_models_share_their_tables():
    # Ty3 at bound 2: 33,673 models with four type symbols' tables each,
    # found in 33,872 search nodes, each of which builds at most one table
    ty3 = LIB["Ty3"]
    types = {d.name for d in ty3.decls if isinstance(d.kind, IsType)}
    ms = enumerate_models(ty3, 2)
    assert len({id(m.tables[c]) for m in ms for c in types}) <= 33_872


def _mon_with_family(early: bool):
    # a family P over a monoid whose fibre at the unit is the carrier.
    # Declared after mul, the type axiom's last symbol is P, a carrier;
    # declared right after Mon, with mul(u, u) for u, it is mul, a table
    # the monoid laws fill cell by cell.
    mon, u = App("Mon"), App("u")
    mon_decls = LIB["Mon"].decls
    family = type_sym("P", (("m", mon),))
    if early:
        decls = (mon_decls[0], family) + mon_decls[1:]
        fibre = App("P", (App("mul", (u, u)),))
    else:
        decls = mon_decls + (family,)
        fibre = App("P", (u,))
    return check_theory(decls + (type_eq_ax("_4", (), fibre, mon),), name="MonP")


@pytest.mark.parametrize("early", [False, True])
def test_type_equation_placed_after_its_last_symbol(early):
    # a monoid of size s leaves s - 1 free fibres, so the count at bound
    # k is the sum over labeled monoids of (k + 1) ** (s - 1)
    t = _mon_with_family(early)
    for bound, expected in ((2, 1 + 4 * 3), (3, 1 + 4 * 4 + 33 * 16)):
        ms = enumerate_models(t, bound)
        assert len(ms) == expected
        for m in ms:
            validate_model(m)


def _catpt_c():
    # CatPt with a second point c and the right unit law at c, an axiom
    # whose context reads its last symbol c
    c = App("c")
    return check_theory(
        LIB["CatPt"].decls
        + (
            term_sym("c", (), App("Ob")),
            term_eq_ax(
                "_4",
                (("y", App("Hom", (c, c))),),
                App("comp", (c, c, c, Var("y"), App("id", (c,)))),
                Var("y"),
            ),
        ),
        name="CatPtC",
    )


def test_equation_whose_context_reads_its_last_symbol():
    # the axiom's last symbol c is read by its own context, so it is
    # checked once c is chosen; it is an instance of the right unit law,
    # so each of the 5 one-object and 340 - 1 - 5 two-object categories
    # gives |Ob| ** 2 choices of b and c
    ms = enumerate_models(_catpt_c(), 2)
    assert len(ms) == 5 * 1 + 334 * 4
    for m in ms:
        validate_model(m)


def test_budget_error_on_blowup():
    with pytest.raises(BudgetExceeded):
        enumerate_models(LIB["Cat"], 2, budget=2000)


def test_binder_theories_rejected():
    with pytest.raises(ModelError):
        enumerate_models(LIB["STLC"], 1)


@pytest.mark.parametrize("name", sorted(LIB))
def test_count_models_counts_what_enumerate_models_returns(name):
    t = LIB[name]
    if t.pi:
        for search in (count_models, enumerate_models):
            with pytest.raises(ModelError):
                search(t, 2)
        return
    n = count_models(t, 2)
    assert n == len(enumerate_models(t, 2))
    if name == "Ty3":
        assert n == 33_673


@pytest.mark.parametrize("name, bound, count", [("Mon", 2, 31), ("Ty1", 2, 183), ("El1", 2, 183)])
def test_families_models_are_tuples_of_base_models(name, bound, count):
    # a model of the families theory is a carrier H of some size n <= bound
    # and a model of the base theory over each of its n points; every
    # context there reads H, so its fibres' levels keep their instances
    base = count_models(LIB[name], bound)
    assert count_models(families(LIB[name])[0], bound) == sum(base**n for n in range(bound + 1)) == count


def _magma(decls, names, lhs, rhs, name):
    """A theory over one carrier M: decls, which declare mul, and the
    axiom lhs = rhs over variables of M with the given names."""
    m = App("M")
    ax = term_eq_ax("_1", tuple((x, m) for x in names), lhs, rhs, m)
    return check_theory((type_sym("M"), *decls, ax), name=name)


def _mul(a, b):
    return App("mul", (a, b))


def _medial():
    # mul(mul(x, y), mul(z, w)) = mul(mul(x, z), mul(y, w)): two arguments
    # that wait on cells of mul sit in one application on each side
    x, y, z, w = map(Var, "xyzw")
    mul = term_sym("mul", (("a", App("M")), ("b", App("M"))), App("M"))
    lhs, rhs = _mul(_mul(x, y), _mul(z, w)), _mul(_mul(x, z), _mul(y, w))
    return _magma((mul,), "xyzw", lhs, rhs, "Medial")


def _reversing():
    # f declared before mul and f(mul(x, y)) = mul(f(y), f(x)): the complete
    # table f applied to an argument that waits on a cell of mul
    x, y, m = Var("x"), Var("y"), App("M")
    f = term_sym("f", (("a", m),), m)
    mul = term_sym("mul", (("a", m), ("b", m)), m)
    lhs, rhs = App("f", (_mul(x, y),)), _mul(App("f", (y,)), App("f", (x,)))
    return _magma((f, mul), "xy", lhs, rhs, "Reversing")


def _fibred(fixed: bool):
    # A family P over A with a section k, g : B -> A and h : A x A -> A, then
    # f : A -> A last, under the type equation P(f(e)) = B, which is checked
    # once f is complete: until then an element k(...) read in B can leave g
    # undefined.  Unfixed, f(h(f(f(e)), g(k(f(e))))) = e applies h to two
    # arguments that wait; fixed, f(e) = e and f(h(f(e), g(k(e)))) = e, where
    # g(k(e)), which no cell decides, sits beside an argument that waits.
    a, e = App("A"), App("e")

    def f(t):
        return App("f", (t,))

    def g_k(t):
        return App("g", (App("k", (t,)),))

    decls = (
        type_sym("A"),
        type_sym("B"),
        term_sym("e", (), a),
        type_sym("P", (("x", a),)),
        term_sym("k", (("x", a),), App("P", (Var("x"),))),
        term_sym("g", (("y", App("B")),), a),
        term_sym("h", (("x", a), ("y", a)), a),
        term_sym("f", (("x", a),), a),
    )
    fixed_point = (term_eq_ax("_1", (), f(e), e, a),) if fixed else ()
    side = App("h", (f(e), g_k(e))) if fixed else App("h", (f(f(e)), g_k(f(e))))
    axioms = (
        type_eq_ax("_2", (), App("P", (f(e),)), App("B")),
        term_eq_ax("_3", (), f(side), e, a),
    )
    return check_theory(decls + fixed_point + axioms, name="Fibred")


# (make the theory, bound, search nodes, digest of the models in order),
# by test id
MIXED_PLANS = {
    # two tables filled cell by cell, one after the other
    "Mon+Mon@2": (
        lambda: coproduct(LIB["Mon"], LIB["Mon"]).theory,
        2,
        60,
        "8cbf55b6e81ccb997a288d485037e7a886314d1920dd2cc1f3274fb3d9a2e63c",
    ),
    # a type equation checked whole after a table filled cell by cell
    "MonP-early@3": (
        lambda: _mon_with_family(early=True),
        3,
        10_749,
        "c0906c9f436b585876621542da9634459ad7875d0441726180ca493bfc4e16b0",
    ),
    # an equation checked whole after a table its context reads
    "CatPtC@2": (
        _catpt_c,
        2,
        6_180,
        "7ad61a92d311d875a1503abaafa225bea358e0f72a7103d9f1a83a32522d71c5",
    ),
    # two waiting arguments in one application
    "Medial@2": (
        _medial,
        2,
        34,
        "9ce4b081229921f69e0a52e10ca5c7e66f13aa0b14dcbef51b279fe01d41a5cc",
    ),
    "Medial@3": (
        _medial,
        3,
        4_385,
        "434b7a2c110dfd6a7200415bdfcf8264701725fddab9a1914089187ce1e1b533",
    ),
    # a complete table applied to a waiting argument
    "Reversing@2": (
        _reversing,
        2,
        84,
        "cd3894e820d1a4ed26f76d9038e61c99e341a871406d71b2dcb1ff6275a62b6a",
    ),
    # reads that stay undefined until the table is complete
    "Fibred@2": (
        lambda: _fibred(fixed=False),
        2,
        13_452,
        "834f20daf6b4abea6809482136d31d7698609ae7aaa892bd5fd670bf4500f158",
    ),
    "Fibred-fixed@2": (
        lambda: _fibred(fixed=True),
        2,
        5_379,
        "c9b56c11f509e044e587d647ac6015ad160eca27641fcc479ed92ef8f82b56b3",
    ),
}


@pytest.mark.parametrize("make, bound, nodes, digest", MIXED_PLANS.values(), ids=MIXED_PLANS.keys())
def test_mixed_plans_pin_order_and_nodes(make, bound, nodes, digest):
    t = make()
    assert pinned_digest(t, enumerate_models(t, bound)) == digest
    count_models(t, bound, budget=nodes)
    with pytest.raises(BudgetExceeded, match=f"exceeded {nodes - 1} nodes"):
        count_models(t, bound, budget=nodes - 1)


def whole_table_models(theory, bound: int) -> list[Model]:
    """Independent oracle for the finder's model order: every choice of
    whole tables in declaration order, each table's cells varied together
    in context-instance order with the first cell slowest, kept when
    validate_model accepts the finished model."""
    symbols = [d for d in theory.decls if d.is_symbol]
    out: list[Model] = []

    def extend(i: int, tables: dict) -> None:
        m = Model(theory, tables)
        if i == len(symbols):
            try:
                validate_model(m)
            except ModelError:
                return
            out.append(m)
            return
        d = symbols[i]
        is_type = isinstance(d.kind, IsType)
        try:
            envs = context_instances(m, d.ctx)
            sizes = [bound + 1 if is_type else evaluate(m, env, d.kind.ty) for env in envs]
        except ModelError:  # every completion fails validate_model alike
            return
        keys = [tuple(env.values()) for env in envs]
        for values in itertools.product(*map(range, sizes)):
            extend(i + 1, {**tables, d.name: dict(zip(keys, values))})

    extend(0, {})
    return out


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: LIB["Mon"], 2),
        (lambda: LIB["Cat"], 1),
        (lambda: LIB["CatPt"], 1),
        (lambda: coproduct(LIB["Mon"], LIB["El0"]).theory, 1),
        (_medial, 2),
        (_reversing, 2),
    ],
    ids=["Mon@2", "Cat@1", "CatPt@1", "Mon+El0@1", "Medial@2", "Reversing@2"],
)
def test_model_order_is_the_whole_table_product(make, bound):
    t = make()
    got = [m.key() for m in enumerate_models(t, bound)]
    assert got == [m.key() for m in whole_table_models(t, bound)]
    assert got


def _pointed_magma():
    # e is chosen whole between the carrier and mul, and the unit law
    # mul(e, x) = x reads it: each of e's tables needs its own grounding
    m, x = App("M"), Var("x")
    ax = term_eq_ax("_1", (("x", m),), App("mul", (App("e"), x)), x, m)
    decls = (type_sym("M"), term_sym("e", (), m), term_sym("mul", (("a", m), ("b", m)), m), ax)
    return check_theory(decls, name="PointedMagma")


def _keyed_by_k():
    # f's context and type read k, a table chosen whole after every table
    # the equation f(c, y) = y mentions: under one c, k(0) sizes the fibre
    # T(k(0)), which moves the cells that f(1, y) keys
    a, d, c = App("A"), App("D"), App("c")

    def t_k(t):
        return App("T", (App("k", (t,)),))

    decls = (
        type_sym("A"),
        type_sym("D"),
        term_sym("c", (), a),
        type_sym("T", (("x", a),)),
        term_sym("k", (("x", a),), a),
        type_eq_ax("_1", (), t_k(c), d),
        term_sym("f", (("x", a), ("y", t_k(Var("x")))), t_k(Var("x"))),
        term_eq_ax("_2", (("y", d),), App("f", (c, Var("y"))), Var("y"), d),
    )
    return check_theory(decls, name="KeyedByK")


def _late_carrier():
    # f(f(f(x))) reads f through a lookup list over f(f(x)), which is not a
    # cell, so the list is as long as the largest carrier, which can be C,
    # a carrier nothing in the equation mentions
    m = App("M")

    def f(t):
        return App("f", (t,))

    ax = term_eq_ax("_1", (("x", m),), f(f(f(Var("x")))), Var("x"), m)
    decls = (type_sym("M"), type_sym("C"), term_sym("f", (("a", m),), m), ax)
    return check_theory(decls, name="LateCarrier")


@pytest.mark.parametrize(
    "make, reads",
    [
        (_pointed_magma, ("M", "e")),
        (_keyed_by_k, ("A", "D", "c", "T", "k")),
        (_late_carrier, ("M", "C")),
    ],
    ids=["table-between", "symbol-context-and-type", "carrier-unmentioned"],
)
def test_groundings_kept_across_fills_match_the_whole_table_product(make, reads):
    # a grounding is kept while the tables it read stay the same objects.
    # In the first two theories a table changes under one assignment of
    # the others, and a grounding kept across it would misread the table;
    # in the third, C only lengthens lookup lists, past any value they are
    # read at, so only the reads pin that C is in the slot's key
    t = make()
    assert [eq.watch.reads for _, watched, _ in t._program for eq in watched] == [reads]
    for bound in (1, 2):
        got = [m.key() for m in enumerate_models(t, bound)]
        assert got == [m.key() for m in whole_table_models(t, bound)]


def instance_builds(theory, bound: int) -> collections.Counter:
    """How often one search builds context instances, by name: each plan
    level's (its symbol's), and each watched equation's, built when it is
    grounded; counted as the calls of their instances from a copy of the
    theory's program."""
    t = replace(theory)  # a new object, whose program is compiled afresh
    seen: collections.Counter = collections.Counter()

    def counted(c):
        def instances(tables, instances=c.instances, name=c.decl.name):
            seen[name] += 1
            return instances(tables)

        return c._replace(instances=instances)

    t.__dict__["_program"] = [
        (counted(sym), [counted(eq) for eq in watched], after) for sym, watched, after in t._program
    ]
    count_models(t, bound)
    return seen


def groundings(theory, bound: int) -> dict[str, int]:
    """How often the search grounds each watched equation."""
    watched = {eq.decl.name for _, eqs, _ in theory._program for eq in eqs}
    return {name: n for name, n in instance_builds(theory, bound).items() if name in watched}


def level_builds(theory, bound: int) -> dict[str, int]:
    """How often the search builds each plan level's context instances."""
    builds = instance_builds(theory, bound)
    return {c.decl.name: builds[c.decl.name] for c, _, _ in theory._program}


@pytest.mark.parametrize(
    "name, bound, counts",
    # grounded once per fill before: 85 fills of comp for Cat at bound 2,
    # from 39 assignments of Ob and Hom, and 6 fills of mul for Mon at 3,
    # from 3 of Mon; the unit laws read id or u, chosen whole per fill
    [("Cat", 2, {"_1": 85, "_2": 85, "_3": 39}), ("Mon", 3, {"_1": 6, "_2": 6, "_3": 3})],
)
def test_each_grounding_is_kept_for_the_fills_under_one_assignment(name, bound, counts):
    assert groundings(LIB[name], bound) == counts


def _points(*axioms):
    # a carrier A with points a and b, then f : A -> A and axioms, each
    # (context, lhs, rhs) over A, that mention f, so f watches them
    a = App("A")
    decls = (
        type_sym("A"),
        term_sym("a", (), a),
        term_sym("b", (), a),
        term_sym("f", (("x", a),), a),
    )
    laws = tuple(term_eq_ax(f"_{i}", *ax, a) for i, ax in enumerate(axioms, 1))
    return check_theory(decls + laws, name="Points")


def _f(t):
    return App("f", (t,))


def _constantly(point: str):
    # f(x) = point over x : A, which fixes every cell of f
    return (("x", App("A")),), _f(Var("x")), App(point)


def _late_fibre():
    # f(t) = c : B(t) holds by t = k and B(k) = C, both checked once k, after
    # f, is chosen: while f is filled, c can lie past the fibre B(t)
    a, c, t, k = App("A"), App("C"), App("t"), App("k")
    decls = (
        type_sym("A"),
        type_sym("B", (("x", a),)),
        type_sym("C"),
        term_sym("c", (), c),
        term_sym("t", (), a),
        term_sym("f", (("x", a),), App("B", (Var("x"),))),
        term_sym("k", (), a),
        term_eq_ax("_1", (), t, k, a),
        type_eq_ax("_2", (), App("B", (k,)), c),
        term_eq_ax("_3", (), _f(t), App("c"), App("B", (t,))),
    )
    return check_theory(decls, name="LateFibre")


# The nodes of a Points theory at bound 2: the carrier A takes 3, a and b
# 1 + 1 at |A| = 1 and 2 + 4 at |A| = 2, and f one per value tried at a
# cell that no instance fixes.
@pytest.mark.parametrize(
    "make, bound, count, nodes",
    [
        # f(x) = a and f(x) = b fix each cell twice: a fill with a != b is
        # empty, one with a = b fixes every cell
        (lambda: _points(_constantly("a"), _constantly("b")), 2, 3, 11),
        # f(x) = a fixes every cell, then f(f(b)) = b reads only fixed
        # cells and fails at the start of the fill when a != b
        (lambda: _points(_constantly("a"), ((), _f(_f(App("b"))), App("b"))), 2, 3, 11),
        # f(a) = b and f(b) = a, two watched equations, fix two cells when
        # a != b; when a = b they fix one cell, and f tries 2 values at the other
        (
            lambda: _points(((), _f(App("a")), App("b")), ((), _f(App("b")), App("a"))),
            2,
            7,
            15,
        ),
        # c past the fibre B(t) empties the fill; a fill that went on
        # would cost nodes until B(k) = C failed
        (_late_fibre, 1, 1, 16),
        (_late_fibre, 2, 21, 187),
    ],
    ids=[
        "conflict",
        "fixed-instance-fails",
        "two-equations-fix",
        "past-the-size@1",
        "past-the-size@2",
    ],
)
def test_fixed_cells_match_the_whole_table_product(make, bound, count, nodes):
    t = make()
    ms = enumerate_models(t, bound)
    assert [m.key() for m in ms] == [m.key() for m in whole_table_models(t, bound)]
    assert len(ms) == count
    for m in ms:
        validate_model(m)
    count_models(t, bound, budget=nodes)
    with pytest.raises(BudgetExceeded, match=f"exceeded {nodes - 1} nodes"):
        count_models(t, bound, budget=nodes - 1)


def test_fixed_cells_are_kept_with_a_grounding_reused_across_fills():
    # g, chosen whole between a and f, is read by no equation, so the fills
    # of f under one a reuse one grounding of f(a, y) = y, which fixes the
    # cells f(a, 0) and f(a, 1): 3 groundings for 5 fills.  Each fill at
    # |A| = 2 tries 2 + 4 values at the other two cells: 3 + (1 + 1) +
    # (2 + 4 + 4 * 6) = 35 nodes
    a = App("A")
    f = term_sym("f", (("x", a), ("y", a)), a)
    law = term_eq_ax("_1", (("y", a),), App("f", (App("a"), Var("y"))), Var("y"), a)
    decls = (type_sym("A"), term_sym("a", (), a), term_sym("g", (), a), f, law)
    t = check_theory(decls, name="UnitUnderG")
    assert groundings(t, 2) == {"_1": 3}
    ms = enumerate_models(t, 2)
    assert [m.key() for m in ms] == [m.key() for m in whole_table_models(t, 2)]
    assert len(ms) == 1 + 4 * 4
    for m in ms:
        validate_model(m)
    count_models(t, 2, budget=35)
    with pytest.raises(BudgetExceeded, match="exceeded 34 nodes"):
        count_models(t, 2, budget=34)


def test_models_have_no_instance_dict_and_pickle():
    ms = enumerate_models(LIB["Mon"], 2)
    assert not hasattr(ms[0], "__dict__")
    with pytest.raises(AttributeError):
        ms[0].extra = 1
    back = pickle.loads(pickle.dumps(ms))
    assert back == ms and [m.key() for m in back] == [m.key() for m in ms]


def _nests(theory) -> bool:
    """Whether an argument of an application in a watched equation applies
    the symbol the equation is watched on: a read through a lookup list."""
    return any(
        a.__class__ is App and any(t.head == c.decl.name for t, _ in walk(a, App))
        for c, watched, _ in theory._program
        for eq in watched
        for side in (eq.decl.kind.lhs, eq.decl.kind.rhs)
        for app, _ in walk(side, App)
        for a in app.args
    )


def _fixes(theory) -> bool:
    """Whether a watched equation reads a cell of its symbol directly on
    one side and no cell on the other, so each of its instances fixes a
    cell to an element."""

    def mentions(e, name):
        return any(t.head == name for t, _ in walk(e, App))

    return any(
        any(
            a.__class__ is App and a.head == c.decl.name
            and not any(mentions(x, c.decl.name) for x in a.args)
            and not mentions(b, c.decl.name)
            for a, b in ((eq.decl.kind.lhs, eq.decl.kind.rhs), (eq.decl.kind.rhs, eq.decl.kind.lhs))
        )
        for c, watched, _ in theory._program
        for eq in watched
    )


def test_random_theories_at_bound_two_come_out_in_whole_table_order():
    # at bound 1 every nested read has one possible value; at bound 2 a
    # lookup list has two entries, so a wrong one changes the models.  The
    # theories of the second stream each have a unit law, whose instances
    # fix cells.
    checked = nested = fixing = 0
    for rng, first, units in ((random.Random(2024), 900, False), (random.Random(2025), 960, True)):
        for tag in range(first, first + (40 if units else 60)):
            t = random_flat_theory(rng, tag, units=units)
            # keep the whole-table oracle to a few seconds in all
            if sum(2 ** len(d.ctx) for d in t.decls if isinstance(d.kind, HasType)) > 12:
                continue
            ms = enumerate_models(t, 2)
            assert [m.key() for m in ms] == [m.key() for m in whole_table_models(t, 2)], t.name
            for m in ms:
                validate_model(m)
            checked += 1
            nested += _nests(t)
            fixing += _fixes(t)
    assert checked >= 70 and nested >= 8 and fixing >= 20, (checked, nested, fixing)


class _LeafError(Exception):
    pass


def _raise_at(n: int):
    """A search leaf that raises _LeafError at the n-th model (from 0)."""
    seen = itertools.count()

    def leaf(_):
        if next(seen) == n:
            raise _LeafError

    return leaf


def _cyclic_garbage(search) -> int:
    """What gc.collect() frees after search runs with the collector off."""
    gc.collect()
    gc.disable()
    try:
        try:
            search()
        except (BudgetExceeded, _LeafError):
            pass
        return gc.collect()
    finally:
        gc.enable()


# Every exit of a search: a complete one, the budget running out in each
# kind of level, and a leaf that raises inside a watched fill, also while
# a slot holds a grounding that later fills reuse, or a level's context
# instances that later visits of the level reuse (El2's e2, El1's e1).
SEARCH_EXITS = {
    "count": lambda: count_models(LIB["Mon"], 2),
    "enumerate": lambda: enumerate_models(LIB["Mon"], 2),
    "enumerate-Ty3": lambda: enumerate_models(LIB["Ty3"], 2),
    "count-Cat": lambda: count_models(LIB["Cat"], 2),
    "budget-in-fill": lambda: count_models(LIB["Cat"], 2, budget=500),
    "budget-in-product": lambda: count_models(LIB["Ty1"], 2, budget=3),
    "leaf-raises": lambda: _search(LIB["Cat"], 2, 2_000_000, _raise_at(100)),
    "enumerate-Medial": lambda: enumerate_models(_medial(), 3),
    "budget-in-fill-Medial": lambda: count_models(_medial(), 3, budget=500),
    "leaf-raises-Medial": lambda: _search(_medial(), 3, 2_000_000, _raise_at(100)),
    "enumerate-Reversing": lambda: enumerate_models(_reversing(), 2),
    "budget-in-fill-Reversing": lambda: count_models(_reversing(), 2, budget=40),
    "leaf-raises-Reversing": lambda: _search(_reversing(), 2, 2_000_000, _raise_at(10)),
    "budget-with-slots-Mon": lambda: count_models(LIB["Mon"], 3, budget=200),
    "leaf-raises-with-slots-Mon": lambda: _search(LIB["Mon"], 3, 2_000_000, _raise_at(20)),
    "budget-with-slots-Fibred": lambda: count_models(_fibred(fixed=False), 2, budget=5_000),
    "leaf-raises-with-slots-Fibred": lambda: _search(_fibred(fixed=False), 2, 2_000_000, _raise_at(5)),
    "enumerate-El2": lambda: enumerate_models(LIB["El2"], 2),
    "budget-in-kept-level-El2": lambda: count_models(LIB["El2"], 2, budget=200),
    "leaf-raises-in-kept-level-El1": lambda: _search(LIB["El1"], 3, 2_000_000, _raise_at(100)),
}


@pytest.mark.parametrize("search", SEARCH_EXITS.values(), ids=SEARCH_EXITS.keys())
def test_search_leaves_no_cyclic_garbage(search):
    # the collector is paused during a search, which is sound only while
    # a search makes no reference cycles
    assert _cyclic_garbage(search) == 0


def test_search_runs_with_the_collector_paused():
    assert gc.isenabled()
    seen = []
    _search(LIB["Mon"], 3, 2_000_000, lambda _: seen.append(gc.isenabled()))
    assert len(seen) == 38 and not any(seen)


@pytest.mark.parametrize("search", SEARCH_EXITS.values(), ids=SEARCH_EXITS.keys())
def test_search_restores_the_collector_on_every_exit(search):
    assert gc.isenabled()
    try:
        search()
    except (BudgetExceeded, _LeafError):
        pass
    assert gc.isenabled()


def test_search_leaves_a_paused_collector_paused():
    gc.disable()
    try:
        assert count_models(LIB["Mon"], 2) == 5
        with pytest.raises(BudgetExceeded):
            count_models(LIB["Cat"], 2, budget=500)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_budget_bounds_memory_of_a_huge_carrier_bound():
    mon = LIB["Mon"]
    mon._program  # compiled outside the measured search
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            count_models(mon, 10**6, budget=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_first_model_of_a_huge_carrier_bound_takes_little_memory():
    # the carrier range is walked lazily, so the default budget leaves a
    # million sizes unbuilt until the search reaches them
    mon = LIB["Mon"]
    mon._program  # compiled outside the measured search
    tracemalloc.start()
    try:
        with pytest.raises(_LeafError):
            _search(mon, 10**6, 2_000_000, _raise_at(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def search_nodes(theory, bound: int) -> int:
    """The search's node count: the least budget it completes within."""
    low, high = 0, 2_000_000
    while low < high:
        mid = (low + high) // 2
        try:
            count_models(theory, bound, budget=mid)
            high = mid
        except BudgetExceeded:
            low = mid + 1
    return low


if __name__ == "__main__":
    # The work of each pinned search (budget boundary and mixed plans), to
    # re-pin deliberately after a change to the finder: its node count and
    # how often it builds each level's context instances.
    pinned = [(f"{n}@{b}", lambda n=n: LIB[n], b) for n, b, _ in BOUNDARY]
    pinned += [(label, make, b) for label, (make, b, _, _) in MIXED_PLANS.items()]
    for label, make, bound in pinned:
        t = make()
        builds = " ".join(f"{k}={v}" for k, v in level_builds(t, bound).items())
        print(f"{label}: {search_nodes(t, bound)} nodes; instances built {builds}")
