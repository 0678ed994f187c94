import random

import pytest

from conftest import MONOID_SIG, random_expr
from gatc import poly
from gatc.deriv import (
    AxiomStep,
    BASE,
    CtxOk,
    Fuel,
    HasType,
    IsType,
    Judgment,
    TermEq,
    TypeEq,
    WITH_PI,
    check_context,
    check_judgment,
    eq_check,
    infer_type,
    presupposed,
    replay_eq_trace,
)
from gatc.errors import (
    ArgumentTypeMismatch,
    ArityMismatch,
    InconclusiveEquality,
    NotAType,
    NotATerm,
    ScopeError,
    UnknownSymbol,
)
from gatc.expr import App, Var, hypothesize, substitute
from gatc.gatcat import corpus_interpretations, mon_to_catpt, mon_to_catpt_variant
from gatc.theory import check_theory, stdlib, term_eq_ax, term_sym, type_sym

OB = App("Ob")
MON = App("Mon")


def hom(a, b):
    return App("Hom", (a, b))


def test_empty_context_ok():
    check_context(stdlib()["Mon"], ())


def test_category_context_ok():
    ctx = (("x1", OB), ("x2", OB), ("y", hom(Var("x1"), Var("x2"))))
    check_context(stdlib()["Cat"], ctx)


def test_unbound_variable_scope_error():
    with pytest.raises(ScopeError):
        check_context(stdlib()["Cat"], (("y", hom(Var("x1"), Var("x2"))),))
    # the first unbound variable is reported, before any dangling index
    from gatc.expr import BVar

    for ty, message in [
        (Var("x"), "variable 'x' is not bound by the context"),
        (hom(Var("z"), Var("y")), "variable 'z' is not bound by the context"),
        (hom(BVar(0), Var("y")), "variable 'y' is not bound by the context"),
        (BVar(0), "expression has a dangling bound-variable index"),
    ]:
        with pytest.raises(ScopeError, match=f"^{message}$"):
            check_judgment(stdlib()["Cat"], Judgment((), IsType(ty)))


def test_infer_identity_morphism():
    t = infer_type(stdlib()["Cat"], (("x", OB),), App("id", (Var("x"),)))
    assert t == hom(Var("x"), Var("x"))


def test_infer_generic_element():
    assert infer_type(stdlib()["El0"], (), App("e0")) == App("A0")


def test_infer_composite_matches_hand_substitution():
    # oracle: instantiate the declared result type by hand
    cat = stdlib()["Cat"]
    ctx = (("x1", OB), ("x2", OB), ("f", hom(Var("x1"), Var("x2"))))
    term = App("comp", (Var("x1"), Var("x1"), Var("x2"), App("id", (Var("x1"),)), Var("f")))
    decl = cat.decl("comp")
    by_hand = substitute(decl.kind.ty, dict(zip(decl.arity, term.args)))
    assert by_hand == hom(Var("x1"), Var("x2"))
    assert infer_type(cat, ctx, term) == by_hand


def test_infer_errors():
    cat = stdlib()["Cat"]
    with pytest.raises(UnknownSymbol):
        infer_type(cat, (), App("nope"))
    with pytest.raises(ArityMismatch):
        infer_type(cat, (("x", OB),), App("id", ()))
    with pytest.raises(NotATerm):
        infer_type(cat, (), App("Ob"))
    with pytest.raises(NotAType):
        check_context(cat, (("x1", OB), ("x2", App("id", (Var("x1"),)))))
    with pytest.raises(ArgumentTypeMismatch):
        infer_type(cat, (("x", OB),), App("id", (App("id", (Var("x"),)),)))


def test_judgment_identity_typing():
    j = Judgment((("x", OB),), HasType(App("id", (Var("x"),)), hom(Var("x"), Var("x"))))
    assert check_judgment(stdlib()["Cat"], j).ok


def test_judgment_left_unit():
    j = Judgment((("y", MON),), TermEq(App("mul", (App("u"), Var("y"))), Var("y"), MON))
    assert check_judgment(stdlib()["Mon"], j).ok


def test_judgment_unit_square():
    j = Judgment((), TermEq(App("u"), App("mul", (App("u"), App("u"))), MON))
    r = check_judgment(stdlib()["Mon"], j)
    assert r.ok
    # closed by a single instance of the left-unit axiom; the trace replays
    verdict = r.eq_traces[-1]
    assert verdict.axiom_instances() == 1
    assert replay_eq_trace(stdlib()["Mon"], App("u"), App("mul", (App("u"), App("u"))), verdict.steps)


def test_judgment_infers_an_omitted_term_equation_type():
    mon = stdlib()["Mon"]
    uu = App("mul", (App("u"), App("u")))
    r = check_judgment(mon, Judgment((), TermEq(App("u"), uu, None)))
    assert r.ok and r.eq_traces[-1].proved
    assert presupposed(mon, (), TermEq(App("u"), uu)) == TermEq(App("u"), uu, MON)
    stmt = TermEq(App("u"), uu, MON)
    assert presupposed(mon, (), stmt) is stmt


def test_term_equation_type_is_scope_checked():
    j = Judgment((), TermEq(App("u"), App("u"), App("P", (Var("z"),))))
    with pytest.raises(ScopeError, match="variable 'z' is not bound by the context"):
        check_judgment(stdlib()["Mon"], j)


@pytest.mark.parametrize("name", sorted(stdlib()))
def test_every_declaration_judgment_derives_in_its_theory(name):
    t = stdlib()[name]
    rules = WITH_PI if t.pi else BASE
    for i, d in enumerate(t.decls):
        stmt = d.judgment()
        assert presupposed(t.prefix(i), d.ctx, stmt, rules) == t.decls[i].judgment()
        r = check_judgment(t, Judgment(d.ctx, stmt), rules)
        assert r.ok, (d.name, r.detail)


def test_judgment_ctx_statement():
    assert check_judgment(stdlib()["Cat"], Judgment((("x", OB),), CtxOk())).ok


def test_judgment_type_forms():
    cat = stdlib()["Cat"]
    assert check_judgment(cat, Judgment((("x", OB),), IsType(hom(Var("x"), Var("x"))))).ok
    assert check_judgment(cat, Judgment((), TypeEq(OB, OB))).ok


def test_eq_reflexivity():
    v = eq_check(stdlib()["Mon"], (("y", MON),), Var("y"), Var("y"))
    assert v.proved and v.steps == ()


def test_eq_left_unit_with_replayable_trace():
    mon = stdlib()["Mon"]
    lhs = App("mul", (App("u"), Var("y")))
    v = eq_check(mon, (("y", MON),), lhs, Var("y"))
    assert v.proved
    assert replay_eq_trace(mon, lhs, Var("y"), v.steps)


def test_eq_associativity_single_instance():
    mon = stdlib()["Mon"]
    ctx = (("a", MON), ("b", MON), ("c", MON))
    lhs = App("mul", (App("mul", (Var("a"), Var("b"))), Var("c")))
    rhs = App("mul", (Var("a"), App("mul", (Var("b"), Var("c")))))
    v = eq_check(mon, ctx, lhs, rhs)
    assert v.proved
    assert v.axiom_instances() == 1
    assert replay_eq_trace(mon, lhs, rhs, v.steps)


def test_eq_congruence_through_arguments():
    mon = stdlib()["Mon"]
    ctx = (("a", MON), ("b", MON))
    lhs = App("mul", (App("mul", (App("u"), Var("a"))), Var("b")))
    rhs = App("mul", (Var("a"), Var("b")))
    v = eq_check(mon, ctx, lhs, rhs)
    assert v.proved
    assert replay_eq_trace(mon, lhs, rhs, v.steps)


def test_eq_inconclusive_never_claims_disequality():
    mon = stdlib()["Mon"]
    ctx = (("a", MON), ("b", MON))
    v = eq_check(mon, ctx, App("mul", (Var("a"), Var("b"))), App("mul", (Var("b"), Var("a"))))
    assert not v.proved
    assert v.reason in ("fuel", "closed")


def test_eq_determinism():
    mon = stdlib()["Mon"]
    ctx = (("a", MON), ("b", MON), ("c", MON))
    lhs = App("mul", (App("mul", (Var("a"), App("u"))), Var("c")))
    rhs = App("mul", (Var("a"), Var("c")))
    v1 = eq_check(mon, ctx, lhs, rhs)
    v2 = eq_check(mon, ctx, lhs, rhs)
    assert v1 == v2


def test_eq_fuel_monotonicity_randomized():
    mon = stdlib()["Mon"]
    rng = random.Random(31)
    ctx = (("a", MON), ("b", MON))
    small = Fuel(60, 2)
    big = Fuel(600, 8)
    for _ in range(120):
        lhs = random_expr(rng, MONOID_SIG, ["a", "b"], 3)
        rhs = random_expr(rng, MONOID_SIG, ["a", "b"], 3)
        v_small = eq_check(mon, ctx, lhs, rhs, BASE, small)
        if v_small.proved:
            assert eq_check(mon, ctx, lhs, rhs, BASE, big).proved


def test_eq_node_fuel_exhaustion_reported():
    mon = stdlib()["Mon"]
    lhs = App("mul", (App("u"), Var("y")))
    v = eq_check(mon, (("y", MON),), lhs, Var("y"), BASE, Fuel(2, 8))
    assert not v.proved
    assert v.reason == "fuel"


def test_eq_sees_through_earlier_merges():
    # g(d) = e needs the first axiom's merge before the second can fire:
    # matching goes through class representatives, not raw syntax
    from gatc.theory import check_theory, term_eq_ax, term_sym, type_sym

    s = App("S")
    t = check_theory(
        [
            type_sym("S"),
            term_sym("c", (), s),
            term_sym("d", (), s),
            term_sym("e", (), s),
            term_sym("f", (("x", s),), s),
            term_sym("g", (("x", s),), s),
            term_eq_ax("a1", (), App("f", (App("c"),)), App("d"), s),
            term_eq_ax("a2", (), App("g", (App("f", (App("c"),)),)), App("e"), s),
        ]
    )
    lhs, rhs = App("g", (App("d"),)), App("e")
    v = eq_check(t, (), lhs, rhs)
    assert v.proved
    assert v.axiom_instances() == 2
    assert replay_eq_trace(t, lhs, rhs, v.steps)


def test_tampered_trace_rejected():
    mon = stdlib()["Mon"]
    lhs = App("mul", (App("u"), Var("y")))
    v = eq_check(mon, (("y", MON),), lhs, Var("y"))
    bad = []
    for s in v.steps:
        if isinstance(s, AxiomStep):
            bad.append(AxiomStep(s.label, s.subst, s.lhs, App("u")))
        else:
            bad.append(s)
    assert not replay_eq_trace(mon, lhs, Var("y"), tuple(bad))


def test_beta_eta_need_pi_rules():
    mon = stdlib()["Mon"]
    lhs = App("mul", (App("u"), Var("y")))
    v = eq_check(mon, (("y", MON),), lhs, Var("y"))
    assert replay_eq_trace(mon, lhs, Var("y"), v.steps, BASE)


def test_replay_rejects_a_partial_axiom_substitution():
    mon = stdlib()["Mon"]
    a, b, y3 = Var("a"), Var("b"), Var("y3")
    lhs = App("mul", (App("mul", (a, b)), y3))
    rhs = App("mul", (a, App("mul", (b, y3))))
    full = (("y1", a), ("y2", b), ("y3", y3))
    assert replay_eq_trace(mon, lhs, rhs, (AxiomStep("_3", full, lhs, rhs),))
    # leaving y3 unsubstituted gives the same sides, but is no instance
    assert not replay_eq_trace(mon, lhs, rhs, (AxiomStep("_3", full[:2], lhs, rhs),))
    extra = full + (("z", a),)
    assert not replay_eq_trace(mon, lhs, rhs, (AxiomStep("_3", extra, lhs, rhs),))


def test_axiom_with_an_unbound_context_variable_is_not_instantiated():
    # ab's context variable x : E occurs in neither side; with no term of
    # E to substitute, a = b does not follow in the empty context
    t = check_theory(
        [
            type_sym("E"),
            type_sym("A"),
            term_sym("a", (), App("A")),
            term_sym("b", (), App("A")),
            term_eq_ax("ab", (("x", App("E")),), App("a"), App("b"), App("A")),
        ],
        name="T",
    )
    v = eq_check(t, (), App("a"), App("b"))
    assert not v.proved and v.reason == "closed"
    assert not replay_eq_trace(t, App("a"), App("b"), (AxiomStep("ab", (), App("a"), App("b")),))
    # with a variable of E in the goal context it still does not follow
    # from matching: the engine has no side that binds x
    assert not eq_check(t, (("e", App("E")),), App("a"), App("b")).proved
    step = AxiomStep("ab", (("x", Var("e")),), App("a"), App("b"))
    assert replay_eq_trace(t, App("a"), App("b"), (step,))


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 15): the replay does not type an axiom step's substitution",
)
def test_replay_rejects_an_ill_typed_axiom_substitution():
    # a0 : A stands for x : E in both steps; d = e does not follow, and
    # some models of the theory separate d and e
    x, a0 = Var("x"), App("a0")
    t = check_theory(
        [
            type_sym("E"),
            type_sym("A"),
            term_sym("h", (("x", App("E")),), App("A")),
            term_sym("d", (), App("A")),
            term_sym("e", (), App("A")),
            term_sym("a0", (), App("A")),
            term_eq_ax("ax1", (("x", App("E")),), App("h", (x,)), App("d"), App("A")),
            term_eq_ax("ax2", (("x", App("E")),), App("h", (x,)), App("e"), App("A")),
        ],
        name="T",
    )
    v = eq_check(t, (), App("d"), App("e"))
    assert not v.proved and v.reason == "closed"
    forged = (
        AxiomStep("ax1", (("x", a0),), App("h", (a0,)), App("d")),
        AxiomStep("ax2", (("x", a0),), App("h", (a0,)), App("e")),
    )
    assert not replay_eq_trace(t, App("d"), App("e"), forged)


def test_replay_rechecks_congruence_beta_and_eta_steps():
    from gatc.deriv import BetaStep, CongStep, EtaStep
    from gatc.expr import Ap, BVar, Lam, mk_lam

    mon, stlc = stdlib()["Mon"], stdlib()["STLC"]
    y, u = Var("y"), App("u")
    yy = App("mul", (y, y))
    for other in (App("f", (y, y)), Ap(y, y), App("mul", (y, u))):
        # a different head, an application of another kind, unmerged children
        assert not replay_eq_trace(mon, yy, other, (CongStep(yy, other),))
    a, f, g, z = App("A"), Var("f"), Var("g"), Var("z")
    redex = Ap(mk_lam("x", a, Ap(f, Var("x"))), z)
    assert replay_eq_trace(stlc, redex, Ap(f, z), (BetaStep(redex, Ap(f, z)),), WITH_PI)
    assert not replay_eq_trace(stlc, redex, Ap(f, f), (BetaStep(redex, Ap(f, f)),), WITH_PI)
    # lam x. (g @ y') @ x under a binder y': reducing shifts y' from index 1 to 0
    expanded = Lam(a, Ap(Ap(g, BVar(1)), BVar(0)))
    assert replay_eq_trace(stlc, expanded, Ap(g, BVar(0)), (EtaStep(expanded, Ap(g, BVar(0))),), WITH_PI)
    for wrong in (Ap(g, BVar(1)), g):
        assert not replay_eq_trace(stlc, expanded, wrong, (EtaStep(expanded, wrong),), WITH_PI)
    not_eta = mk_lam("x", a, Ap(Var("x"), Var("x")))
    assert not replay_eq_trace(stlc, not_eta, f, (EtaStep(not_eta, f),), WITH_PI)


def _mul(a, b):
    return App("mul", (a, b))


def test_trace_leaves_out_axiom_instances_the_proof_does_not_use(monkeypatch):
    # a pinned Mon unit goal: the search fires four axiom instances, the
    # proof on the forest path between the sides needs two of them
    from gatc import deriv

    fired = []
    instance = deriv._EGraph.instance
    monkeypatch.setattr(deriv._EGraph, "instance", lambda g, label, *rest: fired.append(label) or instance(g, label, *rest))
    mon = stdlib()["Mon"]
    m0, m1, m2 = Var("m0"), Var("m1"), Var("m2")
    lhs = _mul(_mul(App("u"), m0), _mul(m1, m2))
    rhs = _mul(_mul(m0, m1), m2)
    v = eq_check(mon, tuple((m.name, MON) for m in (m0, m1, m2)), lhs, rhs)
    assert v.proved and replay_eq_trace(mon, lhs, rhs, v.steps)
    assert len(fired) == 4
    assert v.axiom_instances() == 2 and len(v.steps) == 3


def test_pi_proof_needs_a_beta_and_then_an_eta_step():
    from gatc.deriv import BetaStep, EtaStep
    from gatc.expr import Ap, mk_lam

    stlc = stdlib()["STLC"]
    el_a, f = App("El", (Var("a"),)), Var("f")
    eta_f = mk_lam("w", el_a, Ap(f, Var("w")))
    lhs = Ap(mk_lam("z", el_a, eta_f), Var("x"))  # (lam z. lam w. f @ w) @ x
    v = eq_check(stlc, (), lhs, f, WITH_PI)
    assert v.steps == (BetaStep(lhs, eta_f), EtaStep(eta_f, f))
    assert replay_eq_trace(stlc, lhs, f, v.steps, WITH_PI)


def test_congruence_whose_children_were_joined_by_several_steps():
    # m0 = mul(u, mul(u, m0)) takes a unit step and a congruence, and the
    # goal's congruence needs both of them before it
    from gatc.deriv import CongStep

    mon = stdlib()["Mon"]
    m0, m1, u = Var("m0"), Var("m1"), App("u")
    um0, uum0 = _mul(u, m0), _mul(u, _mul(u, m0))
    lhs, rhs = _mul(uum0, m1), _mul(m0, m1)
    v = eq_check(mon, (("m0", MON), ("m1", MON)), lhs, rhs)
    assert v.steps == (AxiomStep("_1", (("y", m0),), um0, m0), CongStep(um0, uum0), CongStep(rhs, lhs))
    assert replay_eq_trace(mon, lhs, rhs, v.steps)
    for k in (0, 1):
        assert not replay_eq_trace(mon, lhs, rhs, v.steps[:k] + v.steps[k + 1 :])


def test_inconclusive_verdict_has_no_steps():
    mon = stdlib()["Mon"]
    v = eq_check(mon, (("a", MON), ("b", MON)), _mul(Var("a"), Var("b")), _mul(Var("b"), Var("a")))
    assert not v.proved and v.steps == () and v.axiom_instances() == 0


def test_binder_side_matches_heads_under_the_binder():
    # STLC's axiom abs(a, b, lam (x : El(a)) app(a, b, f, x)) = f has a side
    # with a binder, matched structurally: another head under it must not match
    from gatc.expr import mk_lam

    stlc = stdlib()["STLC"]
    a, b, f = Var("a"), Var("b"), Var("f")
    ctx = (("a", App("Ty")), ("b", App("Ty")), ("f", App("El", (App("Fun", (a, b)),))))

    def expanded(head):
        return App("abs", (a, b, mk_lam("x", App("El", (a,)), App(head, (a, b, f, Var("x"))))))

    v = eq_check(stlc, ctx, expanded("app"), f, WITH_PI)
    assert v.proved and replay_eq_trace(stlc, expanded("app"), f, v.steps, WITH_PI)
    assert not eq_check(stlc, ctx, expanded("app2"), f, WITH_PI).proved


# -- stability meta-properties over the corpus ------------------------------


def corpus_judgments():
    out = []
    out.append((stdlib()["Mon"], Judgment((("y", MON),), TermEq(App("mul", (App("u"), Var("y"))), Var("y"), MON))))
    out.append((stdlib()["Cat"], Judgment((("x", OB),), HasType(App("id", (Var("x"),)), hom(Var("x"), Var("x"))))))
    out.append((stdlib()["El0"], Judgment((), HasType(App("e0"), App("A0")))))
    out.append((stdlib()["Cat"], Judgment((("x1", OB), ("x2", OB)), IsType(hom(Var("x1"), Var("x2"))))))
    return out


def test_stability_under_hypothesizing():
    # a checked judgment stays derivable in the families theory with the
    # index variable prefixed to its context
    for t, j in corpus_judgments():
        assert check_judgment(t, j).ok
        p = poly.poly_apply(t)
        syms = {d.name for d in t.symbols()}
        hv = "h0"
        ctx2 = ((hv, App(p.reserved)),) + tuple((x, hypothesize(ty, hv, syms)) for x, ty in j.ctx)
        stmt = j.stmt
        if isinstance(stmt, HasType):
            stmt2 = HasType(hypothesize(stmt.term, hv, syms), hypothesize(stmt.ty, hv, syms))
        elif isinstance(stmt, IsType):
            stmt2 = IsType(hypothesize(stmt.ty, hv, syms))
        elif isinstance(stmt, TermEq):
            stmt2 = TermEq(
                hypothesize(stmt.lhs, hv, syms),
                hypothesize(stmt.rhs, hv, syms),
                hypothesize(stmt.ty, hv, syms),
            )
        else:
            stmt2 = stmt
        assert check_judgment(p.theory, Judgment(ctx2, stmt2)).ok


def test_stability_under_interpretation():
    # translated judgments stay derivable along every corpus interpretation
    interps = corpus_interpretations()
    cases = [
        (interps["MonToCatPt"], corpus_judgments()[0][1]),
        (interps["Ty0ToMon"], Judgment((), IsType(App("A0")))),
        (interps["CatToCatPt"], corpus_judgments()[1][1]),
    ]
    for i, j in cases:
        ctx2 = i.apply_ctx(j.ctx)
        stmt = j.stmt
        if isinstance(stmt, HasType):
            stmt2 = HasType(i.apply(stmt.term), i.apply(stmt.ty))
        elif isinstance(stmt, IsType):
            stmt2 = IsType(i.apply(stmt.ty))
        else:
            stmt2 = TermEq(i.apply(stmt.lhs), i.apply(stmt.rhs), i.apply(stmt.ty))
        assert check_judgment(i.dst, Judgment(ctx2, stmt2)).ok


def test_equal_translations_under_equivalent_interpretations():
    # equivalent interpretations send any checked term to provably equal
    # translations
    i1, i2 = mon_to_catpt(), mon_to_catpt_variant()
    terms = [
        App("u"),
        App("mul", (App("u"), Var("y"))),
        App("mul", (Var("y"), App("mul", (App("u"), App("u"))))),
    ]
    ctx = (("y", MON),)
    ctx2 = i1.apply_ctx(ctx)
    for e in terms:
        v = eq_check(i1.dst, ctx2, i1.apply(e), i2.apply(e))
        assert v.proved


def test_pi_rules_application_and_lambda():
    stlc = stdlib()["STLC"]
    ctx = (("a", App("Ty")), ("b", App("Ty")), ("f", App("El", (App("Fun", (Var("a"), Var("b"))),))), ("x", App("El", (Var("a"),))))
    t = infer_type(stlc, ctx, App("app", (Var("a"), Var("b"), Var("f"), Var("x"))), WITH_PI)
    assert t == App("El", (Var("b"),))


def test_eq_beta_axiom_interplay():
    # the computation axiom fires once; its instance involves an
    # object-level application
    from gatc.expr import Ap, mk_pi

    stlc = stdlib()["STLC"]
    el = lambda t: App("El", (t,))  # noqa: E731
    ctx = (
        ("a", App("Ty")),
        ("b", App("Ty")),
        ("f", mk_pi("x", el(Var("a")), el(Var("b")))),
        ("x", el(Var("a"))),
    )
    lhs = App("app", (Var("a"), Var("b"), App("abs", (Var("a"), Var("b"), Var("f"))), Var("x")))
    rhs = Ap(Var("f"), Var("x"))
    v = eq_check(stlc, ctx, lhs, rhs, WITH_PI)
    assert v.proved
    assert v.axiom_instances() == 1
    assert replay_eq_trace(stlc, lhs, rhs, v.steps, WITH_PI)


# -- completeness: goals a bounded rewrite search reaches are Proved ---------


def _syntactic(pat, e, sub):
    """sub extended so that pat under it is e, or None."""
    if isinstance(pat, Var):
        if sub.get(pat.name, e) != e:
            return None
        return {**sub, pat.name: e}
    if not (isinstance(e, App) and pat.head == e.head and len(pat.args) == len(e.args)):
        return None
    for p, x in zip(pat.args, e.args):
        sub = _syntactic(p, x, sub)
        if sub is None:
            return None
    return sub


def _subterms(t, path=()):
    yield path, t
    if isinstance(t, App):
        for k, a in enumerate(t.args):
            yield from _subterms(a, path + (k,))


def _replace(t, path, new):
    if not path:
        return new
    k = path[0]
    return App(t.head, t.args[:k] + (_replace(t.args[k], path[1:], new),) + t.args[k + 1 :])


def _one_step(th, ctx, t):
    """The terms one axiom rewrite from t, either way round, at any
    position.  Variables that only the new side has (the objects of an
    inserted identity) are read off the types of the ones the old side
    binds, which also keeps a bare-variable side at well-typed positions."""
    out = []
    for d in th.axioms():
        for old, new in ((d.kind.lhs, d.kind.rhs), (d.kind.rhs, d.kind.lhs)):
            for path, s in _subterms(t):
                sub = _syntactic(old, s, {})
                for x, ty in d.ctx:
                    if sub is not None and x in sub:
                        sub = _syntactic(ty, infer_type(th, ctx, sub[x]), sub)
                if sub is not None and set(sub) == set(d.arity):
                    out.append(_replace(t, path, substitute(new, sub)))
    return out


def _reached(th, ctx, t, steps):
    """Every term at most steps rewrites from t, other than t, in BFS order."""
    seen = {t: None}
    frontier = [t]
    for _ in range(steps):
        nxt = []
        for s in frontier:
            for u in _one_step(th, ctx, s):
                if u not in seen:
                    seen[u] = None
                    nxt.append(u)
        frontier = nxt
    return list(seen)[1:]


def _mon_start(rng):
    leaves = [Var(x) for x in rng.sample(["a", "b", "c"], rng.randint(2, 3))]
    if rng.random() < 0.5:
        leaves.insert(rng.randint(0, len(leaves)), App("u"))
    while len(leaves) > 1:
        k = rng.randrange(len(leaves) - 1)
        leaves[k : k + 2] = [App("mul", (leaves[k], leaves[k + 1]))]
    return leaves[0]


def _comp(p, q):
    """The composite of two morphisms given as (term, source, target) with
    objects o_source, o_target."""
    (f, a, b), (g, _, c) = p, q
    return App("comp", (Var(f"o{a}"), Var(f"o{b}"), Var(f"o{c}"), f, g)), a, c


def _path(n):
    """f_i : o_i -> o_(i+1) for i < n, as (term, source, target)."""
    return [(Var(f"f{i}"), i, i + 1) for i in range(n)]


def _cat_start(rng):
    # a random bracketing of a path of 2 or 3 morphisms
    path = _path(rng.randint(2, 3))
    while len(path) > 1:
        k = rng.randrange(len(path) - 1)
        path[k : k + 2] = [_comp(path[k], path[k + 1])]
    return path[0][0]


def _cat_ctx(n):
    return tuple((f"o{i}", OB) for i in range(n + 1)) + tuple(
        (f"f{i}", hom(Var(f"o{i}"), Var(f"o{i + 1}"))) for i in range(n)
    )


MON_CTX = (("a", MON), ("b", MON), ("c", MON))


def _fold(op, xs, right=False):
    """xs combined with op, bracketed to the left or to the right."""
    if right:
        return _fold(lambda a, b: op(b, a), xs[::-1])
    t = xs[0]
    for x in xs[1:]:
        t = op(t, x)
    return t


def _assert_proved(th, ctx, lhs, rhs):
    v = eq_check(th, ctx, lhs, rhs)
    assert v.proved, (lhs, rhs, v.reason)
    assert eq_check(th, ctx, lhs, rhs) == v
    assert replay_eq_trace(th, lhs, rhs, v.steps)


def test_rewrite_reachable_goals_are_proved():
    # oracle: a goal some rewrite sequence joins is derivable
    rng = random.Random(2024)
    for th, ctx, start in ((stdlib()["Mon"], MON_CTX, _mon_start), (stdlib()["Cat"], _cat_ctx(3), _cat_start)):
        for _ in range(3):
            t = start(rng)
            for goal in _reached(th, ctx, t, 3):
                _assert_proved(th, ctx, t, goal)
    # reassociations 4 and 7 rewrites long
    mul = lambda a, b: App("mul", (a, b))  # noqa: E731
    vs = [Var(x) for x in "abcde"]
    ctx = tuple((x.name, MON) for x in vs)
    _assert_proved(stdlib()["Mon"], ctx, _fold(mul, vs), _fold(mul, vs, right=True))
    left, right = _fold(_comp, _path(8)), _fold(_comp, _path(8), right=True)
    _assert_proved(stdlib()["Cat"], _cat_ctx(8), left[0], right[0])


def test_match_after_merge_two_levels_below_the_root():
    # h(g(x), k(x)) matches h(g(a), k(b)) once a = b joins two classes two
    # levels below h; the classes of g(a) and k(b) themselves do not
    # change, so only a search that looks two levels down re-matches h.
    # (Every non-linear variable of Cat's axioms also occurs right below
    # the root, where such a merge shows one level down.)
    from gatc.theory import check_theory, term_eq_ax, term_sym, type_sym

    s = App("S")
    g = lambda e: App("g", (e,))  # noqa: E731
    k = lambda e: App("k", (e,))  # noqa: E731
    t = check_theory(
        [
            type_sym("S"),
            *(term_sym(c, (), s) for c in ("a", "b", "c")),
            term_sym("g", (("x", s),), s),
            term_sym("k", (("x", s),), s),
            term_sym("h", (("x", s), ("y", s)), s),
            # declared first, so the first round matches it before a = b
            term_eq_ax("hgk", (("x", s),), App("h", (g(Var("x")), k(Var("x")))), App("c"), s),
            term_eq_ax("ab", (), App("a"), App("b"), s),
        ]
    )
    lhs = App("h", (g(App("a")), k(App("b"))))
    v = eq_check(t, (), lhs, App("c"))
    assert v.proved
    assert v.axiom_instances() == 2
    assert replay_eq_trace(t, lhs, App("c"), v.steps)


def test_unproved_type_equality_is_inconclusive_not_a_mismatch():
    from gatc.theory import extend, term_sym, type_sym

    mul = lambda a, b: App("mul", (a, b))  # noqa: E731
    vs = [Var(x) for x in "abcde"]
    ctx = tuple((x.name, MON) for x in vs)
    t = extend(stdlib()["Mon"], type_sym("P", (("m", MON),)))
    t = extend(t, term_sym("p", ctx, App("P", (_fold(mul, vs),))))
    t = extend(t, term_sym("q", (("m", MON),), App("P", (Var("m"),))))
    # derivable by associativity alone: proved
    j = Judgment(ctx, HasType(App("p", tuple(vs)), App("P", (_fold(mul, vs, right=True),))))
    assert check_judgment(t, j).ok
    # not derivable, but the engine never refutes an equation
    j = Judgment(ctx, HasType(App("q", (mul(vs[0], vs[1]),)), App("P", (mul(vs[1], vs[0]),))))
    with pytest.raises(InconclusiveEquality):
        check_judgment(t, j)
