from gatc.deriv import AxiomStep, BetaStep, EtaStep
from gatc.expr import App, Var
from gatc.gatcat import (
    Interpretation,
    check_interpretation,
    check_mutually_inverse,
    compose,
    corpus_interpretations,
    equivalent,
    identity,
    positional_renaming,
    pushout,
)
from gatc.poly import (
    check_triangles,
    check_unit_laws,
    default_samples,
    derive_unit,
    fib_product_el0,
    pi_square,
    point_symbol,
    poly_apply,
    poly_interp,
    product_with_ty0,
    projection_interp,
    recover_projection,
    recover_weakening,
    substitution_interp,
    tower_iso,
    verify_polynomial_axioms,
    weakening_interp,
)
from gatc.theory import mk_El, mk_Ty, stdlib, terminal_theory

LIB = stdlib()


def test_poly_of_terminal_is_one_type():
    p = poly_apply(terminal_theory())
    fwd = positional_renaming(p.theory, mk_Ty(0))
    back = positional_renaming(mk_Ty(0), p.theory)
    assert check_mutually_inverse(fwd, back).proved


def test_poly_preserves_count_plus_one_and_certifies():
    for name in ("Cat", "Mon", "CatPt", "Ty2", "El2", "STLC"):
        t = LIB[name]
        p = poly_apply(t)  # raises if any hypothesized declaration fails
        assert len(p.theory.decls) == len(t.decls) + 1


def test_poly_of_categories_shape():
    # the families-of-categories theory: every context grows by the index
    p = poly_apply(LIB["Cat"])
    assert [d.name for d in p.theory.decls] == ["A0", "Ob", "Hom", "id", "comp", "_1", "_2", "_3"]
    lengths = {d.name: len(d.ctx) for d in p.theory.decls}
    assert lengths == {"A0": 0, "Ob": 1, "Hom": 3, "id": 2, "comp": 6, "_1": 4, "_2": 4, "_3": 8}
    hom = p.theory.decl("Hom")
    assert hom.ctx[1][1] == App("Ob", (Var(p.hyp_var["Hom"]),))


def test_poly_interp_identity_is_identity():
    p = poly_apply(LIB["Mon"])
    pid = poly_interp(identity(LIB["Mon"]), p, p)
    assert pid.mapping == identity(p.theory).mapping


def test_poly_interp_functorial_on_corpus():
    a = corpus_interpretations()["Ty0ToMon"]
    b = corpus_interpretations()["MonToCatPt"]
    p_ty0 = poly_apply(LIB["Ty0"])
    p_mon = poly_apply(LIB["Mon"])
    p_cpt = poly_apply(LIB["CatPt"])
    lhs = poly_interp(compose(a, b), p_ty0, p_cpt)
    rhs = compose(poly_interp(a, p_ty0, p_mon), poly_interp(b, p_mon, p_cpt))
    assert lhs.mapping == rhs.mapping


def test_poly_interp_ty0_to_mon():
    a = corpus_interpretations()["Ty0ToMon"]
    p_ty0 = poly_apply(LIB["Ty0"])
    p_mon = poly_apply(LIB["Mon"])
    pa = poly_interp(a, p_ty0, p_mon)
    assert pa.mapping[p_ty0.reserved] == App(p_mon.reserved)
    hv = p_ty0.hyp_var["A0"]
    assert pa.mapping["A0"] == App("Mon", (Var(hv),))
    assert check_interpretation(pa).ok


def test_structure_maps_validate():
    for name in ("Mon", "Cat", "Ty1"):
        t = LIB[name]
        p = poly_apply(t)
        prod = product_with_ty0(t)
        assert check_interpretation(weakening_interp(p, prod)).ok
        fib = fib_product_el0(p.theory, p.leg)
        assert check_interpretation(substitution_interp(p, fib)).ok
    assert check_interpretation(projection_interp(poly_apply(mk_El(0)))).ok


def test_projection_display():
    pel0 = poly_apply(mk_El(0))
    proj = projection_interp(pel0)
    hv = pel0.hyp_var["e0"]
    assert proj.mapping["A0"] == App("A0")
    assert proj.mapping["e0"] == Var(hv)


def test_substitution_display_on_el0():
    # the generic element goes to the family member at the chosen point
    pel0 = poly_apply(mk_El(0))
    fib = fib_product_el0(pel0.theory, pel0.leg)
    subst = substitution_interp(pel0, fib)
    pt = point_symbol(fib)
    assert subst.mapping["e0"] == App("e0", (App(pt),))
    assert subst.mapping["A0"] == App("A0", (App(pt),))


def test_weakening_naturality():
    # (P f) . wk_src  =  wk_dst . (f x Ty0) as interpretation composites
    f = corpus_interpretations()["Ty0ToMon"]
    src, dst = f.src, f.dst
    p_src, p_dst = poly_apply(src), poly_apply(dst)
    prod_src, prod_dst = product_with_ty0(src), product_with_ty0(dst)
    pf = poly_interp(f, p_src, p_dst)
    f_x_ty0 = Interpretation(
        prod_src.theory,
        prod_dst.theory,
        {
            "A0#1": compose(f, prod_dst.left).mapping["A0"],
            "A0#2": App("A0#2"),
        },
    )
    left = compose(weakening_interp(p_src, prod_src), f_x_ty0)
    right = compose(pf, weakening_interp(p_dst, prod_dst))
    assert equivalent(left, right).proved


def test_substitution_naturality():
    # subst_dst . (P f x El0)  =  f . subst_src
    from gatc.poly import fib_arrow

    f = corpus_interpretations()["Ty0ToMon"]
    src, dst = f.src, f.dst
    p_src, p_dst = poly_apply(src), poly_apply(dst)
    pf = poly_interp(f, p_src, p_dst)
    fib_src = fib_product_el0(p_src.theory, p_src.leg)
    fib_dst = fib_product_el0(p_dst.theory, p_dst.leg)
    pf_x_el0 = fib_arrow(pf, fib_dst, fib_src)
    left = compose(substitution_interp(p_src, fib_src), pf_x_el0)
    right = compose(f, substitution_interp(p_dst, fib_dst))
    assert equivalent(left, right).proved


def test_polynomial_axioms_hold_on_pi_enabled_theories():
    from gatc.deriv import WITH_PI

    reports = verify_polynomial_axioms([LIB["STLC"]], WITH_PI)
    for r in reports:
        assert r.verdict == "Proved", (r.name, r.detail)


def test_arrow_composition():
    # Ty0 -> Mon -> CatPt composes to Ty0 -> CatPt; read as arrows between
    # the presented model categories the direction is reversed
    f = corpus_interpretations()["MonToCatPt"]
    g = corpus_interpretations()["Ty0ToMon"]
    h = compose(g, f)
    assert h.src.decls == LIB["Ty0"].decls
    assert h.dst.decls == LIB["CatPt"].decls
    assert h.mapping["A0"] == App("Hom", (App("b"), App("b")))
    assert check_interpretation(h).ok


def test_poly_map_checks_validity():
    # the families action on a map is a valid map between the families
    f = corpus_interpretations()["Ty0ToMon"]
    p_mon = poly_apply(LIB["Mon"])
    p_ty0 = poly_apply(LIB["Ty0"])
    pf = poly_interp(f, p_ty0, p_mon)
    assert pf.src.decls == p_ty0.theory.decls
    assert pf.dst.decls == p_mon.theory.decls
    assert check_interpretation(pf).ok


def test_polynomial_axioms_all_proved_without_axiom_instances():
    reports = verify_polynomial_axioms(default_samples())
    assert len(reports) == 12
    for r in reports:
        assert r.verdict == "Proved", (r.name, r.detail)
        assert r.axiom_instances == 0, r.name


def test_corrupted_substitution_fails_p2():
    reports = verify_polynomial_axioms([], corrupt_subst=True)
    p2 = next(r for r in reports if r.name.startswith("P2"))
    assert p2.verdict == "Failed"


def test_tower_isomorphisms():
    for n in range(4):
        assert tower_iso(n, element=False).proved
        assert tower_iso(n, element=True).proved


def test_arrow_wrappers_are_valid_and_directed():
    # the structure maps of the families functor, each valid and with the
    # endpoints the polynomial structure needs
    mon = LIB["Mon"]
    p = poly_apply(mon)
    leg = p.leg
    assert leg.src.decls == mk_Ty(0).decls and leg.dst.decls == p.theory.decls
    assert check_interpretation(leg).ok
    wk = weakening_interp(p, product_with_ty0(mon))
    assert wk.src.decls == p.theory.decls
    assert check_interpretation(wk).ok
    pr = projection_interp(poly_apply(mk_El(0)))
    assert pr.dst.decls == mk_Ty(0).decls
    assert check_interpretation(pr).ok
    sb = substitution_interp(p, fib_product_el0(p.theory, p.leg))
    assert sb.src.decls == mon.decls
    assert check_interpretation(sb).ok


def test_weakening_images_on_one_type():
    # reserved symbol goes to the product's second copy, the family to
    # the weakened first copy
    ty0 = LIB["Ty0"]
    p = poly_apply(ty0)
    prod = product_with_ty0(ty0)
    wk = weakening_interp(p, prod)
    assert wk.mapping[p.reserved] == App("A0#2")
    assert wk.mapping["A0"] == App("A0#1")


def test_poly_preserves_fibred_product_presentation():
    # instance-wise pullback preservation: the families theory of a
    # fibred product is isomorphic to the fibred product of the families
    f = corpus_interpretations()["Ty0ToMon"]
    mon = f.dst
    fib = pushout(mk_Ty(0), mk_El(0), f)  # Mon x_{Ty0} El0 (pointed monoid)
    p_of_fib = poly_apply(fib.theory)

    p_mon = poly_apply(mon)
    p_ty0 = poly_apply(LIB["Ty0"])
    p_el0 = poly_apply(mk_El(0))
    pf = poly_interp(f, p_ty0, p_mon)
    # P(Ty0) is a literal prefix of P(El0), so the image pullback is a pushout
    ty1_like = p_el0.theory.prefix(2, "PTy0")
    pf_retargeted = Interpretation(ty1_like, p_mon.theory, dict(pf.mapping))
    image_fib = pushout(ty1_like, p_el0.theory, pf_retargeted)

    fwd = positional_renaming(p_of_fib.theory, image_fib.theory)
    back = positional_renaming(image_fib.theory, p_of_fib.theory)
    assert check_interpretation(fwd).ok
    assert check_interpretation(back).ok
    assert check_mutually_inverse(fwd, back).proved


def test_unit_laws_on_three_legs():
    ty0, el0, mon = LIB["Ty0"], LIB["El0"], LIB["Mon"]
    prod = product_with_ty0(mon)
    pr2 = Interpretation(ty0, prod.theory, {"A0": prod.right.image("A0")})
    el0_leg = Interpretation(ty0, el0, {"A0": App("A0")})
    for base, leg in ((ty0, identity(ty0)), (prod.theory, pr2), (el0, el0_leg)):
        unit = derive_unit(base, leg)
        assert check_interpretation(unit.eta).ok
        for law in check_unit_laws(unit):
            assert law.verdict == "Proved", (base.name, law.name)


def test_unit_recovery_round_trips():
    assert recover_weakening(LIB["Mon"]).proved
    assert recover_projection().proved


def test_triangle_identities():
    ty0, mon = LIB["Ty0"], LIB["Mon"]
    for r in check_triangles(ty0, ty0, identity(ty0)):
        assert r.verdict == "Proved", r.name
        assert r.axiom_instances == 0
    prod = product_with_ty0(mon)
    pr2 = Interpretation(ty0, prod.theory, {"A0": prod.right.image("A0")})
    for r in check_triangles(mon, prod.theory, pr2):
        assert r.verdict == "Proved", r.name
    el0_leg = Interpretation(ty0, LIB["El0"], {"A0": App("A0")})
    for r in check_triangles(LIB["El0"], LIB["El0"], el0_leg):
        assert r.verdict == "Proved", r.name


def test_pi_square_closed_by_beta_and_eta_alone():
    r = pi_square()
    assert r.proved
    fwd_kinds = {type(s) for s in r.forward.steps}
    back_kinds = {type(s) for s in r.backward.steps}
    assert BetaStep in fwd_kinds
    assert EtaStep in back_kinds
    for law in (r.commutes, r.forward, r.backward):
        assert not any(isinstance(s, AxiomStep) for s in law.steps)
