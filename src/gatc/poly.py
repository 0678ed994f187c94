"""The families endofunctor on theories and its polynomial structure.

Applying the functor adjoins a fresh closed type symbol and prefixes
every declaration's context with a variable of it, so declarations
become indexed families.  The structural rules of weakening, projection
and substitution supply arrows making this an algebraic polynomial
functor for the element-of arrow between the one-type towers; the
verifier checks the four defining axioms, the unit laws and the
adjunction triangle identities as interpretation equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import deriv
from .deriv import Fuel, RuleSet
from .errors import GatError
from .gatform_names import safe_name
from .expr import Ap, App, Expr, Var, fresh_name, hypothesize, mk_lam, mk_pi, substitute
from .gatcat import (
    Coproduct,
    EquivalenceResult,
    Interpretation,
    Pushout,
    check_interpretation,
    check_mutually_inverse,
    compose,
    coproduct,
    equivalent,
    identity,
    positional_renaming,
    pushout,
)
from .theory import (
    Declaration,
    Theory,
    check_theory,
    mk_El,
    mk_Ty,
    stdlib,
    terminal_theory,
    type_sym,
)


@dataclass
class PolyTheory:
    """The families theory of a base theory, with bookkeeping.

    reserved is the adjoined closed type symbol; hyp_var records, per
    original declaration, the name of the indexing variable prefixed to
    its context.
    """

    theory: Theory
    base: Theory
    reserved: str
    hyp_var: dict[str, str]

    @property
    def leg(self) -> Interpretation:
        """The inclusion of the one-type theory at the reserved symbol."""
        return Interpretation(
            mk_Ty(0), self.theory, {"A0": App(self.reserved)}, f"leg[{self.base.name}]"
        )


def poly_apply(base: Theory, rules: Optional[RuleSet] = None, fuel: Fuel = deriv.DEFAULT_FUEL) -> PolyTheory:
    """Build the families theory and re-certify it.

    Certification is a genuine re-check of every hypothesized
    declaration, not an appeal to stability; a failure here would expose
    a stability bug.
    """
    rules = rules if rules is not None else (deriv.WITH_PI if base.pi else deriv.BASE)
    syms = set(base.symbol_names())
    reserved = fresh_name("A0", {d.name for d in base.decls})
    decls: list[Declaration] = [type_sym(reserved)]
    hyp_var: dict[str, str] = {}
    for d in base.decls:
        hv = fresh_name("x0", {x for x, _ in d.ctx})
        hyp_var[d.name] = hv
        h = d.map(lambda e: hypothesize(e, hv, syms))
        decls.append(Declaration(d.name, ((hv, App(reserved)),) + h.ctx, h.kind))
    out = check_theory(decls, rules, fuel, name=safe_name(f"P_{base.name}"))
    return PolyTheory(out, base, reserved, hyp_var)


def poly_interp(i: Interpretation, psrc: PolyTheory, pdst: PolyTheory) -> Interpretation:
    """Functor action on maps: identity on the reserved symbol, images
    hypothesized over the prefixed variable."""
    if psrc.base.decls != i.src.decls or pdst.base.decls != i.dst.decls:
        raise GatError("families action applied to mismatched theories")
    dst_syms = set(i.dst.symbol_names())
    mapping: dict[str, Expr] = {psrc.reserved: App(pdst.reserved)}
    for d in i.src.decls:
        if not d.is_symbol:
            continue
        hv = psrc.hyp_var[d.name]
        mapping[d.name] = hypothesize(i.image(d.name), hv, dst_syms)
    return Interpretation(psrc.theory, pdst.theory, mapping, f"P({i.name})" if i.name else "")


# ---------------------------------------------------------------------------
# Structure maps
# ---------------------------------------------------------------------------


def product_with_ty0(base: Theory, fuel: Fuel = deriv.DEFAULT_FUEL) -> Coproduct:
    return coproduct(base, mk_Ty(0), fuel=fuel)


def weakening_interp(poly: PolyTheory, prod: Coproduct) -> Interpretation:
    """From the families theory into base x Ty0: drop the index variable.

    Well-defined because of the weakening rule: every image simply does
    not mention the prefixed variable.
    """
    mapping: dict[str, Expr] = {poly.reserved: prod.right.image("A0")}
    for d in poly.base.decls:
        if d.is_symbol:
            mapping[d.name] = prod.left.image(d.name)
    return Interpretation(poly.theory, prod.theory, mapping, f"wk[{poly.base.name}]")


def projection_interp(pel0: PolyTheory) -> Interpretation:
    """From the families theory of the pointed type into Ty0.

    The generic point goes to the index variable itself; well-defined
    because of the projection rule.
    """
    ty0 = mk_Ty(0)
    mapping = {
        pel0.reserved: App("A0"),
        "A0": App("A0"),
        "e0": Var(pel0.hyp_var["e0"]),
    }
    return Interpretation(pel0.theory, ty0, mapping, "proj")


def fib_product_el0(base: Theory, leg: Interpretation, fuel: Fuel = deriv.DEFAULT_FUEL) -> Pushout:
    """base x_{Ty0} El0 as the pushout presentation: base plus a point
    of the leg type."""
    return pushout(mk_Ty(0), mk_El(0), leg.retarget(base) if leg.dst is not base else leg, fuel=fuel)


def point_symbol(fib: Pushout) -> str:
    return fib.theory.decls[-1].name


def substitution_interp(poly: PolyTheory, fib: Pushout) -> Interpretation:
    """From the base theory into its families theory with a chosen point:
    substitute the point for the index variable.

    Well-defined because of the substitution rule.
    """
    e0 = App(point_symbol(fib))
    mapping: dict[str, Expr] = {}
    for d in poly.base.decls:
        if d.is_symbol:
            mapping[d.name] = App(d.name, (e0,) + tuple(Var(x) for x in d.arity))
    return Interpretation(poly.base, fib.theory, mapping, f"subst[{poly.base.name}]")


def diagonal_interp(prod: Coproduct) -> Interpretation:
    """Ty0 -> Ty0 x Ty0 (as an arrow); both copies to the one type."""
    mapping = {
        prod.left.image("A0").head: App("A0"),
        prod.right.image("A0").head: App("A0"),
    }
    return Interpretation(prod.theory, mk_Ty(0), mapping, "diag")


def pairing_interp(f: Interpretation, prod: Coproduct) -> Interpretation:
    """(id, f) : base -> base x Ty0 for a leg f (as an arrow)."""
    mapping: dict[str, Expr] = {}
    for d in f.dst.decls:
        if d.is_symbol:
            mapping[prod.left.image(d.name).head] = App(d.name, tuple(Var(x) for x in d.arity))
    mapping[prod.right.image("A0").head] = f.image("A0")
    return Interpretation(prod.theory, f.dst, mapping, "(id,leg)")


def fib_arrow(g: Interpretation, fib_of_dst: Pushout, fib_of_src: Pushout) -> Interpretation:
    """g x_{Ty0} El0 for an arrow over Ty0, in interpretation form.

    Takes the pointed fibres of g's source and target theories and
    extends g by matching up the point symbols; the result maps the
    fibre of g.src into the fibre of g.dst.
    """
    mapping = dict(g.mapping)
    mapping[point_symbol(fib_of_src)] = App(point_symbol(fib_of_dst))
    return Interpretation(fib_of_src.theory, fib_of_dst.theory, mapping, f"{g.name}xEl0")


def _realign(e: Expr, old_params: tuple[str, ...], new_params: tuple[str, ...]) -> Expr:
    if old_params == new_params:
        return e
    return substitute(e, {o: Var(n) for o, n in zip(old_params, new_params)})


# ---------------------------------------------------------------------------
# Unit and triangles
# ---------------------------------------------------------------------------


@dataclass
class UnitResult:
    """The unit arrow at a leg, with the theories it runs between."""

    base: Theory
    leg: Interpretation
    fib: Pushout  # base x_{Ty0} El0
    poly_fib: PolyTheory  # P(base x_{Ty0} El0)
    eta: Interpretation  # from P(base x_{Ty0} El0) into base
    pi1: Interpretation  # base -> fib (inclusion)
    pi2: Interpretation  # El0 -> fib


def derive_unit(base: Theory, leg: Interpretation, rules: Optional[RuleSet] = None, fuel: Fuel = deriv.DEFAULT_FUEL) -> UnitResult:
    """Build the adjunction unit at a leg from weakening and projection.

    The families theory of the fibred product splits into the families
    of the base and the pointed part, so the unit is glued from
    wk . (id, leg) on the first and proj . leg on the second; the
    defining equations are checked post hoc by check_unit_laws.
    """
    rules = rules if rules is not None else (deriv.WITH_PI if base.pi else deriv.BASE)
    fib = fib_product_el0(base, leg, fuel)
    poly_fib = poly_apply(fib.theory, rules, fuel)
    poly_base = poly_apply(base, rules, fuel)
    prod = product_with_ty0(base, fuel)
    u = compose(weakening_interp(poly_base, prod), pairing_interp(leg, prod))
    pel0 = poly_apply(mk_El(0), rules, fuel)
    v = compose(projection_interp(pel0), leg)

    e0 = point_symbol(fib)
    mapping: dict[str, Expr] = {poly_fib.reserved: u.image(poly_base.reserved)}
    for d in base.decls:
        if not d.is_symbol:
            continue
        old = (poly_base.hyp_var[d.name],) + d.arity
        new = (poly_fib.hyp_var[d.name],) + d.arity
        mapping[d.name] = _realign(u.image(d.name), old, new)
    mapping[e0] = _realign(v.image("e0"), (pel0.hyp_var["e0"],), (poly_fib.hyp_var[e0],))
    eta = Interpretation(poly_fib.theory, base, mapping, f"unit[{base.name}]")
    return UnitResult(base, leg, fib, poly_fib, eta, fib.into_prime, fib.into_total)


@dataclass
class LawReport:
    name: str
    verdict: str  # Proved | Failed | Inconclusive
    axiom_instances: int = 0
    detail: str = ""
    steps: tuple = ()


def _law(name: str, result: EquivalenceResult) -> LawReport:
    steps = tuple(s for _, v in result.per_symbol for s in v.steps)
    if result.proved:
        return LawReport(name, "Proved", result.axiom_instances(), steps=steps)
    where = f" at symbol {result.per_symbol[-1][0]!r}" if result.per_symbol else ""
    return LawReport(
        name, "Inconclusive", result.axiom_instances(), f"not proved ({result.reason}){where}", steps
    )


def _failed(name: str, exc: Exception) -> LawReport:
    return LawReport(name, "Failed", 0, str(exc))


def check_unit_laws(unit: UnitResult, rules: Optional[RuleSet] = None, fuel: Fuel = deriv.DEFAULT_FUEL) -> list[LawReport]:
    """The two equations pinning the unit down under the pullback image:
    first-projection law (weakening side) and second-projection law
    (projection side)."""
    base = unit.base
    rules = rules if rules is not None else (deriv.WITH_PI if base.pi else deriv.BASE)
    poly_base = poly_apply(base, rules, fuel)
    pel0 = poly_apply(mk_El(0), rules, fuel)
    prod = product_with_ty0(base, fuel)
    out = []

    p_pi1 = poly_interp(unit.pi1, poly_base, unit.poly_fib)
    lhs1 = compose(p_pi1, unit.eta)
    rhs1 = compose(weakening_interp(poly_base, prod), pairing_interp(unit.leg, prod))
    out.append(_law("unit-wk", equivalent(lhs1, rhs1, rules, fuel)))

    p_pi2 = poly_interp(unit.pi2, pel0, unit.poly_fib)
    lhs2 = compose(p_pi2, unit.eta)
    rhs2 = compose(projection_interp(pel0), unit.leg)
    out.append(_law("unit-proj", equivalent(lhs2, rhs2, rules, fuel)))
    return out


def recover_weakening(base: Theory, rules: Optional[RuleSet] = None, fuel: Fuel = deriv.DEFAULT_FUEL) -> EquivalenceResult:
    """Round trip: the unit at the product leg recovers weakening."""
    rules = rules if rules is not None else (deriv.WITH_PI if base.pi else deriv.BASE)
    prod = product_with_ty0(base, fuel)
    # the second projection of base x Ty0 is its leg
    leg = Interpretation(mk_Ty(0), prod.theory, {"A0": prod.right.image("A0")}, "pr2")
    unit = derive_unit(prod.theory, leg, rules, fuel)
    poly_base = poly_apply(base, rules, fuel)
    # first projection of (base x Ty0) x_{Ty0} El0 onto base
    pi1_mapping = {
        d.name: prod.left.image(d.name) for d in base.decls if d.is_symbol
    }
    pi1 = Interpretation(base, unit.fib.theory, pi1_mapping, "pr1")
    p_pi1 = poly_interp(pi1, poly_base, unit.poly_fib)
    recovered = compose(p_pi1, unit.eta)
    return equivalent(recovered, weakening_interp(poly_base, prod), rules, fuel)


def recover_projection(rules: Optional[RuleSet] = None, fuel: Fuel = deriv.DEFAULT_FUEL) -> EquivalenceResult:
    """Round trip: the unit at the identity leg recovers projection."""
    rules = rules if rules is not None else deriv.BASE
    ty0 = mk_Ty(0)
    unit = derive_unit(ty0, identity(ty0), rules, fuel)
    pel0 = poly_apply(mk_El(0), rules, fuel)
    proj = projection_interp(pel0)
    if unit.poly_fib.theory.decls != pel0.theory.decls:
        raise GatError("pointed fibre of the one-type theory should present El0")
    recovered = Interpretation(pel0.theory, ty0, dict(unit.eta.mapping), unit.eta.name)
    return equivalent(recovered, proj, rules, fuel)


def check_triangles(
    base: Theory,
    leg_base: Theory,
    leg: Interpretation,
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
) -> list[LawReport]:
    """The adjunction triangle identities.

    The first (at base) coincides with the fourth polynomial axiom; the
    second (at a leg) reduces to the second or third axiom depending on
    the leg.
    """
    rules = rules if rules is not None else (deriv.WITH_PI if base.pi else deriv.BASE)
    out = []
    out.append(replace(_check_p4(base, rules, fuel), name=f"triangle-counit[{base.name}]"))
    out.append(_triangle_unit(leg_base, leg, rules, fuel))
    return out


def _triangle_unit(base: Theory, leg: Interpretation, rules, fuel) -> LawReport:
    name = f"triangle-unit[{base.name}]"
    try:
        unit = derive_unit(base, leg, rules, fuel)
        fib = unit.fib
        poly_fib_theory = poly_apply(fib.theory, rules, fuel)
        fib2 = fib_product_el0(poly_fib_theory.theory, poly_fib_theory.leg, fuel)
        subst_fib = substitution_interp(poly_fib_theory, fib2)
        eta_x_el0 = fib_arrow(unit.eta, fib, fib2)
        composite = compose(subst_fib, eta_x_el0)
        return _law(name, equivalent(composite, identity(fib.theory), rules, fuel))
    except GatError as exc:
        return _failed(name, exc)


# ---------------------------------------------------------------------------
# The four polynomial-functor axioms
# ---------------------------------------------------------------------------


def verify_polynomial_axioms(
    samples: list[Theory],
    rules: Optional[RuleSet] = None,
    fuel: Fuel = deriv.DEFAULT_FUEL,
    corrupt_subst: bool = False,
) -> list[LawReport]:
    """Check P1 (on Ty0), P2 (on El0) and P3/P4 per sample.

    Reports are total: every instance yields Proved, Failed or
    Inconclusive; nothing aborts early.  corrupt_subst mutates the
    substitution arrow used by P2 into an ill-typed one, for the
    mutation check.
    """
    rules = rules if rules is not None else deriv.BASE
    out: list[LawReport] = [
        _check_p1(rules, fuel),
        _check_p2(rules, fuel, corrupt_subst),
    ]
    for t in samples:
        out.append(_check_p3(t, rules, fuel))
        out.append(_check_p4(t, rules, fuel))
    return out


def _check_p1(rules, fuel) -> LawReport:
    name = "P1[Ty0]"
    try:
        ty0, el0 = mk_Ty(0), mk_El(0)
        pty0 = poly_apply(ty0, rules, fuel)
        pel0 = poly_apply(el0, rules, fuel)
        incl = Interpretation(ty0, el0, {"A0": App("A0")}, "element-of")
        p_incl = poly_interp(incl, pty0, pel0)
        lhs = compose(p_incl, projection_interp(pel0))
        prod = product_with_ty0(ty0, fuel)
        rhs = compose(weakening_interp(pty0, prod), diagonal_interp(prod))
        return _law(name, equivalent(lhs, rhs, rules, fuel))
    except GatError as exc:
        return _failed(name, exc)


def _check_p2(rules, fuel, corrupt: bool = False) -> LawReport:
    name = "P2[El0]"
    try:
        el0 = mk_El(0)
        pel0 = poly_apply(el0, rules, fuel)
        fib = fib_product_el0(pel0.theory, pel0.leg, fuel)
        subst = substitution_interp(pel0, fib)
        if corrupt:
            bad = dict(subst.mapping)
            bad["e0"] = App(point_symbol(fib))
            subst = Interpretation(subst.src, subst.dst, bad, "subst-corrupted")
        v = check_interpretation(subst, rules, fuel)
        if not v.ok:
            return LawReport(name, "Inconclusive", 0, v.detail)
        ty0 = mk_Ty(0)
        fib_ty0 = fib_product_el0(ty0, identity(ty0), fuel)
        proj_x_el0 = fib_arrow(projection_interp(pel0), fib_ty0, fib)
        composite = compose(subst, proj_x_el0)
        canonical = Interpretation(
            el0, fib_ty0.theory, identity(el0).mapping, "iso"
        )
        return _law(name, equivalent(composite, canonical, rules, fuel))
    except GatError as exc:
        return _failed(name, exc)


def _check_p3(base: Theory, rules, fuel) -> LawReport:
    name = f"P3[{base.name}]"
    try:
        poly_base = poly_apply(base, rules, fuel)
        prod = product_with_ty0(base, fuel)
        prod_leg = Interpretation(mk_Ty(0), prod.theory, {"A0": prod.right.image("A0")}, "pr2")
        fib_prod = fib_product_el0(prod.theory, prod_leg, fuel)
        fib_poly = fib_product_el0(poly_base.theory, poly_base.leg, fuel)
        wk_x_el0 = fib_arrow(weakening_interp(poly_base, prod), fib_prod, fib_poly)
        subst = substitution_interp(poly_base, fib_poly)
        composite = compose(subst, wk_x_el0)
        projection = compose(prod.left, fib_prod.into_prime)
        return _law(name, equivalent(composite, projection, rules, fuel))
    except GatError as exc:
        return _failed(name, exc)


def _check_p4(base: Theory, rules, fuel) -> LawReport:
    name = f"P4[{base.name}]"
    try:
        poly_base = poly_apply(base, rules, fuel)
        fib = fib_product_el0(poly_base.theory, poly_base.leg, fuel)
        poly_fib = poly_apply(fib.theory, rules, fuel)
        subst = substitution_interp(poly_base, fib)
        p_subst = poly_interp(subst, poly_base, poly_fib)
        unit = derive_unit(poly_base.theory, poly_base.leg, rules, fuel)
        composite = compose(p_subst, unit.eta)
        return _law(name, equivalent(composite, identity(poly_base.theory), rules, fuel))
    except GatError as exc:
        return _failed(name, exc)


# ---------------------------------------------------------------------------
# Tower isomorphisms and the Pi square
# ---------------------------------------------------------------------------


def tower_iso(n: int, element: bool, rules: Optional[RuleSet] = None, fuel: Fuel = deriv.DEFAULT_FUEL) -> EquivalenceResult:
    """P(Ty_n) = Ty_{n+1} and P(El_n) = El_{n+1}, via canonical renamings."""
    rules = rules if rules is not None else deriv.BASE
    base = mk_El(n) if element else mk_Ty(n)
    target = mk_El(n + 1) if element else mk_Ty(n + 1)
    p = poly_apply(base, rules, fuel)
    fwd = positional_renaming(p.theory, target)
    back = positional_renaming(target, p.theory)
    for i in (fwd, back):
        v = check_interpretation(i, rules, fuel)
        if not v.ok:
            return EquivalenceResult(False, v.detail)
    return check_mutually_inverse(fwd, back, rules, fuel)


@dataclass
class PiSquareResult:
    commutes: LawReport
    forward: LawReport  # element-tower round trip, closed by beta
    backward: LawReport  # pointed-product round trip, closed by eta
    comparison: Interpretation
    inverse: Interpretation

    @property
    def proved(self) -> bool:
        return all(r.verdict == "Proved" for r in (self.commutes, self.forward, self.backward))


def pi_square(fuel: Fuel = deriv.DEFAULT_FUEL) -> PiSquareResult:
    """The dependent-product square between the towers and its pullback.

    Commutation is an interpretation equivalence; the pullback property
    is verified by a comparison arrow and a candidate inverse whose
    round trips close under the beta and eta rewrites alone.
    """
    rules = deriv.WITH_PI
    ty0, ty1, el0, el1 = mk_Ty(0), mk_Ty(1), mk_El(0), mk_El(1)
    a0 = App("A0")
    pi_ty = mk_pi("x0", a0, App("A1", (Var("x0"),)))

    pi_arrow = Interpretation(ty0, ty1, {"A0": pi_ty}, "Pi")
    lam_arrow = Interpretation(
        el0,
        el1,
        {"A0": pi_ty, "e0": mk_lam("x0", a0, App("e1", (Var("x0"),)))},
        "lambda",
    )
    t0 = Interpretation(ty0, el0, {"A0": a0}, "element-of")
    t1 = Interpretation(ty1, el1, {"A0": a0, "A1": App("A1", (Var("x0"),))}, "element-of1")

    for i in (pi_arrow, lam_arrow, t0, t1):
        v = check_interpretation(i, rules, fuel)
        if not v.ok:
            raise GatError(f"structure arrow {i.name} failed: {v.detail}")

    commutes = _law(
        "pi-square-commutes",
        equivalent(compose(t0, lam_arrow), compose(pi_arrow, t1), rules, fuel),
    )

    corner = pushout(ty0, el0, pi_arrow, rules, fuel, name="Ty1x[Ty0]El0")
    e0c = point_symbol(corner)
    comparison = Interpretation(
        corner.theory,
        el1,
        {
            "A0": a0,
            "A1": App("A1", (Var("x0"),)),
            e0c: mk_lam("x0", a0, App("e1", (Var("x0"),))),
        },
        "compare",
    )
    inverse = Interpretation(
        el1,
        corner.theory,
        {
            "A0": a0,
            "A1": App("A1", (Var("x0"),)),
            "e1": Ap(App(e0c), Var("x0")),
        },
        "uncompare",
    )
    for i in (comparison, inverse):
        v = check_interpretation(i, rules, fuel)
        if not v.ok:
            raise GatError(f"comparison arrow {i.name} failed: {v.detail}")

    forward = _law("pi-square-beta", equivalent(compose(inverse, comparison), identity(el1), rules, fuel))
    backward = _law("pi-square-eta", equivalent(compose(comparison, inverse), identity(corner.theory), rules, fuel))
    return PiSquareResult(commutes, forward, backward, comparison, inverse)


def default_samples() -> list[Theory]:
    lib = stdlib()
    return [terminal_theory(), lib["Ty0"], lib["El0"], lib["Mon"], lib["Cat"]]
