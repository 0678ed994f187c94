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

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from . import deriv
from .deriv import Fuel, JudgmentResult
from .errors import GatError
from .expr import Ap, App, Expr, Var, hypothesize, mk_lam, mk_pi
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
from .theory import Theory, mk_El, mk_Ty, stdlib, terminal_theory


@dataclass(frozen=True)
class PolyTheory:
    """The families theory of a base theory, with bookkeeping.

    reserved is the adjoined closed type symbol; hyp_var records, per
    original declaration, the name of the indexing variable prefixed to
    its context.  The theory, reserved and the read-only hyp_var are
    shared by every PolyTheory of one base object.
    """

    base: Theory
    theory: Theory
    reserved: str
    hyp_var: Mapping[str, str]

    @property
    def leg(self) -> Interpretation:
        """The inclusion of the one-type theory at the reserved symbol."""
        return Interpretation(
            mk_Ty(0), self.theory, {"A0": App(self.reserved)}, f"leg[{self.base.name}]"
        )


def poly_apply(base: Theory) -> PolyTheory:
    """P(base): the families theory of theory.families, certified by its
    lemma rather than re-checked, and built once per Theory object.
    """
    return PolyTheory(base, *base._families)


def poly_interp(i: Interpretation, psrc: PolyTheory, pdst: PolyTheory) -> Interpretation:
    """Functor action on maps: identity on the reserved symbol, images
    hypothesized over the prefixed variable."""
    if psrc.base.decls != i.src.decls or pdst.base.decls != i.dst.decls:
        raise GatError("families action applied to mismatched theories")
    dst_syms = {d.name for d in i.dst.symbols()}
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


def product_with_ty0(base: Theory) -> Coproduct:
    return coproduct(base, mk_Ty(0))


def product_leg(prod: Coproduct) -> Interpretation:
    """The second projection of base x Ty0, as a leg."""
    return Interpretation(mk_Ty(0), prod.theory, {"A0": prod.right.image("A0")}, "pr2")


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


def fib_product_el0(leg: Interpretation, fuel: Fuel = deriv.DEFAULT_FUEL) -> Pushout:
    """leg.dst x_{Ty0} El0 as the pushout presentation: the leg's target
    plus a point of the leg type."""
    return pushout(mk_Ty(0), mk_El(0), leg, fuel=fuel)


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


# ---------------------------------------------------------------------------
# Unit and triangles
# ---------------------------------------------------------------------------


@dataclass
class UnitResult:
    """The unit arrow at a leg, with the theories it runs between and the
    product the unit laws read; the families theories are poly_apply's."""

    base: Theory
    leg: Interpretation
    fib: Pushout  # base x_{Ty0} El0
    eta: Interpretation  # from P(base x_{Ty0} El0) into base
    pi1: Interpretation  # base -> fib (inclusion)
    pi2: Interpretation  # El0 -> fib
    prod: Coproduct  # base x Ty0


def derive_unit(leg: Interpretation, fuel: Fuel = deriv.DEFAULT_FUEL, fib: Optional[Pushout] = None) -> UnitResult:
    """Build the adjunction unit at a leg, over its target base, from
    weakening and projection; fib is the leg's fibre product when it is
    already built.

    The families theory of the fibred product splits into the families
    of the base and the pointed part, so the unit is glued from
    wk . (id, leg) on the first and proj . leg on the second; the
    defining equations are checked post hoc by check_unit_laws.
    """
    base = leg.dst
    fib = fib or fib_product_el0(leg, fuel)
    poly_fib = poly_apply(fib.theory)
    poly_base = poly_apply(base)
    prod = product_with_ty0(base)
    u = compose(weakening_interp(poly_base, prod), pairing_interp(leg, prod))
    v = compose(projection_interp(poly_apply(mk_El(0))), leg)

    # The images need no renaming.  A hypothesized variable's name depends
    # only on its declaration's context; the base's declarations are a
    # literal prefix of the fibre, and the point's context is empty, as
    # e0's is in El0.  So P(fib) binds the names P(base) and P(El0) bind.
    e0 = point_symbol(fib)
    mapping: dict[str, Expr] = {poly_fib.reserved: u.image(poly_base.reserved), e0: v.image("e0")}
    for d in base.decls:
        if d.is_symbol:
            mapping[d.name] = u.image(d.name)
    eta = Interpretation(poly_fib.theory, base, mapping, f"unit[{base.name}]")
    return UnitResult(base, leg, fib, eta, fib.into_prime, fib.into_total, prod)


@dataclass
class LawReport:
    name: str
    verdict: str  # Proved | Failed | Inconclusive
    axiom_instances: int = 0
    detail: str = ""
    steps: tuple = ()


def _law(name: str, prove: Callable[[], EquivalenceResult | JudgmentResult]) -> LawReport:
    """Run one law's proof and report it: a GatError while building its
    arrows is Failed; an unproved equivalence, or an arrow the proof
    needs whose validity is not proved, is Inconclusive."""
    try:
        result = prove()
    except GatError as exc:
        return LawReport(name, "Failed", 0, str(exc))
    if isinstance(result, JudgmentResult):
        return LawReport(name, "Inconclusive", 0, result.detail)
    steps = tuple(s for _, v in result.per_symbol for s in v.steps)
    if result.proved:
        return LawReport(name, "Proved", result.axiom_instances(), steps=steps)
    where = f" at symbol {result.per_symbol[-1][0]!r}" if result.per_symbol else ""
    return LawReport(
        name, "Inconclusive", result.axiom_instances(), f"not proved ({result.reason}){where}", steps
    )


def check_unit_laws(unit: UnitResult, fuel: Fuel = deriv.DEFAULT_FUEL) -> list[LawReport]:
    """The two equations pinning the unit down under the pullback image:
    first-projection law (weakening side) and second-projection law
    (projection side)."""
    poly_base, poly_fib, pel0 = poly_apply(unit.base), poly_apply(unit.fib.theory), poly_apply(mk_El(0))

    def wk() -> EquivalenceResult:
        lhs = compose(poly_interp(unit.pi1, poly_base, poly_fib), unit.eta)
        rhs = compose(weakening_interp(poly_base, unit.prod), pairing_interp(unit.leg, unit.prod))
        return equivalent(lhs, rhs, fuel)

    def proj() -> EquivalenceResult:
        lhs = compose(poly_interp(unit.pi2, pel0, poly_fib), unit.eta)
        return equivalent(lhs, compose(projection_interp(pel0), unit.leg), fuel)

    return [_law("unit-wk", wk), _law("unit-proj", proj)]


def recover_weakening(prod: Coproduct, unit: UnitResult, fuel: Fuel = deriv.DEFAULT_FUEL) -> EquivalenceResult:
    """Round trip: the unit at the product leg of prod = base x Ty0
    recovers weakening."""
    base = prod.left.src
    poly_base = poly_apply(base)
    # first projection of (base x Ty0) x_{Ty0} El0 onto base
    pi1_mapping = {
        d.name: prod.left.image(d.name) for d in base.decls if d.is_symbol
    }
    pi1 = Interpretation(base, unit.fib.theory, pi1_mapping, "pr1")
    p_pi1 = poly_interp(pi1, poly_base, poly_apply(unit.fib.theory))
    recovered = compose(p_pi1, unit.eta)
    return equivalent(recovered, weakening_interp(poly_base, prod), fuel)


def recover_projection(unit: UnitResult, fuel: Fuel = deriv.DEFAULT_FUEL) -> EquivalenceResult:
    """Round trip: the unit at the identity leg of Ty0 recovers projection."""
    pel0 = poly_apply(mk_El(0))
    if unit.fib.theory.decls != pel0.base.decls:
        raise GatError("pointed fibre of the one-type theory should present El0")
    recovered = Interpretation(pel0.theory, unit.base, dict(unit.eta.mapping), unit.eta.name)
    return equivalent(recovered, projection_interp(pel0), fuel)


def check_triangles(poly_base: PolyTheory, unit: UnitResult, fuel: Fuel = deriv.DEFAULT_FUEL) -> list[LawReport]:
    """The adjunction triangle identities.

    The first (at the base of poly_base) coincides with the fourth
    polynomial axiom; the second (at the unit's leg) reduces to the
    second or third axiom depending on the leg.
    """
    base = poly_base.base
    return [
        _law(f"triangle-counit[{base.name}]", lambda: _check_p4(poly_base, fib_product_el0(poly_base.leg, fuel), fuel)),
        _law(f"triangle-unit[{unit.base.name}]", lambda: _triangle_unit(unit, fuel)),
    ]


def _triangle_unit(unit: UnitResult, fuel) -> EquivalenceResult:
    poly_fib = poly_apply(unit.fib.theory)
    fib2 = fib_product_el0(poly_fib.leg, fuel)
    subst_fib = substitution_interp(poly_fib, fib2)
    eta_x_el0 = fib_arrow(unit.eta, unit.fib, fib2)
    composite = compose(subst_fib, eta_x_el0)
    return equivalent(composite, identity(unit.fib.theory), fuel)


# ---------------------------------------------------------------------------
# The four polynomial-functor axioms
# ---------------------------------------------------------------------------


def verify_polynomial_axioms(
    samples: list[Theory],
    fuel: Fuel = deriv.DEFAULT_FUEL,
    corrupt_subst: bool = False,
) -> list[LawReport]:
    """Check P1 (on Ty0), P2 (on El0) and P3/P4 per sample.

    Reports are total: every instance yields Proved, Failed or
    Inconclusive; nothing aborts early.  corrupt_subst mutates the
    substitution arrow used by P2 into an ill-typed one, for the
    mutation check.
    """
    # Built once per call: P3 and P4 of a sample share P(X) and the fibre
    # product of its leg, which P2 reads for El0, and P1 and P3[Ty0] share
    # Ty0 x Ty0.
    poly, prod = _once(poly_apply), _once(product_with_ty0)
    fib = _once(lambda p: fib_product_el0(p.leg, fuel))
    out: list[LawReport] = [
        _law("P1[Ty0]", lambda: _check_p1(prod(mk_Ty(0)), fuel)),
        _law("P2[El0]", lambda: _check_p2(poly(mk_El(0)), fib(poly(mk_El(0))), fuel, corrupt_subst)),
    ]
    for t in samples:
        out.append(_law(f"P3[{t.name}]", lambda: _check_p3(poly(t), prod(t), fib(poly(t)), fuel)))
        out.append(_law(f"P4[{t.name}]", lambda: _check_p4(poly(t), fib(poly(t)), fuel)))
    return out


def _once(build: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """build, memoized on the identity of its argument: for one verifier
    call, whose arguments all outlive it."""
    memo: dict[int, Any] = {}
    return lambda t: memo[id(t)] if id(t) in memo else memo.setdefault(id(t), build(t))


def _check_p1(prod: Coproduct, fuel) -> EquivalenceResult:
    ty0 = mk_Ty(0)
    pty0, pel0 = poly_apply(ty0), poly_apply(mk_El(0))
    incl = Interpretation(ty0, pel0.base, {"A0": App("A0")}, "element-of")
    p_incl = poly_interp(incl, pty0, pel0)
    lhs = compose(p_incl, projection_interp(pel0))
    rhs = compose(weakening_interp(pty0, prod), diagonal_interp(prod))
    return equivalent(lhs, rhs, fuel)


def _check_p2(pel0: PolyTheory, fib: Pushout, fuel, corrupt: bool = False) -> EquivalenceResult | JudgmentResult:
    subst = substitution_interp(pel0, fib)
    if corrupt:
        bad = dict(subst.mapping)
        bad["e0"] = App(point_symbol(fib))
        subst = Interpretation(subst.src, subst.dst, bad, "subst-corrupted")
    v = check_interpretation(subst, fuel)
    if not v.ok:
        return v
    ty0 = mk_Ty(0)
    fib_ty0 = fib_product_el0(identity(ty0), fuel)
    proj_x_el0 = fib_arrow(projection_interp(pel0), fib_ty0, fib)
    composite = compose(subst, proj_x_el0)
    canonical = Interpretation(
        pel0.base, fib_ty0.theory, identity(pel0.base).mapping, "iso"
    )
    return equivalent(composite, canonical, fuel)


def _check_p3(poly_base: PolyTheory, prod: Coproduct, fib_poly: Pushout, fuel) -> EquivalenceResult:
    fib_prod = fib_product_el0(product_leg(prod), fuel)
    wk_x_el0 = fib_arrow(weakening_interp(poly_base, prod), fib_prod, fib_poly)
    subst = substitution_interp(poly_base, fib_poly)
    composite = compose(subst, wk_x_el0)
    projection = compose(prod.left, fib_prod.into_prime)
    return equivalent(composite, projection, fuel)


def _check_p4(poly_base: PolyTheory, fib: Pushout, fuel) -> EquivalenceResult:
    unit = derive_unit(poly_base.leg, fuel, fib)
    subst = substitution_interp(poly_base, unit.fib)
    p_subst = poly_interp(subst, poly_base, poly_apply(unit.fib.theory))
    composite = compose(p_subst, unit.eta)
    return equivalent(composite, identity(poly_base.theory), fuel)


# ---------------------------------------------------------------------------
# Tower isomorphisms and the Pi square
# ---------------------------------------------------------------------------


def tower_iso(n: int, element: bool, fuel: Fuel = deriv.DEFAULT_FUEL) -> EquivalenceResult:
    """P(Ty_n) = Ty_{n+1} and P(El_n) = El_{n+1}, via canonical renamings."""
    base = mk_El(n) if element else mk_Ty(n)
    target = mk_El(n + 1) if element else mk_Ty(n + 1)
    p = poly_apply(base)
    fwd = positional_renaming(p.theory, target)
    back = positional_renaming(target, p.theory)
    for i in (fwd, back):
        v = check_interpretation(i, fuel)
        if not v.ok:
            return EquivalenceResult(False, v.detail)
    return check_mutually_inverse(fwd, back, fuel)


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
        v = check_interpretation(i, fuel)
        if not v.ok:
            raise GatError(f"structure arrow {i.name} failed: {v.detail}")

    commutes = _law(
        "pi-square-commutes",
        lambda: equivalent(compose(t0, lam_arrow), compose(pi_arrow, t1), fuel),
    )

    corner = pushout(ty0, el0, pi_arrow, fuel, name="Ty1x[Ty0]El0")
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
        v = check_interpretation(i, fuel)
        if not v.ok:
            raise GatError(f"comparison arrow {i.name} failed: {v.detail}")

    forward = _law("pi-square-beta", lambda: equivalent(compose(inverse, comparison), identity(el1), fuel))
    backward = _law("pi-square-eta", lambda: equivalent(compose(comparison, inverse), identity(corner.theory), fuel))
    return PiSquareResult(commutes, forward, backward, comparison, inverse)


def default_samples() -> list[Theory]:
    lib = stdlib()
    return [terminal_theory(), lib["Ty0"], lib["El0"], lib["Mon"], lib["Cat"]]
