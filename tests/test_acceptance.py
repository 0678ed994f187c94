"""Acceptance suite: one test per criterion, one printed verdict line each.

Verdict lines are echoed in the terminal summary (outside pytest's
capture) via the hook in conftest; with -s they also appear inline.
"""

import io
import json
import random

from gatc import cli, deriv, gatform, models, poly, theory
from gatc.deriv import AxiomStep, BetaStep, EtaStep, Fuel
from gatc.errors import GatSyntaxError
from gatc.expr import App, Var
from gatc.gatcat import (
    Interpretation,
    check_interpretation,
    check_mutually_inverse,
    coproduct,
    corpus_interpretations,
    equivalent,
    identity,
    limit_presentation,
    mon_to_catpt,
    mon_to_catpt_variant,
    pushout,
    reconstruct,
    renaming_interpretation,
)
from gatc.theory import Theory, stdlib

LIB = stdlib()
PI_FREE = ["Cat", "Mon", "CatPt"] + [f"{k}{i}" for i in range(4) for k in ("Ty", "El")]


def report(n: int, label: str, ok: bool) -> None:
    from conftest import ACCEPTANCE_LINES

    line = f"ACCEPTANCE {n:2d} {label}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_criterion_1_corpus_well_formedness(tmp_path):
    emit = tmp_path / "corpus"
    code, _ = run_cli(["stdlib", "--emit", str(emit)])
    ok = code == 0
    for name in PI_FREE:
        c, _ = run_cli(["check", str(emit / f"{name}.gat")])
        ok = ok and c == 0
    c, _ = run_cli(["check", str(emit / "STLC.gat"), "--rules", "pi"])
    ok = ok and c == 0
    # the naturals encoding ships as corpus and is held to parse round-trip
    text = (emit / "MLTT-N.gat").read_text()
    [tb] = gatform.parse(text).theories()
    t2 = theory.check_theory(tb.decls, deriv.WITH_PI, name=tb.name)
    ok = ok and gatform.print_theory(t2) == text
    report(1, "corpus well-formedness", ok)


def test_criterion_2_interpretation_example():
    i, v = mon_to_catpt(), mon_to_catpt_variant()
    ok = check_interpretation(i).ok
    ok = ok and check_interpretation(v).ok
    ok = ok and equivalent(i, v).proved
    report(2, "monoid-into-pointed-category interpretation", ok)


def test_criterion_3_polynomial_axioms():
    code, out = run_cli(["verify-poly", "--json", "--trace"])
    ok = code == 0
    doc = json.loads(out)
    verdicts = {i["name"]: i for i in doc["items"]}
    expected = ["P1[Ty0]", "P2[El0]"] + [
        f"P{k}[{s}]" for s in ("terminal", "Ty0", "El0", "Mon", "Cat") for k in (3, 4)
    ]
    for name in expected:
        ok = ok and verdicts[name]["verdict"] == "Proved"
        if not name.startswith("P1"):
            ok = ok and verdicts[name]["axiom_instances"] == 0
            ok = ok and not any(s["kind"] == "axiom" for s in verdicts[name].get("trace", []))
    code_bad, _ = run_cli(["verify-poly", "--corrupt-subst"])
    ok = ok and code_bad == 1
    report(3, "polynomial axioms P1-P4 with mutation check", ok)


def test_criterion_4_functor_iteration_isomorphisms():
    ok = True
    for n in range(3):
        ok = ok and poly.tower_iso(n, element=False).proved
        ok = ok and poly.tower_iso(n, element=True).proved
    report(4, "families of the towers are the next towers", ok)


def test_criterion_5_unit_and_triangles():
    ty0, el0, mon = LIB["Ty0"], LIB["El0"], LIB["Mon"]
    prod = poly.product_with_ty0(mon)
    pr2 = Interpretation(ty0, prod.theory, {"A0": prod.right.image("A0")}, "pr2")
    el0_leg = Interpretation(ty0, el0, {"A0": App("A0")}, "element-of")
    instances = [(ty0, identity(ty0)), (prod.theory, pr2), (el0, el0_leg)]
    ok = True
    for base, leg in instances:
        unit = poly.derive_unit(leg)
        for law in poly.check_unit_laws(unit):
            ok = ok and law.verdict == "Proved"
    ok = ok and poly.recover_weakening(prod, poly.derive_unit(pr2)).proved
    ok = ok and poly.recover_projection(poly.derive_unit(identity(ty0))).proved
    for base, leg in instances:
        for law in poly.check_triangles(poly.poly_apply(base), poly.derive_unit(leg)):
            ok = ok and law.verdict == "Proved"
    report(5, "unit laws and triangle identities", ok)


POINTED_MONOID = """theory PointedMonoid {
  sym Mon : () => Type
  sym u : () => Mon
  sym mul : (y1 : Mon, y2 : Mon) => Mon
  ax _1 : (y : Mon) => mul(u, y) = y : Mon
  ax _2 : (y : Mon) => mul(y, u) = y : Mon
  ax _3 : (y1 : Mon, y2 : Mon, y3 : Mon) => mul(mul(y1, y2), y3) = mul(y1, mul(y2, y3)) : Mon
  sym e0 : () => Mon
}
"""


def test_criterion_6_pushout_presentation():
    po = pushout(LIB["Ty0"], LIB["El0"], corpus_interpretations()["Ty0ToMon"])
    printed = gatform.print_theory(Theory("PointedMonoid", po.theory.decls, po.theory.pi))
    ok = printed == POINTED_MONOID
    report(6, "pointed-monoid pushout presentation (byte-compared)", ok)


def test_criterion_7_model_oracle_duality():
    import itertools

    # independent naive oracle, written against the raw definition
    def naive_monoids(max_size):
        count = 0
        for size in range(max_size + 1):
            for unit in range(size):
                for flat in itertools.product(range(size), repeat=size * size):
                    mul = {
                        (a, b): flat[a * size + b] for a in range(size) for b in range(size)
                    }
                    if any(mul[(unit, y)] != y or mul[(y, unit)] != y for y in range(size)):
                        continue
                    if any(
                        mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]
                        for a in range(size)
                        for b in range(size)
                        for c in range(size)
                    ):
                        continue
                    count += 1
        return count

    ok = models.count_models(LIB["Mon"], 2) == naive_monoids(2)

    r1 = models.check_colimit_duality(coproduct(LIB["Ty0"], LIB["Ty0"]), 2)
    ok = ok and r1.bijection and r1.colimit_count == 9 and r1.component_counts == (3, 3)
    r2 = models.check_colimit_duality(coproduct(LIB["Mon"], LIB["Ty0"]), 2)
    ok = ok and r2.bijection
    po = pushout(LIB["Ty0"], LIB["El0"], corpus_interpretations()["Ty0ToMon"])
    r3 = models.check_colimit_duality(po, 2)
    ok = ok and r3.bijection
    report(7, "finite-model duality at carrier bound 2", ok)


def test_criterion_8_limit_presentation_reconstruction():
    ok = True
    for name in PI_FREE:
        t = LIB[name]
        clauses = limit_presentation(t)
        rec, renaming = reconstruct(clauses)
        fwd = renaming_interpretation(t, rec, renaming)
        inv = {v: k for k, v in renaming.items()}
        back = renaming_interpretation(
            rec, t, {d.name: inv[d.name] for d in rec.decls if d.is_symbol}
        )
        good = (
            check_interpretation(fwd).ok
            and check_interpretation(back).ok
            and check_mutually_inverse(fwd, back).proved
        )
        ok = ok and good
    report(8, "limit presentations reconstruct all corpus theories", ok)


def test_criterion_9_pi_square():
    r = poly.pi_square()
    ok = r.proved
    for law in (r.commutes, r.forward, r.backward):
        ok = ok and not any(isinstance(s, AxiomStep) for s in law.steps)
    ok = ok and any(isinstance(s, BetaStep) for s in r.forward.steps)
    ok = ok and any(isinstance(s, EtaStep) for s in r.backward.steps)
    code, _ = run_cli(["pi-square", "--rules", "pi"])
    ok = ok and code == 0
    report(9, "dependent-product square is a pullback via beta/eta", ok)


def test_criterion_10_robustness():
    ok = True
    rng = random.Random(2024)
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 48)))
        try:
            gatform.parse(blob.decode("latin-1"))
        except GatSyntaxError:
            pass
        except Exception:
            ok = False
            break

    mon = LIB["Mon"]
    sig = {"u": 0, "mul": 2}
    ctx = (("a", App("Mon")), ("b", App("Mon")))
    small, big = Fuel(80, 3), Fuel(800, 8)

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice([Var("a"), Var("b"), App("u")])
        return App("mul", (rand_expr(depth - 1), rand_expr(depth - 1)))

    for _ in range(200):
        lhs, rhs = rand_expr(3), rand_expr(3)
        v1 = deriv.eq_check(mon, ctx, lhs, rhs, deriv.BASE, small)
        v2 = deriv.eq_check(mon, ctx, lhs, rhs, deriv.BASE, small)
        ok = ok and v1 == v2
        if v1.proved:
            ok = ok and deriv.eq_check(mon, ctx, lhs, rhs, deriv.BASE, big).proved
    report(10, "parser fuzzing, determinism and fuel monotonicity", ok)
