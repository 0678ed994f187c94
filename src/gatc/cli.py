"""The gatc command line tool.

Subcommands check source files, run the colimit constructions, apply
the families functor, verify the polynomial-functor axioms, unit laws
and triangle identities, enumerate finite models, and emit the bundled
theory corpus.  Reports print one line per item, or a stable JSON
document under --json.

Exit codes: 0 all items ok/Proved; 1 any Failed or error; 2 any
Inconclusive (and none failed), including a model search that ran out of
its node budget; 3 usage or parse error, or an unreadable source file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from . import deriv, gatcat, gatform, models, poly, theory
from .deriv import AxiomStep, BetaStep, CongStep, EtaStep, Fuel
from .errors import BudgetExceeded, GatError, GatSyntaxError, InconclusiveEquality, NotAType, NotATerm
from .gatcat import Interpretation
from .theory import Theory

SCHEMA = "gatc-report/1"


@dataclass
class Item:
    name: str
    verdict: str  # ok | Proved | Failed | Inconclusive | error
    detail: str = ""
    extra: dict = field(default_factory=dict)
    trace: Optional[tuple] = None  # proof steps, serialized only for --trace

    def to_json(self, with_trace: bool) -> dict:
        out = {"name": self.name, "verdict": self.verdict, "detail": self.detail}
        out.update(self.extra)
        if with_trace and self.trace is not None:
            out["trace"] = _steps_json(self.trace)
        return out


@dataclass
class Report:
    command: str
    items: list[Item] = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def exit_code(self) -> int:
        verdicts = [i.verdict for i in self.items]
        if any(v in ("Failed", "error") for v in verdicts):
            return 1
        if any(v == "Inconclusive" for v in verdicts):
            return 2
        return 0

    def to_json(self, with_trace: bool) -> str:
        doc = {
            "schema": SCHEMA,
            "command": self.command,
            "items": [i.to_json(with_trace) for i in self.items],
        }
        doc.update(self.payload)
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self, elapsed: float) -> str:
        lines = []
        for i in self.items:
            detail = f"  ({i.detail})" if i.detail else ""
            extra = ""
            if "axiom_instances" in i.extra:
                extra = f"  [axiom instances: {i.extra['axiom_instances']}]"
            lines.append(f"{i.name}: {i.verdict}{extra}{detail}")
        for key, value in self.payload.items():
            if isinstance(value, str):
                lines.append(value.rstrip("\n"))
        lines.append(f"-- {len(self.items)} item(s) in {elapsed * 1000:.0f} ms")
        return "\n".join(lines) + "\n"


_STEP_KINDS = {AxiomStep: "axiom", CongStep: "congruence", BetaStep: "beta", EtaStep: "eta"}


def _step_field(value):
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):  # an axiom step's substitution
        return {v: gatform.print_expr(e) for v, e in value}
    return gatform.print_expr(value)


def _steps_json(steps) -> list:
    """Each step as its kind followed by its fields, in field order."""
    return [
        {"kind": _STEP_KINDS[type(s)], **{f.name: _step_field(getattr(s, f.name)) for f in fields(s)}}
        for s in steps
    ]


def _steps(verdicts) -> tuple:
    """The proof steps of a judgment's equalities, in the order they were proved."""
    return tuple(s for v in verdicts for s in v.steps)


# ---------------------------------------------------------------------------
# Source loading
# ---------------------------------------------------------------------------


@dataclass
class Environment:
    theories: dict[str, Theory] = field(default_factory=dict)
    interps: dict[str, Interpretation] = field(default_factory=dict)
    judgments: list[gatform.JudgmentBlock] = field(default_factory=list)
    items: list[Item] = field(default_factory=list)

    def theory(self, name: str) -> Theory:
        t = self.theories.get(name)
        if t is None:
            raise GatError(f"theory {name!r} is not defined (file or stdlib)")
        return t

    def interp(self, name: str) -> Interpretation:
        i = self.interps.get(name)
        if i is None:
            raise GatError(f"interpretation {name!r} is not defined")
        return i


def _error_item(name: str, exc: Exception, line: Optional[int] = None) -> Item:
    where = f"line {line}: " if line else ""
    undecided = isinstance(exc, (InconclusiveEquality, BudgetExceeded))
    verdict = "Inconclusive" if undecided else "error"
    return Item(name, verdict, f"{where}{type(exc).__name__}: {exc}")


def load_environment(path: Optional[str], rules, fuel: Fuel) -> Environment:
    env = Environment(theories=dict(theory.stdlib()))
    if path is None:
        return env
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from None
    sf = gatform.parse(text)
    seen_names: set[tuple[str, str]] = set()
    for block in sf.items:
        kind = type(block).__name__.removesuffix("Block").lower()
        if (kind, block.name) in seen_names:
            env.items.append(
                Item(f"{kind} {block.name}", "error", f"line {block.line}: duplicate {kind} name")
            )
            continue
        seen_names.add((kind, block.name))
        if isinstance(block, gatform.TheoryBlock):
            try:
                t = theory.check_theory(block.decls, rules, fuel, name=block.name)
            except GatError as exc:
                line = block.decl_lines.get(exc.decl, block.line)
                env.items.append(_error_item(f"theory {block.name}", exc, line))
                continue
            env.theories[block.name] = t
            env.items.append(Item(f"theory {block.name}", "ok"))
        elif isinstance(block, gatform.InterpBlock):
            try:
                src = env.theory(block.src_name)
                dst = env.theory(block.dst_name)
                i = gatform.resolve_interp_block(block, src, dst)
                v = gatcat.check_interpretation(i, rules, fuel)
            except (GatError, GatSyntaxError) as exc:
                env.items.append(_error_item(f"interp {block.name}", exc, block.line))
                continue
            if v.ok:
                env.interps[block.name] = i
                env.items.append(Item(f"interp {block.name}", "ok", trace=_steps(v.eq_traces)))
            else:
                env.items.append(Item(f"interp {block.name}", "Inconclusive", v.detail))
        else:
            env.judgments.append(block)
    return env


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args, env, report, rules, fuel) -> None:
    for jb in env.judgments:
        name = f"judgment {jb.name}"
        try:
            t = env.theory(jb.theory_name)
            r = deriv.check_judgment(t, deriv.Judgment(jb.ctx, jb.stmt), rules, fuel)
        except GatError as exc:
            report.items.append(_error_item(name, exc, jb.line))
            continue
        report.items.append(Item(name, "ok" if r.ok else "Inconclusive", r.detail, trace=_steps(r.eq_traces)))


def cmd_eq(args, env, report, rules, fuel) -> None:
    t = env.theory(args.theory)
    ctx = gatform.parse_context(args.ctx) if args.ctx else ()
    scope = [x for x, _ in ctx]
    lhs = gatform.parse_expr(args.lhs, scope)
    rhs = gatform.parse_expr(args.rhs, scope)
    deriv.check_context(t, ctx, rules, fuel)
    # A goal is a term equation unless its left side is not a term; then
    # it is a type equation, and the term equation's error stands when it
    # is not one either.
    try:
        deriv.presupposed(t, ctx, deriv.TermEq(lhs, rhs), rules, fuel)
    except NotATerm as not_a_term:
        try:
            deriv.presupposed(t, ctx, deriv.TypeEq(lhs, rhs), rules, fuel)
        except NotAType:
            raise not_a_term from None
    v = deriv.eq_check(t, ctx, lhs, rhs, rules, fuel)
    item = Item(
        "eq",
        "Proved" if v.proved else "Inconclusive",
        "" if v.proved else f"saturation {v.reason}",
        {"axiom_instances": v.axiom_instances()},
        v.steps,
    )
    report.items.append(item)


def cmd_coprod(args, env, report, rules, fuel) -> None:
    cp = gatcat.coproduct(env.theory(args.left), env.theory(args.right))
    report.items.append(Item(f"coproduct {args.left}+{args.right}", "ok"))
    report.payload["theory"] = gatform.print_theory(cp.theory, args.unicode)


def cmd_coeq(args, env, report, rules, fuel) -> None:
    try:
        ce = gatcat.coequalizer(env.interp(args.left), env.interp(args.right), rules, fuel)
    except GatError as exc:
        report.items.append(_error_item("coequalizer", exc))
        return
    report.items.append(Item("coequalizer", "ok"))
    report.payload["theory"] = gatform.print_theory(ce.theory, args.unicode)


def cmd_pushout(args, env, report, rules, fuel) -> None:
    po = gatcat.pushout(env.theory(args.base), env.theory(args.total), env.interp(args.along), rules, fuel)
    report.items.append(Item("pushout", "ok"))
    report.payload["theory"] = gatform.print_theory(po.theory, args.unicode)


def cmd_poly(args, env, report, rules, fuel) -> None:
    p = poly.poly_apply(env.theory(args.theory))
    report.items.append(Item(f"families of {args.theory}", "ok"))
    report.payload["theory"] = gatform.print_theory(p.theory, args.unicode)


def _law_item(r: poly.LawReport) -> Item:
    return Item(r.name, r.verdict, r.detail, {"axiom_instances": r.axiom_instances}, r.steps)


def cmd_verify_poly(args, env, report, rules, fuel) -> None:
    names = args.samples.split(",") if args.samples else [t.name for t in poly.default_samples()]
    samples = []
    for n in names:
        n = n.strip()
        samples.append(theory.terminal_theory() if n == "terminal" else env.theory(n))
    for r in poly.verify_polynomial_axioms(samples, rules, fuel, corrupt_subst=args.corrupt_subst):
        report.items.append(_law_item(r))


def cmd_unit_triangles(args, env, report, rules, fuel) -> None:
    lib = theory.stdlib()
    ty0, el0, mon = lib["Ty0"], lib["El0"], lib["Mon"]
    prod = poly.product_with_ty0(mon)
    el0_leg = Interpretation(ty0, el0, {"A0": gatform.parse_expr("A0")}, "element-of")
    # Each unit is derived once and read by its laws, the round trips and
    # the triangles; a unit that cannot be built fails the command.  The
    # laws and triangles report a GatError as a Failed item themselves.
    units = {
        label: poly.derive_unit(leg, fuel)
        for label, leg in (
            ("Ty0-id", gatcat.identity(ty0)),
            ("MonxTy0-pr2", poly.product_leg(prod)),
            ("El0-leg", el0_leg),
        )
    }
    for label, unit in units.items():
        for r in poly.check_unit_laws(unit, rules, fuel):
            report.items.append(_law_item(replace(r, name=f"{r.name}[{label}]")))
    try:
        rw = poly.recover_weakening(prod, units["MonxTy0-pr2"], rules, fuel)
        report.items.append(Item("recover-wk[Mon]", "Proved" if rw.proved else "Inconclusive"))
        rp = poly.recover_projection(units["Ty0-id"], rules, fuel)
        report.items.append(Item("recover-proj", "Proved" if rp.proved else "Inconclusive"))
    except GatError as exc:
        report.items.append(_error_item("recover", exc))
    for unit in units.values():
        for r in poly.check_triangles(poly.poly_apply(unit.base), unit, rules, fuel):
            report.items.append(_law_item(r))


def cmd_pi_square(args, env, report, rules, fuel) -> None:
    if not rules.pi:
        raise UsageError("pi-square requires --rules pi")
    r = poly.pi_square(fuel)
    for law in (r.commutes, r.forward, r.backward):
        report.items.append(_law_item(law))


def cmd_present(args, env, report, rules, fuel) -> None:
    t = env.theory(args.theory)
    clauses = gatcat.limit_presentation(t)
    for c in clauses:
        match c.kind:
            case theory.IsType():
                kind = f"pullback against the context tower (n={c.n})"
            case theory.HasType():
                kind = f"pullback against the element tower (n={c.n})"
            case _:
                kind = f"equalizer of two classifying maps (n={c.n})"
        report.items.append(Item(f"clause {c.decl_name}", "ok", kind))
    if args.reconstruct:
        rec, renaming = gatcat.reconstruct(clauses, rules, fuel)
        fwd = gatcat.renaming_interpretation(t, rec, renaming)
        inverse_names = {v: k for k, v in renaming.items()}
        back = gatcat.renaming_interpretation(
            rec, t, {d.name: inverse_names[d.name] for d in rec.decls if d.is_symbol}
        )
        for i in (fwd, back):
            v = gatcat.check_interpretation(i, rules, fuel)
            if not v.ok:
                report.items.append(Item("reconstruction", "Inconclusive", v.detail))
                return
        mi = gatcat.check_mutually_inverse(fwd, back, rules, fuel)
        report.items.append(
            Item("reconstruction", "Proved" if mi.proved else "Inconclusive")
        )


def cmd_models(args, env, report, rules, fuel) -> None:
    t = env.theory(args.theory)
    if args.count_only:
        count = models.count_models(t, args.max_size, args.budget)
    else:
        found = models.enumerate_models(t, args.max_size, args.budget)
        count = len(found)
        report.payload["models"] = [_model_json(m) for m in found]
    report.items.append(
        Item(f"models of {args.theory} (max size {args.max_size})", "ok", str(count), {"count": count})
    )


def _model_json(m: models.Model) -> dict:
    out: dict = {"carriers": {}, "functions": {}}
    for c, t in sorted(m.tables.items()):
        match m.theory.decl(c).kind:
            case theory.IsType():
                part, cell = out["carriers"], "size"
            case _:
                part, cell = out["functions"], "value"
        part[c] = [{"args": list(k), cell: v} for k, v in sorted(t.items())]
    return out


def cmd_stdlib(args, env, report, rules, fuel) -> None:
    lib = theory.stdlib()
    os.makedirs(args.emit, exist_ok=True)
    for name, t in lib.items():
        path = os.path.join(args.emit, f"{name}.gat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gatform.print_theory(t, args.unicode))
        report.items.append(Item(f"wrote {name}.gat", "ok"))
    interp_path = os.path.join(args.emit, "interpretations.gat")
    with open(interp_path, "w", encoding="utf-8") as fh:
        for i in gatcat.corpus_interpretations().values():
            fh.write(gatform.print_interp(i, args.unicode))
            fh.write("\n")
    report.items.append(Item("wrote interpretations.gat", "ok"))


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fuel-nodes", type=int, default=None, help="equality node budget")
    common.add_argument("--fuel-iters", type=int, default=None, help="saturation round budget")
    common.add_argument("--rules", choices=["base", "pi"], default="base")
    common.add_argument("--json", action="store_true", help="emit a stable JSON report")
    common.add_argument("--trace", action="store_true", help="include proof traces")
    common.add_argument("--unicode", action="store_true", help="pretty-print with unicode arrows")

    p = argparse.ArgumentParser(prog="gatc", description="generalized algebraic theory checker")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", parents=[common], help="check theories, interpretations and judgments")
    sp.add_argument("file")

    sp = sub.add_parser("eq", parents=[common], help="prove an equality with fuel")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--theory", required=True)
    sp.add_argument("--ctx", default="()")
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)

    sp = sub.add_parser("coprod", parents=[common], help="coproduct of two theories")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)

    sp = sub.add_parser("coeq", parents=[common], help="coequalizer of two interpretations")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)

    sp = sub.add_parser("pushout", parents=[common], help="pushout of a subtheory inclusion")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--base", required=True, help="the subtheory (a literal prefix)")
    sp.add_argument("--total", required=True)
    sp.add_argument("--along", required=True, help="interpretation out of the subtheory")

    sp = sub.add_parser("poly", parents=[common], help="apply the families functor")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--theory", required=True)

    sp = sub.add_parser("verify-poly", parents=[common], help="verify the polynomial-functor axioms")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--samples", default=None)
    sp.add_argument("--corrupt-subst", action="store_true", help="mutation check: break the substitution arrow")

    sp = sub.add_parser("unit-triangles", parents=[common], help="unit laws and triangle identities")
    sp.add_argument("file", nargs="?", default=None)

    sp = sub.add_parser("pi-square", parents=[common], help="the dependent-product pullback square")

    sp = sub.add_parser("present", parents=[common], help="limit presentation of a theory")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--theory", required=True)
    sp.add_argument("--reconstruct", action="store_true")

    sp = sub.add_parser("models", parents=[common], help="enumerate finite models")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--theory", required=True)
    sp.add_argument("--max-size", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--budget", type=int, default=2_000_000)

    sp = sub.add_parser("stdlib", parents=[common], help="emit the bundled corpus")
    sp.add_argument("--emit", required=True, metavar="DIR")
    return p


_COMMANDS = {
    "check": cmd_check,
    "eq": cmd_eq,
    "coprod": cmd_coprod,
    "coeq": cmd_coeq,
    "pushout": cmd_pushout,
    "poly": cmd_poly,
    "verify-poly": cmd_verify_poly,
    "unit-triangles": cmd_unit_triangles,
    "pi-square": cmd_pi_square,
    "present": cmd_present,
    "models": cmd_models,
    "stdlib": cmd_stdlib,
}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0

    nodes = args.fuel_nodes
    iters = args.fuel_iters if args.fuel_iters is not None else deriv.DEFAULT_FUEL.max_iterations
    try:
        if nodes is None:
            nodes = int(os.environ.get("GATC_FUEL_NODES", deriv.DEFAULT_FUEL.max_eq_nodes))
        fuel = Fuel(nodes, iters)
    except ValueError as exc:
        where = "GATC_FUEL_NODES: " if nodes is None else ""  # int() failed on it
        print(f"gatc: {where}{exc}", file=sys.stderr)
        return 3
    rules = deriv.WITH_PI if args.rules == "pi" else deriv.BASE

    start = time.monotonic()
    report = Report(args.cmd)
    try:
        env = load_environment(getattr(args, "file", None), rules, fuel)
        report.items += env.items
        _COMMANDS[args.cmd](args, env, report, rules, fuel)
    except UsageError as exc:
        print(f"gatc: {exc}", file=sys.stderr)
        return 3
    except GatSyntaxError as exc:
        print(f"gatc: syntax error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an unreadable source file or --emit directory
        print(f"gatc: {exc}", file=sys.stderr)
        return 3
    except GatError as exc:
        report.items.append(_error_item(args.cmd, exc))
    elapsed = time.monotonic() - start

    if args.json:
        out.write(report.to_json(args.trace))
    else:
        out.write(report.to_text(elapsed))
    return report.exit_code()


def main_script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_script()
