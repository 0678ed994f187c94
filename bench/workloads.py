"""The benchmark's workloads: seeded inputs, timed calls, verdict checks.

Each workload builds one round: a fixed list of operations whose kinds
and sizes are the same for every seed, while the seed draws the terms,
variable choices, pairings and order.  An operation is a zero-argument
call into gatc's public API (timed) and a check of its outcome against
the references in reference.py (not timed).  A round is played many
times; for_round gives round r's operations.  In proofs every goal's
free variables get a fresh name in every round, so no timed call repeats
a goal seen before in its process and a cache of past goals cannot
answer it, while verdicts and traces stay the same from round to round.

proofs     seeded equality goals and typing judgments in Mon, Cat and
           STLC; deriv.eq_check does almost all the work.
structure  in-process ``gatc ... --json`` commands over the bundled
           corpus; typing, certification, constructions, verifiers and
           report rendering do the work, and eq_check gets many tiny calls.
models     enumerate_models and check_colimit_duality at small bounds
           under one node budget; the finite-model oracle does the work.

An operation fails when its verdict is wrong (Proved or ok on a goal
the reference calls non-derivable, a model count or duality report that
differs from the reference, P2 proved from a corrupted substitution),
when a Proved trace does not replay, when a derivable judgment is
refuted, when a call raises anything but the documented
InconclusiveEquality or BudgetExceeded, or when a JSON report differs
from its repeat.

Known defects stay in the rounds with their correct expected outcome, so
they count as failed or undecided until the program is fixed; they are
marked with the ROADMAP item that describes them.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

from gatc import cli, deriv, gatcat, models, theory
from gatc.errors import BudgetExceeded, InconclusiveEquality
from gatc.expr import Ap, App, BVar, Expr, Lam, Pi, Var, mk_pi

import reference as ref


@dataclass
class Outcome:
    """What a check says about one operation's result.

    decided: a correct verdict was reached (Proved, ok, or a complete
    enumeration); failed: the outcome is wrong, see the module docstring.
    """

    decided: bool
    failed: bool
    detail: str = ""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    known_defect: str = ""
    # the same operation over free variables renamed with a prefix
    renamed: Optional[Callable[[str], "Op"]] = None


def for_round(ops: list[Op], r: int) -> list[Op]:
    """Round r's operations: renamed goals in proofs, the same elsewhere."""
    return [op.renamed(f"r{r}_") if op.renamed else op for op in ops]


class Raised:
    """The outcome of a call that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"{type(self.exc).__name__}: {str(self.exc)[:200]}"


def run_op(op: Op):
    """The timed part of an operation: the call alone."""
    try:
        return op.call()
    except Exception as exc:  # every outcome is checked, none may stop the run
        return Raised(exc)


# ---------------------------------------------------------------------------
# Terms: the reference's tuple language to gatc expressions
# ---------------------------------------------------------------------------


def to_expr(t: tuple) -> Expr:
    tag = t[0]
    if tag == "v":
        return Var(t[1])
    if tag == "a":
        return App(t[1], tuple(to_expr(a) for a in t[2]))
    if tag == "lam":
        return Lam(to_expr(t[1]), to_expr(t[2]), "z")
    if tag == "ap":
        return Ap(to_expr(t[1]), to_expr(t[2]))
    return BVar(t[1])


def _rename(e: Expr, tag: str) -> Expr:
    """e with every free variable x renamed to tag + x."""
    if isinstance(e, Var):
        return Var(tag + e.name)
    if isinstance(e, App):
        return App(e.head, tuple(_rename(a, tag) for a in e.args))
    if isinstance(e, Pi):
        return Pi(_rename(e.dom, tag), _rename(e.cod, tag), e.hint)
    if isinstance(e, Lam):
        return Lam(_rename(e.dom, tag), _rename(e.body, tag), e.hint)
    if isinstance(e, Ap):
        return Ap(_rename(e.fun, tag), _rename(e.arg, tag))
    return e


def _rename_ctx(ctx: tuple, tag: str) -> tuple:
    return tuple((tag + name, _rename(ty, tag)) for name, ty in ctx)


def _tree(rng: random.Random, leaves: list, join: Callable[[tuple, tuple], tuple]) -> tuple:
    """A uniformly split random binary bracketing of leaves, in order."""
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randint(1, len(leaves) - 1)
    return join(_tree(rng, leaves[:k], join), _tree(rng, leaves[k:], join))


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------

_U = ref.app("u")
_MON_VARS = [f"m{i}" for i in range(16)]


def _mul(a: tuple, b: tuple) -> tuple:
    return ref.app("mul", a, b)


def _left(vs: list) -> tuple:
    e = vs[0]
    for v in vs[1:]:
        e = _mul(e, v)
    return e


def _right(vs: list) -> tuple:
    e = vs[-1]
    for v in reversed(vs[:-1]):
        e = _mul(v, e)
    return e


def _insert_units(rng: random.Random, t: tuple, count: int) -> tuple:
    for _ in range(count):
        t = _rewrite_at(rng, t, lambda s: [_mul(_U, s), _mul(s, _U)])
    return t


def _positions(t: tuple, path=()):
    yield path, t
    if t[0] == "a":
        for i, a in enumerate(t[2]):
            yield from _positions(a, path + (i,))


def _replace(t: tuple, path: tuple, new: tuple) -> tuple:
    if not path:
        return new
    args = list(t[2])
    args[path[0]] = _replace(args[path[0]], path[1:], new)
    return ("a", t[1], tuple(args))


def _rewrite_at(rng: random.Random, t: tuple, rewrites: Callable[[tuple], list]) -> tuple:
    """Apply one randomly chosen applicable rewrite at a random position."""
    choices = [(p, r) for p, s in _positions(t) for r in rewrites(s)]
    if not choices:
        return t
    path, new = rng.choice(choices)
    return _replace(t, path, new)


def _mon_rewrites(s: tuple) -> list:
    """One-step instances of Mon's axioms, in both directions, at s."""
    out = [_mul(_U, s), _mul(s, _U)]
    if s[0] == "a" and s[1] == "mul":
        x, y = s[2]
        if x == _U or y == _U:
            out.append(y if x == _U else x)
        if x[0] == "a" and x[1] == "mul":
            out.append(_mul(x[2][0], _mul(x[2][1], y)))
        if y[0] == "a" and y[1] == "mul":
            out.append(_mul(_mul(x, y[2][0]), y[2][1]))
    return out


def _mon_ctx(*terms: tuple):
    names = sorted({n for t in terms for n in ref.mon_word(t)})
    return tuple((n, App("Mon")) for n in names)


def _eq_op(label, th, ctx, el: Expr, er: Expr, derivable: bool, rules=deriv.BASE) -> Op:
    """eq_check on a labelled goal; Proved traces must replay."""

    def call():
        return deriv.eq_check(th, ctx, el, er, rules)

    def check(v) -> Outcome:
        if isinstance(v, Raised):
            return Outcome(False, True, repr(v))
        if not v.proved:
            return Outcome(False, False)
        if not derivable:
            return Outcome(False, True, "Proved a non-derivable goal")
        if not deriv.replay_eq_trace(th, el, er, v.steps, rules):
            return Outcome(False, True, "Proved trace does not replay")
        return Outcome(True, False)

    def renamed(tag: str) -> Op:
        return _eq_op(label, th, _rename_ctx(ctx, tag), _rename(el, tag), _rename(er, tag), derivable, rules)

    return Op(label, call, check, renamed=renamed)


def _judgment_op(label, th, ctx, stmt, derivable: bool, rules=deriv.BASE, known_defect="") -> Op:
    """check_judgment on a judgment; ok term equalities must replay."""
    j = deriv.Judgment(ctx, stmt)

    def call():
        return deriv.check_judgment(th, j, rules)

    def check(r) -> Outcome:
        if isinstance(r, Raised):
            if isinstance(r.exc, InconclusiveEquality):
                return Outcome(False, False, repr(r))
            return Outcome(False, True, f"refuted: {r!r}")
        if not r.ok:
            return Outcome(False, False, r.detail)
        if not derivable:
            return Outcome(False, True, "ok on a non-derivable judgment")
        if isinstance(stmt, deriv.TermEq):
            v = r.eq_traces[-1]
            if not deriv.replay_eq_trace(th, stmt.lhs, stmt.rhs, v.steps, rules):
                return Outcome(False, True, "Proved trace does not replay")
        return Outcome(True, False)

    def renamed(tag: str) -> Op:
        fields = (_rename(getattr(stmt, f.name), tag) for f in dataclasses.fields(stmt))
        return _judgment_op(label, th, _rename_ctx(ctx, tag), type(stmt)(*fields), derivable, rules, known_defect)

    return Op(label, call, check, known_defect, renamed)


def _mon_ops(rng: random.Random, mon) -> list[Op]:
    ops = []

    def goal(kind, lhs, rhs, expect: bool):
        derivable = ref.mon_word(lhs) == ref.mon_word(rhs)
        if derivable != expect:
            raise AssertionError(f"generator and normaliser disagree on {kind}")
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        ops.append(_eq_op(f"mon.{kind}", mon, _mon_ctx(lhs, rhs), to_expr(lhs), to_expr(rhs), derivable))

    for n in range(3, 9):
        vs = [ref.var(x) for x in rng.sample(_MON_VARS, n)]
        goal(f"assoc.{n}", _left(vs), _right(vs), True)
        goal(f"bracket.{n}", _tree(rng, vs, _mul), _tree(rng, vs, _mul), True)
        goal(f"units.{n}", _tree(rng, vs, _mul), _insert_units(rng, _tree(rng, vs, _mul), rng.randint(1, 3)), True)
    # short walks, then long ones on goals large enough that saturating
    # every bracketing would approach the default node fuel
    walks = [(leaves, 2, 8) for leaves in range(3, 9) for _ in range(3)]
    walks += [(leaves, 8, 24) for leaves in (10, 12, 14, 16)]
    for leaves, lo, hi in walks:
        vs = [ref.var(x) for x in rng.sample(_MON_VARS, leaves)]
        start = _tree(rng, vs, _mul)
        end = start
        for _ in range(rng.randint(lo, hi)):
            end = _rewrite_at(rng, end, _mon_rewrites)
        goal(f"walk.{leaves}", start, end, True)
    for n in range(2, 8):
        vs = [ref.var(x) for x in rng.sample(_MON_VARS, n)]
        perm = vs[:]
        while perm == vs:
            rng.shuffle(perm)
        goal(f"perm.{n}", _tree(rng, vs, _mul), _tree(rng, perm, _mul), False)
    for n in (3, 5):
        t = _insert_units(rng, _tree(rng, [ref.var(x) for x in rng.sample(_MON_VARS, n)], _mul), 2)
        ops.append(_judgment_op(f"mon.typing.{n}", mon, _mon_ctx(t), deriv.HasType(to_expr(t), App("Mon")), True))
    return ops


def _defect_mon_p(mon) -> Op:
    """ROADMAP item 2: a derivable typing judgment refuted as a mismatch."""
    pm = theory.extend(mon, theory.type_sym("P", (("m", App("Mon")),)))
    names = ["a", "b", "c", "d", "e"]
    vs = [ref.var(x) for x in names]
    pm = theory.extend(
        pm,
        theory.term_sym("p", tuple((x, App("Mon")) for x in names), App("P", (to_expr(_left(vs)),))),
    )
    ctx = tuple((x, App("Mon")) for x in names)
    stmt = deriv.HasType(App("p", tuple(Var(x) for x in names)), App("P", (to_expr(_right(vs)),)))
    return _judgment_op("mon.P-judgment", pm, ctx, stmt, True, known_defect="ROADMAP item 2")


def _comp(objs: dict, a: tuple, b: tuple) -> tuple:
    """comp over the objects recorded for the morphism words a and b."""
    src, mid = objs[a]
    _, tgt = objs[b]
    t = ref.app("comp", ref.var(src), ref.var(mid), ref.var(tgt), a, b)
    objs[t] = (src, tgt)
    return t


def _cat_path(n: int):
    """Morphisms f_i : o_i -> o_{i+1} with their objects, and a context."""
    obs = [f"o{i}" for i in range(n + 1)]
    fs = [ref.var(f"f{i}") for i in range(n)]
    objs = {f: (obs[i], obs[i + 1]) for i, f in enumerate(fs)}
    ctx = tuple((o, App("Ob")) for o in obs) + tuple(
        (f[1], App("Hom", (Var(obs[i]), Var(obs[i + 1])))) for i, f in enumerate(fs)
    )
    return fs, objs, ctx


def _with_ids(rng: random.Random, fs: list, objs: dict, count: int) -> list:
    out = list(fs)
    for _ in range(count):
        i = rng.randint(0, len(out))
        o = objs[out[i]][0] if i < len(out) else objs[out[-1]][1]
        ident = ref.app("id", ref.var(o))
        objs[ident] = (o, o)
        out.insert(i, ident)
    return out


def _cat_ops(rng: random.Random, cat) -> list[Op]:
    ops = []

    def hom(objs, t):
        src, tgt = objs[t]
        return App("Hom", (Var(src), Var(tgt)))

    def judged(kind, ctx, objs, lhs, rhs, expect: bool):
        derivable = ref.cat_word(lhs) == ref.cat_word(rhs)
        if derivable != expect:
            raise AssertionError(f"generator and normaliser disagree on {kind}")
        stmt = deriv.TermEq(to_expr(lhs), to_expr(rhs), hom(objs, lhs))
        ops.append(_judgment_op(f"cat.{kind}", cat, ctx, stmt, derivable))

    for n in range(3, 9):
        fs, objs, ctx = _cat_path(n)
        join = lambda a, b: _comp(objs, a, b)  # noqa: E731
        left = fs[0]
        for f in fs[1:]:
            left = join(left, f)
        right = fs[-1]
        for f in reversed(fs[:-1]):
            right = join(f, right)
        ops.append(_judgment_op(f"cat.typing.{n}", cat, ctx, deriv.HasType(to_expr(left), hom(objs, left)), True))
        judged(f"assoc.{n}", ctx, objs, left, right, True)
    for n in range(2, 7):
        fs, objs, ctx = _cat_path(n)
        join = lambda a, b: _comp(objs, a, b)  # noqa: E731
        a = _tree(rng, _with_ids(rng, fs, objs, rng.randint(0, 2)), join)
        b = _tree(rng, _with_ids(rng, fs, objs, rng.randint(1, 2)), join)
        judged(f"ids.{n}", ctx, objs, a, b, True)
    for n in range(2, 5):
        fs = [ref.var(f"e{i}") for i in range(n)]
        objs = {f: ("x", "x") for f in fs}
        ctx = (("x", App("Ob")),) + tuple((f[1], App("Hom", (Var("x"), Var("x")))) for f in fs)
        perm = fs[:]
        while perm == fs:
            rng.shuffle(perm)
        join = lambda a, b: _comp(objs, a, b)  # noqa: E731
        judged(f"perm.{n}", ctx, objs, _tree(rng, fs, join), _tree(rng, perm, join), False)
    return ops


def _stlc_ops(rng: random.Random, stlc) -> list[Op]:
    """Beta, eta and the two STLC axioms, under congruence wrappers."""
    a, b, c = ref.var("a"), ref.var("b"), ref.var("c")
    ty = App("Ty")
    arrow = mk_pi("z", App("El", (Var("a"),)), App("El", (Var("b"),)))
    fun_ab = App("El", (App("Fun", (Var("a"), Var("b"))),))
    ctx = (
        ("a", ty), ("b", ty), ("c", ty),
        ("f", arrow), ("f2", arrow),
        ("g", fun_ab), ("g2", fun_ab),
        ("h", App("El", (App("Fun", (Var("b"), Var("c"))),))),
        ("x", App("El", (Var("a"),))), ("x2", App("El", (Var("a"),))),
    )
    dom = ref.app("El", a)

    def pick(*names):
        return ref.var(rng.choice(names))

    def templates():
        f, g, x = pick("f", "f2"), pick("g", "g2"), pick("x", "x2")
        app_g = lambda arg: ref.app("app", a, b, g, arg)  # noqa: E731
        return [
            (ref.app("app", a, b, ref.app("abs", a, b, f), x), ("ap", f, x)),
            (ref.app("abs", a, b, ("lam", dom, app_g(("b", 0)))), g),
            (("ap", ("lam", dom, app_g(("b", 0))), x), app_g(x)),
            (("lam", dom, ("ap", f, ("b", 0))), f),
            (ref.app("app", a, b, ref.app("abs", a, b, ("lam", dom, ("ap", f, ("b", 0)))), x), ("ap", f, x)),
            (ref.app("app", a, b, ref.app("abs", a, b, ("lam", dom, app_g(("b", 0)))), x), app_g(x)),
        ]

    def wrap(t: tuple) -> tuple:
        # a congruence context of result type El(c); t : El(b)
        return ref.app("app", b, c, ref.var("h"), t)

    ops = []
    for _ in range(2):
        for i, (lhs, rhs) in enumerate(templates()):
            if i not in (1, 3) and rng.random() < 0.5:  # only El(b) terms can be wrapped
                lhs, rhs = wrap(lhs), wrap(rhs)
            derivable = ref.stlc_normal(lhs) == ref.stlc_normal(rhs)
            if not derivable:
                raise AssertionError("generator and normaliser disagree on an STLC goal")
            ops.append(_eq_op(f"stlc.goal.{i}", stlc, ctx, to_expr(lhs), to_expr(rhs), True, deriv.WITH_PI))
    for lhs, rhs in (
        (("ap", ref.var("f"), ref.var("x")), ("ap", ref.var("f2"), ref.var("x"))),
        (ref.app("app", a, b, ref.var("g"), ref.var("x")), ref.app("app", a, b, ref.var("g"), ref.var("x2"))),
        (ref.app("abs", a, b, ref.var("f")), ref.var("g")),
    ):
        if ref.stlc_normal(lhs) == ref.stlc_normal(rhs):
            raise AssertionError("generator and normaliser disagree on an STLC goal")
        ops.append(_eq_op("stlc.apart", stlc, ctx, to_expr(lhs), to_expr(rhs), False, deriv.WITH_PI))
    goals = templates()
    for i in (0, 2):  # terms of type El(b)
        stmt = deriv.HasType(to_expr(goals[i][0]), App("El", (Var("b"),)))
        ops.append(_judgment_op("stlc.typing", stlc, ctx, stmt, True, deriv.WITH_PI))
    return ops


PROOF_DRAWS = 10


def build_proofs(rng: random.Random, workdir: str) -> list[Op]:
    lib = theory.stdlib()
    ops = []
    # several draws per round, so the latency quantiles of one seed's
    # mix stay close to those of another's
    for _ in range(PROOF_DRAWS):
        ops += _mon_ops(rng, lib["Mon"])
        ops += _cat_ops(rng, lib["Cat"])
        ops += _stlc_ops(rng, lib["STLC"])
    ops.append(_defect_mon_p(lib["Mon"]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


class CliReport:
    def __init__(self, code: int, text: str):
        self.code = code
        self.text = text


def _cli_call(argv: list[str]) -> Callable[[], CliReport]:
    def call():
        out = io.StringIO()
        code = cli.main(argv, out=out)
        return CliReport(code, out.getvalue())

    return call


def _cli_op(label: str, argv: list[str], verdicts: Callable[[dict], str], codes=(0,), known_defect="", decides=(0,)) -> Op:
    """A CLI command; its JSON report must repeat byte for byte."""
    call = _cli_call(argv + ["--json"])
    first: dict[str, str] = {}

    def check(r) -> Outcome:
        if isinstance(r, Raised):
            return Outcome(False, True, repr(r))
        if r.code not in codes:
            return Outcome(False, True, f"exit {r.code}")
        if r.code == 3:
            return Outcome(False, False, "syntax error")
        if "text" not in first:
            repeat = call()  # the repeat runs outside the timed region
            first["text"] = repeat.text
        if r.text != first["text"]:
            return Outcome(False, True, "JSON report differs from its repeat")
        doc = json.loads(r.text)
        problem = verdicts(doc)
        if problem:
            return Outcome(False, True, problem)
        return Outcome(r.code in decides, False)

    return Op(label, call, check, known_defect)


def _all_pass(doc: dict) -> str:
    bad = [f"{i['name']}: {i['verdict']}" for i in doc["items"] if i["verdict"] not in ("ok", "Proved")]
    return "; ".join(bad)


def _with_theory(doc: dict) -> str:
    return _all_pass(doc) or ("" if doc.get("theory", "").strip() else "no theory in the report")


def _corrupt(doc: dict) -> str:
    p2 = [i for i in doc["items"] if i["name"].startswith("P2")]
    if not p2:
        return "no P2 item"
    if any(i["verdict"] == "Proved" for i in p2):
        return "a corrupted substitution proved P2"
    return _all_pass({"items": [i for i in doc["items"] if not i["name"].startswith("P2")]})


def _presented(n_decls: int) -> Callable[[dict], str]:
    def verdicts(doc: dict) -> str:
        clauses = [i for i in doc["items"] if i["name"].startswith("clause ")]
        if len(clauses) != n_decls:
            return f"{len(clauses)} clauses for {n_decls} declarations"
        if not any(i["name"] == "reconstruction" for i in doc["items"]):
            return "no reconstruction item"
        return _all_pass(doc)

    return verdicts


def _deep_eq(depth: int) -> str:
    """ROADMAP item 5: a left-nested mul of the given depth, over units."""
    e = "u"
    for _ in range(depth):
        e = f"mul({e}, u)"
    return e


def emit_corpus(workdir: str) -> str:
    corpus = os.path.join(workdir, "corpus")
    code = cli.main(["stdlib", "--emit", corpus, "--json"], out=io.StringIO())
    if code != 0:
        raise RuntimeError("gatc stdlib --emit failed")
    return corpus


def _mon_text(t: tuple) -> str:
    if t[0] == "v":
        return t[1]
    if t[1] == "u":
        return "u"
    return f"mul({_mon_text(t[2][0])}, {_mon_text(t[2][1])})"


def _eq_verdict(derivable: bool) -> Callable[[dict], str]:
    def verdicts(doc: dict) -> str:
        v = doc["items"][-1]["verdict"]
        if v == "Proved" and not derivable:
            return "Proved a non-derivable goal"
        return "" if v in ("Proved", "Inconclusive") else f"eq: {v}"

    return verdicts


# verify-poly samples that certify under the base rules
_POLY_SAMPLES = ["terminal", "Ty0", "El0", "Mon", "Cat", "CatPt", "Ty1", "El1"]
_PUSHOUT_TOTALS = ["El0", "Ty1", "El1", "Ty2", "El2", "Ty3", "El3"]


def build_structure(rng: random.Random, workdir: str) -> list[Op]:
    lib = theory.stdlib()
    corpus = emit_corpus(workdir)
    interps = os.path.join(corpus, "interpretations.gat")

    def rules(*names: str) -> list[str]:
        return ["--rules", "pi"] if any(lib[n].pi for n in names) else []

    ops = [_cli_op("check.interpretations", ["check", interps], _all_pass)]
    for name, t in lib.items():
        ops.append(_cli_op(f"check.{name}", ["check", os.path.join(corpus, f"{name}.gat")] + rules(name), _all_pass))
        ops.append(_cli_op(f"present.{name}", ["present", "--theory", name, "--reconstruct"] + rules(name), _presented(len(t.decls))))
        ops.append(_cli_op(f"poly.{name}", ["poly", "--theory", name] + rules(name), _with_theory))
    for _ in range(24):
        left, right = rng.choice(sorted(lib)), rng.choice(sorted(lib))
        ops.append(_cli_op("coprod", ["coprod", "--left", left, "--right", right] + rules(left, right), _with_theory))
    ops.append(_cli_op("coeq.variant", ["coeq", interps, "--left", "MonToCatPt", "--right", "MonToCatPtVariant"], _with_theory))
    for name in gatcat.corpus_interpretations():
        ops.append(_cli_op("coeq.same", ["coeq", interps, "--left", name, "--right", name], _with_theory))
    for total in _PUSHOUT_TOTALS:
        for along in ("Ty0ToMon", "Ty0ToCat"):
            argv = ["pushout", interps, "--base", "Ty0", "--total", total, "--along", along]
            ops.append(_cli_op(f"pushout.{total}", argv, _with_theory))
    ops.append(_cli_op("verify-poly", ["verify-poly"], _all_pass))
    for sample in _POLY_SAMPLES:
        ops.append(_cli_op(f"verify-poly.{sample}", ["verify-poly", "--samples", sample], _all_pass))
    ops.append(_cli_op("verify-poly.corrupt", ["verify-poly", "--corrupt-subst"], _corrupt, codes=(1,), decides=(1,)))
    ops.append(_cli_op("unit-triangles", ["unit-triangles"], _all_pass))
    ops.append(_cli_op("pi-square", ["pi-square", "--rules", "pi"], _all_pass))
    for n in range(3, 7):
        for _ in range(2):
            vs = [ref.var(x) for x in rng.sample(_MON_VARS, n)]
            lhs, rhs = _tree(rng, vs, _mul), _insert_units(rng, _tree(rng, vs, _mul), 1)
            ctx = "(" + ", ".join(f"{v[1]} : Mon" for v in sorted(vs)) + ")"
            argv = ["eq", "--theory", "Mon", "--ctx", ctx, "--lhs", _mon_text(lhs), "--rhs", _mon_text(rhs)]
            derivable = ref.mon_word(lhs) == ref.mon_word(rhs)
            ops.append(_cli_op(f"eq.{n}", argv, _eq_verdict(derivable), codes=(0, 2)))
    ops.append(
        _cli_op(
            "eq.deep-1500",
            ["eq", "--theory", "Mon", "--lhs", _deep_eq(1500), "--rhs", "u"],
            _eq_verdict(True),
            codes=(0, 2, 3),
            known_defect="ROADMAP item 5",
        )
    )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

# One node budget for every call.  Today's search needs 33,872 nodes for
# Ty3 at bound 2, so it finishes; it needs 120,618 for Mon at bound 3 and
# billions for Cat at bound 2 (ROADMAP item 3), so those two end
# undecided.  A small budget keeps every call well under a second, so a
# run repeats each of them many times.
MODEL_BUDGET = 40_000


def reference_count(name: str, bound: int) -> Optional[int]:
    if name == "Mon":
        return ref.mon_count(bound)
    if name == "Cat":
        return ref.CATEGORY_COUNTS.get(bound)
    if name == "CatPt":
        return ref.POINTED_CATEGORY_COUNTS.get(bound)
    if name[:2] in ("Ty", "El") and name[2:].isdigit():
        count = ref.ty_count if name[:2] == "Ty" else ref.el_count
        return count(int(name[2:]), bound)
    raise ValueError(f"no reference count for {name}")


def _enum_op(lib, name: str, bound: int, known_defect="") -> Op:
    expected = reference_count(name, bound)
    th = lib[name]

    def call():
        return models.enumerate_models(th, bound, MODEL_BUDGET)

    def check(r) -> Outcome:
        if isinstance(r, Raised):
            if isinstance(r.exc, BudgetExceeded):
                return Outcome(False, False, "budget exceeded")
            return Outcome(False, True, repr(r))
        if len(r) != expected:
            return Outcome(False, True, f"{len(r)} models, expected {expected}")
        return Outcome(True, False)

    return Op(f"enum.{name}@{bound}", call, check, known_defect)


def _duality_op(label: str, construction, bound: int, colimit: int, components: tuple) -> Op:
    def call():
        return models.check_colimit_duality(construction, bound, MODEL_BUDGET)

    def check(r) -> Outcome:
        if isinstance(r, Raised):
            if isinstance(r.exc, BudgetExceeded):
                return Outcome(False, False, "budget exceeded")
            return Outcome(False, True, repr(r))
        got = (r.bijection, r.colimit_count, tuple(r.component_counts))
        if got != (True, colimit, components):
            return Outcome(False, True, f"got {got}, expected {(True, colimit, components)}")
        return Outcome(True, False)

    return Op(f"duality.{label}@{bound}", call, check)


# The mix is fixed in kind and count, grouped by cost so that the latency
# quantiles fall inside a group rather than between groups: the median
# among the small enumerations, the 90th percentile among El2 at bound 2.
_SMALL = [
    ("Ty0", 3), ("Ty1", 1), ("Ty1", 2), ("Ty1", 3), ("Ty2", 1), ("Ty3", 1),
    ("El0", 3), ("El1", 1), ("El1", 2), ("El2", 1), ("Mon", 1), ("Mon", 2),
    ("Cat", 1), ("CatPt", 1),
]
_MEDIUM = [("El1", 3), ("Ty2", 2), ("Mon", 2)]
_COPRODUCT_PARTS = ["Ty0", "Ty1", "El0", "El1", "Mon"]
# Coproducts at bound 2, grouped by cost; the seed draws within a group.
_COPRODUCTS_AT_2 = (
    (4, [(a, b) for a in ("Ty0", "El0") for b in ("Ty0", "El0")]),
    (4, [p for a in ("Ty0", "El0") for b in ("Ty1", "El1", "Mon") for p in ((a, b), (b, a))]),
    (2, [(a, b) for a in ("Ty1", "El1", "Mon") for b in ("Ty1", "El1", "Mon")]),
)


def build_models(rng: random.Random, workdir: str) -> list[Op]:
    lib = theory.stdlib()
    ops = [_enum_op(lib, name, k) for name, k in _SMALL for _ in range(4)]
    ops += [_enum_op(lib, name, k) for name, k in _MEDIUM for _ in range(4)]
    ops += [_enum_op(lib, "El2", 2) for _ in range(8)]
    ops += [_enum_op(lib, "Mon", 3), _enum_op(lib, "Ty3", 2)]
    ops.append(_enum_op(lib, "Cat", 2, known_defect="ROADMAP item 3"))
    pairs = [(a, b, 1) for a in _COPRODUCT_PARTS for b in _COPRODUCT_PARTS]
    for count, group in _COPRODUCTS_AT_2:
        pairs += [(a, b, 2) for a, b in rng.sample(group, count)]
    for t1, t2, k in pairs:
        cp = gatcat.coproduct(lib[t1], lib[t2])
        counts = (reference_count(t1, k), reference_count(t2, k))
        ops.append(_duality_op(f"coproduct.{t1}+{t2}", cp, k, counts[0] * counts[1], counts))
    interps = gatcat.corpus_interpretations()
    po = gatcat.pushout(lib["Ty0"], lib["El0"], interps["Ty0ToMon"])
    ce = gatcat.coequalizer(interps["MonToCatPt"], interps["MonToCatPtVariant"])
    for k in (1, 2):
        ops.append(_duality_op("pushout.El0-Mon", po, k, ref.pointed_mon_count(k), (ref.mon_count(k), ref.el_count(0, k))))
    ops.append(_duality_op("coequalizer.CatPt", ce, 1, ref.POINTED_CATEGORY_COUNTS[1], (ref.POINTED_CATEGORY_COUNTS[1],)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"proofs": build_proofs, "structure": build_structure, "models": build_models}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
