"""Derivability engine: judgment checking and fuel-bounded equality.

Typing is checked algorithmically (symbol rule instantiated by
substitution; weakening, projection and substitution are admissible in
this presentation).  Equality of types and terms is undecidable in
general, so the equality engine saturates a congruence structure over
subterm classes under a fuel bound and reports Proved with a replayable
trace, or Inconclusive.  It never claims disequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    ArgumentTypeMismatch,
    ArityMismatch,
    DuplicateName,
    InconclusiveEquality,
    NotAType,
    NotATerm,
    ScopeError,
    UnknownSymbol,
)
from .expr import (
    Ap,
    App,
    BVar,
    Expr,
    Lam,
    Pi,
    Var,
    abstract_var,
    free_vars,
    locally_closed,
    mentions_bound,
    open_binder,
    open_bound,
    substitute,
)
from .theory import Declaration, TermKind, Theory, TypeKind

Context = tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class RuleSet:
    """Which inference rules are active; the base rules are always on."""

    pi: bool = False


BASE = RuleSet()
WITH_PI = RuleSet(pi=True)


@dataclass(frozen=True)
class Fuel:
    """Resource bound making the equality check total.

    max_eq_nodes caps the number of distinct subterm nodes the engine may
    create; max_iterations caps saturation rounds.
    """

    max_eq_nodes: int = 10000
    max_iterations: int = 8

    def __post_init__(self) -> None:
        if self.max_eq_nodes <= 0 or self.max_iterations <= 0:
            raise ValueError("fuel components must be positive")


DEFAULT_FUEL = Fuel()


# ---------------------------------------------------------------------------
# Statements and judgments
# ---------------------------------------------------------------------------


class Statement:
    __slots__ = ()


@dataclass(frozen=True)
class CtxOk(Statement):
    pass


@dataclass(frozen=True)
class IsType(Statement):
    ty: Expr


@dataclass(frozen=True)
class HasType(Statement):
    term: Expr
    ty: Expr


@dataclass(frozen=True)
class TypeEq(Statement):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class TermEq(Statement):
    lhs: Expr
    rhs: Expr
    ty: Expr


@dataclass(frozen=True)
class Judgment:
    ctx: Context
    stmt: Statement


# ---------------------------------------------------------------------------
# Equality engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomStep:
    label: str
    subst: tuple[tuple[str, Expr], ...]
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class CongStep:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class BetaStep:
    redex: Expr
    contractum: Expr


@dataclass(frozen=True)
class EtaStep:
    expanded: Expr
    reduced: Expr


EqStep = AxiomStep | CongStep | BetaStep | EtaStep


@dataclass(frozen=True)
class EqVerdict:
    proved: bool
    steps: tuple = ()
    reason: str = ""  # for inconclusive verdicts: "fuel" or "closed"

    def axiom_instances(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, AxiomStep))


_DEAD = Var("__unused__")


def _strip_binder(e: Expr) -> Expr:
    """Remove one binder level from a body that does not mention index 0."""
    return open_bound(e, _DEAD)


class _Engine:
    """Union-find over a hash-consed term bank with congruence closure."""

    def __init__(self, fuel: Fuel):
        self.fuel = fuel
        self.exprs: list[Expr] = []
        self.memo: dict[Expr, int] = {}
        self.parent: list[int] = []
        self.steps: list[EqStep] = []
        self.overflow = False

    def add(self, e: Expr) -> Optional[int]:
        i = self.memo.get(e)
        if i is not None:
            return i
        if isinstance(e, App):
            for a in e.args:
                if self.add(a) is None:
                    return None
        elif isinstance(e, Ap):
            if self.add(e.fun) is None or self.add(e.arg) is None:
                return None
        if len(self.exprs) >= self.fuel.max_eq_nodes:
            self.overflow = True
            return None
        i = len(self.exprs)
        self.exprs.append(e)
        self.parent.append(i)
        self.memo[e] = i
        return i

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        a, b = self.find(i), self.find(j)
        if a == b:
            return False
        if a > b:
            a, b = b, a
        self.parent[b] = a  # older node stays root, keeps runs deterministic
        return True

    def same(self, i: int, j: int) -> bool:
        return self.find(i) == self.find(j)

    def class_equal(self, a: Expr, b: Expr) -> bool:
        if a == b:
            return True
        ia = self.memo.get(a)
        ib = self.memo.get(b)
        return ia is not None and ib is not None and self.same(ia, ib)

    def _signature(self, e: Expr):
        if isinstance(e, App):
            return ("app", e.head, tuple(self.find(self.memo[a]) for a in e.args))
        if isinstance(e, Ap):
            return ("@", self.find(self.memo[e.fun]), self.find(self.memo[e.arg]))
        return None

    def congruence(self) -> bool:
        changed_any = False
        while True:
            changed = False
            sigs: dict = {}
            for i, e in enumerate(self.exprs):
                sig = self._signature(e)
                if sig is None:
                    continue
                j = sigs.get(sig)
                if j is None:
                    sigs[sig] = i
                elif not self.same(i, j):
                    self.union(i, j)
                    self.steps.append(CongStep(self.exprs[j], e))
                    changed = True
            if not changed:
                return changed_any
            changed_any = True


def _node_shape(u: Expr):
    if isinstance(u, App):
        return ("app", u.head, len(u.args))
    if isinstance(u, Ap):
        return ("@",)
    return None


def _class_index(eng: _Engine) -> dict[tuple[int, tuple], Expr]:
    """Per class and node shape, the earliest member: the representative
    rigid matching is allowed to look through."""
    index: dict[tuple[int, tuple], Expr] = {}
    for j, u in enumerate(eng.exprs):
        shape = _node_shape(u)
        if shape is None:
            continue
        key = (eng.find(j), shape)
        if key not in index:
            index[key] = u
    return index


def _representative(eng: _Engine, index, t: Expr, shape: tuple):
    """The class representative of t with the given shape, if any; t
    itself when it is not a bank node (binder innards)."""
    ti = eng.memo.get(t)
    if ti is None:
        return t if _node_shape(t) == shape else None
    return index.get((eng.find(ti), shape))


def _match_all(eng: _Engine, index, pat: Expr, t: Expr, pvars: frozenset[str], sub: dict[str, Expr]):
    """Match a pattern against a term up to the engine's equivalence.

    Rigid pattern nodes match the class representative of their shape,
    so later rounds see through earlier merges; pattern-variable
    bindings must be locally closed and class-consistent.  Yields
    substitutions in a deterministic order.
    """
    if isinstance(pat, Var) and pat.name in pvars:
        if not locally_closed(t):
            return
        prev = sub.get(pat.name)
        if prev is None:
            out = dict(sub)
            out[pat.name] = t
            yield out
        elif eng.class_equal(prev, t):
            yield sub
        return
    if isinstance(pat, (Var, BVar)):
        if pat == t or eng.class_equal(pat, t):
            yield sub
        return
    if isinstance(pat, App):
        u = _representative(eng, index, t, ("app", pat.head, len(pat.args)))
        if u is None:
            return
        subs = [sub]
        for pa, ua in zip(pat.args, u.args):
            subs = [s2 for s0 in subs for s2 in _match_all(eng, index, pa, ua, pvars, s0)]
            if not subs:
                return
        yield from subs
        return
    if isinstance(pat, Ap):
        u = _representative(eng, index, t, ("@",))
        if u is None:
            return
        for s1 in _match_all(eng, index, pat.fun, u.fun, pvars, sub):
            yield from _match_all(eng, index, pat.arg, u.arg, pvars, s1)
        return
    if isinstance(pat, Pi):
        if isinstance(t, Pi):
            for s1 in _match_all(eng, index, pat.dom, t.dom, pvars, sub):
                yield from _match_all(eng, index, pat.cod, t.cod, pvars, s1)
        return
    if isinstance(pat, Lam):
        if isinstance(t, Lam):
            for s1 in _match_all(eng, index, pat.dom, t.dom, pvars, sub):
                yield from _match_all(eng, index, pat.body, t.body, pvars, s1)
        return


def _axiom_patterns(theory: Theory):
    """Equational axioms as (label, lhs, rhs, telescope vars)."""
    return [(d.name, d.kind.lhs, d.kind.rhs, frozenset(d.arity)) for d in theory.axioms()]


def eq_check(
    theory: Theory,
    ctx: Context,
    lhs: Expr,
    rhs: Expr,
    rules: RuleSet = BASE,
    fuel: Fuel = DEFAULT_FUEL,
) -> EqVerdict:
    """Decide, with fuel, whether lhs = rhs follows from the theory's axioms.

    Saturation seeds the class structure with both sides, instantiates
    axioms by matching a whole side against existing nodes, closes under
    congruence, and (under the Pi rules) fires beta and eta as oriented
    rewrites.  Deterministic: iteration follows insertion order.
    """
    if lhs == rhs:
        return EqVerdict(True, ())
    eng = _Engine(fuel)
    il = eng.add(lhs)
    ir = eng.add(rhs)
    if il is None or ir is None:
        return EqVerdict(False, reason="fuel")
    axioms = _axiom_patterns(theory)
    seen: set = set()

    for _ in range(fuel.max_iterations):
        changed = False

        if rules.pi:
            for i, e in list(enumerate(eng.exprs)):
                if isinstance(e, Ap) and isinstance(e.fun, Lam):
                    contractum = open_bound(e.fun.body, e.arg)
                    j = eng.add(contractum)
                    if j is None:
                        break
                    if eng.union(i, j):
                        eng.steps.append(BetaStep(e, contractum))
                        changed = True
                elif (
                    isinstance(e, Lam)
                    and isinstance(e.body, Ap)
                    and e.body.arg == BVar(0)
                    and not mentions_bound(e.body.fun, 0)
                ):
                    reduced = _strip_binder(e.body.fun)
                    j = eng.add(reduced)
                    if j is None:
                        break
                    if eng.union(i, j):
                        eng.steps.append(EtaStep(e, reduced))
                        changed = True

        index = _class_index(eng)
        for label, al, ar, pvars in axioms:
            for side, other in ((al, ar), (ar, al)):
                if isinstance(side, Var):
                    continue
                if not set(free_vars(other)) <= set(free_vars(side)):
                    continue
                # one probe per equivalence class, against representatives
                for j, t in list(enumerate(eng.exprs)):
                    if eng.find(j) != j:
                        continue
                    for sub in list(_match_all(eng, index, side, t, pvars, {})):
                        key = (label, tuple(sorted(sub.items())))
                        if key in seen:
                            continue
                        seen.add(key)
                        inst_l = substitute(al, sub)
                        inst_r = substitute(ar, sub)
                        jl = eng.add(inst_l)
                        jr = eng.add(inst_r)
                        if jl is None or jr is None:
                            break
                        if eng.union(jl, jr):
                            eng.steps.append(
                                AxiomStep(label, tuple(sorted(sub.items())), inst_l, inst_r)
                            )
                            changed = True

        if eng.congruence():
            changed = True
        if eng.overflow:
            return EqVerdict(False, reason="fuel")
        if eng.same(il, ir):
            return EqVerdict(True, tuple(eng.steps))
        if not changed:
            return EqVerdict(False, reason="closed")
    return EqVerdict(False, reason="fuel")


def replay_eq_trace(
    theory: Theory, lhs: Expr, rhs: Expr, steps: Iterable[EqStep], rules: RuleSet = BASE
) -> bool:
    """Independently validate a Proved trace step by step.

    Re-derives each step from scratch: axiom steps are re-instantiated
    from the named axiom, congruence steps need equal heads and
    pairwise-merged children, beta/eta steps are recomputed.  Returns
    True when every step validates and the goal ends up merged.
    """
    parent: dict[Expr, Expr] = {}

    def find(e: Expr) -> Expr:
        while parent.get(e, e) != e:
            e = parent[e]
        return e

    def union(a: Expr, b: Expr) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def merged(a: Expr, b: Expr) -> bool:
        return a == b or find(a) == find(b)

    for st in steps:
        if isinstance(st, AxiomStep):
            try:
                d = theory.decl(st.label)
            except UnknownSymbol:
                return False
            if not d.is_axiom:
                return False
            al, ar = d.kind.lhs, d.kind.rhs
            sub = dict(st.subst)
            if not set(sub) <= set(d.arity):
                return False
            if substitute(al, sub) != st.lhs or substitute(ar, sub) != st.rhs:
                return False
            union(st.lhs, st.rhs)
        elif isinstance(st, CongStep):
            a, b = st.lhs, st.rhs
            if isinstance(a, App) and isinstance(b, App):
                if a.head != b.head or len(a.args) != len(b.args):
                    return False
                if not all(merged(x, y) for x, y in zip(a.args, b.args)):
                    return False
            elif isinstance(a, Ap) and isinstance(b, Ap):
                if not (merged(a.fun, b.fun) and merged(a.arg, b.arg)):
                    return False
            else:
                return False
            union(a, b)
        elif isinstance(st, BetaStep):
            if not rules.pi:
                return False
            r = st.redex
            if not (isinstance(r, Ap) and isinstance(r.fun, Lam)):
                return False
            if open_bound(r.fun.body, r.arg) != st.contractum:
                return False
            union(r, st.contractum)
        elif isinstance(st, EtaStep):
            if not rules.pi:
                return False
            e = st.expanded
            if not (
                isinstance(e, Lam)
                and isinstance(e.body, Ap)
                and e.body.arg == BVar(0)
                and not mentions_bound(e.body.fun, 0)
            ):
                return False
            if _strip_binder(e.body.fun) != st.reduced:
                return False
            union(e, st.reduced)
        else:
            return False
    return merged(lhs, rhs)


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


def _scope_check(bound: Iterable[str], e: Expr) -> None:
    bound_set = set(bound)
    for v in free_vars(e):
        if v not in bound_set:
            raise ScopeError(f"variable {v!r} is not bound by the context")
    if not locally_closed(e):
        raise ScopeError("expression has a dangling bound-variable index")


def _lookup(theory: Theory, head: str) -> Declaration:
    d = theory.decl(head)
    if not d.is_symbol:
        raise UnknownSymbol(f"{head!r} names an axiom, not a symbol")
    return d


def _equal_types(
    theory: Theory,
    ctx: Context,
    got: Expr,
    expected: Expr,
    rules: RuleSet,
    fuel: Fuel,
    sink: Optional[list],
) -> None:
    if got == expected:
        return
    v = eq_check(theory, ctx, got, expected, rules, fuel)
    if v.proved:
        if sink is not None:
            sink.append(v)
        return
    if v.reason == "fuel":
        raise InconclusiveEquality(
            f"could not decide {_brief(got)} = {_brief(expected)} within fuel"
        )
    raise ArgumentTypeMismatch(f"expected type {_brief(expected)}, inferred {_brief(got)}")


def _brief(e: Expr) -> str:
    # terse inline rendering for error messages; the full printer lives in gatform
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BVar):
        return f"^{e.index}"
    if isinstance(e, App):
        if not e.args:
            return e.head
        return f"{e.head}({', '.join(_brief(a) for a in e.args)})"
    if isinstance(e, Pi):
        return f"Pi ({e.hint} : {_brief(e.dom)}) {_brief(e.cod)}"
    if isinstance(e, Lam):
        return f"lam ({e.hint} : {_brief(e.dom)}) {_brief(e.body)}"
    if isinstance(e, Ap):
        return f"{_brief(e.fun)} @ {_brief(e.arg)}"
    return repr(e)


def _check_args(
    theory: Theory,
    ctx: Context,
    decl: Declaration,
    args: tuple[Expr, ...],
    rules: RuleSet,
    fuel: Fuel,
    sink: Optional[list],
) -> dict[str, Expr]:
    if len(args) != len(decl.ctx):
        raise ArityMismatch(
            f"{decl.name!r} expects {len(decl.ctx)} arguments, got {len(args)}"
        )
    sub: dict[str, Expr] = {}
    for (param, pty), a in zip(decl.ctx, args):
        expected = substitute(pty, sub)
        got = infer_type(theory, ctx, a, rules, fuel, sink)
        _equal_types(theory, ctx, got, expected, rules, fuel, sink)
        sub[param] = a
    return sub


def check_is_type(
    theory: Theory,
    ctx: Context,
    ty: Expr,
    rules: RuleSet = BASE,
    fuel: Fuel = DEFAULT_FUEL,
    sink: Optional[list] = None,
) -> None:
    """Check that ty is a derivable type over ctx."""
    if isinstance(ty, App):
        d = _lookup(theory, ty.head)
        if not isinstance(d.kind, TypeKind):
            raise NotAType(f"{ty.head!r} is a term symbol, not a type symbol")
        _check_args(theory, ctx, d, ty.args, rules, fuel, sink)
        return
    if isinstance(ty, Pi):
        if not rules.pi:
            raise NotAType("Pi types require the pi rule set")
        check_is_type(theory, ctx, ty.dom, rules, fuel, sink)
        avoid = [x for x, _ in ctx]
        x, cod = open_binder(ty.cod, ty.hint, avoid)
        check_is_type(theory, ctx + ((x, ty.dom),), cod, rules, fuel, sink)
        return
    raise NotAType(f"{_brief(ty)} is not a type expression")


def infer_type(
    theory: Theory,
    ctx: Context,
    term: Expr,
    rules: RuleSet = BASE,
    fuel: Fuel = DEFAULT_FUEL,
    sink: Optional[list] = None,
) -> Expr:
    """Infer the type of a term over ctx.

    For an application the declared kind is instantiated by the
    (recursively checked) arguments; argument types are compared up to
    provable equality.
    """
    if isinstance(term, Var):
        for x, ty in ctx:
            if x == term.name:
                return ty
        raise ScopeError(f"variable {term.name!r} is not bound by the context")
    if isinstance(term, App):
        d = _lookup(theory, term.head)
        if isinstance(d.kind, TypeKind):
            raise NotATerm(f"{term.head!r} is a type symbol, not a term symbol")
        if not isinstance(d.kind, TermKind):
            raise UnknownSymbol(f"{term.head!r} names an axiom, not a symbol")
        sub = _check_args(theory, ctx, d, term.args, rules, fuel, sink)
        return substitute(d.kind.ty, sub)
    if isinstance(term, Ap):
        if not rules.pi:
            raise NotATerm("applications require the pi rule set")
        fty = infer_type(theory, ctx, term.fun, rules, fuel, sink)
        if not isinstance(fty, Pi):
            raise NotATerm(f"applied expression has non-function type {_brief(fty)}")
        aty = infer_type(theory, ctx, term.arg, rules, fuel, sink)
        _equal_types(theory, ctx, aty, fty.dom, rules, fuel, sink)
        return open_bound(fty.cod, term.arg)
    if isinstance(term, Lam):
        if not rules.pi:
            raise NotATerm("lambda terms require the pi rule set")
        check_is_type(theory, ctx, term.dom, rules, fuel, sink)
        avoid = [x for x, _ in ctx]
        x, body = open_binder(term.body, term.hint, avoid)
        bty = infer_type(theory, ctx + ((x, term.dom),), body, rules, fuel, sink)
        return Pi(term.dom, abstract_var(bty, x), term.hint)
    if isinstance(term, Pi):
        raise NotATerm("a Pi type is not a term")
    raise ScopeError("term has a dangling bound-variable index")


def check_context(
    theory: Theory,
    ctx: Context,
    rules: RuleSet = BASE,
    fuel: Fuel = DEFAULT_FUEL,
    sink: Optional[list] = None,
) -> None:
    """Check each telescope entry's type over the preceding prefix."""
    names: list[str] = []
    prefix: list[tuple[str, Expr]] = []
    for x, ty in ctx:
        if x in names:
            raise DuplicateName(f"context variable {x!r} repeated")
        _scope_check(names, ty)
        check_is_type(theory, tuple(prefix), ty, rules, fuel, sink)
        names.append(x)
        prefix.append((x, ty))


@dataclass
class JudgmentResult:
    status: str  # "ok" or "inconclusive"
    detail: str = ""
    eq_traces: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check_judgment(
    theory: Theory,
    judgment: Judgment,
    rules: RuleSet = BASE,
    fuel: Fuel = DEFAULT_FUEL,
) -> JudgmentResult:
    """Check one of the five judgment forms over the theory.

    Equality statements delegate to eq_check; an unproved equality yields
    an inconclusive result rather than an error, since the engine never
    refutes.
    """
    sink: list = []
    ctx = judgment.ctx
    check_context(theory, ctx, rules, fuel, sink)
    names = [x for x, _ in ctx]
    stmt = judgment.stmt
    if isinstance(stmt, CtxOk):
        return JudgmentResult("ok", eq_traces=tuple(sink))
    if isinstance(stmt, IsType):
        _scope_check(names, stmt.ty)
        check_is_type(theory, ctx, stmt.ty, rules, fuel, sink)
        return JudgmentResult("ok", eq_traces=tuple(sink))
    if isinstance(stmt, HasType):
        _scope_check(names, stmt.term)
        _scope_check(names, stmt.ty)
        check_is_type(theory, ctx, stmt.ty, rules, fuel, sink)
        got = infer_type(theory, ctx, stmt.term, rules, fuel, sink)
        _equal_types(theory, ctx, got, stmt.ty, rules, fuel, sink)
        return JudgmentResult("ok", eq_traces=tuple(sink))
    if isinstance(stmt, TypeEq):
        _scope_check(names, stmt.lhs)
        _scope_check(names, stmt.rhs)
        check_is_type(theory, ctx, stmt.lhs, rules, fuel, sink)
        check_is_type(theory, ctx, stmt.rhs, rules, fuel, sink)
        v = eq_check(theory, ctx, stmt.lhs, stmt.rhs, rules, fuel)
        if v.proved:
            return JudgmentResult("ok", eq_traces=tuple(sink) + (v,))
        return JudgmentResult("inconclusive", f"type equality not proved ({v.reason})")
    if isinstance(stmt, TermEq):
        _scope_check(names, stmt.lhs)
        _scope_check(names, stmt.rhs)
        check_is_type(theory, ctx, stmt.ty, rules, fuel, sink)
        for side in (stmt.lhs, stmt.rhs):
            got = infer_type(theory, ctx, side, rules, fuel, sink)
            _equal_types(theory, ctx, got, stmt.ty, rules, fuel, sink)
        v = eq_check(theory, ctx, stmt.lhs, stmt.rhs, rules, fuel)
        if v.proved:
            return JudgmentResult("ok", eq_traces=tuple(sink) + (v,))
        return JudgmentResult("inconclusive", f"term equality not proved ({v.reason})")
    raise TypeError(f"unexpected statement: {stmt!r}")
