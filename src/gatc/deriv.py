"""Derivability engine: judgment checking and fuel-bounded equality.

A judgment is a context and one of the five statement forms (CtxOk,
IsType, HasType, TypeEq, TermEq), which theory defines and this module
exports.  It is checked in three steps: its context, then what its
statement presupposes (a typing's type is a type; an equation's sides
are types, or terms of its type), then the claim itself.  A declaration
holds the statement it asserts over its context, a symbol's with its
subject left None (Declaration.judgment fills it in), and certification
checks its presuppositions over the earlier declarations.
Every check runs under the rules the theory was certified under
(Theory.pi): the base rules, and the Pi rules for Pi types, lambda
terms and application when it is set; eq_check, replay_eq_trace and
check_judgment also take rules that can add Pi.
Typing is checked algorithmically (the symbol rule, with each
argument's inferred type compared in place with its parameter's declared
type under the arguments before it, the instance built only on a
mismatch; weakening, projection and substitution are admissible in this
presentation).  Equality of types and terms is undecidable in
general, so the equality engine saturates an e-graph under a fuel bound:
hash-consed terms in congruence-closed classes, axiom sides e-matched
against every term of a class, and beta/eta as oriented rewrites.  It
reports Proved with a replayable trace, or Inconclusive, and never
claims disequality; typing reports an argument type mismatch only for
types that are provably apart.  A trace is the derivation of the goal,
not the search log: the search links the two terms of each union in a
proof forest, and the trace holds the steps on the forest path between
the goal's sides and, for each congruence among them, the explanations
of its children, in the order the search took them (proof-producing
congruence closure, Nieuwenhuis & Oliveras, RTA 2005).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Container, Iterable, Optional

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
    children,
    free_vars,
    locally_closed,
    mentions_bound,
    open_binder,
    open_bound,
    substitute,
)
from .theory import CtxOk, Declaration, HasType, IsType, Statement, TermEq, Theory, TypeEq  # noqa: F401

Context = tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class RuleSet:
    """Rules a caller of eq_check, replay_eq_trace or check_judgment asks
    for on top of the theory's own.  They can only add Pi, since more
    rules keep every derivation (Theory.with_pi); everything below these
    three entry points reads the rules from the theory."""

    pi: bool = False


BASE = RuleSet()
WITH_PI = RuleSet(pi=True)


@dataclass(frozen=True)
class Fuel:
    """Resource bound making the equality check total.

    max_eq_nodes caps the number of distinct terms in the engine's term
    bank; max_iterations caps match rounds.
    """

    max_eq_nodes: int = 10000
    max_iterations: int = 8

    def __post_init__(self) -> None:
        if self.max_eq_nodes <= 0 or self.max_iterations <= 0:
            raise ValueError("fuel components must be positive")


DEFAULT_FUEL = Fuel()


# ---------------------------------------------------------------------------
# Judgments: a context and a statement (the statement forms live in theory)
# ---------------------------------------------------------------------------


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
_INNERMOST = BVar(0)


def _beta(e: Expr) -> Optional[Expr]:
    """The contractum of e when e is a beta redex, else None."""
    if isinstance(e, Ap) and isinstance(e.fun, Lam):
        return open_bound(e.fun.body, e.arg)
    return None


def _eta(e: Expr) -> Optional[Expr]:
    """f when e is the eta expansion lam x. f @ x of an f without x, else None."""
    if (
        isinstance(e, Lam)
        and isinstance(e.body, Ap)
        and e.body.arg == _INNERMOST
        and not mentions_bound(e.body.fun)
    ):
        return open_bound(e.body.fun, _DEAD)  # index 0 is unused: this only shifts
    return None


class _Joined(Exception):
    """The goal's two classes have been joined."""


class _OutOfFuel(Exception):
    """The term bank is full."""


def _head(e: Expr):
    """What a term is keyed on besides its children: an application's
    symbol, Ap for an object-level application, None for a leaf."""
    return e.head if isinstance(e, App) else Ap if isinstance(e, Ap) else None


def _pattern(e: Expr, slots: dict[str, int]):
    """An axiom side as a pattern: a variable's slot, (head, argument
    patterns) for an application (head Ap for an object-level one), or a
    binder expression whose variables are renamed to their slots, which is
    matched structurally."""
    if isinstance(e, Var):
        return slots[e.name]
    head = _head(e)
    return (
        substitute(e, {x: Var(k) for x, k in slots.items()})
        if head is None
        else (head, tuple([_pattern(a, slots) for a in children(e)]))
    )


def _height(pat) -> int:
    """How many levels of classes below its root a pattern reads."""
    if type(pat) is tuple and pat[1]:
        return 1 + max(_height(a) for a in pat[1])
    return 0


def _axiom_pattern(d: Declaration):
    """An equational axiom as (label, sides to match).

    A side is matched when it is not a bare variable and binds every
    variable of the axiom's context, so each instance substitutes a term
    for every context variable.  Its variables are numbered into slots in
    first-occurrence order, the order in which matching binds them, and
    both sides' patterns use its slots; it comes as (pattern, head,
    height, other side's pattern, lhs pattern, rhs pattern, each variable
    name with its slot in name order, the order of a trace step's
    substitution).  Theory._axiom_patterns compiles each theory's
    axioms once: compiling costs more than a small goal's whole search.
    """
    sides = []
    for k, side in enumerate((d.kind.lhs, d.kind.rhs)):
        slots = {x: n for n, x in enumerate(free_vars(side))}
        if not isinstance(side, Var) and set(d.arity) <= slots.keys():
            pats = (_pattern(d.kind.lhs, slots), _pattern(d.kind.rhs, slots))
            sides.append(
                (pats[k], _head(side) or type(side), _height(pats[k]), pats[1 - k], *pats, tuple(sorted(slots.items())))
            )
    return d.name, tuple(sides)


class _EGraph:
    """Hash-consed terms in congruence-closed classes.

    A term is stored once per head and child term ids; variables and
    binder terms are leaves, stored once per expression (a variable once
    per name).  Each term's class is named by its current root,
    `root[i]`, the class's oldest term: a union relabels the members of
    the younger class, so no lookup walks a chain.  A root keeps its
    class's members and the terms using them as a child.  `table` maps a
    head and canonical child classes to the first term entered with them;
    a later term with the same key is a duplicate: it is joined to that
    term by a congruence step and never matched.  A union queues the terms
    above the absorbed class, and rebuild() re-keys them (deferred
    rebuilding, after egg, Willsey et al. 2021).  E-matching binds a
    side's variables by slot number, in the order _axiom_pattern gave
    them, so a substitution is a tuple that grows by one entry per new
    variable.

    The search log is `unions`: every union by term ids, the two terms it
    joins and its step's kind, plus an axiom step's label and slot
    substitution.  `proof` is a proof forest over the terms: union(i, j)
    makes j the root of its proof tree by reversing the parent links on
    its path, then links it to i.  A link never changes the path between
    two terms already in one tree, so the forest path between two terms
    of a class is the chain of unions that joined them, each older than
    the join.  explain() turns the path between the goal's sides, with
    the explanations of each congruence's children, into trace steps in
    union order, which is an order replay_eq_trace accepts.  A term's
    Expr is built only when a trace step, a beta contraction or a binder
    pattern needs it (add() keeps the ones it is given), so an
    Inconclusive verdict builds no step.
    """

    def __init__(self, max_terms: int):
        self.max_terms = max_terms
        self.exprs: list[Expr] = []
        self.heads: list = []
        self.kids: list[tuple[int, ...]] = []
        self.ids: dict = {}
        self.root: list[int] = []
        self.members: list[list[int]] = []
        self.uses: list[list[int]] = []
        self.dup: list[bool] = []
        self.table: dict = {}
        self.by_head: dict = {}
        self.pending: list[int] = []
        self.dirty: list[int] = []
        self.unions: list[tuple] = []
        self.proof: dict[int, tuple[int, int]] = {}
        self.goal: Optional[tuple[int, int]] = None

    def add(self, e: Expr) -> int:
        """The term id of e, entering whichever of e and its subterms are
        missing, children first and left to right; iterative, so any depth
        is fine."""
        out: list[int] = []
        stack: list = [e]
        while stack:
            t = stack.pop()
            c = t.__class__
            if c is App:
                stack.append((t, t.head, len(out)))
                stack += t.args[::-1]
            elif c is Ap:
                stack += ((t, Ap, len(out)), t.arg, t.fun)
            elif c is tuple:  # a term whose children's ids now end out, from index k
                t, head, k = t
                out[k:] = [self.node(head, tuple(out[k:]), t)]
            else:  # a leaf, hashed once; a variable is keyed by its name, which hashes faster
                i = self.ids.setdefault(t.name if c is Var else t, len(self.exprs))
                out.append(i if i < len(self.exprs) else self._new(c, (), t))
        return out[0]

    def node(self, head, kids: tuple[int, ...], e: Optional[Expr] = None) -> int:
        key = (head, kids)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = self._new(head, kids, e)
            self._key(i)
        return i

    def _new(self, head, kids: tuple[int, ...], e: Optional[Expr]) -> int:
        """A new term's id; the caller enters its key in ids."""
        i = len(self.exprs)
        if i >= self.max_terms:
            raise _OutOfFuel
        self.exprs.append(e)
        self.heads.append(head)
        self.kids.append(kids)
        self.root.append(i)
        self.members.append([i])
        self.uses.append([])
        self.dup.append(False)
        self.by_head.setdefault(head, []).append(i)
        for k in kids:
            self.uses[self.root[k]].append(i)
        return i

    def expr(self, i: int) -> Expr:
        """Term i's Expr, built on first need from its children's."""
        e = self.exprs[i]
        if e is None:
            args = tuple([self.exprs[k] or self.expr(k) for k in self.kids[i]])
            e = self.exprs[i] = Ap(*args) if self.heads[i] is Ap else App(self.heads[i], args)
        return e

    def _key(self, i: int) -> None:
        """Enter term i under its canonical key, joining a congruent term."""
        j = self.table.setdefault((self.heads[i], tuple([self.root[k] for k in self.kids[i]])), i)
        if j != i:
            self.dup[i] = True
            self.union(j, i, CongStep)

    def union(self, i: int, j: int, kind: type, why: Optional[tuple] = None) -> bool:
        """Join the classes of terms i and j by a step of the given kind; an
        axiom step's why is its label, slot names and substitution."""
        root = self.root
        a, b = root[i], root[j]
        if a == b:
            return False
        proof, t, p, u = self.proof, j, i, len(self.unions)
        while t is not None:  # reverse j's path to its proof root, then hang j under i
            proof[t], (t, u), p = (p, u), proof.get(t, (None, None)), t
        self.unions.append((kind, i, j, why))
        if a > b:
            a, b = b, a  # the older root stays, which keeps runs deterministic
        for m in self.members[b]:
            root[m] = a
        self.pending += self.uses[b]
        self.members[a] += self.members[b]
        self.uses[a] += self.uses[b]
        self.members[b] = self.uses[b] = []
        self.dirty.append(a)
        if self.goal and root[self.goal[0]] == root[self.goal[1]]:
            raise _Joined
        return True

    def explain(self, a: int, b: int) -> tuple[EqStep, ...]:
        """The steps that joined terms a and b, in the order they were
        taken: the unions on the proof-forest path between a and b and, for
        each congruence among them, the explanations of its children."""
        proof, unions, kids, used, todo = self.proof, self.unions, self.kids, set(), [(a, b)]
        while todo:
            a, b = todo.pop()
            line = [a]  # a and its proof ancestors
            while (up := proof.get(line[-1])) is not None:
                line.append(up[0])
            path = []
            while b not in line:  # up from b to the nearest common ancestor, then from a
                b, u = proof[b]
                path.append(u)
            while a != b:
                a, u = proof[a]
                path.append(u)
            for u in path:
                if u not in used:
                    used.add(u)
                    if unions[u][0] is CongStep:  # a loop: in a comprehension each union would pay a call
                        for x, y in zip(kids[unions[u][1]], kids[unions[u][2]]):
                            if x != y:
                                todo.append((x, y))
        return tuple([self._step(*unions[u]) for u in sorted(used)])

    def _step(self, kind: type, i: int, j: int, why: Optional[tuple]) -> EqStep:
        exprs = self.exprs
        lhs, rhs = exprs[i] or self.expr(i), exprs[j] or self.expr(j)
        if why is None:
            return kind(lhs, rhs)
        label, names, sub = why
        subst = [(x, exprs[v] or self.expr(v) if type(v := sub[k]) is int else v) for x, k in names]
        return AxiomStep(label, tuple(subst), lhs, rhs)

    def rebuild(self) -> None:
        while self.pending:
            todo, self.pending = self.pending, []
            for i in todo:
                if not self.dup[i]:
                    self._key(i)

    def lookup(self, e: Expr) -> Optional[int]:
        """The term id of e, or None when e is not in the bank."""
        head = _head(e)
        if head is None:
            return self.ids.get(e.name if e.__class__ is Var else e)
        return self.ids.get((head, tuple([self.lookup(a) for a in children(e)])))  # no key holds None

    # -- e-matching: a substitution is a tuple holding, for each pattern
    # slot in binding order, a term id or an expression from binder
    # innards that is not in the bank; slot x is bound when x < len(s),
    # and an unbound slot is the next one, x == len(s)

    def _bind(self, x: int, v, subs: list[tuple]) -> list[tuple]:
        root = self.root
        out = []
        for s in subs:
            if x == len(s):
                out.append((*s, v))
            elif (w := s[x]) == v or (type(w) is int and type(v) is int and root[w] == root[v]):
                out.append(s)
        return out

    def _match(self, pat, t: int, subs: list[tuple]) -> list[tuple]:
        """Extend each substitution by the matches of pat, not a variable, in
        the class of term t."""
        if type(pat) is tuple and not pat[1]:  # a constant: the one term keyed by pat
            j = self.ids.get(pat)
            return subs if j is not None and self.root[j] == self.root[t] else []
        head = pat[0] if type(pat) is tuple else type(pat)
        out: list[tuple] = []
        for m in self.members[self.root[t]]:
            if self.heads[m] == head and not self.dup[m]:
                out += self._at(pat, m, subs)
        return out

    def _at(self, pat, i: int, subs: list[tuple]) -> list[tuple]:
        """Extend each substitution by the matches of pat at term i, whose head is pat's."""
        if type(pat) is not tuple:
            return self._rigid(pat, self.exprs[i], subs)
        kids = self.kids[i]
        if len(kids) != len(pat[1]):
            return []
        for p, k in zip(pat[1], kids):
            subs = self._bind(p, k, subs) if type(p) is int else self._match(p, k, subs)
            if not subs:
                break
        return subs

    def _rigid(self, pat: Expr, e: Expr, subs: list[tuple]) -> list[tuple]:
        """Match inside a binder, structurally; every variable is a pattern
        variable named by its slot."""
        if isinstance(pat, Var):
            if not locally_closed(e):
                return []
            i = self.lookup(e)
            return self._bind(pat.name, e if i is None else i, subs)
        if type(pat) is not type(e) or (type(pat) is App and pat.head != e.head):
            return []
        kids, e_kids = children(pat), children(e)
        if len(kids) != len(e_kids):
            return []
        if not kids:
            return subs if pat == e else []
        for p, x in zip(kids, e_kids):
            subs = self._rigid(p, x, subs)
            if not subs:
                break
        return subs

    def _probe(self, pat, sub: tuple) -> Optional[int]:
        """The class of pat's instance under sub, if a term already has its key."""
        if type(pat) is int:
            v = sub[pat]
            return self.root[v] if type(v) is int else None
        if type(pat) is not tuple:
            return None
        kids = []
        for p in pat[1]:  # a variable bound to a term id is probed without a call
            c = self.root[v] if type(p) is int and type(v := sub[p]) is int else self._probe(p, sub)
            if c is None:
                return None
            kids.append(c)
        j = self.table.get((pat[0], tuple(kids)))
        return None if j is None else self.root[j]

    def build(self, pat, sub: tuple) -> int:
        """Add pat's instance under sub."""
        if type(pat) is int:
            v = sub[pat]
            return v if type(v) is int else self.add(v)
        if type(pat) is tuple:  # a variable bound to a term id is built without a call
            return self.node(
                pat[0], tuple([v if type(p) is int and type(v := sub[p]) is int else self.build(p, sub) for p in pat[1]])
            )
        return self.add(substitute(pat, {k: self.expr(v) if type(v) is int else v for k, v in enumerate(sub)}))

    def instance(self, label: str, lhs, rhs, names: tuple[tuple[str, int], ...], sub: tuple) -> None:
        """Add an axiom instance and join its sides."""
        self.union(self.build(lhs, sub), self.build(rhs, sub), AxiomStep, (label, names, sub))
        self.rebuild()

    def beta_eta(self, start: int, end: int) -> None:
        """Contract the beta redexes and eta expansions among terms start..end-1."""
        heads, kids = self.heads, self.kids
        for i in range(start, end):
            if heads[i] is Ap and heads[kids[i][0]] is Lam:
                self.union(i, self.add(_beta(self.expr(i))), BetaStep)
            if heads[i] is Lam and (reduced := _eta(self.exprs[i])) is not None:
                self.union(i, self.add(reduced), EtaStep)
        self.rebuild()

    def touched(self, height: int) -> list[set[int]]:
        """touched[h]: the terms with a class changed since the last call
        at most h levels below them."""
        out: list[set[int]] = [set()]
        front = {self.root[c] for c in self.dirty}
        self.dirty = []
        for _ in range(height):
            new = {i for c in front for i in self.uses[c]} - out[-1]
            out.append(out[-1] | new)
            front = {self.root[i] for i in new}
        return out

    def saturate(self, axioms, pi: bool, rounds: int) -> str:
        """Match rounds until nothing changes ("closed") or rounds run out
        ("fuel"); raises _Joined as soon as the goal's classes join.

        A round matches each side only at canonical terms of its head that
        are new, or that have a changed class within the side's height
        below them: no other term can have gained a match.
        """
        seen = 0  # terms before this index took part in an earlier round
        for _ in range(rounds):
            before, end = len(self.unions), len(self.exprs)
            if pi:
                self.beta_eta(seen, end)
            if seen:
                touched = self.touched(max((side[2] for _, sides in axioms for side in sides), default=0))
            else:  # every term is new in the first round, so none is looked up in touched
                self.dirty.clear()
            for label, sides in axioms:
                for pat, head, h, other, lhs, rhs, names in sides:
                    for i in self.by_head.get(head, ()):
                        if i >= end:
                            break
                        if not self.dup[i] and (i >= seen or i in touched[h]):
                            for sub in self._at(pat, i, [()]):
                                # the matched side's instance is in i's class
                                if self._probe(other, sub) != self.root[i]:
                                    self.instance(label, lhs, rhs, names, sub)
            seen = end
            if len(self.unions) == before:
                return "closed"
        return "fuel"


def eq_check(
    theory: Theory,
    ctx: Context,
    lhs: Expr,
    rhs: Expr,
    rules: RuleSet = BASE,
    fuel: Fuel = DEFAULT_FUEL,
) -> EqVerdict:
    """Decide, with fuel, whether lhs = rhs follows from the theory's axioms.

    Both sides seed an e-graph.  Each round fires beta and eta (under the
    Pi rules) as oriented rewrites, then matches every axiom side against
    the e-graph (e-matching over all terms of a class, after de Moura &
    Bjørner, CADE 2007) and joins the instances' sides, closing under
    congruence.  It stops as soon as the goal's classes join, and the
    trace is the goal's explanation from the proof forest: only the steps
    the goal needs, not every step of the search, so axiom_instances()
    counts the instances the proof uses.  Deterministic: iteration
    follows insertion order.
    """
    if rules.pi:
        theory = theory.with_pi()
    if lhs == rhs:
        return EqVerdict(True, ())
    g = _EGraph(fuel.max_eq_nodes)
    try:
        g.goal = (g.add(lhs), g.add(rhs))
        reason = g.saturate(theory._axiom_patterns, theory.pi, fuel.max_iterations)
    except _Joined:
        return EqVerdict(True, g.explain(*g.goal))
    except _OutOfFuel:
        reason = "fuel"
    return EqVerdict(False, reason=reason)


def replay_eq_trace(
    theory: Theory, lhs: Expr, rhs: Expr, steps: Iterable[EqStep], rules: RuleSet = BASE
) -> bool:
    """Independently validate a Proved trace step by step.

    Re-derives each step from scratch: axiom steps are re-instantiated
    from the named axiom under a substitution of every one of its context
    variables, congruence steps need equal heads and
    pairwise-merged children, beta/eta steps are recomputed (under the
    Pi rules only).  Returns True when every step validates and the goal
    ends up merged.
    """
    if rules.pi:
        theory = theory.with_pi()
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
        match st:
            case AxiomStep(label, subst, a, b):
                try:
                    d = theory.decl(label)
                except UnknownSymbol:
                    return False
                sub = dict(subst)
                if not d.is_axiom or set(sub) != set(d.arity):
                    return False
                if substitute(d.kind.lhs, sub) != a or substitute(d.kind.rhs, sub) != b:
                    return False
            case CongStep(a, b):
                ka, kb = children(a), children(b)
                if _head(a) is None or _head(a) != _head(b) or len(ka) != len(kb):
                    return False
                if not all(merged(x, y) for x, y in zip(ka, kb)):
                    return False
            case BetaStep(a, b) | EtaStep(a, b):
                contract = _beta if isinstance(st, BetaStep) else _eta
                if not theory.pi or contract(a) != b:
                    return False
            case _:
                return False
        union(a, b)
    return merged(lhs, rhs)


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


def _scope_check(bound: Container[str], e: Expr) -> None:
    """Every free variable of e is in bound (the first in preorder that is
    not is reported), and no index dangles.  One pass over e that builds
    no set and no list of its nodes; a binder's second child sits between
    depth markers, as in expr.walk."""
    dangling = False
    depth = 0
    stack: list = [e]
    while stack:
        t = stack.pop()
        c = t.__class__
        if c is Var:
            if t.name not in bound:
                raise ScopeError(f"variable {t.name!r} is not bound by the context")
        elif c is App:
            stack += t.args[::-1]
        elif c is int:
            depth += t
        elif c is BVar:
            dangling = dangling or t.index >= depth
        else:
            kids = children(t)
            stack += kids[::-1] if c is Ap else (-1, kids[1], 1, kids[0])
    if dangling:
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
    fuel: Fuel,
    sink: Optional[list],
) -> None:
    if got == expected:
        return
    if _apart(theory, got, expected):
        raise ArgumentTypeMismatch(
            f"expected type {print_expr(expected)}, inferred {print_expr(got)}"
        )
    v = eq_check(theory, ctx, got, expected, fuel=fuel)
    if v.proved:
        if sink is not None:
            sink.append(v)
        return
    raise InconclusiveEquality(
        f"could not prove {print_expr(got)} = {print_expr(expected)} ({v.reason})"
    )


def _check_term(theory: Theory, ctx: Context, term: Expr, ty: Expr, fuel, sink) -> None:
    """term has type ty: its inferred type is provably ty."""
    got = infer_type(theory, ctx, term, fuel, sink)
    _equal_types(theory, ctx, got, ty, fuel, sink)


def _apart(theory: Theory, a: Expr, b: Expr) -> bool:
    """Provably unequal types: without type equations, types are equal
    only under the same type symbol or the same type former."""
    if any(isinstance(d.kind, TypeEq) for d in theory.axioms()):
        return False
    if isinstance(a, App) and isinstance(b, App):
        return a.head != b.head
    return type(a) is not type(b)


def _instance_is(pty: Expr, sub: dict[str, Expr], got: Expr) -> bool:
    """substitute(pty, sub) == got, decided by walking pty and got
    together without building the instance: a variable compares its
    image, an application its head, arity and arguments; any other node
    is built and compared."""
    if pty.__class__ is Var:
        v = sub.get(pty.name, pty)
        return v is got or v == got
    if pty.__class__ is App:
        return (
            got.__class__ is App
            and pty.head == got.head
            and len(pty.args) == len(got.args)
            and all(map(_instance_is, pty.args, repeat(sub), got.args))
        )
    return substitute(pty, sub) == got


def _check_args(
    theory: Theory,
    ctx: Context,
    decl: Declaration,
    args: tuple[Expr, ...],
    fuel: Fuel,
    sink: Optional[list],
) -> dict[str, Expr]:
    """Check args against decl's telescope over ctx; return the
    substitution of args for its parameters.  Each argument's inferred
    type is compared in place with its parameter's declared type under
    the substitution so far; the declared instance is built, and
    provable equality tried, only on a mismatch."""
    if len(args) != len(decl.ctx):
        raise ArityMismatch(
            f"{decl.name!r} expects {len(decl.ctx)} arguments, got {len(args)}"
        )
    sub: dict[str, Expr] = {}
    for (param, pty), a in zip(decl.ctx, args):
        got = infer_type(theory, ctx, a, fuel, sink)
        if not _instance_is(pty, sub, got):
            _equal_types(theory, ctx, got, substitute(pty, sub), fuel, sink)
        sub[param] = a
    return sub


def check_is_type(
    theory: Theory,
    ctx: Context,
    ty: Expr,
    fuel: Fuel = DEFAULT_FUEL,
    sink: Optional[list] = None,
) -> None:
    """Check that ty is a derivable type over ctx."""
    if isinstance(ty, App):
        d = _lookup(theory, ty.head)
        if not isinstance(d.kind, IsType):
            raise NotAType(f"{ty.head!r} is a term symbol, not a type symbol")
        _check_args(theory, ctx, d, ty.args, fuel, sink)
        return
    if isinstance(ty, Pi):
        if not theory.pi:
            raise NotAType("Pi types require the pi rule set")
        check_is_type(theory, ctx, ty.dom, fuel, sink)
        avoid = [x for x, _ in ctx]
        x, cod = open_binder(ty.cod, ty.hint, avoid)
        check_is_type(theory, ctx + ((x, ty.dom),), cod, fuel, sink)
        return
    raise NotAType(f"{print_expr(ty)} is not a type expression")


def infer_type(
    theory: Theory,
    ctx: Context,
    term: Expr,
    fuel: Fuel = DEFAULT_FUEL,
    sink: Optional[list] = None,
) -> Expr:
    """Infer the type of a term over ctx.

    For an application the declared type is instantiated by the
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
        if isinstance(d.kind, IsType):
            raise NotATerm(f"{term.head!r} is a type symbol, not a term symbol")
        sub = _check_args(theory, ctx, d, term.args, fuel, sink)
        return substitute(d.kind.ty, sub)
    if isinstance(term, Ap):
        if not theory.pi:
            raise NotATerm("applications require the pi rule set")
        fty = infer_type(theory, ctx, term.fun, fuel, sink)
        if not isinstance(fty, Pi):
            raise NotATerm(f"applied expression has non-function type {print_expr(fty)}")
        aty = infer_type(theory, ctx, term.arg, fuel, sink)
        _equal_types(theory, ctx, aty, fty.dom, fuel, sink)
        return open_bound(fty.cod, term.arg)
    if isinstance(term, Lam):
        if not theory.pi:
            raise NotATerm("lambda terms require the pi rule set")
        check_is_type(theory, ctx, term.dom, fuel, sink)
        avoid = [x for x, _ in ctx]
        x, body = open_binder(term.body, term.hint, avoid)
        bty = infer_type(theory, ctx + ((x, term.dom),), body, fuel, sink)
        return Pi(term.dom, abstract_var(bty, x), term.hint)
    if isinstance(term, Pi):
        raise NotATerm("a Pi type is not a term")
    raise ScopeError("term has a dangling bound-variable index")


def check_context(
    theory: Theory,
    ctx: Context,
    fuel: Fuel = DEFAULT_FUEL,
    sink: Optional[list] = None,
) -> None:
    """Check each telescope entry's type over the preceding prefix."""
    names: set[str] = set()
    for k, (x, ty) in enumerate(ctx):
        if x in names:
            raise DuplicateName(f"context variable {x!r} repeated")
        _scope_check(names, ty)
        check_is_type(theory, ctx[:k], ty, fuel, sink)
        names.add(x)


@dataclass
class JudgmentResult:
    status: str  # "ok" or "inconclusive"
    detail: str = ""
    eq_traces: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def presupposed(
    theory: Theory,
    ctx: Context,
    stmt: Statement,
    fuel: Fuel = DEFAULT_FUEL,
    sink: Optional[list] = None,
) -> Statement:
    """Check what stmt presupposes over a well-formed ctx: a typing's
    type is a type; an equation's sides are types, or terms of its type.

    An omitted term-equation type is inferred from the left side, and the
    statement comes back with it filled in; any other statement comes
    back as the same object.
    """
    match stmt:
        case HasType(_, ty):
            check_is_type(theory, ctx, ty, fuel, sink)
        case TypeEq(lhs, rhs):
            check_is_type(theory, ctx, lhs, fuel, sink)
            check_is_type(theory, ctx, rhs, fuel, sink)
        case TermEq(lhs, rhs, None):
            stmt = TermEq(lhs, rhs, infer_type(theory, ctx, lhs, fuel, sink))
            _check_term(theory, ctx, rhs, stmt.ty, fuel, sink)
        case TermEq(lhs, rhs, ty):
            check_is_type(theory, ctx, ty, fuel, sink)
            _check_term(theory, ctx, lhs, ty, fuel, sink)
            _check_term(theory, ctx, rhs, ty, fuel, sink)
    return stmt


def check_claim(
    theory: Theory,
    ctx: Context,
    stmt: Statement,
    fuel: Fuel,
    sink: list,
) -> JudgmentResult:
    """Check what stmt claims over ctx, taking its context and its
    presuppositions as given: A type, t : A, or an equation, which goes
    to eq_check.  The traces of the equations it proves are appended to
    sink, which the result's eq_traces then reports.

    An unproved equation yields an inconclusive result rather than an
    error, since the engine never refutes.
    """
    match stmt:
        case IsType(ty):
            check_is_type(theory, ctx, ty, fuel, sink)
        case HasType(term, ty):
            _check_term(theory, ctx, term, ty, fuel, sink)
        case TypeEq(lhs, rhs) | TermEq(lhs, rhs):
            v = eq_check(theory, ctx, lhs, rhs, fuel=fuel)
            if not v.proved:
                what = "type" if isinstance(stmt, TypeEq) else "term"
                return JudgmentResult("inconclusive", f"{what} equality not proved ({v.reason})")
            sink.append(v)
    return JudgmentResult("ok", eq_traces=tuple(sink))


def check_judgment(
    theory: Theory,
    judgment: Judgment,
    rules: RuleSet = BASE,
    fuel: Fuel = DEFAULT_FUEL,
) -> JudgmentResult:
    """Check one of the five judgment forms over the theory, in three
    steps: the context; the statement's scope and presuppositions
    (presupposed); then the claim (check_claim).
    """
    if rules.pi:
        theory = theory.with_pi()
    sink: list = []
    ctx = judgment.ctx
    check_context(theory, ctx, fuel, sink)
    names = {x for x, _ in ctx}
    for e in judgment.stmt.exprs():
        _scope_check(names, e)
    stmt = presupposed(theory, ctx, judgment.stmt, fuel, sink)
    return check_claim(theory, ctx, stmt, fuel, sink)


from .gatform import print_expr  # noqa: E402  (gatform imports this module)
