"""Independent references for the benchmark's verdict checks.

Nothing here imports gatc.  Goals are generated in a small tuple term
language and labelled derivable or non-derivable by normalisers written
for it; model counts come from closed forms, from OEIS and from a
separate category counter.  gatc's own output is never the reference.

Term language:
    ("v", name)            free variable
    ("a", head, args)      symbol application, args a tuple of terms
    ("lam", dom, body)     binder; body refers to it as ("b", 0)
    ("ap", fun, arg)       application of a binder-typed term
    ("b", index)           bound variable, innermost binder is 0
"""

from __future__ import annotations

import itertools


def var(name: str) -> tuple:
    return ("v", name)


def app(head: str, *args: tuple) -> tuple:
    return ("a", head, tuple(args))


# ---------------------------------------------------------------------------
# Word normalisers: Mon and Cat
# ---------------------------------------------------------------------------


def mon_word(t: tuple) -> tuple[str, ...]:
    """The Mon normal form: flatten mul (associativity), drop u (units)."""
    if t[0] == "v":
        return (t[1],)
    head, args = t[1], t[2]
    if head == "u":
        return ()
    if head == "mul":
        return mon_word(args[0]) + mon_word(args[1])
    raise ValueError(f"not a Mon term: {t!r}")


def cat_word(t: tuple) -> tuple[str, ...]:
    """The Cat normal form of a morphism: flatten comp, drop id.

    comp(x1, x2, x3, y1, y2) composes y1 : x1 -> x2 with y2 : x2 -> x3;
    only the morphism arguments carry the word.
    """
    if t[0] == "v":
        return (t[1],)
    head, args = t[1], t[2]
    if head == "id":
        return ()
    if head == "comp":
        return cat_word(args[3]) + cat_word(args[4])
    raise ValueError(f"not a Cat morphism: {t!r}")


# ---------------------------------------------------------------------------
# STLC normaliser: beta, eta and the two axioms of the theory, oriented
# ---------------------------------------------------------------------------


def _mentions(t: tuple, depth: int) -> bool:
    tag = t[0]
    if tag == "b":
        return t[1] == depth
    if tag == "v":
        return False
    if tag == "a":
        return any(_mentions(a, depth) for a in t[2])
    if tag == "lam":
        return _mentions(t[1], depth) or _mentions(t[2], depth + 1)
    return _mentions(t[1], depth) or _mentions(t[2], depth)


def _open(t: tuple, value: tuple, depth: int = 0) -> tuple:
    """Replace bound index depth by a locally closed value."""
    tag = t[0]
    if tag == "b":
        return value if t[1] == depth else t
    if tag == "v":
        return t
    if tag == "a":
        return ("a", t[1], tuple(_open(a, value, depth) for a in t[2]))
    if tag == "lam":
        return ("lam", _open(t[1], value, depth), _open(t[2], value, depth + 1))
    return ("ap", _open(t[1], value, depth), _open(t[2], value, depth))


def _stlc_step(t: tuple) -> tuple:
    tag = t[0]
    if tag == "ap" and t[1][0] == "lam":
        return _open(t[1][2], t[2])  # beta
    if tag == "lam" and t[2][0] == "ap" and t[2][2] == ("b", 0) and not _mentions(t[2][1], 0):
        return t[2][1]  # eta; the body's function is closed at this depth
    if tag == "a" and t[1] == "app":
        a, b, f, x = t[2]
        if f[0] == "a" and f[1] == "abs" and f[2][:2] == (a, b):
            return ("ap", f[2][2], x)  # app(a, b, abs(a, b, f), x) = f @ x
    if tag == "a" and t[1] == "abs":
        a, b, f = t[2]
        body = f[2] if f[0] == "lam" else None
        if (
            body is not None
            and body[0] == "a"
            and body[1] == "app"
            and body[2][:2] == (a, b)
            and body[2][3] == ("b", 0)
            and not _mentions(body[2][2], 0)
        ):
            return body[2][2]  # abs(a, b, lam x. app(a, b, f, x)) = f
    return t


def stlc_normal(t: tuple) -> tuple:
    """Innermost normal form; every rule shrinks the term, so it ends."""
    tag = t[0]
    if tag == "a":
        t = ("a", t[1], tuple(stlc_normal(a) for a in t[2]))
    elif tag == "lam":
        t = ("lam", stlc_normal(t[1]), stlc_normal(t[2]))
    elif tag == "ap":
        t = ("ap", stlc_normal(t[1]), stlc_normal(t[2]))
    s = _stlc_step(t)
    return t if s == t else stlc_normal(s)


# ---------------------------------------------------------------------------
# Model counts
# ---------------------------------------------------------------------------

# OEIS A058153, labeled monoids of order n, for n = 0..3.  A carrier of
# size 0 has no unit, so it carries no monoid.
LABELED_MONOIDS = (0, 1, 4, 33)


def mon_count(bound: int) -> int:
    """Labeled monoids with at most bound elements: 1 + 4 + 33 = 38 at 3."""
    return sum(LABELED_MONOIDS[: bound + 1])


def pointed_mon_count(bound: int) -> int:
    """Monoids with a chosen element: the pushout of Ty0 <- El0 along Mon."""
    return sum(n * c for n, c in enumerate(LABELED_MONOIDS[: bound + 1]))


def ty_count(n: int, bound: int) -> int:
    """Models of the tower Ty_n: T_0 = k + 1 and T_n = sum_{s<=k} T_{n-1}^s.

    Over each element of A0 sits an independent Ty_{n-1} tower.
    """
    t = bound + 1
    for _ in range(n):
        t = sum(t**s for s in range(bound + 1))
    return t


def el_count(n: int, bound: int) -> int:
    """Models of El_n: E_0 = sum_{s<=k} s and E_n = sum_{s<=k} E_{n-1}^s."""
    e = sum(range(bound + 1))
    for _ in range(n):
        e = sum(e**s for s in range(bound + 1))
    return e


# Counted by count_categories below; the smoke test recomputes them.
CATEGORY_COUNTS = {0: 1, 1: 2, 2: 340}
POINTED_CATEGORY_COUNTS = {0: 0, 1: 1, 2: 673}


def count_categories(bound: int) -> tuple[int, int]:
    """(categories, categories with a chosen object) on labeled carriers.

    Every carrier, objects and each hom-set, has at most bound elements.
    Identities are fixed first, the composites they force follow, and the
    remaining composition cells are searched one at a time with each
    associativity instance checked as soon as its cells are defined.
    """
    total = pointed = 0
    for n in range(bound + 1):
        objs = range(n)
        pairs = [(x, y) for x in objs for y in objs]
        for sizes in itertools.product(range(bound + 1), repeat=len(pairs)):
            hom = dict(zip(pairs, sizes))
            if any(hom[(x, x)] == 0 for x in objs):
                continue
            for ids in itertools.product(*(range(hom[(x, x)]) for x in objs)):
                c = _count_compositions(objs, hom, ids)
                total += c
                pointed += c * n
    return total, pointed


def _count_compositions(objs, hom, ids) -> int:
    cells = [
        (x, y, z, f, g)
        for x in objs
        for y in objs
        for z in objs
        for f in range(hom[(x, y)])
        for g in range(hom[(y, z)])
    ]
    table: dict[tuple, int] = {}
    for x, y, z, f, g in cells:
        forced = []
        if f == ids[x] and x == y:
            forced.append(g)
        if g == ids[y] and y == z:
            forced.append(f)
        if forced:
            if len(set(forced)) > 1 or hom[(x, z)] == 0:
                return 0
            table[(x, y, z, f, g)] = forced[0]
    free = [c for c in cells if c not in table]
    if any(hom[(c[0], c[2])] == 0 for c in free):
        return 0
    triples = [
        (x, y, z, w, f, g, h)
        for x in objs
        for y in objs
        for z in objs
        for w in objs
        for f in range(hom[(x, y)])
        for g in range(hom[(y, z)])
        for h in range(hom[(z, w)])
    ]

    def assoc_ok() -> bool:
        for x, y, z, w, f, g, h in triples:
            fg = table.get((x, y, z, f, g))
            gh = table.get((y, z, w, g, h))
            if fg is None or gh is None:
                continue
            left = table.get((x, z, w, fg, h))
            right = table.get((x, y, w, f, gh))
            if left is not None and right is not None and left != right:
                return False
        return True

    if not assoc_ok():
        return 0

    def rec(i: int) -> int:
        if i == len(free):
            return 1
        x, y, z, f, g = free[i]
        count = 0
        for v in range(hom[(x, z)]):
            table[free[i]] = v
            if assoc_ok():
                count += rec(i + 1)
        del table[free[i]]
        return count

    return rec(0)


def count_monoids_brute(order: int) -> int:
    """Labeled monoids of one order by exhaustive search; checks the table."""
    elems = range(order)
    count = 0
    for unit in elems:
        for values in itertools.product(elems, repeat=order * order):
            mul = {(a, b): values[a * order + b] for a in elems for b in elems}
            if any(mul[(unit, a)] != a or mul[(a, unit)] != a for a in elems):
                continue
            if all(
                mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])]
                for a in elems
                for b in elems
                for c in elems
            ):
                count += 1
    return count
