"""The .gat surface syntax: lexer, parser, resolver and printer.

A source file is a sequence of theory, interp and judgment blocks.
Identifier occurrences inside theory and judgment blocks resolve
lexically (telescope and binder variables shadow symbols); images inside
interp blocks are kept raw until the source theory's telescopes are
known.  Printing then parsing is the identity up to whitespace and
anonymous axiom labels; the printer is canonical, so repeated runs are
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import deriv
from .errors import GatSyntaxError, UnknownSymbol
from .expr import (
    Ap,
    App,
    Expr,
    Lam,
    Pi,
    Var,
    free_vars,
    fresh_name,
    head_symbols,
    mk_lam,
    mk_pi,
    open_bound,
    substitute,
)
from .theory import (
    Declaration,
    TermEqKind,
    TermKind,
    Theory,
    TypeEqKind,
    TypeKind,
    anonymous_label,
)

KEYWORDS = {"theory", "interp", "judgment", "sym", "ax", "over", "Type", "Pi", "lam", "Ctx"}

_PUNCT = [
    ("|->", "MAPSTO"),
    ("|-", "TURNSTILE"),
    ("->", "RARROW"),
    ("=>", "DARROW"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    (";", "SEMI"),
    (":", "COLON"),
    ("=", "EQUALS"),
    ("@", "AT"),
]


@dataclass(frozen=True)
class Token:
    kind: str  # punctuation kind, "IDENT", keyword, or "EOF"
    value: str
    line: int
    col: int


def _lex(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = False
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                toks.append(Token(kind, lit, line, col))
                i += len(lit)
                col += len(lit)
                matched = True
                break
        if matched:
            continue
        if c.isalpha() or c == "_":
            j = i
            # '-' is allowed inside identifiers (e.g. MLTT-N) but "--" still
            # opens a comment and "->" is still an arrow.
            while (
                j < n
                and (text[j].isalnum() or text[j] in "_'#-")
                and not text.startswith("--", j)
                and not text.startswith("->", j)
            ):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "IDENT"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise GatSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# Raw expressions: identifiers not yet split into variables and symbols.


@dataclass(frozen=True)
class RName:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class RApp:
    name: str
    args: tuple
    line: int
    col: int


@dataclass(frozen=True)
class RBind:
    binder: str  # "Pi" or "lam"
    var: str
    dom: object
    body: object
    line: int
    col: int


@dataclass(frozen=True)
class RAp:
    fun: object
    arg: object
    line: int
    col: int


def resolve(raw, scope: Sequence[str]) -> Expr:
    """Turn a raw tree into an expression given the variables in scope."""
    if isinstance(raw, RName):
        if raw.name in scope:
            return Var(raw.name)
        return App(raw.name, ())
    if isinstance(raw, RApp):
        if raw.name in scope:
            raise GatSyntaxError(
                f"variable {raw.name!r} cannot take arguments", raw.line, raw.col
            )
        return App(raw.name, tuple(resolve(a, scope) for a in raw.args))
    if isinstance(raw, RBind):
        dom = resolve(raw.dom, scope)
        body = resolve(raw.body, tuple(scope) + (raw.var,))
        if raw.binder == "Pi":
            return mk_pi(raw.var, dom, body)
        return mk_lam(raw.var, dom, body)
    if isinstance(raw, RAp):
        return Ap(resolve(raw.fun, scope), resolve(raw.arg, scope))
    raise TypeError(f"unexpected raw node: {raw!r}")


@dataclass
class TheoryBlock:
    name: str
    decls: list[Declaration]
    line: int
    decl_lines: dict[str, int] = field(default_factory=dict)


@dataclass
class InterpBlock:
    name: str
    src_name: str
    dst_name: str
    assignments: list[tuple[str, object, int, int]]  # symbol, raw expr, line, col
    line: int


@dataclass
class JudgmentBlock:
    name: str
    theory_name: str
    ctx: tuple[tuple[str, Expr], ...]
    stmt: deriv.Statement
    line: int


@dataclass
class SourceFile:
    items: list = field(default_factory=list)

    def theories(self) -> list[TheoryBlock]:
        return [b for b in self.items if isinstance(b, TheoryBlock)]

    def interps(self) -> list[InterpBlock]:
        return [b for b in self.items if isinstance(b, InterpBlock)]

    def judgments(self) -> list[JudgmentBlock]:
        return [b for b in self.items if isinstance(b, JudgmentBlock)]


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            want = dict((k, lit) for lit, k in _PUNCT).get(kind, kind)
            raise GatSyntaxError(f"expected {want!r}, found {t.value or 'end of input'!r}", t.line, t.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    # -- expressions -------------------------------------------------------

    def expr(self):
        e = self.atom()
        while self.at("AT"):
            t = self.next()
            e = RAp(e, self.atom(), t.line, t.col)
        return e

    def atom(self):
        t = self.peek()
        if t.kind in ("Pi", "lam"):
            self.next()
            self.expect("LPAREN")
            var = self.expect("IDENT").value
            self.expect("COLON")
            dom = self.expr()
            self.expect("RPAREN")
            body = self.expr()
            return RBind(t.kind, var, dom, body, t.line, t.col)
        if t.kind == "LPAREN":
            self.next()
            e = self.expr()
            self.expect("RPAREN")
            return e
        if t.kind == "IDENT":
            self.next()
            if self.at("LPAREN"):
                self.next()
                args = [self.expr()]
                while self.at("COMMA"):
                    self.next()
                    args.append(self.expr())
                self.expect("RPAREN")
                return RApp(t.value, tuple(args), t.line, t.col)
            return RName(t.value, t.line, t.col)
        raise GatSyntaxError(f"expected an expression, found {t.value or 'end of input'!r}", t.line, t.col)

    def telescope(self) -> list[tuple[str, object]]:
        self.expect("LPAREN")
        out: list[tuple[str, object]] = []
        if not self.at("RPAREN"):
            while True:
                name = self.expect("IDENT").value
                self.expect("COLON")
                out.append((name, self.expr()))
                if self.at("COMMA"):
                    self.next()
                    continue
                break
        self.expect("RPAREN")
        return out

    def resolved_telescope(self) -> tuple[tuple[str, Expr], ...]:
        raw = self.telescope()
        scope: list[str] = []
        out: list[tuple[str, Expr]] = []
        for x, rty in raw:
            out.append((x, resolve(rty, scope)))
            scope.append(x)
        return tuple(out)

    # -- blocks ------------------------------------------------------------

    def file(self) -> SourceFile:
        items = []
        while not self.at("EOF"):
            t = self.peek()
            if t.kind == "theory":
                items.append(self.theory_block())
            elif t.kind == "interp":
                items.append(self.interp_block())
            elif t.kind == "judgment":
                items.append(self.judgment_block())
            else:
                raise GatSyntaxError(
                    f"expected a theory, interp or judgment block, found {t.value!r}",
                    t.line,
                    t.col,
                )
        return SourceFile(items)

    def theory_block(self) -> TheoryBlock:
        t = self.expect("theory")
        name = self.expect("IDENT").value
        self.expect("LBRACE")
        decls: list[Declaration] = []
        decl_lines: dict[str, int] = {}
        while not self.at("RBRACE"):
            line = self.peek().line
            d = self.decl(decls)
            decl_lines[d.name] = line
            decls.append(d)
        self.expect("RBRACE")
        return TheoryBlock(name, decls, t.line, decl_lines)

    def decl(self, so_far: list[Declaration]) -> Declaration:
        t = self.peek()
        if t.kind == "sym":
            self.next()
            name = self.expect("IDENT").value
            self.expect("COLON")
            ctx = self.resolved_telescope()
            scope = [x for x, _ in ctx]
            self.expect("DARROW")
            if self.at("Type"):
                self.next()
                return Declaration(name, ctx, TypeKind())
            ty = resolve(self.expr(), scope)
            return Declaration(name, ctx, TermKind(ty))
        if t.kind == "ax":
            self.next()
            label = self.expect("IDENT").value if self.at("IDENT") else anonymous_label(so_far)
            self.expect("COLON")
            ctx = self.resolved_telescope()
            scope = [x for x, _ in ctx]
            self.expect("DARROW")
            lhs = resolve(self.expr(), scope)
            self.expect("EQUALS")
            rhs = resolve(self.expr(), scope)
            ty: Optional[Expr] = None
            is_type_eq = False
            if self.at("COLON"):
                self.next()
                if self.at("Type"):
                    self.next()
                    is_type_eq = True
                else:
                    ty = resolve(self.expr(), scope)
            if is_type_eq:
                return Declaration(label, ctx, TypeEqKind(lhs, rhs))
            return Declaration(label, ctx, TermEqKind(lhs, rhs, ty))
        raise GatSyntaxError(f"expected 'sym' or 'ax', found {t.value!r}", t.line, t.col)

    def interp_block(self) -> InterpBlock:
        t = self.expect("interp")
        name = self.expect("IDENT").value
        self.expect("COLON")
        src = self.expect("IDENT").value
        self.expect("RARROW")
        dst = self.expect("IDENT").value
        self.expect("LBRACE")
        assignments = []
        while not self.at("RBRACE"):
            s = self.expect("IDENT")
            self.expect("MAPSTO")
            assignments.append((s.value, self.expr(), s.line, s.col))
            if self.at("SEMI"):
                self.next()
        self.expect("RBRACE")
        return InterpBlock(name, src, dst, assignments, t.line)

    def judgment_block(self) -> JudgmentBlock:
        t = self.expect("judgment")
        name = self.expect("IDENT").value
        self.expect("over")
        theory_name = self.expect("IDENT").value
        self.expect("LBRACE")
        ctx = self.resolved_telescope()
        scope = [x for x, _ in ctx]
        self.expect("TURNSTILE")
        stmt = self.statement(scope)
        self.expect("RBRACE")
        return JudgmentBlock(name, theory_name, ctx, stmt, t.line)

    def statement(self, scope) -> deriv.Statement:
        if self.at("Ctx"):
            self.next()
            return deriv.CtxOk()
        first = resolve(self.expr(), scope)
        if self.at("EQUALS"):
            self.next()
            second = resolve(self.expr(), scope)
            self.expect("COLON")
            if self.at("Type"):
                self.next()
                return deriv.TypeEq(first, second)
            ty = resolve(self.expr(), scope)
            return deriv.TermEq(first, second, ty)
        self.expect("COLON")
        if self.at("Type"):
            self.next()
            return deriv.IsType(first)
        ty = resolve(self.expr(), scope)
        return deriv.HasType(first, ty)


def parse(text: str) -> SourceFile:
    """Parse a .gat source file; positioned errors, no crash on any input."""
    return _Parser(_lex(text)).file()


def parse_expr(text: str, scope: Sequence[str] = ()) -> Expr:
    p = _Parser(_lex(text))
    e = resolve(p.expr(), scope)
    p.expect("EOF")
    return e


def parse_context(text: str) -> tuple[tuple[str, Expr], ...]:
    p = _Parser(_lex(text))
    ctx = p.resolved_telescope()
    p.expect("EOF")
    return ctx


def resolve_interp_block(block: InterpBlock, src: Theory, dst: Theory):
    """Resolve raw images against the source theory's telescopes."""
    from .gatcat import Interpretation

    mapping: dict[str, Expr] = {}
    for sym, raw, line, col in block.assignments:
        try:
            d = src.decl(sym)
        except UnknownSymbol:
            raise GatSyntaxError(f"{sym!r} is not declared in {src.name!r}", line, col)
        if not d.is_symbol:
            continue  # axiom entries are irrelevant
        mapping[sym] = resolve(raw, d.arity)
    return Interpretation(src, dst, mapping, block.name)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_expr(e: Expr, unicode: bool = False, scope: Sequence[str] = ()) -> str:
    pi_word = "Π" if unicode else "Pi"

    def binder_name(hint: str, bound_part: Expr, avoid: tuple[str, ...]) -> str:
        # the chosen name must not shadow any symbol applied under the
        # binder, or reparsing would read those heads as the variable
        taken = set(avoid) | set(free_vars(bound_part)) | head_symbols(bound_part)
        return fresh_name(hint, taken)

    def go(t: Expr, avoid: tuple[str, ...]) -> str:
        if isinstance(t, Var):
            return t.name
        if isinstance(t, App):
            if not t.args:
                return t.head
            return f"{t.head}({', '.join(go(a, avoid) for a in t.args)})"
        if isinstance(t, Pi):
            x = binder_name(t.hint, t.cod, avoid)
            cod = open_bound(t.cod, Var(x))
            return f"{pi_word} ({x} : {go(t.dom, avoid)}) {go(cod, avoid + (x,))}"
        if isinstance(t, Lam):
            x = binder_name(t.hint, t.body, avoid)
            body = open_bound(t.body, Var(x))
            return f"lam ({x} : {go(t.dom, avoid)}) {go(body, avoid + (x,))}"
        if isinstance(t, Ap):
            fun = go(t.fun, avoid)
            if isinstance(t.fun, (Pi, Lam)):
                fun = f"({fun})"
            arg = go(t.arg, avoid)
            if isinstance(t.arg, (Pi, Lam, Ap)):
                arg = f"({arg})"
            return f"{fun} @ {arg}"
        return repr(t)

    return go(e, tuple(scope))


def print_telescope(ctx, unicode: bool = False) -> str:
    return ", ".join(f"{x} : {print_expr(ty, unicode)}" for x, ty in ctx)


def _shadow_free(ctx, exprs):
    """Rename telescope variables that shadow symbols applied anywhere in
    the declaration, so lexical resolution reads the print back verbatim.
    Returns the new telescope and the renaming substitution."""
    used: set[str] = set()
    for e in exprs:
        used |= head_symbols(e)
    for _, ty in ctx:
        used |= head_symbols(ty)
    sub: dict[str, Expr] = {}
    out = []
    taken = set(used) | {x for x, _ in ctx}
    for x, ty in ctx:
        ty = substitute(ty, sub)
        if x in used:
            x2 = fresh_name(x, taken)
            taken.add(x2)
            sub[x] = Var(x2)
            x = x2
        out.append((x, ty))
    return tuple(out), sub


def print_decl(d: Declaration, unicode: bool = False) -> str:
    arrow = "⇒" if unicode else "=>"
    ctx, sub = _shadow_free(d.ctx, d.kind.exprs())
    tele = f"({print_telescope(ctx, unicode)})"
    # the kind with each expression replaced by its printed text
    k = d.kind.map(lambda e: print_expr(substitute(e, sub), unicode))
    if isinstance(k, TypeKind):
        return f"sym {d.name} : {tele} {arrow} Type"
    if isinstance(k, TermKind):
        return f"sym {d.name} : {tele} {arrow} {k.ty}"
    if isinstance(k, TypeEqKind):
        return f"ax {d.name} : {tele} {arrow} {k.lhs} = {k.rhs} : Type"
    ty = "" if k.ty is None else f" : {k.ty}"
    return f"ax {d.name} : {tele} {arrow} {k.lhs} = {k.rhs}{ty}"


def print_theory(t: Theory, unicode: bool = False) -> str:
    lines = [f"theory {t.name} {{"]
    for d in t.decls:
        lines.append(f"  {print_decl(d, unicode)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_interp(i, unicode: bool = False) -> str:
    """Print an interpretation block.

    Images are written over the source symbol's telescope names as the
    printed source theory shows them (parameters are positional), so a
    file holding both the theory and the interpretation reparses to the
    same map.
    """
    lines = [f"interp {i.name or 'I'} : {i.src.name} -> {i.dst.name} {{"]
    for d in i.src.decls:
        if not d.is_symbol:
            continue
        image = i.mapping[d.name]
        _, sub = _shadow_free(d.ctx, d.exprs())
        image = substitute(image, sub)
        lines.append(f"  {d.name} |-> {print_expr(image, unicode)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
