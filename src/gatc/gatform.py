"""The .gat surface syntax: lexer, parser and printer.

A source file is a sequence of theory, interp and judgment blocks.  The
lexer makes each token as the parser pulls it, so reading stops at the
first error in reading order: a parse error that comes before a bad
character is the one reported, and the text after it is not lexed.  The
parser reads text straight into expressions: each expression is read
against the variables in scope (a telescope plus the binders around it),
so a name in scope is a variable and any other name a symbol.  An interp
image is checked for syntax alone when the file is parsed and read again,
from its tokens, once the source symbol's telescope is known.  Printing
then parsing is the identity up to whitespace and anonymous axiom labels,
in ASCII and in unicode (the printer's '⇒' and 'Π' read as '=>' and
'Pi'); the printer is canonical, so repeated runs are byte-stable.  It
prints each expression in one walk that also collects the symbols it
applies, which tell whether a telescope variable must be renamed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import GatSyntaxError, UnknownSymbol
from .expr import (
    Ap,
    App,
    Expr,
    Lam,
    Pi,
    Var,
    children,
    free_vars,
    fresh_name,
    head_symbols,
    mk_lam,
    mk_pi,
    open_bound,
    substitute,
)
from .theory import CtxOk, Declaration, HasType, IsType, Statement, TermEq, Theory, TypeEq

KEYWORDS = {"theory", "interp", "judgment", "sym", "ax", "over", "Type", "Pi", "lam", "Ctx"}

# Punctuation by literal; a literal comes before any longer one it starts.
# '⇒' is the printer's unicode spelling of '=>'.
_PUNCT = {
    "|->": "MAPSTO",
    "|-": "TURNSTILE",
    "->": "RARROW",
    "=>": "DARROW",
    "⇒": "DARROW",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
    "=": "EQUALS",
    "@": "AT",
}
# kind -> its first (ASCII) literal, for expected-token messages
_SPELLING = {kind: lit for lit, kind in reversed(_PUNCT.items())}
_WORDS = {**{k: k for k in KEYWORDS}, "Π": "Pi"}

# One token per match, with the blanks and comments before it.  A word is
# a run of word characters, "'", '#' and '-' (except where '-' starts '--'
# or '->'); its first character must also pass isalpha() or be '_', which
# _lex checks.  At the end of input only the blanks match.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|--[^\n]*)*)"
    rf"(?:({'|'.join(map(re.escape, _PUNCT))})|(\w(?:[\w'#]|-(?![->]))*)|(.)|\Z)",
    re.S,
)


class Token(NamedTuple):
    kind: str  # punctuation kind, "IDENT", keyword, or "EOF"
    value: str
    line: int
    col: int


def _lex(text: str) -> Iterator[Token]:
    """Tokens with 1-based line and column, ending in EOF, made as the
    parser pulls them, so a parse error stops the lexing.  A comment's
    characters do not count towards the column of the end of input that
    follows it."""
    token = tuple.__new__  # Token's fields in order, without its Python-level __new__
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        blank, punct, word, bad = m.groups()
        if "\n" in blank:
            line += blank.count("\n")
            line_start = text.rfind("\n", 0, m.end(1)) + 1
        col = m.end(1) - line_start + 1
        if punct:
            yield token(Token, (_PUNCT[punct], punct, line, col))
        elif word and (word[0].isalpha() or word[0] == "_"):
            yield token(Token, (_WORDS.get(word, "IDENT"), word, line, col))
        elif word or bad:
            raise GatSyntaxError(f"unexpected character {(word or bad)[0]!r}", line, col)
        else:
            comment = blank.find("--", blank.rfind("\n") + 1)
            yield token(Token, ("EOF", "", line, col if comment < 0 else col - len(blank) + comment))
            return


# Deepest nesting the parser accepts; parentheses, argument lists, binder
# parts and '@' applications each open one level.  The rebuilds, typing
# and printing recurse a few frames per level, so this keeps them well
# inside Python's default recursion limit.
MAX_NESTING = 200


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
    # symbol, the image's tokens (and the one after them), line, col
    assignments: list[tuple[str, list[Token], int, int]]
    line: int


@dataclass
class JudgmentBlock:
    name: str
    theory_name: str
    ctx: tuple[tuple[str, Expr], ...]
    stmt: Statement
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


# The variables an expression is read against; None reads every name as
# a symbol and raises no scope error, for a syntax-only pass.
Scope = Optional[tuple[str, ...]]


class _Parser:
    """Reads the tokens it pulls one at a time; tok is the next one."""

    def __init__(self, toks: Iterator[Token]):
        self.toks = toks
        self.tok = next(toks)
        self.depth = 0  # nesting level of the expression being parsed
        self.height = 0  # height of the expression parsed last (a name's is 0)

    def next(self) -> Token:
        """Take tok; past the last token, tok stays the last one."""
        t = self.tok
        self.tok = next(self.toks, t)
        return t

    def expect(self, kind: str) -> Token:
        t = self.tok
        if t.kind != kind:
            want = _SPELLING.get(kind, kind)
            raise GatSyntaxError(f"expected {want!r}, found {t.value or 'end of input'!r}", t.line, t.col)
        return self.next()

    # -- expressions -------------------------------------------------------

    def _too_deep(self, t: Token) -> GatSyntaxError:
        return GatSyntaxError(f"expression nested more than {MAX_NESTING} levels deep", t.line, t.col)

    def expr(self, scope: Scope) -> Expr:
        """An expression at the current level, its subexpressions one
        deeper; names in scope are variables, other names symbols.  Leaves
        the expression's height in self.height: a left-nested '@' chain
        pushes its first operand down one level per '@', which only the
        chain's height shows."""
        if self.depth > MAX_NESTING:
            raise self._too_deep(self.tok)
        level = self.depth
        self.depth += 1
        e = self.atom(scope)
        height = self.height
        while self.tok.kind == "AT":
            t = self.next()
            if level + 1 + height > MAX_NESTING:  # before the operand, whose own error comes later
                raise self._too_deep(t)
            e = Ap(e, self.atom(scope))
            height = 1 + max(height, self.height)
            if level + height > MAX_NESTING:
                raise self._too_deep(t)
        self.depth = level
        self.height = height
        return e

    def atom(self, scope: Scope) -> Expr:
        t = self.tok  # tested before it is taken, which pulls the token after it
        if t.kind not in ("Pi", "lam", "LPAREN", "IDENT"):
            raise GatSyntaxError(f"expected an expression, found {t.value or 'end of input'!r}", t.line, t.col)
        self.next()
        if t.kind in ("Pi", "lam"):
            self.expect("LPAREN")
            var = self.expect("IDENT").value
            self.expect("COLON")
            dom = self.expr(scope)
            height = self.height
            self.expect("RPAREN")
            body = self.expr(None if scope is None else scope + (var,))
            self.height = 1 + max(height, self.height)
            return (mk_pi if t.kind == "Pi" else mk_lam)(var, dom, body)
        if t.kind == "LPAREN":
            e = self.expr(scope)
            self.expect("RPAREN")
            return e
        is_var = bool(scope) and t.value in scope
        if self.tok.kind != "LPAREN":
            self.height = 0
            return Var(t.value) if is_var else App(t.value)
        if is_var:
            raise GatSyntaxError(f"variable {t.value!r} cannot take arguments", t.line, t.col)
        self.next()
        args = [self.expr(scope)]
        height = self.height
        while self.tok.kind == "COMMA":
            self.next()
            args.append(self.expr(scope))
            height = max(height, self.height)
        self.expect("RPAREN")
        self.height = 1 + height
        return App(t.value, tuple(args))

    def type_or_expr(self, scope: Scope) -> Optional[Expr]:
        """The keyword 'Type' (None) or an expression."""
        if self.tok.kind == "Type":
            self.next()
            return None
        return self.expr(scope)

    def telescope(self) -> tuple[tuple[str, Expr], ...]:
        """A parenthesized telescope, each type read over the names before it."""
        self.expect("LPAREN")
        out: list[tuple[str, Expr]] = []
        if self.tok.kind != "RPAREN":
            while True:
                name = self.expect("IDENT").value
                self.expect("COLON")
                out.append((name, self.expr(tuple(x for x, _ in out))))
                if self.tok.kind != "COMMA":
                    break
                self.next()
        self.expect("RPAREN")
        return tuple(out)

    # -- blocks ------------------------------------------------------------

    def file(self) -> SourceFile:
        items = []
        while self.tok.kind != "EOF":
            t = self.tok
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
        k = 1  # _k is the least free label: names only accumulate, so k never falls
        while self.tok.kind != "RBRACE":
            line = self.tok.line
            while f"_{k}" in decl_lines:
                k += 1
            d = self.decl(f"_{k}")
            decl_lines[d.name] = line
            decls.append(d)
        self.expect("RBRACE")
        return TheoryBlock(name, decls, t.line, decl_lines)

    def decl(self, unnamed: str) -> Declaration:
        t = self.tok  # tested before it is taken, as in atom
        if t.kind not in ("sym", "ax"):
            raise GatSyntaxError(f"expected 'sym' or 'ax', found {t.value!r}", t.line, t.col)
        self.next()
        # a symbol's name is required, an axiom's label optional
        name = self.expect("IDENT").value if t.kind == "sym" or self.tok.kind == "IDENT" else unnamed
        self.expect("COLON")
        ctx = self.telescope()
        scope = tuple(x for x, _ in ctx)
        self.expect("DARROW")
        if t.kind == "sym":
            ty = self.type_or_expr(scope)
            return Declaration(name, ctx, IsType(None) if ty is None else HasType(None, ty))
        lhs = self.expr(scope)
        self.expect("EQUALS")
        rhs = self.expr(scope)
        if self.tok.kind != "COLON":
            return Declaration(name, ctx, TermEq(lhs, rhs))
        self.next()
        ty = self.type_or_expr(scope)
        return Declaration(name, ctx, TypeEq(lhs, rhs) if ty is None else TermEq(lhs, rhs, ty))

    def interp_block(self) -> InterpBlock:
        t = self.expect("interp")
        name = self.expect("IDENT").value
        self.expect("COLON")
        src = self.expect("IDENT").value
        self.expect("RARROW")
        dst = self.expect("IDENT").value
        self.expect("LBRACE")
        assignments = []
        while self.tok.kind != "RBRACE":
            s = self.expect("IDENT")
            self.expect("MAPSTO")
            image, toks = [self.tok], self.toks
            self.toks = _taking(toks, image)
            self.expr(None)
            self.toks = toks
            assignments.append((s.value, image, s.line, s.col))
            if self.tok.kind == "SEMI":
                self.next()
        self.expect("RBRACE")
        return InterpBlock(name, src, dst, assignments, t.line)

    def judgment_block(self) -> JudgmentBlock:
        t = self.expect("judgment")
        name = self.expect("IDENT").value
        self.expect("over")
        theory_name = self.expect("IDENT").value
        self.expect("LBRACE")
        ctx = self.telescope()
        self.expect("TURNSTILE")
        stmt = self.statement(tuple(x for x, _ in ctx))
        self.expect("RBRACE")
        return JudgmentBlock(name, theory_name, ctx, stmt, t.line)

    def statement(self, scope: tuple[str, ...]) -> Statement:
        if self.tok.kind == "Ctx":
            self.next()
            return CtxOk()
        first = self.expr(scope)
        if self.tok.kind == "EQUALS":
            self.next()
            second = self.expr(scope)
            self.expect("COLON")
            ty = self.type_or_expr(scope)
            return TypeEq(first, second) if ty is None else TermEq(first, second, ty)
        self.expect("COLON")
        ty = self.type_or_expr(scope)
        return IsType(first) if ty is None else HasType(first, ty)


def _taking(toks: Iterator[Token], taken: list[Token]) -> Iterator[Token]:
    """toks, each also appended to taken as it is pulled."""
    for t in toks:
        taken.append(t)
        yield t


def parse(text: str) -> SourceFile:
    """Parse a .gat source file; positioned errors, no crash on any input."""
    return _Parser(_lex(text)).file()


def parse_expr(text: str, scope: Sequence[str] = ()) -> Expr:
    p = _Parser(_lex(text))
    e = p.expr(tuple(scope))
    p.expect("EOF")
    return e


def parse_context(text: str) -> tuple[tuple[str, Expr], ...]:
    p = _Parser(_lex(text))
    ctx = p.telescope()
    p.expect("EOF")
    return ctx


def resolve_interp_block(block: InterpBlock, src: Theory, dst: Theory):
    """Read each image again with its source symbol's telescope in scope."""
    from .gatcat import Interpretation

    mapping: dict[str, Expr] = {}
    for sym, toks, line, col in block.assignments:
        try:
            d = src.decl(sym)
        except UnknownSymbol:
            raise GatSyntaxError(f"{sym!r} is not declared in {src.name!r}", line, col)
        if not d.is_symbol:
            continue  # axiom entries are irrelevant
        mapping[sym] = _Parser(iter(toks)).expr(d.arity)
    return Interpretation(src, dst, mapping, block.name)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_expr(
    e: Expr, unicode: bool = False, scope: Sequence[str] = (), heads: Optional[set[str]] = None
) -> str:
    """e as text over the variables in scope, in one walk that also adds
    the symbols applied in e to heads when it is given."""
    pi_word = "Π" if unicode else "Pi"
    heads = set() if heads is None else heads

    def go(t: Expr, avoid: tuple[str, ...]) -> str:
        c = t.__class__
        if c is Var:
            return t.name
        if c is App:
            heads.add(t.head)
            if not t.args:
                return t.head
            return f"{t.head}({', '.join([go(a, avoid) for a in t.args])})"
        if c is Pi or c is Lam:
            dom, part = children(t)
            # the bound name must not shadow any symbol applied under the
            # binder, or reparsing would read those heads as the variable
            x = fresh_name(t.hint, {*avoid, *free_vars(part), *head_symbols(part)})
            word = pi_word if c is Pi else "lam"
            return f"{word} ({x} : {go(dom, avoid)}) {go(open_bound(part, Var(x)), avoid + (x,))}"
        if c is Ap:
            fun = go(t.fun, avoid)
            if isinstance(t.fun, (Pi, Lam)):
                fun = f"({fun})"
            arg = go(t.arg, avoid)
            if isinstance(t.arg, (Pi, Lam, Ap)):
                arg = f"({arg})"
            return f"{fun} @ {arg}"
        return repr(t)

    return go(e, tuple(scope))


def _shadow_free(ctx, used: set[str]):
    """Rename the telescope variables that shadow a symbol in used, the
    symbols applied anywhere in the declaration, so lexical resolution
    reads the print back verbatim.  Returns the new telescope and the
    renaming substitution."""
    sub: dict[str, Expr] = {}
    out = []
    taken = used | {x for x, _ in ctx}
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
    heads: set[str] = set()
    tele = "(" + ", ".join([f"{x} : {print_expr(ty, unicode, heads=heads)}" for x, ty in d.ctx]) + ")"
    # the statement with each expression replaced by its printed text
    k = d.kind.map(lambda e: print_expr(e, unicode, heads=heads))
    if not heads.isdisjoint(d.arity):  # print again with the shadowing variables renamed
        ctx, sub = _shadow_free(d.ctx, heads)
        return print_decl(Declaration(d.name, ctx, d.kind.map(lambda e: substitute(e, sub))), unicode)
    match k:
        case IsType():
            return f"sym {d.name} : {tele} {arrow} Type"
        case HasType(_, ty):
            return f"sym {d.name} : {tele} {arrow} {ty}"
        case TypeEq(lhs, rhs):
            return f"ax {d.name} : {tele} {arrow} {lhs} = {rhs} : Type"
        case TermEq(lhs, rhs, ty):
            ty = "" if ty is None else f" : {ty}"
            return f"ax {d.name} : {tele} {arrow} {lhs} = {rhs}{ty}"


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
    for d in i.src.symbols():
        _, sub = _shadow_free(d.ctx, set().union(*map(head_symbols, d.exprs())))
        image = substitute(i.mapping[d.name], sub)
        lines.append(f"  {d.name} |-> {print_expr(image, unicode)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
