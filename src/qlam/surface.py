"""Concrete syntax: a lexer and recursive descent parser for distributions
and types.

Distributions are sums of optionally scaled summands: `1/sqrt2 * inl * +
1/sqrt2 * inr *`.  Scalars must be written without internal spaces (`0.5`,
`3/4`, `1/sqrt2`, `0.5-0.5i`, `2i`); the `+` between summands is always
spaced apart from them in printed output, so the two readings never collide.
`*` is the unit value where a term is expected and multiplication after a
scalar.  Application is juxtaposition and binds tighter than `;`, which binds
tighter than summand `+`.  A lambda body extends as far right as possible.
Types: `#` binds tightest, then `*`, then `+`, then `->`; `U` is the unit
type and `B` abbreviates `U+U` on input (printed expanded).  `--` starts a
comment.

The lexer is one pass of a single regex; each token is a plain tuple
`(kind, value, start, end)` of offsets.  Line and column are computed only
when a `ParseError` or `HeadNotPure` error is raised.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .syntax import (
    Distribution,
    Lam,
    Var,
    Void,
    _trusted,
    add,
    canonicalize,
    mk_app,
    mk_inl,
    mk_inr,
    mk_let,
    mk_match,
    mk_pair,
    mk_seq,
    scale,
    show_dist,
    singleton,
)
from .typecheck import ErrorKind, TypeCheckError
from .types import Arrow, BOOL, Prod, Sharp, Sum, Type, UNIT


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan | None = None):
        at = f"line {span.line}, column {span.column}: " if span else ""
        super().__init__(at + message)
        self.message = message
        self.span = span


def _span(text: str, start: int, end: int) -> SourceSpan:
    """The span of text[start:end], with 1-based line and column."""
    line_start = text.rfind("\n", 0, start) + 1
    return SourceSpan(start, end, text.count("\n", 0, start) + 1, start - line_start + 1)


_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# Skip blanks and comments, then read an identifier or keyword (group 1), a
# scalar (2, parts 3-7), punctuation (8), any other character (9) or the end
# (no group).  A `.` before a non-ASCII word character is in group 9, where it
# is told apart from a malformed number such as `.²`.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    r"(?:([A-Za-z_][A-Za-z0-9_']*)"
    rf"|(({_NUM})(?:(/sqrt2)|/({_NUM})|([+-]{_NUM})i|(i))?)"
    r"|(->|\.(?![^\W\d_A-Za-z])|[-\\(),;+*={}|:#])"
    r"|(.)"
    r"|\Z)",
    re.S,
)
_KEYWORDS = frozenset({"let", "in", "match", "inl", "inr"})
_SQRT2 = math.sqrt(2)

_Token = tuple[str, object, int, int]


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    append = toks.append
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 1:
            name = m[1]
            start, end = m.span(1)
            append((name if name in _KEYWORDS else "ident", name, start, end))
        elif group == 8:
            op = m[8]
            start, end = m.span(8)
            append((op, op, start, end))
        elif group == 2:
            start, end = m.span(2)
            append(("scalar", _scalar(text, m), start, end))
        elif group is None:
            break
        else:
            start = m.start(9)
            ch = m[9]
            if ch.isdigit() or (ch == "." and text[start + 1:start + 2].isdigit()):
                raise ParseError(f"bad number at {text[start:start + 8]!r}",
                                 _span(text, start, start + 1))
            if ch != ".":
                raise ParseError(f"unexpected character {ch!r}", _span(text, start, start + 1))
            append((".", ".", start, start + 1))
    append(("eof", None, len(text), len(text)))
    return toks


def _scalar(text: str, m: re.Match) -> complex | float:
    num = float(m[3])
    if m[4]:
        return num / _SQRT2
    if m[5]:
        denom = float(m[5])
        if denom == 0:
            raise ParseError("zero denominator in scalar", _span(text, *m.span(2)))
        return num / denom
    if m[6]:
        return complex(num, float(m[6]))
    if m[7]:
        return complex(0.0, num)
    return num


_ATOM_STARTS = frozenset({"*", "ident", "(", "inl", "inr"})
_ONE = complex(1)


def _found(tok: _Token) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def error(self, message: str, tok: _Token) -> ParseError:
        return ParseError(message, _span(self.text, tok[2], tok[3]))

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def expect(self, kind: str, what: str) -> object:
        """The value of the next token, which must be of this kind."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"expected {what}, found {_found(tok)}", tok)
        self.pos += 1
        return tok[1]

    # -- distributions ------------------------------------------------------

    def dist(self) -> Distribution:
        parts = [self.summand()]
        while self.at("+"):
            self.pos += 1
            parts.append(self.summand())
        return parts[0] if len(parts) == 1 else add(*parts)

    def summand(self) -> Distribution:
        neg = self.at("-")
        if neg:
            self.pos += 1
        coeff: complex | float = 1
        scaled = self.at("scalar")
        if scaled:
            coeff = self.tokens[self.pos][1]  # type: ignore[assignment]
            self.pos += 1
            self.expect("*", "'*' after a scalar coefficient")
        body = self.seq_term()
        if neg:
            coeff = -coeff
        if scaled or neg:
            return scale(coeff, body)
        return body

    def seq_term(self) -> Distribution:
        first = self.head_term()
        if self.at(";"):
            self.pos += 1
            return mk_seq(first, self.seq_term())
        return first

    def head_term(self) -> Distribution:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "\\":
            self.pos += 1
            name = self.expect("ident", "a parameter name")
            self.expect(":", "':' and a parameter type")
            ann = self.type_expr()
            self.expect(".", "'.' after the parameter type")
            return singleton(Lam(name, ann, self.dist()))
        if kind == "let":
            self.pos += 1
            self.expect("(", "'(' after let")
            x = self.expect("ident", "a name")
            self.expect(",", "',' between the pair names")
            y = self.expect("ident", "a name")
            self.expect(")", "')' after the pair names")
            self.expect("=", "'='")
            scrut = self.dist()
            self.expect("in", "'in'")
            body = self.dist()
            try:
                return mk_let(x, y, scrut, body)
            except ValueError as e:
                raise self.error(str(e), tok) from None
        if kind == "match":
            self.pos += 1
            scrut = self.dist()
            self.expect("{", "'{' after the matched term")
            self.expect("inl", "'inl'")
            x1 = self.expect("ident", "a name")
            self.expect("->", "'->'")
            b1 = self.dist()
            self.expect("|", "'|' between the branches")
            self.expect("inr", "'inr'")
            x2 = self.expect("ident", "a name")
            self.expect("->", "'->'")
            b2 = self.dist()
            self.expect("}", "'}' after the branches")
            return mk_match(scrut, x1, b1, x2, b2)
        return self.app_term()

    def app_term(self) -> Distribution:
        cur = self.atom()
        tokens = self.tokens
        while tokens[self.pos][0] in _ATOM_STARTS:
            tok = tokens[self.pos]
            arg = self.atom()
            summands = cur.summands
            if len(summands) != 1 or summands[0][0] != 1:
                raise TypeCheckError(
                    ErrorKind.HEAD_NOT_PURE,
                    "the operator of an application must be a single unscaled term",
                    span=_span(self.text, tok[2], tok[3]),
                )
            cur = mk_app(summands[0][1], arg)
        return cur

    def atom(self) -> Distribution:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "*":
            self.pos += 1
            return _trusted(((_ONE, Void()),))
        if kind == "ident":
            self.pos += 1
            return _trusted(((_ONE, Var(tok[1])),))
        if kind == "inl" or kind == "inr":
            self.pos += 1
            arg = self.atom()
            try:
                return mk_inl(arg) if kind == "inl" else mk_inr(arg)
            except ValueError:
                raise self.error(f"{kind} applies to values only", tok) from None
        if kind == "(":
            self.pos += 1
            first = self.dist()
            if self.at(","):
                self.pos += 1
                second = self.dist()
                self.expect(")", "')' after the pair")
                try:
                    return mk_pair(first, second)
                except ValueError:
                    raise self.error("pair components must be values", tok) from None
            self.expect(")", "')'")
            return first
        raise self.error(f"expected a term, found {_found(tok)}", tok)

    # -- types --------------------------------------------------------------

    def type_expr(self) -> Type:
        left = self.sum_type()
        if self.at("->"):
            self.pos += 1
            return Arrow(left, self.type_expr())
        return left

    def sum_type(self) -> Type:
        return self.right_nested("+", self.prod_type, Sum)

    def prod_type(self) -> Type:
        return self.right_nested("*", self.sharp_type, Prod)

    def right_nested(self, sep: str, operand, node) -> Type:
        """operand (sep operand)*, grouped to the right."""
        parts = [operand()]
        while self.at(sep):
            self.pos += 1
            parts.append(operand())
        out = parts.pop()
        while parts:
            out = node(parts.pop(), out)
        return out

    def sharp_type(self) -> Type:
        if self.at("#"):
            self.pos += 1
            return Sharp(self.sharp_type())
        return self.atom_type()

    def atom_type(self) -> Type:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] == "(":
            t = self.type_expr()
            self.expect(")", "')'")
            return t
        if tok[0] == "ident":
            if tok[1] == "U":
                return UNIT
            if tok[1] == "B":
                return BOOL
            raise self.error(f"unknown type name {tok[1]!r}", tok)
        raise self.error(f"expected a type, found {_found(tok)}", tok)


def parse_program(text: str) -> Distribution:
    p = _Parser(text)
    d = p.dist()
    p.expect("eof", "end of input")
    return d


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.type_expr()
    p.expect("eof", "end of input")
    return t


def pretty_print(d: Distribution) -> str:
    """Canonical concrete syntax: parsing the result gives back the canonical
    form of d, alpha-exactly."""
    return show_dist(canonicalize(d))
