"""Concrete syntax: a lexer, a parser for distributions and types, and the
printer's entry point.

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

Terms are parsed by one loop over the tokens and an explicit stack, with no
recursion, so nesting depth costs heap, not Python frames.  A frame is pushed
only where a construct opens: a scaled or negated summand, a `+` sum, a `;`
head, an application, `inl`/`inr`, a parenthesis or pair, and the binders
`\\`, `let` and `match`.  Each construct is built when its last operand
closes, by the same constructors and checks, in the same order, as a
recursive descent would.  Types are read by a second, smaller loop,
`_read_type`, which both `parse_type` and the annotation after `\\x:` use.
It is kept apart from the term loop, where `*`, `+` and `(` mean other
things.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass

from .syntax import (
    App,
    Distribution,
    InlV,
    InrV,
    Lam,
    PairV,
    PureTerm,
    Var,
    Void,
    _trusted,
    add,
    canonicalize,
    is_value_distribution,
    mk_app,
    mk_inl,
    mk_inr,
    mk_let,
    mk_match,
    mk_pair,
    mk_seq,
    scale,
    show_dist,
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


_ONE = complex(1)
_VOID = Void()

# The tokens that may start what the parse loop reads next: an atom (after
# `inl`/`inr`, and as an argument), a head term (after a scalar or `;`) or a
# summand.
_ATOM = frozenset({"*", "ident", "(", "inl", "inr"})
_HEAD = _ATOM | {"\\", "let", "match"}
_SUMMAND = _HEAD | {"-", "scalar"}
# The frames on its stack, tuples whose first item is the kind:
#   (_END,)                          the program, to be followed by the end
#   (_SCALED, coefficient, tok)      a summand's `-` and scalar (tok)
#   (_SUM, summands)                 a `+` sum, the summands read so far
#   (_SEQ, head, tok)                a head and its `;` (tok)
#   (_APP, operator, tok)            an application whose argument starts at tok
#   (_INJ, tok)                      `inl` or `inr`
#   (_PAREN, tok), (_PAIR, first, tok)                   `(` and `(first,`
#   (_LAM, name, type)
#   (_LET, tok, x, y), (_LET_BODY, tok, x, y, scrutinee)
#   (_MATCH, tok), (_LEFT, tok, scrutinee, x1),
#   (_RIGHT, tok, scrutinee, x1, branch1, x2)
(_END, _SCALED, _SUM, _SEQ, _APP, _INJ, _PAREN, _PAIR, _LAM, _LET, _LET_BODY,
 _MATCH, _LEFT, _RIGHT) = range(14)


def _found(tok: _Token) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


def _dist(v: PureTerm | Distribution) -> Distribution:
    """v as a distribution: the parse loop carries a single unscaled term as
    the bare term."""
    return v if v.__class__ is Distribution else _trusted(((_ONE, v),))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def error(self, message: str, tok: _Token) -> ParseError:
        return ParseError(message, _span(self.text, tok[2], tok[3]))

    def check(self, tok: _Token, kind: str, what: str) -> None:
        """Raise unless tok is of this kind."""
        if tok[0] != kind:
            raise self.error(f"expected {what}, found {_found(tok)}", tok)

    def expect(self, kind: str, what: str) -> object:
        """The value of the next token, which must be of this kind."""
        tok = self.tokens[self.pos]
        self.check(tok, kind, what)
        self.pos += 1
        return tok[1]


# the names a type operand may have, and the infixes, tightest first: the
# index of each in a group's lists of operands, and the node that groups
# those operands to the right
_TYPE_NAMES = {"U": UNIT, "B": BOOL}
_INFIX_LEVEL = {"*": 0, "+": 1, "->": 2}
_INFIX_NODES = (Prod, Sum, Arrow)


def _read_type(p: _Parser) -> Type:
    """The type that starts at p.pos, which ends past it.

    One loop reads the operands: a run of `#`s, then a name or `(`.  A
    group keeps the operands read before each of its infixes.  An operand
    ends before an infix, which groups the operands of the tighter infixes
    into it and keeps the result, or before anything else, which groups
    them all.  Each open parenthesis keeps the enclosing group and its
    `#`s on a stack, and its own group becomes an operand at `)`."""
    tokens = p.tokens
    pos = p.pos
    opened: list[tuple[list[list[Type]], int]] = []
    group: list[list[Type]] = [[], [], []]
    while True:
        # an operand
        sharps = 0
        tok = tokens[pos]
        while tok[0] == "#":
            sharps += 1
            pos += 1
            tok = tokens[pos]
        pos += 1
        if tok[0] == "(":
            opened.append((group, sharps))
            group = [[], [], []]
            continue
        if tok[0] != "ident":
            raise p.error(f"expected a type, found {_found(tok)}", tok)
        t = _TYPE_NAMES.get(tok[1])
        if t is None:
            raise p.error(f"unknown type name {tok[1]!r}", tok)
        # t ends here: group what it closes
        while True:
            for _ in range(sharps):
                t = Sharp(t)
            tok = tokens[pos]
            level = _INFIX_LEVEL.get(tok[0], 3)
            for operands, node in zip(group[:level], _INFIX_NODES):
                while operands:
                    t = node(operands.pop(), t)
            if level < 3:
                group[level].append(t)
                pos += 1
                break
            if not opened:
                p.pos = pos
                return t
            p.check(tok, ")", "')'")
            pos += 1
            group, sharps = opened.pop()


def parse_program(text: str) -> Distribution:
    """The distribution that text writes down.

    One loop reads the tokens.  It descends to an atom, pushing a frame for
    each construct that opens on the way, then pops the frames that the atom
    completes, building each construct as it closes, until another operand
    is to be read or the program ends.  A single unscaled term is carried as
    the bare term and becomes a distribution only where one is stored."""
    p = _Parser(text)
    tokens = p.tokens
    stack: list[tuple] = [(_END,)]
    push, pop = stack.append, stack.pop
    pos = 0
    reading = _SUMMAND
    while True:
        # descend to an atom
        while True:
            tok = tokens[pos]
            kind = tok[0]
            pos += 1
            if kind == "*":
                v = _VOID
                break
            if kind == "ident":
                v = Var(tok[1])
                break
            if kind not in reading:
                raise p.error(f"expected a term, found {_found(tok)}", tok)
            if kind == "(":
                push((_PAREN, tok))
                reading = _SUMMAND
            elif kind == "inl" or kind == "inr":
                push((_INJ, tok))
                reading = _ATOM
            elif kind == "-" or kind == "scalar":
                if kind == "-" and tokens[pos][0] == "scalar":
                    tok = tokens[pos]
                    pos += 1
                coeff = tok[1] if tok[0] == "scalar" else 1
                if tok[0] == "scalar":
                    p.check(tokens[pos], "*", "'*' after a scalar coefficient")
                    pos += 1
                push((_SCALED, -coeff if kind == "-" else coeff, tok))
                reading = _HEAD
            else:
                p.pos = pos
                if kind == "\\":
                    name = p.expect("ident", "a parameter name")
                    p.expect(":", "':' and a parameter type")
                    ann = _read_type(p)
                    p.expect(".", "'.' after the parameter type")
                    push((_LAM, name, ann))
                elif kind == "let":
                    p.expect("(", "'(' after let")
                    x = p.expect("ident", "a name")
                    p.expect(",", "',' between the pair names")
                    y = p.expect("ident", "a name")
                    p.expect(")", "')' after the pair names")
                    p.expect("=", "'='")
                    push((_LET, tok, x, y))
                else:
                    push((_MATCH, tok))
                pos = p.pos
                reading = _SUMMAND

        # v is an atom: pop what it completes until an operand is to be read
        atom = True
        while True:
            tok = tokens[pos]
            kind = tok[0]
            if atom:
                top = stack[-1]
                while top[0] == _INJ:
                    pop()
                    v = _inject(p, top[1], v)
                    top = stack[-1]
                if top[0] == _APP:
                    v = _apply(p, top[1], v, top[2])
                    pop()
                if kind in _ATOM:
                    push((_APP, v, tok))
                    reading = _ATOM
                    break
            # v is a head term
            if kind == ";":
                push((_SEQ, v, tok))
                pos += 1
                reading = _HEAD
                break
            top = stack[-1]
            while top[0] == _SEQ:
                pop()
                v = _built(p, top[2], mk_seq, _dist(top[1]), _dist(v))
                top = stack[-1]
            if top[0] == _SCALED:
                pop()
                v = _built(p, top[2], scale, top[1], _dist(v))
                top = stack[-1]
            if kind == "+":
                if top[0] == _SUM:
                    top[1].append(v)
                else:
                    push((_SUM, [v]))
                pos += 1
                reading = _SUMMAND
                break
            if top[0] == _SUM:
                pop()
                top[1].append(v)
                v = add(*map(_dist, top[1]))
                top = stack[-1]
            # v is a distribution: close the construct it ends
            frame = top[0]
            if frame == _END:
                p.check(tok, "eof", "end of input")
                return _dist(v)
            if frame == _PAREN and kind == ",":
                stack[-1] = (_PAIR, v, top[1])
                pos += 1
                reading = _SUMMAND
                break
            if frame == _PAREN or frame == _PAIR:
                p.check(tok, ")", "')'" if frame == _PAREN else "')' after the pair")
                pos += 1
                pop()
                if frame == _PAIR:
                    v = _pair(p, top[1], v, top[2])
                atom = True
                continue
            atom = False
            if frame == _LAM:
                pop()
                v = Lam(top[1], top[2], _dist(v))
            elif frame == _LET_BODY:
                pop()
                v = _built(p, top[1], mk_let, top[2], top[3], _dist(top[4]), _dist(v))
            elif frame == _RIGHT:
                p.check(tok, "}", "'}' after the branches")
                pos += 1
                pop()
                v = _built(p, top[1], mk_match, _dist(top[2]), top[3], top[4], top[5], _dist(v))
            else:
                # the scrutinee of a let or match, or a match's left branch
                p.pos = pos
                if frame == _LET:
                    p.expect("in", "'in'")
                    stack[-1] = (_LET_BODY, *top[1:], v)
                elif frame == _MATCH:
                    p.expect("{", "'{' after the matched term")
                    p.expect("inl", "'inl'")
                    stack[-1] = (_LEFT, top[1], v, p.expect("ident", "a name"))
                    p.expect("->", "'->'")
                else:
                    p.expect("|", "'|' between the branches")
                    p.expect("inr", "'inr'")
                    stack[-1] = (_RIGHT, *top[1:], _dist(v), p.expect("ident", "a name"))
                    p.expect("->", "'->'")
                pos = p.pos
                reading = _SUMMAND
                break


def _inject(p: _Parser, tok: _Token, v: PureTerm | Distribution) -> PureTerm | Distribution:
    """inl or inr (tok) of v, which must be a value distribution."""
    try:
        if v.__class__ is Distribution:
            return mk_inl(v) if tok[0] == "inl" else mk_inr(v)
        return InlV(v) if tok[0] == "inl" else InrV(v)
    except ValueError as e:
        if is_value_distribution(_dist(v)):
            raise p.error(str(e), tok) from None  # merged summands overflowed
        raise p.error(f"{tok[0]} applies to values only", tok) from None


def _pair(p: _Parser, first: PureTerm | Distribution, second: PureTerm | Distribution,
          tok: _Token) -> PureTerm | Distribution:
    """The pair opened at tok; its components must be value distributions."""
    try:
        if first.__class__ is Distribution or second.__class__ is Distribution:
            return mk_pair(_dist(first), _dist(second))
        return PairV(first, second)
    except ValueError as e:
        if is_value_distribution(_dist(first)) and is_value_distribution(_dist(second)):
            raise p.error(str(e), tok) from None  # the coefficients' product overflowed
        raise p.error("pair components must be values", tok) from None


def _apply(p: _Parser, op: PureTerm | Distribution, arg: PureTerm | Distribution,
           tok: _Token) -> PureTerm | Distribution:
    """op applied to arg, whose first token is tok; op must be a single
    unscaled term."""
    if op.__class__ is Distribution:
        summands = op.summands
        if len(summands) != 1 or summands[0][0] != 1:
            raise TypeCheckError(
                ErrorKind.HEAD_NOT_PURE,
                "the operator of an application must be a single unscaled term",
                span=_span(p.text, tok[2], tok[3]),
            )
        op = summands[0][1]
    return App(op, arg) if arg.__class__ is not Distribution else _built(p, tok, mk_app, op, arg)


def _built(p: _Parser, tok: _Token, make: Callable[..., Distribution], *args) -> Distribution:
    """make(*args), a construct that multiplies or merges coefficients, with
    its ValueError (a coefficient that overflows, or a `let` whose two names
    are equal) raised as a parse error at tok."""
    try:
        return make(*args)
    except ValueError as e:
        raise p.error(str(e), tok) from None


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = _read_type(p)
    p.expect("eof", "end of input")
    return t


def pretty_print(d: Distribution) -> str:
    """Canonical concrete syntax: parsing the result gives back the canonical
    form of d, alpha-exactly."""
    return show_dist(canonicalize(d))
