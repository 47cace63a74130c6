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

The lexer is one `findall` of a single regex.  Each token is a plain tuple
`(kind, value)`, with no offsets: punctuation, keywords and the end are
shared tuples, and each distinct identifier, scalar, register literal,
superposition literal or binder phrase of a text is read once.  A register
literal is a ground value written as the printer writes a register of up to
`_MAX_REGISTER` qubits, such as `(inl *, (inr *, inl *))`.  `parse_program`
reads each one as a single `value` token, which the parse loop takes as an
atom, as it takes `*`.  A superposition literal is a sum of ground values
in parentheses, as the printer writes one, such as
`(0.6 * (inl *, inr *) + 0-0.8i * (inr *, inr *))`.  It is a single `sum`
token, read once per text, each register literal in it through the text's
one read of that literal.  The parse loop takes it where it takes a `value`
token, as a fresh distribution of its summands at each occurrence.  A
binder phrase is a binder's header as the printer writes it: `\\x:T.`,
`let (x, y) =`, `{ inl x ->` or `| inr y ->`, single spaces where the
printer puts them and no name a keyword.  Each is one token, which the
parse loop takes where it would read the phrase's plain tokens; a lambda
phrase's annotation is typed once per process, through `_annotation`.
The parser names a token by its index.  Only when a `ParseError` or
`HeadNotPure` error is raised is the span of that token, its offsets, line
and column, found, by scanning the text again with the plain regex, which
has no literal or phrase token.  Errors come from the plain tokens: where
the read with literal and phrase tokens raises, `parse_program` reads the
text again without them and raises what that read raises.

Terms are parsed by one loop over the tokens and an explicit stack, with no
recursion, so nesting depth costs heap, not Python frames.  A frame is pushed
only where a construct opens: a scaled or negated summand, a `+` sum, a `;`
head, an application, `inl`/`inr`, a parenthesis or pair, and the binders
`\\`, `let` and `match`.  Each construct is built when its last operand
closes, by the same constructors and checks, in the same order, as a
recursive descent would.  A scaled term and a `+` sum are built from
summands that are already valid, so only a new coefficient is checked.
Types are read by a second, smaller loop, `_read_type`, which both
`parse_type` and the annotation after `\\x:` use.  It is kept apart from the
term loop, where `*`, `+` and `(` mean other things.
"""

from __future__ import annotations

import cmath
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

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
    _CLOSED,
    _set_dist_fv,
    _trusted,
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
from .types import Arrow, BOOL, Prod, Sharp, Sum, Type, UNIT, _MAX_REGISTER, _MEMO


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
# Skip blanks and comments, then read one token into the one group: an
# identifier or keyword, a scalar, punctuation, any other character, or the
# empty string at the end.  A `.` before a non-ASCII word character is read as
# any other character, and `_lex_error` tells it apart from a malformed number
# such as `.²`.
_SKIP = r"(?:[ \t\r\n]+|--[^\n]*)*"
_SCALAR_TEXT = rf"{_NUM}(?:/sqrt2|/{_NUM}|[+-]{_NUM}i|i)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_KEYWORDS = ("let", "in", "match", "inl", "inr")
_TOKENS = (
    rf"{_NAME}"
    rf"|{_SCALAR_TEXT}"
    r"|->|\.(?![^\W\d_A-Za-z])|[-\\(),;+*={}|:#]"
    r"|."
    r"|\Z"
)
_TOKEN_RE = re.compile(rf"{_SKIP}({_TOKENS})", re.S)
# A register literal as the printer writes it: pairs nested to the right,
# `, ` between components, each left component and the last right one a
# chain of `inl `/`inr ` over `*`, and at most as many pairs as a register
# of `_MAX_REGISTER` qubits has.  A superposition literal, as the printer
# writes a sum of ground values in parentheses: two or more summands joined
# by ` + `, each an optional `-`, scalar and ` * ` before a register literal
# or a chain.
_CHAIN = r"(?:in[lr] )*\*"
_TAIL = _CHAIN
for _ in range(_MAX_REGISTER - 2):
    _TAIL = rf"{_CHAIN}|\({_CHAIN}, (?:{_TAIL})\)"
_REGISTER = rf"\({_CHAIN}, (?:{_TAIL})\)"
# a scalar's parts: the number, then `/sqrt2`, a denominator, an imaginary
# part after the real one, or `i`
_SCALAR = rf"({_NUM})(?:(/sqrt2)|/({_NUM})|([+-]{_NUM})i|(i))?"
_SCALAR_RE = re.compile(_SCALAR)
_SUMMAND_TEXT = rf"(?:-?{_SCALAR_TEXT} \* )?(?:{_REGISTER}|{_CHAIN})"
# A binder phrase as the printer writes one: a lambda's `\x:T.` before a
# space, its annotation written with `U`, `#`, `+`, `*`, parentheses and
# ` -> `; `let (x, y) =`; and a match's `{ inl x ->` and `| inr y ->`.  A
# name in a phrase is no keyword, which the plain tokens would read as one.
# `_REGISTER_TOKEN_RE` reads each literal and each phrase as a single token;
# anything else, a deeper literal's outer pairs among it, is read as
# `_TOKEN_RE` reads it.
_KEYWORD = f"(?:{'|'.join(_KEYWORDS)})"
_TYPE_TEXT = r"[#()+*U]+(?: -> [#()+*U]+)*"
_PHRASE = (
    rf"\\(?!{_KEYWORD}:){_NAME}:{_TYPE_TEXT}\.(?= )"
    rf"|let \((?!{_KEYWORD},){_NAME}, (?!{_KEYWORD}\)){_NAME}\) ="
    rf"|\{{ inl (?!{_KEYWORD} ){_NAME} ->"
    rf"|\| inr (?!{_KEYWORD} ){_NAME} ->"
)
_REGISTER_TOKEN_RE = re.compile(
    rf"{_SKIP}(\({_SUMMAND_TEXT}(?: \+ {_SUMMAND_TEXT})+\)|{_REGISTER}|{_PHRASE}|{_TOKENS})",
    re.S)
# one summand of a superposition literal, read from its start: the `-`, the
# scalar's parts and the register literal or chain
_SUMMAND_RE = re.compile(rf"(?:(-?){_SCALAR} \* )?([^+]+)(?: \+ |$)")
_SQRT2 = math.sqrt(2)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_Token = tuple[str, object]

# the tokens every text shares: punctuation, keywords and the end
_SHARED: dict[str, _Token] = {
    s: (s, s) for s in ("->", ".", "-", "\\", "(", ")", ",", ";", "+", "*", "=", "{", "}", "|",
                        ":", "#", *_KEYWORDS)
}
_SHARED[""] = ("eof", None)
_VOID = Void()


def _lex(text: str, pattern: re.Pattern = _TOKEN_RE) -> list[_Token]:
    """The tokens of text, the last one the end, as pattern reads them.
    Each distinct identifier, scalar, register literal, superposition
    literal and binder phrase is read once, and its tuple shared by all its
    occurrences."""
    found = pattern.findall(text)
    if found[-2:] == ["", ""]:
        found.pop()  # blanks or a comment at the end, then the end again
    tokens = dict(_SHARED)
    for s in set(found).difference(tokens):
        if s in tokens:
            continue  # a register literal, read inside a superposition
        c = s[0]
        if c == "(" and " + " in s:
            tokens[s] = ("sum", _superposition(s, tokens))
            continue
        if c in "\\{|" or s.startswith("let ("):
            tokens[s] = _phrase(s)
            continue
        tok = _token(s)
        if tok is None:
            raise _lex_error(text)
        tokens[s] = tok
    return list(map(tokens.__getitem__, found))


def _phrase(s: str) -> _Token:
    """The token of a binder phrase: a lambda's name and annotation, whose
    text is read once per process, a `let`'s two names, or a branch's name.
    Its kind is the phrase as the printer writes it, with the names as
    placeholders."""
    c = s[0]
    if c == "\\":
        name, ann = s[1:-1].split(":", 1)
        return ("\\x:T.", (name, _annotation(ann)))
    if c == "l":
        return ("let (x, y) =", tuple(s[5:-3].split(", ")))
    return ("{ inl x ->" if c == "{" else "| inr y ->", s[6:-3])


def _token(s: str) -> _Token | None:
    """The token of s, a match of `_REGISTER_TOKEN_RE` that is neither
    punctuation, a keyword, a superposition literal nor a binder phrase, or
    None where lexing stops at it."""
    if s[0] in _IDENT_START:
        return ("ident", s)
    if s[0] == "(":
        return ("value", _register(s))
    if len(s) > 1 or s.isdecimal():
        value = _scalar(s)
        if value is not None:
            return ("scalar", value)
    return None


def _superposition(s: str, tokens: dict[str, _Token]) -> tuple[tuple[complex, PureTerm], ...]:
    """The summands of a superposition literal, in order, as the parse loop
    builds them from its plain tokens: each coefficient computed and
    checked as `_scaled` does, and each register literal read once per
    text, through tokens.  A zero denominator or a non-finite coefficient
    raises a `ParseError`, with no span: `parse_program` then reads the
    text token by token, and raises what that read raises."""
    summands = []
    for minus, num, sqrt2, denom, imag, i, value in _SUMMAND_RE.findall(s, 1, len(s) - 1):
        if value[0] == "(":
            tok = tokens.get(value)
            if tok is None:
                tok = tokens[value] = _token(value)
            v = tok[1]
        else:
            v = _chain(value)
        if not num:
            summands.append((_ONE, v))
            continue
        c = _number(num, sqrt2, denom, imag, i)
        if c is None:
            raise ParseError("zero denominator in scalar")
        a = complex(-c if minus else c) * _ONE
        if not cmath.isfinite(a):
            raise ParseError(f"non-finite coefficient {a!r}")
        summands.append((a, v))
    return tuple(summands)


def _register(s: str) -> PureTerm:
    """The value of a register literal: split at `, `, each component's
    chain read from the `*` out."""
    *lefts, last = s.replace("(", "").replace(")", "").split(", ")
    v = _chain(last)
    for c in reversed(lefts):
        v = PairV(_chain(c), v)
    return v


def _chain(c: str) -> PureTerm:
    """The value of a chain of `inl `/`inr ` over `*`."""
    v = _VOID
    for word in reversed(c.split()[:-1]):
        v = InlV(v) if word == "inl" else InrV(v)
    return v


def _scalar(s: str) -> complex | float | None:
    """The value of a scalar token, or None for a zero denominator."""
    return _number(*_SCALAR_RE.match(s).groups())


def _number(num: str, sqrt2: str, denom: str, imag: str, i: str) -> complex | float | None:
    """The value of a scalar from the parts `_SCALAR_RE` reads, or None for
    a zero denominator."""
    x = float(num)
    if sqrt2:
        return x / _SQRT2
    if denom:
        d = float(denom)
        return None if d == 0 else x / d
    if imag:
        return complex(x, float(imag))
    if i:
        return complex(0.0, x)
    return x


def _lex_error(text: str) -> ParseError:
    """The error that stops lexing text, at the first token where it stops:
    a zero denominator, or a character that starts no token.  A digit that
    is not a decimal digit, alone or after a `.`, is a malformed number."""
    for m in _TOKEN_RE.finditer(text):
        s = m[1]
        start, end = m.span(1)
        if s == "." and text[end:end + 1].isdigit() or s.isdigit() and not s.isdecimal():
            return ParseError(f"bad number at {text[start:start + 8]!r}",
                              _span(text, start, start + 1))
        if s not in _SHARED and _token(s) is None:
            if len(s) > 1:
                return ParseError("zero denominator in scalar", _span(text, start, end))
            return ParseError(f"unexpected character {s!r}", _span(text, start, end))
    raise AssertionError("no token of the text stops lexing")


def _token_span(text: str, at: int) -> SourceSpan:
    """The span of the token of index at in `_lex(text)`."""
    m = next(islice(_TOKEN_RE.finditer(text), at, None))
    return _span(text, *m.span(1))


_ONE = complex(1)

# The tokens that may start what the parse loop reads next: an atom (after
# `inl`/`inr`, and as an argument), a head term (after a scalar or `;`) or a
# summand.
_ATOM = frozenset({"*", "ident", "value", "sum", "(", "inl", "inr"})
_HEAD = _ATOM | {"\\", "let", "match", "\\x:T.", "let (x, y) ="}
_SUMMAND = _HEAD | {"-", "scalar"}
# The frames on its stack, tuples whose first item is the kind; `at` is the
# index of a token, where an error in the construct is reported:
#   (_END,)                          the program, to be followed by the end
#   (_SCALED, coefficient, at)       a summand's `-` and scalar (at)
#   (_SUM, summands)                 a `+` sum, the summands read so far
#   (_SEQ, head, at)                 a head and its `;` (at)
#   (_APP, operator, at)             an application whose argument starts at at
#   (_INJ, at)                       `inl` or `inr`
#   (_PAREN, at), (_PAIR, first, at)                     `(` and `(first,`
#   (_LAM, name, type)
#   (_LET, at, x, y), (_LET_BODY, at, x, y, scrutinee)
#   (_MATCH, at), (_LEFT, at, scrutinee, x1),
#   (_RIGHT, at, scrutinee, x1, branch1, x2)
(_END, _SCALED, _SUM, _SEQ, _APP, _INJ, _PAREN, _PAIR, _LAM, _LET, _LET_BODY,
 _MATCH, _LEFT, _RIGHT) = range(14)


def _found(tok: _Token) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


def _dist(v: PureTerm | Distribution) -> Distribution:
    """v as a distribution: the parse loop carries a single unscaled term as
    the bare term."""
    return v if v.__class__ is Distribution else _trusted(((_ONE, v),))


class _Parser:
    def __init__(self, text: str, pattern: re.Pattern = _TOKEN_RE):
        self.text = text
        self.tokens = _lex(text, pattern)
        self.pos = 0

    def error(self, message: str, at: int) -> ParseError:
        """The error at the token of index at."""
        return ParseError(message, _token_span(self.text, at))

    def check(self, at: int, kind: str, what: str) -> None:
        """Raise unless the token of index at is of this kind."""
        tok = self.tokens[at]
        if tok[0] != kind:
            raise self.error(f"expected {what}, found {_found(tok)}", at)

    def expect(self, kind: str, what: str) -> object:
        """The value of the next token, which must be of this kind."""
        at = self.pos
        self.check(at, kind, what)
        self.pos = at + 1
        return self.tokens[at][1]


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
        if tok[0] == "(":
            pos += 1
            opened.append((group, sharps))
            group = [[], [], []]
            continue
        if tok[0] != "ident":
            raise p.error(f"expected a type, found {_found(tok)}", pos)
        t = _TYPE_NAMES.get(tok[1])
        if t is None:
            raise p.error(f"unknown type name {tok[1]!r}", pos)
        pos += 1
        # t ends here: group what it closes
        while True:
            for _ in range(sharps):
                t = Sharp(t)
            level = _INFIX_LEVEL.get(tokens[pos][0], 3)
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
            p.check(pos, ")", "')'")
            pos += 1
            group, sharps = opened.pop()


def parse_program(text: str) -> Distribution:
    """The distribution that text writes down.

    It is read with each register literal, each superposition literal and
    each binder phrase as one token.  Where that raises a `ParseError` or
    `HeadNotPure`, the text is read again token by token, and what that
    raises is raised: the same error, text and span as without literal and
    phrase tokens, which a literal or phrase could otherwise move."""
    try:
        return _parse(_Parser(text, _REGISTER_TOKEN_RE))
    except (ParseError, TypeCheckError):
        pass
    return _parse(_Parser(text))


def _parse(p: _Parser) -> Distribution:
    """The distribution of p's tokens.

    One loop reads the tokens.  It descends to an atom, pushing a frame for
    each construct that opens on the way, then pops the frames that the atom
    completes, building each construct as it closes, until another operand
    is to be read or the program ends.  A single unscaled term is carried as
    the bare term and becomes a distribution only where one is stored."""
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
            if kind == "value":
                v = tok[1]
                break
            if kind == "sum":
                # a fresh distribution for each occurrence, as the plain
                # tokens' parenthesized sum gives, closed, as a ground value is
                v = _trusted(tok[1])
                _set_dist_fv(v, _CLOSED)
                break
            at = pos - 1
            if kind not in reading:
                raise p.error(f"expected a term, found {_found(tok)}", at)
            if kind == "(":
                push((_PAREN, at))
                reading = _SUMMAND
            elif kind == "inl" or kind == "inr":
                push((_INJ, at))
                reading = _ATOM
            elif kind == "-" or kind == "scalar":
                if kind == "-" and tokens[pos][0] == "scalar":
                    at = pos
                    pos += 1
                coeff = 1
                if tokens[at][0] == "scalar":
                    coeff = tokens[at][1]
                    p.check(pos, "*", "'*' after a scalar coefficient")
                    pos += 1
                push((_SCALED, -coeff if kind == "-" else coeff, at))
                reading = _HEAD
            elif kind == "\\x:T.":
                push((_LAM, *tok[1]))
                reading = _SUMMAND
            elif kind == "let (x, y) =":
                push((_LET, at, *tok[1]))
                reading = _SUMMAND
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
                    push((_LET, at, x, y))
                else:
                    push((_MATCH, at))
                pos = p.pos
                reading = _SUMMAND

        # v is an atom: pop what it completes until an operand is to be read
        atom = True
        while True:
            kind = tokens[pos][0]
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
                    push((_APP, v, pos))
                    reading = _ATOM
                    break
            # v is a head term
            if kind == ";":
                push((_SEQ, v, pos))
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
                v = _scaled(p, top[1], v, top[2])
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
                v = _sum(top[1])
                top = stack[-1]
            # v is a distribution: close the construct it ends
            frame = top[0]
            if frame == _END:
                p.check(pos, "eof", "end of input")
                return _dist(v)
            if frame == _PAREN and kind == ",":
                stack[-1] = (_PAIR, v, top[1])
                pos += 1
                reading = _SUMMAND
                break
            if frame == _PAREN or frame == _PAIR:
                p.check(pos, ")", "')'" if frame == _PAREN else "')' after the pair")
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
                p.check(pos, "}", "'}' after the branches")
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
                    x1 = _branch(p, "{ inl x ->", "{", "'{' after the matched term", "inl")
                    stack[-1] = (_LEFT, top[1], v, x1)
                else:
                    x2 = _branch(p, "| inr y ->", "|", "'|' between the branches", "inr")
                    stack[-1] = (_RIGHT, *top[1:], _dist(v), x2)
                pos = p.pos
                reading = _SUMMAND
                break


def _branch(p: _Parser, phrase: str, opener: str, what: str, injection: str) -> str:
    """The name a match branch binds: its phrase token, or its plain tokens,
    the opener, the injection, the name and `->`."""
    tok = p.tokens[p.pos]
    if tok[0] == phrase:
        p.pos += 1
        return tok[1]
    p.expect(opener, what)
    p.expect(injection, f"'{injection}'")
    name = p.expect("ident", "a name")
    p.expect("->", "'->'")
    return name


def _scaled(p: _Parser, coeff: complex | float, v: PureTerm | Distribution,
            at: int) -> Distribution:
    """The summand coeff * v, whose scalar or `-` is the token at.  A bare
    term gets its one coefficient, computed and checked as `scale` does."""
    if v.__class__ is Distribution:
        return _built(p, at, scale, coeff, v)
    a = complex(coeff) * _ONE
    if not cmath.isfinite(a):
        raise p.error(f"non-finite coefficient {a!r}", at)
    return _trusted(((a, v),))


def _sum(parts: list[PureTerm | Distribution]) -> Distribution:
    """The `+` sum of parts, whose coefficients are already checked."""
    summands: list[tuple[complex, PureTerm]] = []
    for v in parts:
        if v.__class__ is Distribution:
            summands += v.summands
        else:
            summands.append((_ONE, v))
    return _trusted(tuple(summands))


def _inject(p: _Parser, at: int, v: PureTerm | Distribution) -> PureTerm | Distribution:
    """inl or inr (the token at) of v, which must be a value distribution."""
    kind = p.tokens[at][0]
    try:
        if v.__class__ is Distribution:
            return mk_inl(v) if kind == "inl" else mk_inr(v)
        return InlV(v) if kind == "inl" else InrV(v)
    except ValueError as e:
        if is_value_distribution(_dist(v)):
            raise p.error(str(e), at) from None  # merged summands overflowed
        raise p.error(f"{kind} applies to values only", at) from None


def _pair(p: _Parser, first: PureTerm | Distribution, second: PureTerm | Distribution,
          at: int) -> PureTerm | Distribution:
    """The pair opened at the token at; its components must be value
    distributions."""
    try:
        if first.__class__ is Distribution or second.__class__ is Distribution:
            return mk_pair(_dist(first), _dist(second))
        return PairV(first, second)
    except ValueError as e:
        if is_value_distribution(_dist(first)) and is_value_distribution(_dist(second)):
            raise p.error(str(e), at) from None  # the coefficients' product overflowed
        raise p.error("pair components must be values", at) from None


def _apply(p: _Parser, op: PureTerm | Distribution, arg: PureTerm | Distribution,
           at: int) -> PureTerm | Distribution:
    """op applied to arg, whose first token is at; op must be a single
    unscaled term."""
    if op.__class__ is Distribution:
        summands = op.summands
        if len(summands) != 1 or summands[0][0] != 1:
            raise TypeCheckError(
                ErrorKind.HEAD_NOT_PURE,
                "the operator of an application must be a single unscaled term",
                span=_token_span(p.text, at),
            )
        op = summands[0][1]
    return App(op, arg) if arg.__class__ is not Distribution else _built(p, at, mk_app, op, arg)


def _built(p: _Parser, at: int, make: Callable[..., Distribution], *args) -> Distribution:
    """make(*args), a construct that multiplies or merges coefficients, with
    its ValueError (a coefficient that overflows, or a `let` whose two names
    are equal) raised as a parse error at the token at."""
    try:
        return make(*args)
    except ValueError as e:
        raise p.error(str(e), at) from None


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = _read_type(p)
    p.expect("eof", "end of input")
    return t


@lru_cache(maxsize=_MEMO)
def _annotation(text: str) -> Type:
    """The type of a lambda phrase's annotation text, as `parse_type` reads
    it.  The memo is bounded as the `subtype` and `join_types` memos are, and
    like them holds types only, so it keeps no value alive."""
    return parse_type(text)


def pretty_print(d: Distribution) -> str:
    """Canonical concrete syntax: parsing the result gives back the canonical
    form of d, alpha-exactly."""
    return show_dist(canonicalize(d))
