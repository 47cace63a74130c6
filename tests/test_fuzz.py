"""A token-level fuzzer over printed programs and compiled gates.

Each mutant is a printed generator program or a printed compiled gate with
one to three token edits: a token deleted, inserted, replaced, or two
swapped.  A quarter of the mutants also get a binder-phrase edit, made where
`parse_program` reads `\\x:T.`, `let (x, y) =`, `{ inl x ->` or
`| inr y ->` as one token: a keyword as a binder name, other spacing inside
the phrase, or a comment inside it.

Two properties are held on every mutant.  Both parse paths, with and
without literal and phrase tokens, give the same `repr` and the same
interned values, or the same error type, text and span.  And `qlam check`,
`qlam eval --max-steps 2000` and `qlam equiv` against the unmutated program
end, through `cli.main`, in an exit code from README's table, never 70.

Tier-1 runs small fixed seeds.  A larger run, in a fresh process:

    PYTHONPATH=src python3 tests/test_fuzz.py --seed 4 --count 20000
"""

from __future__ import annotations

import argparse
import io
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import qlam.surface as surface
from generator import flow_programs, trace_programs
from qlam.cli import main
from qlam.surface import pretty_print
from qlam.syntax import singleton
from test_parser import (
    _GATES,
    _PHRASE_KINDS,
    _kinds,
    _one_object_per_value,
    _parsed,
    _plain_parse,
)

# README's exit codes, but for 70, the internal error
_EXITS = frozenset({0, 1, 2, 3, 4, 5, 6})
_KEYWORDS = ("let", "in", "match", "inl", "inr")
_VOCABULARY = ("*", "(", ")", ",", ";", "+", "-", "\\", ".", ":", "=", "->", "{", "}", "|",
               "#", "U", "x", "y", "0.5", "1/sqrt2", "0-1i", "1e154", *_KEYWORDS)
_PHRASE_RE = re.compile(surface._PHRASE)


def _base_texts(seed: int) -> list[str]:
    """Printed generator programs and compiled gates, the fuzzer's inputs."""
    texts = [pretty_print(d) for d, _ in trace_programs(seed, 40) + flow_programs(seed, 40)]
    return texts + [pretty_print(singleton(lam)) for lam in _GATES]


def _token_edit(rng: random.Random, text: str) -> str:
    """text with one token deleted, inserted, replaced, or two swapped."""
    spans = [m.span(1) for m in surface._TOKEN_RE.finditer(text) if m[1]]
    if not spans:
        return rng.choice(_VOCABULARY)
    words = [text[a:b] for a, b in spans]
    i = rng.randrange(len(spans))
    a, b = spans[i]
    edit = rng.choice(("delete", "insert", "replace", "swap"))
    if edit == "delete":
        return text[:a] + text[b:]
    new = rng.choice(words + list(_VOCABULARY))
    if edit == "insert":
        return text[:a] + new + rng.choice(("", " ")) + text[a:]
    if edit == "replace":
        return text[:a] + new + text[b:]
    j = rng.randrange(len(spans))
    (a, b), (c, d) = sorted([spans[i], spans[j]])
    if a == c:
        return text
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def _name_spans(s: str) -> list[tuple[int, int]]:
    """The offsets of the names in a binder phrase s."""
    if s[0] == "\\":
        return [(1, s.index(":"))]
    if s[0] == "l":
        comma = s.index(",")
        return [(5, comma), (comma + 2, len(s) - 3)]
    return [(6, len(s) - 3)]


def _phrase_edit(rng: random.Random, text: str) -> str:
    """text with one binder phrase edited: a keyword as one of its names,
    other spacing between two of its tokens, or a comment between them."""
    phrases = list(_PHRASE_RE.finditer(text))
    if not phrases:
        return text
    m = rng.choice(phrases)
    s = m[0]
    edit = rng.choice(("keyword", "spacing", "comment"))
    if edit == "keyword":
        a, b = rng.choice(_name_spans(s))
        s = s[:a] + rng.choice(_KEYWORDS) + s[b:]
    else:
        spans = [t.span(1) for t in surface._TOKEN_RE.finditer(s) if t[1]]
        (_, a), (b, _) = rng.choice(list(zip(spans, spans[1:])))
        if edit == "spacing":
            gap = rng.choice([g for g in ("", " ", "  ", "\n", "\t") if g != s[a:b]])
        else:
            gap = rng.choice((" -- note\n", "--\n", " -- a b\n "))
        s = s[:a] + gap + s[b:]
    return text[:m.start()] + s + text[m.end():]


def mutants(seed: int, count: int) -> list[tuple[str, str]]:
    """count mutants, each with the text it was made from."""
    rng = random.Random(seed)
    bases = _base_texts(seed)
    found = []
    for _ in range(count):
        base = rng.choice(bases)
        text = base
        if rng.random() < 0.25:
            text = _phrase_edit(rng, text)
        for _ in range(rng.randint(1, 3)):
            text = _token_edit(rng, text)
        found.append((text, base))
    return found


def check_parse(text: str) -> None:
    """Both parse paths agree on text: the same `repr` and interned values,
    or the same error type, text and span."""
    got, want = _parsed(surface.parse_program, text), _parsed(_plain_parse, text)
    assert got == want, text
    if isinstance(got, str):
        assert _one_object_per_value(surface.parse_program(text), _plain_parse(text)), text


def _exit(argv: list[str]) -> tuple[int, str]:
    """The exit code of `qlam argv` run in process, and what it wrote to
    stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_commands(text: str, base: str, directory: Path) -> None:
    """`check`, `eval --max-steps 2000` and `equiv` against base end in a
    documented exit, never 70."""
    mutant, original = directory / "mutant.qlam", directory / "original.qlam"
    mutant.write_text(text)
    original.write_text(base)
    for argv in (["check", str(mutant)],
                 ["eval", "--max-steps", "2000", str(mutant)],
                 ["equiv", str(mutant), str(original)]):
        code, err = _exit(argv)
        assert code in _EXITS, (argv[0], text, err)


def test_both_parse_paths_agree_on_mutants():
    for text, _ in mutants(1, 3000):
        check_parse(text)


def _phrases(text: str) -> int:
    """How many binder phrases `parse_program` reads as one token each."""
    return sum(kind in _PHRASE_KINDS for kind in _kinds(text))


def test_a_phrase_edit_leaves_the_phrase_to_the_plain_tokens():
    rng = random.Random(3)
    for text in _base_texts(3):
        if not _phrases(text):
            continue
        for _ in range(4):
            edited = _phrase_edit(rng, text)
            assert _phrases(edited) == _phrases(text) - 1
            check_parse(edited)


def test_every_mutant_ends_in_a_documented_exit(tmp_path):
    for text, base in mutants(2, 1000):
        check_commands(text, base, tmp_path)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Fuzz the parser and the qlam commands.")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as d:
        for text, base in mutants(args.seed, args.count):
            check_parse(text)
            check_commands(text, base, Path(d))
    print(f"{args.count} mutants of seed {args.seed}: both parse paths agree, no exit 70")
