"""Boundary spans for the traced run, recorded from the benchmark's side.

Each entry of BOUNDARIES names a module, an attribute the module calls
through, and the span that call opens.  Patching the attribute in the
caller's namespace times exactly the calls that module makes into the other
layer.  A name that no longer exists is skipped and every metric built on it
reports `absent`; nothing here runs during the untraced run.

Spans are kept in memory: name, caller, start, end, parent span, item id and
whether the call raised.  A span's self time is its duration minus that of its
direct children.  Work the tracer does for itself (counting term nodes) is
excluded from every span open around it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time

from workloads import GATE_MIX

# (module whose namespace is patched, attribute, span name)
BOUNDARIES = (
    # entry points the workloads call
    ("qlam", "compile_isometry", "quantum.compile_isometry"),
    ("qlam", "case_construct", "quantum.case_construct"),
    ("qlam", "pretty_print", "surface.pretty_print"),
    ("qlam", "parse_program", "surface.parse_program"),
    ("qlam", "check_program", "typecheck.check_program"),
    ("qlam", "normalize", "rewrite.normalize"),
    ("qlam", "trace_normalize", "rewrite.trace_normalize"),
    ("qlam.cli", "main", "cli.main"),
    # calls from one layer into another
    ("qlam.cli", "parse_circuit", "quantum.parse_circuit"),
    ("qlam.cli", "run_circuit", "quantum.run_circuit"),
    ("qlam.cli", "decode", "quantum.decode"),
    ("qlam.cli", "pretty_print", "surface.pretty_print"),
    ("qlam.quantum", "expand_gate", "quantum.expand_gate"),
    ("qlam.quantum", "compile_isometry", "quantum.compile_isometry"),
    ("qlam.quantum", "encode", "quantum.encode"),
    ("qlam.quantum", "matrix_apply", "quantum.matrix_apply"),
    ("qlam.quantum", "normalize", "rewrite.normalize"),
    ("qlam.typecheck", "normalize", "rewrite.normalize"),
    ("qlam.typecheck", "substitute_many_dist", "syntax.substitute_many_dist"),
    ("qlam.typecheck", "orthogonal", "inner.orthogonal"),
    ("qlam.rewrite", "substitute_dist", "syntax.substitute_dist"),
    ("qlam.rewrite", "substitute_many_dist", "syntax.substitute_many_dist"),
    ("qlam.rewrite", "canonicalize", "syntax.canonicalize"),
    ("qlam.rewrite", "mk_app", "syntax.mk_app"),
    ("qlam.rewrite", "mk_seq", "syntax.mk_seq"),
    ("qlam.rewrite", "mk_let", "syntax.mk_let"),
    ("qlam.rewrite", "mk_match", "syntax.mk_match"),
)

SUBST = ("syntax.substitute_dist", "syntax.substitute_many_dist")
CANON = ("syntax.canonicalize", "syntax.mk_app", "syntax.mk_seq", "syntax.mk_let",
         "syntax.mk_match")
NORMALIZE = ("rewrite.normalize", "rewrite.trace_normalize")
COMPILE = ("quantum.compile_isometry",)
CLI_CALLS = ("quantum.parse_circuit", "quantum.run_circuit", "quantum.decode",
             "surface.pretty_print")
WIDTHS = tuple(n for n, _ in GATE_MIX)


def _caller(module: str) -> str:
    return "bench" if module == "qlam" else module.rsplit(".", 1)[-1]


def count_nodes(term) -> int:
    """Pure-term nodes of a term, walking every term or distribution field."""
    import qlam

    n = 0
    stack = [term]
    while stack:
        x = stack.pop()
        if isinstance(x, qlam.Distribution):
            stack.extend(t for _, t in x.summands)
        elif isinstance(x, qlam.PureTerm):
            n += 1
            for f in dataclasses.fields(x):
                v = getattr(x, f.name)
                if isinstance(v, (qlam.PureTerm, qlam.Distribution)):
                    stack.append(v)
    return n


class Tracer:
    def __init__(self) -> None:
        # span: [name, caller, start, end, parent, item, raised, excluded]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.counters = {"parse_chars": 0, "summands_out": 0, "term_nodes": 0}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, caller: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, caller, time.perf_counter(), 0.0, parent, self.item, False, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[6] = raised
        self.stack.pop()

    def _exclude(self, seconds: float) -> None:
        for idx in self.stack:
            self.spans[idx][7] += seconds

    def _after(self, name: str, args, result) -> None:
        t0 = time.perf_counter()
        if name == "surface.parse_program":
            self.counters["parse_chars"] += len(args[0])
        elif name == "rewrite.normalize":
            self.counters["summands_out"] += len(result.summands)
        elif name == "rewrite.trace_normalize":
            self.counters["summands_out"] += len(result[-1].summands)
        elif name == "quantum.compile_isometry":
            self.counters["term_nodes"] += count_nodes(result)
        else:
            return
        self._exclude(time.perf_counter() - t0)

    def _wrap(self, fn, name: str, caller: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, caller)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            self._after(name, args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, _caller(module_name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- reading ----------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, caller, start, end, parent, item, raised, excluded in self.spans:
                f.write(json.dumps({
                    "name": name, "caller": caller, "start": start, "end": end,
                    "parent": parent, "item": item, "raised": raised,
                    "excluded": excluded,
                }) + "\n")

    def metrics(self, widths: dict[int, int]) -> dict[str, tuple[float | None, str]]:
        """Per-layer metrics; `widths` maps item id to register width.  A
        metric built on a boundary that is absent is None."""
        spans = self.spans
        dur = [s[3] - s[2] - s[7] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[4] >= 0:
                child[s[4]] += dur[i]
        # (name, caller, raised, width) -> [time, self time, calls]
        groups: dict[tuple, list] = {}
        for i, s in enumerate(spans):
            g = groups.setdefault((s[0], s[1], s[6], widths.get(s[5])), [0.0, 0.0, 0])
            g[0] += dur[i]
            g[1] += dur[i] - child[i]
            g[2] += 1
        missing = {(name, _caller(module)) for module, attr, name in BOUNDARIES
                   if f"{module}.{attr}" in self.absent}

        def agg(col, names, caller=None, raised=None, width=None):
            if any(n in names and caller in (None, c) for n, c in missing):
                return None
            return sum(
                g[col] for (name, c, r, w), g in groups.items()
                if name in names
                and caller in (None, c)
                and raised in (None, r)
                and width in (None, w)
            )

        def total(*args, **kw):
            return agg(0, *args, **kw)

        def calls(*args, **kw):
            return agg(2, *args, **kw)

        def own(names, children, caller):
            """Self time, which is only right when the child spans exist."""
            return None if total(children, caller) is None else agg(1, names)

        def minus(a, b):
            return None if a is None or b is None else a - b

        def counted(key, names):
            """A tracer counter, which is only kept while `names` are wrapped."""
            return None if total(names) is None else self.counters[key]

        check = ("typecheck.check_program",)
        ground_s = total(("rewrite.normalize", "syntax.substitute_many_dist", "inner.orthogonal"),
                         "typecheck")
        parse_s = total(("surface.parse_program",))
        out = {
            "surface.parse_s": (parse_s, "s"),
            "surface.print_s": (total(("surface.pretty_print",)), "s"),
            "surface.parse_chars_per_s": (
                parse_s and self.counters["parse_chars"] / parse_s, "chars/s"),
            "typecheck.check_s": (total(check), "s"),
            "typecheck.infer_s": (minus(total(check), ground_s), "s"),
            "typecheck.ground_s": (ground_s, "s"),
            "typecheck.ground_instances": (calls(("rewrite.normalize",), "typecheck"), "count"),
            "typecheck.reject_s": (total(check, raised=True), "s"),
            "inner.orthogonal_s": (total(("inner.orthogonal",)), "s"),
            "inner.orthogonal_calls": (calls(("inner.orthogonal",)), "count"),
            "rewrite.normalize_s": (total(NORMALIZE), "s"),
            "rewrite.self_s": (own(NORMALIZE, SUBST + CANON, "rewrite"), "s"),
            "rewrite.redexes": (calls(SUBST, "rewrite"), "count"),
            "rewrite.summands_out": (counted("summands_out", NORMALIZE), "count"),
            "syntax.subst_s": (total(SUBST), "s"),
            "syntax.subst_calls": (calls(SUBST), "count"),
            "syntax.canon_s": (total(CANON, "rewrite"), "s"),
            "quantum.compile_s": (total(COMPILE), "s"),
            "quantum.compiles": (calls(COMPILE), "count"),
            "quantum.term_nodes": (counted("term_nodes", COMPILE), "count"),
            "quantum.expand_s": (total(("quantum.expand_gate",)), "s"),
            "quantum.codec_s": (total(("quantum.encode", "quantum.decode")), "s"),
            "quantum.oracle_s": (total(("quantum.matrix_apply",)), "s"),
            "cli.main_s": (total(("cli.main",)), "s"),
            "cli.self_s": (own(("cli.main",), CLI_CALLS, "cli"), "s"),
        }
        for n in WIDTHS:
            out[f"typecheck.check_s.n{n}"] = (total(check, width=n), "s")
        return out
