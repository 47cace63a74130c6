"""Command line front end.

Exit codes: 0 success (and `equiv` agreement), 1 type or isometry rejection,
2 syntax or format error (also argparse usage errors), 3 file system error,
4 step limit exceeded, 5 stuck term, 6 programs not equivalent, 70 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import nullcontext
from functools import cache
from pathlib import Path

import numpy as np

from .config import tolerance
from .quantum import (
    FileFormatError,
    NotAnIsometry,
    StateVector,
    compile_isometry,
    decode,
    parse_circuit,
    parse_matrix,
    run_circuit,
    _parse_complex,
)
from .rewrite import DEFAULT_MAX_STEPS, StepLimitExceeded, StuckError, normalize, trace_normalize
from .surface import ParseError, parse_program, pretty_print
from .syntax import congruent, singleton
from .typecheck import ErrorKind, TypeCheckError, type_of_program
from .types import show_type, subtype

_EXIT_TYPE = 1
_EXIT_SYNTAX = 2
_EXIT_IO = 3
_EXIT_STEPS = 4
_EXIT_STUCK = 5
_EXIT_NOT_EQUIV = 6
_EXIT_INTERNAL = 70


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(fmt: str, text: str, **fields) -> None:
    if fmt == "json-lines":
        print(json.dumps(fields, sort_keys=True))
    else:
        print(text)


def _amplitude_str(c: complex) -> str:
    if c.imag == 0:
        return f"{c.real:.10g}"
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real:.10g}{sign}{abs(c.imag):.10g}i"


def _amplitude_pairs(v: StateVector) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in v.amplitudes]


def _cmd_check(args) -> int:
    d = parse_program(_read(args.path))
    ty = type_of_program(d)
    _emit(args.format, show_type(ty), event="type", type=show_type(ty))
    return 0


def _cmd_eval(args) -> int:
    d = parse_program(_read(args.path))
    ty = None
    if not args.no_check:
        ty = type_of_program(d)
    if args.trace:
        trace = trace_normalize(d, max_steps=args.max_steps)
        for i, snapshot in enumerate(trace[:-1]):
            program = pretty_print(snapshot)
            _emit(args.format, f"step {i}: {program}", event="trace", step=i, program=program)
        nf = trace[-1]
    else:
        nf = normalize(d, max_steps=args.max_steps)
    program = pretty_print(nf)
    fields = {"event": "normal-form", "program": program}
    if ty is not None:
        fields["type"] = show_type(ty)
    _emit(args.format, program, **fields)
    return 0


def _cmd_compile_gate(args) -> int:
    gate = parse_matrix(_read(args.matrix), args.matrix)
    program = singleton(compile_isometry(gate))
    # the type is the checker's, and a term it rejects is not written
    ty = show_type(type_of_program(program))
    text = pretty_print(program) + "\n"
    n = gate.qubit_count
    if args.output == "-":
        sys.stdout.write(text)
        print(ty, file=sys.stderr)
    else:
        Path(args.output).write_text(text)
        _emit(
            args.format,
            ty,
            event="compiled",
            qubits=n,
            type=ty,
            output=args.output,
        )
    return 0


def _parse_input_state(spec: str) -> StateVector:
    s = spec.strip()
    if s.startswith("|") and s.endswith(">"):
        s = s[1:-1].strip()
    if "," in s:
        amps = [_parse_complex(tok.strip(), "the input state") for tok in s.split(",")]
        return StateVector(np.array(amps))
    if s and all(c in "01" for c in s):
        amps = np.zeros(1 << len(s), dtype=complex)
        amps[int(s, 2)] = 1
        return StateVector(amps)
    raise FileFormatError(
        f"cannot read input state {spec!r}: use bits like |010> or a comma-separated amplitude list"
    )


def _cmd_run(args) -> int:
    circ_path = Path(args.circuit)
    gates = parse_circuit(_read(args.circuit), args.circuit, base_dir=circ_path.parent)
    state = _parse_input_state(args.input)
    d, oracle = run_circuit(gates, state, max_steps=args.max_steps)
    decoded = decode(d, state.qubit_count)
    deviation = float(np.abs(decoded.amplitudes - oracle.amplitudes).max())
    if args.format == "json-lines":
        print(
            json.dumps(
                {
                    "event": "run",
                    "register": state.qubit_count,
                    "program": pretty_print(d),
                    "decoded": _amplitude_pairs(decoded),
                    "oracle": _amplitude_pairs(oracle),
                    "deviation": deviation,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"final: {pretty_print(d)}")
        print("decoded: " + ", ".join(_amplitude_str(c) for c in decoded.amplitudes))
        print("oracle:  " + ", ".join(_amplitude_str(c) for c in oracle.amplitudes))
        print(f"max deviation: {deviation:.3g}")
    return 0


def _cmd_equiv(args) -> int:
    d1 = parse_program(_read(args.path1))
    d2 = parse_program(_read(args.path2))
    t1 = type_of_program(d1)
    t2 = type_of_program(d2)
    if not (subtype(t1, t2) or subtype(t2, t1)):
        raise TypeCheckError(
            ErrorKind.MISMATCH, f"the programs have incomparable types {t1} and {t2}"
        )
    n1 = normalize(d1, max_steps=args.max_steps)
    n2 = normalize(d2, max_steps=args.max_steps)
    same = congruent(n1, n2)
    common = show_type(t2 if subtype(t1, t2) else t1)
    _emit(
        args.format,
        ("equivalent at " + common) if same else "not equivalent",
        event="equiv",
        equivalent=same,
        type=common,
        normal1=pretty_print(n1),
        normal2=pretty_print(n2),
    )
    return 0 if same else _EXIT_NOT_EQUIV


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use.  Parsing leaves no state in
    it, so every call of `main` in a process reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, metavar="E",
                        help="numeric tolerance for norms and comparisons (default 1e-6)")
    common.add_argument("--max-steps", type=int, metavar="N", default=DEFAULT_MAX_STEPS,
                        help=f"rewrite step budget (default {DEFAULT_MAX_STEPS})")
    common.add_argument("--format", choices=["text", "json-lines"], default="text",
                        help="output format")
    p = argparse.ArgumentParser(
        prog="qlam",
        description="Type check, evaluate, and compile programs of a quantum lambda calculus.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("check", parents=[common], help="type check a program file")
    c.add_argument("path", help="program file, or - for stdin")
    c.set_defaults(fn=_cmd_check)
    e = sub.add_parser("eval", parents=[common], help="normalize a program file")
    e.add_argument("path", help="program file, or - for stdin")
    e.add_argument("--trace", action="store_true", help="print every rewrite step")
    e.add_argument("--no-check", action="store_true",
                   help="skip type checking (stuck terms and divergence become possible)")
    e.set_defaults(fn=_cmd_eval)
    g = sub.add_parser("compile-gate", parents=[common],
                       help="compile a matrix file to a program")
    g.add_argument("matrix", help="matrix file")
    g.add_argument("output", nargs="?", default="-",
                   help="output program file (default: stdout)")
    g.set_defaults(fn=_cmd_compile_gate)
    r = sub.add_parser("run", parents=[common], help="run a circuit file on an input state")
    r.add_argument("circuit", help="circuit file")
    r.add_argument("input", help="input state: bits like |010>, or comma-separated amplitudes")
    r.set_defaults(fn=_cmd_run)
    q = sub.add_parser("equiv", parents=[common],
                       help="decide whether two programs normalize to congruent values")
    q.add_argument("path1")
    q.add_argument("path2")
    q.set_defaults(fn=_cmd_equiv)
    return p


def _report(args, code: int, kind: str, e: Exception) -> int:
    """Print the error e, with its source position when it carries one."""
    fields = {"event": "error", "kind": kind, "message": str(e)}
    span = getattr(e, "span", None)
    if span is not None:
        fields.update(line=span.line, column=span.column)
    if getattr(args, "format", "text") == "json-lines":
        print(json.dumps(fields, sort_keys=True))
    print(f"error: {e}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # --tolerance holds for this call only, also when main runs in-process
        with nullcontext() if args.tolerance is None else tolerance(args.tolerance):
            if args.max_steps <= 0:
                raise ValueError("--max-steps must be positive")
            return args.fn(args)
    except TypeCheckError as e:
        return _report(args, _EXIT_TYPE, e.kind.value, e)
    except NotAnIsometry as e:
        return _report(args, _EXIT_TYPE, "NotAnIsometry", e)
    except ParseError as e:
        return _report(args, _EXIT_SYNTAX, "SyntaxError", e)
    except FileFormatError as e:
        return _report(args, _EXIT_SYNTAX, "FormatError", e)
    except StepLimitExceeded as e:
        return _report(args, _EXIT_STEPS, "StepLimit", e)
    except StuckError as e:
        return _report(args, _EXIT_STUCK, "Stuck", e)
    except OSError as e:
        return _report(args, _EXIT_IO, "IOError", e)
    except ValueError as e:
        return _report(args, _EXIT_SYNTAX, "ValueError", e)
    except Exception:
        traceback.print_exc()
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
