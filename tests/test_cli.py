"""End-to-end checks of the qlam command line, driven in process."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlam.cli import main
from qlam.config import DEFAULT_TOLERANCE, get_tolerance, set_tolerance
from qlam.quantum import (
    GateMatrix,
    StateVector,
    case_construct,
    encode,
    format_matrix,
    gate_library,
)
from qlam.surface import pretty_print
from qlam.syntax import singleton
from qlam.typecheck import ErrorKind, TypeCheckError

_R2 = 1 / math.sqrt(2)

PLUS_SRC = "1/sqrt2 * inl * + 1/sqrt2 * inr *\n"


@pytest.fixture(autouse=True)
def _restore_tolerance():
    # --tolerance mutates process-wide state; keep tests independent
    yield
    set_tolerance(DEFAULT_TOLERANCE)


@pytest.fixture()
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


# -------------------------------------------------------------------- check


def test_check_plus_state(write, capsys):
    assert main(["check", write("plus.qlam", PLUS_SRC)]) == 0
    assert _lines(capsys) == ["#(U+U)"]


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(r"\x:U. x"))
    assert main(["check", "-"]) == 0
    assert _lines(capsys) == ["U -> U"]


def test_check_norm_violation(write, capsys):
    code = main(["check", write("half.qlam", "0.5 * inl * + 0.5 * inr *\n")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_check_rejects_a_distant_duplicate_column(write, capsys):
    images = [encode(StateVector(np.eye(4)[:, k])) for k in range(4)]
    images[3] = images[0]
    src = pretty_print(singleton(case_construct(2, images)))
    assert main(["check", "--format", "json-lines", write("distant.qlam", src)]) == 1
    event = json.loads(_lines(capsys)[-1])
    assert event["event"] == "error" and event["kind"] == "OrthogonalityFailure"


def test_check_json_error_event(write, capsys):
    path = write("bad.qlam", "0.5 * *\n")
    assert main(["check", "--format", "json-lines", path]) == 1
    event = json.loads(_lines(capsys)[0])
    assert event["event"] == "error"
    assert event["kind"] == "NormViolation"


def test_check_syntax_error_with_position(write, capsys):
    path = write("broken.qlam", "inl * +\n@ huh\n")
    assert main(["check", "--format", "json-lines", path]) == 2
    event = json.loads(_lines(capsys)[0])
    assert event["kind"] == "SyntaxError"
    assert (event["line"], event["column"]) == (2, 1)


def test_check_merge_overflow_is_a_syntax_error_with_position(write, capsys):
    path = write("overflow.qlam", "f (1e308 * * + 1e308 * *)\n")
    assert main(["check", "--format", "json-lines", path]) == 2
    event = json.loads(_lines(capsys)[0])
    assert event["kind"] == "SyntaxError"
    assert (event["line"], event["column"]) == (1, 3)
    assert "non-finite coefficient" in event["message"]


@pytest.mark.parametrize("src, where", [
    # a weight past the square root of the largest float squares to inf, a
    # norm violation and not an internal error, whether the summands are
    # ground values or closed values typed one by one
    ("1.4e154 * *\n", "1.4e+154 * *"),
    ("1.4e154 * inl (\\x:U. x)\n", "1.4e+154 * inl (\\x:U. x)"),
])
@pytest.mark.parametrize("command", ["check", "eval", "equiv", "equiv-second"])
def test_a_weight_whose_square_overflows_is_a_norm_violation(write, capsys, src, where,
                                                             command):
    path, other = write("overflow.qlam", src), write("unit.qlam", "*\n")
    argv = {"check": ["check", path], "eval": ["eval", path],
            "equiv": ["equiv", path, other], "equiv-second": ["equiv", other, path]}[command]
    assert main([*argv, "--format", "json-lines"]) == 1
    message = f"NormViolation: squared amplitudes sum to inf, expected 1 (in {where})"
    assert json.loads(_lines(capsys)[-1]) == {
        "event": "error", "kind": "NormViolation", "message": message}
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "nope.qlam")]) == 3


def test_tolerance_flag_loosens_norm_check(write):
    path = write("near.qlam", "0.999999 * inl *\n")
    assert main(["check", path]) == 1
    assert main(["check", "--tolerance", "1e-2", path]) == 0


@pytest.mark.parametrize("exit_code, src", [(0, "0.999999 * inl *\n"), (1, "0.5 * *\n")])
def test_tolerance_flag_lasts_one_call(write, exit_code, src):
    path = write("p.qlam", src)
    assert main(["check", "--tolerance", "0.3", path]) == exit_code
    assert get_tolerance() == DEFAULT_TOLERANCE
    assert main(["check", "--tolerance", "0.3", path + ".missing"]) == 3
    assert get_tolerance() == DEFAULT_TOLERANCE


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_process(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    r = subprocess.run([sys.executable, "-m", "qlam.cli", *argv],
                       capture_output=True, text=True, env=env, check=False)
    return r.returncode, r.stdout, r.stderr


def test_repeated_calls_answer_as_fresh_processes(write, capsys):
    # the parser is built once per process; nothing a call parses, and no
    # --tolerance it sets, may show in a later call
    near = write("near.qlam", "0.999999 * inl *\n")
    app = write("app.qlam", r"(\x:(U+U). x) (inl *)")
    circ = write("bell.qc", "H 0\nCNOT 0 1\n")
    calls = [
        ["check", "--tolerance", "1e-2", near],
        ["check", near],
        ["frobnicate"],
        ["eval", "--format", "json-lines", app],
        ["run", "--format", "json-lines", circ, "|00>"],
        ["eval", "--max-steps", "0", app],
    ]
    fresh = [_fresh_process(argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [0, 1, 2, 0, 0, 2]
    for _ in range(2):
        assert [_in_process(argv, capsys) for argv in calls] == fresh


# --------------------------------------------------------------------- eval


def test_eval_beta_redex(write, capsys):
    path = write("app.qlam", r"(\x:(U+U). x) (inl *)")
    assert main(["eval", path]) == 0
    assert _lines(capsys)[-1] == "inl *"


def test_eval_reports_type_and_normal_form_as_json(write, capsys):
    path = write("app.qlam", r"(\x:(U+U). x) (inl *)")
    assert main(["eval", "--format", "json-lines", path]) == 0
    event = json.loads(_lines(capsys)[-1])
    assert event == {"event": "normal-form", "program": "inl *", "type": "U+U"}


def test_eval_trace(write, capsys):
    path = write("app.qlam", r"(\x:(U+U). x) (inl *)")
    assert main(["eval", "--trace", path]) == 0
    out = _lines(capsys)
    assert out[0].startswith("step 0: ")
    assert out[-1] == "inl *"


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_eval_trace_prints_each_program_once(write, capsys, monkeypatch, fmt):
    calls = []

    def counting(d):
        calls.append(d)
        return pretty_print(d)

    monkeypatch.setattr("qlam.cli.pretty_print", counting)
    path = write("app.qlam", r"(\x:U. x) ((\y:U. y) *)")
    assert main(["eval", "--trace", "--format", fmt, path]) == 0
    events = _lines(capsys)
    assert len(events) == 3  # two steps and the normal form
    assert len(calls) == len(events)


def test_eval_ill_typed_rejected_before_running(write):
    assert main(["eval", write("half.qlam", "0.5 * *\n")]) == 1


def test_eval_no_check_can_get_stuck(write, capsys):
    assert main(["eval", "--no-check", write("stuck.qlam", "* *\n")]) == 5
    assert "error:" in capsys.readouterr().err


def test_eval_no_check_step_limit(write):
    omega = r"(\x:U. x x) (\x:U. x x)"
    code = main(["eval", "--no-check", "--max-steps", "50", write("omega.qlam", omega)])
    assert code == 4


def test_eval_no_check_rejects_a_non_finite_coefficient(write, capsys):
    src = r"1e200 * ((\x:U. 1e200 * x) *)"
    assert main(["eval", "--no-check", write("overflow.qlam", src)]) == 2
    assert "non-finite coefficient" in capsys.readouterr().err


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_eval_no_check_overflow_then_divergence_exits_two_with_and_without_trace(
    write, capsys, trace
):
    # the overflowing summand is spliced at the second step, before the
    # divergent one can run into the step limit
    src = r"1e200 * ((\x:U. 1e200 * x) *) + (\x:U. x x) (\x:U. x x)"
    path = write("overflow.qlam", src)
    assert main(["eval", "--no-check", "--max-steps", "50", *trace, path]) == 2
    assert capsys.readouterr().err == "error: non-finite coefficient (inf+0j)\n"


_DEEP = 10_000
# `inr^m *` and `inr^(m-1) inl *` superposed, with m = _DEEP - 1: their
# types join in a sum of _DEEP terms, which the second program also
# annotates under Sharp
_JOINED = "0.6 * " + "inr " * (_DEEP - 1) + "* + 0.8 * " + "inr " * (_DEEP - 2) + "inl *"


@pytest.mark.parametrize("src", [
    "(\\y:U. " + "inr " * _DEEP + "y) *",
    "0.6 * (\\x:U. " + "inr " * _DEEP + "x) + 0.8 * (\\x:U. " + "inl " * _DEEP + "x)",
], ids=["substitution", "keys"])
def test_eval_no_check_of_deep_open_values(write, capsys, src):
    assert main(["eval", "--no-check", write("deep.qlam", src)]) == 0
    assert capsys.readouterr().out.count("in") >= _DEEP


@pytest.mark.parametrize("src", [
    _JOINED, "(\\x:#(" + "+".join(["U"] * _DEEP) + "). x) (" + _JOINED + ")",
], ids=["join", "annotated"])
def test_check_of_a_deep_join(write, capsys, src):
    assert main(["check", write("joined.qlam", src)]) == 0
    assert capsys.readouterr().out.strip() == "#(" + "+".join(["U"] * _DEEP) + ")"


# two summands whose terms differ only under _DEEP layers: lambdas whose
# bodies do not join, and values of unequal depth
_DEEP_LAMS = ("0.6 * (\\x:U. " + "inr " * _DEEP + "x) + 0.8 * (\\x:U. " + "inr " * _DEEP
              + "inl x)")
_DEEP_UNEQUAL = "0.6 * " + "inr " * _DEEP + "inl * + 0.8 * inl *"


@pytest.mark.parametrize("argv, src, want", [
    (["eval"], _JOINED,
     "0.8 * " + "inr " * (_DEEP - 2) + "inl * + 0.6 * " + "inr " * (_DEEP - 1) + "*"),
    (["eval", "--no-check"], _DEEP_LAMS, _DEEP_LAMS),
    (["check"], _DEEP_UNEQUAL, "#(" + "+".join(["U"] * (_DEEP + 2)) + ")"),
    (["eval", "--no-check"], _DEEP_UNEQUAL, "0.8 * inl * + 0.6 * " + "inr " * _DEEP + "inl *"),
], ids=["eval join", "eval lambdas", "check unequal", "eval unequal"])
def test_summands_that_differ_only_deep_down_are_ordered(write, capsys, argv, src, want):
    # the summands are compared layer by layer, never as keys nested _DEEP deep
    assert main([*argv, write("deep.qlam", src)]) == 0
    assert capsys.readouterr().out.strip() == want


def test_check_of_deep_lambdas_whose_bodies_do_not_join(write, capsys):
    assert main(["check", write("deep.qlam", _DEEP_LAMS)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: Mismatch: superposed values have incompatible types")


def test_equiv_of_programs_that_differ_only_deep_down(write, capsys):
    a = write("a.qlam", _DEEP_UNEQUAL)
    b = write("b.qlam", _DEEP_UNEQUAL.replace("inl * +", "inr * +"))
    assert main(["equiv", a, b]) == 6
    assert _lines(capsys) == ["not equivalent"]
    assert main(["equiv", a, a]) == 0


# a pair of a name and * under _DEEP injections, on either side of a match
_STRUCTURAL = ("(\\f:U->U. \\s:U+U. match s { inl a -> " + "inl " * _DEEP
               + "inl (f, *) | inr b -> " + "inl " * _DEEP + "inr (f, *) }) (\\u:U. u)")


# a flat variable duplicated 60 times over: the pair matched on has a type
# whose tree has 2^61 leaves but 62 distinct nodes
_SHARED = ("\\x:U. let (a1, b1) = ((x, x), (x, x)) in " + "".join(
    f"let (a{i}, b{i}) = ((a{i - 1}, b{i - 1}), (a{i - 1}, b{i - 1})) in " for i in range(2, 61))
    + "match inl (a60, b60) { inl p -> inl * | inr q -> inr * }")


@pytest.mark.parametrize("src, want", [
    ("(\\y:U. " + "inr " * _DEEP + "y) *", "+".join(["U"] * (_DEEP + 1))),
    ("(\\s:" + "+".join(["U"] * _DEEP) + ". match s { inl a -> inl * | inr b -> inr * })",
     "+".join(["U"] * _DEEP) + " -> U+U"),
    ("(\\x:" + "(" * (_DEEP - 1) + "#U" + "+U)" * (_DEEP - 1) + "+U. x) (" + "inl " * _DEEP + "*)",
     "(" * (_DEEP - 1) + "#U" + "+U)" * (_DEEP - 1) + "+U"),
    (_STRUCTURAL, "U+U -> " + "(" * _DEEP + "(U -> U)*U+(U -> U)*U" + ")+U" * _DEEP),
    (_SHARED, "U -> U+U"),
], ids=["open value", "inventory", "left spine", "structural", "shared"])
def test_check_of_deep_values_and_types(write, capsys, src, want):
    # an open value typed by the value rules, a match on a sum too wide to
    # enumerate, a subtype decided at the bottom of a left spine, branches
    # that only the structural tier tells apart, and a match whose scrutinee
    # type is enumerated once per distinct part
    assert main(["check", write("deep.qlam", src)]) == 0
    assert capsys.readouterr().out.strip() == want


def test_nonpositive_max_steps_rejected(write, capsys):
    assert main(["eval", "--max-steps", "0", write("x.qlam", "*\n")]) == 2
    assert capsys.readouterr().err == "error: --max-steps must be positive\n"


# ------------------------------------------------------------- compile-gate


def test_compile_gate_roundtrips_through_check(write, tmp_path, capsys):
    mat = write("had.mat", format_matrix(gate_library["H"]))
    out = str(tmp_path / "had.qlam")
    assert main(["compile-gate", mat, out]) == 0
    assert _lines(capsys) == ["#(U+U) -> #(U+U)"]
    assert main(["check", out]) == 0
    assert _lines(capsys) == ["#(U+U) -> #(U+U)"]


def test_compile_gate_to_stdout(write, capsys):
    mat = write("cnot.mat", format_matrix(gate_library["CNOT"]))
    assert main(["compile-gate", mat]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("(\\")
    assert captured.err.strip() == "#((U+U)*(U+U)) -> #((U+U)*(U+U))"


@pytest.mark.parametrize("name, matrix", [
    ("H", gate_library["H"].matrix),
    ("toffoli", np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]),
])
def test_compile_gate_reports_the_checkers_type(name, matrix, write, tmp_path, capsys):
    mat = write(f"{name}.mat", format_matrix(GateMatrix(matrix)))
    out = str(tmp_path / f"{name}.qlam")
    assert main(["compile-gate", "--format", "json-lines", mat, out]) == 0
    compiled = json.loads(_lines(capsys)[0])
    assert main(["check", "--format", "json-lines", out]) == 0
    checked = json.loads(_lines(capsys)[0])
    assert compiled["type"] == checked["type"]
    assert compiled["qubits"] == matrix.shape[0].bit_length() - 1


def test_compile_gate_exits_as_check_does_when_the_checker_rejects(write, monkeypatch, capsys):
    def reject(program):
        raise TypeCheckError(ErrorKind.ORTHOGONALITY_UNDECIDED, "undecided")

    monkeypatch.setattr("qlam.cli.type_of_program", reject)
    out = write("had.qlam", "")
    assert main(["compile-gate", write("had.mat", format_matrix(gate_library["H"])), out]) == 1
    assert capsys.readouterr().err == "error: OrthogonalityUndecided: undecided\n"
    assert Path(out).read_text() == ""


def test_compile_gate_rejects_non_isometry(write):
    bad = "dim 2\n1 1\n1 1\n"
    assert main(["compile-gate", write("bad.mat", bad)]) == 1


def test_compile_gate_rejects_a_non_finite_entry(write, capsys):
    # 1e999 reads as inf; the isometry check must not pass it on to encoding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compile-gate", write("inf.mat", "dim 2\n1e999 0\n0 1\n")])
    assert code == 1
    assert capsys.readouterr().err == "error: non-finite entry (inf+0j)\n"


def test_compile_gate_rejects_malformed_file(write):
    assert main(["compile-gate", write("bad.mat", "dim 2\n1 0\n")]) == 2


# ---------------------------------------------------------------------- run


def test_run_bell_circuit(write, capsys):
    circ = write("bell.qc", "H 0\nCNOT 0 1\n")
    assert main(["run", "--format", "json-lines", circ, "|00>"]) == 0
    event = json.loads(_lines(capsys)[0])
    assert event["event"] == "run"
    assert event["deviation"] < 1e-9
    amps = event["decoded"]
    assert abs(amps[0][0] - _R2) < 1e-9 and abs(amps[3][0] - _R2) < 1e-9
    assert abs(amps[1][0]) < 1e-9 and abs(amps[2][0]) < 1e-9


def test_run_text_output(write, capsys):
    circ = write("x.qc", "X 0\n")
    assert main(["run", circ, "|0>"]) == 0
    out = _lines(capsys)
    assert out[1] == "decoded: 0, 1"
    assert out[2].startswith("oracle:")
    assert out[3].startswith("max deviation:")


def test_run_amplitude_list_input(write, capsys):
    circ = write("id.qc", "I 0\n")
    assert main(["run", circ, "0.6,0.8"]) == 0
    assert "decoded: 0.6, 0.8" in capsys.readouterr().out


def test_run_custom_gate_reference(write, tmp_path, capsys):
    (tmp_path / "had.mat").write_text(format_matrix(gate_library["H"]))
    circ = write("h.qc", "@had.mat 0\n")
    assert main(["run", circ, "|0>"]) == 0
    assert "max deviation" in capsys.readouterr().out


def test_run_bad_input_state(write):
    circ = write("h.qc", "H 0\n")
    assert main(["run", circ, "abc"]) == 2
    assert main(["run", circ, "0.6,0.7"]) == 2       # not norm one


def test_run_unknown_gate(write):
    assert main(["run", write("bad.qc", "WARP 0\n"), "|0>"]) == 2


# -------------------------------------------------------------------- equiv


def test_equiv_reduct_matches_value(write, capsys):
    a = write("a.qlam", r"(\x:(U+U). x) (inl *)")
    b = write("b.qlam", "inl *\n")
    assert main(["equiv", a, b]) == 0
    assert _lines(capsys) == ["equivalent at U+U"]


def test_equiv_distinguishes_values(write, capsys):
    a = write("a.qlam", "inl *\n")
    b = write("b.qlam", "inr *\n")
    assert main(["equiv", a, b]) == 6
    assert _lines(capsys) == ["not equivalent"]


def test_equiv_zero_summand_is_observable(write):
    a = write("a.qlam", "inl *\n")
    b = write("b.qlam", "1 * inl * + 0 * inr *\n")
    assert main(["equiv", a, b]) == 6


def test_equiv_json_carries_both_normal_forms(write, capsys):
    a = write("a.qlam", r"(\x:(U+U). x) (inr *)")
    b = write("b.qlam", "inl *\n")
    assert main(["equiv", "--format", "json-lines", a, b]) == 6
    event = json.loads(_lines(capsys)[0])
    assert event["equivalent"] is False
    assert event["normal1"] == "inr *"
    assert event["normal2"] == "inl *"


def test_equiv_incomparable_types_is_a_type_error(write):
    a = write("a.qlam", "*\n")
    b = write("b.qlam", "(inl *, inl *)\n")
    assert main(["equiv", a, b]) == 1
