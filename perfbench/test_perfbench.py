"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest perfbench -q

They use the small `--quick` rounds, so they take a minute or two, and they
are not part of the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("# detail "))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("workload", ["gates", "circuits", "corpus"])
def test_counts_repeat_exactly(workload):
    first, first_detail = _run(workload, 1)
    second, second_detail = _run(workload, 1)
    plain, plain_detail = _run(workload, 0)
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {
        k: m["value"] for k, m in second["metrics"].items() if m["unit"] == "count"
    }
    assert first["correct"] and second["correct"] and plain["correct"]
    chars = first_detail["output_chars"]
    assert chars > 0
    assert chars == first_detail["untraced_output_chars"]
    assert chars == second_detail["output_chars"]
    assert chars == plain["metrics"]["output_chars"]["value"]
    assert first["failed"] == second["failed"]
    assert set(first["metrics"]) >= {"cli.import_s", "trace.overhead", "surface.parse_s"}


def _inputs(wl, items) -> list[str]:
    """What the program is given for each item."""
    if isinstance(wl, workloads.Gates):
        return [repr(it.data["gate"].matrix.tobytes()) if "gate" in it.data
                else repr(it.data["images"]) for it in items]
    if isinstance(wl, workloads.Circuits):
        return [Path(it.data["argv"][1]).read_text() + it.data["argv"][2] for it in items]
    return [it.data["text"] for it in items]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_input_repeats_in_a_process(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path, quick=True)
    rounds = [_inputs(wl, wl.round_items(r)) for r in range(3)]
    again = workloads.WORKLOADS[name](7, tmp_path, quick=True)
    assert rounds == [_inputs(again, again.round_items(r)) for r in range(3)]
    warmup = _inputs(wl, wl.warmup)
    for i, inputs in enumerate(rounds):
        assert len(set(inputs)) == len(inputs)
        for other in rounds[i + 1:] + [warmup]:
            assert not set(inputs) & set(other)


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_vanished_boundary_is_absent_not_zero(monkeypatch):
    import qlam
    import tracing

    monkeypatch.delattr(qlam, "trace_normalize")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        qlam.parse_program("inl *")
    finally:
        tracer.uninstall()
    assert "qlam.trace_normalize" in tracer.absent
    metrics = tracer.metrics({})
    assert metrics["rewrite.normalize_s"][0] is None
    assert metrics["surface.parse_s"][0] > 0
    assert metrics["quantum.compiles"][0] == 0


def test_reference_simulation_of_ghz():
    gates = [(reference.GATES["H"], [0]), (reference.GATES["CNOT"], [0, 1]),
             (reference.GATES["CNOT"], [1, 2])]
    start = np.zeros(8, dtype=complex)
    start[0] = 1
    got = reference.simulate(gates, start)
    want = np.zeros(8, dtype=complex)
    want[0] = want[7] = 1 / np.sqrt(2)
    assert np.allclose(got, want)


def test_reference_gate_order_matches_bit_order():
    # X on qubit 2 of |000> gives |001>, index 1; SWAP 0 2 then moves it to |100>
    start = np.zeros(8, dtype=complex)
    start[0] = 1
    got = reference.simulate([(reference.GATES["X"], [2])], start)
    assert got[1] == 1
    got = reference.simulate([(reference.GATES["SWAP"], [0, 2])], got)
    assert got[4] == 1


def test_read_register():
    # a leading minus negates the whole scalar, as qlam prints and parses it
    text = "0.5 * (inl *, inr *) + -0.5-0.5i * (inr *, inl *) + (inr *, inr *)"
    got = reference.read_register(text, 2)
    assert np.allclose(got, [0, 0.5, -0.5 + 0.5j, 1])
    with pytest.raises(ValueError):
        reference.read_register("(inl *, x)", 2)


def test_speed_scale_uses_the_chunks_around_an_item():
    import speed

    s = speed.Speed()
    s.samples = [1.0, 1.0, 3.0, 3.0]
    s.ends = [0.0, 1.0, 2.0, 3.0]
    # a short item sees the chunks within HALO_S of it, a long one those
    # within its own length
    assert s.scales([(1.0, 1.001)]) == [speed.REF_S / 1.0]
    assert s.scales([(1.5, 2.5)]) == [pytest.approx(speed.REF_S * 3 / 7)]
    assert 0.0002 < speed.chunk() < 0.05
