"""Self-tests of the benchmark at tiny sizes: each correctness gate must trip.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from qtspp.fieldcore import IntegerPoly  # noqa: E402
from qtspp.guessing import SymbolicRecurrence  # noqa: E402

TINY_N = 24


@pytest.fixture(scope="module")
def rec():
    return wl.load_fixture()


def _perturbed(rec: SymbolicRecurrence) -> SymbolicRecurrence:
    coeffs = list(rec.coefficients)
    k = next(i for i, c in enumerate(coeffs) if not c.is_zero())
    coeffs[k] = IntegerPoly([coeffs[k].coeffs[0] + 1, *coeffs[k].coeffs[1:]])
    return SymbolicRecurrence(
        support=rec.support,
        pivot_term=rec.pivot_term,
        coefficients=coeffs,
        prime=rec.prime,
        q_points_used=rec.q_points_used,
    )


def test_flipped_fixture_byte_fails_the_sha_gate(tmp_path):
    data = bytearray(wl.FIXTURE.read_bytes())
    data[len(data) // 2] ^= 0x01
    bad = tmp_path / wl.FIXTURE.name
    bad.write_bytes(bytes(data))
    with pytest.raises(wl.GateFailed, match="sha256"):
        wl.load_fixture(bad)


def test_perturbed_coefficient_fails_certify_and_lift(rec):
    q = wl.make_inputs("certify", 7)["q"][0]
    q_small_order = wl.make_inputs("lift", 7)["q"][0]
    wl.certify_op(q, rec, n=TINY_N)
    wl.lift_op(q_small_order, rec, n=40)
    bad = _perturbed(rec)
    with pytest.raises(wl.GateFailed, match="annihilation"):
        wl.certify_op(q, bad, n=TINY_N)
    with pytest.raises(wl.GateFailed, match="annihilation"):
        wl.lift_op(q_small_order, bad, n=40)


@pytest.mark.parametrize(
    "key", ["nullspace_dim", "zero_coefficients", "terms", "refined_terms"]
)
def test_wrong_expected_fingerprint_fails_pipeline(tmp_path, key):
    inputs = wl.make_inputs("pipeline", 7)
    wrong = dict(wl.EXPECTED, **{key: wl.EXPECTED[key] + 1})
    with pytest.raises(wl.GateFailed, match="expected"):
        wl.pipeline_op(inputs, tmp_path, expected=wrong)


def test_q1_gates(monkeypatch):
    pools = wl.make_inputs("q1", 7)["brute_q"]
    brute_q = {n: qs[:3] for n, qs in pools.items()}
    wl.q1_op(brute_q, L=12, ct=6, brute_n=4)
    monkeypatch.setattr(wl, "TSPP_COUNTS", (2, 5, 16, 67))
    with pytest.raises(wl.GateFailed, match="TSPP count n=4"):
        wl.q1_op(brute_q, L=12, ct=6, brute_n=4)


def test_inputs_depend_on_the_seed_only():
    for workload in wl.WORKLOADS:
        a, b = wl.make_inputs(workload, 3), wl.make_inputs(workload, 3)
        assert a == b
        assert a != wl.make_inputs(workload, 4)
    assert len(set(wl.make_inputs("certify", 3)["q"])) == wl.CERTIFY_POOL
    assert sorted(wl.make_inputs("lift", 3)["k"]) == list(wl.LIFT_EXPONENTS)


def _run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / BENCH.name / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_every_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "certify", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in spec[section]
    }
    assert json.loads(record)["seed"] == 5


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "certify", "--seed", "1", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
