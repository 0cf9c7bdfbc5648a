"""Workloads, seeded inputs and correctness gates of the qtspp benchmark.

Run as a script this module is one side of perfbench/run.py:

    python3 perfbench/workloads.py setup   --workload W --seed S
    python3 perfbench/workloads.py measure --workload W --seed S --seconds T --trace 0|1

`setup` imports qtspp, loads and checks the recurrence fixture, generates
the workload's inputs and prints the seconds that took.  `measure` does the
same set-up, then runs the workload's operations in a closed loop (one at a
time, each started only after the previous one finished) until T seconds
have passed, and prints one JSON line with the per-operation times, failures
and peak memory; with --trace 1 it also reports per-layer figures.

Every operation checks its own outputs; a wrong answer raises GateFailed and
counts as a failed operation instead of a fast one.
"""

import time

SETUP_T0 = time.perf_counter()  # setup_s counts from here, before qtspp is imported

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qtspp import cofactors as cof  # noqa: E402
from qtspp import fieldcore as fc  # noqa: E402
from qtspp import guessing as gs  # noqa: E402
from qtspp import okada as ok  # noqa: E402
from qtspp import verify as vf  # noqa: E402
from tracing import RecordCounter, Tracer, cost_per_span  # noqa: E402

PRIME = fc.DEFAULT_PRIME
MODULUS = fc.PrimeModulus(PRIME)
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "recurrence-symbolic.json"
FIXTURE_SHA256 = "6eac503d9732e13127a291a526cb5d5d9fc91e9026a26b68d3ddd3b2e9955a25"

# pipeline: the default `qtspp pipeline --workers 2` configuration.  The
# discovery q, the bounds and the sweep range fix the fingerprints below.
N_MAX = 35
BOUNDS = (4, 7, 10)
Q_FROM, Q_TO = 2, 150
N_EXT = 120
IDENTITY_L = 40
IDENTITY_Q_COUNT = 20
SWEEP_WORKERS = 2
#: every REPLAY_STRIDE-th sweep point, from a seeded offset, is replayed
#: serially and untraced after a traced pipeline run, to split one point's
#: time into table build and guess
REPLAY_STRIDE = 12

EXPECTED = {
    "nullspace_dim": 1,
    "zero_coefficients": 110,
    "terms": 440,
    "refined_terms": 330,
    "survivors": Q_TO - Q_FROM + 1,
    "max_abs_coefficient": 13,
    "max_degree": 63,
    "symbolic_sha256": FIXTURE_SHA256,
}

CERTIFY_N = 120
CERTIFY_POOL = 200
LIFT_N = 60
LIFT_EXPONENTS = range(1, 31)  # 2**k mod p has order 31 for each of these k
Q1_L = 60
Q1_CT = 30
Q1_BRUTE_N = 4
Q1_BRUTE_Q = 30
Q1_POOL_OPS = 24
TSPP_COUNTS = (2, 5, 16, 66)

WORKLOADS = ("certify", "lift", "q1", "pipeline")


class GateFailed(Exception):
    """A benchmark output disagreed with its expected value."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise GateFailed(f"{what}: got {got!r}, expected {want!r}")


def load_fixture(path: Path = FIXTURE) -> gs.SymbolicRecurrence:
    """The committed symbolic recurrence, refused unless its sha256 matches."""
    data = path.read_bytes()
    expect(f"sha256 of {path.name}", hashlib.sha256(data).hexdigest(), FIXTURE_SHA256)
    return gs.load_recurrence(path)


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs, a function of the seed only; q points never repeat."""
    rng = random.Random(f"qtspp-perfbench/{workload}/{seed}")
    if workload == "certify":
        return {"q": vf.select_q_points(CERTIFY_POOL, CERTIFY_N, MODULUS, seed=rng.getrandbits(32))}
    if workload == "lift":
        ks = rng.sample(LIFT_EXPONENTS, len(LIFT_EXPONENTS))
        return {"k": ks, "q": [pow(2, k, PRIME) for k in ks]}
    if workload == "q1":
        return {
            "brute_q": {
                str(n): vf.select_q_points(Q1_BRUTE_Q * Q1_POOL_OPS, n, MODULUS, seed=rng.getrandbits(32))
                for n in range(1, Q1_BRUTE_N + 1)
            }
        }
    if workload == "pipeline":
        identity_q = vf.select_q_points(IDENTITY_Q_COUNT, IDENTITY_L, MODULUS, seed=rng.getrandbits(32))
        fresh_n = max(N_EXT // 2, N_MAX + 1)
        while True:
            q_fresh = rng.randrange(Q_TO + 1, 1 << 20)
            if ok.has_admissible_order(q_fresh, MODULUS, fresh_n):
                break
        replay = list(range(Q_FROM + rng.randrange(REPLAY_STRIDE), Q_TO + 1, REPLAY_STRIDE))
        return {"identity_q": identity_q, "q_fresh": q_fresh, "replay_q": replay}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations.  Each one is a complete, self-checked unit of work.
# ---------------------------------------------------------------------------


def _expect_passed(report) -> None:
    expect(f"{report.identity} report (q={report.q_points[:3]})", report.passed, True)


def _expect_annihilated(rec, table) -> None:
    residuals = gs.annihilation_residuals(rec, table)
    expect(f"nonzero annihilation residuals at q={table.q_int}", int(np.count_nonzero(residuals)), 0)


def certify_op(q: int, rec, n: int = CERTIFY_N) -> None:
    """Table to n, the three certificate identities, then annihilation."""
    table = cof.build_table(n, ok.QPoint(q, MODULUS))
    for report in (
        vf.check_normalization(table),
        vf.check_soichi(table, n),
        vf.check_okada(table, n),
    ):
        _expect_passed(report)
    _expect_annihilated(rec, table)


def lift_op(q: int, rec, n: int = LIFT_N) -> None:
    """Table at a small-order q (p-adic rows), orthogonality, annihilation.

    Normalization and okada are left out: p-scaled rows are correctly not
    unit-diagonal, and the layer ratio divides by 1 - q**31 = 0.
    """
    table = cof.build_table(n, ok.QPoint(q, MODULUS))
    _expect_passed(vf.check_soichi(table, n))
    _expect_annihilated(rec, table)


def q1_op(brute_q: dict, L: int = Q1_L, ct: int = Q1_CT, brute_n: int = Q1_BRUTE_N) -> None:
    """The `qtspp pipeline --q1` route with the brute-force oracle at brute_q."""
    table = cof.build_table(L, ok.QPoint(1, MODULUS))
    for report in (
        vf.check_normalization(table),
        vf.check_soichi(table, L),
        vf.check_okada(table, L),
        vf.ct_check_q1(min(ct, L)),
    ):
        _expect_passed(report)
    for n in range(1, brute_n + 1):
        poly = vf.brute_force_qtspp(n)
        expect(f"TSPP count n={n}", poly(1), TSPP_COUNTS[n - 1])
        for q in brute_q[str(n)]:
            product = int(ok.qtspp_orbit_product(n, ok.QPoint(q, MODULUS)))
            expect(f"brute force vs product, n={n} q={q}", poly.eval_mod(q % PRIME, PRIME), product)


def pipeline_op(inputs: dict, out: Path, expected: dict = EXPECTED) -> dict:
    """cmd_pipeline's stages, with every fingerprint gated as soon as it exists.

    Writes the run's artifacts to out and returns the refined support and
    the sweep's point counts.
    """
    table = cof.build_table(N_MAX, ok.QPoint(2, MODULUS))
    table.save_text(out / f"cofactors-q2-n{N_MAX}.txt")

    rec = gs.guess_modular(table, gs.AnsatzSupport.full(*BOUNDS))
    gs.save_recurrence(rec, out / "recurrence-modular-q2.json")
    expect("nullspace dimension", rec.nullspace_dim, expected["nullspace_dim"])
    expect("zero coefficients", rec.zero_count(), expected["zero_coefficients"])
    expect("ansatz terms", len(rec.support), expected["terms"])

    refined = gs.refine_support(rec)
    expect("refined support", len(refined), expected["refined_terms"])
    recs = gs.sweep(
        refined, Q_FROM, Q_TO, p=PRIME, n_max=N_MAX, pivot_term=rec.pivot_term, workers=SWEEP_WORKERS
    )
    expect("sweep survivors", len(recs), expected["survivors"])
    sym = gs.reconstruct_symbolic(recs)
    path = gs.save_recurrence(sym, out / "recurrence-symbolic.json")
    expect("max |coefficient|", sym.max_abs_coefficient(), expected["max_abs_coefficient"])
    expect("max coefficient degree", max(c.degree for c in sym.coefficients), expected["max_degree"])
    expect("sha256 of recurrence-symbolic.json", hashlib.sha256(path.read_bytes()).hexdigest(),
           expected["symbolic_sha256"])

    q_fresh = inputs["q_fresh"]
    for report, name in (
        (vf.check_leading_factor_vanishing(sym), "leading-factor"),
        (vf.check_extended(sym, 2, PRIME, N_EXT), "extended-q2"),
        (vf.check_extended(sym, q_fresh, PRIME, max(N_EXT // 2, N_MAX + 1)), f"extended-q{q_fresh}"),
    ):
        report.save(out / f"report-{name}.json")
        _expect_passed(report)

    tables = [cof.build_table(IDENTITY_L, ok.QPoint(q, MODULUS)) for q in inputs["identity_q"]]
    for report in (
        vf.check_normalization(tables),
        vf.check_soichi(tables, IDENTITY_L),
        vf.check_okada(tables, IDENTITY_L),
    ):
        report.save(out / f"report-{report.identity}.json")
        _expect_passed(report)
    return {"refined": refined, "points": Q_TO - Q_FROM + 1, "survivors": len(recs)}


def replay_sweep_points(qs, refined) -> tuple[list[float], list[float]]:
    """Serial build_table + guess_modular at sweep points, timed separately."""
    table_s, guess_s = [], []
    for q in qs:
        t0 = time.perf_counter()
        table = cof.build_table(N_MAX, ok.QPoint(q, MODULUS))
        t1 = time.perf_counter()
        rec = gs.guess_modular(table, refined)
        t2 = time.perf_counter()
        expect(f"nullspace dimension at sweep point q={q}", rec.nullspace_dim, 1)
        table_s.append(t1 - t0)
        guess_s.append(t2 - t1)
    return table_s, guess_s


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def operations(workload: str, inputs: dict, rec, out: Path, results: list):
    """The workload's operations as argument-free callables, in input order."""
    if workload == "certify":
        return [lambda q=q: certify_op(q, rec) for q in inputs["q"]]
    if workload == "lift":
        return [lambda q=q: lift_op(q, rec) for q in inputs["q"]]
    if workload == "q1":
        pools = inputs["brute_q"]
        return [
            lambda i=i: q1_op({n: qs[i * Q1_BRUTE_Q:(i + 1) * Q1_BRUTE_Q] for n, qs in pools.items()})
            for i in range(Q1_POOL_OPS)
        ]
    if workload == "pipeline":
        # the same seeded inputs each time; one run normally fits one operation
        return [lambda: results.append(pipeline_op(inputs, out))] * 8
    raise ValueError(f"unknown workload {workload!r}")


def closed_loop(ops, seconds: float) -> tuple[list[float], list[str], float]:
    """Run ops one after another until `seconds` have passed (at least one)."""
    op_s, failures = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        if op_s and t0 - start >= seconds:
            break
        try:
            op()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc()
            failures.append(f"{type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - t0)
    return op_s, failures, time.perf_counter() - start


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, per worker, the largest child's peak.

    getrusage reports only the largest waited-for child, so the workers are
    counted at that size; forked workers share pages with the parent, which
    makes the sum an upper bound.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def layer_metrics(tracer, counter, op_s: list[float], results: list, replay) -> dict:
    span = tracer.get

    def ratio(a, b):
        return a / b if b else 0.0

    build = span("cofactors.build_table")
    rrf = span("fieldcore.reconstruct_rational_function")
    sweep = span("guessing.sweep")
    points = sum(r["points"] for r in results)
    table_s, guess_s = replay
    serial_point_s = statistics.fmean(t + g for t, g in zip(table_s, guess_s)) if table_s else 0.0
    identity_self = sum(
        span(f"verify.{name}").self_s for name in ("check_soichi", "check_okada", "check_normalization")
    )
    per_span = cost_per_span()
    okada_layer = tracer.layer("okada")
    values = {
        "cofactors.build_table.calls": (build.calls, "count"),
        "cofactors.build_table.self_s": (build.self_s, "s"),
        "cofactors.rows_per_s": (ratio(tracer.amounts.get("cofactors.rows", 0), build.total_s), "1/s"),
        "cofactors.padic_rows": (counter.counts["cofactors.padic_rows"], "count"),
        "cofactors.scaled_rows": (counter.counts["cofactors.scaled_rows"], "count"),
        "fieldcore.solve_mod.calls": (span("fieldcore.solve_mod").calls, "count"),
        "fieldcore.solve_mod.self_s": (span("fieldcore.solve_mod").self_s, "s"),
        "fieldcore.nullspace_mod.calls": (span("fieldcore.nullspace_mod").calls, "count"),
        "fieldcore.nullspace_mod.self_s": (span("fieldcore.nullspace_mod").self_s, "s"),
        "guessing.build_equations.self_s": (span("guessing.build_equations").self_s, "s"),
        "guessing.guess_modular.calls": (span("guessing.guess_modular").calls, "count"),
        "guessing.guess_modular.self_s": (span("guessing.guess_modular").self_s, "s"),
        "guessing.sweep.self_s": (sweep.self_s, "s"),
        "guessing.sweep.points": (points, "count"),
        "guessing.sweep.survivors": (sum(r["survivors"] for r in results), "count"),
        "guessing.sweep.skipped": (counter.counts["guessing.sweep.skipped"], "count"),
        "guessing.sweep.parallel_efficiency": (
            ratio(serial_point_s * points, SWEEP_WORKERS * sweep.total_s), "1"),
        "guessing.sweep.point_table_s": (statistics.median(table_s) if table_s else 0.0, "s"),
        "guessing.sweep.point_guess_s": (statistics.median(guess_s) if guess_s else 0.0, "s"),
        "fieldcore.reconstruct_rational_function.calls": (rrf.calls, "count"),
        "fieldcore.reconstruct_rational_function.self_s": (rrf.self_s, "s"),
        "fieldcore.interpolate_poly.self_s": (span("fieldcore.interpolate_poly").self_s, "s"),
        "fieldcore.rrf_fit_ratio": (ratio(rrf.calls - rrf.errors, rrf.calls), "1"),
        "fieldcore.reconstruct_rational_number.calls": (span("fieldcore.reconstruct_rational_number").calls, "count"),
        "fieldcore.reconstruct_rational_number.self_s": (span("fieldcore.reconstruct_rational_number").self_s, "s"),
        "guessing.reconstruct_symbolic.self_s": (span("guessing.reconstruct_symbolic").self_s, "s"),
        "guessing.annihilation_residuals.self_s": (span("guessing.annihilation_residuals").self_s, "s"),
        "verify.check_extended.self_s": (span("verify.check_extended").self_s, "s"),
        "verify.identity.self_s": (identity_self, "s"),
        "verify.checks": (tracer.amounts.get("verify.checks", 0), "count"),
        "verify.failures": (tracer.amounts.get("verify.failures", 0), "count"),
        "verify.ct_check_q1.self_s": (span("verify.ct_check_q1").self_s, "s"),
        "verify.brute_force_qtspp.self_s": (span("verify.brute_force_qtspp").self_s, "s"),
        "okada.calls": (okada_layer.calls, "count"),
        "okada.self_s": (okada_layer.self_s, "s"),
        "cli.artifacts.bytes": (tracer.amounts.get("cli.artifacts.bytes", 0), "bytes"),
        "cli.artifacts.self_s": (span("cli.artifacts").self_s, "s"),
        "trace.spans": (tracer.spans, "count"),
        "trace.overhead_s": (tracer.spans * per_span, "s"),
        "trace.op_s_p50": (statistics.median(op_s), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def setup(workload: str, seed: int):
    """Fixture and inputs; qtspp itself was imported with this module."""
    rec = load_fixture()
    inputs = make_inputs(workload, seed)
    return rec, inputs, time.perf_counter() - SETUP_T0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rec, inputs, setup_s = setup(workload, seed)
    results: list = []
    out = Path(tempfile.mkdtemp(prefix=".perfbench-out-", dir=ROOT))
    try:
        ops = operations(workload, inputs, rec, out, results)
        if trace:
            tracer, counter = Tracer().install(), RecordCounter().attach()
            try:
                op_s, failures, loop_s = closed_loop(ops, seconds)
            finally:
                tracer.uninstall()
                counter.detach()
        else:
            op_s, failures, loop_s = closed_loop(ops, seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    workers = SWEEP_WORKERS if workload == "pipeline" else 0
    doc = {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "setup_s": setup_s,
        "op_s": op_s,
        "loop_s": loop_s,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(workers),
    }
    if trace:
        replay = ([], [])
        if results and not failures:
            replay = replay_sweep_points(inputs["replay_q"], results[0]["refined"])
        doc["layers"] = layer_metrics(tracer, counter, op_s, results, replay)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[2]}))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
