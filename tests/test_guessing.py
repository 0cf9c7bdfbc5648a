import dataclasses
import hashlib
import logging
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from qtspp import cli, fieldcore, guessing
from qtspp.cofactors import CofactorTable, build_table
from qtspp.fieldcore import (
    IntegerPoly,
    InvalidInput,
    PrimeModulus,
    WorkbenchError,
    matvec_mod,
    nullspace_mod,
)
from qtspp.guessing import (
    AnsatzSupport,
    InsufficientData,
    ModularRecurrence,
    NoRecurrence,
    ReconstructionFailed,
    SymbolicRecurrence,
    TooFewPoints,
    annihilation_residuals,
    build_equations,
    guess_modular,
    load_recurrence,
    reconstruct_symbolic,
    recurrence_to_json,
    refine_support,
    save_recurrence,
    sweep,
)
from qtspp.okada import QPoint
from qtspp.verify import check_extended

P = PrimeModulus()
ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixtures" / "recurrence-symbolic.json"


def qp(q):
    return QPoint(q, P)


def noise_table(n_max, q_int, seed=0):
    rng = random.Random(seed)
    b = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    for n in range(1, n_max + 1):
        b[n, 1 : n + 1] = [rng.randrange(P.p) for _ in range(n - 1)] + [1]
    return CofactorTable(q_int, P, b)


class TestAnsatzSupport:
    def test_full_size(self):
        sup = AnsatzSupport.full()
        assert len(sup) == (4 + 1) * (7 + 1) * (10 + 1) == 440
        assert sup.bounds == (4, 7, 10)

    def test_ordering(self):
        sup = AnsatzSupport.full(1, 1, 1)
        # sorted lexicographically by (gamma, beta, alpha)
        assert sup.terms[:4] == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        assert sup.terms[4:] == ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AnsatzSupport(((0, -1, 0),))

    def test_rejects_mixed_arity(self):
        with pytest.raises(ValueError):
            AnsatzSupport(((0, 0, 0), (0, 0, 0, 0)))

    def test_rejects_non_integer_exponents(self):
        for terms in (((1.5, 0, 0), (0, 0, 2.7)), ((0, 0, 2.0),), ((0, "1", 0),)):
            with pytest.raises(InvalidInput):
                AnsatzSupport(terms)
        sup = AnsatzSupport(((np.int64(1), np.int32(0), 1),))
        assert sup.terms == ((1, 0, 1),) and all(type(x) is int for x in sup.terms[0])

    def test_subset_keeps_bounds(self):
        sup = AnsatzSupport.full()
        sub = sup.subset([(0, 0, 0), (1, 2, 3)])
        assert sub.bounds == sup.bounds and len(sub) == 2


class TestBuildEquations:
    def test_shape(self, table_q2, full_support):
        m = build_equations(table_q2, full_support)
        assert m.shape == (630, 440)

    def test_insufficient_data(self):
        t = build_table(10, qp(3))
        with pytest.raises(InsufficientData):
            build_equations(t, AnsatzSupport.full(4, 7, 10))

    def test_single_term_column_is_table(self):
        t = build_table(4, qp(3))
        sup = AnsatzSupport(((0, 0, 0),), (0, 0, 0))
        m = build_equations(t, sup)
        col = m[:, 0].tolist()
        want = [t.value(n, j) for n in range(1, 5) for j in range(1, n + 1)]
        assert col == want
        with pytest.raises(NoRecurrence):
            guess_modular(t, sup)

    def test_entry_formula(self):
        t = build_table(13, qp(5))
        sup = AnsatzSupport(((2, 1, 3),), (2, 1, 3))
        m = build_equations(t, sup)
        rows = [(n, j) for n in range(1, 14) for j in range(1, n + 1)]
        for r, (n, j) in enumerate(rows):
            want = pow(5, 2 * n + j, P.p) * t.value(n, j + 3) % P.p
            assert m[r, 0] == want


class TestGuessModular:
    def test_fingerprint(self, modular_rec):
        assert modular_rec.nullspace_dim == 1
        assert modular_rec.zero_count() == 110
        assert modular_rec.coefficients[
            modular_rec.support.terms.index(modular_rec.pivot_term)
        ] == 1

    def test_noise_has_no_recurrence(self):
        t = noise_table(35, 9991, seed=4)
        with pytest.raises(NoRecurrence):
            guess_modular(t, AnsatzSupport.full())

    def test_pivot_invariance_under_row_shuffle(self, table_q2, full_support):
        m = build_equations(table_q2, full_support)
        rng = np.random.default_rng(2)
        shuffled = m[rng.permutation(m.shape[0])]
        b1 = nullspace_mod(m, P.p)
        b2 = nullspace_mod(shuffled, P.p)
        assert b1.shape == b2.shape == (1, 440)

        def normalized(vec):
            k = int(np.nonzero(vec)[0][0])
            return vec * pow(int(vec[k]), -1, P.p) % P.p

        assert np.array_equal(normalized(b1[0]), normalized(b2[0]))

    def test_bytes_are_pinned(self, modular_rec):
        digest = hashlib.sha256(recurrence_to_json(modular_rec).encode()).hexdigest()
        assert digest == "70b4cd12828e758064970de2fc932d9a841e15ae36de3a8812f3c346228a4a39"


class TestRefineSupport:
    def test_real_refinement(self, modular_rec, refined):
        assert len(refined) == 330
        assert refined.terms == modular_rec.nonzero_terms()
        assert refined.terms[0] == modular_rec.pivot_term

    def test_nothing_to_drop(self):
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0)), (1, 0, 0))
        rec = ModularRecurrence(sup, 3, P.p, np.array([1, 2]), (0, 0, 0), 1)
        assert refine_support(rec).terms == sup.terms

    def test_degenerate_single_term(self):
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0)), (1, 0, 0))
        rec = ModularRecurrence(sup, 3, P.p, np.array([1, 0]), (0, 0, 0), 1)
        assert refine_support(rec).terms == ((0, 0, 0),)

    def test_requires_dimension_one(self):
        sup = AnsatzSupport(((0, 0, 0),), (0, 0, 0))
        rec = ModularRecurrence(sup, 3, P.p, np.array([1]), (0, 0, 0), 2)
        with pytest.raises(ValueError):
            refine_support(rec)


class TestApplyRecurrence:
    def test_grid_all_zero(self, table_q2, modular_rec):
        grid = annihilation_residuals(modular_rec, table_q2)
        assert not grid.any()

    def test_detects_corruption(self, table_q2, modular_rec):
        bad = table_q2.with_value(20, 11, (table_q2.value(20, 11) + 1) % P.p)
        grid = annihilation_residuals(modular_rec, bad)
        assert grid.any()
        bad_rows = {int(n) for n, _ in np.argwhere(grid != 0)}
        assert bad_rows == {20}  # only the corrupted row can be affected

    @staticmethod
    def scalar_residuals(rec, table):
        """R[n, j] term by term through table.value: the vectorized grid's oracle."""
        q, p = table.q_int, table.modulus.p
        coeffs = rec.specialize(q, p)
        grid = np.zeros((table.n_max + 1, table.n_max + 1), dtype=np.int64)
        for n in range(1, table.n_max + 1):
            for j in range(1, n + 1):
                grid[n, j] = sum(
                    int(c) * pow(q, alpha * n + beta * j, p) * table.value(n, j + gamma)
                    for c, (alpha, beta, gamma) in zip(coeffs, rec.support.terms)
                ) % p
        return grid

    @staticmethod
    def modular(support, table, coeffs):
        return ModularRecurrence(
            support, table.q_int, table.modulus.p, coeffs, support.terms[0], 1
        )

    def assert_matches_oracle(self, rec, table):
        grid = annihilation_residuals(rec, table)
        assert grid.shape == (table.n_max + 1, table.n_max + 1)
        assert np.array_equal(grid, self.scalar_residuals(rec, table))
        return grid

    def test_matches_scalar_evaluation(self):
        # n_max = 8 is below gamma_max: too small to guess from, not to check
        rec = load_recurrence(FIXTURE)
        clean = build_table(8, qp(3))
        for table in (clean, clean.with_value(6, 2, 12345)):
            grid = annihilation_residuals(rec, table)
            assert np.array_equal(grid, self.scalar_residuals(rec, table))
        assert grid.any()

    def test_matches_the_equation_system(self):
        rec = load_recurrence(FIXTURE)
        table = build_table(35, qp(7))
        table = table.with_value(30, 4, table.value(30, 4) + 1)
        want = np.zeros((36, 36), dtype=np.int64)
        eqs = build_equations(table, rec.support)
        want[1:, 1:][np.tril_indices(35)] = matvec_mod(eqs, rec.specialize(7), P.p)
        grid = annihilation_residuals(rec, table)
        assert grid.any() and np.array_equal(grid, want)

    def test_residues_near_the_largest_modulus(self):
        # every residue is within 1000 of p: a Horner step reaches (p - 1) * p < 2**63
        big = PrimeModulus(3037000493)
        rng = np.random.default_rng(11)
        b = np.tril(big.p - rng.integers(1, 1000, size=(21, 21)))
        b[0] = b[:, 0] = 0
        table = CofactorTable(big.p - 2, big, b)
        support = load_recurrence(FIXTURE).support
        rec = self.modular(support, table, big.p - rng.integers(1, 1000, size=len(support)))
        assert self.assert_matches_oracle(rec, table)[1:, 1:][np.tril_indices(20)].all()

    def test_random_modular_recurrence(self):
        table = build_table(30, qp(12345))
        support = load_recurrence(FIXTURE).support
        rng = np.random.default_rng(12)
        rec = self.modular(support, table, rng.integers(1, P.p, size=len(support)))
        assert self.assert_matches_oracle(rec, table)[1:, 1:][np.tril_indices(30)].all()

    def test_support_with_missing_pairs(self):
        # gammas 0, 2 and 9 only, and few (alpha, beta) pairs within each
        support = AnsatzSupport(((0, 0, 0), (3, 0, 2), (0, 5, 2), (2, 7, 9), (4, 1, 9)))
        table = noise_table(25, 7)
        rec = self.modular(support, table, [1, 5, P.p - 1, 123456789, 2])
        assert self.assert_matches_oracle(rec, table).any()

    @pytest.mark.parametrize("n_max", [1, 2, 9])
    def test_tables_at_or_below_the_largest_shift(self, n_max):
        support = load_recurrence(FIXTURE).support
        assert support.max_shift_j == 10
        table = noise_table(n_max, 5)
        coeffs = np.random.default_rng(n_max).integers(1, P.p, size=len(support))
        assert self.assert_matches_oracle(self.modular(support, table, coeffs), table).any()

    def test_one_coefficient_off_by_one(self):
        rec = load_recurrence(FIXTURE)
        table = build_table(20, qp(3))
        coeffs = rec.specialize(3)
        k = rec.support.terms.index((2, 3, 4))
        coeffs[k] = (coeffs[k] + 1) % P.p
        grid = self.assert_matches_oracle(self.modular(rec.support, table, coeffs), table)
        # the bad term adds q**(2n + 3j) * B(n, j + 4), nonzero exactly where j + 4 <= n
        n, j = np.indices(grid.shape)
        assert np.array_equal(grid != 0, (j >= 1) & (j + 4 <= n))

    def test_independent_of_the_elimination_kernel(self, corrupt_products):
        # the check certifies what the elimination found, so a faulty
        # _mul_mod must leave the residual grid and the extended report alone
        rec = load_recurrence(FIXTURE)
        table = build_table(40, qp(11))
        tables = (table, table.with_value(30, 4, table.value(30, 4) + 1))
        grids = [annihilation_residuals(rec, t) for t in tables]
        report = check_extended(rec, 11, P.p, 40).to_json()
        eqs = build_equations(table, rec.support)
        kernel = nullspace_mod(eqs, P.p)
        corrupt_products()
        assert not np.array_equal(nullspace_mod(eqs, P.p), kernel)  # the fault is live
        for t, want in zip(tables, grids):
            assert np.array_equal(annihilation_residuals(rec, t), want)
        assert grids[1].any() and check_extended(rec, 11, P.p, 40).to_json() == report

    def test_q_point_mismatch(self, table_q2, modular_rec):
        other = build_table(35, qp(3))
        with pytest.raises(ValueError):
            annihilation_residuals(modular_rec, other)


def pow_sum(rec, gamma, q, x, y, p):
    """P_gamma(x, y) term by term with pow: the shift evaluator's oracle."""
    c = rec.specialize(q, p).tolist()
    return sum(
        c[k] * pow(x, a, p) % p * pow(y, b, p) % p
        for k, (a, b, g) in enumerate(rec.support.terms)
        if g == gamma
    ) % p


class TestShiftEvaluator:
    """_shift_polys and _eval_shift: the one path behind the annihilation residuals."""

    @pytest.mark.parametrize("p", [P.p, 3037000493])
    @pytest.mark.parametrize("gamma", [0, 10])
    def test_matches_the_pow_sum(self, p, gamma):
        # residues within 1000 of p: a Horner step reaches (p - 1) * p < 2**63
        rec = load_recurrence(FIXTURE)
        assert rec.support.max_shift_j == 10
        rng = np.random.default_rng(gamma)
        xs, ys = p - rng.integers(1, 1000, size=(2, 8))
        for q in (2, 151, p - 3):
            poly = guessing._shift_polys(rec, q, p)[gamma]
            want = [[pow_sum(rec, gamma, q, x, y, p) for y in ys.tolist()] for x in xs.tolist()]
            assert guessing._eval_shift(poly, xs, ys, p).tolist() == want
            for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
                got = guessing._eval_shift(poly, np.array([x]), np.array([y]), p)
                assert got.shape == (1, 1) and int(got[0, 0]) == want[i][i]
            assert any(v for row in want for v in row)


class TestSweep:
    def test_empty_range(self, refined):
        assert sweep(refined, 5, 4, p=P.p, n_max=35) == []

    def test_rejects_bad_start(self, refined):
        with pytest.raises(ValueError):
            sweep(refined, 1, 10, p=P.p, n_max=35)

    def test_too_few_points(self, refined, modular_rec):
        with pytest.raises(TooFewPoints):
            sweep(
                refined, 2, 4, p=P.p, n_max=35,
                pivot_term=modular_rec.pivot_term, min_points=10,
            )

    def test_small_sweep(self, refined, modular_rec):
        recs = sweep(
            refined, 2, 9, p=P.p, n_max=35,
            pivot_term=modular_rec.pivot_term, min_points=5,
        )
        assert [r.q_int for r in recs] == list(range(2, 10))
        for r in recs:
            assert r.nullspace_dim == 1
            assert r.coefficients[refined.terms.index(modular_rec.pivot_term)] == 1

    def test_worker_count_invariance(self, refined, modular_rec):
        kw = dict(p=P.p, n_max=35, pivot_term=modular_rec.pivot_term, min_points=4)
        serial = sweep(refined, 2, 7, workers=1, **kw)
        parallel = sweep(refined, 2, 7, workers=2, **kw)
        assert [r.q_int for r in serial] == [r.q_int for r in parallel]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.coefficients, b.coefficients)

    def test_degenerate_point_skipped(self, refined, modular_rec):
        # q = p - 1 has multiplicative order 2: the entry matrix collapses,
        # the table build fails, and the point must be reported as skipped
        from qtspp.guessing import _sweep_one

        q_int, coeffs, dim, reason = _sweep_one(
            (P.p - 1, P.p, 35, refined, modular_rec.pivot_term)
        )
        assert coeffs is None and "singular" in reason

    def test_small_order_point_is_logged(self, caplog):
        # q = p - 1 has order 2: build_table refuses it, and the sweep logs why
        sup = AnsatzSupport(((0, 0, 0), (0, 0, 1)), (0, 0, 1))
        with caplog.at_level(logging.WARNING, logger="qtspp.guessing"):
            assert sweep(sup, P.p - 2, P.p - 1, p=P.p, n_max=12, min_points=0) == []
        assert [r.getMessage() for r in caplog.records] == [
            f"sweep skipped q={P.p - 2}: trivial nullspace",
            f"sweep skipped q={P.p - 1}: singular table: q has multiplicative order 2",
        ]

    def test_full_sweep_survives_everywhere(self, sweep_recs):
        assert [r.q_int for r in sweep_recs] == list(range(2, 151))

    def test_fixed_rows_are_pinned(self, refined):
        rows = guessing._fixed_rows(refined, 2, 150, P.p, 35)
        assert len(rows) == 329
        digest = hashlib.sha256(repr(rows.tolist()).encode()).hexdigest()
        assert digest == "8b32be5a7219666b5b05e1d96d8c7d27e032f39bc8f5b01468fa0e9c47fa5a47"


def outcome(result):
    """A _sweep_one result with its coefficients as a comparable list."""
    q_int, coeffs, dim, reason = result
    return q_int, None if coeffs is None else coeffs.tolist(), dim, reason


def support_order_outcome(job):
    """_sweep_one's decision taken on the nullspace of the system in support order."""
    q_int, p, n_max, support, pivot_term = job
    table, reason = guessing._point_table(q_int, p, n_max)
    if table is None:
        return q_int, None, 0, reason
    basis = nullspace_mod(build_equations(table, support), p)
    dim, k = basis.shape[0], support.terms.index(pivot_term)
    if dim != 1:
        return q_int, None, dim, f"nullspace dimension {dim}" if dim else "trivial nullspace"
    if basis[0, k] == 0:
        return q_int, None, 1, "pivot coefficient vanishes"
    return q_int, (basis[0] * pow(int(basis[0, k]), -1, p) % p).tolist(), 1, None


def fallback_records(caplog):
    return [r.getMessage() for r in caplog.records if "falling back" in r.getMessage()]


class TestSquareSolve:
    """The fixed-row square solve and its certified fallback to the nullspace."""

    def test_matches_the_nullspace_path(self, refined, modular_rec, sweep_recs):
        # the fixture itself is pinned bytewise to the nullspace-path sweep
        # (test_bytes_match_the_benchmark_fixture); this checks points directly
        rows = guessing._fixed_rows(refined, 2, 150, P.p, 35)
        assert len(rows) == len(refined) - 1
        for rec in sweep_recs[::24]:
            job = (rec.q_int, P.p, 35, refined, modular_rec.pivot_term)
            fast = outcome(guessing._sweep_one(job, rows))
            assert fast == outcome(guessing._sweep_one(job))
            assert fast[1] == rec.coefficients.tolist()

    def test_staircase_fallback_matches_the_support_order(self, refined, modular_rec):
        # without fixed rows the whole system is eliminated in staircase order;
        # at a point of dimension 1, one of dimension > 1 (n_max = 11 leaves
        # 66 equations for 330 terms) and the order-2 point q = p - 1
        jobs = [(q, P.p, n_max, refined, modular_rec.pivot_term)
                for q, n_max in ((3, 35), (3, 11), (P.p - 1, 35))]
        got = [outcome(guessing._sweep_one(job)) for job in jobs]
        assert got == [support_order_outcome(job) for job in jobs]
        assert got[0][1] is not None and got[0][2] == 1
        assert got[1][2] >= 264 and got[1][3] == f"nullspace dimension {got[1][2]}"
        assert got[2][3].startswith("singular table")

    def test_corrupted_row_trips_the_residual(self, refined, modular_rec, monkeypatch, caplog):
        # rows are fixed at the clean q = 2; at q = 3..5 one equation row
        # outside them is corrupted, which only the residual can see
        rows = guessing._fixed_rows(refined, 2, 150, P.p, 35)
        bad = min(set(range(630)) - set(rows.tolist()))
        clean = guessing.build_equations

        def corrupted(table, support):
            m = clean(table, support)
            if table.q_int != 2:
                m[bad, 0] = (m[bad, 0] + 1) % P.p
            return m

        monkeypatch.setattr(guessing, "build_equations", corrupted)
        kw = dict(p=P.p, n_max=35, pivot_term=modular_rec.pivot_term, min_points=1)
        with caplog.at_level(logging.INFO, logger="qtspp.guessing"):
            recs = sweep(refined, 2, 5, workers=1, **kw)
        assert fallback_records(caplog) == [
            f"sweep q={q}: nonzero residual, falling back to the nullspace" for q in (3, 4, 5)
        ]
        # each point ends as the nullspace path alone ends on the corrupted system
        want = [outcome(guessing._sweep_one((q, P.p, 35, refined, modular_rec.pivot_term)))
                for q in range(2, 6)]
        assert [r[1] is not None for r in want] == [True, False, False, False]
        assert [r.q_int for r in recs] == [2]
        assert recs[0].coefficients.tolist() == want[0][1]
        skipped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep skipped")]
        assert skipped == [f"sweep skipped q={q}: {w[3]}" for q, w in zip(range(3, 6), want[1:])]

    def test_singular_subsystem_falls_back(self, refined, modular_rec, sweep_recs, monkeypatch, caplog):
        fixed = guessing._fixed_rows

        def duplicated(*args):
            rows = fixed(*args).copy()
            rows[1] = rows[0]
            return rows

        monkeypatch.setattr(guessing, "_fixed_rows", duplicated)
        kw = dict(p=P.p, n_max=35, pivot_term=modular_rec.pivot_term, min_points=1)
        with caplog.at_level(logging.INFO, logger="qtspp.guessing"):
            recs = sweep(refined, 2, 5, workers=1, **kw)
        assert fallback_records(caplog) == [
            f"sweep q={q}: fixed rows are singular, falling back to the nullspace"
            for q in range(2, 6)
        ]
        assert [r.q_int for r in recs] == list(range(2, 6))
        for got, want in zip(recs, sweep_recs[:4]):
            assert got.coefficients.tolist() == want.coefficients.tolist()

    def test_no_rows_without_a_relation(self, caplog):
        # two terms with no relation between them: the rank is 2, not 1, so
        # no rows are fixed and every point takes the nullspace path
        sup = AnsatzSupport(((0, 0, 0), (0, 0, 1)), (0, 0, 1))
        assert guessing._fixed_rows(sup, 2, 4, P.p, 12) is None
        with caplog.at_level(logging.INFO, logger="qtspp.guessing"):
            assert sweep(sup, 2, 4, p=P.p, n_max=12, min_points=0) == []
        assert not fallback_records(caplog)
        assert [r.getMessage() for r in caplog.records] == [
            f"sweep skipped q={q}: trivial nullspace" for q in (2, 3, 4)
        ]


def synthetic_recs(support, pivot, funcs, q_points):
    """Modular recurrences whose coefficients sample known rational functions."""
    recs = []
    for q in q_points:
        coeffs = []
        for f_num, f_den in funcs:
            num = sum(c * pow(q, e, P.p) for e, c in enumerate(f_num)) % P.p
            den = sum(c * pow(q, e, P.p) for e, c in enumerate(f_den)) % P.p
            coeffs.append(num * pow(den, -1, P.p) % P.p)
        recs.append(
            ModularRecurrence(support, q, P.p, np.array(coeffs), pivot, 1)
        )
    return recs


class TestReconstructSymbolic:
    def test_synthetic_round_trip(self):
        # coefficients 1, (q^2+1)/(q-3), (2q-5)/(q-3) should clear to
        # (q-3), (q^2+1), (2q-5) with joint content 1; q=3 is a pole, and a
        # real sweep would have skipped it (pivot normalization fails there).
        # With (q+2) as the third denominator the common denominator is the
        # product (q-3)(q+2).
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0), (0, 1, 0)), (1, 1, 0))
        cases = [
            ([([1], [1]), ([1, 0, 1], [-3, 1]), ([-5, 2], [-3, 1])],
             [[-3, 1], [1, 0, 1], [-5, 2]]),
            ([([1], [1]), ([1, 0, 1], [-3, 1]), ([-5, 2], [2, 1])],
             [[-6, -1, 1], [2, 1, 2, 1], [15, -11, 2]]),
        ]
        q_points = [q for q in range(2, 43) if q != 3]
        for funcs, want in cases:
            recs = synthetic_recs(sup, (0, 0, 0), funcs, q_points)
            sym = reconstruct_symbolic(recs)
            assert sym.coefficients == tuple(IntegerPoly(c) for c in want)
            assert sym.q_points_used == q_points

    def test_constant_coefficients(self):
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0)), (1, 0, 0))
        funcs = [([1], [1]), ([7], [1])]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, range(2, 22))
        sym = reconstruct_symbolic(recs)
        assert sym.coefficients[0] == IntegerPoly([1])
        assert sym.coefficients[1] == IntegerPoly([7])
        assert all(c.degree == 0 for c in sym.coefficients)

    def test_high_degree_denominator(self):
        # 1/(1 + q^70) needs 72 samples; no degree bound stands in the way
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0)), (1, 0, 0))
        den = [1] + [0] * 69 + [1]
        recs = synthetic_recs(sup, (0, 0, 0), [([1], [1]), ([1], den)], range(2, 151))
        sym = reconstruct_symbolic(recs)
        assert sym.coefficients == (IntegerPoly(den), IntegerPoly([1]))

    def test_too_few_points(self):
        # a linear coefficient from two samples leaves no surplus sample
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0)), (1, 0, 0))
        funcs = [([1], [1]), ([0, 1], [1])]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, range(2, 4))
        with pytest.raises(ReconstructionFailed, match="widen the sweep"):
            reconstruct_symbolic(recs)

    def test_rejects_bad_samples(self):
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0), (0, 1, 0)), (1, 1, 0))
        funcs = [([1], [1]), ([1, 0, 1], [-3, 1]), ([-5, 2], [-3, 1])]
        q_points = [q for q in range(2, 43) if q != 3]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, q_points)
        recs[17].coefficients[1] = (recs[17].coefficients[1] + 1) % P.p
        with pytest.raises(ReconstructionFailed, match=r"term \(1, 0, 0\).*q=20\b"):
            reconstruct_symbolic(recs)
        rng = np.random.default_rng(3)
        for r in recs:
            r.coefficients[1:] = rng.integers(0, P.p, size=2)
        with pytest.raises(ReconstructionFailed):
            reconstruct_symbolic(recs)

    def test_corrupt_vandermonde_inverse_is_refused(self, monkeypatch):
        inverse = fieldcore._vandermonde_inverse

        def corrupted(xs, p):
            out = inverse(xs, p).copy()
            out[3, 5] = (out[3, 5] + 1) % p
            return out

        monkeypatch.setattr(fieldcore, "_vandermonde_inverse", corrupted)
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0), (0, 1, 0)), (1, 1, 0))
        funcs = [([1], [1]), ([1, 0, 1], [-3, 1]), ([-5, 2], [-3, 1])]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, [q for q in range(2, 43) if q != 3])
        with pytest.raises(ReconstructionFailed, match=r"term \(0, 0, 0\)"):
            reconstruct_symbolic(recs)

    def test_wrong_lift_trips_the_closing_check(self, monkeypatch):
        calls = []

        def perturbed(r, p):
            a, b = fieldcore.reconstruct_rational_number(r, p)
            calls.append(r)
            return (a + 1, b) if len(calls) == 1 else (a, b)

        monkeypatch.setattr(guessing, "reconstruct_rational_number", perturbed)
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0), (0, 1, 0)), (1, 1, 0))
        funcs = [([1], [1]), ([1, 0, 1], [-3, 1]), ([-5, 2], [-3, 1])]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, [q for q in range(2, 43) if q != 3])
        with pytest.raises(ReconstructionFailed, match=r"disagree with the sample at q=2$"):
            reconstruct_symbolic(recs)

    def test_artefact_trips_plausibility_gate(self, tmp_path, monkeypatch):
        # two coprime near-bound denominators force cleared integers around
        # 32749 * 32719, far above the command line's plausibility bound
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0), (0, 1, 0)), (1, 1, 0))
        funcs = [([1], [1]), ([32717], [32749]), ([32603], [32719])]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, range(2, 22))
        assert reconstruct_symbolic(recs).max_abs_coefficient() > 10**6
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: recs)
        with pytest.raises(WorkbenchError, match="plausibility bound"):
            cli.cmd_reconstruct(cli.PipelineConfig(out_dir=tmp_path))

    def test_real_fingerprint(self, symbolic_rec):
        assert math.gcd(*(c for poly in symbolic_rec.coefficients for c in poly.coeffs)) == 1
        assert symbolic_rec.max_abs_coefficient() <= 43

    def test_bytes_match_the_benchmark_fixture(self, symbolic_rec):
        fixture = ROOT / "perfbench" / "fixtures" / "recurrence-symbolic.json"
        assert recurrence_to_json(symbolic_rec).encode() == fixture.read_bytes()

    def test_specialization_matches_samples(self, symbolic_rec, sweep_recs):
        piv = symbolic_rec.support.terms.index(symbolic_rec.pivot_term)
        for rec in sweep_recs[::24]:
            vals = symbolic_rec.specialize(rec.q_int)
            factor = int(vals[piv])
            assert factor != 0
            want = rec.coefficients * factor % P.p
            assert np.array_equal(vals, want)


class TestSpecialize:
    """One Horner pass over the residue matrix against eval_mod, polynomial by polynomial."""

    SUPPORT = AnsatzSupport(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    POLYS = (
        IntegerPoly([3]),
        IntegerPoly([2**70 + 5, -1, 0, 7]),
        IntegerPoly([-(2**65) - 3, 0, -11]),
        IntegerPoly([0, 0, 0, 0, -(2**64) - 1]),
    )

    @pytest.mark.parametrize("p", [P.p, 3037000493])
    @pytest.mark.parametrize("q", [0, 1, 2, 12345, -7, 3037000493, 2147483647, 2**40 + 3])
    def test_matches_eval_mod(self, p, q):
        rec = SymbolicRecurrence(self.SUPPORT, (0, 0, 0), list(self.POLYS), p)
        want = [c.eval_mod(q % p, p) for c in self.POLYS]
        assert rec.specialize(q).tolist() == want
        assert rec.specialize(q, p).dtype == np.int64
        # the residue matrix is kept per prime: another prime gets its own
        other = P.p + 3037000493 - p
        assert rec.specialize(q, other).tolist() == [
            c.eval_mod(q % other, other) for c in self.POLYS
        ]
        assert rec.specialize(q).tolist() == want

    def test_modular_is_bound_to_its_point(self, modular_rec):
        assert modular_rec.specialize(2) is modular_rec.coefficients
        assert modular_rec.specialize(2, P.p) is modular_rec.coefficients
        with pytest.raises(InvalidInput, match="^recurrence and table prime differ$"):
            modular_rec.specialize(3, 3037000493)
        with pytest.raises(InvalidInput, match="^modular recurrence is bound to q=2, table has q=3"):
            modular_rec.specialize(3, P.p)

    def test_fixture_matches_eval_mod(self, symbolic_rec):
        for q in (0, 2, 151, 98765):
            want = [c.eval_mod(q % P.p, P.p) for c in symbolic_rec.coefficients]
            assert symbolic_rec.specialize(q).tolist() == want

    def test_frozen_with_tuple_coefficients(self):
        rec = SymbolicRecurrence(self.SUPPORT, (0, 0, 0), list(self.POLYS), P.p)
        assert rec.coefficients == self.POLYS
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.coefficients = self.POLYS[:1]
        changed = dataclasses.replace(rec, coefficients=(IntegerPoly([4]), *self.POLYS[1:]))
        assert rec.specialize(5)[0] == 3 and changed.specialize(5)[0] == 4


def same_but_prime(a: SymbolicRecurrence, b: SymbolicRecurrence) -> bool:
    """Equal support, pivot term, coefficient polynomials and q points."""
    return (a.support, a.pivot_term, a.coefficients, a.q_points_used) == (
        b.support, b.pivot_term, b.coefficients, b.q_points_used
    )


class TestLargestModulus:
    #: 3037000493 is the largest prime <= MAX_MODULUS
    BIG_P = 3037000493

    @pytest.fixture(scope="class")
    def big_table_and_guess(self, full_support):
        table = build_table(35, QPoint(2, PrimeModulus(self.BIG_P)))
        return table, guess_modular(table, full_support)

    def test_guess_annihilates_table(self, big_table_and_guess):
        table, rec = big_table_and_guess
        assert len(rec.support) == 440
        assert (rec.nullspace_dim, rec.zero_count()) == (1, 110)
        assert not annihilation_residuals(rec, table).any()

    def test_reconstruction_is_prime_independent(self, big_table_and_guess, symbolic_rec):
        # guess, refine, sweep and reconstruct at the largest modulus: the
        # integer recurrence must be the one found at 2**31 - 1
        _, rec = big_table_and_guess
        recs = sweep(
            refine_support(rec), 2, 150, p=self.BIG_P, n_max=35,
            pivot_term=rec.pivot_term, workers=min(os.cpu_count() or 1, 4),
        )
        sym = reconstruct_symbolic(recs)
        assert (sym.prime, symbolic_rec.prime) == (self.BIG_P, P.p)
        assert same_but_prime(sym, symbolic_rec)
        # one integer coefficient off by 1 fails the comparison
        k = sym.support.terms.index(sym.pivot_term)
        pivot = sym.coefficients[k].coeffs
        coeffs = list(sym.coefficients)
        coeffs[k] = IntegerPoly([pivot[0] + 1, *pivot[1:]])
        assert not same_but_prime(dataclasses.replace(sym, coefficients=coeffs), symbolic_rec)


class TestPersistence:
    def test_modular_round_trip(self, modular_rec, tmp_path):
        path = save_recurrence(modular_rec, tmp_path / "m.json")
        back = load_recurrence(path)
        assert isinstance(back, ModularRecurrence)
        assert back.support == modular_rec.support
        assert back.pivot_term == modular_rec.pivot_term
        assert back.q_int == modular_rec.q_int
        assert np.array_equal(back.coefficients, modular_rec.coefficients)
        assert save_recurrence(back, tmp_path / "m2.json").read_bytes() == path.read_bytes()

    def test_symbolic_round_trip(self, symbolic_rec, tmp_path):
        path = save_recurrence(symbolic_rec, tmp_path / "s.json")
        back = load_recurrence(path)
        assert isinstance(back, SymbolicRecurrence)
        assert back.support == symbolic_rec.support
        assert back.coefficients == symbolic_rec.coefficients
        assert back.q_points_used == symbolic_rec.q_points_used
        assert save_recurrence(back, tmp_path / "s2.json").read_bytes() == path.read_bytes()
