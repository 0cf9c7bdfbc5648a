import random

import numpy as np
import pytest

from qtspp import cli
from qtspp.cofactors import CofactorTable, build_table
from qtspp.fieldcore import IntegerPoly, PrimeModulus, WorkbenchError, nullspace_mod
from qtspp.guessing import (
    AnsatzSupport,
    InsufficientData,
    ModularRecurrence,
    NoRecurrence,
    ReconstructionFailed,
    SymbolicRecurrence,
    TooFewPoints,
    annihilation_residuals,
    apply_recurrence,
    build_equations,
    guess_modular,
    load_recurrence,
    reconstruct_symbolic,
    refine_support,
    save_recurrence,
    sweep,
)
from qtspp.okada import QPoint

P = PrimeModulus()


def qp(q):
    return QPoint(q, P)


def noise_table(n_max, q_int, seed=0):
    rng = random.Random(seed)
    rows = []
    for n in range(1, n_max + 1):
        row = [rng.randrange(P.p) for _ in range(n - 1)] + [1]
        rows.append(np.array(row, dtype=np.int64))
    return CofactorTable(n_max, q_int, P, rows)


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

    def test_subset_keeps_bounds(self):
        sup = AnsatzSupport.full()
        sub = sup.subset([(0, 0, 0), (1, 2, 3)])
        assert sub.bounds == sup.bounds and len(sub) == 2

    def test_shifted_mode(self):
        sup = AnsatzSupport.full(1, 0, 1, shift_n_max=1)
        assert all(len(t) == 4 for t in sup.terms)
        assert sup.max_shift_n == 1 and sup.max_shift_j == 1


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
    def test_annihilates_discovering_table(self, table_q2, modular_rec):
        for n, j in [(1, 1), (7, 3), (20, 20), (35, 1), (35, 35), (25, 13)]:
            assert apply_recurrence(modular_rec, table_q2, n, j).value == 0

    def test_grid_all_zero(self, table_q2, modular_rec):
        grid = annihilation_residuals(modular_rec, table_q2)
        assert not grid.any()

    def test_detects_corruption(self, table_q2, modular_rec):
        bad = table_q2.with_value(20, 11, (table_q2.value(20, 11) + 1) % P.p)
        grid = annihilation_residuals(modular_rec, bad)
        assert grid.any()
        bad_rows = {int(n) for n, _ in np.argwhere(grid != 0)}
        assert bad_rows == {20}  # only the corrupted row can be affected

    def test_q_point_mismatch(self, table_q2, modular_rec):
        other = build_table(35, qp(3))
        with pytest.raises(ValueError):
            apply_recurrence(modular_rec, other, 5, 5)


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

    def test_full_sweep_survives_everywhere(self, sweep_recs):
        assert [r.q_int for r in sweep_recs] == list(range(2, 151))


class TestShiftedMode:
    def test_equation_rows_respect_n_shift(self):
        t = build_table(12, qp(5))
        sup = AnsatzSupport.full(0, 0, 0, shift_n_max=1)
        m = build_equations(t, sup)
        # rows stop at n_max - 1 so that n + 1 stays inside the table
        assert m.shape == (sum(range(1, 12)), 2)

    def test_finds_pure_n_step_relation(self):
        # synthetic table with B(n, j) = q^j: rows repeat, so the relation
        # B(n+1, j) - B(n, j) = 0 spans the nullspace
        q = 6
        rows = [
            np.array([pow(q, j, P.p) for j in range(1, n + 1)], dtype=np.int64)
            for n in range(1, 11)
        ]
        t = CofactorTable(10, q, P, rows)
        sup = AnsatzSupport.full(0, 0, 0, shift_n_max=1)
        rec = guess_modular(t, sup)
        assert rec.nullspace_dim == 1
        assert rec.coefficients.tolist() == [1, P.p - 1]
        grid = annihilation_residuals(rec, t)
        assert not grid.any()


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
        # real sweep would have skipped it (pivot normalization fails there)
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0), (0, 1, 0)), (1, 1, 0))
        funcs = [([1], [1]), ([1, 0, 1], [-3, 1]), ([-5, 2], [-3, 1])]
        q_points = [q for q in range(2, 43) if q != 3]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, q_points)
        sym = reconstruct_symbolic(recs)
        assert sym.coefficients[0] == IntegerPoly([-3, 1])
        assert sym.coefficients[1] == IntegerPoly([1, 0, 1])
        assert sym.coefficients[2] == IntegerPoly([-5, 2])
        assert sym.q_points_used == q_points

    def test_constant_coefficients(self):
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0)), (1, 0, 0))
        funcs = [([1], [1]), ([7], [1])]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, range(2, 22))
        sym = reconstruct_symbolic(recs)
        assert sym.coefficients[0] == IntegerPoly([1])
        assert sym.coefficients[1] == IntegerPoly([7])
        assert all(c.degree == 0 for c in sym.coefficients)

    def test_too_few_points_for_bounds(self):
        sup = AnsatzSupport(((0, 0, 0), (1, 0, 0)), (1, 0, 0))
        funcs = [([1], [1]), ([7], [1])]
        recs = synthetic_recs(sup, (0, 0, 0), funcs, range(2, 8))
        with pytest.raises(ReconstructionFailed):
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
        assert symbolic_rec.joint_content() == 1
        assert symbolic_rec.max_abs_coefficient() <= 43

    def test_specialization_matches_samples(self, symbolic_rec, sweep_recs):
        piv = symbolic_rec.support.terms.index(symbolic_rec.pivot_term)
        for rec in sweep_recs[::24]:
            vals = symbolic_rec.specialize(rec.q_int)
            factor = int(vals[piv])
            assert factor != 0
            want = rec.coefficients * factor % P.p
            assert np.array_equal(vals, want)


class TestLargestModulus:
    def test_guess_annihilates_table(self, full_support):
        # 3037000493 is the largest prime <= MAX_MODULUS
        big = PrimeModulus(3037000493)
        table = build_table(35, QPoint(2, big))
        rec = guess_modular(table, full_support)
        assert len(rec.support) == 440
        assert (rec.nullspace_dim, rec.zero_count()) == (1, 110)
        assert not annihilation_residuals(rec, table).any()


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
