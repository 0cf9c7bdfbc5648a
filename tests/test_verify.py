import random

import numpy as np
import pytest

from qtspp.cofactors import build_table
from qtspp.fieldcore import IntegerPoly, PrimeModulus
from qtspp.guessing import SymbolicRecurrence
from qtspp.okada import QPoint, nice_ratio, okada_entry, qtspp_orbit_product
from qtspp.verify import (
    OrbitPoset,
    SeriesTruncationTooShort,
    SizeLimit,
    _ct_kernel_series,
    brute_force_qtspp,
    check_extended,
    check_leading_factor_vanishing,
    check_normalization,
    check_okada,
    check_soichi,
    cofactor_rows_q1_exact,
    ct_check_q1,
    select_q_points,
)

P = PrimeModulus()


def qp(q):
    return QPoint(q, P)


class TestOrbitPoset:
    def test_element_count(self):
        for n in range(6):
            poset = OrbitPoset.build(n)
            assert len(poset.elements) == n * (n + 1) * (n + 2) // 6

    def test_order_axioms(self):
        poset = OrbitPoset.build(3)
        els = poset.elements
        for a in els:
            assert OrbitPoset.leq(a, a)
        for a in els:
            for b in els:
                if OrbitPoset.leq(a, b) and OrbitPoset.leq(b, a):
                    assert a == b
                for c in els:
                    if OrbitPoset.leq(a, b) and OrbitPoset.leq(b, c):
                        assert OrbitPoset.leq(a, c)

    def test_down_sets(self):
        poset = OrbitPoset.build(2)
        below = poset.down_sets()
        sizes = sorted(len(s) for s in below)
        assert sizes == [1, 2, 3, 4]  # the n=2 orbit poset is a chain


class TestBruteForce:
    def test_n1(self):
        assert brute_force_qtspp(1) == IntegerPoly([1, 1])

    def test_n2_chain(self):
        assert brute_force_qtspp(2) == IntegerPoly([1, 1, 1, 1, 1])

    def test_counts(self):
        assert [brute_force_qtspp(n)(1) for n in range(5)] == [1, 2, 5, 16, 66]

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            brute_force_qtspp(5)

    def test_matches_product_formula(self):
        qs = select_q_points(30, 4, P, seed=5150)
        for n in range(1, 5):
            poly = brute_force_qtspp(n)
            for q in qs:
                want = qtspp_orbit_product(n, qp(q)).value
                assert poly.eval_mod(q % P.p, P.p) == want


class TestIdentityChecks:
    def test_soichi_vacuous(self):
        t = build_table(1, qp(5))
        rep = check_soichi(t, 1)
        assert rep.passed and rep.checks == 0

    def test_soichi_passes(self):
        tables = [build_table(12, qp(q)) for q in (3, 5, 103)]
        rep = check_soichi(tables, 12)
        assert rep.passed
        assert rep.checks == 3 * sum(n - 1 for n in range(2, 13))

    def test_soichi_detects_corruption(self):
        t = build_table(10, qp(7))
        bad = t.with_value(6, 2, (t.value(6, 2) + 1) % P.p)
        rep = check_soichi(bad, 10)
        assert not rep.passed
        assert {f["n"] for f in rep.failures} == {6}

    def test_okada_row_one(self):
        for q in (3, 5, 19):
            t = build_table(1, qp(q))
            rep = check_okada(t, 1)
            assert rep.passed
            # both sides are the (1,1) entry, the squared binomial
            assert okada_entry(1, 1, qp(q)) == nice_ratio(1, qp(q))

    def test_okada_unit_point(self):
        t = build_table(5, qp(1))
        rep = check_okada(t, 5)
        assert rep.passed

    def test_okada_detects_corruption(self):
        t = build_table(10, qp(3))
        bad = t.with_value(8, 8, 0)  # break normalization, hence the sum
        rep = check_okada(bad, 10)
        assert not rep.passed

    def test_normalization(self):
        t = build_table(9, qp(23))
        assert check_normalization(t).passed
        bad = t.with_value(4, 4, 2)
        rep = check_normalization(bad)
        assert not rep.passed and rep.failures[0]["n"] == 4

    def test_normalization_single_row(self):
        assert check_normalization(build_table(1, qp(3))).passed


class TestLargestModulus:
    def test_identity_suite(self):
        # 3037000493 is the largest prime <= MAX_MODULUS
        big = PrimeModulus(3037000493)
        qs = select_q_points(3, 30, big)
        tables = [build_table(30, QPoint(q, big)) for q in qs]
        for rep in (
            check_soichi(tables, 30),
            check_okada(tables, 30),
            check_normalization(tables),
        ):
            assert rep.passed and rep.checks > 0, rep.summary_line()


class TestSelectQPoints:
    def test_deterministic(self):
        a = select_q_points(8, 40, P)
        b = select_q_points(8, 40, P)
        assert a == b and len(set(a)) == 8

    def test_all_admissible(self):
        for q in select_q_points(12, 50, P, seed=99):
            assert P.multiplicative_order(q % P.p) >= 200


class TestExtended:
    def test_annihilation_small(self, symbolic_rec):
        rep = check_extended(symbolic_rec, 7, P.p, 45)
        assert rep.passed and rep.checks == 45 * 23

    def test_fresh_points_beyond_sweep(self, symbolic_rec):
        # q points never used in the discovery sweep
        for q in (151, 155, 160):
            assert q not in symbolic_rec.q_points_used
            assert check_extended(symbolic_rec, q, P.p, 40).passed

    def test_random_recurrence_fails(self, symbolic_rec):
        rng = random.Random(8)
        fake = SymbolicRecurrence(
            support=symbolic_rec.support,
            pivot_term=symbolic_rec.pivot_term,
            coefficients=[
                IntegerPoly([rng.randrange(-9, 10) for _ in range(3)] + [1])
                for _ in symbolic_rec.coefficients
            ],
            prime=P.p,
            q_points_used=[],
        )
        rep = check_extended(fake, 7, P.p, 30)
        assert not rep.passed
        assert len(rep.failures) > 100


class TestLeadingFactor:
    def test_negative_control(self, symbolic_rec):
        rng = random.Random(21)
        fake = SymbolicRecurrence(
            support=symbolic_rec.support,
            pivot_term=symbolic_rec.pivot_term,
            coefficients=[
                IntegerPoly([rng.randrange(1, 50)]) for _ in symbolic_rec.coefficients
            ],
            prime=P.p,
            q_points_used=[],
        )
        rep = check_leading_factor_vanishing(fake, trials=30)
        assert not rep.passed


class TestConstantTermRoute:
    def test_exact_rows_match_modular(self):
        rows = cofactor_rows_q1_exact(8)
        t = build_table(8, qp(1))
        for n in range(1, 9):
            for j in range(1, n + 1):
                frac = rows[n - 1][j - 1]
                want = frac.numerator * pow(frac.denominator, -1, P.p) % P.p
                assert t.value(n, j) == want

    def test_exact_small(self):
        rep = ct_check_q1(12)
        assert rep.passed and rep.details["mode"] == "exact-rational"
        assert rep.checks == sum(n for n in range(1, 13))

    def test_modular_matches_exact(self):
        t = build_table(14, qp(1))
        a = ct_check_q1(14)
        b = ct_check_q1(14, table=t)
        assert a.passed and b.passed

    def test_agreement_under_fault(self):
        t = build_table(10, qp(1))
        bad = t.with_value(7, 3, (t.value(7, 3) + 1) % P.p)
        direct_s = check_soichi(bad, 10)
        direct_o = check_okada(bad, 10)
        ct = ct_check_q1(10, table=bad)
        assert not ct.passed
        assert not (direct_s.passed and direct_o.passed)
        # the constant-term residuals are the same sums: same failing rows
        ct_rows = {f["n"] for f in ct.failures}
        direct_rows = {f["n"] for f in direct_s.failures} | {
            f["n"] for f in direct_o.failures
        }
        assert ct_rows == direct_rows

    def test_requires_unit_table(self):
        t = build_table(5, qp(3))
        with pytest.raises(ValueError):
            ct_check_q1(5, table=t)

    def test_truncation_guard(self):
        with pytest.raises(SeriesTruncationTooShort):
            _ct_kernel_series(5, 3)


class TestReportSerialization:
    def test_round_trip_and_determinism(self, tmp_path):
        t = build_table(6, qp(5))
        rep = check_soichi(t, 6)
        p1 = rep.save(tmp_path / "r1.json")
        rep2 = check_soichi(t, 6)
        p2 = rep2.save(tmp_path / "r2.json")
        # elapsed differs between runs but the serialized form must not
        assert p1.read_bytes() == p2.read_bytes()
        assert rep.summary_line().startswith("PASS soichi")
