import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qtspp.cofactors import PADIC_PRECISION
from qtspp.fieldcore import PrimeModulus
from qtspp.okada import (
    DegenerateDenominator,
    QPoint,
    entry_matrix,
    has_admissible_order,
    nice_ratio,
    nice_ratio_q1_exact,
    okada_entry,
    okada_entry_q1,
    okada_slice,
    qbinom,
    qtspp_orbit_product,
)

P = PrimeModulus()
RNG = random.Random(20260809)
SOME_Q = [2, 3, 5, 17] + [RNG.randrange(2, P.p) for _ in range(4)]


def qp(q):
    return QPoint(q, P)


class TestQPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            QPoint(0, P)
        with pytest.raises(ValueError):
            QPoint(P.p, P)  # reduces to 0

    def test_unit_flag(self):
        assert qp(1).is_unit and not qp(2).is_unit

    def test_powers(self):
        q = qp(7)
        pw = q.qpow(20)
        assert pw[0] == 1 and pw[1] == 7
        assert int(pw[20]) == pow(7, 20, P.p)

    def test_order(self):
        assert qp(2).order == 31
        assert qp(1).order == 1


class TestQBinom:
    def test_empty_product(self):
        for q in SOME_Q:
            for a in (0, 3, 17):
                assert qbinom(a, 0, qp(q)) == 1

    def test_out_of_range(self):
        assert qbinom(3, -1, qp(5)) == 0
        assert qbinom(3, 4, qp(5)) == 0

    def test_one_plus_q(self):
        for q in SOME_Q:
            assert qbinom(2, 1, qp(q)) == (1 + q) % P.p

    def test_four_choose_two(self):
        # (1+q^2)(1+q+q^2) expanded by hand: 1 + q + 2q^2 + q^3 + q^4
        for q in SOME_Q:
            want = (1 + q + 2 * q**2 + q**3 + q**4) % P.p
            assert qbinom(4, 2, qp(q)) == want

    def test_q1_is_binomial(self):
        for a in range(12):
            for b in range(a + 1):
                assert qbinom(a, b, qp(1)) == math.comb(a, b) % P.p

    def test_symmetry(self):
        for q in (2, 3, 23, SOME_Q[-1]):
            qpt = qp(q)
            for a in range(41):
                for b in range(a + 1):
                    assert qbinom(a, b, qpt) == qbinom(a, a - b, qpt)

    def test_q_pascal(self):
        for q in (2, 7, SOME_Q[-2]):
            qpt = qp(q)
            for a in range(1, 41):
                for b in range(a + 1):
                    lhs = qbinom(a, b, qpt)
                    rhs = (
                        qbinom(a - 1, b - 1, qpt)
                        + pow(q, b, P.p) * qbinom(a - 1, b, qpt)
                    ) % P.p
                    assert lhs == rhs

    def test_small_order_point_still_defined(self):
        # q = 2 has order 31, so the factor-ratio form would divide by zero;
        # the polynomial value must still match the exact integer reduced
        q2 = qp(2)
        exact = 1
        a, b = 40, 20
        # exact Gaussian binomial at q=2 via the product of integers
        num = den = 1
        for k in range(b):
            num *= 2 ** (a - k) - 1
            den *= 2 ** (b - k) - 1
        exact = num // den
        assert qbinom(a, b, q2) == exact % P.p


class TestOkadaEntry:
    def test_corner_entries(self):
        for q in SOME_Q:
            qpt = qp(q)
            assert okada_entry(1, 1, qpt) == (1 + q) ** 2 % P.p
            assert okada_entry(1, 2, qpt) == q**2 * (1 + q + q**2) % P.p
            assert okada_entry(2, 1, qpt) == (q**2 * (1 + q) - 1) % P.p

    def test_q1_exact_values(self):
        assert okada_entry_q1(1, 1) == 4
        assert okada_entry_q1(1, 2) == 3
        assert okada_entry_q1(2, 1) == 1

    def test_q1_consistency(self):
        qpt = qp(1)
        for i in range(1, 41):
            for j in range(1, 41):
                assert okada_entry(i, j, qpt) == okada_entry_q1(i, j) % P.p

    def test_slice_matches_entry(self):
        for q in (5, SOME_Q[-1]):
            qpt = qp(q)
            sl = okada_slice(9, qpt)
            for i in range(1, 10):
                for j in range(1, 10):
                    assert okada_entry(i, j, qpt) == sl[i - 1, j - 1]

    def test_prime_power_matrix_reduces_to_slice(self):
        # the Python-int path (mod p**PADIC_PRECISION) and the int64 path
        # (mod p) are the same code; their images mod p must agree
        for q in (1, 2, 3, 2**7):
            big = entry_matrix(60, q, P.p**PADIC_PRECISION)
            assert big.dtype == object and okada_slice(60, qp(q)).dtype == np.int64
            assert (big % P.p).tolist() == okada_slice(60, qp(q)).tolist()

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            okada_entry(0, 1, qp(3))
        with pytest.raises(ValueError):
            okada_entry_q1(1, 0)


class TestOrbitProduct:
    def test_empty(self):
        for q in SOME_Q:
            assert qtspp_orbit_product(0, qp(q)) == 1

    def test_q1_small_counts(self):
        assert qtspp_orbit_product(2, qp(1)) == 5
        assert qtspp_orbit_product(3, qp(1)) == 16

    def test_exact_counts(self):
        assert [qtspp_orbit_product(n, qp(1)) for n in range(6)] == [1, 2, 5, 16, 66, 352]

    def test_matches_triple_product(self):
        # direct factor-by-factor oracle against the aggregated evaluation
        for q in (3, 5, SOME_Q[-1]):
            qpt = qp(q)
            for n in (1, 2, 4, 7):
                acc = 1
                for i in range(1, n + 1):
                    for j in range(i, n + 1):
                        for k in range(j, n + 1):
                            num = (1 - pow(q, i + j + k - 1, P.p)) % P.p
                            den = (1 - pow(q, i + j + k - 2, P.p)) % P.p
                            acc = acc * num % P.p * pow(den, -1, P.p) % P.p
                assert qtspp_orbit_product(n, qpt) == acc

    def test_degenerate_point(self):
        # q = p - 1 has order 2, so 1 - q^2 = 0 appears in a denominator
        with pytest.raises(DegenerateDenominator):
            qtspp_orbit_product(2, qp(P.p - 1))


class TestNiceRatio:
    def test_layer_one(self):
        for q in SOME_Q:
            qpt = qp(q)
            assert nice_ratio(1, qpt) == okada_entry(1, 1, qpt)

    def test_layer_two_formula(self):
        # hand telescoping: ((1 - q^5) / (1 - q^2))^2
        for q in (3, 5, 11, SOME_Q[-1]):
            v = (1 - pow(q, 5, P.p)) * pow((1 - q * q) % P.p, -1, P.p) % P.p
            assert nice_ratio(2, qp(q)) == v * v % P.p

    def test_q1_values(self):
        assert nice_ratio(1, qp(1)) == 4
        want = 25 * pow(4, -1, P.p) % P.p
        assert nice_ratio(2, qp(1)) == want
        assert nice_ratio_q1_exact(2) == Fraction(25, 4)

    @staticmethod
    def double_product_exponents(n):
        """Exponent of 1 - q**m in prod over i <= j <= n of the squared layer factors."""
        e = Counter()
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                e[i + j + n - 1] += 2
                e[i + j + n - 2] -= 2
        return e

    def test_matches_double_product(self):
        # the squared double product over i <= j, factor by factor, no telescoping
        for q in (3, 5, SOME_Q[-1]):
            for n in (1, 2, 5, 12, 30):
                acc = 1
                for i in range(1, n + 1):
                    for j in range(i, n + 1):
                        num = (1 - pow(q, i + j + n - 1, P.p)) % P.p
                        den = (1 - pow(q, i + j + n - 2, P.p)) % P.p
                        acc = acc * num % P.p * pow(den, -1, P.p) % P.p
                assert nice_ratio(n, qp(q)) == acc * acc % P.p

    def test_degenerate_rule_at_small_order(self):
        # q = 2 has order 31: the layer divides by 1 - q**(n+2i-2), i <= n,
        # and nowhere else; elsewhere the value is that of the rational
        # function, read off the double product with equal factors cancelled
        assert qp(2).order == 31
        raised = []
        for n in range(1, 40):
            if any((n + 2 * i - 2) % 31 == 0 for i in range(1, n + 1)):
                raised.append(n)
                with pytest.raises(DegenerateDenominator):
                    nice_ratio(n, qp(2))
                continue
            want = 1
            for m, k in self.double_product_exponents(n).items():
                want = want * pow((1 - pow(2, m, P.p)) % P.p, k, P.p) % P.p
            assert nice_ratio(n, qp(2)) == want
        # n + 2i - 2 runs over n, n + 2, ..., 3n - 2: odd n reach 31 (then 93), even n 62
        assert raised == sorted([*range(11, 40, 2), *range(22, 40, 2)])

    def test_telescoping(self):
        for q in (3, 7, SOME_Q[-2]):
            qpt = qp(q)
            acc = 1
            for n in range(1, 16):
                acc = acc * nice_ratio(n, qpt) % P.p
                sq = qtspp_orbit_product(n, qpt)
                assert acc == sq * sq % P.p


class TestGeneratingFunctionIdentity:
    def test_q1_kernel_coefficients(self):
        # [x^j] x(2-x)(1-x)^(-(i+1)) equals the smooth part of the entry,
        # via an independent exact-rational series expansion
        jmax = 30
        for i in range(1, 31):
            # expand (1-x)^(-(i+1)) by series division over Q
            inv = [Fraction(1)]
            denom = [Fraction(math.comb(i + 1, k) * (-1) ** k) for k in range(i + 2)]
            for m in range(1, jmax + 1):
                acc = Fraction(0)
                for k in range(1, min(m, len(denom) - 1) + 1):
                    acc += denom[k] * inv[m - k]
                inv.append(-acc)
            for j in range(1, jmax + 1):
                coeff = 2 * inv[j - 1] - (inv[j - 2] if j >= 2 else 0)
                want = math.comb(i + j - 2, i - 1) + math.comb(i + j - 1, i)
                assert coeff == want


class TestAdmissibility:
    def test_small_order_rejected(self):
        assert not has_admissible_order(2, P, 35)
        assert not has_admissible_order(P.p - 1, P, 2)

    def test_large_order_accepted(self):
        assert has_admissible_order(3, P, 35)
        assert has_admissible_order(151, P, 200)

    def test_unit_always_fine(self):
        assert has_admissible_order(1, P, 1000)
