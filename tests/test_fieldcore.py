import math
import random

import numpy as np
import pytest

from qtspp.fieldcore import (
    MAX_MODULUS,
    PoleAtSample,
    DuplicateAbscissa,
    FieldElement,
    NoFit,
    NoReconstruction,
    PolyOverField,
    PrimeModulus,
    SingularMatrix,
    ZeroInverse,
    _inv_mod,
    _is_prime,
    det_mod,
    interpolate_poly,
    matvec_mod,
    nullspace_mod,
    rational_reconstruction_bound,
    reconstruct_rational_function,
    reconstruct_rational_number,
    rref_mod,
    solve_mod,
)

P = PrimeModulus()

#: The largest prime <= MAX_MODULUS: products of two residues use almost all
#: of the signed 64-bit headroom.
BIG_P = 3037000493


def fe(v):
    return FieldElement(v, P)


def arr(rows):
    return np.array(rows, dtype=np.int64)


def matvec_exact(a: np.ndarray, x: np.ndarray, p: int) -> list[int]:
    """a @ x mod p in Python integers, the overflow-free oracle."""
    return [sum(int(u) * int(v) for u, v in zip(row, x)) % p for row in a]


class TestPrimeModulus:
    def test_default(self):
        assert P.p == 2**31 - 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeModulus(2**31 - 3)  # 3 * 715827881...

    def test_rejects_tiny_and_huge(self):
        with pytest.raises(ValueError):
            PrimeModulus(2)
        with pytest.raises(ValueError):
            PrimeModulus(2**62 + 1)

    def test_alternate_prime(self):
        alt = PrimeModulus(2**31 - 19)
        assert alt.p == 2147483629

    def test_multiplicative_order(self):
        assert P.multiplicative_order(2) == 31
        assert pow(3, P.multiplicative_order(3), P.p) == 1
        with pytest.raises(ZeroInverse):
            P.multiplicative_order(0)


class TestModInverse:
    def test_identity(self):
        assert _inv_mod(1, P.p) == 1

    def test_two(self):
        # 2 * 2**30 = 2**31 = p + 1
        assert _inv_mod(2, P.p) == 2**30 == 1073741824

    def test_zero_raises(self):
        with pytest.raises(ZeroInverse):
            _inv_mod(0, P.p)

    def test_involution(self):
        rng = random.Random(1)
        for _ in range(200):
            a = rng.randrange(1, P.p)
            assert _inv_mod(_inv_mod(a, P.p), P.p) == a
            assert a * _inv_mod(a, P.p) % P.p == 1


class TestFieldElement:
    def test_int_interop(self):
        assert fe(10) == 10 + P.p
        assert fe(-1) == np.int64(P.p - 1)
        assert int(fe(P.p + 7)) == fe(7).value == 7
        assert hash(fe(3)) == hash(fe(3 + P.p))
        assert not fe(P.p) and fe(1)
        assert fe(3) != FieldElement(3, PrimeModulus(2**31 - 19))


class TestSolveLinear:
    def test_identity_system(self):
        x = solve_mod(np.eye(3, dtype=np.int64), arr([5, 6, 7]), P.p)
        assert x.tolist() == [5, 6, 7]

    def test_scalar_inverse(self):
        assert solve_mod(arr([[2]]), arr([1]), P.p).tolist() == [1073741824]

    def test_two_by_two(self):
        # x + y = 3, x + 2y = 5 has the unique solution (1, 2)
        assert solve_mod(arr([[1, 1], [1, 2]]), arr([3, 5]), P.p).tolist() == [1, 2]

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            solve_mod(arr([[1, 1], [2, 2]]), arr([1, 2]), P.p)

    def test_random_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 10, 25):
            while True:
                a = rng.integers(0, P.p, size=(n, n))
                if det_mod(a, P.p) != 0:
                    break
            b = rng.integers(0, P.p, size=n)
            x = solve_mod(a, b, P.p)
            got = (a * x[None, :] % P.p).sum(axis=1) % P.p
            assert np.array_equal(got, b)


class TestNullspace:
    def test_full_rank(self):
        assert nullspace_mod(np.eye(4, dtype=np.int64), P.p).shape == (0, 4)

    def test_zero_map(self):
        basis = nullspace_mod(np.zeros((2, 3), dtype=np.int64), P.p)
        assert len(basis) == 3

    def test_rank_one(self):
        basis = nullspace_mod(arr([[1, 1], [2, 2]]), P.p)
        assert len(basis) == 1
        v = basis[0]
        # proportional to (1, p-1), i.e. x1 = -x2
        assert (v[0] + v[1]) % P.p == 0 and v[1] != 0

    def test_rank_nullity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            rows = int(rng.integers(1, 51))
            cols = int(rng.integers(1, 81))
            # random low-ish rank matrices hit nontrivial kernels more often
            r = int(rng.integers(1, min(rows, cols) + 1))
            a = (
                rng.integers(0, P.p, size=(rows, r)) @ np.eye(r, dtype=np.int64)
            ) % P.p
            a = a @ rng.integers(0, P.p, size=(r, cols)) % P.p
            _, pivots = rref_mod(a, P.p)
            basis = nullspace_mod(a, P.p)
            assert len(pivots) + len(basis) == cols
            for x in basis:
                assert not ((a * x[None, :] % P.p).sum(axis=1) % P.p).any()

    def test_reduced_echelon_normalization(self):
        basis = nullspace_mod(
            np.array([[1, 2, 3, 4], [0, 0, 1, 1]], dtype=np.int64), P.p
        )
        free_cols = [1, 3]
        for k, vec in enumerate(basis):
            for idx, f in enumerate(free_cols):
                assert vec[f] == (1 if idx == k else 0)


def det_cofactor_expansion(a: np.ndarray, p: int) -> int:
    """Independent oracle: Laplace expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return int(a[0, 0]) % p
    total = 0
    for j in range(n):
        if a[0, j] == 0:
            continue
        cols = [c for c in range(n) if c != j]
        minor = det_cofactor_expansion(a[1:][:, cols], p)
        term = int(a[0, j]) * minor % p
        total = (total - term if j % 2 else total + term) % p
    return total


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert det_mod(np.eye(n, dtype=np.int64), P.p) == 1

    def test_two_by_two(self):
        assert det_mod(arr([[1, 1], [1, 2]]), P.p) == 1

    def test_repeated_row(self):
        assert det_mod(arr([[1, 1], [2, 2]]), P.p) == 0

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            for _ in range(5):
                a = rng.integers(0, P.p, size=(n, n))
                assert det_mod(a, P.p) == det_cofactor_expansion(a, P.p)


class TestLargestModulus:
    """Elimination with residues near BIG_P, where p**2 nearly fills int64."""

    def test_big_p_is_the_largest_admissible_prime(self):
        assert PrimeModulus(BIG_P).p == BIG_P
        assert not any(_is_prime(m) for m in range(BIG_P + 1, MAX_MODULUS + 1))

    @staticmethod
    def near_p(rng, shape):
        return BIG_P - rng.integers(1, 1000, size=shape)

    def test_solve_round_trip(self):
        rng = np.random.default_rng(17)
        for n in (1, 5, 40):
            a = self.near_p(rng, (n, n))
            b = self.near_p(rng, n)
            x = solve_mod(a, b, BIG_P)
            assert matvec_exact(a, x, BIG_P) == b.tolist()
            assert matvec_mod(a, x, BIG_P).tolist() == b.tolist()

    def test_nullspace_round_trip(self):
        rng = np.random.default_rng(19)
        for rows, cols, rank in ((30, 50, 12), (60, 40, 25)):
            left = self.near_p(rng, (rows, rank))
            right = self.near_p(rng, (rank, cols))
            a = np.array(
                [[sum(int(u) * int(v) for u, v in zip(r, c)) % BIG_P for c in right.T]
                 for r in left],
                dtype=np.int64,
            )
            basis = nullspace_mod(a, BIG_P)
            assert len(basis) == cols - rank
            for x in basis:
                assert not any(matvec_exact(a, x, BIG_P))
                assert not matvec_mod(a, x, BIG_P).any()

    def test_det_against_cofactor_expansion(self):
        rng = np.random.default_rng(23)
        for n in range(1, 7):
            a = self.near_p(rng, (n, n))
            assert det_mod(a, BIG_P) == det_cofactor_expansion(a, BIG_P)

    def test_matvec_matches_exact(self):
        rng = np.random.default_rng(29)
        a = self.near_p(rng, (20, 300))
        x = self.near_p(rng, 300)
        assert matvec_mod(a, x, BIG_P).tolist() == matvec_exact(a, x, BIG_P)


class TestInterpolation:
    def test_constant(self):
        poly = interpolate_poly([(1, 1), (2, 1)], P)
        assert poly.coeffs == [1]

    def test_square(self):
        poly = interpolate_poly([(0, 0), (1, 1), (2, 4)], P)
        assert poly.coeffs == [0, 0, 1]

    def test_duplicate(self):
        with pytest.raises(DuplicateAbscissa):
            interpolate_poly([(1, 1), (1, 2)], P)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(20):
            deg = rng.randrange(0, 12)
            coeffs = [rng.randrange(P.p) for _ in range(deg + 1)]
            poly = PolyOverField(coeffs, P)
            xs = rng.sample(range(P.p), deg + 1)
            pts = [(x, poly(x)) for x in xs]
            back = interpolate_poly(pts, P)
            for x, y in pts:
                assert back(x) == y
            assert back == poly or poly.is_zero()


class TestRationalFunctionReconstruction:
    def test_polynomial_case(self):
        pts = [(x, x) for x in range(1, 6)]
        num, den = reconstruct_rational_function(pts, 1, 1, P)
        assert num.coeffs == [0, 1] and den.coeffs == [1]

    def test_simple_pole(self):
        # f(x) = 1/(x+1); avoid the pole at x = p-1
        pts = [(x, pow(x + 1, -1, P.p)) for x in range(6)]
        num, den = reconstruct_rational_function(pts, 1, 1, P)
        assert num.coeffs == [1]
        assert den.coeffs == [1, 1]

    def test_no_fit(self):
        rng = random.Random(9)
        num = PolyOverField([rng.randrange(1, P.p) for _ in range(4)], P)
        den = PolyOverField([rng.randrange(1, P.p) for _ in range(3)] + [1], P)
        xs = rng.sample(range(2, 10**6), 12)
        pts = []
        for x in xs:
            dv = den(x)
            if dv:
                pts.append((x, num(x) * pow(dv, -1, P.p) % P.p))
        with pytest.raises(NoFit):
            reconstruct_rational_function(pts[:10], 1, 1, P)

    def test_needs_surplus_point(self):
        with pytest.raises(ValueError):
            reconstruct_rational_function([(1, 1), (2, 2), (3, 3)], 1, 1, P)

    def test_pole_at_sample(self):
        # samples of 1/(x - 5), with a junk value recorded at the pole x = 5
        # itself: the reconstruction must name the offending sample
        pts = [(x, pow(x - 5, -1, P.p)) for x in (1, 2, 3, 4, 6, 7, 8)]
        pts.append((5, 12345))
        with pytest.raises(PoleAtSample) as info:
            reconstruct_rational_function(pts, 2, 2, P)
        assert info.value.x == 5

    def test_round_trip_random(self):
        rng = random.Random(13)
        for trial in range(8):
            dn = rng.randrange(0, 11)
            dd = rng.randrange(0, 11)
            num = PolyOverField([rng.randrange(P.p) for _ in range(dn)] + [1], P)
            den = PolyOverField([rng.randrange(P.p) for _ in range(dd)] + [1], P)
            g = num.gcd(den)
            if g.degree > 0:
                continue
            xs = rng.sample(range(1, 10**7), 25)
            pts = [
                (x, num(x) * pow(den(x), -1, P.p) % P.p) for x in xs if den(x) != 0
            ]
            f_num, f_den = reconstruct_rational_function(pts, 10, 10, P)
            for x, y in pts:
                assert f_num(x) == y * f_den(x) % P.p
            # exact recovery: monic denominator, numerator rescaled to match
            lead_inv = pow(den.leading_coefficient(), -1, P.p)
            assert f_den == den.monic()
            assert f_num == num.scale(lead_inv)


class TestRationalNumberReconstruction:
    def test_small_integer(self):
        assert reconstruct_rational_number(5, P.p) == (5, 1)

    def test_two_thirds(self):
        r = 2 * _inv_mod(3, P.p)
        assert reconstruct_rational_number(r, P.p) == (2, 3)

    def test_negative(self):
        assert reconstruct_rational_number(-7, P.p) == (-7, 1)

    def test_counterexample_residue(self):
        # oracle: scan every admissible denominator for a representable pair
        bound = rational_reconstruction_bound(P.p)

        def representable(residue):
            for b in range(1, bound + 1):
                v = residue * b % P.p
                if v > P.p // 2:
                    v -= P.p
                if abs(v) <= bound and math.gcd(v, b) == 1:
                    return True
            return False

        # floor(p/2) + 7 itself is 13/2 mod p, so it does reconstruct; the
        # first residue at or above that anchor the scan oracle certifies as
        # outside every class |a|, b <= floor(sqrt(p/2)) is this one
        assert representable(P.p // 2 + 7)
        assert reconstruct_rational_number(P.p // 2 + 7, P.p) == (13, 2)
        r = 1073758208
        assert not representable(r)
        with pytest.raises(NoReconstruction):
            reconstruct_rational_number(r, P.p)

    def test_exhaustive_small_rationals(self):
        # every reduced a/b with |a|, b <= 1000 round-trips through its residue
        bound = 1000
        p = P.p
        for b in range(1, bound + 1):
            inv_b = pow(b, -1, p)
            for a in range(-bound, bound + 1):
                if math.gcd(a, b) != 1:
                    continue
                got = reconstruct_rational_number(a * inv_b, P.p)
                assert got == (a, b)
