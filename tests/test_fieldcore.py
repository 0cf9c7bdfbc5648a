import logging
import math
import random

import numpy as np
import pytest

from qtspp import fieldcore, guessing
from qtspp.okada import QPoint, okada_slice
from qtspp.fieldcore import (
    DEFAULT_PRIME,
    MAX_MODULUS,
    PoleAtSample,
    DuplicateAbscissa,
    InvalidInput,
    NoFit,
    NoReconstruction,
    PrimeModulus,
    ZeroInverse,
    _echelon_mod,
    _inv_mod,
    _is_prime,
    _poly_divmod,
    _poly_eval,
    det_mod,
    interpolate_poly,
    leading_kernels_mod,
    matvec_mod,
    nullspace_mod,
    rational_reconstruction_bound,
    reconstruct_rational_function,
    reconstruct_rational_number,
)

P = PrimeModulus()

#: The largest prime <= MAX_MODULUS: products of two residues use almost all
#: of the signed 64-bit headroom.
BIG_P = 3037000493


def arr(rows):
    return np.array(rows, dtype=np.int64)


def solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ x = b as the last nested kernel vector of [a | -b]; KeyError if none."""
    n = a.shape[0]
    bordered = np.concatenate([a, (-b % p).reshape(n, 1)], axis=1)
    return leading_kernels_mod(bordered, p)[n + 1][:n]


def matvec_exact(a: np.ndarray, x: np.ndarray, p: int) -> list[int]:
    """a @ x mod p in Python integers, the overflow-free oracle."""
    return [sum(int(u) * int(v) for u, v in zip(row, x)) % p for row in a]


class TestPrimeModulus:
    def test_default(self):
        assert P.p == 2**31 - 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeModulus(2**31 - 3)  # 3 * 715827881...

    def test_primality_is_memoized(self):
        for _ in range(2):
            for bad in (4, 2**31 - 3, MAX_MODULUS + 2):
                with pytest.raises(InvalidInput):
                    PrimeModulus(bad)
            assert PrimeModulus(BIG_P).p == BIG_P
        assert _is_prime.cache_info().hits >= 3

    def test_primality_matches_trial_division(self):
        def oracle(n):
            return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))

        for n in [*range(20001), 2**31 - 1, 3037000493, MAX_MODULUS, MAX_MODULUS + 2]:
            assert _is_prime(n) == oracle(n), n

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
        with pytest.raises(KeyError):
            solve_mod(arr([[1, 1], [2, 2]]), arr([1, 2]), P.p)

    def test_random_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 10, 25):
            while True:
                a = rng.integers(0, P.p, size=(n, n))
                if all(det_mod(a[:k, :k], P.p) for k in range(1, n + 1)):
                    break
            b = rng.integers(0, P.p, size=n)
            x = solve_mod(a, b, P.p)
            got = (a * x[None, :] % P.p).sum(axis=1) % P.p
            assert np.array_equal(got, b)


class TestLeadingKernels:
    def test_skips_non_unit_minors_only(self):
        # the 1x1 leading minor vanishes, the 2x2 one is a unit
        a = arr([[0, 1, 2], [1, 0, 3], [4, 5, 6]])
        rows = leading_kernels_mod(a, P.p)
        assert sorted(rows) == [1, 3]
        assert rows[3].tolist() == [P.p - 3, P.p - 2, 1]


def leading_kernels_unnarrowed(a: np.ndarray, p: int, seen: set | None = None) -> dict:
    """leading_kernels_mod with whole-row updates through an index array: its oracle.

    Adds "offset pivot" to seen when a pivot is not row k, and "rows apart"
    when the rows to update do not form one run.
    """
    seen = set() if seen is None else seen
    rows, cols = a.shape
    m = np.concatenate([a.T % p, np.eye(cols, dtype=np.int64)], axis=1)
    unused = np.ones(cols, dtype=bool)
    out = {}
    last = min(cols - 1, rows)
    for k in range(last + 1):
        if not unused[:k].any():
            out[k + 1] = m[k, rows : rows + k + 1].copy()
        if k == last:
            break
        nz = np.nonzero(unused & (m[:, k] != 0))[0]
        if nz.size == 0:
            break
        piv = nz[0]
        unused[piv] = False
        m[piv] = m[piv] * pow(int(m[piv, k]), -1, p) % p
        rest = nz[1:]
        if piv != k:
            seen.add("offset pivot")
        if rest.size and rest[-1] - rest[0] != rest.size - 1:
            seen.add("rows apart")
        if rest.size:
            m[rest] = (m[rest] - np.outer(m[rest, k], m[piv])) % p
    return out


class TestLeadingKernelsNarrowed:
    """The narrowed updates of leading_kernels_mod against the whole-row elimination."""

    @staticmethod
    def assert_same(a, p, seen=None):
        got, want = leading_kernels_mod(a, p), leading_kernels_unnarrowed(a, p, seen)
        assert list(got) == list(want)
        for n in want:
            assert got[n].tolist() == want[n].tolist(), n

    def test_forced_zero_minors(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(60):
            p = (P.p, 101, 7)[trial % 3]
            rows, cols = (int(x) for x in rng.integers(2, 40, size=2))
            a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.7)
            a[rng.integers(0, rows), : rng.integers(1, cols + 1)] = 0  # a vanishing leading minor
            if rows > 2:
                a[2] = (a[0] + a[1]) % p  # a dependent row: no minor past 3 is a unit
            self.assert_same(a, p, seen)
        assert seen == {"offset pivot", "rows apart"}

    @pytest.mark.parametrize("q, n", [(2, 120), (2**7, 60), (3, 120)])
    def test_entry_matrix_at_small_order(self, q, n):
        self.assert_same(okada_slice(n, QPoint(q, P)), P.p)


def nonsingular_systems(rng, p, sizes, draw):
    """(n-1) x n matrices from draw(shape) whose block a[:, :-1] is a unit."""
    for n in sizes:
        while True:
            a = draw(rng, (n - 1, n)) % p
            if n == 1 or det_mod(a[:, :-1], p):
                yield a
                break


def last_kernel(a: np.ndarray, p: int) -> np.ndarray | None:
    """The sweep's accept rule on nullspace_mod, with the pivot term last.

    The kernel's basis vector when it is exactly one vector and nonzero in
    the last entry, else None (refused).
    """
    basis = nullspace_mod(a, p)
    return basis[0] if basis.shape[0] == 1 and basis[0, -1] != 0 else None


class TestLastKernel:
    @staticmethod
    def uniform(rng, shape):
        return rng.integers(0, P.p, size=shape)

    def test_matches_nullspace(self):
        rng = np.random.default_rng(31)
        for a in nonsingular_systems(rng, P.p, (1, 2, 5, 30, 80), self.uniform):
            x = last_kernel(a, P.p)
            assert x is not None and x.shape == (a.shape[1],) and x[-1] == 1
            assert not any(matvec_exact(a, x, P.p))

    def test_needs_a_row_swap(self):
        # the first pivot sits in the second row
        x = last_kernel(arr([[0, 1, 2], [1, 0, 3]]), P.p)
        assert x.tolist() == [P.p - 3, P.p - 2, 1]

    def test_singular_leading_minor(self):
        assert last_kernel(arr([[1, 2, 3], [2, 4, 5]]), P.p) is None
        # the full matrix has a kernel, but not one with x[-1] = 1
        assert last_kernel(arr([[1, 0, 0], [0, 0, 1]]), P.p) is None


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
            _, pivots, _ = _echelon_mod(a, P.p)
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


def det_exact(a: np.ndarray, p: int) -> int:
    """Independent oracle: Gaussian elimination mod p on Python integers."""
    m = [[int(x) % p for x in row] for row in a]
    n = len(m)
    det = 1
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


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


def echelon_unblocked(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reference: the column-by-column elimination _echelon_mod blocks.

    One outer-product update of the whole trailing block per pivot.
    """
    u = a % p
    rows, cols = u.shape
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        k = len(pivots)
        if k == rows:
            break
        nz = np.nonzero(u[k:, c])[0]
        if nz.size == 0:
            continue
        r = k + int(nz[0])
        if r != k:
            u[[k, r], c:] = u[[r, k], c:]
            det = -det
        piv = int(u[k, c])
        det = det * piv % p
        u[k, c:] = u[k, c:] * pow(piv, -1, p) % p
        below = u[k + 1 :, c:]
        below -= np.outer(below[:, 0], u[k, c:])
        below %= p
        pivots.append(c)
    return u, pivots, det


def staircase_rows(rows: np.ndarray, n_max: int) -> np.ndarray:
    """The equation rows given, in the staircase order the sweep eliminates them in."""
    order = guessing._staircase(n_max)
    return order[np.isin(order, rows)]


def same_echelon(a: np.ndarray, p: int) -> bool:
    u, pivots, det = fieldcore._echelon_mod(a, p)
    ref_u, ref_pivots, ref_det = echelon_unblocked(a, p)
    return np.array_equal(u, ref_u) and pivots == ref_pivots and det == ref_det


def echelon_cases(p: int):
    """(name, matrix) pairs covering one panel, several panels and edge cases."""
    rng = np.random.default_rng(p % 1000)
    for shape in ((7, 12), (40, 40), (30, 41), (41, 41), (329, 330), (330, 630)):
        yield f"random {shape}", rng.integers(0, p, size=shape)
    yield "rows fewer than a panel", rng.integers(0, p, size=(25, 330))
    zeros = rng.integers(0, p, size=(100, 120))
    zeros[:, [39, 40, 79, 80]] = 0
    yield "zero columns on panel boundaries", zeros
    base = rng.integers(0, p, size=(150, 200))
    pairs = rng.integers(0, 150, size=(50, 2))
    mixed = np.vstack([base, (base[pairs[:, 0]] + base[pairs[:, 1]]) % p])
    yield "rank-deficient 200x200", mixed[rng.permutation(200)]
    yield "small entries, frequent row swaps", rng.integers(0, 3, size=(150, 160))
    yield "all entries p - 1", np.full((90, 130), p - 1, dtype=np.int64)
    stairs = rng.integers(0, p, size=(120, 150))
    stairs[np.arange(150) < np.sort(rng.integers(0, 150, size=120))[:, None]] = 0
    yield "leading zero staircase", stairs
    swap = rng.integers(0, p, size=(60, 90))
    swap[[0, 1, 3], 0] = 0  # row 0 swaps with row 2 and keeps a zero multiplier
    yield "swap moves a zero multiplier below the pivot", swap
    idle = rng.integers(0, p, size=(80, 100))
    idle[40:, :40] = 0
    yield "no row below the first panel is active", idle
    last = rng.integers(0, p, size=(70, 100))
    last[40:, :40] = 0
    last[[40, 69], 39] = [1, p - 1]
    yield "only multiplier in the panel's last column", last


class TestBlockedEchelon:
    """_echelon_mod against the unblocked reference, and its fault gates."""

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, BIG_P])
    def test_matches_the_unblocked_reference(self, p):
        for name, a in echelon_cases(p):
            assert same_echelon(a, p), name

    def test_ranks_of_the_edge_cases(self):
        ranks = {name: len(fieldcore._echelon_mod(a, P.p)[1]) for name, a in echelon_cases(P.p)}
        assert ranks["zero columns on panel boundaries"] == 100
        assert ranks["rank-deficient 200x200"] == 150
        assert ranks["all entries p - 1"] == 1

    def test_staircase_cases_skip_rows(self, monkeypatch):
        # the rows below each panel, and the span its trailing update covers
        clean, seen = fieldcore._active_span, []

        def spy(block):
            span = clean(block)
            seen.append((len(block), span))
            return span

        monkeypatch.setattr(fieldcore, "_active_span", spy)
        cases = dict(echelon_cases(P.p))
        fieldcore._echelon_mod(cases["no row below the first panel is active"], P.p)
        assert seen[0] == (40, (0, 0))
        seen.clear()
        # rows 40 and 69 have their only multiplier in column 39
        fieldcore._echelon_mod(cases["only multiplier in the panel's last column"], P.p)
        assert seen[0] == (30, (0, 30))
        seen.clear()
        fieldcore._echelon_mod(cases["leading zero staircase"], P.p)
        assert sum(hi - lo for _, (lo, hi) in seen) < sum(below for below, _ in seen) / 2

    def test_matches_on_the_real_systems(self, table_q2, full_support, refined):
        guess = guessing.build_equations(table_q2, full_support)
        assert guess.shape == (630, 440)
        assert same_echelon(guess, P.p)
        rows = guessing._fixed_rows(refined, 2, 150, P.p, 35)
        table, _ = guessing._point_table(3, P.p, 35)
        m = guessing.build_equations(table, refined)
        assert m[rows].shape == (329, 330)
        assert same_echelon(m[rows], P.p)
        assert same_echelon(m[staircase_rows(rows, 35), ::-1], P.p)

    @staticmethod
    def drop_an_active_row(monkeypatch) -> list:
        """Make _active_span lose its first row once per entry of the returned list.

        A test appends an entry to arm one dropped row; the drop consumes it.
        """
        clean, armed = fieldcore._active_span, []

        def dropping(block):
            lo, hi = clean(block)
            if armed and lo < hi:
                armed.pop()
                return lo + 1, hi
            return lo, hi

        monkeypatch.setattr(fieldcore, "_active_span", dropping)
        return armed

    def test_dropped_row_fails_the_reference(self, monkeypatch):
        a = dict(echelon_cases(P.p))["leading zero staircase"]
        assert same_echelon(a, P.p)
        armed = self.drop_an_active_row(monkeypatch)
        armed.append("one row")
        assert not same_echelon(a, P.p)
        assert not armed

    def test_dropped_row_never_reaches_the_sweep(self, refined, modular_rec, monkeypatch, caplog):
        # one row dropped from the fixed-row elimination: the residual refuses
        # its vector and the whole-system nullspace, eliminated cleanly, decides
        rows = staircase_rows(guessing._fixed_rows(refined, 2, 150, P.p, 35), 35)
        jobs = [(q, P.p, 35, refined, modular_rec.pivot_term) for q in (2, 3, 4)]
        clean = [guessing._sweep_one(job, rows) for job in jobs]
        armed = self.drop_an_active_row(monkeypatch)
        with caplog.at_level(logging.INFO, logger="qtspp.guessing"):
            for job, want in zip(jobs, clean):
                armed.append(job[0])
                got = guessing._sweep_one(job, rows)
                assert not armed
                assert got[1] is not None and np.array_equal(got[1], want[1])
        assert [r.getMessage() for r in caplog.records if r.name == "qtspp.guessing"] == [
            f"sweep q={q}: nonzero residual, falling back to the nullspace" for q in (2, 3, 4)
        ]

    def test_corrupted_product_fails_the_reference(self, corrupt_products):
        a = np.random.default_rng(5).integers(0, P.p, size=(100, 120))
        assert same_echelon(a, P.p)
        corrupt_products()
        assert not same_echelon(a, P.p)

    def test_corrupted_product_never_reaches_the_sweep(
        self, refined, modular_rec, corrupt_products, caplog
    ):
        # the fixed-row certificate is a matvec_mod residual on all 630 rows,
        # which no _mul_mod product enters
        rows = guessing._fixed_rows(refined, 2, 150, P.p, 35)
        jobs = [(q, P.p, 35, refined, modular_rec.pivot_term) for q in (2, 3, 4)]
        clean = [guessing._sweep_one(job, rows) for job in jobs]
        assert all(r[1] is not None for r in clean)
        corrupt_products()
        with caplog.at_level(logging.INFO, logger="qtspp.guessing"):
            for job, want in zip(jobs, clean):
                got = guessing._sweep_one(job, rows)
                assert got[1] is None or np.array_equal(got[1], want[1])
        assert [r.getMessage() for r in caplog.records if r.name == "qtspp.guessing"] == [
            f"sweep q={q}: nonzero residual, falling back to the nullspace" for q in (2, 3, 4)
        ]


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
        # the last system spans several panels of the blocked elimination
        for rows, cols, rank in ((30, 50, 12), (60, 40, 25), (130, 200, 90)):
            left = self.near_p(rng, (rows, rank)).astype(object)
            right = self.near_p(rng, (rank, cols)).astype(object)
            a = (left @ right % BIG_P).astype(np.int64)
            basis = nullspace_mod(a, BIG_P)
            assert len(basis) == cols - rank
            assert not (a.astype(object) @ basis.T.astype(object) % BIG_P).any()
            for x in basis:
                assert not matvec_mod(a, x, BIG_P).any()

    def test_last_kernel_round_trip(self):
        rng = np.random.default_rng(37)
        for a in nonsingular_systems(rng, BIG_P, (2, 7, 40), self.near_p):
            x = last_kernel(a, BIG_P)
            assert x is not None and x[-1] == 1
            assert not any(matvec_exact(a, x, BIG_P))

    def test_det_against_cofactor_expansion(self):
        rng = np.random.default_rng(23)
        for n in range(1, 7):
            a = self.near_p(rng, (n, n))
            assert det_mod(a, BIG_P) == det_cofactor_expansion(a, BIG_P)

    def test_multi_panel_det_against_exact_elimination(self):
        a = self.near_p(np.random.default_rng(43), (100, 100))
        assert det_mod(a, BIG_P) == det_exact(a, BIG_P) != 0

    def test_matvec_matches_exact(self):
        rng = np.random.default_rng(29)
        a = self.near_p(rng, (20, 300))
        x = self.near_p(rng, 300)
        assert matvec_mod(a, x, BIG_P).tolist() == matvec_exact(a, x, BIG_P)

    def test_interpolation_round_trip(self):
        # 149 points, as many as the sweep's q = 2..150
        rng = np.random.default_rng(31)
        coeffs = self.near_p(rng, 149).tolist()
        xs = sorted(set(self.near_p(rng, 400).tolist()))[:149]
        ys = [sum(c * x**e for e, c in enumerate(coeffs)) % BIG_P for x in xs]
        assert interpolate_poly(list(zip(xs, ys)), BIG_P) == coeffs

    def test_array_poly_eval_matches_scalar(self):
        rng = np.random.default_rng(41)
        coeffs = self.near_p(rng, 64).tolist()
        xs = self.near_p(rng, 500)
        values = _poly_eval(coeffs, xs, BIG_P)
        assert values.tolist() == [_poly_eval(coeffs, x, BIG_P) for x in xs.tolist()]
        assert _poly_eval([], xs, BIG_P).tolist() == [0] * 500


def ev(poly, x):
    return _poly_eval(poly, x, P.p)


def trimmed(coeffs):
    coeffs = [c % P.p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def gcd_degree(a, b):
    while b:
        a, b = b, _poly_divmod(a, b, P.p)[1]
    return len(a) - 1


def monic(poly):
    inv = pow(poly[-1], -1, P.p)
    return [c * inv % P.p for c in poly]


class TestInterpolation:
    def test_constant(self):
        poly = interpolate_poly([(1, 1), (2, 1)], P.p)
        assert poly == [1]

    def test_square(self):
        poly = interpolate_poly([(0, 0), (1, 1), (2, 4)], P.p)
        assert poly == [0, 0, 1]

    def test_duplicate(self):
        with pytest.raises(DuplicateAbscissa):
            interpolate_poly([(1, 1), (1, 2)], P.p)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(20):
            deg = rng.randrange(0, 12)
            coeffs = [rng.randrange(P.p) for _ in range(deg + 1)]
            poly = trimmed(coeffs)
            xs = rng.sample(range(P.p), deg + 1)
            pts = [(x, ev(poly, x)) for x in xs]
            back = interpolate_poly(pts, P.p)
            for x, y in pts:
                assert ev(back, x) == y
            assert back == poly or not poly


class TestRationalFunctionReconstruction:
    def test_polynomial_case(self):
        pts = [(x, x) for x in range(1, 6)]
        num, den = reconstruct_rational_function(pts, P.p)
        assert num == [0, 1] and den == [1]

    def test_simple_pole(self):
        # f(x) = 1/(x+1); avoid the pole at x = p-1
        pts = [(x, pow(x + 1, -1, P.p)) for x in range(6)]
        num, den = reconstruct_rational_function(pts, P.p)
        assert num == [1]
        assert den == [1, 1]

    def test_no_fit(self):
        # a (3, 3) function has 7 free coefficients: 7 samples leave no
        # surplus sample to confirm a fit, 10 samples leave three
        rng = random.Random(9)
        num = trimmed([rng.randrange(1, P.p) for _ in range(4)])
        den = trimmed([rng.randrange(1, P.p) for _ in range(3)] + [1])
        xs = rng.sample(range(2, 10**6), 12)
        pts = []
        for x in xs:
            dv = ev(den, x)
            if dv:
                pts.append((x, ev(num, x) * pow(dv, -1, P.p) % P.p))
        with pytest.raises(NoFit):
            reconstruct_rational_function(pts[:7], P.p)
        f_num, f_den = reconstruct_rational_function(pts[:10], P.p)
        assert f_den == den
        assert f_num == num

    def test_needs_surplus_point(self):
        with pytest.raises(NoFit):
            reconstruct_rational_function([(1, 1), (2, 2)], P.p)

    def test_ambiguous_fit(self):
        # x^2 and 4/(5 - x^2) agree at x = +-1, +-2, each with one sample to
        # spare: with two equally good candidates there is no fit
        with pytest.raises(NoFit):
            reconstruct_rational_function([(x, x * x) for x in (-1, 1, -2, 2)], P.p)

    def test_pole_at_sample(self):
        # samples of 1/(x - 5), with a junk value recorded at the pole x = 5
        # itself: the reconstruction must name the offending sample
        pts = [(x, pow(x - 5, -1, P.p)) for x in (1, 2, 3, 4, 6, 7, 8)]
        pts.append((5, 12345))
        with pytest.raises(PoleAtSample) as info:
            reconstruct_rational_function(pts, P.p)
        assert info.value.x == 5

    def test_round_trip_random(self):
        rng = random.Random(13)
        for trial in range(8):
            dn = rng.randrange(0, 11)
            dd = rng.randrange(0, 11)
            num = trimmed([rng.randrange(P.p) for _ in range(dn)] + [1])
            den = trimmed([rng.randrange(P.p) for _ in range(dd)] + [1])
            if gcd_degree(num, den) > 0:
                continue
            xs = rng.sample(range(1, 10**7), 25)
            pts = [
                (x, ev(num, x) * pow(ev(den, x), -1, P.p) % P.p) for x in xs if ev(den, x) != 0
            ]
            f_num, f_den = reconstruct_rational_function(pts, P.p)
            for x, y in pts:
                assert ev(f_num, x) == y * ev(f_den, x) % P.p
            # exact recovery: monic denominator, numerator rescaled to match
            lead_inv = pow(den[-1], -1, P.p)
            assert f_den == monic(den)
            assert f_num == trimmed([c * lead_inv for c in num])


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
