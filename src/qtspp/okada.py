"""Matrix entries and product formulas for the q-TSPP determinant identity.

Everything here is evaluated at a numeric q point, reduced modulo a prime:
Gaussian binomials, the determinant's matrix entries a(i, j) (one at a
time, or the whole n x n matrix as an int64 residue array), the orbit
counting product of totally symmetric plane partitions, and the squared
per-layer ratio that the certified determinant telescopes to.

Gaussian binomials are computed through the q-Pascal recurrence, which
evaluates the underlying polynomial and is therefore well defined for every
q point, even one of small multiplicative order (2 has order 31 modulo
2**31 - 1).  The two product formulas genuinely divide by factors 1 - q**m
and raise DegenerateDenominator on q points whose order makes a denominator
factor vanish; callers pick q points of large order for those checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fieldcore import FieldElement, PrimeModulus, WorkbenchError, _inv_mod


class DegenerateDenominator(WorkbenchError):
    """A product-formula denominator factor 1 - q**m vanished mod p."""


class QPoint:
    """A numeric substitution q >= 1 together with its modular image.

    Caches powers of q and the q-Pascal triangle of Gaussian binomials; both
    grow on demand and are only ever appended to, so sharing a QPoint across
    threads of one process is safe in practice (each worker process of a
    sweep builds its own anyway).
    """

    __slots__ = ("q_int", "modulus", "reduced", "is_unit", "_order", "_qpow", "_tri")

    def __init__(self, q_int: int, modulus: PrimeModulus | None = None):
        if q_int < 1:
            raise ValueError(f"q must be a positive integer, got {q_int}")
        self.modulus = modulus if modulus is not None else PrimeModulus()
        self.q_int = q_int
        self.reduced = q_int % self.modulus.p
        if self.reduced == 0:
            raise ValueError(f"q={q_int} reduces to 0 mod {self.modulus.p}")
        self.is_unit = q_int == 1
        self._order: int | None = None
        self._qpow = np.array([1, self.reduced], dtype=np.int64)
        self._tri: np.ndarray | None = None

    @property
    def order(self) -> int:
        """Multiplicative order of q mod p (1 for the q = 1 point)."""
        if self._order is None:
            self._order = self.modulus.multiplicative_order(self.reduced)
        return self._order

    def qpow(self, max_exp: int) -> np.ndarray:
        """Array of q**e mod p for e = 0..max_exp (cached, do not mutate)."""
        if max_exp >= len(self._qpow):
            p = self.modulus.p
            old = self._qpow
            new_len = max(max_exp + 1, 2 * len(old))
            out = np.empty(new_len, dtype=np.int64)
            out[: len(old)] = old
            acc = int(old[-1])
            for e in range(len(old), new_len):
                acc = acc * self.reduced % p
                out[e] = acc
            self._qpow = out
        return self._qpow[: max_exp + 1]

    def _triangle(self, a_max: int) -> np.ndarray:
        """Lower-triangular table of Gaussian binomials, rows 0..a_max.

        Row a holds qbinom(a, b) for b = 0..a via the q-Pascal recurrence
        qbinom(a, b) = qbinom(a-1, b-1) + q**b * qbinom(a-1, b).
        """
        if self._tri is None or self._tri.shape[0] <= a_max:
            p = self.modulus.p
            size = max(a_max + 1, 8)
            if self._tri is not None:
                size = max(size, 2 * self._tri.shape[0])
            tri = np.zeros((size, size), dtype=np.int64)
            start = 1
            if self._tri is not None:
                done = self._tri.shape[0]
                tri[:done, :done] = self._tri
                start = done
            else:
                tri[0, 0] = 1
            qb = self.qpow(size)
            for a in range(start, size):
                tri[a, 0] = 1
                tri[a, a] = 1
                if a >= 2:
                    tri[a, 1:a] = (tri[a - 1, 0 : a - 1] + qb[1:a] * tri[a - 1, 1:a]) % p
            self._tri = tri
        return self._tri

    def __repr__(self):
        return f"QPoint(q={self.q_int} mod {self.modulus.p})"


def qbinom(a: int, b: int, qpt: QPoint) -> FieldElement:
    """Gaussian binomial [a choose b]_q at the q point; 0 when b < 0 or b > a.

    Computed as the value of the Gaussian binomial polynomial (q-Pascal
    recurrence), so it is defined for every q point; at q = 1 it is the
    ordinary binomial coefficient reduced mod p.
    """
    if a < 0:
        raise ValueError("upper index must be nonnegative")
    mod = qpt.modulus
    if b < 0 or b > a:
        return FieldElement(0, mod)
    if qpt.is_unit:
        return FieldElement(math.comb(a, b) % mod.p, mod)
    tri = qpt._triangle(a)
    return FieldElement(int(tri[a, b]), mod)


def okada_entry(i: int, j: int, qpt: QPoint) -> FieldElement:
    """Matrix entry a(i, j) of the determinant under certification."""
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    p = qpt.modulus.p
    q = qpt.reduced
    v = (int(qbinom(i + j - 2, i - 1, qpt)) + q * int(qbinom(i + j - 1, i, qpt))) % p
    v = v * int(qpt.qpow(i + j - 1)[i + j - 1]) % p
    if i == j:
        v = (v + 1 + int(qpt.qpow(i)[i])) % p
    if i == j + 1:
        v = (v - 1) % p
    return FieldElement(v, qpt.modulus)


def okada_entry_q1(i: int, j: int) -> int:
    """Exact integer matrix entry at q = 1."""
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    v = math.comb(i + j - 2, i - 1) + math.comb(i + j - 1, i)
    if i == j:
        v += 2
    if i == j + 1:
        v -= 1
    return v


def okada_slice(n: int, qpt: QPoint) -> np.ndarray:
    """The n x n entry matrix, a[i-1, j-1] = a(i, j) mod p, one pass per row."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    p = qpt.modulus.p
    q = qpt.reduced
    a = np.zeros((n, n), dtype=np.int64)
    if n > 0:
        tri = qpt._triangle(2 * n - 1)
        pw = qpt.qpow(2 * n)
        for i in range(1, n + 1):
            # qbinom(i+j-2, i-1) and qbinom(i+j-1, i) for j = 1..n
            b1 = tri[i - 1 : i + n - 1, i - 1]
            b2 = tri[i : i + n, i]
            row = pw[i : i + n] * ((b1 + q * b2) % p) % p
            a[i - 1] = row
        idx = np.arange(n)
        a[idx, idx] = (a[idx, idx] + 1 + pw[1 : n + 1]) % p
        if n > 1:
            a[idx[1:], idx[:-1]] = (a[idx[1:], idx[:-1]] - 1) % p
    return a


# ---------------------------------------------------------------------------
# Product formulas
# ---------------------------------------------------------------------------


def _orbit_factor_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicities of numerator / denominator factors of the orbit product.

    Factor index m means 1 - q**m (or the integer m at q = 1); numerator
    exponents are i+j+k-1 and denominator exponents i+j+k-2 over sorted
    triples 1 <= i <= j <= k <= n, counted with a difference array over the
    contiguous k ranges.
    """
    num = np.zeros(3 * n + 2, dtype=np.int64)
    den = np.zeros(3 * n + 2, dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            # k runs j..n
            num[i + 2 * j - 1] += 1
            num[i + j + n] -= 1
            den[i + 2 * j - 2] += 1
            den[i + j + n - 1] -= 1
    return np.cumsum(num), np.cumsum(den)


def _product_of_factors(
    num_counts: np.ndarray, den_counts: np.ndarray, qpt: QPoint
) -> FieldElement:
    """prod (1-q**m)**num[m] / prod (1-q**m)**den[m] at a q >= 2 point."""
    p = qpt.modulus.p
    top = max(len(num_counts), len(den_counts)) - 1
    pw = qpt.qpow(top)
    order = qpt.order
    numerator = 1
    denominator = 1
    for m in range(1, top + 1):
        nc = int(num_counts[m]) if m < len(num_counts) else 0
        dc = int(den_counts[m]) if m < len(den_counts) else 0
        if nc == 0 and dc == 0:
            continue
        base = (1 - int(pw[m])) % p
        if base == 0:
            if dc > 0:
                raise DegenerateDenominator(
                    f"1 - q**{m} = 0 mod p at q={qpt.q_int} (order {order})"
                )
            return FieldElement(0, qpt.modulus)
        if nc:
            numerator = numerator * pow(base, nc, p) % p
        if dc:
            denominator = denominator * pow(base, dc, p) % p
    return FieldElement(numerator * _inv_mod(denominator, p) % p, qpt.modulus)


def _product_of_integer_factors(
    num_counts: np.ndarray, den_counts: np.ndarray, p: int
) -> int:
    top = max(len(num_counts), len(den_counts)) - 1
    numerator = 1
    denominator = 1
    for m in range(1, top + 1):
        nc = int(num_counts[m]) if m < len(num_counts) else 0
        dc = int(den_counts[m]) if m < len(den_counts) else 0
        if nc:
            numerator = numerator * pow(m, nc, p) % p
        if dc:
            denominator = denominator * pow(m, dc, p) % p
    return numerator * _inv_mod(denominator, p) % p


def qtspp_orbit_product(n: int, qpt: QPoint) -> FieldElement:
    """Orbit-counting generating function of TSPPs in the n-cube, at q.

    The triple product over 1 <= i <= j <= k <= n of
    (1 - q**(i+j+k-1)) / (1 - q**(i+j+k-2)); at q = 1 this is the plain
    TSPP count (the classical product of (i+j+k-1)/(i+j+k-2)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return FieldElement(1, qpt.modulus)
    num_counts, den_counts = _orbit_factor_counts(n)
    if qpt.is_unit:
        return FieldElement(
            _product_of_integer_factors(num_counts, den_counts, qpt.modulus.p),
            qpt.modulus,
        )
    return _product_of_factors(num_counts, den_counts, qpt)


def qtspp_count_exact(n: int) -> int:
    """Exact integer TSPP count for the n-cube (q = 1 product formula)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                acc *= Fraction(i + j + k - 1, i + j + k - 2)
    assert acc.denominator == 1
    return acc.numerator


def _nice_ratio_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    num = np.zeros(3 * n, dtype=np.int64)
    den = np.zeros(3 * n, dtype=np.int64)
    for s in range(2, 2 * n + 1):
        c = s // 2 - max(1, s - n) + 1
        if c > 0:
            num[s + n - 1] += 2 * c
            den[s + n - 2] += 2 * c
    return num, den


def nice_ratio(n: int, qpt: QPoint) -> FieldElement:
    """Squared outer-layer ratio: the k = n slice of the conjectured product.

    Equals prod over 1 <= i <= j <= n of
    ((1 - q**(i+j+n-1)) / (1 - q**(i+j+n-2)))**2, which telescopes so that
    the product of nice_ratio(1..n) is qtspp_orbit_product(n)**2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    num_counts, den_counts = _nice_ratio_counts(n)
    if qpt.is_unit:
        return FieldElement(
            _product_of_integer_factors(num_counts, den_counts, qpt.modulus.p),
            qpt.modulus,
        )
    return _product_of_factors(num_counts, den_counts, qpt)


def nice_ratio_q1_exact(n: int) -> Fraction:
    """Exact rational value of nice_ratio at q = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    acc = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            acc *= Fraction(i + j + n - 1, i + j + n - 2)
    return acc * acc


def has_admissible_order(q_int: int, modulus: PrimeModulus, n_bound: int) -> bool:
    """Whether q's multiplicative order clears the 4*n_bound safety margin.

    The product formulas up to size n divide by factors 1 - q**m with
    m <= 3n - 2, so order >= 4n guarantees no denominator vanishes.
    """
    if q_int == 1:
        return True
    r = q_int % modulus.p
    if r == 0:
        return False
    return modulus.multiplicative_order(r) >= 4 * n_bound
