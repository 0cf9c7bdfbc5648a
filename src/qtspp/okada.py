"""Matrix entries and product formulas for the q-TSPP determinant identity.

Everything here is evaluated at a numeric q point, reduced modulo a prime:
Gaussian binomials, the determinant's matrix entries a(i, j) (one at a
time, or the whole n x n matrix), the orbit counting product of totally
symmetric plane partitions, and the squared per-layer ratio that the
certified determinant telescopes to.

The entry formula lives in one place, entry_matrix, which reduces modulo
any m: an int64 residue array for a word-sized prime (okada_slice), or
Python ints modulo a prime power (the p-adic rows of the certificate
table).  Gaussian binomials are computed through the q-Pascal recurrence,
which evaluates the underlying polynomial and is therefore well defined for
every q point, even one of small multiplicative order (2 has order 31
modulo 2**31 - 1).  Both product formulas are built from one telescoped
layer, prod over i <= n of (1 - q**(2n+i-1)) / (1 - q**(n+2i-2)), which
_layers computes for a whole range of n at once, as products of numpy
residue arrays: the layer ratio is its square and the orbit product the
product of layers 1..n.  They genuinely divide by the factors
1 - q**(n+2i-2) and raise DegenerateDenominator on q points whose order
divides one of those exponents; callers pick q points of large order for
those checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fieldcore import MAX_MODULUS, InvalidInput, PrimeModulus, WorkbenchError, _inv_mod


class DegenerateDenominator(WorkbenchError):
    """A product-formula denominator factor 1 - q**m vanished mod p."""


#: q points of multiplicative order below this are refused outright: the
#: matrix entries collapse there (order 2 zeroes the (1,1) entry, order 3
#: the (1,2) entry) and no useful table exists.
MIN_Q_ORDER = 4


def _powers(q: int, m: int, count: int) -> np.ndarray:
    """q**e mod m for e = 0..count-1: int64 when m <= MAX_MODULUS, else Python ints."""
    out = np.empty(count, dtype=np.int64 if m <= MAX_MODULUS else object)
    acc = 1
    for e in range(count):
        out[e] = acc
        acc = acc * q % m
    return out


def _qpascal(pw: np.ndarray, m: int) -> np.ndarray:
    """Gaussian binomials tri[a, b] = [a choose b]_q mod m for a, b < len(pw).

    pw holds the powers q**e mod m (_powers).  Row by row through the q-Pascal
    recurrence [a choose b] = [a-1 choose b-1] + q**b [a-1 choose b]; at
    q = 1 this is Pascal's triangle.
    """
    tri = np.zeros((len(pw), len(pw)), dtype=pw.dtype)
    for a in range(len(pw)):
        tri[a, 0] = 1
        tri[a, 1 : a + 1] = (tri[a - 1, :a] + pw[1 : a + 1] * tri[a - 1, 1 : a + 1]) % m
    return tri


class QPoint:
    """A numeric substitution q >= 1 together with its modular image.

    Holds no powers or binomials: those are computed per call.
    """

    __slots__ = ("q_int", "modulus", "reduced", "is_unit", "_order")

    def __init__(self, q_int: int, modulus: PrimeModulus | None = None):
        if q_int < 1:
            raise InvalidInput(f"q must be a positive integer, got {q_int}")
        self.modulus = modulus if modulus is not None else PrimeModulus()
        self.q_int = q_int
        self.reduced = q_int % self.modulus.p
        if self.reduced == 0:
            raise InvalidInput(f"q={q_int} reduces to 0 mod {self.modulus.p}")
        self.is_unit = q_int == 1
        self._order: int | None = None

    @property
    def order(self) -> int:
        """Multiplicative order of q mod p (1 for the q = 1 point)."""
        if self._order is None:
            self._order = self.modulus.multiplicative_order(self.reduced)
        return self._order

    def qpow(self, max_exp: int) -> np.ndarray:
        """int64 array of q**e mod p for e = 0..max_exp."""
        return _powers(self.reduced, self.modulus.p, max_exp + 1)

    def __repr__(self):
        return f"QPoint(q={self.q_int} mod {self.modulus.p})"


def qbinom(a: int, b: int, qpt: QPoint) -> int:
    """Gaussian binomial [a choose b]_q at the q point; 0 when b < 0 or b > a.

    Computed as the value of the Gaussian binomial polynomial (q-Pascal
    recurrence), so it is defined for every q point; at q = 1 it is the
    ordinary binomial coefficient reduced mod p.
    """
    if a < 0:
        raise ValueError("upper index must be nonnegative")
    if b < 0 or b > a:
        return 0
    p = qpt.modulus.p
    return int(_qpascal(_powers(qpt.reduced, p, a + 1), p)[a, b])


def okada_entry(i: int, j: int, qpt: QPoint) -> int:
    """Matrix entry a(i, j) of the determinant under certification."""
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    p = qpt.modulus.p
    q = qpt.reduced
    v = (qbinom(i + j - 2, i - 1, qpt) + q * qbinom(i + j - 1, i, qpt)) % p
    v = v * pow(q, i + j - 1, p) % p
    if i == j:
        v = (v + 1 + pow(q, i, p)) % p
    if i == j + 1:
        v = (v - 1) % p
    return v


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


def entry_matrix(n: int, q: int, m: int) -> np.ndarray:
    """The n x n entry matrix mod m, a[i-1, j-1] = a(i, j), one pass per row.

    int64 residues when m <= MAX_MODULUS, Python ints (object dtype) above,
    from the same code: q**(i+j-1) * ([i+j-2 choose i-1] + q [i+j-1 choose i]),
    plus 1 + q**i on the diagonal and -1 below it.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    q %= m
    pw = _powers(q, m, 2 * n)
    tri = _qpascal(pw, m)
    a = np.zeros((n, n), dtype=pw.dtype)
    for i in range(1, n + 1):
        # [i+j-2 choose i-1] and [i+j-1 choose i] for j = 1..n
        b1 = tri[i - 1 : i + n - 1, i - 1]
        b2 = tri[i : i + n, i]
        a[i - 1] = pw[i : i + n] * ((b1 + q * b2) % m) % m
    idx = np.arange(n)
    a[idx, idx] = (a[idx, idx] + 1 + pw[1 : n + 1]) % m
    a[idx[1:], idx[:-1]] = (a[idx[1:], idx[:-1]] - 1) % m
    return a


def okada_slice(n: int, qpt: QPoint) -> np.ndarray:
    """The n x n entry matrix as an int64 residue array mod p."""
    return entry_matrix(n, qpt.reduced, qpt.modulus.p)


# ---------------------------------------------------------------------------
# Product formulas
# ---------------------------------------------------------------------------


def _prod_mod(f: np.ndarray, p: int) -> np.ndarray:
    """Products mod p along the last axis of f (1 over no factors), by halving."""
    while f.shape[-1] != 1:
        if f.shape[-1] % 2 or not f.shape[-1]:
            f = np.concatenate([f, np.ones(f.shape[:-1] + (1,), dtype=np.int64)], axis=-1)
        else:
            f = f[..., ::2] * f[..., 1::2] % p
    return f[..., 0]


def _layers(ns: range, qpt: QPoint) -> np.ndarray:
    """The layers n in ns of the orbit product, telescoped over j, as residues.

    Layer n is prod over i <= n of (1 - q**(2n+i-1)) / (1 - q**(n+2i-2)),
    with the factor m in place of 1 - q**m at q = 1.  Numerators and
    denominators are products along the rows of one [num/den, n, i] grid
    of factors, padded with 1 for i > n.  The first n in ns whose
    denominator has a vanishing factor raises DegenerateDenominator, naming
    its first.
    """
    p = qpt.modulus.p
    top = 3 * ns[-1] if ns else 0  # every exponent is below 3n
    factors = np.arange(top) % p if qpt.is_unit else (1 - qpt.qpow(top - 1)) % p
    n = np.array(ns, dtype=np.int64)[:, None]
    i = np.arange(top // 3)  # i - 1
    grid = np.where(i < n, factors[np.array([2 * n + i, n + 2 * i])], 1)
    if not grid[1].all():
        r, c = np.argwhere(grid[1] == 0)[0]
        raise DegenerateDenominator(
            f"1 - q**{ns[r] + 2 * c} = 0 mod p at q={qpt.q_int} (order {qpt.order})"
        )
    num, den = _prod_mod(grid, p).tolist()
    return np.array([x * pow(d, -1, p) % p for x, d in zip(num, den)], dtype=np.int64)


def qtspp_orbit_product(n: int, qpt: QPoint) -> int:
    """Orbit-counting generating function of TSPPs in the n-cube, at q.

    The triple product over 1 <= i <= j <= k <= n of
    (1 - q**(i+j+k-1)) / (1 - q**(i+j+k-2)); at q = 1 this is the plain
    TSPP count (the classical product of (i+j+k-1)/(i+j+k-2)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return int(_prod_mod(_layers(range(1, n + 1), qpt), qpt.modulus.p))


def nice_ratio(n: int, qpt: QPoint) -> int:
    """Squared outer-layer ratio: the k = n slice of the conjectured product.

    Equals prod over 1 <= i <= j <= n of
    ((1 - q**(i+j+n-1)) / (1 - q**(i+j+n-2)))**2, evaluated as the square of
    the telescoped layer, so the product of nice_ratio(1..n) is
    qtspp_orbit_product(n)**2.  It raises DegenerateDenominator exactly when
    q's order divides some n + 2i - 2 with i <= n.  check_okada squares
    the layers 1..L from the same _layers call.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return int(_layers(range(n, n + 1), qpt)[0]) ** 2 % qpt.modulus.p


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
