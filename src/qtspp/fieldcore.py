"""Exact arithmetic over a word-sized prime field GF(p).

The modulus, dense linear algebra on int64 residue arrays taking an
explicit p (the nested leading kernels of one matrix from an [a.T | I]
elimination; nullspace, rank and determinant from one row echelon
form, which also yields the inverse Vandermonde matrix that interpolation
multiplies by), and the two reconstruction algorithms that
lift modular images back to symbolic objects: rational functions over
GF(p) (Cauchy interpolation via the extended Euclidean algorithm, with no
degree bounds: the candidate is the one before the quotient of maximal
degree, returned as a numerator / monic denominator pair) and rational
numbers from a single residue.  Everything runs on plain ints and int64
arrays with an explicit p; a polynomial over GF(p) is a list of residues,
lowest degree first, and IntegerPoly holds the lifted integer result.

The modulus is kept small enough that a product of two residues never
overflows a signed 64-bit word, so elementwise multiply / subtract / mod
steps are exact.  The matrix products of the blocked elimination split one
factor into 16-bit limbs: each limb product is below 2**16 * MAX_MODULUS
< 2**47.5, so sums of up to 2**15 of them stay exact in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

#: 2**31 - 1, the default modulus for every computation in this package.
DEFAULT_PRIME = 2147483647

#: Largest allowed modulus: (p-1)**2 must fit in a signed 64-bit integer.
MAX_MODULUS = 3037000499


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(WorkbenchError, ValueError):
    """A configuration value, modulus or input file is malformed."""


class ZeroInverse(WorkbenchError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class SingularMatrix(WorkbenchError):
    """A linear system has no valid solution; .n names the offending row."""

    def __init__(self, message: str, n: int | None = None):
        super().__init__(message)
        self.n = n


class DuplicateAbscissa(WorkbenchError):
    """Interpolation points share an x coordinate."""


class NoFit(WorkbenchError):
    """No rational function fits the samples with a surplus sample to spare."""


class PoleAtSample(WorkbenchError):
    """The reconstructed denominator vanishes at a sample point."""

    def __init__(self, x: int):
        super().__init__(f"denominator vanishes at sample x={x}")
        self.x = x


class NoReconstruction(WorkbenchError):
    """No rational number within the symmetric bound has this residue."""


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Primality by trial division (_factorize), memoized: each modulus is tested once."""
    return n > 1 and _factorize(n) == ((n, 1),)


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n by trial division, as ((prime, exp), ...)."""
    out = []
    for f in (2, 3):
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
    f = 5
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@dataclass(frozen=True)
class PrimeModulus:
    """A word-sized prime p > 2; all residues in this package live mod p."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not (2 < self.p <= MAX_MODULUS):
            raise InvalidInput(f"modulus must be in (2, {MAX_MODULUS}], got {self.p}")
        if not _is_prime(self.p):
            raise InvalidInput(f"modulus {self.p} is not prime")

    def multiplicative_order(self, a: int) -> int:
        """Order of a in GF(p)*; raises ZeroInverse for a = 0 mod p."""
        a %= self.p
        if a == 0:
            raise ZeroInverse("0 has no multiplicative order")
        order = self.p - 1
        for prime, exp in _factorize(self.p - 1):
            for _ in range(exp):
                if pow(a, order // prime, self.p) == 1:
                    order //= prime
                else:
                    break
        return order


def _inv_mod(v: int, p: int) -> int:
    if v == 0:
        raise ZeroInverse("0 is not invertible")
    return pow(v, -1, p)


# ---------------------------------------------------------------------------
# Dense linear algebra on int64 residue arrays
# ---------------------------------------------------------------------------


def matvec_mod(a: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """a @ x over GF(p) without int64 overflow (reduce products, then sum)."""
    return np.mod((a * x[np.newaxis, :] % p).sum(axis=1), p)


def leading_kernels_mod(a: np.ndarray, p: int) -> dict[int, np.ndarray]:
    """The nested kernel vectors of a over GF(p), from one elimination.

    The kernel vector of n (1 <= n <= a.shape[1], n - 1 <= a.shape[0]) is
    the x of length n with x[n-1] = 1 and a[:n-1, :n] @ x = 0; it is unique
    when the leading (n-1) x (n-1) minor of a is a unit, and those n are the
    keys returned.  [a.T | I] is eliminated once, pivoting column k on the
    lowest-index unused row with a nonzero entry, so every row holds
    (a @ x, x) for the column combination x it has become.  The pivots of
    columns 0..n-2 are rows 0..n-2 exactly when the minor is a unit; row n-1
    is then e[n-1] minus pivot rows with zeros in columns 0..n-2, and its
    identity half is the kernel vector of n.

    Each step updates only the columns the pivot row can reach, one slice:
    an unused row is zero in the left half before column k, and its identity
    half past the highest pivot row so far.  Rows to update that form one
    run are updated through a slice, others through an index array.
    """
    rows, cols = a.shape
    m = np.concatenate([a.T % p, np.eye(cols, dtype=np.int64)], axis=1)
    unused = np.ones(cols, dtype=bool)
    out = {}
    last = min(cols - 1, rows)
    end = rows  # one past the last column any pivot row reaches
    for k in range(last + 1):
        if not unused[:k].any():
            out[k + 1] = m[k, rows : rows + k + 1].copy()
        if k == last:
            break
        nz = np.nonzero(unused & (m[:, k] != 0))[0]
        if nz.size == 0:
            break  # rows 0..k of a are dependent: no later minor is a unit
        piv = nz[0]
        unused[piv] = False
        end = max(end, rows + piv + 1)
        prow = m[piv, k:end] = m[piv, k:end] * _inv_mod(int(m[piv, k]), p) % p
        rest = nz[1:]
        if rest.size:
            if rest[-1] - rest[0] == rest.size - 1:
                rest = slice(rest[0], rest[-1] + 1)
            m[rest, k:end] = (m[rest, k:end] - np.outer(m[rest, k], prow)) % p
    return out


#: Columns per panel of the blocked elimination in _echelon_mod.
_PANEL = 40

#: Rows per trailing product update in _echelon_mod; bounds the product's
#: temporaries to _ROWS rows, so peak memory stays that of the unblocked loop.
_ROWS = 128


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b over GF(p) for residue arrays, exact in int64.

    a is split into 16-bit limbs; each limb product is below
    2**16 * MAX_MODULUS < 2**47.5, so inner dimensions up to 2**15 cannot
    overflow.  numpy's integer matmul does not call BLAS.
    """
    return ((a >> 16) @ b % p * 65536 + (a & 0xFFFF) @ b % p) % p


def _active_span(multipliers: np.ndarray) -> tuple[int, int]:
    """First and one past the last row of a multiplier block with a nonzero
    entry, (0, 0) if none: no row outside this span changes under its update."""
    rows = np.flatnonzero(multipliers.any(axis=1))
    return (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)


def _echelon_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Row echelon form of a over GF(p): (u, pivot columns, det).

    Forward elimination with row swaps: each pivot is the first nonzero
    entry at or below the next pivot row, in the first column that has one,
    scaled to 1.  det is the product of the pivots, its sign set by the row
    swaps; it is a's determinant when a is square and every column pivots.

    The elimination is blocked (right-looking, as in FFLAS-FFPACK): columns
    go in panels of _PANEL.  Inside a panel the pivots are found column by
    column on the panel's columns only, swapping whole rows and keeping
    each multiplier in its eliminated column.  The panel's pivot rows are
    then solved on the trailing columns by the panel's unit lower triangle,
    each scaled by its pivot's inverse, and the rows below take the product
    update u[k1:, c1:] -= L21 @ U12 through _mul_mod, _ROWS rows at a time.
    Every pivot still sees a fully updated column, so u, the pivots and det
    are those of the column-by-column elimination.

    Each update covers only the rows from the first to the last with a
    nonzero multiplier (_active_span in the trailing product; in a panel,
    the rows the pivot search found below the pivot, as a swap moves a row
    with a zero there down), in place.  A skipped row would subtract zero,
    so u is unchanged.  In a staircase matrix, whose rows start at
    ascending columns, a row is left alone until its columns are reached.
    """
    u = a % p
    rows, cols = u.shape
    pivots: list[int] = []
    det = 1
    for c0 in range(0, cols, _PANEL):
        c1 = min(c0 + _PANEL, cols)
        k0 = len(pivots)
        inverses = []
        for c in range(c0, c1):
            k = len(pivots)
            if k == rows:
                break
            nz = np.nonzero(u[k:, c])[0]
            if nz.size == 0:
                continue
            r = k + int(nz[0])
            if r != k:
                u[[k, r], c0:] = u[[r, k], c0:]
                det = -det
            piv = int(u[k, c])
            det = det * piv % p
            inv = _inv_mod(piv, p)
            u[k, c:c1] = u[k, c:c1] * inv % p
            if nz.size > 1:
                span = slice(k + nz[1], k + nz[-1] + 1)
                below = u[span, c + 1 : c1]
                below -= np.outer(u[span, c], u[k, c + 1 : c1])
                below %= p
            pivots.append(c)
            inverses.append(inv)
        k1 = len(pivots)
        if k1 == k0:
            continue
        # the panel's pivot columns: multipliers below the unit diagonal
        lower = u[k0:, pivots[k0:]]
        top = u[k0:k1, c1:]
        for j, inv in enumerate(inverses):
            top[j] = (top[j] - _mul_mod(lower[j, :j], top[:j], p)) * inv % p
        lo, hi = _active_span(lower[k1 - k0 :])
        for r in range(k1 + lo, k1 + hi, _ROWS):
            rest = u[r : min(r + _ROWS, k1 + hi), c1:]
            rest -= _mul_mod(lower[r - k0 : r - k0 + len(rest)], top, p)
            rest %= p
        u[k0:, pivots[k0:]] = np.triu(lower)
    return u, pivots, det


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of a over GF(p), one vector per row.

    Each basis vector carries a 1 in its own free column and 0 in the free
    columns of the other basis vectors (reduced echelon normalization), so
    the basis is unique.  Back substitution solves for every free column at
    once, reducing products before summing them.
    """
    u, pivots, _ = _echelon_mod(a, p)
    free = np.delete(np.arange(a.shape[1]), pivots)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        basis[:, c] = -matvec_mod(basis[:, c + 1 :], u[k, c + 1 :], p) % p
    return basis


def det_mod(a: np.ndarray, p: int) -> int:
    """Determinant over GF(p): the signed pivot product of one elimination."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix is not square")
    _, pivots, det = _echelon_mod(a, p)
    return det if len(pivots) == a.shape[1] else 0


# ---------------------------------------------------------------------------
# Univariate polynomials over GF(p): coefficient lists, lowest degree first
# ---------------------------------------------------------------------------
#
# Residues are reduced mod p and the highest coefficient is nonzero, so the
# zero polynomial is [] and len(c) - 1 is the degree (-1 for zero).


def _trim(c: list[int]) -> list[int]:
    """Drop zero high coefficients in place; returns c."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_eval(c: Sequence[int], x, p: int):
    """c at an int x, or elementwise at an int64 array of residues x (each
    Horner step stays below p**2, which fits int64 for p <= MAX_MODULUS)."""
    acc = x * 0
    for v in reversed(c):
        acc = (acc * x + v) % p
    return acc


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [v % p for v in out]


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    rem = list(a)
    dlen = len(b)
    if len(rem) < dlen:
        return [], rem
    inv_lead = _inv_mod(b[-1], p)
    quot = [0] * (len(rem) - dlen + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + dlen - 1] * inv_lead % p
        if c:
            quot[k] = c
            for i, bc in enumerate(b):
                rem[k + i] = (rem[k + i] - c * bc) % p
    return quot, _trim(rem[: dlen - 1])


class IntegerPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = _trim([int(x) for x in coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs_coefficient(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, p: int) -> int:
        return _poly_eval(self.coeffs, x, p)

    def __eq__(self, other):
        return isinstance(other, IntegerPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"IntegerPoly({self.coeffs})"


# ---------------------------------------------------------------------------
# Interpolation and reconstruction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _vandermonde_inverse(xs: tuple[int, ...], p: int) -> np.ndarray:
    """V**-1 over GF(p) for V[i, j] = xs[i]**j, read-only; xs distinct residues.

    The kernel of [V | -I] is {(V**-1 y, y)}, and the reduced-echelon basis
    of nullspace_mod puts e[i] in the free columns: row i is (V**-1 e[i], e[i]).
    """
    n = len(xs)
    v = np.array([[pow(x, j, p) for j in range(n)] for x in xs], dtype=np.int64)
    out = nullspace_mod(np.hstack([v, -np.eye(n, dtype=np.int64) % p]), p)[:, :n].T.copy()
    out.setflags(write=False)
    return out


def interpolate_poly(points: Sequence[tuple[int, int]], p: int) -> list[int]:
    """Unique polynomial of degree < len(points) through the given points.

    The coefficients are V**-1 y for the Vandermonde matrix V of the x
    coordinates, which must be distinct; V**-1 is cached per point set.
    Returns the coefficient list, lowest degree first ([] for zero).
    """
    xs = tuple(int(x) % p for x, _ in points)
    ys = np.array([int(y) % p for _, y in points], dtype=np.int64)
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation points share an x coordinate")
    if not xs:
        return []
    return _trim(matvec_mod(_vandermonde_inverse(xs, p), ys, p).tolist())


def reconstruct_rational_function(
    points: Sequence[tuple[int, int]], p: int
) -> tuple[list[int], list[int]]:
    """Fit n(x)/d(x) through the samples, with no degree bounds.

    Cauchy interpolation with maximal-quotient selection (Monagan, ISSAC
    2004): interpolate a polynomial g through all N samples and run the
    extended Euclidean algorithm on (prod(x - xi), g).  Every remainder
    r with cofactor t satisfies r(xi) = t(xi) * yi, and deg r + deg t =
    N - deg q, where q is the quotient that r divides next.  So the pair
    just before the quotient of largest degree leaves the most samples
    unused by the fit, deg q - 1 of them; those surplus samples are what
    make the fit believable.  Raises NoFit when no quotient reaches degree
    2 (no surplus sample) or when the largest degree is not unique.  A
    candidate whose denominator vanishes at a sample raises PoleAtSample,
    which names that sample.  Returns the coprime pair
    (numerator, monic denominator) as coefficient lists.
    """
    xs = [int(x) % p for x, _ in points]
    ys = [int(y) % p for _, y in points]
    r1 = interpolate_poly(list(zip(xs, ys)), p)

    t0, t1 = [], [1]
    r0 = None  # prod(X - xi), built only if a Euclidean step is needed
    best, best_degree, tied = None, 1, False
    while True:
        q_degree = (len(xs) + 1 if r0 is None else len(r0)) - len(r1)
        if q_degree > best_degree:
            best, best_degree, tied = (r1, t1), q_degree, False
        elif q_degree == best_degree:
            tied = True
        # the quotients still to come have degrees summing to at most deg r1
        if best_degree > len(r1) - 1:
            break
        if r0 is None:  # X**N plus the polynomial through the points (xi, -xi**N)
            r0 = interpolate_poly([(x, -pow(x, len(xs), p)) for x in xs], p)
            r0 += [0] * (len(xs) - len(r0)) + [1]
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        qt = _poly_mul(q, t1, p)
        t0, t1 = t1, _trim([(a - b) % p for a, b in zip_longest(t0, qt, fillvalue=0)])

    if best is None:
        raise NoFit(f"no surplus sample among {len(xs)}")
    if tied:
        raise NoFit(f"two candidates leave {best_degree - 1} surplus samples each")
    num, den = best
    g, h = num, den
    while h:
        g, h = h, _poly_divmod(g, h, p)[1]
    if len(g) > 1:
        # a common factor vanishing at a sample means the fitted function
        # has a pole there
        for x in xs:
            if _poly_eval(g, x, p) == 0:
                raise PoleAtSample(x)
        raise NoFit("numerator and denominator are not coprime")
    inv_lead = _inv_mod(den[-1], p)
    num = [c * inv_lead % p for c in num]
    den = [c * inv_lead % p for c in den]
    at = np.array(xs, dtype=np.int64)
    dv = _poly_eval(den, at, p)
    bad = np.flatnonzero((dv == 0) | (_poly_eval(num, at, p) != np.array(ys) * dv % p))
    if bad.size:
        i = bad[0]
        if dv[i] == 0:
            raise PoleAtSample(xs[i])
        raise NoFit(f"verification failed at sample x={xs[i]}")
    return num, den


def rational_reconstruction_bound(p: int) -> int:
    """Symmetric bound floor(sqrt(p/2)) for numerator and denominator."""
    return math.isqrt(p // 2)


def reconstruct_rational_number(r: int, p: int) -> tuple[int, int]:
    """Lift a residue to the unique small rational a/b with a = r*b mod p.

    Half-extended Euclidean algorithm on (p, r): stop at the first remainder
    within the symmetric bound floor(sqrt(p/2)); the cofactor is the
    denominator.  Raises NoReconstruction when the cofactor is out of bounds
    or the pair is not coprime (no admissible rational exists).
    """
    r %= p
    bound = rational_reconstruction_bound(p)
    r0, r1 = p, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    a, b = r1, t1
    if b < 0:
        a, b = -a, -b
    if b == 0 or b > bound or math.gcd(a, b) != 1:
        raise NoReconstruction(f"residue {r} has no rational within bound {bound}")
    if a % p != r * b % p:
        raise NoReconstruction("euclidean invariant violated")
    return a, b
