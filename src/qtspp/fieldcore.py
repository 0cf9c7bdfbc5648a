"""Exact arithmetic over a word-sized prime field GF(p).

The modulus, dense linear algebra on int64 residue arrays (solve /
nullspace / determinant by Gaussian elimination, each taking an explicit
p), univariate polynomials with interpolation, and the two reconstruction
algorithms that lift modular images back to symbolic objects: rational
functions over GF(p) (Cauchy interpolation via the extended Euclidean
algorithm, returned as a numerator / monic denominator pair) and rational
numbers from a single residue.  FieldElement is only the read-only result
type of the public scalar functions; arithmetic runs on plain ints.

The modulus is kept small enough that a product of two residues never
overflows a signed 64-bit word, so elimination needs only elementwise
multiply / subtract / mod steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

#: 2**31 - 1, the default modulus for every computation in this package.
DEFAULT_PRIME = 2147483647

#: Largest allowed modulus: (p-1)**2 must fit in a signed 64-bit integer.
MAX_MODULUS = 3037000499


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class ZeroInverse(WorkbenchError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class SingularMatrix(WorkbenchError):
    """Elimination found no nonzero pivot for some column."""


class DuplicateAbscissa(WorkbenchError):
    """Interpolation points share an x coordinate."""


class NoFit(WorkbenchError):
    """No rational function within the degree bounds matches the samples."""


class PoleAtSample(WorkbenchError):
    """The reconstructed denominator vanishes at a sample point."""

    def __init__(self, x: int):
        super().__init__(f"denominator vanishes at sample x={x}")
        self.x = x


class NoReconstruction(WorkbenchError):
    """No rational number within the symmetric bound has this residue."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
            raise ValueError(f"modulus must be in (2, {MAX_MODULUS}], got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def unit_group_factorization(self) -> tuple[tuple[int, int], ...]:
        return _factorize(self.p - 1)

    def multiplicative_order(self, a: int) -> int:
        """Order of a in GF(p)*; raises ZeroInverse for a = 0 mod p."""
        a %= self.p
        if a == 0:
            raise ZeroInverse("0 has no multiplicative order")
        order = self.p - 1
        for prime, exp in self.unit_group_factorization():
            for _ in range(exp):
                if pow(a, order // prime, self.p) == 1:
                    order //= prime
                else:
                    break
        return order


class FieldElement:
    """A read-only residue in GF(p), the result type of the scalar functions."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: PrimeModulus):
        self.value = value % modulus.p
        self.modulus = modulus

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.value == other.value and self.modulus.p == other.modulus.p
        if isinstance(other, (int, np.integer)):
            return self.value == int(other) % self.modulus.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus.p))

    def __repr__(self):
        return f"FieldElement({self.value} mod {self.modulus.p})"

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0


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


def solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve a @ x = b over GF(p) for square a; raises SingularMatrix."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix is not square")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    m = np.concatenate([a % p, (b % p).reshape(n, 1)], axis=1)
    for col in range(n):
        nz = np.nonzero(m[col:, col])[0]
        if nz.size == 0:
            raise SingularMatrix(f"no pivot in column {col}")
        r = col + int(nz[0])
        if r != col:
            m[[col, r]] = m[[r, col]]
        inv = _inv_mod(int(m[col, col]), p)
        m[col] = m[col] * inv % p
        below = np.nonzero(m[col + 1:, col])[0] + col + 1
        if below.size:
            m[below] = (m[below] - np.outer(m[below, col], m[col])) % p
    x = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        x[i] = (m[i, n] - (m[i, i + 1: n] * x[i + 1:] % p).sum()) % p
    return x


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns)."""
    m = a % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(m[row:, col])[0]
        if nz.size == 0:
            continue
        r = row + int(nz[0])
        if r != row:
            m[[row, r]] = m[[r, row]]
        inv = _inv_mod(int(m[row, col]), p)
        m[row] = m[row] * inv % p
        others = np.nonzero(m[:, col])[0]
        others = others[others != row]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, col], m[row])) % p
        pivots.append(col)
        row += 1
    return m, pivots


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of a over GF(p), one vector per row.

    Each basis vector carries a 1 in its own free column and 0 in the free
    columns of the other basis vectors (reduced echelon normalization).
    """
    m, pivots = rref_mod(a, p)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, c in enumerate(pivots):
            basis[k, c] = (-int(m[r, f])) % p
    return basis


def det_mod(a: np.ndarray, p: int) -> int:
    """Determinant over GF(p) by elimination with pivot-sign tracking."""
    m = a % p
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix is not square")
    det = 1
    for col in range(n):
        nz = np.nonzero(m[col:, col])[0]
        if nz.size == 0:
            return 0
        r = col + int(nz[0])
        if r != col:
            m[[col, r]] = m[[r, col]]
            det = p - det
        piv = int(m[col, col])
        det = det * piv % p
        inv = _inv_mod(piv, p)
        below = np.nonzero(m[col + 1:, col])[0] + col + 1
        if below.size:
            factors = m[below, col] * inv % p
            m[below] = (m[below] - np.outer(factors, m[col])) % p
    return det


# ---------------------------------------------------------------------------
# Univariate polynomials over GF(p)
# ---------------------------------------------------------------------------


class PolyOverField:
    """Dense univariate polynomial over GF(p), coefficients lowest first.

    The zero polynomial has an empty coefficient list; otherwise the trailing
    (highest-degree) coefficient is nonzero.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Iterable[int], modulus: PrimeModulus):
        p = modulus.p
        c = [int(x) % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c
        self.modulus = modulus

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> "PolyOverField":
        return cls([], modulus)

    @classmethod
    def constant(cls, v: int, modulus: PrimeModulus) -> "PolyOverField":
        return cls([v], modulus)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other: "PolyOverField") -> "PolyOverField":
        p = self.modulus.p
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] + c) % p
        return PolyOverField(out, self.modulus)

    def __sub__(self, other: "PolyOverField") -> "PolyOverField":
        p = self.modulus.p
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] - c) % p
        return PolyOverField(out, self.modulus)

    def __mul__(self, other: "PolyOverField") -> "PolyOverField":
        if self.is_zero() or other.is_zero():
            return PolyOverField.zero(self.modulus)
        p = self.modulus.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + ci * cj) % p
        return PolyOverField(out, self.modulus)

    def scale(self, s: int) -> "PolyOverField":
        p = self.modulus.p
        s %= p
        return PolyOverField([c * s % p for c in self.coeffs], self.modulus)

    def monic(self) -> "PolyOverField":
        if self.is_zero():
            return self
        return self.scale(_inv_mod(self.leading_coefficient(), self.modulus.p))

    def divmod(self, other: "PolyOverField") -> tuple["PolyOverField", "PolyOverField"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.modulus.p
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        if len(rem) < dlen:
            return PolyOverField.zero(self.modulus), PolyOverField(rem, self.modulus)
        inv_lead = _inv_mod(other.coeffs[-1], p)
        quot = [0] * (len(rem) - dlen + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dlen - 1] * inv_lead % p
            if c:
                quot[k] = c
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] = (rem[k + i] - c * oc) % p
        return PolyOverField(quot, self.modulus), PolyOverField(rem, self.modulus)

    def __mod__(self, other: "PolyOverField") -> "PolyOverField":
        return self.divmod(other)[1]

    def gcd(self, other: "PolyOverField") -> "PolyOverField":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, x: int) -> int:
        p = self.modulus.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, PolyOverField)
            and self.modulus.p == other.modulus.p
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"PolyOverField({self.coeffs} mod {self.modulus.p})"


class IntegerPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def max_abs_coefficient(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, p: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def __eq__(self, other):
        return isinstance(other, IntegerPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"IntegerPoly({self.coeffs})"


# ---------------------------------------------------------------------------
# Interpolation and reconstruction
# ---------------------------------------------------------------------------


def interpolate_poly(
    points: Sequence[tuple[int, int]], modulus: PrimeModulus
) -> PolyOverField:
    """Unique polynomial of degree < len(points) through the given points.

    Newton's divided differences over GF(p); x coordinates must be distinct.
    """
    p = modulus.p
    xs = [int(x) % p for x, _ in points]
    ys = [int(y) % p for _, y in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation points share an x coordinate")
    n = len(xs)
    if n == 0:
        return PolyOverField.zero(modulus)
    # divided-difference coefficients
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            num = (dd[i] - dd[i - 1]) % p
            den = (xs[i] - xs[i - level]) % p
            dd[i] = num * _inv_mod(den, p) % p
    # expand the Newton form to the monomial basis
    poly = PolyOverField.zero(modulus)
    for i in range(n - 1, -1, -1):
        poly = poly * PolyOverField([-xs[i], 1], modulus) + PolyOverField.constant(dd[i], modulus)
    return poly


def _radix_product(xs: Sequence[int], modulus: PrimeModulus) -> PolyOverField:
    """prod (x - xi), built by pairwise merging."""
    polys = [PolyOverField([-x, 1], modulus) for x in xs]
    if not polys:
        return PolyOverField.constant(1, modulus)
    while len(polys) > 1:
        merged = []
        for i in range(0, len(polys) - 1, 2):
            merged.append(polys[i] * polys[i + 1])
        if len(polys) % 2:
            merged.append(polys[-1])
        polys = merged
    return polys[0]


def reconstruct_rational_function(
    points: Sequence[tuple[int, int]],
    deg_num_bound: int,
    deg_den_bound: int,
    modulus: PrimeModulus,
) -> tuple[PolyOverField, PolyOverField]:
    """Fit n(x)/d(x) with deg n <= deg_num_bound, deg d <= deg_den_bound.

    Cauchy interpolation: interpolate a polynomial g through all samples,
    then run the extended Euclidean algorithm on (prod(x - xi), g) until the
    remainder degree drops to the numerator bound.  The surplus samples
    (at least one is required beyond deg_num_bound + deg_den_bound + 1)
    validate the candidate; a candidate whose denominator vanishes at a
    sample raises PoleAtSample so the caller can discard that sample.
    Returns the coprime pair (numerator, monic denominator).
    """
    if deg_num_bound < 0 or deg_den_bound < 0:
        raise ValueError("degree bounds must be nonnegative")
    if len(points) < deg_num_bound + deg_den_bound + 2:
        raise ValueError(
            f"need at least {deg_num_bound + deg_den_bound + 2} points, got {len(points)}"
        )
    p = modulus.p
    xs = [int(x) % p for x, _ in points]
    ys = [int(y) % p for _, y in points]
    g = interpolate_poly(list(zip(xs, ys)), modulus)
    m = _radix_product(xs, modulus)

    r0, r1 = m, g
    t0 = PolyOverField.zero(modulus)
    t1 = PolyOverField.constant(1, modulus)
    while r1.degree > deg_num_bound:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1

    num, den = r1, t1
    if den.is_zero():
        raise NoFit("degenerate Euclidean step")
    if den.degree > deg_den_bound:
        raise NoFit(
            f"denominator degree {den.degree} exceeds bound {deg_den_bound}"
        )
    g = num.gcd(den)
    if g.degree > 0:
        # a common factor vanishing at a sample means the target function
        # has a pole there: that sample must be discarded, not the bounds
        for x in xs:
            if g(x) == 0:
                raise PoleAtSample(x)
        raise NoFit("numerator and denominator are not coprime")
    inv_lead = _inv_mod(den.leading_coefficient(), p)
    num = num.scale(inv_lead)
    den = den.scale(inv_lead)
    for x, y in zip(xs, ys):
        dv = den(x)
        if dv == 0:
            raise PoleAtSample(x)
        if num(x) != y * dv % p:
            raise NoFit(f"verification failed at sample x={x}")
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
