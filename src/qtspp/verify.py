"""Identity verification at scale, plus small-size brute-force oracles.

The semi-rigorous program: check the certificate identities (orthogonality,
normalization, telescoped determinant ratio) for all n up to a bound L at
many numeric q points mod p, check that the reconstructed recurrence
annihilates independently computed tables far beyond the discovery range,
and cross-check everything at tiny sizes against a brute-force enumerator
of totally symmetric plane partitions (order ideals of the orbit poset).

The q = 1 route re-derives the orthogonality and ratio identities as
constant-term identities for the row generating polynomials and checks them
over the rationals: on exact rational rows, or on a table's integer residues
with the extracted coefficient reduced mod p.  The extracted coefficient is
the q = 1 certificate sum over m of a(i, m) * B(n, m), with a(i, m) read off
a kernel series of its own, so no elimination product is involved.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np

from . import okada
from .cofactors import CofactorTable, build_table, certificate_product
from .fieldcore import (
    IntegerPoly,
    InvalidInput,
    PrimeModulus,
    SingularMatrix,
    WorkbenchError,
    _poly_eval,
)
from .guessing import (
    ModularRecurrence,
    SymbolicRecurrence,
    _canonical_json,
    annihilation_residuals,
)
from .okada import (
    QPoint,
    has_admissible_order,
    nice_ratio_q1_exact,
    okada_entry_q1,
)

log = logging.getLogger(__name__)


#: Default size bound of the constant-term check ct_check_q1.
CT_BOUND = 30


class SizeLimit(WorkbenchError):
    """Brute-force enumeration was asked for a size beyond its budget."""


@dataclass
class VerificationReport:
    """Structured pass/fail evidence for one identity check; the CLI times the check."""

    identity: str
    bound: int
    q_points: list[int]
    checks: int = 0
    failures: list[dict] = field(default_factory=list)
    passed: bool = True
    details: dict = field(default_factory=dict)

    def record_failure(self, **info):
        self.failures.append(info)
        self.passed = False

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        qs = f" q_points={len(self.q_points)}" if self.q_points else ""
        return (
            f"{tag} {self.identity} bound={self.bound}{qs} "
            f"checks={self.checks} failures={len(self.failures)}"
        )

    def to_json(self) -> str:
        doc = {
            "identity": self.identity,
            "bound": self.bound,
            "q_points": list(self.q_points),
            "checks": self.checks,
            "failures": self.failures[:100],
            "failure_count": len(self.failures),
            "passed": self.passed,
            "details": self.details,
        }
        return _canonical_json(doc)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path


def _as_tables(tables) -> list[CofactorTable]:
    if isinstance(tables, CofactorTable):
        return [tables]
    out = list(tables)
    if not out:
        raise ValueError("no tables given")
    return out


def select_q_points(
    count: int, n_bound: int, modulus: PrimeModulus, seed: int = 20110517
) -> list[int]:
    """Deterministic admissible q points for identity sweeps.

    Draws from a seeded RNG and keeps q whose multiplicative order clears
    4 * n_bound, so every product formula up to size n_bound is safe.
    InvalidInput once every candidate in [2, p - 2] is drawn and count are not.
    """
    rng = random.Random(seed)
    picked: list[int] = []
    seen = set()
    while len(picked) < count:
        if len(seen) == modulus.p - 3:
            raise InvalidInput(f"p={modulus.p} has fewer than {count} q points of order "
                               f">= 4*{n_bound}; use a larger prime or a smaller bound")
        q = rng.randrange(2, modulus.p - 1)
        if q in seen:
            continue
        seen.add(q)
        if has_admissible_order(q, modulus, n_bound):
            picked.append(q)
        else:
            log.info("rejected q=%d (small multiplicative order)", q)
    return picked


# ---------------------------------------------------------------------------
# Certificate identity checks
# ---------------------------------------------------------------------------


def check_soichi(tables, L: int | None = None) -> VerificationReport:
    """Orthogonality: row n of the table kills matrix rows 1..n-1, n <= L.

    Row n's residual at matrix row i < n is R[i-1, n-1], certificate_product.
    """
    tables = _as_tables(tables)
    if L is None:
        L = min(t.n_max for t in tables)
    report = VerificationReport("soichi", L, [t.q_int for t in tables])
    for table in tables:
        upper = np.triu(certificate_product(table, L), 1).T
        report.checks += L * (L - 1) // 2
        for n, i in np.argwhere(upper):
            report.record_failure(
                q=table.q_int, n=int(n) + 1, i=int(i) + 1, residual=int(upper[n, i])
            )
    return report


def check_okada(tables, L: int | None = None) -> VerificationReport:
    """Telescoped ratio: the certificate row sum, diag R, equals the squared layer.

    The layers 1..L come from one okada._layers call per table, looked up
    when the check runs, as nice_ratio's single layer does.
    """
    tables = _as_tables(tables)
    if L is None:
        L = min(t.n_max for t in tables)
    report = VerificationReport("okada", L, [t.q_int for t in tables])
    for table in tables:
        lhs = np.diagonal(certificate_product(table, L))
        rhs = okada._layers(range(1, L + 1), table.qpoint()) ** 2 % table.modulus.p
        report.checks += L
        for n in np.flatnonzero(lhs != rhs).tolist():
            report.record_failure(q=table.q_int, n=n + 1, lhs=int(lhs[n]), rhs=int(rhs[n]))
    return report


def check_normalization(tables) -> VerificationReport:
    """Diagonal of every table row is 1."""
    tables = _as_tables(tables)
    bound = max(t.n_max for t in tables)
    report = VerificationReport("normalization", bound, [t.q_int for t in tables])
    for table in tables:
        for n in range(1, table.n_max + 1):
            report.checks += 1
            v = table.value(n, n)
            if v != 1:
                report.record_failure(q=table.q_int, n=n, value=v)
    return report


def check_extended(
    symrec: SymbolicRecurrence | ModularRecurrence,
    q_int: int,
    p: int,
    n_ext: int,
) -> VerificationReport:
    """Annihilation on a freshly built table up to n_ext at one q point."""
    table = build_table(n_ext, QPoint(q_int, PrimeModulus(p)))
    report = VerificationReport("extended", n_ext, [q_int])
    grid = annihilation_residuals(symrec, table)
    nmax = grid.shape[0] - 1
    report.checks = nmax * (nmax + 1) // 2
    bad = np.argwhere(grid != 0)
    for n, j in bad:
        report.record_failure(q=q_int, n=int(n), j=int(j), residual=int(grid[n, j]))
    return report


# ---------------------------------------------------------------------------
# q = 1 constant-term route
# ---------------------------------------------------------------------------


def _ct_kernel_series(i: int, order: int) -> list[int]:
    """Truncated series of x(2-x)/(1-x)**(i+1) + 2x**i - x**(i-1).

    1/(1-x)**(i+1) has the coefficients C(m+i, i), so the coefficient of
    x**m is 2 C(m-1+i, i) - C(m-2+i, i), plus the two monomial corrections;
    every coefficient is an integer.  By Pascal's rule the coefficient of
    x**m, m >= 1, is the q = 1 matrix entry a(i, m) (okada_entry_q1), here
    from a closed form of its own; x**0 carries -1 at i = 1 and 0 otherwise.
    """
    g = [0] * order
    for m in range(1, order):
        g[m] = 2 * math.comb(m - 1 + i, i) - (math.comb(m - 2 + i, i) if m >= 2 else 0)
    g[i] += 2
    g[i - 1] -= 1
    return g


def cofactor_rows_q1_exact(n_max: int) -> list[list[Fraction]]:
    """Exact rational certificate rows at q = 1 (independent of GF(p)).

    One elimination over the rationals without row exchanges keeps the
    kernel of every a[:n-1, :n]; row n is back-substituted from it with
    x[n-1] = 1.  A zero pivot (a vanishing leading minor) raises SingularMatrix.
    """
    u = [[Fraction(okada_entry_q1(i, j)) for j in range(1, n_max + 1)] for i in range(1, n_max)]
    for col, prow in enumerate(u):
        if prow[col] == 0:
            raise SingularMatrix(f"row n={col + 2}: the leading {col + 1}-minor vanishes at q = 1")
        prow[col:] = [x / prow[col] for x in prow[col:]]
        for row in u[col + 1 :]:
            f = row[col]
            if f:
                row[col:] = [x - f * y for x, y in zip(row[col:], prow[col:])]
    rows = []
    for n in range(1, n_max + 1):
        x = [Fraction(0)] * (n - 1) + [Fraction(1)]
        for i in reversed(range(n - 1)):
            x[i] = -sum(v * z for v, z in zip(u[i][i + 1 : n], x[i + 1 :]))
        rows.append(x)
    return rows


def ct_check_q1(
    n_max_ct: int = CT_BOUND, table: CofactorTable | None = None
) -> VerificationReport:
    """Constant-term form of the q = 1 identities.

    For each n the row generating polynomial f_n(x) (reversed certificate
    row, top value read as 0) is multiplied against the kernel series g_i
    for every shift i; the coefficient of x**n, sum over m = 1..n of
    g_i[m] * B(n, m), must vanish for i < n and equal the exact layer ratio
    for i = n.  With no table the rows are computed exactly over the
    rationals; with a (q = 1, mod p) table the same sums run on the table's
    integer residues and are reduced mod p, so fault-injected tables fail
    here exactly as they fail the direct identity checks.
    """
    if n_max_ct < 2:
        raise InvalidInput("need n_max_ct >= 2")
    if table is None:
        mode = "exact-rational"
        rows = cofactor_rows_q1_exact(n_max_ct)
        want = [nice_ratio_q1_exact(n) for n in range(1, n_max_ct + 1)]
    else:
        if table.q_int != 1:
            raise ValueError("the constant-term route is the q = 1 specialization")
        if table.n_max < n_max_ct:
            raise ValueError(f"table covers only n <= {table.n_max}")
        mode = "modular"
        p = table.modulus.p
        rows = [table.row(n).tolist() for n in range(1, n_max_ct + 1)]
        want = (okada._layers(range(1, n_max_ct + 1), table.qpoint()) ** 2 % p).tolist()
    kernel = [_ct_kernel_series(i, n_max_ct + 1)[1:] for i in range(1, n_max_ct + 1)]
    report = VerificationReport("ct-q1", n_max_ct, [1], details={"mode": mode})
    for n, row in enumerate(rows, 1):
        for i in range(1, n + 1):
            value = sum(map(mul, kernel[i - 1], row))
            if table is not None:
                value %= p
            report.checks += 1
            if value != (want[n - 1] if i == n else 0):
                report.record_failure(n=n, i=i, value=value if table is not None else str(value))
    return report


# ---------------------------------------------------------------------------
# Brute-force enumeration of TSPPs via the orbit poset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitPoset:
    """Sorted coordinate triples (i, j, k), i <= j <= k <= n, dominance order.

    Down-closed subsets (order ideals) are exactly the totally symmetric
    plane partitions inside the n-cube, one orbit per element.
    """

    n: int
    elements: tuple[tuple[int, int, int], ...]

    @classmethod
    def build(cls, n: int) -> "OrbitPoset":
        if n < 0:
            raise ValueError("n must be nonnegative")
        elems = tuple(
            (i, j, k)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            for k in range(j, n + 1)
        )
        return cls(n, elems)

    @staticmethod
    def leq(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
        return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]

    def down_sets(self) -> list[frozenset]:
        """For each element index, the indices of all elements below it."""
        out = []
        for i, a in enumerate(self.elements):
            out.append(
                frozenset(j for j, b in enumerate(self.elements) if self.leq(b, a))
            )
        return out


# ---------------------------------------------------------------------------
# Leading-coefficient structure of the reconstructed recurrence
# ---------------------------------------------------------------------------


#: q's exponent in each of the six leading factors is gamma minus its offset
#: here, in the order of check_leading_factor_vanishing's docstring.
LEADING_FACTOR_OFFSETS = (4, 0, 1, 0, 1, 0)


def check_leading_factor_vanishing(
    symrec: SymbolicRecurrence, trials: int = 200, seed: int = 987654321
) -> VerificationReport:
    """The top-shift coefficient vanishes on each of its six known factors.

    P(q, X, Y) = sum over top-shift terms of c[alpha,beta](q) * X**alpha *
    Y**beta, where X and Y stand for q**n and q**j and gamma is the top
    shift, is evaluated as the residual check evaluates a shift: Horner
    steps in Y, then in X.  Only the top shift's coefficients are
    specialized, at every draw's q in one pass over their residues.
    The factors (Y q^(gamma-4) - 1), (Y q^gamma + 1), (X - Y q^(gamma-1)),
    (X - Y q^gamma), (X Y q^(gamma-1) - 1) and (X Y q^gamma - 1) are each
    zeroed by construction at random points mod p, and P must vanish at
    every one; a random unconstrained point is also evaluated as a negative
    control.  X = Y q^gamma is n = j + gamma,
    where the top term is the diagonal value B(n, n); X = Y q^(gamma-1) is
    n = j + gamma - 1, where the top term reads the zero extension
    B(n, n + 1).  The other four were found by a factor search over
    binomials in q, X and Y on the recurrences of order 7, 8 and 10; they
    are a fixed claim, not rediscovered here, so the check can fail.
    """
    p = symrec.prime
    gmax = symrec.support.max_shift_j
    top = [k for k, term in enumerate(symrec.support.terms) if term[2] == gmax]
    alpha, beta, _ = map(np.array, zip(*(symrec.support.terms[k] for k in top)))

    # (x, y) on each factor's zero set from w = q**(gamma - offset) and one free draw r
    on_factor = (
        lambda w, r: (r, pow(w, -1, p)),  # Y w = 1
        lambda w, r: (r, (p - 1) * pow(w, -1, p) % p),  # Y w = -1
        lambda w, r: (r * w % p, r),  # X = Y w
        lambda w, r: (r * w % p, r),  # X = Y w
        lambda w, r: (pow(r * w, -1, p), r),  # X Y w = 1
        lambda w, r: (pow(r * w, -1, p), r),  # X Y w = 1
    )
    rng = random.Random(seed)
    draws = []
    for t in range(trials):
        q = rng.randrange(2, p - 1)
        w = pow(q, gmax - LEADING_FACTOR_OFFSETS[t % 6], p)
        draws.append((q, *on_factor[t % 6](w, rng.randrange(1, p))))
    # negative control: an unconstrained random point should not vanish
    draws.append((rng.randrange(2, p - 1), rng.randrange(1, p), rng.randrange(1, p)))
    qs, xs, ys = np.array(draws, dtype=np.int64).T
    poly = np.zeros((beta.max() + 1, alpha.max() + 1, len(draws)), dtype=np.int64)
    poly[beta, alpha] = _poly_eval(symrec._residues(p)[:, top, None], qs, p)  # [beta, alpha, draw]
    *values, control = _poly_eval(_poly_eval(poly, ys, p), xs, p).tolist()

    report = VerificationReport("leading-factor", gmax, [])
    for t, ((q, x, y), v) in enumerate(zip(draws, values)):
        report.checks += 1
        if v != 0:
            report.record_failure(factor=t % 6, q=q, x=x, y=y, value=v)
    report.details["random_point_value"] = control
    return report


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def brute_force_qtspp(n: int, size_limit: int = 4) -> IntegerPoly:
    """Ideal-size generating polynomial of the orbit poset, by enumeration.

    Recursive splitting on a minimal element x: ideals avoiding x are the
    ideals of the poset minus everything above x; ideals containing x map to
    ideals of the poset minus x, weighted by one extra power of q.
    """
    if n > size_limit:
        raise SizeLimit(f"brute force limited to n <= {size_limit}")
    poset = OrbitPoset.build(n)
    m = len(poset.elements)
    below = poset.down_sets()
    above = [
        frozenset(j for j in range(m) if i in below[j]) for i in range(m)
    ]
    memo: dict[frozenset, list[int]] = {}

    def gen(active: frozenset) -> list[int]:
        if not active:
            return [1]
        cached = memo.get(active)
        if cached is not None:
            return cached
        x = next(i for i in sorted(active) if below[i] & active == {i})
        without = gen(active - above[x])
        within = gen(active - {x})
        result = _poly_add(without, [0] + within)
        memo[active] = result
        return result

    return IntegerPoly(gen(frozenset(range(m))))
