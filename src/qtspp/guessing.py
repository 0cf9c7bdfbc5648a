"""Discovery of the certificate table's bivariate q-recurrence.

Pipeline: build an overdetermined linear system from the ansatz
sum over terms (alpha, beta, gamma) of
c[alpha, beta, gamma] * q**(alpha*n) * q**(beta*j) * B(n, j + gamma) = 0,
one equation per table position, extract the modular nullspace, refine the
support by dropping zero coefficients, repeat the computation across a range
of q points, and reconstruct the coefficients as integer polynomials in q
via rational function and rational number reconstruction.

Terms may optionally carry a shift in n as well ((alpha, beta, shift_n,
shift_j) quadruples), so recurrences that step in n can be sought with the
same machinery; table values beyond the triangular domain in j read as zero
(zero extension), while shifts in n restrict the usable equation rows.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .cofactors import CofactorTable, build_table
from .fieldcore import (
    FieldElement,
    IntegerPoly,
    NoFit,
    PoleAtSample,
    NoReconstruction,
    PrimeModulus,
    SingularMatrix,
    WorkbenchError,
    nullspace_mod,
    reconstruct_rational_function,
    reconstruct_rational_number,
)
from .okada import QPoint

log = logging.getLogger(__name__)


class InsufficientData(WorkbenchError):
    """The table is too small for the requested shift range."""


class NoRecurrence(WorkbenchError):
    """The ansatz system has a trivial nullspace."""


class TooFewPoints(WorkbenchError):
    """Too few q points survived the sweep."""


class ReconstructionFailed(WorkbenchError):
    """Symbolic reconstruction could not be completed; widen the sweep."""


Term = tuple[int, ...]


def _term_key(term: Term):
    if len(term) == 3:
        alpha, beta, gamma = term
        return (gamma, beta, alpha)
    alpha, beta, shift_n, shift_j = term
    return (shift_n, shift_j, beta, alpha)


def _term_shifts(term: Term) -> tuple[int, int]:
    """(shift in n, shift in j) of a term."""
    if len(term) == 3:
        return 0, term[2]
    return term[2], term[3]


@dataclass(frozen=True)
class AnsatzSupport:
    """An ordered set of ansatz terms plus the generating bounds."""

    terms: tuple[Term, ...]
    bounds: tuple[int, ...] = (4, 7, 10)

    def __post_init__(self):
        terms = tuple(sorted({tuple(int(x) for x in t) for t in self.terms}, key=_term_key))
        arities = {len(t) for t in terms}
        if not terms:
            raise ValueError("support must contain at least one term")
        if len(arities) != 1 or arities.pop() not in (3, 4):
            raise ValueError("terms must be uniform (alpha, beta, gamma[, shift]) tuples")
        for t in terms:
            if any(x < 0 for x in t):
                raise ValueError(f"negative exponent in term {t}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))

    @classmethod
    def full(
        cls,
        alpha_max: int = 4,
        beta_max: int = 7,
        gamma_max: int = 10,
        shift_n_max: int | None = None,
    ) -> "AnsatzSupport":
        """The complete grid of terms up to the given exponent bounds."""
        if shift_n_max is None:
            terms = [
                (a, b, g)
                for g in range(gamma_max + 1)
                for b in range(beta_max + 1)
                for a in range(alpha_max + 1)
            ]
            return cls(tuple(terms), (alpha_max, beta_max, gamma_max))
        terms4 = [
            (a, b, gn, gj)
            for gn in range(shift_n_max + 1)
            for gj in range(gamma_max + 1)
            for b in range(beta_max + 1)
            for a in range(alpha_max + 1)
        ]
        return cls(tuple(terms4), (alpha_max, beta_max, gamma_max, shift_n_max))

    def subset(self, terms: Sequence[Term]) -> "AnsatzSupport":
        return AnsatzSupport(tuple(terms), self.bounds)

    @property
    def max_shift_j(self) -> int:
        return max(_term_shifts(t)[1] for t in self.terms)

    @property
    def max_shift_n(self) -> int:
        return max(_term_shifts(t)[0] for t in self.terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


@dataclass
class ModularRecurrence:
    """One nullspace solution at one q point, pivot coefficient fixed to 1."""

    support: AnsatzSupport
    q_int: int
    prime: int
    coefficients: np.ndarray
    pivot_term: Term
    nullspace_dim: int

    def __post_init__(self):
        self.coefficients = np.mod(np.asarray(self.coefficients, dtype=np.int64), self.prime)
        if self.coefficients.shape != (len(self.support),):
            raise ValueError("coefficient count does not match support")

    def zero_count(self) -> int:
        return int(np.count_nonzero(self.coefficients == 0))

    def zero_terms(self) -> tuple[Term, ...]:
        return tuple(
            t for t, c in zip(self.support.terms, self.coefficients) if c == 0
        )

    def nonzero_terms(self) -> tuple[Term, ...]:
        return tuple(
            t for t, c in zip(self.support.terms, self.coefficients) if c != 0
        )


@dataclass
class SymbolicRecurrence:
    """Recurrence with integer-polynomial coefficients in q, content 1."""

    support: AnsatzSupport
    pivot_term: Term
    coefficients: list[IntegerPoly]
    prime: int
    q_points_used: list[int] = field(default_factory=list)

    def max_abs_coefficient(self) -> int:
        return max(c.max_abs_coefficient() for c in self.coefficients)

    def joint_content(self) -> int:
        return math.gcd(*(c.content() for c in self.coefficients))

    def specialize(self, q_int: int, prime: int | None = None) -> np.ndarray:
        """Residues of every coefficient polynomial at q_int mod the prime."""
        p = prime if prime is not None else self.prime
        x = q_int % p
        return np.array([c.eval_mod(x, p) for c in self.coefficients], dtype=np.int64)


# ---------------------------------------------------------------------------
# Equation system and modular guessing
# ---------------------------------------------------------------------------


def _equation_rows(table: CofactorTable, support: AnsatzSupport) -> tuple[np.ndarray, np.ndarray]:
    max_n = table.n_max - support.max_shift_n
    ns, js = [], []
    for n in range(1, max_n + 1):
        for j in range(1, n + 1):
            ns.append(n)
            js.append(j)
    return np.array(ns, dtype=np.int64), np.array(js, dtype=np.int64)


def build_equations(table: CofactorTable, support: AnsatzSupport) -> np.ndarray:
    """One equation per table position (n, j); one column per ansatz term.

    The (n, j) row's entry in the column of term (alpha, beta, gamma) is
    q**(alpha*n + beta*j) * B(n, j + gamma), with B read as 0 outside the
    triangle.  Requires n_max > gamma_max so the system is overdetermined
    rather than vacuous.
    """
    if table.n_max <= support.max_shift_j:
        raise InsufficientData(
            f"table n_max={table.n_max} must exceed the largest j shift {support.max_shift_j}"
        )
    p = table.modulus.p
    qpt = table.qpoint()
    ns, js = _equation_rows(table, support)
    if ns.size == 0:
        raise InsufficientData("no equation rows available for this support")
    b = table.padded(extra_cols=support.max_shift_j)
    alphas = np.array([t[0] for t in support.terms])
    betas = np.array([t[1] for t in support.terms])
    max_exp = int((alphas * table.n_max + betas * table.n_max).max())
    pw = qpt.qpow(max_exp)
    cols = np.empty((ns.size, len(support)), dtype=np.int64)
    for k, term in enumerate(support.terms):
        alpha, beta = term[0], term[1]
        shift_n, shift_j = _term_shifts(term)
        exps = alpha * ns + beta * js
        cols[:, k] = pw[exps] * b[ns + shift_n, js + shift_j] % p
    return cols


def guess_modular(table: CofactorTable, support: AnsatzSupport) -> ModularRecurrence:
    """Nullspace of the ansatz system, normalized on its first nonzero term.

    Raises NoRecurrence when the system has full column rank.  When the
    nullspace has dimension > 1 the first basis vector is returned and the
    dimension recorded; sweeps treat such q points as degenerate.
    """
    p = table.modulus.p
    m = build_equations(table, support)
    basis = nullspace_mod(m, p)
    if basis.shape[0] == 0:
        raise NoRecurrence(
            f"ansatz system has full column rank at q={table.q_int} "
            f"({m.shape[0]} equations, {m.shape[1]} terms)"
        )
    vec = basis[0]
    nz = np.nonzero(vec)[0]
    k = int(nz[0])
    inv = pow(int(vec[k]), -1, p)
    vec = vec * inv % p
    return ModularRecurrence(
        support=support,
        q_int=table.q_int,
        prime=p,
        coefficients=vec,
        pivot_term=support.terms[k],
        nullspace_dim=int(basis.shape[0]),
    )


def refine_support(rec: ModularRecurrence) -> AnsatzSupport:
    """Drop the terms whose coefficient vanished in the modular image."""
    if rec.nullspace_dim != 1:
        raise ValueError("refinement requires a one dimensional solution space")
    return rec.support.subset(rec.nonzero_terms())


# ---------------------------------------------------------------------------
# Applying a recurrence
# ---------------------------------------------------------------------------


def _specialized_coefficients(
    rec: ModularRecurrence | SymbolicRecurrence, table: CofactorTable
) -> np.ndarray:
    p = table.modulus.p
    if isinstance(rec, ModularRecurrence):
        if rec.prime != p:
            raise ValueError("recurrence and table prime differ")
        if rec.q_int != table.q_int:
            raise ValueError(
                f"modular recurrence is bound to q={rec.q_int}, table has q={table.q_int}"
            )
        return rec.coefficients
    return rec.specialize(table.q_int, p)


def apply_recurrence(
    rec: ModularRecurrence | SymbolicRecurrence, table: CofactorTable, n: int, j: int
) -> FieldElement:
    """Evaluate the recurrence's left side at one table position.

    Zero means the recurrence annihilates the table there.  A symbolic
    recurrence is specialized at the table's q point first.
    """
    p = table.modulus.p
    qpt = table.qpoint()
    coeffs = _specialized_coefficients(rec, table)
    acc = 0
    for c, term in zip(coeffs, rec.support.terms):
        c = int(c)
        if c == 0:
            continue
        alpha, beta = term[0], term[1]
        shift_n, shift_j = _term_shifts(term)
        exp = alpha * n + beta * j
        val = table.value(n + shift_n, j + shift_j)
        if val == 0:
            continue
        acc = (acc + c * int(qpt.qpow(exp)[exp]) % p * val) % p
    return FieldElement(acc, table.modulus)


def annihilation_residuals(
    rec: ModularRecurrence | SymbolicRecurrence, table: CofactorTable
) -> np.ndarray:
    """Residual grid R[n, j] over the whole triangle, vectorized.

    R[n, j] for 1 <= j <= n <= n_max - max_shift_n; entries outside the
    triangle are zero.
    """
    p = table.modulus.p
    qpt = table.qpoint()
    coeffs = _specialized_coefficients(rec, table)
    shift_j_max = rec.support.max_shift_j
    shift_n_max = rec.support.max_shift_n
    nmax = table.n_max - shift_n_max
    b = table.padded(extra_cols=shift_j_max)
    n_idx = np.arange(nmax + 1, dtype=np.int64)
    max_exp = 0
    for term in rec.support.terms:
        max_exp = max(max_exp, term[0] * nmax + term[1] * nmax)
    pw = qpt.qpow(max_exp)
    acc = np.zeros((nmax + 1, nmax + 1), dtype=np.int64)
    for c, term in zip(coeffs, rec.support.terms):
        c = int(c)
        if c == 0:
            continue
        alpha, beta = term[0], term[1]
        shift_n, shift_j = _term_shifts(term)
        qa = pw[alpha * n_idx] * c % p
        qb = pw[beta * n_idx]
        block = b[shift_n : shift_n + nmax + 1, shift_j : shift_j + nmax + 1]
        acc = (acc + qa[:, None] * qb[None, :] % p * block) % p
    # zero out everything outside 1 <= j <= n
    mask = np.tril(np.ones((nmax + 1, nmax + 1), dtype=bool))
    mask[:, 0] = False
    mask[0, :] = False
    acc[~mask] = 0
    return acc


# ---------------------------------------------------------------------------
# Sweeping q points
# ---------------------------------------------------------------------------


def _sweep_one(args):
    q_int, p, n_max, support, pivot_term = args
    modulus = PrimeModulus(p)
    try:
        table = build_table(n_max, QPoint(q_int, modulus))
    except SingularMatrix as exc:
        return q_int, None, 0, f"singular table: {exc}"
    try:
        rec = guess_modular(table, support)
    except NoRecurrence:
        return q_int, None, 0, "trivial nullspace"
    if rec.nullspace_dim != 1:
        return q_int, None, rec.nullspace_dim, f"nullspace dimension {rec.nullspace_dim}"
    k = support.terms.index(pivot_term)
    piv = int(rec.coefficients[k])
    if piv == 0:
        return q_int, None, 1, "pivot coefficient vanishes"
    coeffs = rec.coefficients * pow(piv, -1, p) % p
    return q_int, coeffs, 1, None


def sweep(
    support: AnsatzSupport,
    q_from: int,
    q_to: int,
    p: int = PrimeModulus().p,
    n_max: int = 35,
    pivot_term: Term | None = None,
    workers: int = 1,
    min_points: int = 12,
) -> list[ModularRecurrence]:
    """Guess with a fixed support at every q in [q_from, q_to].

    All surviving recurrences are normalized on the same pivot term (by
    default the support's first term), so across q points each coefficient
    is a sample of one rational function of q.  Points where the table is
    singular, the nullspace dimension differs from 1, or the pivot
    coefficient vanishes are logged and skipped.  Raises TooFewPoints when
    a nonempty range yields fewer than min_points survivors.
    """
    if q_from < 2:
        raise ValueError("sweeps start at q >= 2")
    if q_to < q_from:
        return []
    if pivot_term is None:
        pivot_term = support.terms[0]
    pivot_term = tuple(pivot_term)
    if pivot_term not in support.terms:
        raise ValueError(f"pivot term {pivot_term} not in support")
    jobs = [(q, p, n_max, support, pivot_term) for q in range(q_from, q_to + 1)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs, chunksize=4))
    else:
        results = [_sweep_one(job) for job in jobs]
    out = []
    for q_int, coeffs, dim, reason in sorted(results, key=lambda r: r[0]):
        if coeffs is None:
            log.warning("sweep skipped q=%d: %s", q_int, reason)
            continue
        out.append(
            ModularRecurrence(
                support=support,
                q_int=q_int,
                prime=p,
                coefficients=coeffs,
                pivot_term=pivot_term,
                nullspace_dim=dim,
            )
        )
    if len(out) < min_points:
        raise TooFewPoints(
            f"only {len(out)} of {len(jobs)} q points survived (need {min_points})"
        )
    return out


# ---------------------------------------------------------------------------
# Symbolic reconstruction
# ---------------------------------------------------------------------------


def _fraction_poly_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fraction_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _fraction_poly_trim(out)


def _fraction_poly_divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(rem) < len(b):
        return [], _fraction_poly_trim(rem)
    quot = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        if c:
            quot[k] = c
            for i, bc in enumerate(b):
                rem[k + i] -= c * bc
    return _fraction_poly_trim(quot), _fraction_poly_trim(rem)


def _fraction_poly_monic(a: list[Fraction]) -> list[Fraction]:
    if not a:
        return a
    lead = a[-1]
    return [c / lead for c in a]


def _fraction_poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _fraction_poly_divmod(a, b)[1]
    return _fraction_poly_monic(a)


def _fraction_poly_lcm(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    g = _fraction_poly_gcd(a, b)
    q, r = _fraction_poly_divmod(a, g)
    assert not r
    return _fraction_poly_monic(_fraction_poly_mul(q, b))


def _lift_poly_coeffs(coeffs: Sequence[int], p: int) -> list[Fraction]:
    out = []
    for c in coeffs:
        a, b = reconstruct_rational_number(c, p)
        out.append(Fraction(a, b))
    return out


def reconstruct_symbolic(
    recs: Sequence[ModularRecurrence],
    start_bounds: tuple[int, int] = (5, 5),
    cap_bounds: tuple[int, int] = (64, 64),
) -> SymbolicRecurrence:
    """Combine a sweep's modular recurrences into integer polynomials in q.

    Per term: Cauchy-interpolate the (q, coefficient) samples as a rational
    function over GF(p) under adaptively doubled degree bounds, lift its
    coefficients to rationals by rational number reconstruction, clear the
    common polynomial and scalar denominators across the whole coefficient
    vector, and divide by the joint integer content.  The result is
    re-verified against every sample before it is returned.
    """
    if not recs:
        raise TooFewPoints("no modular recurrences to combine")
    support = recs[0].support
    p = recs[0].prime
    pivot = recs[0].pivot_term
    for r in recs:
        if r.support != support or r.prime != p or r.pivot_term != pivot:
            raise ValueError("sweep results disagree on support, prime, or pivot")
    modulus = PrimeModulus(p)
    q_points = [r.q_int for r in recs]
    xs = [r.q_int % p for r in recs]
    if len(set(xs)) != len(xs):
        raise ValueError("q points collide mod p")
    samples_by_term = np.stack([r.coefficients for r in recs], axis=1)

    fitted: list[tuple[list[Fraction], list[Fraction]]] = []
    for k, term in enumerate(support.terms):
        points = list(zip(xs, (int(v) for v in samples_by_term[k])))
        dn, dd = start_bounds
        while True:
            if len(points) < dn + dd + 2:
                raise ReconstructionFailed(
                    f"term {term}: {len(points)} samples cannot support degree "
                    f"bounds ({dn}, {dd}); widen the sweep"
                )
            try:
                num_fit, den_fit = reconstruct_rational_function(points, dn, dd, modulus)
                break
            except NoFit:
                if (dn, dd) >= cap_bounds:
                    raise ReconstructionFailed(
                        f"term {term}: no rational function fit within cap {cap_bounds}"
                    )
                dn = min(2 * dn, cap_bounds[0])
                dd = min(2 * dd, cap_bounds[1])
            except PoleAtSample as exc:
                log.warning("term %s: dropping sample at x=%d (pole)", term, exc.x)
                points = [pt for pt in points if pt[0] != exc.x]
        try:
            num = _lift_poly_coeffs(num_fit.coeffs, p)
            den = _lift_poly_coeffs(den_fit.coeffs, p)
        except NoReconstruction as exc:
            raise ReconstructionFailed(
                f"term {term}: rational lift failed ({exc}); widen the sweep"
            ) from exc
        fitted.append((num, den))

    common_den: list[Fraction] = [Fraction(1)]
    for _, den in fitted:
        common_den = _fraction_poly_lcm(common_den, den)
    cleared: list[list[Fraction]] = []
    for num, den in fitted:
        mult, rem = _fraction_poly_divmod(common_den, den)
        assert not rem
        cleared.append(_fraction_poly_mul(num, mult))

    scalar = 1
    for poly in cleared:
        for c in poly:
            scalar = scalar * c.denominator // math.gcd(scalar, c.denominator)
    int_polys = [[int(c * scalar) for c in poly] for poly in cleared]
    content = math.gcd(*(c for poly in int_polys for c in poly))
    if content == 0:
        raise ReconstructionFailed("all coefficients vanished")
    coeffs = [IntegerPoly([c // content for c in poly]) for poly in int_polys]
    pivot_poly = coeffs[support.terms.index(pivot)]
    if pivot_poly.coeffs and pivot_poly.coeffs[-1] < 0:
        coeffs = [IntegerPoly([-c for c in poly.coeffs]) for poly in coeffs]

    sym = SymbolicRecurrence(
        support=support,
        pivot_term=pivot,
        coefficients=coeffs,
        prime=p,
        q_points_used=q_points,
    )
    pivot_idx = support.terms.index(pivot)
    for r in recs:
        x = r.q_int % p
        piv_val = sym.coefficients[pivot_idx].eval_mod(x, p)
        for k in range(len(support)):
            lhs = sym.coefficients[k].eval_mod(x, p)
            rhs = piv_val * int(r.coefficients[k]) % p
            if lhs != rhs:
                raise ReconstructionFailed(
                    f"reconstructed coefficients disagree with the sample at q={r.q_int}"
                )
    return sym


# ---------------------------------------------------------------------------
# Persistence (diff-stable JSON)
# ---------------------------------------------------------------------------


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def recurrence_to_json(rec: ModularRecurrence | SymbolicRecurrence) -> str:
    if isinstance(rec, ModularRecurrence):
        doc = {
            "mode": "modular",
            "prime": rec.prime,
            "support": [list(t) for t in rec.support.terms],
            "bounds": list(rec.support.bounds),
            "pivot": list(rec.pivot_term),
            "coefficients": [int(c) for c in rec.coefficients],
            "q_points_used": [rec.q_int],
            "metadata": {
                "nullspace_dim": rec.nullspace_dim,
                "zero_count": rec.zero_count(),
                "term_count": len(rec.support),
            },
        }
    else:
        doc = {
            "mode": "symbolic",
            "prime": rec.prime,
            "support": [list(t) for t in rec.support.terms],
            "bounds": list(rec.support.bounds),
            "pivot": list(rec.pivot_term),
            "coefficients": [list(c.coeffs) for c in rec.coefficients],
            "q_points_used": list(rec.q_points_used),
            "metadata": {
                "max_abs_coefficient": rec.max_abs_coefficient(),
                "term_count": len(rec.support),
            },
        }
    return _canonical_json(doc)


def save_recurrence(rec: ModularRecurrence | SymbolicRecurrence, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(recurrence_to_json(rec))
    return path


def load_recurrence(path: str | Path) -> ModularRecurrence | SymbolicRecurrence:
    doc = json.loads(Path(path).read_text())
    support = AnsatzSupport(
        tuple(tuple(t) for t in doc["support"]), tuple(doc["bounds"])
    )
    pivot = tuple(doc["pivot"])
    if doc["mode"] == "modular":
        return ModularRecurrence(
            support=support,
            q_int=doc["q_points_used"][0],
            prime=doc["prime"],
            coefficients=np.array(doc["coefficients"], dtype=np.int64),
            pivot_term=pivot,
            nullspace_dim=doc["metadata"]["nullspace_dim"],
        )
    if doc["mode"] == "symbolic":
        return SymbolicRecurrence(
            support=support,
            pivot_term=pivot,
            coefficients=[IntegerPoly(c) for c in doc["coefficients"]],
            prime=doc["prime"],
            q_points_used=list(doc["q_points_used"]),
        )
    raise ValueError(f"unknown recurrence mode {doc['mode']!r}")
