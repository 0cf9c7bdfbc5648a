"""Discovery of the certificate table's bivariate q-recurrence.

Pipeline: build an overdetermined linear system from the ansatz
sum over terms (alpha, beta, gamma) of
c[alpha, beta, gamma] * q**(alpha*n) * q**(beta*j) * B(n, j + gamma) = 0,
one equation per table position, extract the modular nullspace, refine the
support by dropping zero coefficients, repeat the computation across a range
of q points, and reconstruct the coefficients as integer polynomials in q
via rational function reconstruction over one shared denominator, then
rational number reconstruction.  The sweep knows each point's answer shape
(a one dimensional kernel, normalized on the pivot term), so it takes the
nullspace of equation rows fixed once, certified by the residual on every
row, and the nullspace of the whole system only as the fallback.  Table
values beyond the triangular domain in j read as zero (zero extension).
The sweep eliminates each system in staircase order (_staircase): columns
by descending gamma, rows by descending n - j, so the elimination leaves a
row untouched until its first structurally nonzero column is reached.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .cofactors import CofactorTable, build_table
from .fieldcore import (
    IntegerPoly,
    InvalidInput,
    NoFit,
    PoleAtSample,
    NoReconstruction,
    PrimeModulus,
    SingularMatrix,
    WorkbenchError,
    _echelon_mod,
    _poly_eval,
    _poly_mul,
    matvec_mod,
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


#: (alpha, beta, gamma): the ansatz term q**(alpha*n) * q**(beta*j) * B(n, j + gamma).
Term = tuple[int, int, int]


@dataclass(frozen=True)
class AnsatzSupport:
    """Ansatz terms sorted by (gamma, beta, alpha), plus the generating bounds."""

    terms: tuple[Term, ...]
    bounds: tuple[int, ...] = (4, 7, 10)

    def __post_init__(self):
        try:
            terms = {tuple(operator.index(x) for x in t) for t in self.terms}
        except TypeError as exc:
            raise InvalidInput(f"ansatz exponents must be integers: {exc}") from None
        terms = tuple(sorted(terms, key=lambda t: t[::-1]))
        if not terms:
            raise InvalidInput("support must contain at least one term")
        for t in terms:
            if len(t) != 3:
                raise InvalidInput(f"term {t} is not an (alpha, beta, gamma) triple")
            if any(x < 0 for x in t):
                raise InvalidInput(f"negative exponent in term {t}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))

    @classmethod
    def full(cls, alpha_max: int = 4, beta_max: int = 7, gamma_max: int = 10) -> "AnsatzSupport":
        """The complete grid of terms up to the given exponent bounds."""
        if min(alpha_max, beta_max, gamma_max) < 0:
            raise InvalidInput(f"negative ansatz bound in {(alpha_max, beta_max, gamma_max)}")
        terms = [
            (a, b, g)
            for g in range(gamma_max + 1)
            for b in range(beta_max + 1)
            for a in range(alpha_max + 1)
        ]
        return cls(tuple(terms), (alpha_max, beta_max, gamma_max))

    def subset(self, terms: Sequence[Term]) -> "AnsatzSupport":
        return AnsatzSupport(tuple(terms), self.bounds)

    @property
    def max_shift_j(self) -> int:
        return max(t[2] for t in self.terms)

    def __len__(self):
        return len(self.terms)


def _check_recurrence(rec, noun: str, is_zero) -> None:
    """One coefficient per support term, and a nonzero one on the pivot term."""
    count, terms = len(rec.coefficients), rec.support.terms
    if count != len(terms):
        raise InvalidInput(f"recurrence has {count} {noun}s for {len(terms)} support terms")
    if rec.pivot_term not in terms:
        raise InvalidInput(f"pivot term {rec.pivot_term} is not in the support")
    if is_zero(rec.coefficients[terms.index(rec.pivot_term)]):
        raise InvalidInput(f"pivot term {rec.pivot_term} has a zero {noun}")


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
        _check_recurrence(self, "coefficient", lambda c: c == 0)

    def zero_count(self) -> int:
        return int(np.count_nonzero(self.coefficients == 0))

    def nonzero_terms(self) -> tuple[Term, ...]:
        return tuple(
            t for t, c in zip(self.support.terms, self.coefficients) if c != 0
        )

    def specialize(self, q_int: int, prime: int | None = None) -> np.ndarray:
        """The coefficients; InvalidInput at another prime or another q point."""
        if prime is not None and prime != self.prime:
            raise InvalidInput("recurrence and table prime differ")
        if q_int != self.q_int:
            raise InvalidInput(
                f"modular recurrence is bound to q={self.q_int}, table has q={q_int}"
            )
        return self.coefficients


@dataclass(frozen=True)
class SymbolicRecurrence:
    """Recurrence with integer-polynomial coefficients in q, content 1; frozen,
    with tuple coefficients, so the residue matrix kept per prime cannot go stale."""

    support: AnsatzSupport
    pivot_term: Term
    coefficients: tuple[IntegerPoly, ...]
    prime: int
    q_points_used: list[int] = field(default_factory=list)
    _by_prime: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        _check_recurrence(self, "coefficient polynomial", IntegerPoly.is_zero)

    def _residues(self, p: int) -> np.ndarray:
        """[d, k] = coefficient of q**d in polynomial k, mod p; built once per p."""
        if p not in self._by_prime:
            m = np.zeros((max(c.degree for c in self.coefficients) + 1, len(self.coefficients)),
                         dtype=np.int64)
            for k, c in enumerate(self.coefficients):
                m[: len(c.coeffs), k] = [v % p for v in c.coeffs]
            self._by_prime[p] = m
        return self._by_prime[p]

    def max_abs_coefficient(self) -> int:
        return max(c.max_abs_coefficient() for c in self.coefficients)

    def specialize(self, q_int: int, prime: int | None = None) -> np.ndarray:
        """Residues of every coefficient polynomial at q_int mod the prime,
        by one Horner pass over the residue matrix."""
        p = prime if prime is not None else self.prime
        return _poly_eval(self._residues(p), q_int % p, p)


# ---------------------------------------------------------------------------
# Equation system and modular guessing
# ---------------------------------------------------------------------------


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
    ns, js = (idx + 1 for idx in np.tril_indices(table.n_max))
    b = table.padded(extra_cols=support.max_shift_j)
    at = ns * b.shape[1] + js  # (n, j) as an index into b.ravel()
    b = b.ravel()
    terms = np.array(support.terms)
    pw = table.qpoint().qpow(int((terms[:, 0] + terms[:, 1]).max()) * table.n_max)
    cols = np.empty((len(table), len(support)), dtype=np.int64)
    gammas = terms[:, 2]  # ascending: the support is sorted by (gamma, beta, alpha)
    for gamma in range(support.max_shift_j + 1):
        lo, hi = np.searchsorted(gammas, [gamma, gamma + 1])
        exps = np.outer(ns, terms[lo:hi, 0]) + np.outer(js, terms[lo:hi, 1])
        cols[:, lo:hi] = pw[exps] * b[at + gamma, None] % p
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


def _shift_polys(rec: ModularRecurrence | SymbolicRecurrence, q_int: int, p: int) -> np.ndarray:
    """[gamma, beta, alpha] = c[alpha, beta, gamma] at q_int mod p: P_gamma as [beta, alpha]."""
    alpha, beta, gamma = map(np.array, zip(*rec.support.terms))
    poly = np.zeros((gamma.max() + 1, beta.max() + 1, alpha.max() + 1), dtype=np.int64)
    poly[gamma, beta, alpha] = rec.specialize(q_int, p)
    return poly


def _eval_shift(poly: np.ndarray, xs: np.ndarray, ys: np.ndarray, p: int) -> np.ndarray:
    """P(x, y) at [x, y] for P given as [beta, alpha]: Horner steps in Y, then in X."""
    in_y = _poly_eval(poly[:, :, None], ys, p)  # [alpha, y]
    return _poly_eval(in_y, xs[:, None], p)


def annihilation_residuals(
    rec: ModularRecurrence | SymbolicRecurrence, table: CofactorTable
) -> np.ndarray:
    """Residual grid R[n, j] over the whole triangle, one Horner evaluation per shift.

    R[n, j] for 1 <= j <= n <= n_max; entries outside the triangle are zero.
    The recurrence is specialized at the table's q point first (a modular
    one refuses another q point or prime).

    With X = q**n and Y = q**j, q**(alpha*n + beta*j) = X**alpha * Y**beta,
    so R[n, j] = sum over gamma of B(n, j + gamma) * P_gamma(X, Y), where
    P_gamma is the sum of c[alpha, beta, gamma] * X**alpha * Y**beta over
    the terms of shift gamma.  Each P_gamma is evaluated on the n_max x n_max
    grid by Horner steps in Y on the vector of q**j, then in X (_eval_shift);
    above the diagonal every B(n, j + gamma) reads 0, and so does R.  Every
    product is reduced mod p before it is summed.  _mul_mod is never called:
    it is the product kernel of the elimination whose output this check
    certifies, so a fault there cannot hide from it.
    """
    p, n_max = table.modulus.p, table.n_max
    poly = _shift_polys(rec, table.q_int, p)
    powers = table.qpoint().qpow(n_max)[1:]  # q**k for k = 1..n_max
    b = table.padded(extra_cols=rec.support.max_shift_j)
    grid = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    for g in range(len(poly)):
        at = _eval_shift(poly[g], powers, powers, p)  # P_g(q**n, q**j) at [n, j]
        grid[1:, 1:] += b[1:, 1 + g : 1 + g + n_max] * at % p
        grid %= p
    return grid


# ---------------------------------------------------------------------------
# Sweeping q points
# ---------------------------------------------------------------------------


def _point_table(q_int: int, p: int, n_max: int) -> tuple[CofactorTable | None, str | None]:
    """The sweep's table at q_int, or None and the reason the point is skipped."""
    try:
        return build_table(n_max, QPoint(q_int, PrimeModulus(p))), None
    except SingularMatrix as exc:
        return None, f"singular table: {exc}"


def _fixed_rows(
    support: AnsatzSupport, q_from: int, q_to: int, p: int, n_max: int
) -> np.ndarray | None:
    """len(support) - 1 independent equation rows, picked once for a sweep.

    They are the pivot columns of the row echelon form of M.T for the
    system M at the first q in range whose table builds; None when M's rank
    is not len(support) - 1.
    """
    for q_int in range(q_from, q_to + 1):
        table, _ = _point_table(q_int, p, n_max)
        if table is None:
            continue
        _, pivots, _ = _echelon_mod(build_equations(table, support).T, p)
        return np.array(pivots, dtype=np.intp) if len(pivots) == len(support) - 1 else None
    return None


@lru_cache(maxsize=None)
def _staircase(n_max: int) -> np.ndarray:
    """The equation rows by n - j, descending (ties keep their order), read-only.

    Row (n, j) reads B(n, j + gamma) = 0 for every gamma > n - j, so with
    the columns by descending gamma (the support order reversed) each row
    starts at its first structurally nonzero column, and those ascend.
    """
    ns, js = np.tril_indices(n_max)
    out = np.argsort(js - ns, kind="stable")
    out.setflags(write=False)
    return out


def _sweep_one(args, rows: np.ndarray | None = None):
    """One sweep point: (q, coefficients or None, nullspace dimension, skip reason).

    With fixed rows the point takes the nullspace of those rows of the
    system M alone, and accepts it when it is one vector that is nonzero on
    the pivot term and annihilates every row of M; that makes M's rank
    len(support) - 1, so the vector spans M's kernel.  Otherwise, and
    without fixed rows, the nullspace of the whole of M decides the point.
    Both nullspaces are taken with M's columns reversed and the basis
    permuted back; the fixed rows go in the order given (sweep gives them in
    staircase order), the whole of M in the order of _staircase.  The
    kernel and its dimension, so every outcome, do not depend on the order.
    """
    q_int, p, n_max, support, pivot_term = args
    table, reason = _point_table(q_int, p, n_max)
    if table is None:
        return q_int, None, 0, reason
    k = support.terms.index(pivot_term)
    m = build_equations(table, support)
    if rows is not None:
        basis = nullspace_mod(m[rows, ::-1], p)[:, ::-1]
        if basis.shape[0] != 1 or basis[0, k] == 0:
            cause = "fixed rows are singular"
        elif matvec_mod(m, basis[0], p).any():
            cause = "nonzero residual"
        else:
            return q_int, basis[0] * pow(int(basis[0, k]), -1, p) % p, 1, None
        log.info("sweep q=%d: %s, falling back to the nullspace", q_int, cause)
    basis = nullspace_mod(m[_staircase(n_max), ::-1], p)[:, ::-1]
    dim = basis.shape[0]
    if dim == 0:
        return q_int, None, 0, "trivial nullspace"
    if dim != 1:
        return q_int, None, dim, f"nullspace dimension {dim}"
    if basis[0, k] == 0:
        return q_int, None, 1, "pivot coefficient vanishes"
    return q_int, basis[0] * pow(int(basis[0, k]), -1, p) % p, 1, None


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
    is a sample of one rational function of q.  len(support) - 1
    independent equation rows are fixed once, at the first q whose table
    builds (_fixed_rows), and put in staircase order once (_staircase);
    each point then takes the nullspace of those rows alone, with the
    columns reversed, and accepts it only when it is one vector, nonzero on
    the pivot term, that annihilates every equation row, which proves the
    kernel one dimensional.  A refused vector (the fixed rows are singular,
    or the residual is nonzero) is logged at INFO and the point falls back
    to the nullspace of the whole system, as does every point when no rows
    could be fixed.  Points where the table is singular (build_table also
    refuses a q of too small a multiplicative order), the nullspace dimension
    differs from 1, or the pivot coefficient vanishes are logged and
    skipped.  A table that runs out of p-adic precision (PrecisionExhausted)
    is a limit of this program, not of the q point, and propagates.  Raises
    TooFewPoints when a nonempty range keeps fewer than min_points.
    """
    if q_from < 2:
        raise InvalidInput("sweeps start at q >= 2")
    if q_to < q_from:
        return []
    if pivot_term is None:
        pivot_term = support.terms[0]
    pivot_term = tuple(pivot_term)
    if pivot_term not in support.terms:
        raise ValueError(f"pivot term {pivot_term} not in support")
    jobs = [(q, p, n_max, support, pivot_term) for q in range(q_from, q_to + 1)]
    order = _staircase(n_max)
    rows = _fixed_rows(support, q_from, q_to, p, n_max)
    if rows is not None:
        rows = order[np.isin(order, rows)]
    one = partial(_sweep_one, rows=rows)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, jobs, chunksize=4))
    else:
        results = [one(job) for job in jobs]
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


def reconstruct_symbolic(recs: Sequence[ModularRecurrence]) -> SymbolicRecurrence:
    """Combine a sweep's modular recurrences into integer polynomials in q.

    Every coefficient is a rational function of q over one shared
    denominator, which is built over GF(p) while walking the terms: starting
    from D = 1, each term's (q, coefficient * D(q)) samples are fitted as a
    rational function without degree bounds (maximal-quotient selection, see
    reconstruct_rational_function), and D is multiplied by the fitted monic
    denominator.  D so ends as the monic lcm of all denominators, and a
    term's polynomial is its fitted numerator times the denominators found
    after it.  Those coefficients are lifted to rationals by rational number
    reconstruction, the scalar denominators are cleared, and the joint
    integer content is divided out.  The result is re-verified against
    every sample before it is returned.  A fitted denominator that vanishes
    at a sample raises ReconstructionFailed naming that q: the sweep skips
    q points where the pivot coefficient vanishes, so a true pole never
    reaches the samples and such a sample is corrupt.
    """
    if not recs:
        raise TooFewPoints("no modular recurrences to combine")
    support = recs[0].support
    p = recs[0].prime
    pivot = recs[0].pivot_term
    for r in recs:
        if r.support != support or r.prime != p or r.pivot_term != pivot:
            raise ValueError("sweep results disagree on support, prime, or pivot")
    PrimeModulus(p)  # refuses a p that is not a word-sized prime
    q_points = [r.q_int for r in recs]
    xs = [r.q_int % p for r in recs]
    if len(set(xs)) != len(xs):
        raise ValueError("q points collide mod p")
    samples_by_term = np.stack([r.coefficients for r in recs], axis=1)

    at = np.array(xs, dtype=np.int64)
    d_at = np.ones_like(at)  # the common denominator D at every sample
    fitted: list[tuple[list[int], list[int]]] = []
    for k, term in enumerate(support.terms):
        points = list(zip(xs, (samples_by_term[k] * d_at % p).tolist()))
        try:
            num, den = reconstruct_rational_function(points, p)
        except NoFit as exc:
            raise ReconstructionFailed(
                f"term {term}: no rational function fits its {len(points)} "
                f"samples ({exc}); widen the sweep"
            ) from exc
        except PoleAtSample as exc:
            raise ReconstructionFailed(
                f"term {term}: corrupt sample at q={q_points[xs.index(exc.x)]}, where "
                "the fitted denominator vanishes (the sweep never samples a true pole)"
            ) from exc
        fitted.append((num, den))
        d_at = d_at * _poly_eval(den, at, p) % p

    cleared: list[list[Fraction]] = []
    later = [1]
    for term, (num, den) in zip(reversed(support.terms), reversed(fitted)):
        try:
            lifts = [reconstruct_rational_number(c, p) for c in _poly_mul(num, later, p)]
        except NoReconstruction as exc:
            raise ReconstructionFailed(
                f"term {term}: rational lift failed ({exc}); widen the sweep"
            ) from exc
        cleared.append([Fraction(a, b) for a, b in lifts])
        later = _poly_mul(later, den, p)
    cleared.reverse()

    scalar = math.lcm(*(c.denominator for poly in cleared for c in poly))
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
    values = _poly_eval(sym._residues(p)[:, :, None], at, p)  # [term, sample]
    expected = values[support.terms.index(pivot)] * samples_by_term % p
    bad = np.flatnonzero((values != expected).any(axis=0))
    if bad.size:
        raise ReconstructionFailed(
            f"reconstructed coefficients disagree with the sample at q={q_points[bad[0]]}"
        )
    return sym


# ---------------------------------------------------------------------------
# Persistence (diff-stable JSON)
# ---------------------------------------------------------------------------


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def recurrence_to_json(rec: ModularRecurrence | SymbolicRecurrence) -> str:
    doc = {
        "prime": rec.prime,
        "support": [list(t) for t in rec.support.terms],
        "bounds": list(rec.support.bounds),
        "pivot": list(rec.pivot_term),
    }
    meta = {"term_count": len(rec.support)}
    if isinstance(rec, ModularRecurrence):
        doc.update(mode="modular", coefficients=[int(c) for c in rec.coefficients],
                   q_points_used=[rec.q_int])
        meta.update(nullspace_dim=rec.nullspace_dim, zero_count=rec.zero_count())
    else:
        doc.update(mode="symbolic", coefficients=[list(c.coeffs) for c in rec.coefficients],
                   q_points_used=list(rec.q_points_used))
        meta.update(max_abs_coefficient=rec.max_abs_coefficient())
    return _canonical_json({**doc, "metadata": meta})


def save_recurrence(rec: ModularRecurrence | SymbolicRecurrence, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(recurrence_to_json(rec))
    return path


def _integers(values: list) -> list:
    """values, or ValueError if one is not an integer (1.5 or "x" in a JSON file)."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{v!r} is not an integer")
    return values


def load_recurrence(path: str | Path) -> ModularRecurrence | SymbolicRecurrence:
    """Read a recurrence file; InvalidInput if unreadable, incomplete, unknown or non-integer."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read recurrence file {path}: {exc}") from exc
    try:
        terms = tuple(tuple(_integers(t)) for t in doc["support"])
        support = AnsatzSupport(terms, tuple(doc["bounds"]))
        pivot, coefficients, prime = tuple(doc["pivot"]), doc["coefficients"], doc["prime"]
        qs = list(doc["q_points_used"])
        if doc["mode"] == "modular":
            coefficients = np.array(_integers(coefficients), dtype=np.int64)
            dim = doc["metadata"]["nullspace_dim"]
            return ModularRecurrence(support, qs[0], prime, coefficients, pivot, dim)
        if doc["mode"] == "symbolic":
            coefficients = [IntegerPoly(_integers(c)) for c in coefficients]
            return SymbolicRecurrence(support, pivot, coefficients, prime, qs)
    except KeyError as exc:
        raise InvalidInput(f"recurrence file {path} has no {exc.args[0]!r} key") from exc
    except (TypeError, IndexError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed recurrence file {path}: {exc}") from exc
    raise InvalidInput(f"recurrence file {path} has unknown mode {doc['mode']!r}")
