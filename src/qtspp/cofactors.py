"""Certificate values and determinant oracles.

The certificate table holds, for one (q point, prime) pair, the normalized
last-row cofactors of every leading principal minor of the entry matrix:
row n is the unique vector x with x[n] = 1 that is orthogonal to rows
1..n-1 of the matrix (the orthogonality and normalization identities).
Each row comes from an independent dense solve over GF(p) and is re-checked
against the orthogonality identity before the table is accepted.

Independent oracles: direct determinant elimination, the telescoped
certificate product, and a minors-based cofactor computation at small sizes.
"""

from __future__ import annotations

import io
import logging
import struct
from pathlib import Path

import numpy as np

from .fieldcore import (
    FieldElement,
    PrimeModulus,
    SingularMatrix,
    _inv_mod,
    det_mod,
    matvec_mod,
    solve_mod,
)
from .okada import QPoint, okada_slice

log = logging.getLogger(__name__)

_BINARY_MAGIC = b"QTB1"


class CofactorTable:
    """Triangular map (n, j) -> B(n, j) residue for 1 <= j <= n <= n_max.

    Values for j <= 0 and j > n read as 0 (the zero extension the recurrence
    machinery relies on).  Instances are immutable; perturbed copies for
    fault-injection tests come from with_value().
    """

    __slots__ = ("n_max", "q_int", "modulus", "_rows")

    def __init__(self, n_max: int, q_int: int, modulus: PrimeModulus, rows: list[np.ndarray]):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if len(rows) != n_max:
            raise ValueError("row count does not match n_max")
        self.n_max = n_max
        self.q_int = q_int
        self.modulus = modulus
        self._rows = [np.mod(np.asarray(r, dtype=np.int64), modulus.p) for r in rows]
        for n, r in enumerate(self._rows, start=1):
            if r.shape != (n,):
                raise ValueError(f"row {n} has wrong length {r.shape}")

    def qpoint(self) -> QPoint:
        return QPoint(self.q_int, self.modulus)

    def value(self, n: int, j: int) -> int:
        """Residue of B(n, j); zero outside 1 <= j <= n."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"row {n} outside table (n_max={self.n_max})")
        if j < 1 or j > n:
            return 0
        return int(self._rows[n - 1][j - 1])

    def row(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"row {n} outside table (n_max={self.n_max})")
        return self._rows[n - 1].copy()

    def padded(self, extra_cols: int = 0) -> np.ndarray:
        """Array B with B[n, j] = value(n, j), zero padded, 1-based indices."""
        out = np.zeros((self.n_max + 1, self.n_max + extra_cols + 1), dtype=np.int64)
        for n in range(1, self.n_max + 1):
            out[n, 1 : n + 1] = self._rows[n - 1]
        return out

    def items(self):
        for n in range(1, self.n_max + 1):
            for j in range(1, n + 1):
                yield n, j, int(self._rows[n - 1][j - 1])

    def __len__(self):
        return self.n_max * (self.n_max + 1) // 2

    def with_value(self, n: int, j: int, value: int) -> "CofactorTable":
        """Copy with one entry replaced (negative-control helper)."""
        if not (1 <= j <= n <= self.n_max):
            raise IndexError("entry outside the triangular domain")
        rows = [r.copy() for r in self._rows]
        rows[n - 1][j - 1] = value % self.modulus.p
        return CofactorTable(self.n_max, self.q_int, self.modulus, rows)

    def truncated(self, n_max: int) -> "CofactorTable":
        if not 1 <= n_max <= self.n_max:
            raise ValueError("bad truncation bound")
        return CofactorTable(n_max, self.q_int, self.modulus, self._rows[:n_max])

    def __eq__(self, other):
        return (
            isinstance(other, CofactorTable)
            and self.n_max == other.n_max
            and self.q_int == other.q_int
            and self.modulus.p == other.modulus.p
            and all(np.array_equal(a, b) for a, b in zip(self._rows, other._rows))
        )

    def __repr__(self):
        return f"CofactorTable(q={self.q_int}, p={self.modulus.p}, n_max={self.n_max})"

    # -- persistence --------------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"{self.q_int} {self.modulus.p} {self.n_max}\n")
        for n, j, v in self.items():
            buf.write(f"{n} {j} {v}\n")
        return buf.getvalue()

    def save_text(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_text())
        return path

    def to_binary(self) -> bytes:
        buf = io.BytesIO()
        buf.write(_BINARY_MAGIC)
        buf.write(struct.pack("<QQQ", self.q_int, self.modulus.p, self.n_max))
        for n, j, v in self.items():
            buf.write(struct.pack("<IIQ", n, j, v))
        return buf.getvalue()

    def save_binary(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_bytes(self.to_binary())
        return path


def _table_from_triples(q_int: int, p: int, n_max: int, triples) -> CofactorTable:
    modulus = PrimeModulus(p)
    rows = [np.zeros(n, dtype=np.int64) for n in range(1, n_max + 1)]
    seen = 0
    for n, j, v in triples:
        if not (1 <= j <= n <= n_max):
            raise ValueError(f"triple ({n}, {j}) outside the triangular domain")
        rows[n - 1][j - 1] = v % p
        seen += 1
    if seen != n_max * (n_max + 1) // 2:
        raise ValueError(f"expected {n_max * (n_max + 1) // 2} triples, got {seen}")
    return CofactorTable(n_max, q_int, modulus, rows)


def load_table(path: str | Path) -> CofactorTable:
    """Read a table file, auto-detecting the binary or text layout."""
    data = Path(path).read_bytes()
    if data[:4] == _BINARY_MAGIC:
        q_int, p, n_max = struct.unpack_from("<QQQ", data, 4)
        triples = struct.iter_unpack("<IIQ", data[4 + 24 :])
        return _table_from_triples(q_int, p, n_max, triples)
    lines = data.decode("ascii").splitlines()
    q_int, p, n_max = (int(t) for t in lines[0].split())
    triples = (tuple(int(t) for t in line.split()) for line in lines[1:] if line.strip())
    return _table_from_triples(q_int, p, n_max, triples)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
#
# At a q point of small multiplicative order (2 has order 31 mod 2**31 - 1)
# some leading determinants of the entry matrix are divisible by p, so the
# mod-p minor systems are singular even though the certificate values
# themselves are p-integral (the prime powers cancel between minors).  Rows
# hit by this are re-solved modulo p**K with minimal-valuation pivoting and
# the result reduced mod p; the orthogonality residual check then certifies
# the row exactly like any other.


class _PrecisionLoss(Exception):
    """Internal: mod p**K elimination ran out of p-adic precision."""


class _NotIntegral(Exception):
    """Internal: the solution is not p-integral at the current row scale."""


def _padic_entries(qpt: QPoint, n: int, precision: int) -> list[list[int]]:
    """Entry matrix a(i, j), 1 <= i, j <= n, with exact values mod p**K."""
    pk = qpt.modulus.p ** precision
    q = qpt.q_int % pk
    a_max = 2 * n
    qpow = [1] * (a_max + 1)
    for e in range(1, a_max + 1):
        qpow[e] = qpow[e - 1] * q % pk
    tri = [[1]]
    for a in range(1, a_max):
        prev = tri[-1]
        row = [1] * (a + 1)
        for b in range(1, a):
            row[b] = (prev[b - 1] + qpow[b] * prev[b]) % pk
        tri.append(row)

    def binq(a, b):
        if b < 0 or b > a:
            return 0
        return tri[a][b]

    out = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            v = qpow[i + j - 1] * (binq(i + j - 2, i - 1) + q * binq(i + j - 1, i)) % pk
            if i == j:
                v = (v + 1 + qpow[i]) % pk
            if i == j + 1:
                v = (v - 1) % pk
            row.append(v)
        out.append(row)
    return out


def _solve_padic(a: list[list[int]], b: list[int], p: int, precision: int) -> list[int]:
    """Solve a x = b over Z/p**K, tolerating pivots divisible by p.

    Pivots are chosen with minimal p-valuation per column; the cumulative
    pivot valuation is the precision lost, and the call fails with
    _PrecisionLoss when too few p-adic digits would remain.  _NotIntegral
    signals that the solution itself carries p in a denominator, in which
    case the caller rescales the right side.
    """
    pk = p**precision
    n = len(a)
    m = [row[:] + [rhs % pk] for row, rhs in zip(a, b)]
    loss = 0
    pivot_val = []
    for col in range(n):
        best, best_v = None, None
        for r in range(col, n):
            e = m[r][col]
            if e == 0:
                continue
            v = 0
            while e % p == 0:
                e //= p
                v += 1
            if best is None or v < best_v:
                best, best_v = r, v
                if v == 0:
                    break
        if best is None:
            raise SingularMatrix(f"no usable pivot in column {col} mod p**{precision}")
        loss += best_v
        if 2 * loss + 2 > precision:
            raise _PrecisionLoss
        if best != col:
            m[col], m[best] = m[best], m[col]
        pivot_val.append(best_v)
        pv = p**best_v
        unit_inv = pow(m[col][col] // pv, -1, pk)
        prow = m[col]
        for r in range(col + 1, n):
            e = m[r][col]
            if e == 0:
                continue
            f = (e // pv) * unit_inv % pk
            row = m[r]
            for c in range(col, n + 1):
                row[c] = (row[c] - f * prow[c]) % pk
    x = [0] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n]
        row = m[i]
        for j in range(i + 1, n):
            acc = (acc - row[j] * x[j]) % pk
        pv = p ** pivot_val[i]
        if acc % pv:
            raise _NotIntegral
        x[i] = (acc // pv) * pow(row[i] // pv, -1, pk) % pk
    return x


def _cofactor_row_padic(
    qpt: QPoint, n: int, entry_cache: dict, n_hint: int | None = None
) -> np.ndarray:
    """Row n as p-cleared units: p**s times the exact rational row, mod p.

    s is the smallest shift making the scaled row p-integral; s = 0 is the
    ordinary case.  All identities used downstream (orthogonality residuals,
    recurrence annihilation, the ansatz equations) are homogeneous within a
    row, so the scaling is invisible to them; only the diagonal entry stops
    being 1 when s > 0, which is reported by the normalization check as it
    should be.
    """
    p = qpt.modulus.p
    size = max(n, n_hint or 0)
    for precision in (16, 32, 64):
        if precision not in entry_cache or len(entry_cache[precision]) < n:
            entry_cache[precision] = _padic_entries(qpt, size, precision)
        ents = entry_cache[precision]
        pk = p**precision
        sub = [row[: n - 1] for row in ents[: n - 1]]
        base = [-ents[i][n - 1] for i in range(n - 1)]
        scale = 0
        sol = None
        while scale <= 8:
            rhs = [v * p**scale % pk for v in base]
            try:
                sol = _solve_padic(sub, rhs, p, precision)
                break
            except _NotIntegral:
                scale += 1
            except _PrecisionLoss:
                sol = None
                break
        if sol is None:
            continue
        x = np.empty(n, dtype=np.int64)
        x[: n - 1] = [v % p for v in sol]
        x[n - 1] = pow(p, scale, p) if scale else 1
        if not x.any():
            continue  # over-scaled: precision was insufficient, retry larger
        if scale:
            log.info(
                "row n=%d at q=%d stored as p**%d times the rational row",
                n,
                qpt.q_int,
                scale,
            )
        return x
    err = SingularMatrix(f"minor system at n={n} not solvable even mod p**64")
    err.n = n
    raise err


def _cofactor_row_raw(
    a: np.ndarray, n: int, qpt: QPoint, entry_cache: dict, n_hint: int | None = None
) -> np.ndarray:
    """Row n of the table from the leading (n-1) x (n-1) block of a."""
    p = qpt.modulus.p
    x = np.empty(n, dtype=np.int64)
    x[n - 1] = 1
    if n > 1:
        try:
            x[: n - 1] = solve_mod(a[: n - 1, : n - 1], (p - a[: n - 1, n - 1]) % p, p)
        except SingularMatrix:
            log.info(
                "minor system singular mod p at n=%d, q=%d; lifting precision",
                n,
                qpt.q_int,
            )
            x = _cofactor_row_padic(qpt, n, entry_cache, n_hint)
        residuals = matvec_mod(a[: n - 1, :n], x, p)
        if residuals.any():
            err = SingularMatrix(
                f"row n={n} fails the orthogonality identity at q={qpt.q_int}"
            )
            err.n = n
            raise err
    return x


def build_table(n_max: int, qpt: QPoint) -> CofactorTable:
    """All cofactor rows up to n_max, with orthogonality residuals verified.

    Raises SingularMatrix (carrying the offending n) when some minor system
    is genuinely unsolvable at this q point; the whole q point is then
    abandoned.  Minor systems that are singular only in the mod-p image
    (small-order q) are lifted to higher p-adic precision transparently.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = okada_slice(n_max, qpt)
    entry_cache: dict = {}
    rows = []
    for n in range(1, n_max + 1):
        rows.append(_cofactor_row_raw(a, n, qpt, entry_cache, n_hint=n_max))
    return CofactorTable(n_max, qpt.q_int, qpt.modulus, rows)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def det_direct(n: int, qpt: QPoint) -> FieldElement:
    """Determinant of the full n x n entry matrix by elimination."""
    if n < 1:
        raise ValueError("n must be positive")
    return FieldElement(det_mod(okada_slice(n, qpt), qpt.modulus.p), qpt.modulus)


def det_certified(n: int, table: CofactorTable) -> FieldElement:
    """Telescoped determinant: product over m <= n of the certificate sums."""
    if n < 1:
        raise ValueError("n must be positive")
    if table.n_max < n:
        raise ValueError(f"table covers n <= {table.n_max} < {n}")
    qpt = table.qpoint()
    p = qpt.modulus.p
    a = okada_slice(n, qpt)
    acc = 1
    for m in range(1, n + 1):
        s = int((a[m - 1, :m] * table._rows[m - 1] % p).sum() % p)
        acc = acc * s % p
    return FieldElement(acc, qpt.modulus)


def cofactor_by_minors(n: int, j: int, qpt: QPoint) -> FieldElement:
    """Signed minor over leading determinant, the defining cofactor ratio.

    Oracle-scale only (n <= 10): deletes row n and column j, eliminates,
    and divides by the (n-1) x (n-1) leading determinant.
    """
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if n > 10:
        raise ValueError("minors oracle is restricted to n <= 10")
    p = qpt.modulus.p
    a = okada_slice(n, qpt)
    det_lead = det_mod(a[: n - 1, : n - 1], p) if n > 1 else 1
    if det_lead == 0:
        raise ZeroDivisionError(f"leading determinant vanishes at q={qpt.q_int}")
    cols = [c for c in range(n) if c != j - 1]
    minor = a[: n - 1][:, cols]
    v = det_mod(minor, p) if n > 1 else 1
    if (n + j) % 2 == 1:
        v = (p - v) % p
    return FieldElement(v * _inv_mod(det_lead, p) % p, qpt.modulus)
