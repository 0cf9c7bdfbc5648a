"""Certificate values and determinant oracles.

The certificate table holds, for one (q point, prime) pair, the normalized
last-row cofactors of every leading principal minor of the entry matrix:
row n is the unique vector x with x[n] = 1 that is orthogonal to rows
1..n-1 of the matrix (the orthogonality and normalization identities).
The rows are nested kernels of one matrix, so one GF(p) elimination yields
every row whose leading minor is a unit mod p.  The others share one
elimination mod p**digits on unit pivots, then take one small Schur
complement solve each, and are re-checked mod p**digits before they are
reduced mod p.  The digits are chosen once per table from the p-adic
valuations of Okada's layers, capped at PADIC_PRECISION (PrecisionExhausted
past the cap, or when a solve needs more than predicted).  A
q != 1 of multiplicative order below MIN_Q_ORDER has no table (the entry
matrix collapses there): build_table refuses it for every caller, with the
SingularMatrix that check_q_order raises.

Okada's identity is one matrix product, certificate_product: R = A B^T, A
the entry matrix and B the table, is lower triangular (orthogonality) with
the layer ratios on its diagonal.  build_table computes R once per table,
read-only; the identity checks and det_certified read its leading blocks.
Independent oracles: direct determinant elimination and a minors-based
cofactor computation at small sizes.
"""

from __future__ import annotations

import io
import logging
from operator import mul
from pathlib import Path

import numpy as np

from .fieldcore import (
    InvalidInput,
    PrimeModulus,
    SingularMatrix,
    WorkbenchError,
    _inv_mod,
    _mul_mod,
    det_mod,
    leading_kernels_mod,
)
from .okada import MIN_Q_ORDER, QPoint, entry_matrix, okada_slice

log = logging.getLogger(__name__)


class CofactorTable:
    """Triangular map (n, j) -> B(n, j) residue for 1 <= j <= n <= n_max.

    Stored as one lower-triangular int64 array b[n, j], 1-based, so values
    for j <= 0 and j > n read as 0 (the zero extension the recurrence
    machinery relies on).  Instances are immutable; perturbed copies for
    fault-injection tests come from with_value().  _r caches the table's
    certificate product; copies and loaded tables compute their own.
    """

    __slots__ = ("n_max", "q_int", "modulus", "_b", "_r")

    def __init__(self, q_int: int, modulus: PrimeModulus, b: np.ndarray):
        b = np.mod(np.asarray(b, dtype=np.int64), modulus.p)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 2:
            raise ValueError(f"table array must be square with n_max >= 1, got shape {b.shape}")
        if b[0].any() or b[:, 0].any() or np.triu(b, 1).any():
            raise ValueError("table array has entries outside 1 <= j <= n")
        self.n_max = b.shape[0] - 1
        self.q_int = q_int
        self.modulus = modulus
        self._b = b
        self._r: np.ndarray | None = None

    def qpoint(self) -> QPoint:
        return QPoint(self.q_int, self.modulus)

    def value(self, n: int, j: int) -> int:
        """Residue of B(n, j); zero outside 1 <= j <= n."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"row {n} outside table (n_max={self.n_max})")
        return int(self._b[n, j]) if 1 <= j <= n else 0

    def row(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"row {n} outside table (n_max={self.n_max})")
        return self._b[n, 1 : n + 1].copy()

    def padded(self, extra_cols: int = 0) -> np.ndarray:
        """Array B with B[n, j] = value(n, j), zero padded, 1-based indices."""
        return np.pad(self._b, ((0, 0), (0, extra_cols)))

    def __len__(self):
        return self.n_max * (self.n_max + 1) // 2

    def with_value(self, n: int, j: int, value: int) -> "CofactorTable":
        """Copy with one entry replaced (negative-control helper)."""
        if not (1 <= j <= n <= self.n_max):
            raise IndexError("entry outside the triangular domain")
        b = self._b.copy()
        b[n, j] = value % self.modulus.p
        return CofactorTable(self.q_int, self.modulus, b)

    def truncated(self, n_max: int) -> "CofactorTable":
        if not 1 <= n_max <= self.n_max:
            raise ValueError("bad truncation bound")
        return CofactorTable(self.q_int, self.modulus, self._b[: n_max + 1, : n_max + 1])

    def __eq__(self, other):
        return (
            isinstance(other, CofactorTable)
            and self.q_int == other.q_int
            and self.modulus.p == other.modulus.p
            and np.array_equal(self._b, other._b)
        )

    def __repr__(self):
        return f"CofactorTable(q={self.q_int}, p={self.modulus.p}, n_max={self.n_max})"

    # -- persistence --------------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"{self.q_int} {self.modulus.p} {self.n_max}\n")
        for n, row in enumerate(self._b.tolist()[1:], start=1):
            for j in range(1, n + 1):
                buf.write(f"{n} {j} {row[j]}\n")
        return buf.getvalue()

    def save_text(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_text())
        return path


def load_table(path: str | Path) -> CofactorTable:
    """Read a table file: a `q p n_max` header line, then one `n j value` line per position.

    A file that cannot be read or parsed, or that names a position twice or
    not at all, raises InvalidInput naming the file.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInput(f"cannot read table file {path}: {exc}") from exc
    try:
        header, *lines = data.decode("ascii").splitlines()
        q_int, p, n_max = (int(t) for t in header.split())
        triples = [tuple(int(t) for t in line.split()) for line in lines if line.strip()]
        modulus = PrimeModulus(p)
        # the count is checked first, so a header's n_max allocates nothing the file lacks
        if len(triples) != n_max * (n_max + 1) // 2:
            raise ValueError(f"expected {n_max * (n_max + 1) // 2} triples, got {len(triples)}")
        b = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
        seen = set()
        for n, j, v in triples:
            if not (1 <= j <= n <= n_max):
                raise ValueError(f"triple ({n}, {j}) outside the triangular domain")
            if (n, j) in seen:
                raise ValueError(f"position ({n}, {j}) appears twice")
            seen.add((n, j))
            b[n, j] = v % p
        return CofactorTable(q_int, modulus, b)
    except ValueError as exc:
        raise InvalidInput(f"malformed table file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
#
# At a q point of small multiplicative order (2 has order 31 mod 2**31 - 1)
# some leading minors of the entry matrix are divisible by p although the
# certificate values themselves are p-integral (the prime powers cancel
# between minors).  Those rows are lifted mod p**digits, every lossy pivot
# inside one row's small Schur complement; an orthogonality residual mod
# p**digits against an untouched entry matrix then certifies the lifted
# vector, and the mod-p residual the stored row.  Pivots of total valuation
# d cost up to d digits in elimination and d more in back substitution, and
# the row needs one reliable digit beyond a guard digit: 2d + 2 digits.  d is
# known before any elimination, from the layers of the identity the table
# certifies (_leading_valuations), so a table carries 2d + 2 digits for the
# largest d among its lifted rows (_padic_digits).

#: The most p-adic digits a table may carry; a lifted row with 2d + 2 above
#: it is refused before any elimination.
PADIC_PRECISION = 64


class PrecisionExhausted(WorkbenchError):
    """A lifted row needs more p-adic digits than the table carries or the cap allows."""


def _valuation(v: int, p: int, digits: int) -> int:
    """p-adic valuation of v mod p**digits (digits for 0)."""
    k = 0
    while k < digits and v % p == 0:
        v //= p
        k += 1
    return k


def _leading_valuations(n_max: int, qpt: QPoint) -> list[int]:
    """d[n] = v_p of the leading (n-1)-minor of the entry matrix at q_int, n = 0..n_max.

    By Okada's identity that minor is the product over m < n of layer(m)**2,
    layer m being the product over i <= m of (1 - q**(2m+i-1)) / (1 - q**(m+2i-2))
    (with e in place of 1 - q**e at q = 1).  v_p(1 - q**e) is positive only where
    q's order divides e; it is read mod p**(PADIC_PRECISION + 1), so one past
    the cap reads as PADIC_PRECISION + 1.  With a unit prefix, d[n] is the
    pivot valuation _schur_row reaches for row n.
    """
    p, r = qpt.modulus.p, qpt.order
    top = PADIC_PRECISION + 1
    pk = p**top
    v = [0] * (3 * n_max)
    for e in range(r, 3 * n_max, r):
        v[e] = _valuation(e if qpt.is_unit else (1 - pow(qpt.q_int, e, pk)) % pk, p, top)
    d = [0, 0]
    for m in range(1, n_max):
        d.append(d[-1] + 2 * (sum(v[2 * m : 3 * m]) - sum(v[m : 3 * m - 1 : 2])))
    return d


def _padic_digits(lifted: list[int], qpt: QPoint) -> int:
    """2d + 2 for the largest predicted d among the lifted rows (_leading_valuations).

    The first lifted row whose 2d + 2 exceeds PADIC_PRECISION raises
    PrecisionExhausted naming n, q and d.
    """
    d = _leading_valuations(lifted[-1], qpt)
    for n in lifted:
        if 2 * d[n] + 2 > PADIC_PRECISION:
            raise PrecisionExhausted(
                f"row n={n} at q={qpt.q_int}: the pivot valuation reaches d={d[n]}, but "
                f"PADIC_PRECISION={PADIC_PRECISION} digits allow only 2d + 2 <= "
                f"{PADIC_PRECISION}; raise cofactors.PADIC_PRECISION"
            )
    return 2 * max(d[n] for n in lifted) + 2


def _extend_prefix(m: list[list[int]], lo: int, hi: int, n: int, qpt: QPoint, digits: int) -> None:
    """Eliminate columns lo..hi-1 of m mod p**digits, on unit pivots only.

    Column c pivots on the first of rows c..hi-1 holding a unit, so no digit
    is lost and rows hi onward keep their place; other rows are reduced when
    they become pivots.  A column with no unit (so the leading hi-minor is
    not a unit) raises WorkbenchError naming n, q and the column.
    """
    p = qpt.modulus.p
    pk = p**digits
    for col in range(lo, hi):
        best = next((r for r in range(col, hi) if m[r][col] % p), None)
        if best is None:
            raise WorkbenchError(f"row n={n} at q={qpt.q_int}: prefix column {col} has no unit")
        m[col], m[best] = m[best], m[col]
        unit_inv = pow(m[col][col], -1, pk)
        prow = m[col] = [x * unit_inv % pk for x in m[col]]
        for row in m[col + 1 :]:
            f = row[col] % pk
            if f:
                row[col:] = [x - f * y for x, y in zip(row[col:], prow[col:])]


def _schur_row(m: list[list[int]], k: int, n: int, qpt: QPoint, digits: int) -> list[int]:
    """Row n's kernel vector mod p**digits, past k eliminated columns.

    Eliminates the Schur complement m[k:n-1][k:n] with minimal-valuation
    pivots; with the unit prefix their total valuation d is the valuation of
    the leading (n-1)-minor, so the kernel vector y with y[n-1] = p**d is
    p-integral.  Back substitution finds it.  d is predicted before the
    table's digits are chosen; a solve that reaches 2d + 2 > digits raises
    PrecisionExhausted rather than trust a wrong prediction.
    """
    p = qpt.modulus.p
    pk = p**digits
    u = [row[:n] for row in m[:k]] + [[0] * k + [x % pk for x in r[k:n]] for r in m[k : n - 1]]
    vals = [0] * k
    for col in range(k, n - 1):
        v, best = min((_valuation(u[r][col], p, digits), r) for r in range(col, n - 1))
        vals.append(v)
        if 2 * sum(vals) + 2 > digits:
            raise PrecisionExhausted(
                f"row n={n} at q={qpt.q_int}: the pivot valuation reaches d={sum(vals)}, but "
                f"the {digits} digits predicted from the layer valuations allow only "
                f"2d + 2 <= {digits}"
            )
        u[col], u[best] = u[best], u[col]
        prow, pv = u[col], p**v
        unit_inv = pow(prow[col] // pv, -1, pk)
        for row in u[col + 1 :]:
            f = row[col] // pv * unit_inv % pk
            if f:
                row[col:] = [(x - f * y) % pk for x, y in zip(row[col:], prow[col:])]
    d = sum(vals)
    y = [0] * (n - 1) + [p**d]
    for i in reversed(range(n - 1)):
        acc = -sum(map(mul, u[i][i + 1 :], y[i + 1 :])) % pk
        pv = p ** vals[i]
        y[i] = acc // pv * pow(u[i][i] // pv, -1, pk) % pk
    return y


def check_q_order(qpt: QPoint) -> None:
    """SingularMatrix for a q != 1 of order below MIN_Q_ORDER: it has no table."""
    if not qpt.is_unit and qpt.order < MIN_Q_ORDER:
        raise SingularMatrix(f"q has multiplicative order {qpt.order}")


def build_table(n_max: int, qpt: QPoint) -> CofactorTable:
    """All cofactor rows up to n_max, with orthogonality residuals verified.

    Rows whose leading minor is a unit mod p come from one GF(p) elimination
    (leading_kernels_mod).  The others come in blocks of consecutive n, and
    the leading minor before a block is a unit.  Their p-adic digits are
    chosen once, before any elimination (_padic_digits, which refuses a row
    past the PADIC_PRECISION cap): one elimination mod p**digits on unit
    pivots, extended once per block (_extend_prefix), reaches each block,
    and each of its rows is one small Schur complement solve (_schur_row),
    which raises PrecisionExhausted when those digits do not suffice.  A
    lifted row must be orthogonal mod p**digits to an untouched entry
    matrix before its least p-power is divided out, leaving p**s times the
    rational row (s > 0 is seen only by the normalization check: every
    other identity is homogeneous within a row).  Every row is then checked
    at once: the certificate product, from the entry matrix eliminated and
    kept on the table, must vanish above its diagonal, or SingularMatrix
    names the first row that fails, as does a lifted row failing its check
    mod p**digits.
    A q point of too small an order is refused first (check_q_order).
    """
    check_q_order(qpt)
    if n_max < 1:
        raise InvalidInput("n_max must be >= 1")
    p = qpt.modulus.p
    a = okada_slice(n_max, qpt)
    rows = leading_kernels_mod(a, p)
    lifted = [n for n in range(2, n_max + 1) if n not in rows]
    if lifted:  # rows < n - 1 and columns < n of the entry matrix serve row n
        digits = _padic_digits(lifted, qpt)
        pk = p**digits
        whole = entry_matrix(lifted[-1], qpt.q_int, pk).tolist()[:-1]
        m = [row[:] for row in whole]
    k = 0  # columns < k of m are eliminated
    for n in lifted:
        log.info("minor system singular mod p at n=%d, q=%d; lifting precision", n, qpt.q_int)
        if n - 1 not in lifted:  # a block starts: row n - 1 says the (n-2)-minor is a unit
            _extend_prefix(m, k, n - 2, n, qpt, digits)
            k = n - 2
        y = _schur_row(m, k, n, qpt, digits)
        if any(sum(map(mul, row, y)) % pk for row in whole[: n - 1]):
            msg = f"row n={n} fails the orthogonality identity mod p**{digits}"
            raise SingularMatrix(f"{msg} at q={qpt.q_int}", n)
        low = min(_valuation(v, p, digits) for v in y)
        s = _valuation(y[-1], p, digits) - low
        if s:
            log.info("row n=%d at q=%d stored as p**%d times the rational row", n, qpt.q_int, s)
        rows[n] = [v // p**low % p for v in y]
    b = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    for n, x in rows.items():
        b[n, 1 : n + 1] = x
    table = CofactorTable(qpt.q_int, qpt.modulus, b)
    bad = np.nonzero(np.triu(_store_product(table, a), 1).any(axis=0))[0]
    if bad.size:
        n = int(bad[0]) + 1
        raise SingularMatrix(f"row n={n} fails the orthogonality identity at q={qpt.q_int}", n)
    return table


def _store_product(table: CofactorTable, a: np.ndarray) -> np.ndarray:
    """The table's R = A B^T from its n_max x n_max entry matrix a, kept read-only."""
    r = _mul_mod(a, table._b[1:, 1:].T, table.modulus.p)
    r.flags.writeable = False
    table._r = r
    return r


def certificate_product(table: CofactorTable, L: int) -> np.ndarray:
    """R = A B^T mod p for n <= L, A the entry matrix and B the table (read-only).

    R[i-1, n-1] is the sum over j of a(i, j) B(n, j).  Orthogonality of every
    row n <= L says R is lower triangular; its diagonal holds the layer
    ratios (Okada's identity), whose product is the determinant.  As B(n, j)
    vanishes for j > n, it is the leading block of the table's whole R.
    """
    if L > table.n_max:
        raise ValueError(f"table at q={table.q_int} covers only n <= {table.n_max}")
    if table._r is None:
        _store_product(table, okada_slice(table.n_max, table.qpoint()))
    return table._r[:L, :L]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def det_direct(n: int, qpt: QPoint) -> int:
    """Determinant of the full n x n entry matrix by elimination."""
    if n < 1:
        raise ValueError("n must be positive")
    return det_mod(okada_slice(n, qpt), qpt.modulus.p)


def det_certified(n: int, table: CofactorTable) -> int:
    """Telescoped determinant: the product of the first n layer ratios, diag R."""
    if n < 1:
        raise ValueError("n must be positive")
    p = table.modulus.p
    acc = 1
    for v in np.diagonal(certificate_product(table, n)).tolist():
        acc = acc * v % p
    return acc


def cofactor_by_minors(n: int, j: int, qpt: QPoint) -> int:
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
    return v * _inv_mod(det_lead, p) % p
