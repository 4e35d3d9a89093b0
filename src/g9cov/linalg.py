"""Dense exact linear algebra over Q(zeta_8).

Matrices are immutable row-major tuples of CycNum.  Everything here is
exact: determinants use fraction-free (Bareiss) elimination, inverses and
nullspaces come from a deterministic reduced row echelon form whose pivot
is always the first nonzero entry in column order, so repeated runs give
byte-identical output.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .cyclo import CycNum, ONE, ZERO, rational


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class SingularMatrixError(ZeroDivisionError):
    """Matrix inversion was requested for a singular matrix."""


def _cyc(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    return rational(x)


class Mat:
    """An exact rows x cols matrix over Q(zeta_8)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(_cyc(e) for e in entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> Mat:
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ShapeError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Mat:
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def diagonal(cls, values: Iterable) -> Mat:
        values = [_cyc(v) for v in values]
        n = len(values)
        return cls(n, n, [values[i] if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, values: Iterable) -> Mat:
        values = list(values)
        return cls(len(values), 1, values)

    def at(self, i: int, j: int) -> CycNum:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycNum, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list[CycNum]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                acc = ZERO
                for t in range(k):
                    av = arow[t]
                    if not av.is_zero():
                        acc = acc + av * b[t * m + j]
                out.append(acc)
        return Mat(n, m, out)

    def scale(self, c) -> Mat:
        c = _cyc(c)
        return Mat(self.rows, self.cols, [c * e for e in self.entries])

    def __add__(self, other: Mat) -> Mat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        return Mat(self.rows, self.cols,
                   [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: Mat) -> Mat:
        return self + other.scale(-1)

    def __neg__(self) -> Mat:
        return self.scale(-1)

    def __pow__(self, k: int) -> Mat:
        if self.rows != self.cols:
            raise ShapeError("power of a non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        result = Mat.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result.matmul(base)
            base = base.matmul(base)
            k >>= 1
        return result

    def trace(self) -> CycNum:
        if self.rows != self.cols:
            raise ShapeError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def is_diagonal(self) -> bool:
        return all(self.at(i, j).is_zero()
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def key(self):
        """Canonical hashable key built from the reduced entry coordinates."""
        return (self.rows, self.cols) + tuple(e.key() for e in self.entries)

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Mat[{rows}]"

    # -- elimination-based operations ----------------------------------------------

    def det(self) -> CycNum:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return ONE
        m = self.to_lists()
        sign = 1
        prev = ONE
        for k in range(n - 1):
            if m[k][k].is_zero():
                for i in range(k + 1, n):
                    if not m[i][k].is_zero():
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return ZERO
            pivot = m[k][k]
            for i in range(k + 1, n):
                mik = m[i][k]
                row = m[i]
                prow = m[k]
                for j in range(k + 1, n):
                    row[j] = (pivot * row[j] - mik * prow[j]) / prev
                row[k] = ZERO
            prev = pivot
        d = m[n - 1][n - 1]
        return -d if sign < 0 else d

    def inverse(self) -> Mat:
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + [ONE if i == j else ZERO for j in range(n)]
               for i in range(n)]
        reduced, pivots = rref(aug)
        if len(pivots) < n or pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(n, n, [reduced[i][n + j] for i in range(n) for j in range(n)])

    def nullspace(self) -> list[Mat]:
        """Basis of the right nullspace as column vectors in normal form.

        Each basis vector carries coordinate 1 at its own pivot-free column
        and 0 at every other pivot-free column.
        """
        reduced, pivots = rref(self.to_lists())
        return [Mat.column(v) for v in nullspace_from_rref(reduced, pivots, self.cols)]


def rref(rows: list[list[CycNum]]) -> tuple[list[list[CycNum]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns).

    Pivot choice is the first nonzero entry in column order, scanning rows
    top to bottom, which makes the result canonical for the row space.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * e for e in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f.is_zero():
                continue
            row = rows[i]
            rows[i] = [row[j] - f * prow[j] for j in range(ncols)]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace_from_rref(reduced: list[list[CycNum]], pivots: list[int],
                        ncols: int) -> list[list[CycNum]]:
    """Nullspace basis vectors (as coordinate lists) from an RREF."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def solve_exact(a: Mat, b: Mat) -> Mat:
    """Solve a X = b exactly for a with full column rank.

    Raises SingularMatrixError if the columns of ``a`` are dependent and
    ValueError if the system is inconsistent.
    """
    if a.rows != b.rows:
        raise ShapeError("row count mismatch in solve")
    n, s, m = a.rows, a.cols, b.cols
    aug = [list(a.row(i)) + list(b.row(i)) for i in range(n)]
    reduced, pivots = rref(aug)
    lead = [p for p in pivots if p < s]
    if len(lead) < s:
        raise SingularMatrixError("coefficient columns are dependent")
    if any(p >= s for p in pivots):
        raise ValueError("inconsistent linear system")
    x = [[ZERO] * m for _ in range(s)]
    for r, p in enumerate(lead):
        for j in range(m):
            x[p][j] = reduced[r][s + j]
    return Mat.from_rows(x)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product in lexicographic basis order: (a kron b)(v kron w) = av kron bw."""
    out = []
    for i in range(a.rows):
        for p in range(b.rows):
            for j in range(a.cols):
                aij = a.at(i, j)
                for q in range(b.cols):
                    out.append(aij * b.at(p, q))
    return Mat(a.rows * b.rows, a.cols * b.cols, out)


def mat_to_json(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [e.to_json() for e in m.entries]}


def mat_from_json(data: dict) -> Mat:
    return Mat(data["rows"], data["cols"],
               [CycNum.from_json(e) for e in data["entries"]])
