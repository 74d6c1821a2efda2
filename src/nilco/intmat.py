"""Exact integer matrix kernel.

Arbitrary-precision integer matrices with fraction-free determinants, the
column Hermite form, cokernel structure and canonical coset
representatives.  One column Hermite form serves every count: its pivot
diagonal gives the cokernel order, the columns of V past the pivots a
kernel basis, and the same form reduces vectors to canonical coset
representatives.  The Smith normal form is computed only for the invariant
factors of `cokernel`.
"""

from dataclasses import dataclass
from math import prod

from .errors import ShapeError


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries, shape=None):
        data = tuple(tuple(self._as_int(x) for x in row) for row in entries)
        if shape is not None:
            r, c = shape
            if len(data) != r:
                raise ShapeError(f"expected {r} rows, got {len(data)}")
        else:
            r = len(data)
            c = len(data[0]) if data else 0
        for row in data:
            if len(row) != c:
                raise ShapeError("ragged rows in matrix input")
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)
        object.__setattr__(self, "data", data)

    @staticmethod
    def _as_int(x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ShapeError(f"matrix entries must be integers, got {x!r}")
        return x

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], shape=(rows, cols))

    @classmethod
    def from_columns(cls, columns, rows):
        """Build a rows x len(columns) matrix from column vectors."""
        for c in columns:
            if len(c) != rows:
                raise ShapeError("column length mismatch")
        return cls(
            [[columns[j][i] for j in range(len(columns))] for i in range(rows)],
            shape=(rows, len(columns)),
        )

    # -- basic algebra ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __sub__(self, other):
        self._same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            shape=(self.rows, self.cols),
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = other.cols
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            out.append(
                [sum(ri[k] * other.data[k][j] for k in range(self.cols)) for j in range(cols)]
            )
        return IntMatrix(out, shape=(self.rows, cols))

    def transpose(self):
        return IntMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            shape=(self.cols, self.rows),
        )

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def apply(self, vec):
        """Matrix-vector product, vec of length cols."""
        if len(vec) != self.cols:
            raise ShapeError(f"vector length {len(vec)} != cols {self.cols}")
        return tuple(sum(row[j] * vec[j] for j in range(self.cols)) for row in self.data)

    @property
    def is_square(self):
        return self.rows == self.cols


def determinant(A):
    """Exact determinant by fraction-free Bareiss elimination."""
    if not A.is_square:
        raise ShapeError(f"determinant of non-square {A.rows}x{A.cols} matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [list(row) for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular, D diagonal with divisibility chain."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple

    @property
    def rank(self):
        return len(self.invariant_factors)


def _row_op(M, i, t, q):
    # row_i -= q * row_t
    Mt = M[t]
    Mi = M[i]
    for j in range(len(Mi)):
        Mi[j] -= q * Mt[j]


def _col_op(M, j, t, q):
    # col_j -= q * col_t
    for row in M:
        row[j] -= q * row[t]


def smith_normal_form(A):
    """Smith normal form with unimodular transformation tracking.

    Pivots are chosen by minimal nonzero absolute value; diagonal entries
    are normalized nonnegative and satisfy d_i | d_{i+1}.
    """
    r, c = A.rows, A.cols
    M = [list(row) for row in A.data]
    U = [list(row) for row in IntMatrix.identity(r).data]
    V = [list(row) for row in IntMatrix.identity(c).data]

    t = 0
    while t < min(r, c):
        # locate minimal-abs nonzero pivot in the trailing submatrix
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = M[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            M[t], M[pi] = M[pi], M[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in M:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]

        while True:
            # clear column t below the pivot
            restarted = False
            for i in range(t + 1, r):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    _row_op(M, i, t, q)
                    _row_op(U, i, t, q)
                    if M[i][t] != 0:
                        # smaller remainder becomes the new pivot
                        M[t], M[i] = M[i], M[t]
                        U[t], U[i] = U[i], U[t]
                        restarted = True
                        break
            if restarted:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, c):
                if M[t][j] != 0:
                    q = M[t][j] // M[t][t]
                    _col_op(M, j, t, q)
                    _col_op(V, j, t, q)
                    if M[t][j] != 0:
                        for row in M:
                            row[t], row[j] = row[j], row[t]
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                        restarted = True
                        break
            if restarted:
                continue
            if any(M[i][t] != 0 for i in range(t + 1, r)):
                continue
            # enforce divisibility of the trailing submatrix by the pivot
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if M[i][j] % M[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is not None:
                _row_op(M, t, offender, -1)
                _row_op(U, t, offender, -1)
                continue
            break

        if M[t][t] < 0:
            for j in range(c):
                M[t][j] = -M[t][j]
            for j in range(r):
                U[t][j] = -U[t][j]
        t += 1

    D = IntMatrix(M, shape=(r, c))
    factors = tuple(M[i][i] for i in range(min(r, c)) if M[i][i] != 0)
    return SmithDecomposition(
        U=IntMatrix(U, shape=(r, r)),
        D=D,
        V=IntMatrix(V, shape=(c, c)),
        invariant_factors=factors,
    )


def rank(A):
    return len(column_hermite(A).pivots)


def kernel_basis(A, hermite=None):
    """Basis of the integer kernel of A (a direct summand of Z^cols).

    These are the columns of V past the pivots of the column Hermite form:
    A @ V == H is zero there and V is unimodular.
    """
    ch = hermite if hermite is not None else column_hermite(A)
    return [ch.V.column(j) for j in range(len(ch.pivots), A.cols)]


@dataclass(frozen=True)
class CokernelStructure:
    """Structure of Z^rows / im(A): free rank plus torsion chain.

    order is None when the cokernel is infinite.
    """

    free_rank: int
    torsion: tuple
    order: object

    @property
    def is_finite(self):
        return self.order is not None


def cokernel(A):
    """Cokernel of A viewed as a map Z^cols -> Z^rows."""
    snf = smith_normal_form(A)
    free_rank = A.rows - snf.rank
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    order = None if free_rank > 0 else prod(torsion)
    return CokernelStructure(free_rank=free_rank, torsion=torsion, order=order)


@dataclass(frozen=True)
class ColumnHermite:
    """Column echelon form: A @ V == H, V unimodular, pivots positive.

    pivots[i] is the row of the pivot in column i; pivot rows are strictly
    increasing and each pivot column is zero above its pivot row.  order is
    the order of the cokernel Z^rows / im(A): the product of the pivot
    diagonal when every row holds a pivot, else None (infinite).
    """

    H: IntMatrix
    V: IntMatrix
    pivots: tuple
    order: object


def column_hermite(A):
    r, c = A.rows, A.cols
    H = [list(row) for row in A.data]
    V = [list(row) for row in IntMatrix.identity(c).data]
    pivots = []
    pc = 0
    for row in range(r):
        if pc >= c:
            break
        # gcd-combine the nonzero entries of this row among columns >= pc
        while True:
            nz = [j for j in range(pc, c) if H[row][j] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(H[row][j]))
            for j in nz:
                if j == j0:
                    continue
                q = H[row][j] // H[row][j0]
                _col_op(H, j, j0, q)
                _col_op(V, j, j0, q)
        nz = [j for j in range(pc, c) if H[row][j] != 0]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != pc:
            for mat in (H, V):
                for rr in mat:
                    rr[pc], rr[j0] = rr[j0], rr[pc]
        if H[row][pc] < 0:
            for rr in H:
                rr[pc] = -rr[pc]
            for rr in V:
                rr[pc] = -rr[pc]
        pivots.append(row)
        pc += 1
    order = prod(H[row][i] for i, row in enumerate(pivots)) if len(pivots) == r else None
    return ColumnHermite(
        H=IntMatrix(H, shape=(r, c)),
        V=IntMatrix(V, shape=(c, c)),
        pivots=tuple(pivots),
        order=order,
    )


def reduce_to_canonical_rep(u, A, hermite=None):
    """Canonical representative of u + im(A) in Z^rows, with exact witness.

    Returns (rep, witness) with u - rep == A @ witness. The representative
    is the unique coset point whose pivot-row coordinates lie in the
    mixed-radix box of the column Hermite form of A; reduction is
    idempotent and constant on cosets.
    """
    if len(u) != A.rows:
        raise ShapeError(f"vector length {len(u)} != rows {A.rows}")
    ch = hermite if hermite is not None else column_hermite(A)
    uu = list(u)
    z = [0] * A.cols
    for i, prow in enumerate(ch.pivots):
        h = ch.H.data[prow][i]
        q = uu[prow] // h
        if q:
            for rr in range(A.rows):
                uu[rr] -= q * ch.H.data[rr][i]
            for cc in range(A.cols):
                z[cc] += q * ch.V.data[cc][i]
    return tuple(uu), tuple(z)


def coset_representatives(A, hermite=None, max_count=None):
    """All canonical representatives of Z^rows / im(A); requires finiteness.

    Raises InfiniteResultError when the cokernel is infinite and
    BoundExceededError when the count exceeds max_count.
    """
    from .errors import BoundExceededError, InfiniteResultError
    from itertools import product as iproduct

    ch = hermite if hermite is not None else column_hermite(A)
    if ch.order is None:
        raise InfiniteResultError("cokernel is infinite; no finite representative set")
    if max_count is not None and ch.order > max_count:
        raise BoundExceededError(f"coset count {ch.order} exceeds bound {max_count}")
    diag = [ch.H.data[row][i] for i, row in enumerate(ch.pivots)]
    return [tuple(v) for v in iproduct(*(range(d) for d in diag))]
