"""Exact integer matrix kernel.

Arbitrary-precision integer matrices with fraction-free determinants, the
column Hermite form, the Smith normal form, cokernel structure and
canonical coset representatives.  One column echelon loop does every
elimination.  The column Hermite form it builds serves every count: its
pivot diagonal gives the cokernel order, the columns of V past the pivots a
kernel basis, and the same form reduces vectors to canonical coset
representatives.  The Smith normal form alternates that loop on a matrix
and its transpose; it serves only the invariant factors of `cokernel`.
"""

from dataclasses import dataclass
from itertools import cycle, product
from math import gcd, prod

from .errors import BoundExceededError, InfiniteResultError, ShapeError


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


def _col_op(M, j, t, q):
    # col_j -= q * col_t
    for row in M:
        row[j] -= q * row[t]


def _column_echelon(H, V):
    """Bring the row lists H to column echelon form in place, applying every
    column operation to the row lists V as well; returns the pivot rows.

    Column i of the result holds the positive pivot of row pivots[i] and is
    zero above it; the columns past the pivots are zero.
    """
    c = len(V)
    pivots = []
    pc = 0
    for row in range(len(H)):
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
        if not nz:
            continue
        j0 = nz[0]
        if j0 != pc:
            for mat in (H, V):
                for rr in mat:
                    rr[pc], rr[j0] = rr[j0], rr[pc]
        if H[row][pc] < 0:
            for mat in (H, V):
                for rr in mat:
                    rr[pc] = -rr[pc]
        pivots.append(row)
        pc += 1
    return pivots


def column_hermite(A):
    r, c = A.rows, A.cols
    H = [list(row) for row in A.data]
    V = [list(row) for row in IntMatrix.identity(c).data]
    pivots = _column_echelon(H, V)
    order = prod(H[row][i] for i, row in enumerate(pivots)) if len(pivots) == r else None
    return ColumnHermite(
        H=IntMatrix(H, shape=(r, c)),
        V=IntMatrix(V, shape=(c, c)),
        pivots=tuple(pivots),
        order=order,
    )


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


def smith_normal_form(A):
    """Smith normal form with unimodular transformation tracking.

    Column echelon forms of M and of its transpose alternate until M is
    diagonal (Kannan and Bachem, SIAM J. Comput. 1979); the column
    operations of a pass on the transpose are row operations, recorded in
    U^T.  A pass either replaces a leading pivot by a proper divisor or
    leaves its row and column clear, so the loop ends, with the nonzero
    diagonal entries positive and first.  Each pair d_i, d_j with d_i not
    dividing d_j then becomes (gcd, lcm) by one 2x2 unimodular row step and
    one column step, so that d_i | d_{i+1}.
    """
    r, c = A.rows, A.cols
    M = [list(row) for row in A.data]
    Ut = [list(row) for row in IntMatrix.identity(r).data]
    V = [list(row) for row in IntMatrix.identity(c).data]
    for ops in cycle((V, Ut)):
        _column_echelon(M, ops)
        if all(x == 0 for i, row in enumerate(M) for j, x in enumerate(row) if i != j):
            break
        M = [list(col) for col in zip(*M)]
    d = [M[i][i] for i in range(min(r, c))]
    U = [list(col) for col in zip(*Ut)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if a == 0 or b % a == 0:
                continue
            # s a + t b == g by an extended gcd: the inverse of a/g mod b/g
            g = gcd(a, b)
            s = pow(a // g, -1, b // g)
            t = (g - s * a) // b
            # rows i, j of U by (s, t; -b/g, a/g), columns i, j of V by
            # (1, -t b/g; 1, s a/g): diag(a, b) becomes diag(g, a b / g)
            Ui, Uj = U[i], U[j]
            U[i] = [s * x + t * y for x, y in zip(Ui, Uj)]
            U[j] = [a // g * y - b // g * x for x, y in zip(Ui, Uj)]
            for row in V:
                x, y = row[i], row[j]
                row[i] = x + y
                row[j] = s * (a // g) * y - t * (b // g) * x
            d[i], d[j] = g, a // g * b
    return SmithDecomposition(
        U=IntMatrix(U, shape=(r, r)),
        D=IntMatrix([[d[i] if i == j else 0 for j in range(c)] for i in range(r)], shape=(r, c)),
        V=IntMatrix(V, shape=(c, c)),
        invariant_factors=tuple(x for x in d if x),
    )


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


def kernel_basis(ch):
    """Basis of the integer kernel of A (a direct summand of Z^cols), from
    its column Hermite form ch = column_hermite(A).

    These are the columns of V past the pivots: A @ V == H is zero there and
    V is unimodular.
    """
    return [ch.V.column(j) for j in range(len(ch.pivots), ch.V.cols)]


def reduce_to_canonical_rep(u, ch):
    """Canonical representative of u + im(A) in Z^rows, with exact witness,
    from the column Hermite form ch = column_hermite(A).

    Returns (rep, witness) with u - rep == A @ witness. The representative
    is the unique coset point whose pivot-row coordinates lie in the
    mixed-radix box of the column Hermite form of A; reduction is
    idempotent and constant on cosets.
    """
    rows, cols = ch.H.rows, ch.H.cols
    if len(u) != rows:
        raise ShapeError(f"vector length {len(u)} != rows {rows}")
    uu = list(u)
    z = [0] * cols
    for i, prow in enumerate(ch.pivots):
        h = ch.H.data[prow][i]
        q = uu[prow] // h
        if q:
            for rr in range(rows):
                uu[rr] -= q * ch.H.data[rr][i]
            for cc in range(cols):
                z[cc] += q * ch.V.data[cc][i]
    return tuple(uu), tuple(z)


def coset_representatives(ch, max_count=None):
    """All canonical representatives of Z^rows / im(A), from the column
    Hermite form ch = column_hermite(A); requires finiteness.

    Raises InfiniteResultError when the cokernel is infinite and
    BoundExceededError when the count exceeds max_count.
    """
    if ch.order is None:
        raise InfiniteResultError("cokernel is infinite; no finite representative set")
    if max_count is not None and ch.order > max_count:
        raise BoundExceededError(f"coset count {ch.order} exceeds bound {max_count}")
    diag = [ch.H.data[row][i] for i, row in enumerate(ch.pivots)]
    return [tuple(v) for v in product(*(range(d) for d in diag))]
