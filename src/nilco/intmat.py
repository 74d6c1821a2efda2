"""Exact integer matrix kernel.

Arbitrary-precision integer matrices with fraction-free determinants, the
column Hermite form, the Smith normal form, cokernel structure and
canonical coset representatives.  One column echelon loop, exact or modulo
a determinant, does every elimination.  The column Hermite form, each field
built when first read, serves every count (its order), the kernel words (V
past the pivots) and the canonical coset representatives (H).  The Smith
normal form alternates the loop on a matrix and its transpose; it serves
only the invariant factors of `cokernel`.
"""

from collections import namedtuple
from functools import cached_property
from itertools import product
from math import gcd, prod

from .errors import BoundExceededError, InfiniteResultError, ShapeError


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries, shape=None):
        self._init(tuple(tuple(self._as_int(x) for x in row) for row in entries), shape)

    @classmethod
    def _trusted(cls, entries, shape=None):
        """Integer rows that nilco built or checked itself: only the shape is checked."""
        M = cls.__new__(cls)
        M._init(tuple(map(tuple, entries)), shape)
        return M

    def _init(self, data, shape):
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
            raise ShapeError(f"expected an integer, got {x!r}")
        return x

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return IntMatrix, (self.data, (self.rows, self.cols))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_columns(cls, columns, rows):
        """Build a rows x len(columns) matrix from column vectors of length
        rows, which nilco built itself."""
        return cls._trusted(
            [[col[i] for col in columns] for i in range(rows)], shape=(rows, len(columns))
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
        return IntMatrix._trusted(
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
        return IntMatrix._trusted(out, shape=(self.rows, cols))

    def transpose(self):
        return IntMatrix._trusted(
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


class ColumnHermite:
    """Column Hermite form of A: A @ V == H, V unimodular, pivots positive.

    pivots[i] is the row of the pivot in column i; pivot rows are strictly
    increasing, each pivot column is zero above its pivot row and the
    entries left of a pivot lie in [0, pivot), so H is the unique Hermite
    form of im(A).  order is |Z^rows / im(A)|, None when infinite: |det A|
    for a square A, found without elimination, else the pivot product.
    Each field is computed when first read: H modulo |det A| for a square
    nonsingular A, and V by the exact loop, only when V is read.
    """

    def __init__(self, A):
        self.A = A

    @cached_property
    def order(self):
        A = self.A
        if A.is_square:
            return abs(determinant(A)) or None
        diag = [self.H.data[row][i] for i, row in enumerate(self.pivots)]
        return prod(diag) if len(diag) == A.rows else None

    @cached_property
    def _form(self):
        A = self.A
        D = self.order if A.is_square else None
        cols = [[x % D for x in col] if D else list(col) for col in A.transpose().data]
        pivots = tuple(_column_echelon(cols, A.rows, D))
        return _rows(cols, 0, A.rows), pivots

    H = cached_property(lambda self: self._form[0])
    pivots = cached_property(lambda self: self._form[1])

    @cached_property
    def V(self):
        A = self.A
        cols = [list(col) + _unit(j, A.cols) for j, col in enumerate(A.transpose().data)]
        pivots = tuple(_column_echelon(cols, A.rows))
        # the exact loop's H is the same canonical H: kept for a later read
        self.__dict__.setdefault("_form", (_rows(cols, 0, A.rows), pivots))
        return _rows(cols, A.rows, A.rows + A.cols)


def _unit(j, n):
    return [int(i == j) for i in range(n)]


def _rows(cols, start, stop):
    """The matrix of entries start..stop-1 of the columns cols."""
    return IntMatrix._trusted(
        [[col[i] for col in cols] for i in range(start, stop)], shape=(stop - start, len(cols))
    )


def _column_echelon(cols, rows, modulus=None):
    """Bring the first `rows` entries of the columns `cols` to column Hermite
    form (see ColumnHermite) in place and return the pivot rows; the entries
    past `rows` (V under H, or U^T under M^T) record every column operation.

    With `modulus` D = |det A| of a square nonsingular A, D Z^n lies in
    im(A) and entries are kept mod R, R = D at the first row (Domich,
    Kannan and Trotter, Math. Oper. Res. 1987): a row's pivot is gcd(h, R),
    h the gcd of its entries, and the rows below span a lattice of index
    R / pivot, which contains (R / pivot) Z^(n-1), so R //= pivot.
    """
    R = modulus
    c = len(cols)
    pivots = []
    for row in range(rows):
        pc = len(pivots)
        if pc == c:
            break
        for j in range(pc, c) if R else ():
            if gcd(cols[j][row], R) == 1:  # a unit: scaled to 1, one pass clears the row
                inv = pow(cols[j][row], -1, R)
                cols[j] = [x * inv % R for x in cols[j]]
                break
        # gcd-combine the nonzero entries of this row among columns >= pc
        while True:
            nz = [j for j in range(pc, c) if cols[j][row] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][row]))
            t = cols[j0]
            for j in nz:
                if j != j0:
                    cols[j] = _sub(cols[j], cols[j][row] // t[row], t, row, R)
        if nz:
            cols[pc], cols[nz[0]] = cols[nz[0]], cols[pc]
        elif R is None:
            continue
        else:  # every entry is 0 mod R: the pivot is R, and R becomes 1
            cols[pc] = [R * (i == row) for i in range(len(cols[pc]))]
        h = cols[pc][row]
        if R is None and h < 0:
            cols[pc] = [-x for x in cols[pc]]
        elif R is not None and (d := gcd(h, R)) != h:
            u = pow(h // d, -1, R // d)  # u h == d (mod R)
            cols[pc] = [x * u % R for x in cols[pc]]
            cols[pc][row] = d
        p = cols[pc]  # reduce the entries left of the pivot into [0, pivot)
        for j in range(pc):
            if q := cols[j][row] // p[row]:
                cols[j] = _sub(cols[j], q, p, row, R)
        pivots.append(row)
        if R is not None and p[row] > 1:
            R //= p[row]
            cols[pc + 1:] = [[x % R for x in col] for col in cols[pc + 1:]]
    return pivots


def _sub(a, q, b, start, R):
    """a - q b for a column b zero above `start`; from there on mod R if set."""
    head, a, b = a[:start], a[start:], b[start:]
    if R is None:
        return head + [x - q * y for x, y in zip(a, b)]
    return head + [(x - q * y) % R for x, y in zip(a, b)]


def column_hermite(A):
    """The column Hermite form of A, computed field by field as read."""
    return ColumnHermite(A)


# U @ A @ V == D with U, V unimodular, D diagonal with divisibility chain
SmithDecomposition = namedtuple("SmithDecomposition", "U D V invariant_factors")


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
    # passes run on the columns of [M; V], keeping the rows of U aside, and
    # of [M^T; U^T], keeping the columns of V aside
    cols = [list(col) + _unit(j, c) for j, col in enumerate(A.transpose().data)]
    aside = [_unit(i, r) for i in range(r)]
    n, transposed = r, False
    while True:
        _column_echelon(cols, n)
        if all(x == 0 for j, col in enumerate(cols) for i, x in enumerate(col[:n]) if i != j):
            break
        cols, aside = [[col[i] for col in cols] + aside[i] for i in range(n)], [
            col[n:] for col in cols]
        n, transposed = len(aside), not transposed
    d = [cols[i][i] for i in range(min(r, c))]
    U, V = [col[n:] for col in cols], aside
    if not transposed:
        U, V = V, U
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
            Vi, Vj = V[i], V[j]
            V[i] = [x + y for x, y in zip(Vi, Vj)]
            V[j] = [s * (a // g) * y - t * (b // g) * x for x, y in zip(Vi, Vj)]
            d[i], d[j] = g, a // g * b
    return SmithDecomposition(
        U=IntMatrix._trusted(U, shape=(r, r)),
        D=IntMatrix._trusted(
            [[d[i] if i == j else 0 for j in range(c)] for i in range(r)], shape=(r, c)
        ),
        V=_rows(V, 0, c),
        invariant_factors=tuple(x for x in d if x),
    )


# Z^rows / im(A): free rank plus torsion chain; order is None when infinite
CokernelStructure = namedtuple("CokernelStructure", "free_rank torsion order")


def cokernel(A):
    """Cokernel of A viewed as a map Z^cols -> Z^rows."""
    snf = smith_normal_form(A)
    free_rank = A.rows - len(snf.invariant_factors)
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    order = None if free_rank > 0 else prod(torsion)
    return CokernelStructure(free_rank=free_rank, torsion=torsion, order=order)


def kernel_basis(ch):
    """Basis of the integer kernel of A (a direct summand of Z^cols), from
    its column Hermite form ch = column_hermite(A).

    These are the columns of V past the pivots: A @ V == H is zero there and
    V is unimodular.
    """
    V = ch.V  # read first: the exact loop that builds V also gives the pivots
    return [V.column(j) for j in range(len(ch.pivots), V.cols)]


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
