"""Exact integer matrix kernel.

Arbitrary-precision integer matrices with fraction-free determinants, the
column Hermite form, the Smith normal form, cokernel structure and
canonical coset representatives.  One column echelon loop, exact or modulo
a determinant, does every elimination.  It stops at a triangular form,
whose pivot diagonal gives every count; one more pass (`_reduce_left`)
brings the entries left of the pivots into range, which makes the form
canonical, and runs only where H or V is read.  The column Hermite form,
each field built when first read, serves every count (its order), the
kernel words (the exact loop's transform past the pivots, which the left
pass leaves as they are) and the canonical coset representatives (H).
The Smith normal form alternates the loop, with the left pass, on a matrix
and its transpose, and its divisibility step runs through the same loop;
it serves only the invariant factors of `cokernel`.  `IntMatrix(...)`
checks outside input; every matrix built here goes through `_of`, which
checks nothing.
"""

from collections import namedtuple
from functools import cached_property
from itertools import combinations, islice, product
from math import gcd, prod
from operator import itemgetter, sub

from .errors import BoundExceededError, InfiniteResultError, ShapeError


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __new__(cls, entries, shape=None):
        """The matrix of outside input: each entry checked to be an integer,
        the rows to be `shape` (rows, cols) or, without it, of one length."""
        data = tuple(tuple(map(cls._as_int, row)) for row in entries)
        r, c = shape or (len(data), len(data[0]) if data else 0)
        if len(data) != r:
            raise ShapeError(f"expected {r} rows, got {len(data)}")
        for row in data:
            if len(row) != c:
                raise ShapeError("ragged rows in matrix input")
        return cls._of(data, r, c)

    @classmethod
    def _of(cls, data, rows, cols):
        """The matrix of `data`, `rows` integer tuples of length `cols`, as
        given: every matrix nilco builds itself, with no check."""
        M = object.__new__(cls)
        object.__setattr__(M, "rows", rows)
        object.__setattr__(M, "cols", cols)
        object.__setattr__(M, "data", data)
        return M

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
        """Build a rows x len(columns) matrix from the first `rows` entries
        of column vectors that nilco built itself."""
        data = tuple(islice(zip(*columns), rows)) if columns else ((),) * rows
        return cls._of(data, rows, len(columns))

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
        data = tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.data, other.data))
        return IntMatrix._of(data, self.rows, self.cols)

    def transpose(self):
        return IntMatrix.from_columns(self.data, self.cols)

    def column(self, j):
        return tuple(map(itemgetter(j), self.data))

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
        Mk = M[k]
        p = Mk[k]
        for i in range(k + 1, n):
            Mi = M[i]
            m = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * p - m * Mk[j]) // prev
        prev = p
    return sign * M[n - 1][n - 1]


class ColumnHermite:
    """Column Hermite form of A: A @ V == H, V unimodular, pivots positive.

    pivots[i] is the row of the pivot in column i, diagonal[i] the pivot
    (the radices of the coset representatives); pivot rows are strictly
    increasing, each pivot column is zero above its pivot row and the
    entries left of a pivot lie in [0, pivot), so H is the unique Hermite
    form of im(A).  order is |Z^rows / im(A)|, None when infinite.
    Each field is computed when first read, on the live part of A: its
    columns up to the last nonzero one.  A square live part gives the order
    as |det|, found without elimination.  pivots and diagonal come from the
    triangular form (`_column_echelon`), modulo |det| for a square
    nonsingular live part; H from that triangle once `_reduce_left` has made
    it canonical; V by the exact loop (`_exact`, which `kernel_basis` reads
    before any left pass), only when V or the kernel is read.  The loop
    never touches or moves a zero column past the live part, so H is the
    live part's H padded with zero columns and V is blockdiag(V_live, I).
    """

    def __init__(self, A):
        self.A = A

    @cached_property
    def _live(self):
        """A up to its last nonzero column: A itself, with no copy, when its
        last column is nonzero, which is the first column tested."""
        A = self.A
        c = A.cols
        while c and not any(row[c - 1] for row in A.data):
            c -= 1
        return A if c == A.cols else IntMatrix._of(tuple(row[:c] for row in A.data), A.rows, c)

    live_cols = property(lambda self: self._live.cols)  # the live part's width

    @cached_property
    def order(self):
        L = self._live
        if L.is_square:
            return abs(determinant(L)) or None
        return prod(self.diagonal) if len(self.pivots) == L.rows else None

    @cached_property
    def _triangle(self):
        L = self._live
        D = self.order if L.is_square else None
        cols = [[x % D for x in col] if D else list(col) for col in L.transpose().data]
        pivots = tuple(_column_echelon(cols, L.rows, D))
        cols += [[0] * L.rows for _ in range(L.cols, self.A.cols)]
        return cols, pivots, D

    pivots = cached_property(lambda self: self._triangle[1])
    diagonal = cached_property(
        lambda s: tuple(s._triangle[0][i][r] for i, r in enumerate(s.pivots)))

    @cached_property
    def H(self):
        cols, pivots, D = self._triangle
        _reduce_left(cols, pivots, D)  # in place: the pivots and diagonal stay
        return IntMatrix.from_columns(cols, self.A.rows)

    @cached_property
    def _exact(self):
        """The exact loop on A over the unit columns: the triangle, not yet
        left-reduced, with the transform under it, and the pivot rows.  It
        runs on the live part; A's zero columns past it follow, with their
        unit transform columns.  It serves `pivots` and `diagonal` too, when
        they were not read first."""
        A, L = self.A, self._live
        cols = [list(col) + _unit(j, A.cols) for j, col in enumerate(L.transpose().data)]
        pivots = tuple(_column_echelon(cols, A.rows))
        cols += [[0] * A.rows + _unit(j, A.cols) for j in range(L.cols, A.cols)]
        self.__dict__.setdefault("_triangle", (cols, pivots, None))
        return cols, pivots

    @cached_property
    def V(self):
        cols, pivots = self._exact
        _reduce_left(cols, pivots)  # in place: a second pass, for H, changes nothing
        # the exact loop's H is the same canonical H: kept for a later read
        self.__dict__.setdefault("H", IntMatrix.from_columns(cols, self.A.rows))
        return IntMatrix.from_columns([col[self.A.rows:] for col in cols], self.A.cols)


def _unit(j, n):
    return [int(i == j) for i in range(n)]


def _column_echelon(cols, rows, modulus=None):
    """Bring the first `rows` entries of the columns `cols` to triangular
    column echelon form in place and return the pivot rows: pivot rows
    strictly increasing, pivots positive, each pivot column zero above its
    pivot row.  The entries left of a pivot are not reduced: `_reduce_left`
    makes the triangle the canonical form (see ColumnHermite), and only
    what reads H or V runs it.  The entries past `rows` (V under H, or U^T
    under M^T) record every column operation.

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
        nz = [j for j in range(pc, c) if cols[j][row]]
        for j in nz if R else ():
            if gcd(cols[j][row], R) == 1:  # a unit: scaled to 1, one pass clears the row
                t = cols[j]
                inv = pow(t[row], -1, R)
                t[:] = [x * inv % R for x in t]
                for i in nz:
                    if i != j:
                        _sub(cols[i], cols[i][row], t, row, R)
                nz = [j]
                break
        # gcd-combine the nonzero entries of this row among columns >= pc;
        # an entry that is zero stays zero
        while len(nz) > 1:
            sizes = [abs(cols[j][row]) for j in nz]
            j0 = nz[sizes.index(min(sizes))]  # the first smallest: V depends on which
            t = cols[j0]
            for j in nz:
                if j != j0:
                    _sub(cols[j], cols[j][row] // t[row], t, row, R)
            nz = [j for j in nz if cols[j][row]]
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
        pivots.append(row)
        if R is not None and cols[pc][row] > 1:
            R //= cols[pc][row]
            cols[pc + 1:] = [[x % R for x in col] for col in cols[pc + 1:]]
    return pivots


def _reduce_left(cols, pivots, modulus=None):
    """Bring the entries left of each pivot of a triangular form from
    `_column_echelon(cols, rows, modulus)` into [0, pivot), in place: the
    canonical form.  Rows go in order, entries kept mod `modulus` when set.
    Each step subtracts a multiple of a pivot column from a column to its
    left, so the columns stay triangular with the same diagonal and, with
    modulus * Z^n, still span im(A).  The Hermite form of im(A) is unique,
    so reducing mod the smaller R of each row, as the loop does, gives the
    same columns.
    """
    for pc, row in enumerate(pivots):
        p = cols[pc]
        for j in range(pc):
            if q := cols[j][row] // p[row]:
                _sub(cols[j], q, p, row, modulus)


def _sub(a, q, b, start, R):
    """a -= q b in place for a column b zero above `start`; from there on mod R if set."""
    if R is None:
        a[start:] = [x - q * y for x, y in zip(a[start:], b[start:])]
    else:
        a[start:] = [(x - q * y) % R for x, y in zip(a[start:], b[start:])]


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
    diagonal entries positive and first.  When a diagonal entry d_i does
    not divide a later d_j, entry j is added to entry i of every column
    (row j of M to row i, or column j to column i on the transpose, with
    U or V alongside) and the loop runs on: its next pass puts gcd(d_i,
    d_j), a proper divisor of d_i, at (i, i), so d_i | d_{i+1} at the end.
    """
    r, c = A.rows, A.cols
    # passes run on the columns of [M; V], keeping the rows of U aside, and
    # of [M^T; U^T], keeping the columns of V aside
    cols = [list(col) + _unit(j, c) for j, col in enumerate(A.transpose().data)]
    aside = [_unit(i, r) for i in range(r)]
    n, transposed = r, False
    while True:
        _reduce_left(cols, _column_echelon(cols, n))
        if any(x for j, col in enumerate(cols) for i, x in enumerate(col[:n]) if i != j):
            cols, aside = [[col[i] for col in cols] + aside[i] for i in range(n)], [
                col[n:] for col in cols]
            n, transposed = len(aside), not transposed
            continue
        d = [cols[i][i] for i in range(min(r, c))]
        fix = next(((i, j) for i, j in combinations(range(len(d)), 2) if d[i] and d[j] % d[i]),
                   None)
        if fix is None:
            break
        i, j = fix
        for col in cols:
            col[i] += col[j]
        aside[i] = [x + y for x, y in zip(aside[i], aside[j])]
    U, V = [col[n:] for col in cols], aside
    if not transposed:
        U, V = V, U
    return SmithDecomposition(
        U=IntMatrix._of(tuple(map(tuple, U)), r, r),
        D=IntMatrix._of(tuple(tuple(d[i] if i == j else 0 for j in range(c)) for i in range(r)),
                        r, c),
        V=IntMatrix.from_columns(V, c),
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
    V is unimodular.  The left pass changes only pivot columns, so they are
    read from the exact triangle, and only what reads V or H runs that pass.
    The last of them are the unit vectors of A's zero columns past its live
    part (see ColumnHermite); when the live part is square and nonsingular
    they are all of them, and no loop runs.
    """
    L, n = ch._live, ch.A.cols
    if L.is_square and ch.order:
        return [tuple(_unit(j, n)) for j in range(L.cols, n)]
    cols, pivots = ch._exact
    return [tuple(col[ch.A.rows:]) for col in cols[len(pivots):]]


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
    return list(product(*(range(d) for d in ch.diagonal)))
