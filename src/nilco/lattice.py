"""Finitely generated torsion-free nilpotent lattices.

A lattice is stored as its lower-central-series tower: the ranks of the
free-abelian quotients plus, for nilpotency class <= 2, an integer bilinear
form giving the central part of the product.  Element arithmetic (normal
form coordinates) is exact for class <= 2; deeper towers are handled at the
level-matrix tier only.

Coordinate convention for class 2: the product adds the cocycle value with
no 1/2 factor,

    (a, c) * (a', c') = (a + a', c + c' + B(a, a')),

which keeps every coordinate integral (Heisenberg-style normal form).
"""

from collections import namedtuple

from .errors import HomomorphismError, NilcoError, ShapeError, UnsupportedClassError
from .intmat import IntMatrix
from .oracle import FiniteGroupTable

# `_make` of the records that check themselves: `_replace` builds through it,
# so a copy is checked like every other new value
_checked_make = classmethod(lambda cls, values: cls(*values))


class LatticeElement(namedtuple("LatticeElement", "coordinates")):
    """Mal'cev-style coordinates: one integer vector per tower level."""

    __slots__ = ()

    def level(self, i):
        return self.coordinates[i]


class NilpotentLattice(namedtuple("NilpotentLattice", "ranks brackets")):
    """Lower-central-series tower with optional class-2 bracket data.

    ranks[i] is the rank of the i-th free-abelian quotient.  For class 2,
    brackets is a tuple of r_2 matrices of shape r_1 x r_1 encoding the
    bilinear form B: Z^{r_1} x Z^{r_1} -> Z^{r_2}.  The constructor checks
    both and raises ShapeError.
    """

    __slots__ = ()

    def __new__(cls, ranks, brackets=()):
        ranks = tuple(map(IntMatrix._as_int, ranks))
        if not ranks or ranks[0] < 1 or any(r < 0 for r in ranks):
            raise ShapeError(f"invalid rank tower {ranks!r}")
        brackets = tuple(brackets)
        if len(ranks) == 2:
            r1, r2 = ranks
            if len(brackets) != r2:
                raise ShapeError(f"class-2 lattice needs {r2} bracket matrices")
            for B in brackets:
                if not isinstance(B, IntMatrix) or B.rows != r1 or B.cols != r1:
                    raise ShapeError(f"bracket matrices must be {r1}x{r1} IntMatrix")
        elif brackets:
            raise ShapeError("bracket data is only meaningful for class-2 lattices")
        return super().__new__(cls, ranks, brackets)

    _make = _checked_make

    @property
    def class_c(self):
        return len(self.ranks)

    def rank_at(self, i):
        """Rank of level i (0-based); 0 past the top of the tower."""
        return self.ranks[i] if i < self.class_c else 0

    def _require_elements(self):
        if self.class_c > 2:
            raise UnsupportedClassError(
                f"element arithmetic unsupported for class {self.class_c} > 2"
            )

    # -- elements -----------------------------------------------------

    def element(self, coordinates):
        """The element with these coordinates, checked to be integers (not
        bools) of the right shape.  Every value from outside the lattice
        enters here; the arithmetic below builds its results from tuples it
        computed."""
        coords = tuple(tuple(map(IntMatrix._as_int, level)) for level in coordinates)
        if len(coords) != self.class_c:
            raise ShapeError(
                f"element has {len(coords)} levels, lattice has {self.class_c}"
            )
        for lvl, r in zip(coords, self.ranks):
            if len(lvl) != r:
                raise ShapeError(f"level vector {lvl!r} does not match rank {r}")
        return LatticeElement(coords)

    def identity(self):
        return LatticeElement(tuple((0,) * r for r in self.ranks))

    def cocycle(self, a, b):
        """B(a, b) as a vector of length r_2 (empty for class 1)."""
        if self.class_c == 1:
            return ()
        r1 = self.ranks[0]
        if len(a) != r1 or len(b) != r1:
            raise ShapeError("cocycle arguments must be level-1 vectors")
        return tuple(sum(a[i] * B.data[i][j] * b[j] for i in range(r1) for j in range(r1))
                     for B in self.brackets)

    def bracket(self, a, b):
        """Commutator pairing B(a, b) - B(b, a) on level-1 vectors."""
        return tuple(x - y for x, y in zip(self.cocycle(a, b), self.cocycle(b, a)))

    def multiply(self, u, v):
        self._require_elements()
        a, ap = u.level(0), v.level(0)
        top = tuple(x + y for x, y in zip(a, ap))
        if self.class_c == 1:
            return LatticeElement((top,))
        corr = self.cocycle(a, ap)
        central = tuple(x + y + z for x, y, z in zip(u.level(1), v.level(1), corr))
        return LatticeElement((top, central))

    def inverse(self, u):
        self._require_elements()
        a = u.level(0)
        top = tuple(-x for x in a)
        if self.class_c == 1:
            return LatticeElement((top,))
        corr = self.cocycle(a, a)
        central = tuple(-x + y for x, y in zip(u.level(1), corr))
        return LatticeElement((top, central))

    def power(self, u, n):
        self._require_elements()
        a = u.level(0)
        top = tuple(n * x for x in a)
        if self.class_c == 1:
            return LatticeElement((top,))
        half = n * (n - 1) // 2
        corr = self.cocycle(a, a)
        central = tuple(n * x + half * y for x, y in zip(u.level(1), corr))
        return LatticeElement((top, central))

    # -- finite quotients ---------------------------------------------

    def reduce_mod(self, m):
        """Integer-coded finite quotient with all coordinates mod m; class <= 2
        only.  Nothing is enumerated here: `twisted_orbits_finite` checks the
        enumeration cap."""
        self._require_elements()
        if m < 2:
            raise NilcoError("modulus must be >= 2")
        return FiniteGroupTable(m, self.ranks, tuple(B.data for B in self.brackets))


class LatticeHomomorphism(namedtuple("LatticeHomomorphism", "source target matrices")):
    """A map between lattices as compatible level matrices.

    matrices[i] has shape (target rank_i) x (source rank_i); levels past a
    tower's class have rank 0.  The constructor checks the shapes and then
    bracket equivariance (`validate_hom`) and raises ShapeError or
    HomomorphismError, so every instance between class <= 2 lattices is a
    genuine homomorphism; past class 2 only the shapes can be checked.
    """

    __slots__ = ()

    def __new__(cls, source, target, matrices):
        matrices = tuple(matrices)
        depth = max(source.class_c, target.class_c)
        if len(matrices) != depth:
            raise ShapeError(f"expected {depth} level matrices, got {len(matrices)}")
        for i, M in enumerate(matrices):
            tr = target.rank_at(i)
            sr = source.rank_at(i)
            if M.rows != tr or M.cols != sr:
                raise ShapeError(
                    f"level {i + 1} matrix is {M.rows}x{M.cols}, expected {tr}x{sr}"
                )
        self = super().__new__(cls, source, target, matrices)
        violation = validate_hom(self)
        if violation is not None:
            i, j, expected, actual = violation
            raise HomomorphismError(
                f"bracket equivariance fails on basis pair ({i + 1}, {j + 1}): "
                f"expected {list(expected)}, got {list(actual)}",
                violations=[violation],
            )
        return self

    _make = _checked_make

    @property
    def depth(self):
        return len(self.matrices)


def validate_hom(hom):
    """Bracket equivariance check on basis pairs; None when valid.  The
    LatticeHomomorphism constructor runs it, once per map.

    For class-2 data the commutator pairing must satisfy
    M2 [e_i, e_j]_src = [M1 e_i, M1 e_j]_tgt for all basis pairs; this is the
    exact condition for the level matrices to come from a genuine
    homomorphism (for Heisenberg self-maps it forces M2 = det M1).
    Returns the first violating basis pair as (i, j, expected, actual).
    """
    src, tgt = hom.source, hom.target
    if src.class_c > 2 or tgt.class_c > 2:
        return None  # matrix tier only; nothing checkable beyond shapes
    if tgt.class_c == 1 and src.class_c == 1:
        return None
    M1 = hom.matrices[0]
    M2 = hom.matrices[1] if hom.depth > 1 else IntMatrix.zeros(tgt.rank_at(1), src.rank_at(1))
    r1 = src.ranks[0]
    for i in range(r1):
        for j in range(i + 1, r1):
            ei = tuple(1 if k == i else 0 for k in range(r1))
            ej = tuple(1 if k == j else 0 for k in range(r1))
            if src.class_c == 2:
                expected = M2.apply(src.bracket(ei, ej))
            else:
                expected = (0,) * tgt.rank_at(1)
            if tgt.class_c == 2:
                actual = tgt.bracket(M1.apply(ei), M1.apply(ej))
            else:
                actual = ()
                expected = ()
            if expected != actual:
                return (i, j, expected, actual)
    return None


def word_defect(lattice, vectors, a):
    """Central part of the ordered word (v_1, 0)^{a_1} ... (v_r, 0)^{a_r}:

        sum_{i<j} a_i a_j B(v_i, v_j) + sum_j C(a_j, 2) B(v_j, v_j).
    """
    defect = (0,) * lattice.ranks[1]
    prefix = (0,) * lattice.ranks[0]  # sum_{i<j} a_i v_i
    for aj, v in zip(a, vectors):
        if aj == 0:
            continue
        half = aj * (aj - 1) // 2
        defect = tuple(
            d + aj * x + half * y
            for d, x, y in zip(defect, lattice.cocycle(prefix, v), lattice.cocycle(v, v))
        )
        prefix = tuple(s + aj * x for s, x in zip(prefix, v))
    return defect


def apply_hom(hom, u):
    """Image of u under the homomorphism defined by the level matrices.

    For class <= 2, level-1 generators map with zero central tail.  Writing
    u = (a, c) as the ordered word x_1^{a_1} ... x_r^{a_r} * z^{c - defect_src(a)},
    the image is (M1 a, defect_tgt(a) + M2 (c - defect_src(a))), with each
    defect the central part of its ordered word (`word_defect`: over the
    unit vectors in the source, over the columns of M1 in the target).  So
    a validated homomorphism is applied exactly:
    apply_hom(u*v) == apply_hom(u)*apply_hom(v).  Past class 2 the level
    matrices do not give the map on coordinates: UnsupportedClassError.
    """
    src, tgt = hom.source, hom.target
    src._require_elements()
    tgt._require_elements()
    u = src.element(u.coordinates) if isinstance(u, LatticeElement) else src.element(u)
    M1 = hom.matrices[0]
    a = u.level(0)
    top = M1.apply(a)
    if tgt.class_c == 1:
        return LatticeElement((top,))
    central = word_defect(tgt, [M1.column(j) for j in range(M1.cols)], a)
    if src.class_c == 2:
        r1 = src.ranks[0]
        units = [tuple(int(k == j) for k in range(r1)) for j in range(r1)]
        rest = tuple(c - d for c, d in zip(u.level(1), word_defect(src, units, a)))
        central = tuple(x + y for x, y in zip(central, hom.matrices[1].apply(rest)))
    return LatticeElement((top, central))
