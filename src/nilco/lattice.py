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

from dataclasses import dataclass, field

from .errors import (
    BoundExceededError,
    HomomorphismError,
    NilcoError,
    ShapeError,
    UnsupportedClassError,
)
from .intmat import IntMatrix
from .oracle import FiniteGroupTable


@dataclass(frozen=True)
class LatticeElement:
    """Mal'cev-style coordinates: one integer vector per tower level."""

    coordinates: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "coordinates",
            tuple(tuple(int(x) for x in level) for level in self.coordinates),
        )

    def level(self, i):
        return self.coordinates[i]

    def __iter__(self):
        return iter(self.coordinates)


@dataclass(frozen=True)
class NilpotentLattice:
    """Lower-central-series tower with optional class-2 bracket data.

    ranks[i] is the rank of the i-th free-abelian quotient.  For class 2,
    brackets is a tuple of r_2 matrices of shape r_1 x r_1 encoding the
    bilinear form B: Z^{r_1} x Z^{r_1} -> Z^{r_2}.
    """

    ranks: tuple
    brackets: tuple = field(default=())

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if not ranks or ranks[0] < 1 or any(r < 0 for r in ranks):
            raise NilcoError(f"invalid rank tower {ranks!r}")
        brackets = tuple(self.brackets)
        object.__setattr__(self, "brackets", brackets)
        if self.class_c == 2:
            r1, r2 = ranks
            if len(brackets) != r2:
                raise NilcoError(f"class-2 lattice needs {r2} bracket matrices")
            for B in brackets:
                if not isinstance(B, IntMatrix) or B.rows != r1 or B.cols != r1:
                    raise NilcoError(f"bracket matrices must be {r1}x{r1} IntMatrix")
        elif brackets:
            raise NilcoError("bracket data is only meaningful for class-2 lattices")

    @property
    def class_c(self):
        return len(self.ranks)

    @property
    def total_rank(self):
        return sum(self.ranks)

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
        e = LatticeElement(tuple(coordinates))
        if len(e.coordinates) != self.class_c:
            raise ShapeError(
                f"element has {len(e.coordinates)} levels, lattice has {self.class_c}"
            )
        for lvl, r in zip(e.coordinates, self.ranks):
            if len(lvl) != r:
                raise ShapeError(f"level vector {lvl!r} does not match rank {r}")
        return e

    def identity(self):
        return self.element(tuple((0,) * r for r in self.ranks))

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
        u = self.element(u.coordinates)
        v = self.element(v.coordinates)
        a, ap = u.level(0), v.level(0)
        top = tuple(x + y for x, y in zip(a, ap))
        if self.class_c == 1:
            return self.element((top,))
        corr = self.cocycle(a, ap)
        central = tuple(x + y + z for x, y, z in zip(u.level(1), v.level(1), corr))
        return self.element((top, central))

    def inverse(self, u):
        self._require_elements()
        a = u.level(0)
        top = tuple(-x for x in a)
        if self.class_c == 1:
            return self.element((top,))
        corr = self.cocycle(a, a)
        central = tuple(-x + y for x, y in zip(u.level(1), corr))
        return self.element((top, central))

    def power(self, u, n):
        self._require_elements()
        a = u.level(0)
        top = tuple(n * x for x in a)
        if self.class_c == 1:
            return self.element((top,))
        half = n * (n - 1) // 2
        corr = self.cocycle(a, a)
        central = tuple(n * x + half * y for x, y in zip(u.level(1), corr))
        return self.element((top, central))

    def commutator(self, u, v):
        uv = self.multiply(u, v)
        return self.multiply(uv, self.inverse(self.multiply(v, u)))

    def conjugate(self, u, x):
        """x * u * x^{-1}."""
        return self.multiply(self.multiply(x, u), self.inverse(x))

    def generators(self):
        """Level-wise basis elements, level 1 first."""
        gens = []
        for lvl, r in enumerate(self.ranks):
            for i in range(r):
                coords = [(0,) * rr for rr in self.ranks]
                coords[lvl] = tuple(1 if j == i else 0 for j in range(r))
                gens.append(self.element(coords))
        return gens

    # -- finite quotients ---------------------------------------------

    def reduce_mod(self, m, max_order=None):
        """Integer-coded finite quotient with all coordinates mod m; class <= 2 only."""
        self._require_elements()
        if m < 2:
            raise NilcoError("modulus must be >= 2")
        order = m**self.total_rank
        if max_order is not None and order > max_order:
            raise BoundExceededError(f"quotient order {order} exceeds cap {max_order}")
        return FiniteGroupTable(m, self.ranks, tuple(B.data for B in self.brackets))


@dataclass(frozen=True)
class LatticeHomomorphism:
    """A map between lattices as compatible level matrices.

    matrices[i] has shape (target rank_i) x (source rank_i); levels past a
    tower's class have rank 0.
    """

    source: NilpotentLattice
    target: NilpotentLattice
    matrices: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        depth = max(self.source.class_c, self.target.class_c)
        if len(self.matrices) != depth:
            raise ShapeError(
                f"expected {depth} level matrices, got {len(self.matrices)}"
            )
        for i, M in enumerate(self.matrices):
            tr = self.target.rank_at(i)
            sr = self.source.rank_at(i)
            if M.rows != tr or M.cols != sr:
                raise ShapeError(
                    f"level {i + 1} matrix is {M.rows}x{M.cols}, expected {tr}x{sr}"
                )

    @property
    def depth(self):
        return len(self.matrices)


def identity_hom(lattice):
    return LatticeHomomorphism(
        source=lattice,
        target=lattice,
        matrices=tuple(IntMatrix.identity(r) for r in lattice.ranks),
    )


def validate_hom(hom):
    """Bracket equivariance check on basis pairs; None when valid.

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


def require_valid_hom(hom):
    violation = validate_hom(hom)
    if violation is not None:
        i, j, expected, actual = violation
        raise HomomorphismError(
            f"bracket equivariance fails on basis pair ({i + 1}, {j + 1}): "
            f"expected {list(expected)}, got {list(actual)}",
            violations=[violation],
        )


def apply_hom(hom, u):
    """Image of u under the homomorphism defined by the level matrices.

    Class <= 2 images are computed through canonical generator images
    (level-1 generators map with zero central tail), so a validated
    homomorphism is applied exactly:  apply_hom(u*v) == apply_hom(u)*apply_hom(v).
    """
    src, tgt = hom.source, hom.target
    u = src.element(u.coordinates) if isinstance(u, LatticeElement) else src.element(u)
    if src.class_c > 2 or tgt.class_c > 2:
        # matrix tier: plain level-wise application
        coords = []
        for i in range(tgt.class_c):
            vec = u.level(i) if i < src.class_c else (0,) * src.rank_at(i)
            coords.append(hom.matrices[i].apply(vec))
        return tgt.element(coords)

    M1 = hom.matrices[0]
    a = u.level(0)
    if tgt.class_c == 1:
        return tgt.element((M1.apply(a),))

    # image of the ordered level-1 word x_1^{a_1} ... x_{r_1}^{a_{r_1}}
    out = tgt.identity()
    for j, exp in enumerate(a):
        if exp == 0:
            continue
        gen_image = tgt.element((M1.column(j), (0,) * tgt.ranks[1]))
        out = tgt.multiply(out, tgt.power(gen_image, exp))
    if src.class_c == 2:
        # cocycle defect between the normal form (a, c) and the ordered word:
        # (a, c) = x_1^{a_1} ... x_r^{a_r} * z^{c - defect(a)}
        word = src.identity()
        for j, exp in enumerate(a):
            if exp == 0:
                continue
            coords = [(0,) * rr for rr in src.ranks]
            coords[0] = tuple(1 if k == j else 0 for k in range(src.ranks[0]))
            word = src.multiply(word, src.power(src.element(coords), exp))
        defect = word.level(1)
        central = tuple(c - d for c, d in zip(u.level(1), defect))
        M2 = hom.matrices[1]
        out = tgt.multiply(out, tgt.element(((0,) * tgt.ranks[0], M2.apply(central))))
    return out
