"""Finitely generated torsion-free nilpotent lattices.

A lattice is stored as its lower-central-series tower: the ranks of the
free-abelian quotients plus, for nilpotency class <= 2, an integer bilinear
form giving the central part of the product.  Element arithmetic (normal
form coordinates) is exact for class <= 2.  A deeper tower has no group law
here, so nothing can tell a map into it from a non-map: class >= 3 targets,
and class >= 3 sources into a class-2 target, exit 4 until a presentation
is given (a map from any source into a torus is a homomorphism on level 1
alone).  All of the arithmetic is ordered products of powers
(`NilpotentLattice.product`): `multiply`, `inverse` and `power` are products
of one or two factors, and `apply_hom` is the product of the generator
images.  The bracket matrices are compiled once per lattice into sparse
term lists, their nonzero entries for the cocycle and their nonzero
alternating entries for the commutator pairing, so a cocycle or bracket
costs one product per term, not r_1^2.

Coordinate convention for class 2: the product adds the cocycle value with
no 1/2 factor,

    (a, c) * (a', c') = (a + a', c + c' + B(a, a')),

which keeps every coordinate integral (Heisenberg-style normal form).
"""

from collections import namedtuple
from functools import cached_property
from itertools import combinations

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
    both and raises ShapeError.  The term lists compiled from the brackets
    are not fields: equality and hash stay those of (ranks, brackets).
    """

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

    def __setattr__(self, name, value):
        raise AttributeError("NilpotentLattice is immutable")

    @cached_property
    def _cocycle_terms(self):
        """Per bracket matrix, its nonzero entries (i, j, B_ij)."""
        return tuple(
            tuple((i, j, x) for i, row in enumerate(B.data) for j, x in enumerate(row) if x)
            for B in self.brackets
        )

    @cached_property
    def _bracket_terms(self):
        """Per bracket matrix, its nonzero alternating entries (i, j, B_ij - B_ji), i < j."""
        r = range(self.ranks[0])
        return tuple(
            tuple((i, j, B.data[i][j] - B.data[j][i])
                  for i in r for j in r[i + 1:] if B.data[i][j] != B.data[j][i])
            for B in self.brackets
        )

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
        """B(a, b) as a vector of length r_2 (empty off class 2, which has no
        brackets): sum a_i B_ij b_j over the nonzero entries of each bracket
        matrix.  a and b are level-1 vectors nilco built or checked."""
        return tuple(sum(a[i] * x * b[j] for i, j, x in terms) for terms in self._cocycle_terms)

    def bracket(self, a, b):
        """Commutator pairing B(a, b) - B(b, a) on level-1 vectors: the sum of
        (a_i b_j - a_j b_i) (B_ij - B_ji) over the nonzero alternating entries
        of each bracket matrix, i < j."""
        return tuple(sum((a[i] * b[j] - a[j] * b[i]) * x for i, j, x in terms)
                     for terms in self._bracket_terms)

    def pair_brackets(self, vectors):
        """bracket(v_p, v_q) for every pair p < q of `vectors`, in that
        lexicographic order, built term by term over all pairs at once."""
        pairs = list(combinations(vectors, 2))
        levels = []
        for terms in self._bracket_terms:
            level = [0] * len(pairs)
            for i, j, x in terms:
                level = [s + (u[i] * v[j] - u[j] * v[i]) * x for s, (u, v) in zip(level, pairs)]
            levels.append(level)
        return list(zip(*levels)) if levels else [()] * len(pairs)

    def product(self, factors):
        """The ordered product u_1^{n_1} ... u_k^{n_k} over the (u, n) pairs of
        `factors`; the identity when there are none.  The n u add level by
        level.  At class 2, u = (a, c) is (a, 0) * (0, c) with (0, c) central,
        so the central part also gains that of the level-1 word
        (`word_defect`)."""
        self._require_elements()
        factors = tuple(factors)
        sums = [(0,) * r for r in self.ranks]
        for u, n in factors:
            sums = [[s + n * x for s, x in zip(*levels)] for levels in zip(sums, u.coordinates)]
        if self.class_c == 2:
            defect = word_defect(self, [u.level(0) for u, _ in factors], [n for _, n in factors])
            sums[1] = [x + y for x, y in zip(sums[1], defect)]
        return LatticeElement(tuple(map(tuple, sums)))

    def multiply(self, u, v):
        return self.product(((u, 1), (v, 1)))

    def inverse(self, u):
        return self.product(((u, -1),))

    def power(self, u, n):
        return self.product(((u, n),))

    # -- finite quotients ---------------------------------------------

    def reduce_mod(self, m):
        """The finite quotient with all coordinates mod m; class <= 2
        only.  Nothing is built here: `twisted_orbits_finite` counts level by
        level, once the cap allows the order m^(r1 + r2).  The table takes the
        dense bracket matrices and keeps its own dense sums
        (`FiniteGroupTable.closed_form`), so the oracle stays an independent
        check of the compiled terms."""
        self._require_elements()
        if m < 2:
            raise NilcoError("modulus must be >= 2")
        return FiniteGroupTable(m, self.ranks, tuple(B.data for B in self.brackets))


class LatticeHomomorphism(namedtuple("LatticeHomomorphism", "source target matrices")):
    """A map between lattices as compatible level matrices.

    matrices[i] has shape (target rank_i) x (source rank_i); levels past a
    tower's class have rank 0.  The constructor refuses what it cannot
    check, class >= 3 targets and class >= 3 sources into a class-2 target,
    with UnsupportedClassError (exit 4 until a presentation is given); then
    it checks the shapes and bracket equivariance (`validate_hom`) and
    raises ShapeError or HomomorphismError.  So every instance is a genuine
    homomorphism.
    """

    __slots__ = ()

    def __new__(cls, source, target, matrices):
        if target.class_c > 2 or (target.class_c == 2 and source.class_c > 2):
            raise UnsupportedClassError(
                f"no group law past class 2, so a map from class {source.class_c} "
                f"into class {target.class_c} cannot be checked"
            )
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

    def generator_images(self):
        """Images of the source generators, level by level and in coordinate
        order within a level (the unit vectors of each level): generator j
        of level l goes to column j of matrices[l] at level l and to 0 at
        every other level, since a one-letter word has no defect; past the
        target's class it goes to the identity."""
        return [
            LatticeElement(tuple(
                column if lvl == level else (0,) * r for lvl, r in enumerate(self.target.ranks)
            ))
            for level in range(self.source.class_c)
            for column in self.matrices[level].transpose().data
        ]


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
    if tgt.class_c != 2:
        return None  # no brackets to compare
    # a class-1 source has no brackets and an r_2 x 0 M2: its side is 0
    M1, M2 = hom.matrices[:2]
    r1 = src.ranks[0]
    units = [tuple(int(k == i) for k in range(r1)) for i in range(r1)]
    columns = list(zip(*M1.data))
    for (i, j), unit_bracket, actual in zip(
        combinations(range(r1), 2), src.pair_brackets(units), tgt.pair_brackets(columns)
    ):
        expected = M2.apply(unit_bracket)
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
        if aj == 0:  # adds nothing: skipping it saves two cocycles per zero exponent
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

    For class <= 2, u = (a, c) is the ordered word
    x_1^{a_1} ... x_r^{a_r} * z^{c - defect(a)} in the source generators,
    with defect(a) the central part of its level-1 word (`word_defect` over
    the unit vectors).  The image is the ordered product (`product`) of the
    generator images (`generator_images`) with these exponents; there is no
    separate closed form.  So a validated homomorphism is applied exactly:
    apply_hom(u*v) == apply_hom(u)*apply_hom(v).  The one map from a class
    >= 3 source that can be built goes into a torus, where only the level-1
    word counts: its image is F_1 u.level(0).
    """
    src = hom.source
    u = src.element(u.coordinates) if isinstance(u, LatticeElement) else src.element(u)
    a = u.level(0)
    exponents = list(a)
    if src.class_c == 2:
        r1 = src.ranks[0]
        units = [tuple(int(k == j) for k in range(r1)) for j in range(r1)]
        exponents += [c - d for c, d in zip(u.level(1), word_defect(src, units, a))]
    return hom.target.product(zip(hom.generator_images(), exponents))
