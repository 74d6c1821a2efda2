"""Reidemeister and Nielsen coincidence invariants for nilpotent targets.

The count is assembled level by level along the lower central series: the
level-1 classes are the cokernel of the difference matrix Delta_1, and for
class-2 targets each level-1 class carries a fiber of central classes whose
translation subgroup is generated by the moves that stabilize the level-1
coordinate (kernel words of Delta_1 plus commutator words).  A fiber word w
with images phi(w) = (p_w, p2) and psi(w) = (p_w, q2) translates the fiber
over a by the affine column t_w + [p_w, a], with t_w = q2 - p2; (p_w, t_w)
is read once per word: a one-letter kernel word's from its mover, another
kernel word's from `word_images`, a commutator word's from the brackets of
its letters' level-1 parts.  The fiber order is constant on the cosets of
the period lattice L = im Delta_1 + ker B + e Z^{r1} (B(a) = ([p_w, a])_w,
e the order of the constant columns' cokernel), so the count is (c1 / |Q|)
times the sum of one fiber order per class of Q = Z^{r1} / L.  When every
p_w is 0 the fibers are uniform: B = 0, so L = Z^{r1}, |Q| = 1 and no
period lattice is built.  A finite map pair whose level-1 ranks agree is
uniform and needs no fiber word (see `TwistedOrbitEngine`).  Every order
is read from the pivot diagonal of a column Hermite form, and the same
form lists the canonical representatives, gives the kernel words and
reduces labels, so canonical class labels with exact witness words come
out of the same machinery.

R is the engine's count for every input kind; when G_1 - F_1 has a kernel
(dim X > dim Y) it can be finite while a level order |coker(G_l - F_l)| is
infinite.  Class >= 3 targets, and class >= 3 sources into a class-2
target, exit 4 until a presentation is given: no map or action into them
can be built (`LatticeHomomorphism`, `TwistedAction`).  `verdict` turns
every count into a CoincidenceReport.
"""

from collections import namedtuple
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import sub

from .errors import (
    InfiniteResultError,
    NilcoError,
    ShapeError,
    UnsupportedClassError,
    max_order_cap,
)
from .intmat import (
    IntMatrix,
    cokernel,
    column_hermite,
    coset_representatives,
    kernel_basis,
    reduce_to_canonical_rep,
)
from .lattice import LatticeElement, _checked_make

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

# rationale tags for the deformability decision
EQ_THM = "EQ-THM"  # lattice source: N=0 <=> R=infinite <=> deformable
INFTY_THM = "INFTY-THM"  # general source, R=infinite => deformable
REMARK_GAP = "REMARK-GAP"  # general source, finite R decides nothing


ReidemeisterResult = namedtuple("ReidemeisterResult", (
    "count",  # positive int when finite, None when infinite
    "level_counts",  # per-level orders; None marks an infinite level
    "infinite_level",  # 1-based, set exactly when the count is infinite
    "reps",  # canonical representatives (class <= 2, finite, small) as boxes
    # (prefix, diagonal), each standing for prefix + (v,), v in product(*map(range, diagonal))
    "fiber_counts",  # (fiber order, level-1 classes) pairs by order
), defaults=(None, None, None))
REPS_LIMIT = 1024  # the most representatives a report lists

CoincidenceReport = namedtuple("CoincidenceReport", "R N deformable rationale")


def verdict(R, theorem):
    """The one builder of a CoincidenceReport: the count R under `theorem`.

    EQ_THM (nilmanifold or infra-nilmanifold source): R infinite gives N = 0
    and YES, R finite N = R and NO.  INFTY_THM (any finite complex): R
    infinite gives N = 0 and YES; R finite decides nothing (N = R, UNKNOWN,
    REMARK_GAP).
    """
    rationale = theorem
    if R.infinite_level is not None:
        N, deformable = 0, YES
    elif theorem == EQ_THM:
        N, deformable = R.count, NO
    else:
        N, deformable, rationale = R.count, UNKNOWN, REMARK_GAP
    return CoincidenceReport(R, N, deformable, rationale)


class TwistedAction(namedtuple("TwistedAction", "target pairs maps", defaults=((), None))):
    """The relation u ~ psi(x) * u * phi(x)^{-1} on the target lattice, given
    by mover pairs (phi(x), psi(x)): the generator images of the map pair
    `maps` = (phi, psi) when it is set, then the element pairs `pairs`.  The
    constructor refuses a target of class > 2, which has no group law here,
    with UnsupportedClassError, and maps that do not share the target and a
    source, or a pair element not of the target's shape, with ShapeError.
    A map pair's movers are built only when `movers` is read; `delta1` reads
    its level matrices."""

    __slots__ = ()

    def __new__(cls, target, pairs=(), maps=None):
        self = cls._trusted(target, pairs, maps)
        for p, q in self.pairs:
            target.check_shape(p.coordinates)
            target.check_shape(q.coordinates)
        return self

    @classmethod
    def _trusted(cls, target, pairs=(), maps=None):
        """Pairs of elements whose shape the caller checked (the parser's):
        only the target's class and the maps are checked."""
        if target.class_c > 2:
            raise UnsupportedClassError(
                f"no group law past class 2, so an action on a class {target.class_c} "
                "target cannot be counted"
            )
        if maps is not None:
            phi, psi = maps = tuple(maps)
            if phi.source != psi.source or phi.target != target or psi.target != target:
                raise ShapeError("the two homomorphisms must share source and target")
        return super().__new__(cls, target, tuple(pairs), maps)

    _make = _checked_make

    @classmethod
    def from_homs(cls, phi, psi):
        """The action of a map pair, over the source generators.  Both maps
        were checked when they were built."""
        return cls(phi.target, maps=(phi, psi))

    @property
    def movers(self):
        """Every mover pair, built when read: the maps' generator images
        (phi(s), psi(s)) first, then `pairs`."""
        if self.maps is None:
            return self.pairs
        phi, psi = self.maps
        return tuple(zip(phi.generator_images(), psi.generator_images())) + self.pairs

    @property
    def delta1(self):
        """Delta_1: the column b_j - a_j of the level-1 parts a_j of p and
        b_j of q, per mover (p, q).  A map pair's is built row by row: row i
        is row i of G_1 - F_1, a zero per source generator above level 1,
        then row i of the pairs' columns."""
        cols = [tuple(map(sub, q.level(0), p.level(0))) for p, q in self.pairs]
        if self.maps is None:
            return IntMatrix.from_columns(cols, self.target.ranks[0])
        phi, psi = self.maps
        zeros = (0,) * sum(phi.source.ranks[1:])
        rows = [(*map(sub, g, f), *zeros)
                for f, g in zip(phi.matrices[0].data, psi.matrices[0].data)]
        if cols:
            rows = [row + tail for row, tail in zip(rows, zip(*cols))]
        return IntMatrix._of(tuple(rows), len(rows), len(rows[0]))  # r_1 >= 1 rows


def _word_power(word, n):
    """word^n, with a length that does not grow with |n|: in a class <= 2
    target, (y_1^{e_1} ... y_L^{e_L})^n = y_1^{n e_1} ... y_L^{n e_L} times
    prod_{k<l} [y_l, y_k]^{e_k e_l n (n - 1) / 2} for every integer n, with
    [y, x]^m = y^m x y^{-m} x^{-1} central."""
    if n == 0:
        return ()
    half = n * (n - 1) // 2
    out = [(j, n * e) for j, e in word]
    for k, (i, e) in enumerate(word):
        for j, f in word[k + 1:]:
            m = half * e * f
            if m and i != j:
                out += [(j, m), (i, 1), (j, -m), (i, -1)]
    return tuple(out)


class TwistedOrbitEngine:
    """Exact orbit bookkeeping for a twisted action on a class <= 2 lattice.

    A map pair (no extra `pairs`) whose source has the target's level-1 rank
    r1 has Delta_1 = [G_1 - F_1 | 0 ... 0] with G_1 - F_1 square, and when
    its order c1 = |det(G_1 - F_1)| is finite, R = c1 |coker(G_2 - F_2)|:
    the constant fiber form is `hermite2` = column_hermite(G_2 - F_2), with
    no moving column.  The kernel words are then the central generators'
    one-letter words, with t = (G_2 - F_2) e_j, and each commutator word has
    t = (G_2 - F_2) [e_i, e_j]_X by the bracket equivariance every map was
    checked for (`validate_hom`), so the constant columns span exactly
    im(G_2 - F_2), whose Hermite form is unique.  (`hermite2` is None for
    any other action, and when c1 is infinite.)  The fiber words and their
    columns (`_fiber_generators`) are built only when `label` or the general
    path (pairs, INFRA, a wider source) reads them.
    """

    def __init__(self, action):
        target = action.target
        self.target = target
        self.action = action
        self.r1 = target.ranks[0]
        self.r2 = target.rank_at(1)

        self.delta1 = action.delta1
        self.k = self.delta1.cols
        self.hermite1 = column_hermite(self.delta1)
        self.hermite2 = None
        self._fibers = {}  # _fiber_key -> fiber form: by _fiber, or the uniform constant one
        if target.class_c == 2 and self.hermite1.live_cols > self.r1:
            # a finite order of a wide live part needs kernel words: the one
            # exact run that gives them gives the order too, so they come first
            self._kernel = kernel_basis(self.hermite1)
        # a square live part gets its order from the determinant, and a
        # singular one builds nothing more
        self.order1 = self.hermite1.order
        if self.order1 is None or target.class_c == 1:
            return
        maps = action.maps
        if maps is not None and not action.pairs and maps[0].source.ranks[0] == self.r1:
            phi, psi = maps  # equal level-1 ranks: see the class docstring
            self.hermite2 = column_hermite(psi.matrices[1] - phi.matrices[1])
            self._constant, self._moving = self.hermite2, ()
        else:
            columns = self._fiber_generators[1]
            self._moving = tuple(p for p, _ in columns if any(p))
            self._constant = column_hermite(
                IntMatrix.from_columns([t for p, t in columns if not any(p)], self.r2)
            )
        if not self._moving:  # uniform: every fiber matrix is the constant one
            self._fibers[()] = self._constant

    @cached_property
    def movers(self):
        """The action's mover pairs (`pairs` itself for a PAIRS action), built
        on first read: by the class-2 fiber words (their level-1 parts, a
        one-letter kernel word's mover, `word_images`) and by `move`."""
        return self.action.movers

    @cached_property
    def _kernel(self):
        """A basis of ker Delta_1, the kernel words' exponents, read with a
        finite order only: a wide live part's before its order (see __init__);
        a square live part's are the zero columns' unit vectors, with no loop."""
        return kernel_basis(self.hermite1)

    # -- move application --------------------------------------------

    def word_images(self, word):
        """(phi(word), psi(word)) as exact target elements."""
        t, movers = self.target, self.movers
        P = t.product([(movers[j][0], e) for j, e in word])
        Q = t.product([(movers[j][1], e) for j, e in word])
        return P, Q

    def move(self, u, word):
        """psi(word) * u * phi(word)^{-1}."""
        P, Q = self.word_images(word)
        return self.target.product(((Q, 1), (u, 1), (P, -1)))

    # -- central fibers -----------------------------------------------

    @cached_property
    def _fiber_generators(self):
        """(words, columns): the fiber words, kernel words first and then the
        commutator word of every pair of movers, and their columns (p_w, t_w).
        Built on first read: by the general count, `_fiber_matrix` and `label`."""
        # mover j is p_j = (a_j, c_j), q_j = (b_j, d_j); a word with images
        # P = (p, p2) and Q = (p, q2) moves (a, c) to Q (a, c) P^{-1} =
        # (a, c + t + [p, a]) with t = q2 - p2
        lat, movers = self.target, self.movers
        a = [p.level(0) for p, _ in movers]
        b = [q.level(0) for _, q in movers]
        words = []
        columns = []
        # kernel words: v in the kernel of Delta_1 gives the word prod x_j^{v_j},
        # whose images P and Q share their level-1 part p_w.  A one-letter word
        # (j, 1) has mover j itself for images; any other word their products
        for v in self._kernel:
            word = tuple((j, v[j]) for j in range(self.k) if v[j] != 0)
            words.append(word)
            if len(word) == 1 and word[0][1] == 1:
                P, Q = movers[word[0][0]]
            else:
                P, Q = self.word_images(word)
            columns.append((P.level(0), tuple(map(sub, Q.level(1), P.level(1)))))
        # commutator words stabilize level 1 as well: p_w = 0 and
        # t_w = [b_i, b_j] - [a_i, a_j], for all pairs i < j at once
        zero = (0,) * self.r1
        words += [((i, 1), (j, 1), (i, -1), (j, -1)) for i, j in combinations(range(self.k), 2)]
        columns += [(zero, tuple(map(sub, tb, ta)))
                    for ta, tb in zip(lat.pair_brackets(a), lat.pair_brackets(b))]
        return tuple(words), tuple(columns)

    def _fiber_matrix(self, a):
        """Columns t_w + [p_w, a]: the exact central translations of the fiber
        generator words over the level-1 representative a."""
        cols = [
            tuple(x + y for x, y in zip(t, self.target.bracket(p, a)))
            for p, t in self._fiber_generators[1]
        ]
        return IntMatrix.from_columns(cols, self.r2)

    def _fiber(self, a):
        """Column Hermite form of a fiber matrix with the image of the one over
        a: one form per _fiber_key, shared by the count and the listing."""
        key = self._fiber_key(a)
        if key not in self._fibers:
            self._fibers[key] = column_hermite(self._fiber_matrix(a))
        return self._fibers[key]

    def _brackets(self, a):
        """B(a) = ([p_w, a])_w over the moving columns (p_w != 0), flattened."""
        return tuple(x for p in self._moving for x in self.target.bracket(p, a))

    def _fiber_key(self, a):
        """B(a), reduced mod e when e is finite: representatives with equal
        keys have fiber matrices with the same image (see _period_matrix)."""
        e = self._constant.order
        return self._brackets(a) if e is None else tuple(x % e for x in self._brackets(a))

    def _period_matrix(self):
        """Columns spanning the period lattice L = im Delta_1 + ker B + e Z^{r1}.

        B(a) = ([p_w, a])_w is linear in a, so M(a + x) = M(a) for x in
        ker B.  The constant columns (p_w = 0) lie in every fiber image; when
        their cokernel is finite of Hermite order e, e Z^{r2} lies in every
        fiber image too, so adding e x to a changes no image.  Adding a
        column of Delta_1 moves a to another representative of its class,
        whose fiber has the same order.  So the fiber order is constant on
        the cosets of L.
        """
        units = [tuple(int(i == j) for i in range(self.r1)) for j in range(self.r1)]
        B = IntMatrix.from_columns(
            [self._brackets(u) for u in units], self.r2 * len(self._moving)
        )
        cols = [self.delta1.column(j) for j in range(self.k)] + kernel_basis(column_hermite(B))
        e = self._constant.order
        if e is not None:
            cols += [tuple(e * x for x in u) for u in units]
        return IntMatrix.from_columns(cols, self.r1)

    def oracle_modulus(self):
        """Quotient modulus for the brute-force oracle, one rule for class 1
        and 2: m = max(2, e1 n), e1 the exponent of coker Delta_1, E the lcm
        of the exponents of coker M(q) over the period classes q (1 without a
        centre) and n = E for an odd E, else 2E.  It runs `result` once,
        whose cached fiber forms give every fiber image (see _period_matrix),
        and raises NilcoError when the count is infinite.

        The count mod m is R: reduction mod m has a normal kernel K_m, and
        every class is a union of K_m-cosets.  Central part: E Z^{r2} lies in
        im M(a) for every a, and E | m.  Level 1: for each x a word v has
        Delta_1 v = e1 x, and w = v^n moves (a, c) to a + m x with central
        error n (t_v + terms linear in a) + C(n, 2) d_v, which E divides
        (E | n and E | C(n, 2)); the fiber words over a + m x take it off.
        """
        if self.result().count is None:
            raise NilcoError("no finite modulus for an infinite result")
        e1 = max((1, *cokernel(self.delta1).torsion))
        E = lcm(1, *(max((1, *cokernel(f.A).torsion)) for f in self._fibers.values()))
        return max(2, e1 * (E if E % 2 else 2 * E))

    # -- counting ------------------------------------------------------

    def result(self, reps_limit=None):
        """ReidemeisterResult for the action (no deformability decision)."""
        c1, class_c = self.order1, self.target.class_c
        if c1 is None:
            return ReidemeisterResult(count=None, level_counts=(None,) * class_c, infinite_level=1)
        if class_c == 1:
            listed = reps_limit is not None and c1 <= reps_limit
            reps = (((), self.hermite1.diagonal),) if listed else None
            return ReidemeisterResult(count=c1, level_counts=(c1,), reps=reps)

        # R = (c1 / |Q|) sum_{q in Q} |coker M(q)| with Q = Z^{r1} / L: one
        # fiber per period class, each standing for c1 / |Q| level-1 classes.
        # Uniform fibers (no moving column) have B = 0, so L = Z^{r1} and
        # |Q| = 1: the constant fiber alone, with no period lattice
        if self._moving:
            hermite = column_hermite(self._period_matrix())
            classes = c1 // hermite.order
            fibers = map(self._fiber, coset_representatives(hermite, max_count=max_order_cap()))
        else:
            classes, fibers = c1, (self._constant,)
        histogram = {}
        for fiber in fibers:
            order = fiber.order
            if order is None:
                return ReidemeisterResult(count=None, level_counts=(c1, None), infinite_level=2)
            histogram[order] = histogram.get(order, 0) + classes
        total = sum(order * n for order, n in histogram.items())
        reps = None
        if reps_limit is not None and total <= reps_limit:
            level1 = coset_representatives(self.hermite1)
            if self._moving:
                reps = tuple(((a,), self._fiber(a).diagonal) for a in level1)
            else:
                diagonal = self._constant.diagonal
                reps = tuple(((a,), diagonal) for a in level1)
        return ReidemeisterResult(
            count=total,
            # with several fiber orders the count has no per-level factorization
            level_counts=(c1, *histogram) if len(histogram) == 1 else (total,),
            reps=reps,
            fiber_counts=tuple(sorted(histogram.items())),
        )

    # -- labels --------------------------------------------------------

    def label(self, u):
        """Canonical class representative of u with an exact witness word w,
        move(u, w) being that representative.  The representative is the one
        the canonical forms give: (a_rep,) at level 1, (a_rep, c_rep) over
        it, c_rep reduced by the Hermite form of a_rep's own fiber matrix.

        Raises InfiniteResultError when the class set is infinite.
        """
        u = self.target.element(u.coordinates)
        if self.order1 is None:
            raise InfiniteResultError("infinitely many classes at level 1")
        a_rep, z = reduce_to_canonical_rep(u.level(0), self.hermite1)
        word1 = tuple((j, -z[j]) for j in range(self.k) if z[j] != 0)
        if self.target.class_c == 1:
            return LatticeElement((a_rep,)), word1

        # the form of a_rep's own matrix, so that M(a_rep) z2 == c - c_rep
        ch = column_hermite(self._fiber_matrix(a_rep))
        if ch.order is None:
            raise InfiniteResultError("infinitely many central classes over this level-1 class")
        c = self.move(u, word1).level(1) if word1 else u.level(1)
        c_rep, z2 = reduce_to_canonical_rep(c, ch)
        words, word2 = self._fiber_generators[0], ()
        for g, coeff in enumerate(z2):
            word2 = word2 + _word_power(words[g], -coeff)
        return LatticeElement((a_rep, c_rep)), word2 + word1


def coincidence_invariants(phi, psi, reps_limit=REPS_LIMIT):
    """R(f,g), N(f,g) and the deformability decision for a lattice pair.

    `level_counts` are the orders |coker(G_l - F_l)|, read from column
    Hermite forms; the orbit engine decides R (which may be finite over an
    infinite level) and lists the representatives.  Both maps were checked
    when they were built (LatticeHomomorphism).  The engine reads Delta_1
    from the level matrices.  When the level-1 ranks agree and c1 is
    finite, level 2's order comes from the engine's own form (`hermite2`,
    see `TwistedOrbitEngine`).
    """
    engine = TwistedOrbitEngine(TwistedAction.from_homs(phi, psi))
    # the engine's level-1 matrix is G1 - F1 plus a zero column per source
    # generator above level 1, so its order is level 1's
    forms = [engine.hermite2] if engine.hermite2 is not None else [
        column_hermite(psi.matrices[i] - phi.matrices[i]) for i in range(1, phi.depth)
    ]
    level_counts = (engine.order1, *(form.order for form in forms))
    R = engine.result(reps_limit=reps_limit)._replace(level_counts=level_counts)
    return verdict(R, EQ_THM)


def coincidence_invariants_from_pairs(action):
    """R, N and the one-directional decision for an arbitrary source given
    by `action = TwistedAction(target, pairs)`.

    R = infinity forces deformability; a finite R decides nothing for a
    general source, so the verdict is UNKNOWN in that case (see `verdict`).
    """
    return verdict(TwistedOrbitEngine(action).result(reps_limit=REPS_LIMIT), INFTY_THM)
