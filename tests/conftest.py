"""Shared builders for the test suite."""

import random
from collections import Counter
from itertools import combinations
from itertools import product as iproduct
from math import gcd, prod

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from nilco.errors import ShapeError
from nilco.infra import CosetAction, InfraStructure
from nilco.intmat import IntMatrix, coset_representatives
from nilco.lattice import LatticeElement, LatticeHomomorphism, NilpotentLattice

# the exit codes README gives for each class of nilco.errors, as literals;
# the CLI returns 0, 2 (an empty fixture directory) and 6 itself
EXIT_CODES = {
    "NilcoError": 1, "InfiniteResultError": 1, "ParseError": 2, "SchemaError": 3,
    "ShapeError": 3, "HomomorphismError": 3, "UnsupportedClassError": 4, "BoundExceededError": 5,
}
EXIT_ERROR = EXIT_CODES["NilcoError"]
EXIT_SCHEMA = EXIT_CODES["SchemaError"]
EXIT_UNSUPPORTED = EXIT_CODES["UnsupportedClassError"]
EXIT_BOUND = EXIT_CODES["BoundExceededError"]

# a class-2 target with no centre, ranks (2, 0), as a map pair and as
# generator pairs with the same Delta_1 image 2Z x Z: two classes, each with
# a trivial fiber.  Without the second generator pair level 1 is infinite.
NO_CENTRE_TARGET = {"class": 2, "ranks": [2, 0], "brackets": []}
NO_CENTRE_MAPS = {"kind": "NILMANIFOLD", "target": NO_CENTRE_TARGET,
                  "F": [[[2, 0], [0, 1]], []], "G": [[[0, 0], [0, 0]], []]}
NO_CENTRE_PAIRS = {"kind": "PAIRS", "target": NO_CENTRE_TARGET,
                   "pairs": [[[[0, 0], []], [[2, 0], []]], [[[0, 0], []], [[0, 1], []]]]}
NO_CENTRE_INFINITE = dict(NO_CENTRE_PAIRS, pairs=NO_CENTRE_PAIRS["pairs"][:1])


def identity_matrix(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zero_matrix(rows, cols):
    return IntMatrix([[0] * cols for _ in range(rows)], shape=(rows, cols))


def matmul(A, B):
    """The product A B, for checks such as A V == H."""
    if A.cols != B.rows:
        raise ShapeError(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    cols = [B.column(j) for j in range(B.cols)]
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in A.data],
        shape=(A.rows, B.cols),
    )


def matvec(A, vec):
    """The product A vec, for vec of length A.cols."""
    if len(vec) != A.cols:
        raise ShapeError(f"vector length {len(vec)} != cols {A.cols}")
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in A.data)


def generators(lattice):
    """Level-wise basis elements, level 1 first: the generator order of
    `TwistedAction.from_homs`."""
    return [
        LatticeElement(tuple(
            tuple(int(lvl == level and j == i) for j in range(r))
            for lvl, r in enumerate(lattice.ranks)
        ))
        for level, rank in enumerate(lattice.ranks)
        for i in range(rank)
    ]


def commutator(lattice, u, v):
    """u v (v u)^{-1} in a class <= 2 lattice."""
    return lattice.multiply(
        lattice.multiply(u, v), lattice.inverse(lattice.multiply(v, u))
    )


def heisenberg():
    """Rank-(2,1) class-2 lattice with the standard upper-triangular cocycle."""
    return NilpotentLattice(ranks=(2, 1), brackets=(IntMatrix([[0, 1], [0, 0]]),))


def torus(n):
    return NilpotentLattice(ranks=(n,))


def heisenberg_squared():
    """Rank-(4,2) product of two Heisenberg lattices, one commutator each."""
    B1 = IntMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    B2 = IntMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    return NilpotentLattice(ranks=(4, 2), brackets=(B1, B2))


def free_class2(n=3):
    """Free class-2 lattice on n generators: one central coordinate per pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return NilpotentLattice(
        ranks=(n, len(pairs)),
        brackets=tuple(
            IntMatrix([[int((r, c) == p) for c in range(n)] for r in range(n)]) for p in pairs
        ),
    )


def heisenberg_period_pairs(K, s=None):
    """PAIRS document on the Heisenberg lattice with the generator pairs
    (0, (K,0)), (0, (0,K)), ((1,0), (1,0)) and, when s is given, (0, (0,0;s)).

    There are K^2 level-1 classes, and the fiber over (a1, a2) has order
    gcd(g, a2) with g = gcd(K, s) (g = K without s).  So the fiber order has
    period g, there are g period classes, and R = (K^2 / g) * pillai(g).
    """
    zero = [[0, 0], [0]]
    pairs = [[zero, [[K, 0], [0]]], [zero, [[0, K], [0]]], [[[1, 0], [0]], [[1, 0], [0]]]]
    if s is not None:
        pairs.append([zero, [[0, 0], [s]]])
    return {
        "kind": "PAIRS",
        "target": {"class": 2, "ranks": [2, 1], "brackets": [[[0, 1], [0, 0]]]},
        "pairs": pairs,
    }


def pillai(n):
    """Pillai's gcd-sum: sum of gcd(k, n) over k = 1..n."""
    return sum(gcd(k, n) for k in range(1, n + 1))


def fiber_sum_by_enumeration(engine):
    """(count, level_counts, fiber_counts) of a class-2 engine with a finite
    level 1, summed one level-1 class at a time; count is None when a fiber
    is infinite.

    Each fiber's columns are read off the moved elements psi(w) (a, 0)
    phi(w)^{-1} of the fiber words, and each order off sympy's invariant
    factors, so neither the closed-form columns, the period lattice nor
    nilco's elimination is used.
    """
    lat = engine.target
    r2 = lat.ranks[1]
    images = [engine.word_images(w) for w in engine._fiber_generators[0]]
    images = [(Q, lat.inverse(P)) for P, Q in images]
    orders = []
    for a in coset_representatives(engine.hermite1):
        base = lat.element((a, (0,) * r2))
        cols = [lat.multiply(lat.multiply(Q, base), P_inv).level(1) for Q, P_inv in images]
        orders.append(sympy_cokernel_order(IntMatrix.from_columns(cols, r2)))
    if None in orders:
        return None, None, None
    total = sum(orders)
    histogram = tuple(sorted(Counter(orders).items()))
    level_counts = (engine.order1, orders[0]) if len(histogram) == 1 else (total,)
    return total, level_counts, histogram


def mover_delta1(action):
    """Delta_1 of a TwistedAction from its movers' elements: the column
    q_1 - p_1 of each mover (p, q).  The reference for `TwistedAction.delta1`,
    which reads a map pair's level matrices and builds no element."""
    cols = [tuple(y - x for x, y in zip(p.level(0), q.level(0))) for p, q in action.movers]
    return IntMatrix.from_columns(cols, action.target.ranks[0])


def expand_reps(boxes):
    """The representatives that `ReidemeisterResult.reps` stands for, as
    LatticeElements in listing order: prefix + (v,) for each box (prefix,
    diagonal) and each v in the mixed-radix box product(range(d) for d in
    diagonal)."""
    return [
        LatticeElement(prefix + (v,))
        for prefix, diagonal in boxes
        for v in iproduct(*(range(d) for d in diagonal))
    ]


def sympy_invariant_factors(A):
    """Nonzero invariant factors of A, computed by sympy: a reference that
    shares no code with nilco."""
    M = sympy.Matrix(A.rows, A.cols, [x for row in A.data for x in row])
    return tuple(int(d) for d in invariant_factors(M, domain=sympy.ZZ) if d != 0)


def sympy_cokernel_order(A):
    """|Z^rows / im(A)| from sympy's invariant factors; None when infinite."""
    factors = sympy_invariant_factors(A)
    return prod(factors) if len(factors) == A.rows else None


def quotient_elements(table):
    """Every element of `table` as per-level coordinates in [0, m), level 1
    outermost and the first coordinate most significant: the order the flat
    reference numbers them in."""
    m = table.modulus
    return list(iproduct(*[list(iproduct(range(m), repeat=r)) for r in table.ranks]))


def lattice_law_images(lattice, table, a, b):
    """`table.project` of b * u * a^{-1} for every u of `quotient_elements(table)`,
    by the law of `lattice` (the quotient's lattice); a and b are lattice
    elements or per-level coordinates.  Level 2 is central, so
    b * (x, z) * a^{-1} = (b * (x, 0) * a^{-1}) * (0, z): one
    NilpotentLattice.product per level-1 vector x, then z is added to its
    level 2.  No closed form of the table is used."""
    m = table.modulus
    fiber = list(iproduct(range(m), repeat=sum(table.ranks[1:])))
    a, b = (lattice.element(getattr(e, "coordinates", e)) for e in (a, b))
    zero = tuple((0,) * r for r in lattice.ranks[1:])
    images = []
    for x in iproduct(range(m), repeat=lattice.ranks[0]):
        x_0 = lattice.element((x,) + zero)
        w1, w2 = table.project(lattice.product(((b, 1), (x_0, 1), (a, -1))))
        images += [(w1, tuple([(p + q) % m for p, q in zip(w2, z)])) for z in fiber]
    return images


def closed_form_image(table, form, u):
    """`table.project` of the image of u (a lattice element or per-level
    coordinates) under `form`, a mover's `table.closed_form`: level 1 moves
    by the step, level 2 by const + slopes . x over the level-1 vector x."""
    m, (x, z), (d, const, slopes) = table.modulus, table.project(u), form
    shift = [c + sum(s * t for s, t in zip(row, x)) for c, row in zip(const, slopes)]
    return (
        tuple([(p + q) % m for p, q in zip(x, d)]),
        tuple([(p + q) % m for p, q in zip(z, shift)]),
    )


def twisted_images(table, a, b):
    """Images of every u of `quotient_elements(table)` under
    u -> b * u * a^{-1}, expanded from the closed form the orbit count
    reads."""
    form = table.closed_form(table.project(a), table.project(b))
    return [closed_form_image(table, form, u) for u in quotient_elements(table)]


def union_roots(size, image_lists):
    """Least member of each index's block once every u in range(size) is
    joined with images[u], for each list in image_lists: one list-based
    union-find.  Roots only ever point to smaller indices, so one ascending
    pass resolves every index to its root."""
    parent = list(range(size))
    for images in image_lists:
        for u, v in enumerate(images):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u < v:
                parent[v] = u
            elif v < u:
                parent[u] = v
    for u in range(size):
        parent[u] = parent[parent[u]]
    return parent


def flat_blocks(lattice, table, movers):
    """The flat reference: each mover's `lattice_law_images` as indices into
    `quotient_elements(table)`, and the roots of one union-find over every
    index joined with those images.  A rank-0 torus has no lattice
    (`lattice` None): its one element is fixed."""
    index = {table.project(u): i for i, u in enumerate(quotient_elements(table))}
    image_lists = [
        [index[v] for v in lattice_law_images(lattice, table, a, b)] if lattice else [0]
        for a, b in movers
    ]
    return image_lists, union_roots(table.order, image_lists)


def flat_orbit_count(lattice, table, movers):
    """The number of blocks of `flat_blocks`."""
    roots = flat_blocks(lattice, table, movers)[1]
    return sum(1 for u, root in enumerate(roots) if root == u)


def determinant_cofactor(A):
    """Naive cofactor expansion: an independent determinant for small matrices."""
    n = A.rows
    if n == 0:
        return 1
    if n == 1:
        return A.data[0][0]
    total = 0
    for j in range(n):
        minor = IntMatrix(
            [[A.data[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        )
        total += (-1) ** j * A.data[0][j] * determinant_cofactor(minor)
    return total


def canonical_echelon(cols, rows, modulus=None, events=None):
    """The column Hermite loop that reduces the entries left of each pivot
    at its own row, in place, returning the pivot rows: the reference for
    `_column_echelon` followed by `_reduce_left`.  `events`, when given,
    collects "shrink" for each row whose pivot divides R down and "zero mod
    R" for each row whose entries are all 0 mod R."""
    def sub(a, q, b, start, R):
        a[start:] = [x - q * y if R is None else (x - q * y) % R
                     for x, y in zip(a[start:], b[start:])]

    R = modulus
    c = len(cols)
    pivots = []
    for row in range(rows):
        pc = len(pivots)
        if pc == c:
            break
        nz = [j for j in range(pc, c) if cols[j][row]]
        for j in nz if R else ():
            if gcd(cols[j][row], R) == 1:
                t = cols[j]
                inv = pow(t[row], -1, R)
                t[:] = [x * inv % R for x in t]
                for i in nz:
                    if i != j:
                        sub(cols[i], cols[i][row], t, row, R)
                nz = [j]
                break
        while len(nz) > 1:
            sizes = [abs(cols[j][row]) for j in nz]
            j0 = nz[sizes.index(min(sizes))]
            t = cols[j0]
            for j in nz:
                if j != j0:
                    sub(cols[j], cols[j][row] // t[row], t, row, R)
            nz = [j for j in nz if cols[j][row]]
        if nz:
            cols[pc], cols[nz[0]] = cols[nz[0]], cols[pc]
        elif R is None:
            continue
        else:
            if events is not None:
                events.append("zero mod R")
            cols[pc] = [R * (i == row) for i in range(len(cols[pc]))]
        h = cols[pc][row]
        if R is None and h < 0:
            cols[pc] = [-x for x in cols[pc]]
        elif R is not None and (d := gcd(h, R)) != h:
            u = pow(h // d, -1, R // d)
            cols[pc] = [x * u % R for x in cols[pc]]
            cols[pc][row] = d
        p = cols[pc]
        for j in range(pc):
            if q := cols[j][row] // p[row]:
                sub(cols[j], q, p, row, R)
        pivots.append(row)
        if R is not None and p[row] > 1:
            if events is not None and p[row] < R:
                events.append("shrink")
            R //= p[row]
            cols[pc + 1:] = [[x % R for x in col] for col in cols[pc + 1:]]
    return pivots


def dense_cocycle(lattice, a, b):
    """B(a, b) summed over all r_1^2 entries of each bracket matrix: the
    reference for the compiled terms of `NilpotentLattice.cocycle`."""
    r = range(lattice.ranks[0])
    return tuple(sum(a[i] * B.data[i][j] * b[j] for i in r for j in r) for B in lattice.brackets)


def dense_bracket(lattice, a, b):
    """sum_ij (a_i b_j - a_j b_i) B_ij over all r_1^2 entries of each bracket
    matrix: the reference for `NilpotentLattice.bracket`."""
    r = range(lattice.ranks[0])
    return tuple(
        sum((a[i] * b[j] - a[j] * b[i]) * B.data[i][j] for i in r for j in r)
        for B in lattice.brackets
    )


def validate_hom_by_basis_pairs(hom):
    """The reference for `lattice.validate_hom`: for each basis pair i < j in
    order, M2 applied to the source bracket of the unit vectors e_i and e_j
    against the target bracket of columns i and j of M1, both by
    `dense_bracket`.  None when every pair agrees, else the first violating
    pair as (i, j, expected, actual)."""
    src, tgt = hom.source, hom.target
    if tgt.class_c != 2:
        return None
    M1, M2 = hom.matrices[:2]
    r1 = src.ranks[0]
    units = [tuple(int(k == i) for k in range(r1)) for i in range(r1)]
    for i, j in combinations(range(r1), 2):
        expected = matvec(M2, dense_bracket(src, units[i], units[j]))
        actual = dense_bracket(tgt, M1.column(i), M1.column(j))
        if expected != actual:
            return (i, j, expected, actual)
    return None


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], shape=(rows, cols)
    )


def torus_hom(lat, M):
    return LatticeHomomorphism(source=lat, target=lat, matrices=(M,))


def heisenberg_self_map(lat, M1):
    """Self-map of the Heisenberg lattice from its level-1 matrix; the
    central matrix is forced by bracket equivariance."""
    from nilco.intmat import determinant

    return LatticeHomomorphism(
        source=lat, target=lat, matrices=(M1, IntMatrix([[determinant(M1)]]))
    )


def identity_hom(lattice):
    return LatticeHomomorphism(
        source=lattice,
        target=lattice,
        matrices=tuple(identity_matrix(r) for r in lattice.ranks),
    )


def fiber_deviation_rank(phi, psi, level):
    """Rank of the translation subgroup at the given 1-based level.

    Rank r_i at a level means the level count is finite; rank 0 means the
    deviation at that level is trivial.
    """
    if level < 1 or level > phi.depth:
        raise ShapeError(f"level {level} out of range 1..{phi.depth}")
    d = psi.matrices[level - 1] - phi.matrices[level - 1]
    return len(sympy_invariant_factors(d))


def random_element(rng, lat, lo=-4, hi=4):
    return lat.element(
        tuple(tuple(rng.randint(lo, hi) for _ in range(r)) for r in lat.ranks)
    )


def random_klein_like_infra(rng):
    """Random circle-valued pair on a Klein-bottle-like domain: an order-2
    holonomy action conjugated by a random unimodular basis change, with
    holonomy map images forced by compatibility (2 * image = matrix @ t)."""
    U = identity_matrix(2)
    for _ in range(3):
        k = rng.randint(-2, 2)
        E = IntMatrix([[1, k], [0, 1]]) if rng.random() < 0.5 else IntMatrix([[1, 0], [k, 1]])
        U = matmul(U, E)
    a, b = U.data[0]
    c, d = U.data[1]
    det = a * d - b * c
    Ui = IntMatrix([[d * det, -b * det], [-c * det, a * det]])
    A = matmul(matmul(Ui, IntMatrix([[-1, 0], [0, 1]])), U)
    t = matvec(Ui, (0, 1))
    cover = torus(2)
    circle = torus(1)
    F = matmul(IntMatrix([[0, 2 * rng.randint(-3, 3)]]), U)
    G = matmul(IntMatrix([[0, 2 * rng.randint(-3, 3)]]), U)
    phi = LatticeHomomorphism(cover, circle, (F,))
    psi = LatticeHomomorphism(cover, circle, (G,))
    f_img = matvec(F, t)[0] // 2
    g_img = matvec(G, t)[0] // 2
    assert 2 * f_img == matvec(F, t)[0] and 2 * g_img == matvec(G, t)[0]
    infra = InfraStructure(
        cover=cover,
        holonomy_order=2,
        coset_actions=(CosetAction(matrices=(A,), translation=cover.element((t,))),),
        map_images=((circle.element(((f_img,),)), circle.element(((g_img,),))),),
    )
    return infra, phi, psi


def heisenberg_scalar_infra(rng, k, holonomy):
    """Heisenberg k*U vs 0 on a Heisenberg cover, with arbitrary holonomy
    pairs (f(x), g(x)) drawn from rng.  The image of k*U contains every
    element whose coordinates are all divisible by k^2, so every orbit of the
    generated group is a union of cosets of that normal subgroup and the
    quotient mod k^2 counts the orbits exactly."""
    h = heisenberg()
    U = identity_matrix(2)
    for _ in range(3):
        s = rng.randint(-2, 2)
        E = IntMatrix([[1, s], [0, 1]]) if rng.random() < 0.5 else IntMatrix([[1, 0], [s, 1]])
        U = matmul(U, E)
    phi = heisenberg_self_map(h, IntMatrix([[k * x for x in row] for row in U.data]))
    psi = heisenberg_self_map(h, zero_matrix(2, 2))
    flip = CosetAction(
        matrices=(IntMatrix([[-1, 0], [0, 1]]), IntMatrix([[-1]])),
        translation=h.element(((0, 1), (0,))),
    )
    infra = InfraStructure(
        cover=h,
        holonomy_order=holonomy,
        coset_actions=(flip,) * (holonomy - 1),
        map_images=tuple(
            (random_element(rng, h, lo=-5, hi=5), random_element(rng, h, lo=-5, hi=5))
            for _ in range(holonomy - 1)
        ),
    )
    return infra, phi, psi


def _lattice_dict(lattice):
    out = {"class": lattice.class_c, "ranks": list(lattice.ranks)}
    if lattice.class_c == 2:
        out["brackets"] = [[list(r) for r in B.data] for B in lattice.brackets]
    return out


def _element_list(e):
    return [list(level) for level in e.coordinates]


def _matrices(hom):
    return [[list(r) for r in M.data] for M in hom.matrices]


def serialize_problem(problem):
    """Canonical dict form of a parsed problem (round-trip stable)."""
    action = problem.action
    out = {"kind": problem.kind, "target": _lattice_dict(action.target)}
    if problem.name is not None:
        out["name"] = problem.name
    if problem.kind == "PAIRS":
        out["pairs"] = [[_element_list(p), _element_list(q)] for p, q in action.pairs]
    else:
        phi, psi = action.maps
        out["F"], out["G"] = _matrices(phi), _matrices(psi)
        if problem.kind != "INFRA" and phi.source != action.target:
            out["source"] = _lattice_dict(phi.source)
    if problem.kind == "INFRA":
        out["infra"] = {
            "cover": _lattice_dict(problem.infra.cover),
            "holonomy_order": problem.infra.holonomy_order,
            "coset_actions": [
                {
                    "matrices": [[list(r) for r in M.data] for M in act.matrices],
                    "translation": _element_list(act.translation),
                }
                for act in problem.infra.coset_actions
            ],
            "map_images": [
                [_element_list(fi), _element_list(gi)]
                for fi, gi in problem.infra.map_images
            ],
        }
    if problem.expected is not None:
        out["expected"] = dict(problem.expected)
    return out


@pytest.fixture(scope="session")
def corpus_answers(tmp_path_factory):
    """Per corpus generator, computed when first read: the corpus line and
    the ledger column of each of its problems, from one in-process `compute`
    per problem (`check_ledger.answers`).  The corpus test and the ledger
    test read this one pass."""
    from check_ledger import answers  # it imports test_corpus, which imports this module

    path = tmp_path_factory.mktemp("corpus") / "problem.json"

    class Answers(dict):
        def __missing__(self, generator):
            self[generator] = answers(path, generator)
            return self[generator]

    return Answers()


@pytest.fixture
def rng():
    return random.Random(0xC01C1DE)
