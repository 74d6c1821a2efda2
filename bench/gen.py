"""Seeded problem generators for the benchmark workloads.

Every generator returns a list of problem documents (the JSON a user would
hand to ``nilco``) together with the operation to run on each and the answer
that operation must give.  Answers come from closed forms, from the way the
problem was built, or from sympy; nothing here imports nilco, so the
expected values are independent of the counting code under test.

The size of every problem, and its answer, is fixed by the workload's
schedule; the seed draws the entries and the order of generator pairs.  That
keeps the work per pass, and so the timings, close across seeds while the
inputs themselves differ.
"""

import random
from math import gcd, lcm, prod

INF = "infinite"

HEISENBERG = {"class": 2, "ranks": [2, 1], "brackets": [[[0, 1], [0, 0]]]}


# -- small exact helpers (independent of nilco) -------------------------


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def diagonal(d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


def det2(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def sympy_det(M):
    from sympy import Matrix

    return int(Matrix(M).det())


def sympy_cokernel_order(M, rows):
    """|Z^rows / im(M)| from sympy's invariant factors; INF when infinite."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    factors = [abs(int(d)) for d in invariant_factors(Matrix(M), domain=ZZ)]
    nonzero = [d for d in factors if d != 0]
    return prod(nonzero) if len(nonzero) == rows else INF


def unimodular_pair(rng, n, a, ops):
    """Random P with det +-1 and its exact inverse.

    P is a product of `ops` elementary column operations with multipliers in
    [-a, a], swaps and sign flips; the inverse applies the inverse operations
    in reverse as row operations.
    """
    P = identity(n)
    Pinv = identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        roll = rng.random()
        if roll < 0.8:
            k = rng.choice([x for x in range(-a, a + 1) if x != 0])
            # P <- P E with E = I + k e_j e_i^T (col_i += k col_j)
            for row in P:
                row[i] += k * row[j]
            # Pinv <- E^{-1} Pinv (row_j -= k row_i)
            Pinv[j] = [x - k * y for x, y in zip(Pinv[j], Pinv[i])]
        elif roll < 0.9:
            for row in P:
                row[i], row[j] = row[j], row[i]
            Pinv[i], Pinv[j] = Pinv[j], Pinv[i]
        else:
            for row in P:
                row[i] = -row[i]
            Pinv[i] = [-x for x in Pinv[i]]
    return P, Pinv


def unimodular(rng, n, a, ops):
    return unimodular_pair(rng, n, a, ops)[0]


def random_matrix(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def pillai(n):
    """sum_{j=1..n} gcd(j, n)."""
    return sum(gcd(j, n) for j in range(1, n + 1))


def lattice_expected(R, lattice_source=True):
    """Expected block and rationale for a lattice (or pair-system) source."""
    if R == INF:
        return {"R": INF, "N": 0, "deformable": "yes"}, (
            "EQ-THM" if lattice_source else "INFTY-THM"
        )
    return (
        {"R": R, "N": R, "deformable": "no" if lattice_source else "unknown"},
        "EQ-THM" if lattice_source else "REMARK-GAP",
    )


def compute_op(name, doc, expected, rationale):
    doc = dict(doc, name=name, expected=expected)
    return {"name": name, "doc": doc, "op": "compute", "expect": dict(expected, rationale=rationale)}


# -- torus family -------------------------------------------------------

# R per problem, cycled; 0 marks an infinite count.  Counts up to 1024 also
# make nilco list every class representative.
TORUS_COUNTS = (12, 0, 360, 5040, 96, 0, 840, 30240, 2, 210)

# (rank, factor kind, size) per problem.  "dense": row-permuted L @ U with
# off-diagonal entries in [-size, size], which puts the entries of G - F
# between tens and about 1e6.  "sparse": 2n random elementary operations
# with multipliers in [-size, size], entries up to about 5e4.  Ranks from 15
# on use only "sparse": there, dense factors or larger entries make the cost
# of nilco's SNF swing by 30x to 3000x from one seed to the next, which no
# run-to-run bound could hold (calibrate.py measures that blow-up on the
# 40x40 case).
TORUS_SCHEDULE = [
    (n, kind, size, TORUS_COUNTS[i % len(TORUS_COUNTS)])
    for i, (n, kind, size) in enumerate(
        2 * ([(n, "dense", a) for n in range(6, 15) for a in (1, 3, 8, 16)]
             + [(n, "sparse", a) for n in range(15, 21) for a in (1, 2, 3)])
    )
]


def dense_unimodular(rng, n, a):
    """Row-permuted L @ U with unit-triangular L, U and entries in [-a, a]."""
    L = [[1 if i == j else rng.randint(-a, a) if i > j else 0 for j in range(n)] for i in range(n)]
    U = [[1 if i == j else rng.randint(-a, a) if i < j else 0 for j in range(n)] for i in range(n)]
    M = matmul(L, U)
    rng.shuffle(M)
    return M


def torus_family(rng):
    return [
        torus_problem(rng, f"torus-{idx}", n, kind, size, R)
        for idx, (n, kind, size, R) in enumerate(TORUS_SCHEDULE)
    ]


def split_count(rng, n, R):
    """Diagonal of length n with product R, spread over up to three entries
    (R = 0: one zero entry and one small factor)."""
    d = [1] * n
    slots = rng.sample(range(n), min(3, n))
    if R == 0:
        d[slots[0]] = 0
        d[slots[1]] = rng.choice([2, 3, 5])
        return d
    for slot in slots[:-1]:
        f = rng.choice([x for x in range(1, min(R, 12) + 1) if R % x == 0])
        d[slot] = f
        R //= f
    d[slots[-1]] = R
    return d


def torus_problem(rng, name, n, kind, size, R):
    """G - F = U diag(d) V with unimodular U, V and prod(d) = R."""
    d = split_count(rng, n, R)
    if kind == "dense":
        U, V = dense_unimodular(rng, n, size), dense_unimodular(rng, n, size)
    else:
        U, V = unimodular(rng, n, size, ops=2 * n), unimodular(rng, n, size, ops=2 * n)
    delta = matmul(matmul(U, diagonal(d)), V)
    F = random_matrix(rng, n, n, rng.choice([9, 999, 999999]))
    G = add(F, delta)
    expected, rationale = lattice_expected(INF if 0 in d else prod(d))
    doc = {"kind": "TORUS", "target": {"class": 1, "ranks": [n]}, "F": [F], "G": [G]}
    return compute_op(name, doc, expected, rationale)


# -- class-2 family -----------------------------------------------------


def _heisenberg_map(M1):
    return [M1, [[det2(M1)]]]


def heisenberg_scalar(rng, name, k):
    """k*U versus the zero map on the Heisenberg lattice: R = k^4."""
    U = unimodular(rng, 2, 2, ops=4)
    F = _heisenberg_map([[k * x for x in row] for row in U])
    G = _heisenberg_map(zeros(2, 2))
    expected, rationale = lattice_expected(k**4)
    doc = {"kind": "NILMANIFOLD", "target": HEISENBERG, "F": F, "G": G}
    return compute_op(name, doc, expected, rationale)


def with_det(rng, n, d):
    """Random n x n integer matrix of determinant +-d: U diag(1, ..., 1, d) V."""
    return matmul(matmul(unimodular(rng, n, 2, ops=2 * n), diagonal([1] * (n - 1) + [d])),
                  unimodular(rng, n, 2, ops=2 * n))


def heisenberg_constant(rng, name, d):
    """Self-map with |det F1| = d versus the zero map: R = d * d."""
    doc = {
        "kind": "NILMANIFOLD", "target": HEISENBERG,
        "F": _heisenberg_map(with_det(rng, 2, d)), "G": _heisenberg_map(zeros(2, 2)),
    }
    expected, rationale = lattice_expected(d * d)
    return compute_op(name, doc, expected, rationale)


def heisenberg_random(rng, name, bound):
    """Random Heisenberg self-map pair: R = |det(G1-F1)| * |det G1 - det F1|."""
    F1 = random_matrix(rng, 2, 2, bound)
    G1 = random_matrix(rng, 2, 2, bound)
    d1 = det2(sub(G1, F1))
    d2 = det2(G1) - det2(F1)
    R = INF if d1 == 0 or d2 == 0 else abs(d1) * abs(d2)
    expected, rationale = lattice_expected(R)
    doc = {
        "kind": "NILMANIFOLD", "target": HEISENBERG,
        "F": _heisenberg_map(F1), "G": _heisenberg_map(G1),
    }
    return compute_op(name, doc, expected, rationale)


# Heisenberg x Heisenberg: ranks (4, 2), one commutator per factor.
H_SQUARED = {
    "class": 2, "ranks": [4, 2],
    "brackets": [
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
    ],
}


def _h2_map(A, B, swap):
    """Block map of H x H: A on factor 1 and B on factor 2, or the factors
    exchanged; the central matrix is forced by the commutators."""
    M1 = zeros(4, 4)
    M2 = zeros(2, 2)
    if not swap:
        for i in range(2):
            for j in range(2):
                M1[i][j] = A[i][j]
                M1[2 + i][2 + j] = B[i][j]
        M2[0][0], M2[1][1] = det2(A), det2(B)
    else:
        for i in range(2):
            for j in range(2):
                M1[2 + i][j] = A[i][j]
                M1[i][2 + j] = B[i][j]
        M2[1][0], M2[0][1] = det2(A), det2(B)
    return [M1, M2]


def h2_constant(rng, name, dets):
    """Block self-map with block determinants +-a, +-b versus the zero map:
    R = |det F1| * |det F2| = (ab)^2."""
    a, b = dets
    F = _h2_map(with_det(rng, 2, a), with_det(rng, 2, b), rng.random() < 0.5)
    G = _h2_map(zeros(2, 2), zeros(2, 2), False)
    expected, rationale = lattice_expected((a * b) ** 2)
    doc = {"kind": "NILMANIFOLD", "target": H_SQUARED, "F": F, "G": G}
    return compute_op(name, doc, expected, rationale)


def h2_uniform(rng, name, bound):
    F = _h2_map(random_matrix(rng, 2, 2, bound), random_matrix(rng, 2, 2, bound), False)
    G = _h2_map(random_matrix(rng, 2, 2, bound), random_matrix(rng, 2, 2, bound),
                rng.random() < 0.5)
    d1 = sympy_det(sub(G[0], F[0]))
    d2 = sympy_det(sub(G[1], F[1]))
    R = INF if d1 == 0 or d2 == 0 else abs(d1) * abs(d2)
    expected, rationale = lattice_expected(R)
    doc = {"kind": "NILMANIFOLD", "target": H_SQUARED, "F": F, "G": G}
    return compute_op(name, doc, expected, rationale)


# Free class-2 nilpotent lattice on three generators: ranks (3, 3), central
# coordinates for the pairs (1,2), (1,3), (2,3).
FREE3_PAIRS = ((0, 1), (0, 2), (1, 2))
FREE3 = {
    "class": 2, "ranks": [3, 3],
    "brackets": [
        [[int((r, c) == pair) for c in range(3)] for r in range(3)] for pair in FREE3_PAIRS
    ],
}


def _wedge2(M):
    return [
        [M[i][k] * M[j][l] - M[i][l] * M[j][k] for (k, l) in FREE3_PAIRS]
        for (i, j) in FREE3_PAIRS
    ]


def free3_constant(rng, name, d):
    """Self-map with |det F1| = d versus the zero map; det of the wedge square
    is d^2, so R = d^3."""
    F1 = with_det(rng, 3, d)
    doc = {
        "kind": "NILMANIFOLD", "target": FREE3,
        "F": [F1, _wedge2(F1)], "G": [zeros(3, 3), zeros(3, 3)],
    }
    expected, rationale = lattice_expected(d**3)
    return compute_op(name, doc, expected, rationale)


def free3_uniform(rng, name, bound):
    F1 = random_matrix(rng, 3, 3, bound)
    G1 = random_matrix(rng, 3, 3, bound)
    d1 = sympy_det(sub(G1, F1))
    d2 = sympy_det(sub(_wedge2(G1), _wedge2(F1)))
    R = INF if d1 == 0 or d2 == 0 else abs(d1) * abs(d2)
    expected, rationale = lattice_expected(R)
    doc = {
        "kind": "NILMANIFOLD", "target": FREE3,
        "F": [F1, _wedge2(F1)], "G": [G1, _wedge2(G1)],
    }
    return compute_op(name, doc, expected, rationale)


def _coords(level1, central):
    return [list(level1), list(central)]


def mixed_pairs(m, n, flip):
    """Scaled mixed-pairs fixture on the Heisenberg lattice.

    Movers (1, m e1), (1, n e2) and conjugation by e1.  The fiber over the
    level-1 class (a1, a2) has order gcd(a2, n), so R = m * P(n) with P
    Pillai's function; conjugating by e2 instead (flip) gives n * P(m).
    """
    zero = [0, 0]
    pairs = [
        [_coords(zero, [0]), _coords([m, 0], [0])],
        [_coords(zero, [0]), _coords([0, n], [0])],
    ]
    x = [0, 1] if flip else [1, 0]
    pairs.append([_coords(x, [0]), _coords(x, [0])])
    return pairs, (n * pillai(m) if flip else m * pillai(n))


def heisenberg_mixed(rng, name, shape):
    m, n, flip = shape
    pairs, R = mixed_pairs(m, n, flip)
    rng.shuffle(pairs)
    expected, rationale = lattice_expected(R, lattice_source=False)
    doc = {"kind": "PAIRS", "target": HEISENBERG, "pairs": pairs}
    return compute_op(name, doc, expected, rationale)


def h2_mixed(rng, name, shapes):
    """Product of two mixed-pairs systems on H x H: R = R1 * R2."""
    pairs = []
    total = 1
    for factor, (m, n, flip) in enumerate(shapes):
        sub_pairs, R = mixed_pairs(m, n, flip)
        total *= R
        for p, q in sub_pairs:
            pairs.append([_embed_h2(p, factor), _embed_h2(q, factor)])
    rng.shuffle(pairs)
    expected, rationale = lattice_expected(total, lattice_source=False)
    doc = {"kind": "PAIRS", "target": H_SQUARED, "pairs": pairs}
    return compute_op(name, doc, expected, rationale)


def _embed_h2(coords, factor):
    a, c = coords
    level1 = [0, 0, 0, 0]
    level1[2 * factor: 2 * factor + 2] = a
    central = [0, 0]
    central[factor] = c[0]
    return [level1, central]


def free3_mixed(rng, name, shape):
    """Movers (1, m e1), (1, n e2), (1, l e3) and conjugation by e1 on FREE3.

    Over (a1, a2, a3) the fiber is Z^3 modulo (a2, a3, 0), (n, 0, 0),
    (0, l, 0) and (0, 0, nl), of order nl * nl / ord(a2, a3) where ord is the
    order of (a2, a3) in Z/n x Z/l.
    """
    m, n, l = shape
    total = 0
    for a2 in range(n):
        for a3 in range(l):
            order = lcm(n // gcd(a2, n), l // gcd(a3, l))
            total += n * l * n * l // order
    R = m * total
    zero = [0, 0, 0]
    pairs = [
        [_coords(zero, zero), _coords([m, 0, 0], zero)],
        [_coords(zero, zero), _coords([0, n, 0], zero)],
        [_coords(zero, zero), _coords([0, 0, l], zero)],
        [_coords([1, 0, 0], zero), _coords([1, 0, 0], zero)],
    ]
    rng.shuffle(pairs)
    expected, rationale = lattice_expected(R, lattice_source=False)
    doc = {"kind": "PAIRS", "target": FREE3, "pairs": pairs}
    return compute_op(name, doc, expected, rationale)


# (family, size) per problem.  Except for the random pairs ("heis", "h2",
# "free3", whose size bounds their entries), every size fixes R, so the work
# per problem is the same for every seed; the seed draws the matrices and
# the order of the generator pairs.
CLASS2_SCHEDULE = (
    [("scalar", k) for k in (100, 200, 320)]
    + [("scalar", k) for k in (3, 4, 6, 9, 12, 16, 20, 24, 30, 36, 45, 60)]
    + [("heis_const", d) for d in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 25, 30, 40)]
    + [("h2_const", ab) for ab in ((1, 2), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 4), (5, 6))]
    + [("free3_const", d) for d in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + [("heis", b) for b in (10, 10, 15, 15, 20, 20, 30, 30, 40, 40, 50, 50, 60, 60, 80, 80)]
    + [("h2", b) for b in (4, 4, 5, 5, 6, 6, 8, 8)]
    + [("free3", b) for b in (4, 4, 5, 5, 6, 6, 8, 8)]
    + [("mixed", shape) for shape in (
        (2, 3, False), (3, 3, True), (3, 4, False), (3, 6, True), (4, 6, False), (5, 6, True),
        (6, 6, False), (4, 5, False), (5, 4, True), (2, 5, True), (4, 4, False), (5, 5, True))]
    + [("h2mixed", shapes) for shapes in (
        ((1, 2, False), (2, 1, True)), ((3, 1, False), (1, 3, True)))]
    + [("free3mixed", shape) for shape in ((1, 2, 2), (2, 2, 2), (1, 3, 4))]
)

CLASS2_BUILDERS = {
    "scalar": heisenberg_scalar,
    "heis_const": heisenberg_constant,
    "h2_const": h2_constant,
    "free3_const": free3_constant,
    "heis": heisenberg_random,
    "h2": h2_uniform,
    "free3": free3_uniform,
    "mixed": heisenberg_mixed,
    "h2mixed": h2_mixed,
    "free3mixed": free3_mixed,
}


def class2_family(rng):
    return [
        CLASS2_BUILDERS[family](rng, f"class2-{family}-{idx}", size)
        for idx, (family, size) in enumerate(CLASS2_SCHEDULE)
    ]


# -- INFRA family -------------------------------------------------------


def klein_torus_problem(rng, name, n, diag):
    """Klein bottle x T^(n-1) -> T^n through its regular Z^(n+1) cover.

    In the standard cover basis the holonomy acts by diag(-1, 1, ..., 1)
    with translation e2.  Each map kills the flipped direction e1, sends
    e2 to an even vector 2v, and sends the coset representative to v.  The
    difference S = [w | D'] of (g(x) - f(x), torus columns) is built as
    U diag(d) V.  The data is then written in a random cover basis.
    """
    U = unimodular(rng, n, 2, ops=2 * n)
    V = unimodular(rng, n, 2, ops=2 * n)
    S = matmul(matmul(U, diagonal(diag)), V)
    w = [row[0] for row in S]
    Dp = [row[1:] for row in S]
    f = [rng.randint(-9, 9) for _ in range(n)]
    Fp = random_matrix(rng, n, n - 1, 9)
    g = [x + y for x, y in zip(f, w)]
    Gp = add(Fp, Dp)
    F = [[0, 2 * f[i]] + Fp[i] for i in range(n)]
    G = [[0, 2 * g[i]] + Gp[i] for i in range(n)]
    A = identity(n + 1)
    A[0][0] = -1
    t = [0, 1] + [0] * (n - 1)
    P, Pinv = unimodular_pair(rng, n + 1, 1, ops=2 * (n + 1))
    A2 = matmul(matmul(Pinv, A), P)
    t2 = [sum(Pinv[i][j] * t[j] for j in range(n + 1)) for i in range(n + 1)]
    F2 = matmul(F, P)
    G2 = matmul(G, P)
    f_img = [sum(F2[i][j] * t2[j] for j in range(n + 1)) for i in range(n)]
    g_img = [sum(G2[i][j] * t2[j] for j in range(n + 1)) for i in range(n)]
    f_img = [x // 2 for x in f_img]
    g_img = [x // 2 for x in g_img]
    # R from the file's own data: Z^n modulo the cover differences and the
    # coset move g(x) - f(x).
    relations = [
        [G2[i][j] - F2[i][j] for j in range(n + 1)] + [g_img[i] - f_img[i]]
        for i in range(n)
    ]
    R = sympy_cokernel_order(relations, n)
    if R != (INF if 0 in diag else prod(diag)):
        raise RuntimeError(f"{name}: sympy gives R = {R} for diagonal {diag}")
    if R == INF:
        expected, rationale = {"R": INF, "N": 0, "deformable": "yes"}, "INFTY-THM"
    else:
        expected, rationale = {"R": R, "N": R, "deformable": "no"}, "EQ-THM"
    doc = {
        "kind": "INFRA",
        "target": {"class": 1, "ranks": [n]},
        "F": [F2],
        "G": [G2],
        "infra": {
            "cover": {"class": 1, "ranks": [n + 1]},
            "holonomy_order": 2,
            "coset_actions": [{"matrices": [A2], "translation": [t2]}],
            "map_images": [[[f_img], [g_img]]],
        },
    }
    return compute_op(name, doc, expected, rationale)


def _infra_diag(rng, n, R):
    """Diagonal of length n with product R (R = 0 gives an infinite count)."""
    d = [1] * n
    if R == 0:
        d[rng.randrange(n)] = 0
        return d
    small = [p for p in (2, 3) if R % p == 0 and n > 1]
    if small and rng.random() < 0.5:
        p = rng.choice(small)
        d[rng.randrange(n - 1)] = p
        R //= p
    d[n - 1] = R
    return d


# (target rank n, infra R) per problem; the cover count is 2R, 0 = infinite.
# A cover class costs 0.1 to 0.5 ms of merging; a pass must repeat many
# times within one run, so only one cover reaches 2000 classes.
INFRA_SCHEDULE = [
    (n, R)
    for n in range(2, 7)
    for R in (0, 0, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30, 40, 60, 100, 200)
] + [(2, 1000)]


def infra_family(rng):
    return [
        klein_torus_problem(rng, f"infra-{idx}", n, _infra_diag(rng, n, R))
        for idx, (n, R) in enumerate(INFRA_SCHEDULE)
    ]


# -- oracle family ------------------------------------------------------


def oracle_op(name, doc, modulus, R):
    doc = dict(doc, name=name)
    return {"name": name, "doc": doc, "op": "oracle", "modulus": modulus, "expect": {"R": R}}


def torus_oracle_problems(rng, idx, n, d):
    """Torus pair with G - F = U diag(d) V; orbits mod lcm(d) equal prod(d)
    because lcm(d) Z^n lies in the image.  Also a cokernel_oracle call on
    G - F, which enumerates (Z/|det|)^n."""
    U = unimodular(rng, n, 2, ops=2 * n)
    V = unimodular(rng, n, 2, ops=2 * n)
    delta = matmul(matmul(U, diagonal(d)), V)
    F = random_matrix(rng, n, n, 99)
    G = add(F, delta)
    doc = {"kind": "TORUS", "target": {"class": 1, "ranks": [n]}, "F": [F], "G": [G]}
    R = prod(d)
    return [
        oracle_op(f"oracle-torus-{idx}", doc, lcm(*d), R),
        {"name": f"cokernel-oracle-{idx}", "op": "cokernel_oracle", "matrix": delta,
         "expect": {"R": R}},
    ]


def heisenberg_oracle_problem(rng, idx, k):
    """k*U versus zero on the Heisenberg lattice: the image contains every
    element with coordinates divisible by k^2, so orbits mod k^2 equal R = k^4."""
    op = heisenberg_scalar(rng, f"oracle-heis-{idx}", k)
    return oracle_op(op["name"], op["doc"], k * k, k**4)


# ("torus", diagonal) or ("heis", k) per problem.  The CLI oracle enumerates
# lcm(d)^n elements, cokernel_oracle |det|^n, the Heisenberg oracle k^6;
# tens to about a thousand elements each, because enumeration runs at about
# 1e4 elements per second and a pass of 100 operations must repeat many
# times within one run.
ORACLE_SCHEDULE = (
    [("torus", (1, m)) for m in (8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36)]
    + [("torus", (2, m)) for m in (6, 8, 10, 12, 14, 18, 24, 30)]
    + [("torus", (3, m)) for m in (9, 12, 15, 21)]
    + [("torus", (1, 1, m)) for m in (4, 5, 6, 7, 8, 9)]
    + [("torus", (1, 2, m)) for m in (4, 6, 8)]
    + [("torus", (1, 1, 1, m)) for m in (2, 3, 4, 4)]
    + [("heis", k) for k in (2,) * 26 + (3,) * 2]
)


def oracle_family(rng):
    ops = []
    for idx, (family, size) in enumerate(ORACLE_SCHEDULE):
        if family == "torus":
            ops.extend(torus_oracle_problems(rng, idx, len(size), list(size)))
        else:
            ops.append(heisenberg_oracle_problem(rng, idx, size))
    return ops


WORKLOADS = {
    "torus-snf": torus_family,
    "class2-count": class2_family,
    "infra-merge": infra_family,
    "oracle-xcheck": oracle_family,
}


def generate(workload, seed):
    """Operations of one pass of `workload`, drawn from `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
