"""Shared builders for the test suite."""

import random
from collections import Counter
from itertools import product as iproduct
from math import gcd, prod

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from nilco.errors import ShapeError
from nilco.intmat import IntMatrix, coset_representatives
from nilco.lattice import LatticeElement, LatticeHomomorphism, NilpotentLattice


def identity_matrix(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zero_matrix(rows, cols):
    return IntMatrix([[0] * cols for _ in range(rows)], shape=(rows, cols))


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
    images = [engine.word_images(w) for w in engine._fiber_words]
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


def sympy_invariant_factors(A):
    """Nonzero invariant factors of A, computed by sympy: a reference that
    shares no code with nilco."""
    M = sympy.Matrix(A.rows, A.cols, [x for row in A.data for x in row])
    return tuple(int(d) for d in invariant_factors(M, domain=sympy.ZZ) if d != 0)


def sympy_cokernel_order(A):
    """|Z^rows / im(A)| from sympy's invariant factors; None when infinite."""
    factors = sympy_invariant_factors(A)
    return prod(factors) if len(factors) == A.rows else None


def check_group_axioms(G, full_triples=2_000_000, sample=2000, rng=None):
    """Identity and inverse on every element of a finite table; associativity
    exhaustive while the triple count stays below full_triples, sampled above."""
    elements = range(G.order)
    for e in elements:
        assert G.product(e, G.identity) == e == G.product(G.identity, e)
        assert G.product(e, G.inverse(e)) == G.identity == G.product(G.inverse(e), e)
    if G.order**3 <= full_triples:
        triples = iproduct(elements, repeat=3)
    else:
        rng = rng or random.Random(0)
        triples = (tuple(rng.choice(elements) for _ in range(3)) for _ in range(sample))
    for a, b, c in triples:
        assert G.product(G.product(a, b), c) == G.product(a, G.product(b, c)), (a, b, c)


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


@pytest.fixture
def rng():
    return random.Random(0xC01C1DE)
