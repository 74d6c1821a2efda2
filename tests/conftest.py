"""Shared builders for the test suite."""

import random
from itertools import product as iproduct

import pytest

from nilco.errors import ShapeError
from nilco.intmat import IntMatrix, smith_normal_form
from nilco.lattice import LatticeHomomorphism, NilpotentLattice


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
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


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
        matrices=tuple(IntMatrix.identity(r) for r in lattice.ranks),
    )


def fiber_deviation_rank(phi, psi, level):
    """Rank of the translation subgroup at the given 1-based level.

    Rank r_i at a level means the level count is finite; rank 0 means the
    deviation at that level is trivial.
    """
    if level < 1 or level > phi.depth:
        raise ShapeError(f"level {level} out of range 1..{phi.depth}")
    d = psi.matrices[level - 1] - phi.matrices[level - 1]
    return len(smith_normal_form(d).invariant_factors)


def random_element(rng, lat, lo=-4, hi=4):
    return lat.element(
        tuple(tuple(rng.randint(lo, hi) for _ in range(r)) for r in lat.ranks)
    )


@pytest.fixture
def rng():
    return random.Random(0xC01C1DE)
