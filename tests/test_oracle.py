"""Brute-force finite-quotient verification machinery."""

import pytest

from conftest import (
    closed_form_image,
    flat_orbit_count,
    free_class2,
    heisenberg,
    heisenberg_squared,
    identity_matrix,
    lattice_law_images,
    random_element,
    random_matrix,
    torus,
    twisted_images,
    union_roots,
)
from nilco.errors import (
    DEFAULT_MAX_ORDER,
    BoundExceededError,
    NilcoError,
    ParseError,
    ShapeError,
    max_order_cap,
)
from nilco.intmat import IntMatrix, cokernel, determinant
from nilco.lattice import NilpotentLattice
from nilco.oracle import (
    FiniteGroupTable,
    cokernel_oracle,
    translation_group,
    twisted_orbits_finite,
)


class TestTranslationGroup:
    def test_index_order_is_the_coordinate_product_order(self):
        G = translation_group(3, 2)
        coords = [((x, y),) for x in range(3) for y in range(3)]
        assert [G.project(c) for c in coords] == list(range(G.order))
        H = heisenberg().reduce_mod(3)
        coords = [((x, y), (z,)) for x in range(3) for y in range(3) for z in range(3)]
        assert [H.project(c) for c in coords] == list(range(H.order))

    def test_bad_modulus_and_shape_are_rejected(self):
        with pytest.raises(NilcoError, match="modulus must be >= 1"):
            FiniteGroupTable(0, (1,))
        with pytest.raises(ShapeError, match=r"does not match ranks \(2,\)"):
            translation_group(3, 2).project(((1,),))


class TestTwistedOrbits:
    def test_translation_by_two_mod_four(self):
        G = translation_group(4, 1)
        assert G.closed_form(2, 0) == ((2,), (), ())
        assert twisted_orbits_finite(G, [(2, 0)]) == 2
        assert flat_orbit_count(torus(1), G, [(2, 0)]) == 2

    def test_no_movers_is_discrete(self):
        G = translation_group(3, 1)
        assert twisted_orbits_finite(G, []) == 3

    def test_partition_is_move_closed(self, rng):
        # the flat reference's blocks are closed under every lattice-law
        # move, and the level-by-level count is their number
        G = translation_group(6, 2)
        movers = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(3)]
        images = [lattice_law_images(torus(2), G, a, b) for a, b in movers]
        roots = union_roots(G.order, images)
        for moved in images:
            for u, v in enumerate(moved):
                assert roots[v] == roots[u]
        assert twisted_orbits_finite(G, movers) == len(set(roots))

    def test_deterministic_partition(self):
        G = heisenberg().reduce_mod(5)
        movers = [(G.project(((1, 2), (3,))), G.project(((3, 4), (0,)))),
                  (G.project(((0, 1), (2,))), G.project(((0, 3), (1,))))]
        count = twisted_orbits_finite(G, movers)
        assert twisted_orbits_finite(G, movers) == count
        assert flat_orbit_count(heisenberg(), G, movers) == count

    def test_foreign_movers_rejected(self):
        G = translation_group(3, 1)
        for mover in ((7, 0), (0, -1), (((1,),), 0), (1.0, 0)):
            with pytest.raises(NilcoError):
                twisted_orbits_finite(G, [mover])

    def test_foreign_movers_rejected_on_lattice_quotients(self):
        table = heisenberg().reduce_mod(3)
        for mover in ((27, 0), (0, -1), (((1, 0), (0,)), 0)):
            with pytest.raises(NilcoError):
                twisted_orbits_finite(table, [mover])

    @pytest.mark.parametrize("mover", [(True, False), (0, True), (False, 1)])
    def test_booleans_are_foreign_movers(self, mover):
        # as everywhere else in nilco, a bool is not an integer
        for table in (translation_group(4, 1), heisenberg().reduce_mod(2)):
            assert True not in table and False not in table
            with pytest.raises(NilcoError, match="contains foreign elements"):
                twisted_orbits_finite(table, [mover])


def quotient(lattice, m):
    """`lattice` mod m as `reduce_mod` builds it, for every m >= 1
    (`reduce_mod` itself refuses m = 1)."""
    return FiniteGroupTable(m, lattice.ranks, tuple(B.data for B in lattice.brackets))


def agreement_cases(rng):
    """(name, lattice, table) over a seeded sample of quotients with orders
    up to 5000: tori of rank 0 to 4 (rank 0 has no lattice) and the class-2
    tables, each at m = 1 and at drawn moduli up to 12."""
    families = [(f"torus{r}", torus(r) if r else None, 12 if r < 3 else 3) for r in range(5)]
    families += [
        ("heisenberg", heisenberg(), 6),
        ("heisenberg_squared", heisenberg_squared(), 2),
        ("free_class2", free_class2(), 2),
        ("class2_no_centre", NilpotentLattice((2, 0), ()), 4),
    ]
    for name, lattice, k in families:
        rank = sum(lattice.ranks) if lattice else 0
        fits = [m for m in range(2, 13) if m**rank <= 5000]
        for m in [1] + sorted(rng.sample(fits, min(k, len(fits)))):
            table = quotient(lattice, m) if lattice else translation_group(m, 0)
            yield name, lattice, table


def random_movers(rng, table, lattice, count):
    """`count` movers: random pairs, identity movers (0, 0) and purely
    central movers (0, (0; c))."""
    movers = []
    for _ in range(count):
        kind = rng.choice(("random", "random", "identity", "central"))
        if kind == "identity":
            movers.append((0, 0))
        elif kind == "central" and lattice is not None:
            ranks = lattice.ranks
            central = [(0,) * ranks[0]] + [
                tuple(rng.randrange(table.modulus) for _ in range(r)) for r in ranks[1:]
            ]
            movers.append((0, table.project(central)))
        else:
            movers.append((rng.randrange(table.order), rng.randrange(table.order)))
    return movers


class TestLevelByLevelCount:
    """The level-1 index and the per-orbit stabiliser count agree with the
    flat union-find over every element."""

    def test_agrees_with_the_flat_union_find(self, rng):
        checked = set()
        # 0 to 4 movers in turn, so each family sees several counts
        for i, (name, lattice, table) in enumerate(agreement_cases(rng)):
            movers = random_movers(rng, table, lattice, i % 5)
            expected = flat_orbit_count(lattice, table, movers)
            assert twisted_orbits_finite(table, movers) == expected, (name, table.modulus, movers)
            checked.add(name)
        assert len(checked) == 9

    def test_level1_orbits_add_different_amounts(self):
        # conjugation by e1 on Heisenberg mod 4 fixes level 1, so each x is
        # its own level-1 orbit, and its stabiliser translates the fiber by
        # <x2>: the orbit adds gcd(x2, 4), that is 4, 1, 2 or 1
        h = heisenberg()
        table = h.reduce_mod(4)
        e1 = table.project(((1, 0), (0,)))
        assert twisted_orbits_finite(table, [(e1, e1)]) == 4 * (4 + 1 + 2 + 1)
        assert flat_orbit_count(h, table, [(e1, e1)]) == 32

    def test_small_and_degenerate_quotients(self):
        # rank 0, m = 1, a generator already in the subgroup, a trivial and a
        # nontrivial stabiliser
        assert twisted_orbits_finite(translation_group(5, 0), [(0, 0)]) == 1
        assert twisted_orbits_finite(translation_group(1, 3), [(0, 0)]) == 1
        assert twisted_orbits_finite(quotient(heisenberg(), 1), [(0, 0)]) == 1
        G = translation_group(6, 1)
        assert twisted_orbits_finite(G, [(0, 2), (0, 4), (0, 0)]) == 2
        H = heisenberg().reduce_mod(3)
        centre = H.project(((0, 0), (1,)))
        assert twisted_orbits_finite(H, []) == 27
        assert twisted_orbits_finite(H, [(0, centre)]) == 9


CLOSED_FORM_LATTICES = {
    "torus1": lambda: torus(1),
    "torus2": lambda: torus(2),
    "torus3": lambda: torus(3),
    "heisenberg": heisenberg,
    "heisenberg_squared": heisenberg_squared,
    "free_class2": free_class2,
}


class TestClosedFormImages:
    """Every index image of u -> b * u * a^{-1} equals the index the lattice
    law gives on a lift of u, so the orbit count stays an independent check."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_LATTICES))
    def test_images_match_product_rule(self, name, rng):
        lattice = CLOSED_FORM_LATTICES[name]()
        for m in (2, 3, 4, 5):
            table = lattice.reduce_mod(m)
            movers = [(rng.randrange(table.order), rng.randrange(table.order)) for _ in range(2)]
            movers.append((rng.randrange(table.order), table.identity))
            for a, b in movers:
                expected = lattice_law_images(lattice, table, a, b)
                assert twisted_images(table, a, b) == expected, (name, m, a, b)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_LATTICES))
    def test_product_rule_matches_lattice_multiply(self, name, rng):
        # lifts with entries outside [0, 4): reduction mod 4 commutes with
        # q * u * p^{-1}
        lattice = CLOSED_FORM_LATTICES[name]()
        table = lattice.reduce_mod(4)
        for _ in range(40):
            p, q, u = (random_element(rng, lattice, lo=-9, hi=9) for _ in range(3))
            form = table.closed_form(table.project(p), table.project(q))
            image = closed_form_image(table, form, table.project(u))
            moved = lattice.multiply(lattice.multiply(q, u), lattice.inverse(p))
            assert image == table.project(moved)
            moved = lattice.product(((q, 1), (u, 1), (p, -1)))
            assert image == table.project(moved)


class TestCokernelOracle:
    def test_matches_abs_det(self, rng):
        checked = 0
        while checked < 60:
            n = rng.randint(1, 3)
            A = random_matrix(rng, n, n, lo=-4, hi=4)
            d = determinant(A)
            if d == 0 or abs(d) ** n > 20000:
                continue
            assert cokernel_oracle(A) == abs(d) == cokernel(A).order
            checked += 1

    def test_dimension_bound(self, monkeypatch):
        # no limit on n: only the cap bounds the |det|^n elements
        def doubled_corner(n):
            return IntMatrix([[(1 + (i == 0)) * (i == j) for j in range(n)] for i in range(n)])

        assert cokernel_oracle(identity_matrix(5)) == 1
        monkeypatch.setenv("NILCO_MAX_ORDER", "32")
        assert cokernel_oracle(doubled_corner(5)) == 2  # 2^5 elements
        with pytest.raises(BoundExceededError):
            cokernel_oracle(doubled_corner(6))  # 2^6 elements

    def test_det_bound(self, monkeypatch):
        # no limit on |det| either: the cap is inclusive on |det|^1
        monkeypatch.setenv("NILCO_MAX_ORDER", "1000")
        assert cokernel_oracle(IntMatrix([[1000]])) == 1000
        monkeypatch.setenv("NILCO_MAX_ORDER", "999")
        with pytest.raises(BoundExceededError, match="quotient order 1000 exceeds cap 999"):
            cokernel_oracle(IntMatrix([[1000]]))

    def test_singular_rejected(self):
        with pytest.raises(NilcoError):
            cokernel_oracle(IntMatrix([[0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="cokernel oracle needs a square matrix"):
            cokernel_oracle(IntMatrix([[1, 0]]))


class TestMaxOrderCap:
    def test_default_and_env(self, monkeypatch):
        monkeypatch.delenv("NILCO_MAX_ORDER", raising=False)
        assert max_order_cap() == DEFAULT_MAX_ORDER
        monkeypatch.setenv("NILCO_MAX_ORDER", "")  # empty: the default
        assert max_order_cap() == DEFAULT_MAX_ORDER
        monkeypatch.setenv("NILCO_MAX_ORDER", "500")
        assert max_order_cap() == 500

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_malformed_env_cap_is_a_parse_error(self, monkeypatch, value):
        monkeypatch.setenv("NILCO_MAX_ORDER", value)
        with pytest.raises(ParseError, match="NILCO_MAX_ORDER"):
            max_order_cap()

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("NILCO_MAX_ORDER", "3")
        with pytest.raises(BoundExceededError):
            cokernel_oracle(IntMatrix([[2, 0], [0, 3]]))
