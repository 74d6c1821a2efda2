"""Brute-force finite-quotient verification machinery."""

import pytest

from conftest import (
    free_class2,
    heisenberg,
    heisenberg_squared,
    identity_matrix,
    lattice_law_images,
    random_element,
    random_matrix,
    torus,
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
from nilco.oracle import (
    FiniteGroupTable,
    cokernel_oracle,
    translation_group,
    twisted_orbits_finite,
    union_roots,
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
        assert twisted_orbits_finite(G, [(2, 0)]) == 2
        assert union_roots(G.order, [G.twisted_images(2, 0)]) == [0, 1, 0, 1]

    def test_no_movers_is_discrete(self):
        G = translation_group(3, 1)
        assert twisted_orbits_finite(G, []) == 3

    def test_partition_is_move_closed(self, rng):
        # every mover image has the root of its preimage, and the count is
        # the number of roots
        G = translation_group(6, 2)
        movers = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(3)]
        roots = union_roots(G.order, [G.twisted_images(a, b) for a, b in movers])
        for a, b in movers:
            for u, moved in enumerate(lattice_law_images(torus(2), G, a, b)):
                assert roots[moved] == roots[u]
        assert twisted_orbits_finite(G, movers) == len(set(roots))

    def test_deterministic_partition(self):
        G = translation_group(5, 2)
        movers = [(G.project(((1, 2),)), G.project(((3, 4),))),
                  (G.project(((0, 1),)), G.project(((0, 3),)))]

        def roots():
            return union_roots(G.order, [G.twisted_images(a, b) for a, b in movers])

        assert roots() == roots()
        assert twisted_orbits_finite(G, movers) == twisted_orbits_finite(G, movers)

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
                assert table.twisted_images(a, b) == expected, (name, m, a, b)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_LATTICES))
    def test_product_rule_matches_lattice_multiply(self, name, rng):
        # lifts with entries outside [0, 4): reduction mod 4 commutes with
        # q * u * p^{-1}
        lattice = CLOSED_FORM_LATTICES[name]()
        table = lattice.reduce_mod(4)
        for _ in range(40):
            p, q, u = (random_element(rng, lattice, lo=-9, hi=9) for _ in range(3))
            images = table.twisted_images(table.project(p), table.project(q))
            moved = lattice.multiply(lattice.multiply(q, u), lattice.inverse(p))
            assert images[table.project(u)] == table.project(moved)


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
