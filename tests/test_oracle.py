"""Brute-force finite-quotient verification machinery."""

import tracemalloc

import pytest

import nilco.oracle as oracle_module
from conftest import (
    closed_form_image,
    flat_blocks,
    flat_orbit_count,
    free_class2,
    heisenberg,
    heisenberg_squared,
    identity_matrix,
    lattice_law_images,
    quotient_elements,
    random_element,
    random_matrix,
    torus,
    twisted_images,
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
    def test_project_reduces_each_level_mod_m(self):
        G = translation_group(3, 2)
        assert G.project(((4, -1),)) == ((1, 2), ())
        H = heisenberg().reduce_mod(3)
        assert H.project(((3, -4), (-1,))) == ((0, 2), (2,))
        assert H.project(heisenberg().element(((3, -4), (-1,)))) == ((0, 2), (2,))

    def test_bad_modulus_and_shape_are_rejected(self):
        with pytest.raises(NilcoError, match="modulus must be >= 1"):
            FiniteGroupTable(0, (1,))
        with pytest.raises(ShapeError, match=r"does not match ranks \(2,\)"):
            translation_group(3, 2).project(((1,),))


def refuse_counting(monkeypatch):
    """Make the counter's first steps past the movers fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("counted a mover that is not of the quotient")

    monkeypatch.setattr(oracle_module, "_subgroup_order", refuse)
    monkeypatch.setattr(oracle_module, "_moves", refuse)
    monkeypatch.setattr(oracle_module, "_extend", refuse)


class TestTwistedOrbits:
    def test_translation_by_two_mod_four(self):
        G = translation_group(4, 1)
        assert G.closed_form(G.project(((2,),)), G.project(((0,),))) == ((2,), (), ())
        assert twisted_orbits_finite(G, [(((2,),), ((0,),))]) == 2
        assert flat_orbit_count(torus(1), G, [(((2,),), ((0,),))]) == 2

    def test_no_movers_is_discrete(self):
        G = translation_group(3, 1)
        assert twisted_orbits_finite(G, []) == 3

    def test_partition_is_move_closed(self, rng):
        # the flat reference's blocks are closed under every lattice-law
        # move, and the level-by-level count is their number
        G = translation_group(6, 2)
        elements = quotient_elements(G)
        movers = [(elements[rng.randrange(G.order)], elements[rng.randrange(G.order)])
                  for _ in range(3)]
        images, roots = flat_blocks(torus(2), G, movers)
        for moved in images:
            for u, v in enumerate(moved):
                assert roots[v] == roots[u]
        assert twisted_orbits_finite(G, movers) == len(set(roots))

    def test_deterministic_partition(self):
        G = heisenberg().reduce_mod(5)
        movers = [(((1, 2), (3,)), ((3, 4), (0,))), (((0, 1), (2,)), ((0, 3), (1,)))]
        count = twisted_orbits_finite(G, movers)
        assert twisted_orbits_finite(G, movers) == count
        assert flat_orbit_count(heisenberg(), G, movers) == count

    def test_foreign_movers_rejected(self, monkeypatch):
        # wrong shape, or entries that are not ints: ShapeError before
        # anything is counted
        refuse_counting(monkeypatch)
        G = translation_group(3, 1)
        zero = ((0,),)
        for mover in ((7, zero), (zero, ((1, 2),)), (((1,), (0,)), zero), (((1.0,),), zero),
                      (zero, (("1",),)), (zero, ("1",))):
            with pytest.raises(ShapeError):
                twisted_orbits_finite(G, [mover])

    @pytest.mark.parametrize("movers", [[((0,),)], [5]], ids=["one-element", "int"])
    def test_movers_that_are_not_pairs_are_shape_errors(self, monkeypatch, movers):
        # the ShapeError of a wrong-shaped element, not the ValueError or
        # TypeError of unpacking a mover that is not a pair
        refuse_counting(monkeypatch)
        with pytest.raises(ShapeError, match="is not a pair"):
            twisted_orbits_finite(translation_group(3, 1), movers)

    def test_foreign_movers_rejected_on_lattice_quotients(self, monkeypatch):
        refuse_counting(monkeypatch)
        table = heisenberg().reduce_mod(3)
        zero = ((0, 0), (0,))
        for mover in ((27, zero), (zero, ((1, 0),)), (((1, 0), (0, 0)), zero),
                      (zero, ((1, 0), (0.5,))), (zero, torus(3).element(((1, 2, 3),)))):
            with pytest.raises(ShapeError):
                twisted_orbits_finite(table, [mover])

    @pytest.mark.parametrize("mover", [(True, False), (0, True), (False, 1)])
    def test_booleans_are_foreign_movers(self, monkeypatch, mover):
        # as everywhere else in nilco, a bool is not an integer: not as a
        # mover, and not as a coordinate
        refuse_counting(monkeypatch)
        for table in (translation_group(4, 1), heisenberg().reduce_mod(2)):
            spread = tuple(tuple((s,) * r for r in table.ranks) for s in mover)
            for bad in (mover, spread):
                with pytest.raises(ShapeError):
                    twisted_orbits_finite(table, [bad])

    def test_lattice_elements_and_their_coordinates_count_alike(self, rng):
        # entries outside [0, m) count as their residues, so -1 as m - 1
        h = heisenberg()
        table = h.reduce_mod(4)
        for _ in range(10):
            movers = [(random_element(rng, h, lo=-9, hi=9), random_element(rng, h, lo=-9, hi=9))
                      for _ in range(2)]
            count = twisted_orbits_finite(table, movers)
            as_coordinates = [(p.coordinates, q.coordinates) for p, q in movers]
            residues = [(table.project(p), table.project(q)) for p, q in movers]
            assert twisted_orbits_finite(table, as_coordinates) == count
            assert twisted_orbits_finite(table, residues) == count
            assert flat_orbit_count(h, table, movers) == count
        G = translation_group(6, 1)
        assert G.closed_form(G.project(((0,),)), G.project(((-1,),))) == ((5,), (), ())
        assert twisted_orbits_finite(G, [(((0,),), ((-2,),))]) == 2
        assert twisted_orbits_finite(G, [(((1,),), ((-2,),))]) == 3
        assert twisted_orbits_finite(G, [(((1,),), ((4,),))]) == 3


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
    elements = quotient_elements(table)
    zero, movers = elements[0], []
    for _ in range(count):
        kind = rng.choice(("random", "random", "identity", "central"))
        if kind == "identity":
            movers.append((zero, zero))
        elif kind == "central" and lattice is not None:
            ranks = lattice.ranks
            central = [(0,) * ranks[0]] + [
                tuple(rng.randrange(table.modulus) for _ in range(r)) for r in ranks[1:]
            ]
            movers.append((zero, central))
        else:
            a, b = rng.randrange(table.order), rng.randrange(table.order)
            movers.append((elements[a], elements[b]))
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

    def test_visiting_order_does_not_change_the_count(self, rng):
        # the search walks the codes in an order the movers set: reversed
        # movers, or one mover twice, give the same orbits
        for i, (name, lattice, table) in enumerate(agreement_cases(rng)):
            movers = random_movers(rng, table, lattice, 1 + i % 4)
            count = twisted_orbits_finite(table, movers)
            assert twisted_orbits_finite(table, movers[::-1]) == count, (name, movers)
            repeated = list(movers)
            repeated.insert(rng.randrange(len(movers) + 1), rng.choice(movers))
            assert twisted_orbits_finite(table, repeated) == count, (name, repeated)

    def test_level1_subgroup_memory_is_flat(self):
        # H1 = (Z/2)^16 as 2^16 codes and flags: about 65 bytes per point,
        # where a set of tuples took about 208
        G = translation_group(2, 16)
        units = [(((0,) * 16,), (tuple(int(i == j) for j in range(16)),)) for i in range(16)]
        tracemalloc.start()
        try:
            assert twisted_orbits_finite(G, units) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_level1_orbits_add_different_amounts(self):
        # conjugation by e1 on Heisenberg mod 4 fixes level 1, so each x is
        # its own level-1 orbit, and its stabiliser translates the fiber by
        # <x2>: the orbit adds gcd(x2, 4), that is 4, 1, 2 or 1
        h = heisenberg()
        table = h.reduce_mod(4)
        e1 = ((1, 0), (0,))
        assert twisted_orbits_finite(table, [(e1, e1)]) == 4 * (4 + 1 + 2 + 1)
        assert flat_orbit_count(h, table, [(e1, e1)]) == 32

    def test_small_and_degenerate_quotients(self):
        # rank 0, m = 1, a generator already in the subgroup, a trivial and a
        # nontrivial stabiliser
        for table in (translation_group(5, 0), translation_group(1, 3), quotient(heisenberg(), 1)):
            zero = quotient_elements(table)[0]
            assert twisted_orbits_finite(table, [(zero, zero)]) == 1
        G = translation_group(6, 1)
        assert twisted_orbits_finite(G, [(((0,),), ((k,),)) for k in (2, 4, 0)]) == 2
        H = heisenberg().reduce_mod(3)
        centre = ((0, 0), (1,))
        assert twisted_orbits_finite(H, []) == 27
        assert twisted_orbits_finite(H, [(((0, 0), (0,)), centre)]) == 9


CLOSED_FORM_LATTICES = {
    "torus1": lambda: torus(1),
    "torus2": lambda: torus(2),
    "torus3": lambda: torus(3),
    "heisenberg": heisenberg,
    "heisenberg_squared": heisenberg_squared,
    "free_class2": free_class2,
}


class TestClosedFormImages:
    """Every image of u -> b * u * a^{-1} in closed form equals the one the
    lattice law gives on a lift of u, so the orbit count stays an
    independent check."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_LATTICES))
    def test_images_match_product_rule(self, name, rng):
        lattice = CLOSED_FORM_LATTICES[name]()
        for m in (2, 3, 4, 5):
            table = lattice.reduce_mod(m)
            elements = quotient_elements(table)
            movers = [(elements[rng.randrange(table.order)], elements[rng.randrange(table.order)])
                      for _ in range(2)]
            movers.append((elements[rng.randrange(table.order)], elements[0]))
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
            image = closed_form_image(table, form, u)
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
