"""Nilpotent lattice arithmetic, homomorphism validation and application."""

import pytest

import nilco.oracle as oracle_module
from conftest import (
    check_group_axioms,
    commutator,
    free_class2,
    generators,
    heisenberg,
    heisenberg_squared,
    identity_hom,
    identity_matrix,
    random_element,
    random_matrix,
    torus,
    zero_matrix,
)
from nilco.errors import (
    BoundExceededError,
    HomomorphismError,
    NilcoError,
    ShapeError,
    UnsupportedClassError,
)
from nilco.intmat import IntMatrix, determinant
from nilco.lattice import (
    LatticeHomomorphism,
    NilpotentLattice,
    apply_hom,
    validate_hom,
)
from nilco.oracle import FiniteGroupTable, twisted_orbits_finite


def as_unitriangular(e):
    """(a1, a2; c) as the 3x3 unitriangular matrix [[1,a1,c],[0,1,a2],[0,0,1]]."""
    (a1, a2), (c,) = e.coordinates
    return IntMatrix([[1, a1, c], [0, 1, a2], [0, 0, 1]])


def heisenberg_map(rng):
    M1 = random_matrix(rng, 2, 2, lo=-3, hi=3)
    h = heisenberg()
    return LatticeHomomorphism(h, h, (M1, IntMatrix([[determinant(M1)]])))


def heisenberg_squared_map(rng):
    """A (+) B on the two Heisenberg factors, with the factors swapped or not."""
    A, B = (random_matrix(rng, 2, 2, lo=-3, hi=3) for _ in range(2))
    a, b = determinant(A), determinant(B)
    top = [list(A.data[i]) + [0, 0] for i in range(2)]
    bottom = [[0, 0] + list(B.data[i]) for i in range(2)]
    M1, M2 = top + bottom, [[a, 0], [0, b]]
    if rng.random() < 0.5:
        M1, M2 = bottom + top, [[0, b], [a, 0]]
    lat = heisenberg_squared()
    return LatticeHomomorphism(lat, lat, (IntMatrix(M1), IntMatrix(M2)))


def free_class2_map(rng):
    """M1 on the generators and its 2x2 minors on the commutators."""
    M1 = random_matrix(rng, 3, 3, lo=-3, hi=3)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    m = M1.data
    M2 = IntMatrix([
        [m[i][k] * m[j][l] - m[j][k] * m[i][l] for k, l in pairs] for i, j in pairs
    ])
    lat = free_class2(3)
    return LatticeHomomorphism(lat, lat, (M1, M2))


def torus_to_heisenberg_map(rng):
    """Rank-one level matrix v w^T, so the images of Z^3 commute."""
    v = [rng.randint(-3, 3) for _ in range(2)]
    w = [rng.randint(-3, 3) for _ in range(3)]
    M1 = IntMatrix([[x * y for y in w] for x in v])
    return LatticeHomomorphism(torus(3), heisenberg(), (M1, zero_matrix(1, 0)))


def ordered_word_image(hom, u):
    """Image of u = x_1^{a_1} ... x_r^{a_r} * z^{c - defect}: the product of
    the generator images (M1 e_j, 0)^{a_j} and (0, M2 (c - defect))."""
    src, tgt = hom.source, hom.target
    M1 = hom.matrices[0]
    image, word = tgt.identity(), src.identity()
    for j, (aj, unit) in enumerate(zip(u.level(0), generators(src))):
        x = tgt.element((M1.column(j), (0,) * tgt.ranks[1]))
        image = tgt.multiply(image, tgt.power(x, aj))
        word = src.multiply(word, src.power(unit, aj))
    if src.class_c == 2:
        rest = tuple(c - d for c, d in zip(u.level(1), word.level(1)))
        tail = tgt.element(((0,) * tgt.ranks[0], hom.matrices[1].apply(rest)))
        image = tgt.multiply(image, tail)
    return image


class TestLatticeConstruction:
    def test_bad_ranks(self):
        with pytest.raises(NilcoError):
            NilpotentLattice(ranks=())
        with pytest.raises(NilcoError):
            NilpotentLattice(ranks=(0,))

    @pytest.mark.parametrize("rank", [2.9, True, "2"])
    def test_non_integer_ranks_rejected(self, rank):
        with pytest.raises(ShapeError):
            NilpotentLattice(ranks=(rank,))

    def test_class2_needs_brackets(self):
        with pytest.raises(NilcoError):
            NilpotentLattice(ranks=(2, 1))
        with pytest.raises(NilcoError):
            NilpotentLattice(ranks=(2, 1), brackets=(IntMatrix([[1]]),))

    def test_class1_rejects_brackets(self):
        with pytest.raises(NilcoError):
            NilpotentLattice(ranks=(2,), brackets=(IntMatrix([[0, 0], [0, 0]]),))

    def test_element_shape_checks(self):
        h = heisenberg()
        with pytest.raises(ShapeError):
            h.element(((1, 2),))
        with pytest.raises(ShapeError):
            h.element(((1,), (2,)))

    @pytest.mark.parametrize("bad", [2.7, True, "3"])
    def test_element_coordinates_must_be_integers(self, bad):
        # the same check as IntMatrix entries: no silent int() coercion
        h = heisenberg()
        for coordinates in (((bad, 1), (3,)), ((2, 1), (bad,))):
            with pytest.raises(ShapeError):
                h.element(coordinates)
        assert h.element(((2, 1), (3,))).coordinates == ((2, 1), (3,))

    def test_class3_elements_unsupported(self):
        lat = NilpotentLattice(ranks=(2, 1, 1))
        e = lat.element(((0, 0), (0,), (0,)))
        with pytest.raises(UnsupportedClassError):
            lat.multiply(e, e)


class TestHeisenbergArithmetic:
    def test_matches_unitriangular_model(self, rng):
        h = heisenberg()
        for _ in range(300):
            u = random_element(rng, h)
            v = random_element(rng, h)
            n = rng.randint(-4, 4)
            assert as_unitriangular(h.multiply(u, v)) == (
                as_unitriangular(u) @ as_unitriangular(v)
            )
            assert (
                as_unitriangular(h.inverse(u)) @ as_unitriangular(u)
            ) == identity_matrix(3)
            power_model = identity_matrix(3)
            step = as_unitriangular(u if n >= 0 else h.inverse(u))
            for _ in range(abs(n)):
                power_model = power_model @ step
            assert as_unitriangular(h.power(u, n)) == power_model

    def test_commutator_is_central(self, rng):
        h = heisenberg()
        for _ in range(50):
            u = random_element(rng, h)
            v = random_element(rng, h)
            com = commutator(h, u, v)
            assert com.level(0) == (0, 0)
            assert com.level(1) == h.bracket(u.level(0), v.level(0))

    def test_torus_is_plain_addition(self, rng):
        t = torus(3)
        u = random_element(rng, t)
        v = random_element(rng, t)
        assert t.multiply(u, v).level(0) == tuple(
            x + y for x, y in zip(u.level(0), v.level(0))
        )
        assert t.multiply(u, t.inverse(u)) == t.identity()


class TestFiniteQuotients:
    def test_heisenberg_mod2_is_a_group_of_order_8(self):
        table = heisenberg().reduce_mod(2)
        assert table.order == 8
        check_group_axioms(table)

    def test_quotient_respects_projection(self, rng):
        h = heisenberg()
        table = h.reduce_mod(3)
        for _ in range(50):
            u = random_element(rng, h, lo=-6, hi=6)
            v = random_element(rng, h, lo=-6, hi=6)
            assert table.product(table.project(u), table.project(v)) == table.project(
                h.multiply(u, v)
            )

    def test_order_cap(self, monkeypatch):
        # the cap bounds the order of the quotient enumerated, inclusively
        table = heisenberg().reduce_mod(10)  # 1000 elements
        monkeypatch.setenv("NILCO_MAX_ORDER", "1000")
        assert twisted_orbits_finite(table, []) == 1000
        monkeypatch.setenv("NILCO_MAX_ORDER", "999")
        with pytest.raises(BoundExceededError, match="quotient order 1000 exceeds cap 999"):
            twisted_orbits_finite(table, [(0, 1)])

    def test_order_cap_is_checked_before_any_table_is_built(self, monkeypatch):
        # a quotient of order 10^27 is built lazily; the cap stops its
        # enumeration before any image list or union-find table exists
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(FiniteGroupTable, "twisted_images", refuse)
        monkeypatch.setattr(oracle_module, "union_roots", refuse)
        table = heisenberg().reduce_mod(10**9)
        assert table.order == 10**27
        with pytest.raises(BoundExceededError):
            twisted_orbits_finite(table, [])
        with pytest.raises(BoundExceededError):
            twisted_orbits_finite(table, [(0, 1)])


class TestHomValidation:
    def test_shear_is_valid(self):
        h = heisenberg()
        shear = LatticeHomomorphism(
            source=h, target=h,
            matrices=(IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1]])),
        )
        assert validate_hom(shear) is None

    def test_central_matrix_forced_to_det(self, rng):
        h = heisenberg()
        for _ in range(50):
            M1 = random_matrix(rng, 2, 2)
            d = determinant(M1)
            good = LatticeHomomorphism(h, h, (M1, IntMatrix([[d]])))
            assert validate_hom(good) is None
            with pytest.raises(HomomorphismError) as info:
                LatticeHomomorphism(h, h, (M1, IntMatrix([[d + 1]])))
            assert info.value.violations == ((0, 1, (d + 1,), (d,)),)

    def test_class1_source_needs_commuting_images(self):
        # a class-1 source has no brackets and an r2 x 0 central matrix, so
        # the images of its generators must commute in a class-2 target
        with pytest.raises(HomomorphismError) as info:
            LatticeHomomorphism(
                torus(2), heisenberg(), (identity_matrix(2), zero_matrix(1, 0))
            )
        assert info.value.violations == ((0, 1, (0,), (1,)),)

    def test_shape_mismatch_rejected(self):
        h = heisenberg()
        with pytest.raises(ShapeError):
            LatticeHomomorphism(h, h, (IntMatrix([[1]]), IntMatrix([[1]])))
        with pytest.raises(ShapeError):
            LatticeHomomorphism(h, h, (identity_matrix(2),))


class TestApplyHom:
    def test_identity_hom(self, rng):
        h = heisenberg()
        u = random_element(rng, h)
        assert apply_hom(identity_hom(h), u) == u

    def test_validated_maps_are_homomorphisms(self, rng):
        builders = (heisenberg_map, heisenberg_squared_map, free_class2_map,
                    torus_to_heisenberg_map)
        for build in builders:
            for _ in range(25):
                hom = build(rng)
                assert validate_hom(hom) is None, build.__name__
                src, tgt = hom.source, hom.target
                for _ in range(10):
                    u = random_element(rng, src)
                    v = random_element(rng, src)
                    assert apply_hom(hom, src.multiply(u, v)) == tgt.multiply(
                        apply_hom(hom, u), apply_hom(hom, v)
                    )
                    assert apply_hom(hom, u) == ordered_word_image(hom, u)

    @pytest.mark.parametrize("source_ranks, target_ranks", [
        ((2, 1, 1), (2, 1, 1)), ((2, 1, 1), (2,)), ((2,), (1, 1, 1)),
    ])
    def test_past_class_two_is_unsupported(self, source_ranks, target_ranks):
        # past class 2 the level matrices do not give the map on coordinates
        src, tgt = NilpotentLattice(ranks=source_ranks), NilpotentLattice(ranks=target_ranks)
        depth = max(len(source_ranks), len(target_ranks))
        hom = LatticeHomomorphism(src, tgt, tuple(
            zero_matrix(tgt.rank_at(i), src.rank_at(i)) for i in range(depth)
        ))
        with pytest.raises(UnsupportedClassError):
            apply_hom(hom, src.identity())

    def test_heisenberg_to_circle_projection(self, rng):
        h = heisenberg()
        t = torus(1)
        proj = LatticeHomomorphism(h, t, (IntMatrix([[1, 0]]), IntMatrix([], shape=(0, 1))))
        assert validate_hom(proj) is None
        u = random_element(rng, h)
        v = random_element(rng, h)
        assert apply_hom(proj, h.multiply(u, v)) == t.multiply(
            apply_hom(proj, u), apply_hom(proj, v)
        )
