"""Nilpotent lattice arithmetic, homomorphism validation and application."""

import pytest

import nilco.oracle as oracle_module
from conftest import (
    commutator,
    dense_bracket,
    dense_cocycle,
    free_class2,
    generators,
    heisenberg,
    heisenberg_squared,
    identity_hom,
    identity_matrix,
    lattice_law_images,
    quotient_elements,
    matmul,
    random_element,
    random_matrix,
    torus,
    twisted_images,
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
    LatticeElement,
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


def unitriangular_power(e, n):
    """as_unitriangular(e) to the n-th power by repeated matrix products; a
    negative n steps by the inverse matrix [[1, -a1, a1 a2 - c], [0, 1, -a2],
    [0, 0, 1]], so no lattice arithmetic enters the model."""
    (a1, a2), (c,) = e.coordinates
    step = as_unitriangular(e) if n >= 0 else IntMatrix(
        [[1, -a1, a1 * a2 - c], [0, 1, -a2], [0, 0, 1]]
    )
    out = identity_matrix(3)
    for _ in range(abs(n)):
        out = matmul(out, step)
    return out


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
            assert as_unitriangular(h.multiply(u, v)) == matmul(
                as_unitriangular(u), as_unitriangular(v)
            )
            assert matmul(as_unitriangular(h.inverse(u)), as_unitriangular(u)) == identity_matrix(3)
            assert as_unitriangular(h.power(u, n)) == unitriangular_power(u, n)
            # 0 to 5 factors drawn from three elements, so factors repeat
            pool = (u, v, random_element(rng, h))
            factors = [(rng.choice(pool), rng.randint(-4, 4)) for _ in range(rng.randint(0, 5))]
            model = identity_matrix(3)
            for w, k in factors:
                model = matmul(model, unitriangular_power(w, k))
            assert as_unitriangular(h.product(factors)) == model

    def test_commutator_is_central(self, rng):
        h = heisenberg()
        for _ in range(50):
            u = random_element(rng, h)
            v = random_element(rng, h)
            com = commutator(h, u, v)
            assert com.level(0) == (0, 0)
            assert com.level(1) == h.bracket(u.level(0), v.level(0))

    @pytest.mark.parametrize("ranks", [(2, 1), (4, 2), (3, 3), (5, 4)])
    @pytest.mark.parametrize("entries", ["random", "dense", "zero"])
    def test_bracket_is_the_antisymmetrised_cocycle(self, rng, ranks, entries):
        # the compiled term lists against the dense r_1^2 sums, and the
        # bracket against the difference of two cocycles, on bracket data
        # that is random (not necessarily antisymmetric), has no zero entry,
        # or is all zero; the all-pairs brackets against each pair's own
        r1, r2 = ranks
        draw = {
            "random": lambda: rng.randint(-5, 5),
            "dense": lambda: rng.choice((-1, 1)) * rng.randint(1, 5),
            "zero": lambda: 0,
        }[entries]
        for _ in range(20):
            lat = NilpotentLattice(ranks, [
                IntMatrix([[draw() for _ in range(r1)] for _ in range(r1)]) for _ in range(r2)
            ])
            a, b = (tuple(rng.randint(-9, 9) for _ in range(r1)) for _ in range(2))
            assert lat.cocycle(a, b) == dense_cocycle(lat, a, b)
            assert lat.bracket(a, b) == dense_bracket(lat, a, b)
            difference = tuple(x - y for x, y in zip(lat.cocycle(a, b), lat.cocycle(b, a)))
            assert lat.bracket(a, b) == difference
            assert lat.bracket(a, a) == (0,) * r2
            vectors = [tuple(rng.randint(-9, 9) for _ in range(r1)) for _ in range(4)]
            assert lat.pair_brackets(vectors) == [
                dense_bracket(lat, u, v) for p, u in enumerate(vectors) for v in vectors[p + 1:]
            ]

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
        # every twisted image, for all 64 mover pairs, is the lattice law's
        h = heisenberg()
        table = h.reduce_mod(2)
        assert table.order == 8
        elements = quotient_elements(table)
        for a in elements:
            for b in elements:
                assert twisted_images(table, a, b) == lattice_law_images(h, table, a, b)

    def test_quotient_respects_projection(self, rng):
        h = heisenberg()
        table = h.reduce_mod(3)
        index = {table.project(u): i for i, u in enumerate(quotient_elements(table))}
        for _ in range(50):
            u = random_element(rng, h, lo=-6, hi=6)
            v = random_element(rng, h, lo=-6, hi=6)
            # u -> v * u and u -> u * v^{-1}, reduced mod 3
            left = twisted_images(table, h.identity(), v)
            right = twisted_images(table, v, h.identity())
            assert left[index[table.project(u)]] == table.project(h.multiply(v, u))
            assert right[index[table.project(u)]] == table.project(h.multiply(u, h.inverse(v)))

    def test_modulus_below_two_is_rejected(self):
        with pytest.raises(NilcoError, match="modulus must be >= 2"):
            heisenberg().reduce_mod(1)

    def test_order_cap(self, monkeypatch):
        # the cap bounds the order of the quotient enumerated, inclusively
        table = heisenberg().reduce_mod(10)  # 1000 elements
        monkeypatch.setenv("NILCO_MAX_ORDER", "1000")
        assert twisted_orbits_finite(table, []) == 1000
        monkeypatch.setenv("NILCO_MAX_ORDER", "999")
        with pytest.raises(BoundExceededError, match="quotient order 1000 exceeds cap 999"):
            twisted_orbits_finite(table, [(((0, 0), (0,)), ((0, 0), (1,)))])

    def test_order_cap_is_checked_before_any_table_is_built(self, monkeypatch):
        # a quotient of order 10^27 is built lazily; the cap stops the count
        # before any mover is projected or has a closed form, and before any
        # level-1 point or subgroup exists
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(FiniteGroupTable, "project", refuse)
        monkeypatch.setattr(FiniteGroupTable, "closed_form", refuse)
        monkeypatch.setattr(oracle_module, "_subgroup_order", refuse)
        monkeypatch.setattr(oracle_module, "_moves", refuse)
        monkeypatch.setattr(oracle_module, "_extend", refuse)
        table = heisenberg().reduce_mod(10**9)
        assert table.order == 10**27
        with pytest.raises(BoundExceededError):
            twisted_orbits_finite(table, [])
        with pytest.raises(BoundExceededError):
            twisted_orbits_finite(table, [(((0, 0), (0,)), ((0, 0), (1,)))])


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


class TestGeneratorImages:
    def test_levels_are_the_matrix_columns(self, rng):
        def per_column(hom):  # generator j of level l: column j of matrices[l] at level l
            return [
                LatticeElement(tuple(
                    tuple(row[j] for row in hom.matrices[level].data) if lvl == level
                    else (0,) * r
                    for lvl, r in enumerate(hom.target.ranks)
                ))
                for level, rank in enumerate(hom.source.ranks)
                for j in range(rank)
            ]

        free3 = NilpotentLattice(ranks=(2, 1, 1))
        for _ in range(10):
            to_torus = LatticeHomomorphism(  # class 2 into class 1: a 0 x 1 level matrix
                heisenberg(), torus(3), (random_matrix(rng, 3, 2), zero_matrix(0, 1))
            )
            past_target = LatticeHomomorphism(  # class 3 into class 1
                free3, torus(2), (random_matrix(rng, 2, 2), zero_matrix(0, 1), zero_matrix(0, 1)),
            )
            for hom in (to_torus, past_target, torus_to_heisenberg_map(rng)):
                images = hom.generator_images()
                assert images == per_column(hom)
                assert len(images) == sum(hom.source.ranks)
                assert all(len(g.coordinates) == hom.target.class_c for g in images)

    def test_empty_levels(self):
        # a rank-0 level matrix has no columns; a rank-0 target level gives ()
        lat = NilpotentLattice(ranks=(2, 0))
        hom = LatticeHomomorphism(lat, torus(1), (IntMatrix([[3, 4]]), zero_matrix(0, 0)))
        assert hom.generator_images() == [LatticeElement(((3,),)), LatticeElement(((4,),))]
        into = LatticeHomomorphism(torus(1), lat, (IntMatrix([[5], [6]]), zero_matrix(0, 0)))
        assert into.generator_images() == [LatticeElement(((5, 6), ()))]


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
        ((2, 1, 1), (2, 1, 1)), ((2,), (1, 1, 1)),
    ])
    def test_past_class_two_is_unsupported(self, source_ranks, target_ranks):
        # a map into a class-3 target cannot be built
        src, tgt = NilpotentLattice(ranks=source_ranks), NilpotentLattice(ranks=target_ranks)
        depth = max(len(source_ranks), len(target_ranks))
        with pytest.raises(UnsupportedClassError):
            LatticeHomomorphism(src, tgt, tuple(
                zero_matrix(tgt.rank_at(i), src.rank_at(i)) for i in range(depth)
            ))

    def test_class_three_source_into_a_torus(self, rng):
        # the map is built, and only the level-1 word counts: the image of u
        # is F_1 u.level(0), whatever its higher levels
        src, tgt = NilpotentLattice(ranks=(2, 1, 1)), torus(2)
        F1 = random_matrix(rng, 2, 2)
        hom = LatticeHomomorphism(src, tgt, (F1, zero_matrix(0, 1), zero_matrix(0, 1)))
        for _ in range(20):
            u = random_element(rng, src)
            assert apply_hom(hom, u) == tgt.element((F1.apply(u.level(0)),))

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
