"""Twisted-conjugacy counting, canonical labels, and the deformability
verdict for nilpotent targets."""

import inspect
import io
import json
import time
import tracemalloc
from math import gcd, lcm
from pathlib import Path

import pytest

from conftest import (
    fiber_deviation_rank,
    fiber_sum_by_enumeration,
    free_class2,
    generators,
    heisenberg,
    heisenberg_period_pairs,
    heisenberg_squared,
    heisenberg_self_map,
    identity_matrix,
    pillai,
    random_element,
    random_matrix,
    torus,
    torus_hom,
    zero_matrix,
)
import nilco
import nilco.intmat as intmat
from nilco.cli import main
from nilco.errors import BoundExceededError, ShapeError, UnsupportedClassError
from nilco.intmat import (
    IntMatrix,
    cokernel,
    column_hermite,
    coset_representatives,
    determinant,
)
from nilco.lattice import LatticeElement, LatticeHomomorphism, NilpotentLattice, apply_hom
from nilco.oracle import twisted_orbits_finite
from nilco.problems import (
    ProblemFile,
    default_modulus,
    oracle_orbit_count,
    parse_problem_dict,
)
from nilco.reidemeister import (
    EQ_THM,
    INFTY_THM,
    NO,
    REMARK_GAP,
    UNKNOWN,
    YES,
    ReidemeisterResult,
    TwistedAction,
    TwistedOrbitEngine,
    _word_power,
    coincidence_invariants,
    coincidence_invariants_from_pairs,
    verdict,
)


def heisenberg_pairs_action():
    """Three generator pairs on the Heisenberg lattice whose twisted orbits
    split into non-uniform central fibers (count 6 = 2+1+2+1)."""
    h = heisenberg()
    pairs = (
        (h.element(((0, 0), (0,))), h.element(((2, 0), (0,)))),
        (h.element(((0, 0), (0,))), h.element(((0, 2), (0,)))),
        (h.element(((1, 0), (0,))), h.element(((1, 0), (0,)))),
    )
    return TwistedAction.from_pairs(h, pairs)


class TestTorusInvariants:
    def test_degree_two_versus_constant(self):
        t = torus(1)
        report = coincidence_invariants(torus_hom(t, IntMatrix([[2]])),
                                        torus_hom(t, IntMatrix([[0]])))
        assert report.R.infinite_level is None and report.R.count == 2
        assert report.N == 2 and report.deformable == NO
        assert report.rationale == EQ_THM
        assert {e.coordinates for e in report.R.reps} == {((0,),), ((1,),)}

    def test_identical_maps_are_deformable(self):
        t = torus(2)
        f = torus_hom(t, IntMatrix([[1, 2], [3, 4]]))
        report = coincidence_invariants(f, f)
        assert report.R.infinite_level is not None and report.R.count is None
        assert report.N == 0 and report.deformable == YES
        assert report.R.infinite_level == 1
        assert (report.deformable, report.rationale) == (YES, EQ_THM)

    def test_difference_map_sign_convention(self):
        t = torus(1)
        engine = TwistedOrbitEngine(
            TwistedAction.from_homs(torus_hom(t, IntMatrix([[2]])), torus_hom(t, IntMatrix([[5]])))
        )
        assert engine.delta1 == IntMatrix([[5]]) - IntMatrix([[2]]) == IntMatrix([[3]])


class TestHeisenbergInvariants:
    def test_double_map_counts_sixteen(self):
        h = heisenberg()
        phi = heisenberg_self_map(h, IntMatrix([[2, 0], [0, 2]]))
        psi = heisenberg_self_map(h, IntMatrix([[0, 0], [0, 0]]))
        report = coincidence_invariants(phi, psi)
        assert report.R.count == 16 and report.N == 16
        assert report.deformable == NO
        assert report.R.level_counts == (4, 4)
        assert len(report.R.reps) == 16
        assert report.R.fiber_counts == ((4, 4),)  # four level-1 classes, fiber order 4

    def test_shear_versus_identity_is_infinite(self):
        h = heisenberg()
        phi = heisenberg_self_map(h, IntMatrix([[1, 1], [0, 1]]))
        report = coincidence_invariants(phi, heisenberg_self_map(h, identity_matrix(2)))
        assert report.R.infinite_level is not None
        assert report.N == 0 and report.deformable == YES

    def test_oracle_agreement_on_finite_quotient(self):
        h = heisenberg()
        phi = heisenberg_self_map(h, IntMatrix([[2, 0], [0, 2]]))
        psi = heisenberg_self_map(h, IntMatrix([[0, 0], [0, 0]]))
        action = TwistedAction.from_homs(phi, psi)
        table = h.reduce_mod(4)
        movers = [(table.project(p), table.project(q)) for p, q in action.movers]
        count = twisted_orbits_finite(table, movers)
        assert count == 16


class TestGeneratorPairSystems:
    def test_empty_system_is_infinite(self):
        report = coincidence_invariants_from_pairs(TwistedAction.from_pairs(torus(1), ()))
        assert report.R.infinite_level is not None
        assert report.deformable == YES and report.rationale == INFTY_THM

    def test_single_translation_pair(self):
        t = torus(1)
        action = TwistedAction.from_pairs(t, ((t.element(((0,),)), t.element(((2,),))),))
        report = coincidence_invariants_from_pairs(action)
        assert report.R.count == 2 and report.N == 2
        assert report.deformable == UNKNOWN and report.rationale == REMARK_GAP

    def test_non_uniform_fibers_sum_correctly(self):
        report = coincidence_invariants_from_pairs(heisenberg_pairs_action())
        assert report.R.count == 6
        assert report.R.fiber_counts == ((1, 2), (2, 2))
        assert report.R.level_counts == (6,)
        assert report.deformable == UNKNOWN

    def test_non_uniform_count_matches_finite_oracle(self):
        action = heisenberg_pairs_action()
        table = action.target.reduce_mod(4)
        movers = [(table.project(p), table.project(q)) for p, q in action.movers]
        count = twisted_orbits_finite(table, movers)
        assert count == 6

    def test_pairs_off_the_target_are_rejected(self):
        t2 = torus(2)
        with pytest.raises(ShapeError):
            TwistedAction.from_pairs(heisenberg(), ((t2.identity(), t2.identity()),))

    def test_class3_target_unsupported(self):
        lat = NilpotentLattice(ranks=(2, 1, 1))
        action = TwistedAction.from_pairs(lat, ((lat.element(((1, 0), (0,), (0,))),) * 2,))
        with pytest.raises(UnsupportedClassError):
            coincidence_invariants_from_pairs(action)


class TestLabels:
    def engine(self):
        h = heisenberg()
        phi = heisenberg_self_map(h, IntMatrix([[2, 0], [0, 2]]))
        psi = heisenberg_self_map(h, IntMatrix([[0, 0], [0, 0]]))
        return h, TwistedOrbitEngine(TwistedAction.from_homs(phi, psi))

    def test_soundness_under_moves(self, rng):
        h, engine = self.engine()
        for _ in range(200):
            u = random_element(rng, h, lo=-8, hi=8)
            label_u, _ = engine.label(u)
            word = tuple(
                (rng.randrange(engine.k), rng.randint(-2, 2)) for _ in range(3)
            )
            label_moved, _ = engine.label(engine.move(u, word))
            assert label_moved == label_u

    def test_completeness_on_fundamental_box(self):
        h, engine = self.engine()
        labels = set()
        for a1 in range(4):
            for a2 in range(4):
                for c in range(4):
                    lab, _ = engine.label(h.element(((a1, a2), (c,))))
                    labels.add(lab.coordinates)
        assert len(labels) == 16
        reps = {e.coordinates for e in engine.result(reps_limit=64).reps}
        assert labels == reps

    def test_witness_replay_is_exact(self, rng):
        h, engine = self.engine()
        for _ in range(100):
            u = random_element(rng, h, lo=-8, hi=8)
            label, witness = engine.label(u)
            assert engine.move(u, witness) == label

    def test_label_depends_only_on_the_action(self):
        h, engine = self.engine()
        u = h.element(((5, -3), (7,)))
        assert TwistedOrbitEngine(engine.action).label(u) == engine.label(u)

    def test_witness_length_does_not_grow_with_the_coordinates(self):
        h, engine = self.engine()
        lengths = []
        for c in (10**3, 10**5, 10**9):
            u = h.element(((1, 1), (c,)))
            label, witness = engine.label(u)
            assert engine.move(u, witness) == label
            lengths.append(len(witness))
            assert len(witness) == lengths[0], lengths

    def test_word_powers_match_repetition(self, rng):
        lat = free_class2(3)
        for _ in range(200):
            engine = random_pairs_engine(rng, lat, 3)
            word = tuple(
                (rng.randrange(3), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(1, 5))
            )
            n = rng.randint(-6, 6)
            base = word if n > 0 else tuple((j, -e) for j, e in reversed(word))
            assert engine.word_images(_word_power(word, n)) == engine.word_images(base * abs(n))


def random_pairs_engine(rng, lat, k):
    """Engine on k random generator pairs whose level-1 cokernel is finite."""
    while True:
        pairs = tuple(
            (random_element(rng, lat, -3, 3), random_element(rng, lat, -3, 3))
            for _ in range(k)
        )
        engine = TwistedOrbitEngine(TwistedAction.from_pairs(lat, pairs))
        if engine.order1 is not None:
            return engine


class TestFiberColumns:
    @pytest.mark.parametrize("lattice", [heisenberg, heisenberg_squared, free_class2])
    def test_closed_form_equals_the_moved_element(self, rng, lattice):
        # the column of fiber word w over a is t_w + [p_w, a]; it must equal
        # the central coordinate of psi(w) (a, 0) phi(w)^{-1}
        lat = lattice()
        r1, r2 = lat.ranks
        kernel_words = commutator_words = non_uniform = uniform = 0
        for k in (r1, r1 + 1, r1 + 2) * 3:
            engine = random_pairs_engine(rng, lat, k)
            commutators = k * (k - 1) // 2
            kernel_words += len(engine._fiber_words) - commutators
            commutator_words += commutators
            for _ in range(5):
                a = tuple(rng.randint(-6, 6) for _ in range(r1))
                M = engine._fiber_matrix(a)
                base = lat.element((a, (0,) * r2))
                for g, w in enumerate(engine._fiber_words):
                    assert M.column(g) == engine.move(base, w).level(1), (a, w)
                if engine._moving:
                    non_uniform += 1
                else:
                    # uniform: one form, built from the constant columns, for every a
                    uniform += 1
                    assert engine._fiber(a) is engine._fiber((0,) * r1)
                    assert engine._fiber(a).H == column_hermite(M).H
        assert kernel_words and commutator_words and non_uniform and uniform


def mixed_pairs_engine(rng, lat):
    """Engine on r1 translation pairs (0, (d, c)) with d triangular, so that
    level 1 has at most 3^r1 classes, plus one or two pairs (v, v) with equal
    level-1 parts, whose kernel words move the fiber with level 1."""
    r1, r2 = lat.ranks

    def element(a):
        return lat.element((a, tuple(rng.randint(-2, 2) for _ in range(r2))))

    pairs = []
    for i in range(r1):
        d = tuple(rng.randint(1, 3) if j == i else rng.randint(-2, 2) * (j > i) for j in range(r1))
        pairs.append((element((0,) * r1), element(d)))
    for _ in range(rng.randint(1, 2)):
        v = tuple(rng.randint(-2, 2) for _ in range(r1))
        pairs.append((element(v), element(v)))
    rng.shuffle(pairs)
    return TwistedOrbitEngine(TwistedAction.from_pairs(lat, pairs))


class TestPeriodClasses:
    def test_witnesses_through_a_shared_fiber_form_are_exact(self, rng):
        # result() shares one fiber form per key, often built from another
        # representative's matrix; label reduces by the form of its own
        # representative's matrix, and its witness word must replay exactly
        shared = 0
        for lattice in (heisenberg, heisenberg_squared, free_class2):
            lat = lattice()
            for _ in range(12):
                engine = mixed_pairs_engine(rng, lat)
                if engine.result().count is None:
                    continue
                for _ in range(6):
                    u = random_element(rng, lat, -4, 4)
                    label, witness = engine.label(u)
                    assert engine.move(u, witness) == label
                    a = label.level(0)
                    shared += engine._fiber(a).A != engine._fiber_matrix(a)
        assert shared >= 40

    def test_count_matches_the_per_class_sum(self, rng):
        # one fiber per period class must give the count, level counts and
        # fiber histogram of one fiber per level-1 class
        non_uniform = 0
        for lattice in (heisenberg, heisenberg_squared, free_class2):
            lat = lattice()
            r1 = lat.ranks[0]
            engines = [random_pairs_engine(rng, lat, k) for k in (r1, r1 + 1, r1 + 2) * 3]
            engines += [mixed_pairs_engine(rng, lat) for _ in range(40)]
            for engine in engines:
                count, level_counts, histogram = fiber_sum_by_enumeration(engine)
                R = engine.result()
                assert R.count == count
                if count is None:
                    assert R.level_counts == (engine.order1, None) and R.infinite_level == 2
                    continue
                assert (R.level_counts, R.fiber_counts) == (level_counts, histogram)
                non_uniform += len(histogram) > 1
        assert non_uniform >= 20

    def test_listed_representatives_are_canonical_labels(self, rng):
        # level-1 classes with equal B(a) mod e share one fiber form in the
        # listing and in label
        non_uniform = 0
        for lattice in (heisenberg, heisenberg_squared, free_class2):
            lat = lattice()
            for _ in range(20):
                engine = mixed_pairs_engine(rng, lat)
                R = engine.result(reps_limit=256)
                if R.reps is None:
                    continue
                assert len(set(R.reps)) == len(R.reps) == R.count
                for u in R.reps:
                    assert engine.label(u)[0] == u
                non_uniform += len(R.fiber_counts) > 1
        assert non_uniform >= 5

    def test_fiber_exponent_is_the_lcm_over_the_period_classes(self, rng):
        # E against its definition, on fiber matrices built afresh for the
        # period classes: on a new engine, as the oracle's default modulus
        # calls it, and on one whose listing cached forms of other keys
        non_uniform = 0
        for lattice in (heisenberg, heisenberg_squared, free_class2):
            lat = lattice()
            r1 = lat.ranks[0]
            engines = [random_pairs_engine(rng, lat, k) for k in (r1, r1 + 1, r1 + 2) * 2]
            engines += [mixed_pairs_engine(rng, lat) for _ in range(15)]
            for engine in engines:
                R = engine.result(reps_limit=256)
                if R.count is None:
                    continue
                period = column_hermite(engine._period_matrix())
                E = lcm(*(
                    max((1, *cokernel(engine._fiber_matrix(q)).torsion))
                    for q in coset_representatives(period)
                ))
                assert TwistedOrbitEngine(engine.action).fiber_exponent() == E
                assert engine.fiber_exponent() == E
                non_uniform += len(R.fiber_counts) > 1
        assert non_uniform >= 5

    def test_fiber_exponent_without_a_centre_is_one(self, rng):
        for k in (2, 3, 4):
            assert random_pairs_engine(rng, torus(2), k).fiber_exponent() == 1

    def test_period_family_at_a_hundred_million_classes(self):
        # K = 10^4, s = 12: g = 4, R = (10^8 / 4) * pillai(4) = 2 * 10^8
        action = parse_problem_dict(heisenberg_period_pairs(10**4, 12)).action
        R = coincidence_invariants_from_pairs(action).R
        assert R.count == 10**8 // 4 * pillai(4) == 2 * 10**8
        assert R.level_counts == (R.count,) and R.reps is None
        assert R.fiber_counts == ((1, 5 * 10**7), (2, 25 * 10**6), (4, 25 * 10**6))

    @pytest.mark.parametrize("K", [2, 3, 4, 6])
    @pytest.mark.parametrize("s", [None, 2, 3, 4])
    def test_period_family_matches_the_oracle(self, tmp_path, K, s):
        g = K if s is None else gcd(K, s)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(heisenberg_period_pairs(K, s)), encoding="utf-8")
        out = io.StringIO()
        assert main(["--output", "json", "compute", str(path)], out=out) == 0
        assert json.loads(out.getvalue())["R"] == K * K // g * pillai(g)
        out = io.StringIO()
        assert main(["--output", "json", "oracle", str(path), "--modulus", str(K)], out=out) == 0
        assert json.loads(out.getvalue())["orbit_count"] == K * K // g * pillai(g)

    def test_uniform_scalar_map_past_the_old_cap(self):
        # 10^8 level-1 classes with one period class: O(1) work in c1
        h = heisenberg()
        phi = heisenberg_self_map(h, IntMatrix([[10**4, 0], [0, 10**4]]))
        psi = heisenberg_self_map(h, IntMatrix([[0, 0], [0, 0]]))
        tracemalloc.start()
        start = time.perf_counter()
        report = coincidence_invariants(phi, psi)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert report.R.count == 10**16 and report.R.level_counts == (10**8, 10**8)
        assert report.R.fiber_counts == ((10**8, 10**8),)
        assert elapsed < 1.0 and peak < 50 * 2**20


def free3_to_heisenberg(M):
    """The hom free(3,3) -> Heisenberg with level-1 matrix M; level 2 sends
    the commutator of generators i < j to the 2x2 minor of columns i, j."""
    minors = [[M[0][i] * M[1][j] - M[1][i] * M[0][j] for i, j in ((0, 1), (0, 2), (1, 2))]]
    return LatticeHomomorphism(free_class2(), heisenberg(), (IntMatrix(M), IntMatrix(minors)))


class TestKernelFill:
    # dim X > dim Y: G1 - F1 has a kernel, and the level-2 cokernel is
    # infinite, yet the kernel words fill every central fiber to a finite one
    @pytest.mark.parametrize("F1, G1, R, modulus", [
        ([[-1, 1, 1], [-3, 3, 3]], [[0, 0, 0], [0, 2, -1]], 9, 18),
        ([[-3, 1, 1], [0, -2, 1]], [[-3, -3, 3], [2, 0, -1]], 24, 48),
        ([[3, -2, 0], [3, -2, 0]], [[-3, 2, 1], [3, -2, -1]], 60, 60),
        ([[0, 0, -3], [-1, 1, -2]], [[1, -1, -3], [-2, 2, 3]], 10, 20),
    ], ids=["R9", "R24", "R60", "R10"])
    def test_finite_count_over_an_infinite_level(self, F1, G1, R, modulus):
        phi, psi = free3_to_heisenberg(F1), free3_to_heisenberg(G1)
        report = coincidence_invariants(phi, psi)
        assert report.R.level_counts[1] is None
        assert report.R.infinite_level is None and report.R.count == R
        assert (report.N, report.deformable) == (R, NO)
        problem = ProblemFile(kind="NILMANIFOLD", name=None, target=phi.target, phi=phi, psi=psi)
        assert oracle_orbit_count(problem, modulus) == R

    # m = max(2, e1 n) from e1 = exp coker Delta_1 and E = lcm of the fiber
    # exponents, n = E or 2E; a smaller modulus can merge classes: mod 2 the
    # first pair has 1 orbit, mod 10 the last has 5
    @pytest.mark.parametrize("F1, G1, R, modulus", [
        ([[-3, 0, 3], [0, -2, 2]], [[1, -2, 0], [1, -2, 2]], 2, 4),
        ([[-1, 1, 1], [-3, 3, 3]], [[0, 0, 0], [0, 2, -1]], 9, 9),
        ([[-3, 1, 1], [0, -2, 1]], [[-3, -3, 3], [2, 0, -1]], 24, 24),
        ([[0, 0, -3], [-1, 1, -2]], [[1, -1, -3], [-2, 2, 3]], 10, 20),
    ], ids=["R2", "R9", "R24", "R10"])
    def test_default_modulus_separates_every_class(self, F1, G1, R, modulus):
        phi, psi = free3_to_heisenberg(F1), free3_to_heisenberg(G1)
        problem = ProblemFile(kind="NILMANIFOLD", name=None, target=phi.target, phi=phi, psi=psi)
        assert default_modulus(problem, coincidence_invariants(phi, psi)) == modulus
        assert oracle_orbit_count(problem, modulus) == R

    def test_default_modulus_of_the_r60_pair_exceeds_the_cap(self):
        # e1 = 2 and E = 30 give m = 120, and 120^3 elements exceed the
        # default cap; the explicit modulus 60 counts R (the R60 case above)
        phi = free3_to_heisenberg([[3, -2, 0], [3, -2, 0]])
        psi = free3_to_heisenberg([[-3, 2, 1], [3, -2, -1]])
        problem = ProblemFile(kind="NILMANIFOLD", name=None, target=phi.target, phi=phi, psi=psi)
        assert default_modulus(problem, coincidence_invariants(phi, psi)) == 120
        with pytest.raises(BoundExceededError):
            oracle_orbit_count(problem, 120)


def random_hom_pair(rng, kind):
    """Two valid homomorphisms with a shared source and target; the central
    matrices are forced by bracket equivariance where the target has class 2."""

    def square(n):
        return random_matrix(rng, n, n, -4, 4)

    def build(source, target, make):
        return tuple(
            LatticeHomomorphism(source=source, target=target, matrices=make())
            for _ in range(2)
        )

    if kind == "torus":
        t = torus(3)
        return build(t, t, lambda: (square(3),))
    if kind == "heisenberg":
        h = heisenberg()
        return tuple(heisenberg_self_map(h, square(2)) for _ in range(2))
    if kind == "heisenberg_squared":
        hh = heisenberg_squared()

        def make():
            A, B = square(2), square(2)
            M1 = [[0] * 4 for _ in range(4)]
            for i in range(2):
                for j in range(2):
                    M1[i][j], M1[i + 2][j + 2] = A.data[i][j], B.data[i][j]
            return IntMatrix(M1), IntMatrix([[determinant(A), 0], [0, determinant(B)]])

        return build(hh, hh, make)
    if kind == "free_class2":
        f = free_class2()
        pairs = [(0, 1), (0, 2), (1, 2)]

        def make():
            M = square(3).data
            wedge = [[M[i][k] * M[j][l] - M[i][l] * M[j][k] for k, l in pairs] for i, j in pairs]
            return IntMatrix(M), IntMatrix(wedge)

        return build(f, f, make)
    if kind == "torus_to_heisenberg":
        # rank-one level-1 images keep the commutator pairing zero
        def make():
            u = [rng.randint(-4, 4) for _ in range(2)]
            w = [rng.randint(-4, 4) for _ in range(2)]
            return IntMatrix([[x * y for y in w] for x in u]), zero_matrix(1, 0)

        return build(torus(2), heisenberg(), make)
    if kind == "heisenberg_to_torus":
        return build(heisenberg(), torus(2), lambda: (square(2), IntMatrix([], shape=(0, 1))))
    if kind == "class3":
        lat = NilpotentLattice(ranks=(2, 1, 1))
        return build(lat, lat, lambda: (square(2), square(1), square(1)))
    raise ValueError(kind)


class TestMovers:
    @pytest.mark.parametrize(
        "kind",
        ["torus", "heisenberg", "heisenberg_squared", "free_class2",
         "torus_to_heisenberg", "heisenberg_to_torus", "class3"],
    )
    def test_movers_are_the_generator_images(self, rng, kind):
        def image(hom, g):
            if kind != "class3":
                return apply_hom(hom, g)
            # past class 2 apply_hom refuses; a one-letter word (a unit
            # vector at one level) maps level by level
            return LatticeElement(tuple(M.apply(v) for M, v in zip(hom.matrices, g.coordinates)))

        for _ in range(20):
            phi, psi = random_hom_pair(rng, kind)
            expected = tuple((image(phi, g), image(psi, g)) for g in generators(phi.source))
            assert TwistedAction.from_homs(phi, psi).movers == expected


class TestLevelOneElimination:
    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared", "free_class2"])
    def test_one_exact_run_on_delta1(self, rng, monkeypatch, kind):
        # a class-2 source gives Delta_1 a zero column per central generator,
        # so its order needs an elimination; the one run that builds V (for
        # the kernel words) gives the order too, and only Delta_1 and the
        # bracket matrix B, whose kernel words are read, get a V
        runs = []
        echelon = intmat._column_echelon

        def recorded(cols, rows, modulus=None):
            runs.append((tuple(tuple(col[:rows]) for col in cols), cols and len(cols[0]) > rows))
            return echelon(cols, rows, modulus)

        monkeypatch.setattr(intmat, "_column_echelon", recorded)
        finite = 0
        for _ in range(20):
            engine = TwistedOrbitEngine(TwistedAction.from_homs(*random_hom_pair(rng, kind)))
            engine.result(reps_limit=1024)
            delta1 = tuple(engine.delta1.column(j) for j in range(engine.k))
            assert [with_v for cols, with_v in runs if cols == delta1] == [True]
            if engine.order1 is not None:
                finite += 1
                assert sum(with_v for _, with_v in runs) == 2
            runs.clear()
        assert finite >= 5


class TestMiscellaneous:
    def test_mismatched_sources_rejected(self):
        t2, t3 = torus(2), torus(3)
        f = torus_hom(t2, identity_matrix(2))
        g = torus_hom(t3, identity_matrix(3))
        with pytest.raises(ShapeError):
            coincidence_invariants(f, g)

    def test_fiber_deviation_rank(self):
        h = heisenberg()
        phi = heisenberg_self_map(h, IntMatrix([[2, 0], [0, 2]]))
        psi = heisenberg_self_map(h, IntMatrix([[0, 0], [0, 0]]))
        assert fiber_deviation_rank(phi, psi, 1) == 2
        assert fiber_deviation_rank(phi, psi, 2) == 1
        with pytest.raises(ShapeError):
            fiber_deviation_rank(phi, psi, 3)

    def test_engine_rejects_class3(self):
        lat = NilpotentLattice(ranks=(1, 1, 1))
        with pytest.raises(UnsupportedClassError):
            TwistedOrbitEngine(TwistedAction(target=lat, movers=()))


def _result(count):
    return ReidemeisterResult(
        count=count,
        level_counts=(count,),
        infinite_level=1 if count is None else None,
    )


class TestVerdict:
    @pytest.mark.parametrize("theorem, count, bounds, expected", [
        (EQ_THM, None, None, (0, YES, EQ_THM)),
        (EQ_THM, 6, None, (6, NO, EQ_THM)),
        (INFTY_THM, None, None, (0, YES, INFTY_THM)),
        (INFTY_THM, 6, None, (6, UNKNOWN, REMARK_GAP)),
        (EQ_THM, 6, (1, 6), (None, NO, EQ_THM)),
        (EQ_THM, None, (1, None), (None, UNKNOWN, EQ_THM)),
    ], ids=["eq-infinite", "eq-finite", "infty-infinite", "infty-finite",
            "bounds-finite", "bounds-infinite"])
    def test_table(self, theorem, count, bounds, expected):
        report = verdict(_result(count), theorem, bounds)
        assert (report.N, report.deformable, report.rationale) == expected
        assert report.exact == (bounds is None) and report.count_bounds == bounds
        if bounds is not None:
            # an inexact report keeps only the level counts of its count
            assert report.R.count is None and report.R.infinite_level is None
            assert (report.count_bounds[1] is None) == (report.deformable == UNKNOWN)

    def test_verdict_is_the_only_report_builder(self):
        sources = (Path(nilco.__file__).parent).glob("*.py")
        builders = [path.name for path in sources for _ in range(
            path.read_text(encoding="utf-8").count("CoincidenceReport("))]
        assert builders == ["reidemeister.py"]
        assert "CoincidenceReport(" in inspect.getsource(verdict)


def class3_pair(source_ranks, F, G):
    """A hom pair into the class-3 target of ranks (2, 1, 1); past class 2
    only the shapes of the level matrices are checked."""
    source = NilpotentLattice(ranks=source_ranks)
    target = NilpotentLattice(ranks=(2, 1, 1))
    return tuple(
        LatticeHomomorphism(source, target, tuple(IntMatrix(M) for M in mats))
        for mats in (F, G)
    )


def class3_compute(tmp_path, F, G, *options):
    """stdout of `nilco compute` on that pair from the source of ranks (3, 1, 1)."""
    doc = {"kind": "NILMANIFOLD", "source": {"ranks": [3, 1, 1]},
           "target": {"ranks": [2, 1, 1]}, "F": F, "G": G}
    path = tmp_path / "class3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    assert main([*options, "compute", str(path)], out=out) == 0
    return out.getvalue()


class TestClassThreeProducts:
    def test_product_with_a_level_kernel_is_only_bounded(self, tmp_path):
        # Delta_1 = -[[1, 0, 0], [0, 1, 0]] has a kernel: the product 6 of
        # the level counts is an upper bound, c_1 = 1 a lower one
        F = ([[1, 0, 0], [0, 1, 0]], [[2]], [[3]])
        G = ([[0, 0, 0], [0, 0, 0]], [[0]], [[0]])
        report = coincidence_invariants(*class3_pair((3, 1, 1), F, G))
        assert not report.exact and report.count_bounds == (1, 6)
        assert (report.N, report.deformable, report.R.count) == (None, NO, None)
        got = json.loads(class3_compute(tmp_path, F, G, "--output", "json"))
        assert (got["R"], got["N"], got["exact"]) == (None, None, False)
        assert got["count_bounds"] == [1, 6]

    def test_infinite_upper_bound_decides_nothing(self, tmp_path):
        F = ([[1, 0, 0], [0, 1, 0]], [[0]], [[3]])
        G = ([[0, 0, 0], [0, 0, 0]], [[0]], [[0]])
        report = coincidence_invariants(*class3_pair((3, 1, 1), F, G))
        assert report.count_bounds == (1, None) and report.deformable == UNKNOWN
        got = json.loads(class3_compute(tmp_path, F, G, "--output", "json"))
        assert got["count_bounds"] == [1, "infinite"]
        text = class3_compute(tmp_path, F, G)
        assert "R(f,g) in [1, infinite]  (UNSUPPORTED-EXACT: class > 2)" in text

    def test_injective_levels_keep_the_product(self):
        F = ([[2, 0], [0, 2]], [[4]], [[8]])
        G = ([[0, 0], [0, 0]], [[0]], [[0]])
        report = coincidence_invariants(*class3_pair((2, 1, 1), F, G))
        assert report.exact and (report.R.count, report.N, report.deformable) == (128, 128, NO)

    def test_infinite_first_level_is_exact(self):
        F = ([[1, 0, 0], [0, 1, 0]], [[2]], [[3]])
        report = coincidence_invariants(*class3_pair((3, 1, 1), F, F))
        assert report.exact and report.R.infinite_level == 1
        assert (report.N, report.deformable) == (0, YES)

    def test_infinite_top_level_over_injective_levels_is_exact(self):
        F = ([[1, 0], [0, 1]], [[2]], [[0]])
        G = ([[0, 0], [0, 0]], [[0]], [[0]])
        report = coincidence_invariants(*class3_pair((2, 1, 1), F, G))
        assert report.exact and report.R.infinite_level == 3 and report.deformable == YES
