"""Twisted-conjugacy counting, canonical labels, and the deformability
verdict for nilpotent targets."""

import inspect
import io
import json
import time
import tracemalloc
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest

from conftest import (
    NO_CENTRE_INFINITE,
    NO_CENTRE_MAPS,
    NO_CENTRE_PAIRS,
    dense_bracket,
    expand_reps,
    fiber_deviation_rank,
    fiber_sum_by_enumeration,
    free_class2,
    generators,
    heisenberg,
    heisenberg_period_pairs,
    heisenberg_squared,
    heisenberg_self_map,
    identity_matrix,
    matvec,
    mover_delta1,
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
from nilco.errors import (
    BoundExceededError,
    InfiniteResultError,
    ShapeError,
    UnsupportedClassError,
)
from nilco.infra import CosetAction, InfraStructure, infra_action
from nilco.intmat import (
    IntMatrix,
    cokernel,
    column_hermite,
    coset_representatives,
    determinant,
)
from nilco.lattice import LatticeElement, LatticeHomomorphism, NilpotentLattice
from nilco.oracle import twisted_orbits_finite
from nilco.problems import (
    compute_report,
    oracle_orbit_count,
    parse_problem_dict,
    validate_problem,
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
    return TwistedAction(h, pairs)


class TestTorusInvariants:
    def test_degree_two_versus_constant(self):
        t = torus(1)
        report = coincidence_invariants(torus_hom(t, IntMatrix([[2]])),
                                        torus_hom(t, IntMatrix([[0]])))
        assert report.R.infinite_level is None and report.R.count == 2
        assert report.N == 2 and report.deformable == NO
        assert report.rationale == EQ_THM
        assert {e.coordinates for e in expand_reps(report.R.reps)} == {((0,),), ((1,),)}

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
        assert len(expand_reps(report.R.reps)) == 16
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
        count = twisted_orbits_finite(h.reduce_mod(4), action.movers)
        assert count == 16


class TestGeneratorPairSystems:
    def test_empty_system_is_infinite(self):
        report = coincidence_invariants_from_pairs(TwistedAction(torus(1), ()))
        assert report.R.infinite_level is not None
        assert report.deformable == YES and report.rationale == INFTY_THM

    def test_single_translation_pair(self):
        t = torus(1)
        action = TwistedAction(t, ((t.element(((0,),)), t.element(((2,),))),))
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
        count = twisted_orbits_finite(action.target.reduce_mod(4), action.movers)
        assert count == 6

    def test_pairs_off_the_target_are_rejected(self):
        # the constructor checks each pair element's shape, and a copy is
        # built through it
        t2 = torus(2)
        with pytest.raises(ShapeError, match="^element has 1 levels, lattice has 2$"):
            TwistedAction(heisenberg(), ((t2.identity(), t2.identity()),))
        action = heisenberg_pairs_action()
        short = LatticeElement(((0,), (0,)))
        with pytest.raises(ShapeError, match=r"^level vector \(0,\) does not match rank 2$"):
            action._replace(pairs=action.pairs + ((action.target.identity(), short),))

    def test_class3_target_unsupported(self):
        lat = NilpotentLattice(ranks=(2, 1, 1))
        with pytest.raises(UnsupportedClassError):
            TwistedAction(lat, ((lat.element(((1, 0), (0,), (0,))),) * 2,))


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
        reps = {e.coordinates for e in expand_reps(engine.result(reps_limit=64).reps)}
        assert labels == reps

    def test_target_without_a_centre_keeps_both_levels(self):
        # ranks (2, 0): the count, a listed representative and a label have
        # two levels, the second trivial, like every element of the target,
        # for a map pair and for generator pairs alike
        for doc in (NO_CENTRE_MAPS, NO_CENTRE_PAIRS):
            problem = parse_problem_dict(doc)
            R = compute_report(problem)[0].R
            assert (R.count, R.level_counts, R.fiber_counts) == (2, (2, 1), ((1, 2),)), doc["kind"]
            engine = TwistedOrbitEngine(validate_problem(problem))
            reps = expand_reps(R.reps)
            assert [u.coordinates for u in reps] == [((0, 0), ()), ((1, 0), ())]
            for u in reps:
                assert engine.label(u)[0] == u
            u = problem.action.target.element(((5, 3), ()))
            rep, word = engine.label(u)
            assert rep.coordinates == ((1, 0), ()) and engine.move(u, word) == rep
        R = compute_report(parse_problem_dict(NO_CENTRE_INFINITE))[0].R
        assert R.level_counts == (None, None) and R.infinite_level == 1

    def test_witness_replay_is_exact(self, rng):
        h, engine = self.engine()
        for _ in range(100):
            u = random_element(rng, h, lo=-8, hi=8)
            label, witness = engine.label(u)
            assert engine.move(u, witness) == label

    def test_label_depends_only_on_the_action(self):
        h, engine = self.engine()
        u = h.element(((5, -3), (7,)))
        action = TwistedAction(engine.target, engine.movers)
        assert TwistedOrbitEngine(action).label(u) == engine.label(u)

    def test_witness_length_does_not_grow_with_the_coordinates(self):
        h, engine = self.engine()
        lengths = []
        for c in (10**3, 10**5, 10**9):
            u = h.element(((1, 1), (c,)))
            label, witness = engine.label(u)
            assert engine.move(u, witness) == label
            lengths.append(len(witness))
            assert len(witness) == lengths[0], lengths

    def test_infinite_class_sets_have_no_label(self):
        t = torus(1)
        engine = TwistedOrbitEngine(TwistedAction(t, ()))
        with pytest.raises(InfiniteResultError, match="infinitely many classes at level 1"):
            engine.label(t.identity())
        # Delta_1 = 2I with a zero commutator column: four level-1 classes,
        # each over an infinite central fiber
        h = heisenberg()
        pairs = tuple(
            (h.element((tuple(-x for x in e), (0,))), h.element((e, (0,))))
            for e in ((1, 0), (0, 1))
        )
        engine = TwistedOrbitEngine(TwistedAction(h, pairs))
        assert engine.result().level_counts == (4, None)
        with pytest.raises(InfiniteResultError, match="infinitely many central classes"):
            engine.label(h.identity())

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
        engine = TwistedOrbitEngine(TwistedAction(lat, pairs))
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
            words, columns = engine._fiber_generators
            kernel_words += len(words) - commutators
            commutator_words += commutators
            # the all-pairs commutator block against pairwise dense brackets
            a, b = ([m[s].level(0) for m in engine.movers] for s in (0, 1))
            assert columns[-commutators:] == tuple(
                ((0,) * r1, tuple(y - x for x, y in zip(
                    dense_bracket(lat, a[i], a[j]), dense_bracket(lat, b[i], b[j]))))
                for i in range(k) for j in range(i + 1, k)
            )
            for _ in range(5):
                a = tuple(rng.randint(-6, 6) for _ in range(r1))
                M = engine._fiber_matrix(a)
                base = lat.element((a, (0,) * r2))
                for g, w in enumerate(words):
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
    return TwistedOrbitEngine(TwistedAction(lat, pairs))


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
                reps = expand_reps(R.reps)
                assert len(set(reps)) == len(reps) == R.count
                for u in reps:
                    assert engine.label(u)[0] == u
                non_uniform += len(R.fiber_counts) > 1
        assert non_uniform >= 5

    def test_fiber_exponent_is_the_lcm_over_the_period_classes(self, rng):
        # m = max(2, e1 n) with E against its definition, on fiber matrices
        # built afresh for the period classes: on a new engine, as `oracle`
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
                e1 = max((1, *cokernel(engine.delta1).torsion))
                m = max(2, e1 * (E if E % 2 else 2 * E))
                action = TwistedAction(engine.target, engine.movers)
                assert TwistedOrbitEngine(action).oracle_modulus() == m
                assert engine.oracle_modulus() == m
                non_uniform += len(R.fiber_counts) > 1
        assert non_uniform >= 5

    def test_fiber_exponent_without_a_centre_is_one(self, rng):
        # E = 1 is odd, so the oracle's modulus is max(2, e1)
        for k in (2, 3, 4):
            engine = random_pairs_engine(rng, torus(2), k)
            assert engine.oracle_modulus() == max((2, *cokernel(engine.delta1).torsion))

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
        assert oracle_orbit_count(TwistedAction.from_homs(phi, psi), modulus) == R

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
        action = TwistedAction.from_homs(free3_to_heisenberg(F1), free3_to_heisenberg(G1))
        assert TwistedOrbitEngine(action).oracle_modulus() == modulus
        assert oracle_orbit_count(action, modulus) == R

    def test_default_modulus_of_the_r60_pair_exceeds_the_cap(self):
        # e1 = 2 and E = 30 give m = 120, and 120^3 elements exceed the
        # default cap; the explicit modulus 60 counts R (the R60 case above)
        phi = free3_to_heisenberg([[3, -2, 0], [3, -2, 0]])
        psi = free3_to_heisenberg([[-3, 2, 1], [3, -2, -1]])
        action = TwistedAction.from_homs(phi, psi)
        assert TwistedOrbitEngine(action).oracle_modulus() == 120
        with pytest.raises(BoundExceededError):
            oracle_orbit_count(action, 120)


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
    if kind == "free_class2_to_h_times_z":
        # r_2 = 3 into r_2 = 1: any M1, and M2 sends the central generator
        # [e_i, e_j] of the free source to [M1 e_i, M1 e_j] in H x Z
        target = NilpotentLattice(ranks=(3, 1), brackets=(
            IntMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),))

        def make():
            M = square(3)
            cols = list(zip(*M.data))
            return M, IntMatrix([[a[0] * b[1] - a[1] * b[0]
                                  for a, b in combinations(cols, 2)]])

        return build(free_class2(), target, make)
    if kind == "heisenberg_to_no_centre":
        target = NilpotentLattice(ranks=(2, 0))
        return build(heisenberg(), target, lambda: (square(2), zero_matrix(0, 1)))
    if kind == "class3_to_torus":
        lat = NilpotentLattice(ranks=(2, 1, 1))
        return build(lat, torus(2), lambda: (square(2), zero_matrix(0, 1), zero_matrix(0, 1)))
    raise ValueError(kind)


class TestMovers:
    @pytest.mark.parametrize(
        "kind",
        ["torus", "heisenberg", "heisenberg_squared", "free_class2",
         "torus_to_heisenberg", "heisenberg_to_torus", "class3_to_torus"],
    )
    def test_movers_are_the_generator_images(self, rng, kind):
        def image(hom, g):
            # a one-letter word (a unit vector at one level) maps level by
            # level through the level matrices, cut to the target's class
            levels = g.coordinates + ((),) * (hom.depth - len(g.coordinates))
            images = tuple(matvec(M, v) for M, v in zip(hom.matrices, levels))
            return LatticeElement(images[:hom.target.class_c])

        for _ in range(20):
            phi, psi = random_hom_pair(rng, kind)
            expected = tuple((image(phi, g), image(psi, g)) for g in generators(phi.source))
            assert TwistedAction.from_homs(phi, psi).movers == expected


    @pytest.mark.parametrize(
        "kind",
        ["torus", "heisenberg", "heisenberg_squared", "free_class2",
         "torus_to_heisenberg", "heisenberg_to_torus", "class3_to_torus"],
    )
    @pytest.mark.parametrize("holonomy", [0, 1, 3], ids=["maps", "infra-h2", "infra-h4"])
    def test_delta1_from_the_maps_is_the_mover_difference(self, rng, kind, holonomy):
        # G_1 - F_1, a zero column per source generator above level 1 (class-2
        # and class-3 sources), then for INFRA one column g(x) - f(x) per
        # holonomy pair: the difference of the movers' level-1 parts
        for _ in range(10):
            phi, psi = random_hom_pair(rng, kind)
            action = TwistedAction.from_homs(phi, psi)
            if holonomy:
                cover, target = phi.source, phi.target
                identity = CosetAction(tuple(identity_matrix(r) for r in cover.ranks),
                                       cover.identity())
                infra = InfraStructure(cover, holonomy + 1, [identity] * holonomy, [
                    (random_element(rng, target), random_element(rng, target))
                    for _ in range(holonomy)
                ])
                action = infra_action(infra, phi, psi)
            assert action.delta1 == mover_delta1(action)
            assert action.delta1.cols == sum(phi.source.ranks) + holonomy
            assert TwistedOrbitEngine(action).delta1 == action.delta1

    def test_a_map_pair_action_is_a_record_of_its_maps(self, rng):
        # compared and hashed by value, and checked when copied
        phi, psi = random_hom_pair(rng, "heisenberg")
        action = TwistedAction.from_homs(phi, psi)
        assert action == TwistedAction(phi.target, (), [phi, psi])
        assert hash(action) == hash(TwistedAction.from_homs(phi, psi))
        assert action != TwistedAction.from_homs(psi, phi)
        assert action.pairs == () and action.maps == (phi, psi)
        with pytest.raises(ShapeError, match="share source and target"):
            action._replace(target=torus(2))
        phi3, _ = random_hom_pair(rng, "torus")
        with pytest.raises(ShapeError, match="share source and target"):
            TwistedAction.from_homs(phi3, psi)


class TestLevelOneElimination:
    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared", "free_class2"])
    def test_one_exact_run_on_delta1(self, rng, monkeypatch, kind):
        # a class-2 source of the target's level-1 rank gives
        # Delta_1 = [G_1 - F_1 | 0 ... 0], a zero column per central generator.
        # Its order is |det(G_1 - F_1)|, read before anything else; when that
        # is finite the fibers are uniform and the count reads the Hermite
        # form of G_2 - F_2, so a count with its listing runs no exact loop at
        # all.  An infinite order builds no kernel word either: a singular
        # square live part runs no loop, a narrower one only its triangle
        runs = []
        echelon = intmat._column_echelon

        def recorded(cols, rows, modulus=None):
            with_v = any(len(col) > rows for col in cols)
            runs.append((tuple(tuple(col[:rows]) for col in cols), with_v))
            return echelon(cols, rows, modulus)

        monkeypatch.setattr(intmat, "_column_echelon", recorded)
        finite = infinite = 0
        for _ in range(30):
            engine = TwistedOrbitEngine(TwistedAction.from_homs(*random_hom_pair(rng, kind)))
            engine.result(reps_limit=1024)
            live = [engine.delta1.column(j) for j in range(engine.r1)]
            while live and not any(live[-1]):  # the loop runs up to the last nonzero column
                live.pop()
            assert not any(with_v for _, with_v in runs)
            if engine.order1 is not None:
                finite += 1
            else:
                infinite += 1
                square = len(live) == engine.r1
                assert [cols for cols, _ in runs] == ([] if square else [tuple(live)])
            runs.clear()
        assert finite >= 5 and infinite >= 1

    def test_a_singular_square_live_part_of_pairs_runs_no_loop(self, monkeypatch):
        # Heisenberg pairs with level-1 differences (1, 1) and (2, 2) plus one
        # central pair: Delta_1 is 2 x 3 but its live part is 2 x 2 and
        # singular, so the determinant gives R = infinity at level 1 and no
        # exact loop runs for kernel words that nothing would read
        runs = []
        echelon = intmat._column_echelon

        def recorded(cols, rows, modulus=None):
            runs.append(cols)
            return echelon(cols, rows, modulus)

        monkeypatch.setattr(intmat, "_column_echelon", recorded)
        h = heisenberg()
        pairs = [(h.identity(), h.element(coordinates))
                 for coordinates in (((1, 1), (0,)), ((2, 2), (0,)), ((0, 0), (1,)))]
        engine = TwistedOrbitEngine(TwistedAction(h, pairs))
        assert engine.k == 3 and engine.order1 is None
        assert engine.result().infinite_level == 1
        assert runs == []

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared", "free_class2",
                                      "free_class2_to_h_times_z", "heisenberg_to_no_centre"])
    def test_equal_level_one_ranks_build_no_element(self, rng, monkeypatch, kind):
        # a finite map pair whose level-1 ranks agree has uniform fibers: its
        # count reads the Hermite form of G_2 - F_2 and builds no generator
        # image, fiber word, commutator column or period lattice.  The
        # enumeration reads the fiber words afterwards, built on first read
        def refuse(*args):
            raise AssertionError("built for a count of equal level-1 ranks")

        counted = 0
        while counted < 5:
            action = TwistedAction.from_homs(*random_hom_pair(rng, kind))
            with monkeypatch.context() as patched:
                patched.setattr(LatticeHomomorphism, "generator_images", refuse)
                patched.setattr(TwistedOrbitEngine, "_period_matrix", refuse)
                patched.setattr(NilpotentLattice, "pair_brackets", refuse)
                patched.setattr(TwistedOrbitEngine, "_fiber_generators", property(refuse))
                engine = TwistedOrbitEngine(action)
                result = engine.result(reps_limit=1024)
            if result.count is None:
                continue
            counted += 1
            assert not engine._moving
            count, level_counts, histogram = fiber_sum_by_enumeration(engine)
            assert (result.count, result.level_counts, result.fiber_counts) == (
                count, level_counts, histogram)
            assert result.reps is None or len(expand_reps(result.reps)) == count

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared", "free_class2",
                                      "torus_to_heisenberg", "free_class2_to_h_times_z",
                                      "heisenberg_to_no_centre"])
    def test_equal_level_one_ranks_count_as_the_general_path(self, rng, kind):
        # a map pair whose level-1 ranks agree is counted from the Hermite
        # form of G_2 - F_2; its movers as generator pairs take the general
        # path (kernel words, commutator columns) and must give the same
        # result, listing and oracle modulus.  Every fourth pair has
        # psi = (-F_1, F_2), a map since the bracket is bilinear, so that
        # G_2 - F_2 = 0 over the finite level 1 of an invertible F_1
        finite = singular = 0
        for n in range(60):
            phi, psi = random_hom_pair(rng, kind)
            if n % 4 == 0:
                negated = IntMatrix([[-x for x in row] for row in phi.matrices[0].data])
                psi = LatticeHomomorphism(phi.source, phi.target, (negated, *phi.matrices[1:]))
            action = TwistedAction.from_homs(phi, psi)
            engine = TwistedOrbitEngine(action)
            general = TwistedOrbitEngine(TwistedAction(action.target, action.movers))
            assert (engine.hermite2 is None) == (engine.order1 is None) and general.hermite2 is None
            R = engine.result(reps_limit=1024)
            assert R == general.result(reps_limit=1024)
            if R.count is not None:
                finite += 1
                assert engine.oracle_modulus() == general.oracle_modulus()
            singular += R.infinite_level == 2
        # torus_to_heisenberg's G_2 - F_2 is 1 x 0, a (2, 0) target's 0 x 1
        assert finite >= 10 or kind == "torus_to_heisenberg"
        assert singular >= 3 or kind == "heisenberg_to_no_centre"

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared", "free_class2",
                                      "free_class2_to_h_times_z", "heisenberg_to_no_centre"])
    def test_label_after_a_count_of_equal_level_one_ranks(self, rng, kind):
        # the count built no fiber word; label builds them and returns a
        # listed representative, with a witness word that replays exactly
        labelled = 0
        for _ in range(300):
            engine = TwistedOrbitEngine(TwistedAction.from_homs(*random_hom_pair(rng, kind)))
            R = engine.result(reps_limit=1024)
            if R.reps is None:
                continue
            labelled += 1
            assert "_fiber_generators" not in vars(engine)
            reps = expand_reps(R.reps)
            for _ in range(4):
                u = random_element(rng, engine.target, -6, 6)
                rep, word = engine.label(u)
                assert rep in reps and engine.move(u, word) == rep
            if labelled == 5:
                break
        assert labelled == 5

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared", "free_class2",
                                      "torus_to_heisenberg", "period_pairs"])
    def test_a_count_runs_no_left_pass(self, rng, monkeypatch, kind):
        # the kernel words of Delta_1 and of the bracket matrix B come from
        # the exact triangle, and the counts read pivot diagonals: only what
        # reads H or V (a label) runs the left pass
        def no_left_pass(cols, pivots, modulus=None):
            raise AssertionError("left reduction run")

        monkeypatch.setattr(intmat, "_reduce_left", no_left_pass)
        for _ in range(20):
            if kind == "period_pairs":
                doc = heisenberg_period_pairs(rng.randint(1, 6), rng.randint(0, 6))
                action = parse_problem_dict(doc).action
            else:
                action = TwistedAction.from_homs(*random_hom_pair(rng, kind))
            TwistedOrbitEngine(action).result(reps_limit=1024)


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

    def test_action_rejects_class3(self):
        # the one home of the rule: no action, and so no engine, is built on
        # a class-3 target, by the constructor or by `_replace`
        lat = NilpotentLattice(ranks=(1, 1, 1))
        with pytest.raises(UnsupportedClassError):
            TwistedAction(target=lat, pairs=())
        with pytest.raises(UnsupportedClassError):
            TwistedAction(target=torus(1), pairs=())._replace(target=lat)


def _result(count):
    return ReidemeisterResult(
        count=count,
        level_counts=(count,),
        infinite_level=1 if count is None else None,
    )


class TestVerdict:
    @pytest.mark.parametrize("theorem, count, expected", [
        (EQ_THM, None, (0, YES, EQ_THM)),
        (EQ_THM, 6, (6, NO, EQ_THM)),
        (INFTY_THM, None, (0, YES, INFTY_THM)),
        (INFTY_THM, 6, (6, UNKNOWN, REMARK_GAP)),
    ], ids=["eq-infinite", "eq-finite", "infty-infinite", "infty-finite"])
    def test_table(self, theorem, count, expected):
        report = verdict(_result(count), theorem)
        assert (report.N, report.deformable, report.rationale) == expected
        assert report.R == _result(count)

    def test_verdict_is_the_only_report_builder(self):
        sources = (Path(nilco.__file__).parent).glob("*.py")
        builders = [path.name for path in sources for _ in range(
            path.read_text(encoding="utf-8").count("CoincidenceReport("))]
        assert builders == ["reidemeister.py"]
        assert "CoincidenceReport(" in inspect.getsource(verdict)


def class3_matrices(source, rows):
    """Level matrices from row lists; [] is the 0-row matrix of its level."""
    return tuple(IntMatrix(M) if M else zero_matrix(0, source.rank_at(i))
                 for i, M in enumerate(rows))


class TestClassThree:
    # no group law past class 2: a map into a class-3 target, or from a
    # class-3 source into a class-2 one, cannot be checked, so it is refused
    @pytest.mark.parametrize("source_ranks, target, rows", [
        ((3, 1, 1), NilpotentLattice(ranks=(2, 1, 1)), ([[1, 0, 0], [0, 1, 0]], [[2]], [[3]])),
        ((2, 1, 1), NilpotentLattice(ranks=(2, 1, 1)), ([[2, 0], [0, 2]], [[4]], [[8]])),
        # the filiform pair's F, which is no homomorphism
        ((2, 1, 1), NilpotentLattice(ranks=(2, 1, 1)), ([[1, 0], [0, 1]], [[5]], [[7]])),
        ((2, 1, 1), heisenberg(), ([[2, 0], [0, 2]], [[5]], [])),
        ((2,), NilpotentLattice(ranks=(1, 1, 1)), ([[1, 0]], [], [])),
    ], ids=["kernel", "square", "filiform", "into-heisenberg", "torus-into-class3"])
    def test_maps_that_cannot_be_checked_are_refused(self, source_ranks, target, rows):
        source = NilpotentLattice(ranks=source_ranks)
        with pytest.raises(UnsupportedClassError, match="no group law past class 2"):
            LatticeHomomorphism(source, target, class3_matrices(source, rows))

    def test_class3_source_into_a_torus_is_counted(self):
        # every F1 is a homomorphism into an abelian group
        source = NilpotentLattice(ranks=(2, 1, 1))
        phi, psi = (
            LatticeHomomorphism(source, torus(2), class3_matrices(source, (M1, [], [])))
            for M1 in ([[2, 1], [0, 3]], [[0, 0], [0, 0]])
        )
        report = coincidence_invariants(phi, psi)
        assert (report.R.count, report.N, report.deformable) == (6, 6, NO)
        assert report.R.level_counts == (6, 1, 1)
        action = TwistedAction.from_homs(phi, psi)
        assert oracle_orbit_count(action, TwistedOrbitEngine(action).oracle_modulus()) == 6
        report = coincidence_invariants(phi, phi)
        assert report.R.level_counts == (None, 1, 1) and report.deformable == YES
