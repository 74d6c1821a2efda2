"""Acceptance gate: seven pass/fail criteria with hard runtime budgets.

Each criterion prints exactly one line of the form

    ACCEPTANCE <n> <slug>: PASS (<elapsed>s of <budget>s)

on success, at the start of a line; any assertion failure fails the whole
gate.  Run with `pytest -s tests/test_acceptance.py | grep '^ACCEPTANCE'` to
see how close each criterion is to its budget.
"""

import io
import random
import time
from math import ceil, prod

from conftest import (
    heisenberg,
    heisenberg_self_map,
    random_element,
    random_klein_like_infra,
    random_matrix,
    torus,
    torus_hom,
)
from nilco.cli import EXIT_OK, main
from nilco.infra import CosetAction, InfraStructure, decide_infra, infra_action
from nilco.intmat import IntMatrix, cokernel, determinant
from nilco.lattice import LatticeHomomorphism
from nilco.oracle import cokernel_oracle, twisted_orbits_finite
from nilco.reidemeister import (
    NO,
    UNKNOWN,
    TwistedAction,
    TwistedOrbitEngine,
    coincidence_invariants,
    coincidence_invariants_from_pairs,
)


def report_line(index, slug, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {index} exceeded {budget}s ({elapsed:.1f}s)"
    # a line of its own: pytest -s writes each test's progress dot after it
    print(f"\nACCEPTANCE {index} {slug}: PASS ({elapsed:.2f}s of {budget:g}s)")


def test_criterion_1_surjective_pairs_give_one_class():
    """Surjective generator pairs onto Z^4 against the trivial map yield a
    single twisted class and an undecided deformability verdict."""
    started = time.time()
    t4 = torus(4)
    zero = t4.identity()
    pairs = tuple(
        (t4.element((tuple(1 if j == i else 0 for j in range(4)),)), zero)
        for i in range(4)
    )
    report = coincidence_invariants_from_pairs(TwistedAction(t4, pairs))
    assert report.R.infinite_level is None and report.R.count == 1
    assert report.deformable == UNKNOWN
    report_line(1, "surjective-pairs-single-class", started, 1.0)


def test_criterion_2_vanishing_equivalence_suite():
    """N = 0 <=> R = infinite, N = R when finite, and the finite count equals
    the product of the level determinant magnitudes, across 500 random
    torus and class-2 problems."""
    started = time.time()
    rng = random.Random(20260823)
    h = heisenberg()
    for trial in range(500):
        if trial % 2 == 0:
            n = rng.randint(1, 4)
            lat = torus(n)
            phi = torus_hom(lat, random_matrix(rng, n, n))
            psi = torus_hom(lat, random_matrix(rng, n, n))
        else:
            phi = heisenberg_self_map(h, random_matrix(rng, 2, 2))
            psi = heisenberg_self_map(h, random_matrix(rng, 2, 2))
        report = coincidence_invariants(phi, psi)
        infinite = report.R.infinite_level is not None
        assert (report.N == 0) == infinite
        assert infinite == (report.R.count is None)
        if not infinite:
            assert report.N == report.R.count > 0
        dets = [
            determinant(psi.matrices[i] - phi.matrices[i]) for i in range(phi.depth)
        ]
        if all(d != 0 for d in dets):
            assert not infinite
            assert report.R.count == prod(abs(d) for d in dets)
        if any(d == 0 for d in dets) and phi.target.class_c == 1:
            assert infinite
    report_line(2, "vanishing-equivalence-500", started, 60.0)


def test_criterion_3_torus_oracle_equivalence():
    """SNF cokernel order equals the brute-force twisted orbit count mod
    |det| for 200 random square difference matrices."""
    started = time.time()
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        A = random_matrix(rng, n, n, lo=-21, hi=21)
        d = determinant(A)
        if d == 0 or abs(d) > 10**4 or abs(d) ** n > 10**6:
            continue
        assert cokernel(A).order == abs(d) == cokernel_oracle(A)
        checked += 1
    report_line(3, "torus-oracle-200", started, 120.0)


def test_criterion_4_heisenberg_labels_and_oracle():
    """Doubling map versus the constant map on the Heisenberg lattice:
    sixteen classes with sound, complete, replayable labels, confirmed by
    exhaustive enumeration on the mod-4 quotient."""
    started = time.time()
    rng = random.Random(4242)
    h = heisenberg()
    phi = heisenberg_self_map(h, IntMatrix([[2, 0], [0, 2]]))
    psi = heisenberg_self_map(h, IntMatrix([[0, 0], [0, 0]]))
    report = coincidence_invariants(phi, psi)
    assert report.R.count == 16 and report.N == 16 and report.deformable == NO

    engine = TwistedOrbitEngine(TwistedAction.from_homs(phi, psi))
    # soundness: labels are invariant under every single-generator move
    for _ in range(200):
        u = random_element(rng, h, lo=-10, hi=10)
        lab, witness = engine.label(u)
        assert engine.move(u, witness) == lab  # witness replay is exact
        for j in range(engine.k):
            for e in (1, -1):
                moved_lab, _ = engine.label(engine.move(u, ((j, e),)))
                assert moved_lab == lab
    # completeness: an exhaustive fundamental box hits exactly 16 labels
    labels = {
        engine.label(h.element(((a1, a2), (c,))))[0].coordinates
        for a1 in range(4)
        for a2 in range(4)
        for c in range(4)
    }
    assert len(labels) == 16
    # independent finite-quotient confirmation mod 4
    count = twisted_orbits_finite(h.reduce_mod(4), engine.movers)
    assert count == 16
    report_line(4, "heisenberg-sixteen-labels", started, 30.0)


def test_criterion_5_infra_merge_and_infinity_equivalence():
    """Klein-bottle fixture merges four cover classes to two, and across 100
    random holonomy problems the merged result is infinite exactly when the
    cover count is, with the merge bounds holding in every finite case."""
    started = time.time()
    cover = torus(2)
    circle = torus(1)
    phi = LatticeHomomorphism(cover, circle, (IntMatrix([[0, 2]]),))
    psi = LatticeHomomorphism(cover, circle, (IntMatrix([[0, 6]]),))
    infra = InfraStructure(
        cover=cover,
        holonomy_order=2,
        coset_actions=(
            CosetAction(
                matrices=(IntMatrix([[-1, 0], [0, 1]]),),
                translation=cover.element(((0, 1),)),
            ),
        ),
        map_images=((circle.element(((1,),)), circle.element(((3,),))),),
    )
    report, cover_report = decide_infra(infra_action(infra, phi, psi))
    assert cover_report.R.count == 4
    assert report.R.count == 2 and report.N == 2 and report.deformable == NO

    rng = random.Random(555)
    finite_cases = 0
    for _ in range(100):
        infra, phi, psi = random_klein_like_infra(rng)
        report, cover_report = decide_infra(infra_action(infra, phi, psi))
        assert (cover_report.R.infinite_level is None) == (report.R.infinite_level is None)
        if report.R.infinite_level is None:
            finite_cases += 1
            h = infra.holonomy_order
            assert (
                ceil(cover_report.R.count / h)
                <= report.R.count
                <= cover_report.R.count
            )
    assert finite_cases >= 50  # the suite genuinely exercises both branches
    report_line(5, "infra-merge-and-infinity", started, 30.0)


def test_criterion_6_generator_redundancy_invariance():
    """Appending the image pair of any word in the existing generators leaves
    R, N and the verdict unchanged, over 100 random generator-pair systems."""
    started = time.time()
    rng = random.Random(606)
    h = heisenberg()
    for trial in range(100):
        target = h if trial % 2 else torus(rng.randint(1, 3))
        k = rng.randint(1, 4)
        pairs = tuple(
            (random_element(rng, target, lo=-3, hi=3),
             random_element(rng, target, lo=-3, hi=3))
            for _ in range(k)
        )
        base = TwistedAction(target, pairs)
        before = coincidence_invariants_from_pairs(base)
        engine = TwistedOrbitEngine(base)
        word = tuple(
            (rng.randrange(k), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))
        )
        extended = TwistedAction(target, pairs + (engine.word_images(word),))
        after = coincidence_invariants_from_pairs(extended)
        assert (before.R.infinite_level is None) == (after.R.infinite_level is None)
        assert before.R.count == after.R.count
        assert before.N == after.N
        assert before.deformable == after.deformable
    report_line(6, "generator-redundancy-100", started, 30.0)


def test_criterion_7_bundled_fixture_regression():
    """Every bundled fixture carries an expected block and matches it; the
    remaining property suites of criterion 7 live in the per-module tests,
    which must all pass for the gate to hold."""
    started = time.time()
    out = io.StringIO()
    code = main(["fixtures", "--check"], out=out)
    lines = out.getvalue().strip().splitlines()
    assert code == EXIT_OK
    assert len(lines) == 9 and all(line.startswith("PASS") for line in lines)
    report_line(7, "fixture-regression", started, 30.0)
