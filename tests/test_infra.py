"""Infra-nilmanifold pairs: holonomy validation, cover lifting, and the count
of the infra group as a generator-pair system."""

import io
import json
import random
from math import ceil

import pytest

from conftest import heisenberg_scalar_infra, torus
from nilco.cli import main
from nilco.errors import ShapeError
from nilco.infra import CosetAction, InfraStructure, decide_infra, infra_action
from nilco.intmat import IntMatrix
from nilco.lattice import LatticeHomomorphism, NilpotentLattice
from nilco.oracle import translation_group, twisted_orbits_finite
from nilco.problems import oracle_orbit_count, parse_problem_dict
from nilco.reidemeister import EQ_THM, INFTY_THM, NO, YES, TwistedOrbitEngine


def klein_bottle_setup(f_deg=2, g_deg=6):
    """Klein-bottle domain over a circle target: the orientation cover is
    Z^2, holonomy Z/2 acting by (x, y) -> (-x, y) with translation (0, 1)."""
    cover = torus(2)
    circle = torus(1)
    F = IntMatrix([[0, f_deg]])
    G = IntMatrix([[0, g_deg]])
    phi = LatticeHomomorphism(cover, circle, (F,))
    psi = LatticeHomomorphism(cover, circle, (G,))
    infra = InfraStructure(
        cover=cover,
        holonomy_order=2,
        coset_actions=(
            CosetAction(
                matrices=(IntMatrix([[-1, 0], [0, 1]]),),
                translation=cover.element(((0, 1),)),
            ),
        ),
        map_images=(
            (circle.element(((f_deg // 2,),)), circle.element(((g_deg // 2,),))),
        ),
    )
    return infra, phi, psi


def brute_force_klein_count(f_deg, g_deg):
    """Exhaustive twisted-orbit count for the full two-generator relation on
    a finite circle quotient, lattice and holonomy moves together."""
    diff = abs(g_deg - f_deg)
    coset_diff = abs(g_deg - f_deg) // 2
    modulus = max(2 * diff, 2)
    G = translation_group(modulus, 1)
    movers = [
        (G.identity, G.project(((diff,),))),  # lattice generator move
        (G.identity, G.project(((coset_diff,),))),  # holonomy coset move
    ]
    count = twisted_orbits_finite(G, movers)
    return count


class TestValidation:
    def test_valid_fixture_has_no_violations(self):
        infra, phi, psi = klein_bottle_setup()
        assert len(infra_action(infra, phi, psi).movers) == 3

    def test_non_unimodular_action_flagged(self):
        cover = torus(1)
        with pytest.raises(ShapeError, match="level 1 determinant 2 is not"):
            InfraStructure(
                cover=cover,
                holonomy_order=2,
                coset_actions=(
                    CosetAction(matrices=(IntMatrix([[2]]),), translation=cover.identity()),
                ),
                map_images=((cover.identity(), cover.identity()),),
            )

    def test_wrong_coset_count_flagged(self):
        cover = torus(1)
        with pytest.raises(ShapeError, match="expected 2 coset actions, got 0"):
            InfraStructure(cover=cover, holonomy_order=3, coset_actions=(), map_images=())

    def test_wrong_level_count_flagged(self):
        cover = torus(1)
        with pytest.raises(ShapeError, match="coset action 0: expected 1 level matrices"):
            InfraStructure(
                cover=cover,
                holonomy_order=2,
                coset_actions=(CosetAction(matrices=(), translation=cover.identity()),),
                map_images=((cover.identity(), cover.identity()),),
            )

    def test_every_violation_is_itemised(self):
        cover = torus(2)
        with pytest.raises(ShapeError) as info:
            InfraStructure(
                cover=cover,
                holonomy_order=0,
                coset_actions=(
                    CosetAction(matrices=(IntMatrix([[1]]),), translation=torus(1).identity()),
                ),
                map_images=(),
            )
        assert str(info.value) == (
            "invalid infra data: holonomy_order must be >= 1; "
            "expected 0 coset actions, got 1; "
            "coset action 0: level 1 matrix must be 2x2; "
            "coset action 0: bad translation part: level vector (0,) does not match rank 2"
        )

    def test_holonomy_images_must_lie_in_the_target(self):
        infra, phi, psi = klein_bottle_setup()
        cover = infra.cover
        foreign = InfraStructure(
            cover=cover, holonomy_order=2, coset_actions=infra.coset_actions,
            map_images=((cover.identity(), cover.identity()),),
        )
        with pytest.raises(ShapeError, match="does not match rank 1"):
            decide_infra(foreign, phi, psi)


class TestDecision:
    def test_klein_bottle_merges_four_to_two(self):
        infra, phi, psi = klein_bottle_setup(f_deg=2, g_deg=6)
        cover_report, report = decide_infra(infra, phi, psi)
        assert cover_report.R.count == 4
        assert report.R.infinite_level is None and report.R.count == 2
        assert report.N == 2 and report.deformable == NO
        assert report.rationale == EQ_THM and report.exact
        assert {e.coordinates for e in report.R.reps} == {((0,),), ((1,),)}
        assert brute_force_klein_count(2, 6) == 2

    def test_merge_count_varies_with_degrees(self):
        for f_deg, g_deg in ((0, 8), (2, 10), (0, 4), (2, 14)):
            infra, phi, psi = klein_bottle_setup(f_deg, g_deg)
            cover_report, report = decide_infra(infra, phi, psi)
            assert report.R.count == brute_force_klein_count(f_deg, g_deg)
            h = infra.holonomy_order
            assert ceil(cover_report.R.count / h) <= report.R.count <= cover_report.R.count

    def test_infinite_cover_settles_the_question(self):
        infra, phi, _ = klein_bottle_setup(f_deg=2, g_deg=2)
        cover_report, report = decide_infra(infra, phi, phi)
        assert cover_report.R.infinite_level is not None
        assert report.R.infinite_level is not None
        assert report.N == 0 and report.deformable == YES
        assert report.rationale == INFTY_THM

    def test_lift_requires_cover_source(self):
        infra, phi, psi = klein_bottle_setup()
        circle = torus(1)
        wrong = LatticeHomomorphism(circle, circle, (IntMatrix([[2]]),))
        with pytest.raises(ShapeError):
            decide_infra(infra, wrong, wrong)

    def test_class3_cover_yields_bounds_only(self):
        cover = NilpotentLattice(ranks=(1, 1, 1))
        phi = LatticeHomomorphism(
            cover, cover,
            (IntMatrix([[3]]), IntMatrix([[3]]), IntMatrix([[3]])),
        )
        psi = LatticeHomomorphism(
            cover, cover,
            (IntMatrix([[0]]), IntMatrix([[0]]), IntMatrix([[0]])),
        )
        infra = InfraStructure(
            cover=cover,
            holonomy_order=2,
            coset_actions=(
                CosetAction(
                    matrices=(IntMatrix([[-1]]),) * 3,
                    translation=cover.identity(),
                ),
            ),
            map_images=((cover.identity(), cover.identity()),),
        )
        cover_report, report = decide_infra(infra, phi, psi)
        assert cover_report.R.count == 27
        assert not report.exact
        assert report.count_bounds == (14, 27)

    def test_class3_bounds_start_from_inexact_cover_bounds(self, tmp_path):
        # the cover's Delta_1 has a kernel, so the cover count is only known
        # to lie in [4, 24]; the infra count then lies in [ceil(4 / 2), 24]
        doc = {
            "kind": "INFRA",
            "target": {"ranks": [2, 1, 1]},
            "F": [[[2, 0, 0], [0, 2, 0]], [[2]], [[3]]],
            "G": [[[0, 0, 0], [0, 0, 0]], [[0]], [[0]]],
            "infra": {
                "cover": {"ranks": [3, 1, 1]},
                "holonomy_order": 2,
                "coset_actions": [
                    {"matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, -1]], [[1]], [[1]]]}
                ],
                "map_images": [[[[0, 0], [0], [0]], [[0, 0], [0], [0]]]],
            },
        }
        problem = parse_problem_dict(doc)
        cover_report, report = decide_infra(problem.infra, problem.phi, problem.psi)
        assert cover_report.count_bounds == (4, 24)
        assert report.count_bounds == (2, 24) and (report.N, report.deformable) == (None, NO)
        path = tmp_path / "class3.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        assert main(["--output", "json", "compute", str(path)], out=out) == 0
        got = json.loads(out.getvalue())
        assert (got["R"], got["count_bounds"], got["cover"]["R"]) == (None, [2, 24], None)

    @pytest.mark.parametrize("r_cover", [2**60 + 1, 10**400])
    def test_class3_bounds_are_exact_integers(self, tmp_path, r_cover):
        # ceil(R_cover / h) in integers: a float quotient rounds 2^60 + 1 to
        # 2^60 and cannot hold 10^400 at all
        doc = {
            "kind": "INFRA",
            "target": {"ranks": [1, 1, 1]},
            "F": [[[str(r_cover)]], [[1]], [[1]]],
            "G": [[[0]], [[0]], [[0]]],
            "infra": {
                "cover": {"ranks": [1, 1, 1]},
                "holonomy_order": 2,
                "coset_actions": [{"matrices": [[[-1]], [[-1]], [[-1]]]}],
                "map_images": [[[[0], [0], [0]], [[0], [0], [0]]]],
            },
        }
        cover_report, report = decide_infra(
            *(getattr(parse_problem_dict(doc), key) for key in ("infra", "phi", "psi"))
        )
        assert cover_report.R.count == r_cover
        assert report.count_bounds == ((r_cover + 1) // 2, r_cover)
        path = tmp_path / "class3.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        assert main(["--output", "json", "compute", str(path)], out=out) == 0
        assert json.loads(out.getvalue())["count_bounds"] == [(r_cover + 1) // 2, r_cover]


class TestClassTwoInfra:
    @pytest.mark.parametrize("k", [2, 3])
    def test_count_equals_the_exact_oracle(self, k):
        rng = random.Random(f"class2-infra:{k}")
        for _ in range(12):
            infra, phi, psi = heisenberg_scalar_infra(rng, k, rng.choice((2, 3)))
            cover_report, report = decide_infra(infra, phi, psi)
            assert cover_report.R.count == k**4
            action = infra_action(infra, phi, psi)
            assert report.R.infinite_level is None and report.exact
            assert report.R.count == report.N == oracle_orbit_count(action, k * k)
            # the default modulus the `oracle` command reads separates every class too
            modulus = TwistedOrbitEngine(action).oracle_modulus()
            assert oracle_orbit_count(action, modulus) == report.R.count
            assert report.deformable == NO and report.rationale == EQ_THM

    def test_cover_of_six_hundred_thousand_classes(self):
        infra, phi, psi = klein_bottle_setup(f_deg=0, g_deg=600_000)
        cover_report, report = decide_infra(infra, phi, psi)
        assert cover_report.R.count == 600_000
        assert report.R.count == report.N == 300_000
        assert report.R.reps is None
