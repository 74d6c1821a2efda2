"""The package's records are named tuples: immutable, compared and hashed by
value, built by keyword or by position, and the ones that check their data
check it however they are built, `_replace` included."""

import copy
import pickle

import pytest

from conftest import heisenberg, torus
from nilco.cli import bundled_fixture_dir
from nilco.errors import HomomorphismError, ShapeError
from nilco.infra import CosetAction, InfraStructure
from nilco.intmat import CokernelStructure, IntMatrix, SmithDecomposition, smith_normal_form
from nilco.lattice import LatticeElement, LatticeHomomorphism, NilpotentLattice
from nilco.problems import ProblemFile, parse_problem
from nilco.reidemeister import (
    EQ_THM,
    NO,
    CoincidenceReport,
    ReidemeisterResult,
    TwistedAction,
)


def klein_bottle_fields(**changes):
    """Keyword fields of the Klein bottle's holonomy data over Z^2."""
    cover = torus(2)
    point = torus(1).element(((0,),))
    fields = dict(
        cover=cover,
        holonomy_order=2,
        coset_actions=(CosetAction(
            matrices=(IntMatrix([[-1, 0], [0, 1]]),),
            translation=cover.element(((0, 1),)),
        ),),
        map_images=((point, point),),
    )
    fields.update(changes)
    return fields


def heisenberg_map_fields(central):
    """Keyword fields of the Heisenberg self-map 2I with central matrix
    [[central]]: a homomorphism exactly when central == 4."""
    H = heisenberg()
    return dict(source=H, target=H, matrices=(IntMatrix([[2, 0], [0, 2]]), IntMatrix([[central]])))


def record_fields():
    """(record type, keyword fields in field order), one per record type."""
    H = heisenberg()
    snf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    u = H.element(((1, 2), (3,)))
    result = ReidemeisterResult(count=6, level_counts=(6,))
    return [
        (LatticeElement, dict(coordinates=((1, 2), (3,)))),
        (NilpotentLattice, dict(ranks=(2, 1), brackets=(IntMatrix([[0, 1], [0, 0]]),))),
        (LatticeHomomorphism, heisenberg_map_fields(4)),
        (ReidemeisterResult, dict(count=6, level_counts=(6,), infinite_level=None, reps=None,
                                  fiber_counts=None)),
        (CoincidenceReport, dict(R=result, N=6, deformable=NO, rationale=EQ_THM)),
        (TwistedAction, dict(target=H, pairs=((u, H.identity()),), maps=None)),
        (CosetAction, klein_bottle_fields()["coset_actions"][0]._asdict()),
        (InfraStructure, klein_bottle_fields()),
        (SmithDecomposition, snf._asdict()),
        (CokernelStructure, dict(free_rank=0, torsion=(6,), order=6)),
        (ProblemFile, dict(kind="PAIRS", name="t", action=TwistedAction(torus(1)), infra=None,
                           expected=None)),
    ]


RECORDS = record_fields()


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
class TestRecordSemantics:
    def test_keyword_and_positional_construction_agree(self, cls, fields):
        assert cls._fields == tuple(fields)
        assert cls(**fields) == cls(*fields.values())

    def test_equal_values_compare_and_hash_equal(self, cls, fields):
        a, b = cls(**fields), cls(**dict(fields))
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_immutable(self, cls, fields):
        record = cls(**fields)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def build_both_ways(cls, fields):
    """Build by keyword, then by position; each must raise."""
    yield lambda: cls(**fields)
    yield lambda: cls(*fields.values())


class TestChecksRunAtConstruction:
    @pytest.mark.parametrize("ranks", [(), (0,), (2, -1)])
    def test_invalid_ranks(self, ranks):
        for build in build_both_ways(NilpotentLattice, dict(ranks=ranks, brackets=())):
            with pytest.raises(ShapeError):
                build()

    def test_non_homomorphism(self):
        for build in build_both_ways(LatticeHomomorphism, heisenberg_map_fields(1)):
            with pytest.raises(HomomorphismError):
                build()

    @pytest.mark.parametrize("changes", [
        dict(holonomy_order=0),
        dict(map_images=()),
        dict(coset_actions=(CosetAction((IntMatrix([[2, 0], [0, 1]]),),
                                        torus(2).element(((0, 1),))),)),
    ])
    def test_bad_holonomy_data(self, changes):
        for build in build_both_ways(InfraStructure, klein_bottle_fields(**changes)):
            with pytest.raises(ShapeError, match="invalid infra data"):
                build()

    def test_replace_checks_the_copy(self):
        lattice = NilpotentLattice(**record_fields()[1][1])
        with pytest.raises(ShapeError):
            lattice._replace(ranks=(2, 2))
        hom = LatticeHomomorphism(**heisenberg_map_fields(4))
        with pytest.raises(HomomorphismError):
            hom._replace(matrices=heisenberg_map_fields(1)["matrices"])
        infra = InfraStructure(**klein_bottle_fields())
        with pytest.raises(ShapeError):
            infra._replace(holonomy_order=3)
        assert infra._replace(holonomy_order=2) == infra


class TestCopies:
    @pytest.mark.parametrize("make", [
        lambda: IntMatrix([[1, -2], [3, 4]]),
        lambda: LatticeHomomorphism(**heisenberg_map_fields(4)),
        lambda: parse_problem(bundled_fixture_dir() / "klein_bottle_to_circle.json"),
    ], ids=["IntMatrix", "LatticeHomomorphism", "klein_bottle_problem"])
    def test_pickle_and_copy_round_trip(self, make):
        value = make()
        for duplicate in (
            pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value),
        ):
            assert duplicate == value
            field = getattr(value, "_fields", ("rows",))[0]
            with pytest.raises(AttributeError):
                setattr(duplicate, field, None)
