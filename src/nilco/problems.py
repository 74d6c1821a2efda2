"""Problem files: parsing, validation, canonical serialization, dispatch.

Problem files are UTF-8 JSON with a fixed schema (see README).  Integers
may be written as arbitrary-precision decimal strings.  INFINITE is always
serialized as the string "infinite", never a sentinel number, and an
inexact count as a null R next to its `count_bounds`.  `report_dict` is the
one encoding of a report: `check_expected` compares an expected block with
it, and the CLI prints from it.

The parser checks only what JSON needs: types, required keys and the column
count of a matrix without rows.  Every other check belongs to the type
being built (NilpotentLattice, LatticeHomomorphism, InfraStructure and
`element()`), which raises; the parser puts the location in front of the
message and keeps the error's type.  So a parsed problem is valid, and
`validate_problem` has only the ties between its parts left to check.
"""

import json
import sys
from collections import namedtuple
from contextlib import contextmanager

from .errors import NilcoError, ParseError
from .infra import CosetAction, InfraStructure, decide_infra, infra_action
from .intmat import IntMatrix
from .lattice import LatticeHomomorphism, NilpotentLattice
from .oracle import twisted_orbits_finite
from .reidemeister import (
    INFINITE,
    TwistedAction,
    coincidence_invariants,
    coincidence_invariants_from_pairs,
)

KINDS = ("TORUS", "NILMANIFOLD", "PAIRS", "INFRA")


@contextmanager
def unlimited_int_digits():
    """Integers of any length in and out while the block runs: Python >=
    3.10.7 converts at most 4,300 digits per integer by default."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class SchemaError(NilcoError):
    """JSON readable but structurally invalid (exit code 3)."""


def _as_int(value, where):
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise SchemaError(f"{where}: {value!r} is not a decimal integer") from None
    raise SchemaError(f"{where}: expected integer or decimal string, got {value!r}")


def _int_vector(value, where):
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list of integers")
    return tuple(_as_int(x, where) for x in value)


@contextmanager
def _located(where):
    """Prefix `{where}: ` to the message of an error a constructor raises;
    its type, and so the exit code, stays."""
    try:
        yield
    except NilcoError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _list_field(obj, key, where):
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{key}: expected a list")
    return value


def _int_matrix(value, where, cols=0):
    """A list of integer rows; `[]` is the 0 x cols matrix, since JSON cannot
    give the column count of a matrix without rows."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(f"{where}: expected a list of integer rows")
    rows = [[_as_int(x, where) for x in row] for row in value]
    with _located(where):
        return IntMatrix._trusted(rows, shape=None if rows else (0, cols))


def parse_lattice(obj, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a lattice object")
    if "ranks" not in obj:
        raise SchemaError(f"{where}: missing 'ranks'")
    ranks = _int_vector(obj["ranks"], f"{where}.ranks")
    cls = _as_int(obj.get("class", len(ranks)), f"{where}.class")
    if cls != len(ranks):
        raise SchemaError(f"{where}: class {cls} does not match {len(ranks)} ranks")
    raw = [] if obj.get("brackets") is None else obj["brackets"]  # null: no brackets
    if not isinstance(raw, list):
        raise SchemaError(f"{where}.brackets: expected a list")
    brackets = tuple(_int_matrix(B, f"{where}.brackets[{i}]") for i, B in enumerate(raw))
    with _located(where):
        return NilpotentLattice(ranks=ranks, brackets=brackets)


def parse_element(lattice, obj, where):
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected per-level coordinate vectors")
    coords = obj
    # a bare vector is accepted for single-level lattices
    if lattice.class_c == 1 and coords and not isinstance(coords[0], list):
        coords = [coords]
    levels = [_int_vector(level, where) for level in coords]
    with _located(where):
        return lattice.element(levels)


def parse_hom(source, target, obj, where):
    raw = obj
    if not isinstance(raw, list) or (raw and not isinstance(raw[0], list)):
        raise SchemaError(f"{where}: expected per-level matrices")
    if raw and raw[0] and not isinstance(raw[0][0], list):
        raw = [raw]  # single matrix for single-level towers
    mats = tuple(
        _int_matrix(M, f"{where}[{i}]", cols=source.rank_at(i)) for i, M in enumerate(raw)
    )
    with _located(where):
        return LatticeHomomorphism(source=source, target=target, matrices=mats)


def _parse_expected(obj, where):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if unknown := sorted(set(obj) - {"R", "N", "deformable"}):  # a typo checks nothing
        raise SchemaError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    out = {}
    # null is the R and N of an inexact count, as the report encodes them
    if "R" in obj:
        out["R"] = obj["R"] if obj["R"] in (None, INFINITE) else _as_int(obj["R"], f"{where}.R")
    if "N" in obj:
        out["N"] = None if obj["N"] is None else _as_int(obj["N"], f"{where}.N")
    if "deformable" in obj:
        v = obj["deformable"]
        if v not in ("yes", "no", "unknown"):
            raise SchemaError(f"{where}.deformable: expected yes/no/unknown")
        out["deformable"] = v
    return out


# `action` is the TwistedAction of a PAIRS file's generator pairs
ProblemFile = namedtuple("ProblemFile", "kind name target phi psi action infra expected",
                         defaults=(None,) * 5)


def _element_pairs(lattice, raw, where, what):
    """The [x, y] entries of the list `raw` as element pairs; `what` names
    the two in the message of an entry that is not a pair."""
    pairs = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}[{i}]: expected [{what}] coordinates")
        pairs.append(tuple(parse_element(lattice, x, f"{where}[{i}][{j}]")
                           for j, x in enumerate(pair)))
    return pairs


def _parse_infra(raw, target, where):
    """The holonomy block `raw` of an INFRA file, over the cover it names."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: missing 'infra' object")
    where = f"{where}.infra"
    if "cover" not in raw:
        raise SchemaError(f"{where}: missing 'cover'")
    cover = parse_lattice(raw["cover"], f"{where}.cover")
    holonomy = _as_int(raw.get("holonomy_order", 1), f"{where}.holonomy_order")
    actions = []
    for i, act in enumerate(_list_field(raw, "coset_actions", where)):
        at = f"{where}.coset_actions[{i}]"
        if not isinstance(act, dict):
            raise SchemaError(f"{at}: expected an object")
        mats = tuple(
            _int_matrix(M, f"{at}.matrices[{lvl}]")
            for lvl, M in enumerate(_list_field(act, "matrices", at))
        )
        # no translation: zero, of the matrices' shapes (checked against the cover)
        translation = parse_element(
            cover, act.get("translation", [[0] * M.cols for M in mats]), f"{at}.translation"
        )
        actions.append(CosetAction(matrices=mats, translation=translation))
    images = _element_pairs(
        target, _list_field(raw, "map_images", where), f"{where}.map_images", "f, g"
    )
    with _located(where):
        return InfraStructure(
            cover=cover, holonomy_order=holonomy, coset_actions=actions, map_images=images
        )


def parse_problem_dict(doc, where="problem"):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: top level must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"{where}.kind: expected one of {', '.join(KINDS)}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"{where}.name: expected a string")
    if "target" not in doc:
        raise SchemaError(f"{where}: missing 'target'")
    target = parse_lattice(doc["target"], f"{where}.target")
    head = dict(kind=kind, name=name, target=target,
                expected=_parse_expected(doc.get("expected"), f"{where}.expected"))

    if kind == "PAIRS":
        raw = doc.get("pairs")
        if not isinstance(raw, list):
            raise SchemaError(f"{where}: missing 'pairs' list")
        pairs = _element_pairs(target, raw, f"{where}.pairs", "phi, psi")
        return ProblemFile(**head, action=TwistedAction(target=target, movers=tuple(pairs)))

    # a map pair, on the cover for INFRA
    if kind == "TORUS" and target.class_c != 1:
        raise SchemaError(f"{where}: TORUS problems need a class-1 target")
    if kind == "INFRA":
        infra = _parse_infra(doc.get("infra"), target, where)
        source, cover_pair = infra.cover, " (cover pair)"
    else:
        infra, cover_pair = None, ""
        source = parse_lattice(doc["source"], f"{where}.source") if "source" in doc else target
    maps = []
    for key in ("F", "G"):
        if key not in doc:
            raise SchemaError(f"{where}: missing '{key}'{cover_pair}")
        maps.append(parse_hom(source, target, doc[key], f"{where}.{key}"))
    return ProblemFile(**head, phi=maps[0], psi=maps[1], infra=infra)


def parse_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    with unlimited_int_digits():
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        return parse_problem_dict(doc, where=str(path))


def validate_problem(problem):
    """The twisted action the problem counts: the parsed PAIRS action, the
    map pair's `from_homs`, or for INFRA `infra_action` (the cover movers
    plus the holonomy pairs).

    Maps, lattices and holonomy data checked themselves when the parser
    built them; what is left to check here is what ties them together: two
    maps with one source and one target, on the cover for INFRA, and
    holonomy images in the target.
    """
    if problem.kind == "PAIRS":
        return problem.action
    if problem.kind == "INFRA":
        return infra_action(problem.infra, problem.phi, problem.psi)
    return TwistedAction.from_homs(problem.phi, problem.psi)


# -- canonical serialization ------------------------------------------


def canonical_json(doc):
    with unlimited_int_digits():
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- dispatch ----------------------------------------------------------


def compute_report(problem):
    """Run the computation a problem file asks for.

    Returns (report, cover_report); cover_report is None outside INFRA.
    """
    if problem.kind in ("TORUS", "NILMANIFOLD"):
        return coincidence_invariants(problem.phi, problem.psi), None
    if problem.kind == "PAIRS":
        return coincidence_invariants_from_pairs(problem.action), None
    cover_report, report = decide_infra(problem.infra, problem.phi, problem.psi)
    return report, cover_report


def _count_or_infinite(value):
    return INFINITE if value is None else value


def _counts(report):
    """R, level_counts and infinite_level of a report, in the report encoding."""
    return {
        "R": _count_or_infinite(report.R.count) if report.exact else None,
        "level_counts": [_count_or_infinite(c) for c in report.R.level_counts],
        "infinite_level": report.R.infinite_level,
    }


def report_dict(problem, report, cover_report=None):
    """Machine-readable report; deterministic for identical inputs."""
    R = report.R
    out = {
        "kind": problem.kind,
        **_counts(report),
        "N": report.N,
        "deformable": report.deformable,
        "rationale": report.rationale,
        "exact": report.exact,
    }
    if problem.name is not None:
        out["name"] = problem.name
    if report.count_bounds is not None:
        out["count_bounds"] = [_count_or_infinite(b) for b in report.count_bounds]
    if R.reps is not None:
        out["reps"] = [e.coordinates for e in R.reps]
    if R.fiber_counts is not None:
        # [order, classes] pairs: an object would key by strings, "16" < "4"
        out["fiber_counts"] = R.fiber_counts
    if cover_report is not None:
        out["cover"] = _counts(cover_report)
    return out


def _shown(value):
    """A report value as human output prints it: `unknown` for a JSON null."""
    return "unknown" if value is None else value


def check_expected(problem, doc):
    """Mismatches of the report document `doc` (from `report_dict`, whose
    encoding the expected block shares) against the expected block."""
    return [
        f"{key}: expected {_shown(value)}, got {_shown(doc[key])}"
        for key, value in (problem.expected or {}).items()
        if doc[key] != value
    ]


# -- finite-quotient oracle dispatch ----------------------------------


def oracle_orbit_count(action, modulus):
    """Twisted orbit count of a TwistedAction (`validate_problem`'s) on the
    target quotient mod `modulus`, under the enumeration cap of
    `twisted_orbits_finite`."""
    table = action.target.reduce_mod(modulus)
    movers = [(table.project(p), table.project(q)) for p, q in action.movers]
    return twisted_orbits_finite(table, movers)
