"""Problem files: parsing, validation, canonical serialization, dispatch.

Problem files are UTF-8 JSON with a fixed schema (see README).  Integers
may be written as arbitrary-precision ASCII decimal strings.  INFINITE is always
serialized as the string "infinite", never a sentinel number, and every
count is exact.  `report_dict` is the one encoding of a report:
`check_expected` compares an expected block with it, and the CLI prints
from it.  Class >= 3 targets, and class >= 3 sources into a class-2
target, exit 4 until a presentation is given: the maps and actions into
them refuse to be built, so the parser rejects them.

The parser decodes the file once and checks each value once, where it
reads it: types and keys, a matrix's rows (ragged, or none: then the
column count comes from the caller) and an element's shape (`check_shape`).
Every other check belongs to the type being built (NilpotentLattice,
LatticeHomomorphism with `validate_hom`, InfraStructure), which raises; the
parser puts the location in front of the message and keeps the error's
type.  It builds one TwistedAction for every kind, from the checked pairs
(PAIRS) or holonomy images (INFRA) and the map pair (every kind but
PAIRS), and the action checks only the class and the maps.  A ProblemFile
is (kind, name, action, infra, expected): `validate_problem` returns the
action and `compute_report` counts it, checking nothing again.
"""

import json
import re
import sys
from collections import namedtuple
from itertools import product

from .errors import NilcoError, ParseError, SchemaError, ShapeError
from .infra import CosetAction, InfraStructure, decide_infra
from .intmat import IntMatrix
from .lattice import LatticeElement, LatticeHomomorphism, NilpotentLattice
from .oracle import twisted_orbits_finite
from .reidemeister import TwistedAction, coincidence_invariants, coincidence_invariants_from_pairs

INFINITE = "infinite"  # the report encoding of a count the engine gives as None
KINDS = ("TORUS", "NILMANIFOLD", "PAIRS", "INFRA")


class unlimited_int_digits:
    """Integers of any length in and out while the block runs: Python >=
    3.10.7 converts at most 4,300 digits per integer by default; an inner
    block finds none and leaves the outer one to restore it."""

    __slots__ = ("limit",)

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


def _as_int(value, where):
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if re.fullmatch("[+-]?[0-9]+", value):
            return int(value)
        raise SchemaError(f"{where}: {value!r} is not a decimal integer")
    raise SchemaError(f"{where}: expected integer or decimal string, got {value!r}")


def _int_row(row, where):
    """A list of JSON integers as a tuple; any other list entry by entry, so
    that a decimal string is converted where it occurs and a bad entry gets
    `_as_int`'s message."""
    return tuple(row) if set(map(type, row)) <= {int} else tuple([_as_int(x, where) for x in row])


def _int_vector(value, where):
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list of integers")
    return _int_row(value, where)


class _located:
    """Prefix `{where}: ` to the message of an error a constructor raises;
    its type, and so the exit code, stays."""

    __slots__ = ("where",)

    def __init__(self, where):
        self.where = where

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, NilcoError):
            exc.args = (f"{self.where}: {exc}",)


def _list_field(obj, key, where):
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{key}: expected a list")
    return value


def _int_matrix(value, where, cols=0):
    """A list of integer rows, each converted once; `[]` is the 0 x cols
    matrix, since JSON cannot give the column count of a matrix without rows."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(f"{where}: expected a list of integer rows")
    rows = tuple([_int_row(row, where) for row in value])
    cols = len(rows[0]) if rows else cols
    if any(len(row) != cols for row in rows):
        raise ShapeError(f"{where}: ragged rows in matrix input")
    return IntMatrix._of(rows, len(rows), cols)


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


def parse_element(lattice, coords, where):
    if not isinstance(coords, list):
        raise SchemaError(f"{where}: expected per-level coordinate vectors")
    # a bare vector is accepted for single-level lattices
    if lattice.class_c == 1 and coords and not isinstance(coords[0], list):
        coords = [coords]
    coords = tuple([_int_vector(level, where) for level in coords])
    with _located(where):  # the one shape check of a parsed element
        lattice.check_shape(coords)
    return LatticeElement(coords)


def parse_hom(source, target, raw, where):
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
    if "R" in obj:
        out["R"] = INFINITE if obj["R"] == INFINITE else _as_int(obj["R"], f"{where}.R")
    if "N" in obj:
        out["N"] = _as_int(obj["N"], f"{where}.N")
    if "deformable" in obj:
        v = obj["deformable"]
        if v not in ("yes", "no", "unknown"):
            raise SchemaError(f"{where}.deformable: expected yes/no/unknown")
        out["deformable"] = v
    return out


# `action` is the TwistedAction the file counts: its target, and the map pair
# (phi, psi) of a TORUS, NILMANIFOLD or INFRA (cover) file as `action.maps`
ProblemFile = namedtuple("ProblemFile", "kind name action infra expected", defaults=(None, None))


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
    expected = _parse_expected(doc.get("expected"), f"{where}.expected")
    infra, pairs, maps = None, (), None
    if kind == "PAIRS":
        raw = doc.get("pairs")
        if not isinstance(raw, list):
            raise SchemaError(f"{where}: missing 'pairs' list")
        pairs = _element_pairs(target, raw, f"{where}.pairs", "phi, psi")
    else:  # a map pair, on the cover for INFRA
        if kind == "TORUS" and target.class_c != 1:
            raise SchemaError(f"{where}: TORUS problems need a class-1 target")
        if kind == "INFRA":
            infra = _parse_infra(doc.get("infra"), target, where)
            source, cover_pair, pairs = infra.cover, " (cover pair)", infra.map_images
        else:
            cover_pair = ""
            source = parse_lattice(doc["source"], f"{where}.source") if "source" in doc else target
        maps = []
        for key in ("F", "G"):
            if key not in doc:
                raise SchemaError(f"{where}: missing '{key}'{cover_pair}")
            maps.append(parse_hom(source, target, doc[key], f"{where}.{key}"))
    with _located(where):  # pairs and images were checked when parsed
        action = TwistedAction._trusted(target, pairs, maps)
    return ProblemFile(kind, name, action, infra, expected)


def parse_problem(path):
    try:  # bytes, decoded once; newlines as text mode reads them
        with open(path, "rb") as fh:
            text = fh.read().decode().replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    with unlimited_int_digits():
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        return parse_problem_dict(doc, where=str(path))


def validate_problem(problem):
    """The twisted action the problem counts, which was checked when it was
    built: the parser's, or `TwistedAction.from_homs` or `infra_action`."""
    return problem.action


# -- canonical serialization ------------------------------------------


def render_reps(boxes, sep=","):
    """`json.dumps` (item separator `sep`) of the representatives that the
    boxes of ReidemeisterResult.reps stand for.  A box's items differ first
    in their last coordinate, so each run of it is one join of the digit
    texts, glued by the text between two items of the run: a torus
    diagonal (1, ..., 1, R) is one join of R texts."""
    runs = []
    for prefix, diagonal in boxes:
        head = "[" + "".join(f"[{sep.join(map(str, level))}]{sep}" for level in prefix) + "["
        outer = [[f"{x}{sep}" for x in range(d)] for d in diagonal[:-1]]
        last = list(map(str, range(diagonal[-1]))) if diagonal else [""]
        for lead in map("".join, product(*outer)):
            runs.append(head + lead + f"]]{sep}{head}{lead}".join(last) + "]]")
    return "[" + sep.join(runs) + "]"


def canonical_json(doc):
    """The document as JSON with sorted keys and no spaces.  A report's
    "reps" boxes are written by `render_reps` and appended last, which is
    where sort_keys puts "reps": it sorts after every other report key (N,
    R, cover, ..., rationale)."""
    rest = {key: value for key, value in doc.items() if key != "reps"}
    with unlimited_int_digits():
        # report_dict builds trees, so there is no cycle to look for
        text = json.dumps(rest, sort_keys=True, separators=(",", ":"), check_circular=False)
        reps = f',"reps":{render_reps(doc["reps"])}' if "reps" in doc else ""
        return f"{text[:-1]}{reps}}}\n"


# -- dispatch ----------------------------------------------------------


def compute_report(problem):
    """Run the computation a problem file asks for.

    Returns (report, cover_report); cover_report is None outside INFRA.
    """
    action = problem.action
    if problem.kind == "PAIRS":
        return coincidence_invariants_from_pairs(action), None
    if problem.kind == "INFRA":
        return decide_infra(action)
    return coincidence_invariants(*action.maps), None


def _count_or_infinite(value):
    return INFINITE if value is None else value


def _counts(report):
    """R, level_counts and infinite_level of a report, in the report encoding."""
    return {
        "R": _count_or_infinite(report.R.count),
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
        "exact": True,  # every count is exact; the key stays for readers of the format
    }
    if problem.name is not None:
        out["name"] = problem.name
    if R.reps is not None:
        out["reps"] = R.reps  # boxes, written by render_reps
    if R.fiber_counts is not None:
        # [order, classes] pairs: an object would key by strings, "16" < "4"
        out["fiber_counts"] = R.fiber_counts
    if cover_report is not None:
        out["cover"] = _counts(cover_report)
    return out


def check_expected(problem, doc):
    """Mismatches of the report document `doc` (from `report_dict`, whose
    encoding the expected block shares) against the expected block."""
    return [
        f"{key}: expected {value}, got {doc[key]}"
        for key, value in (problem.expected or {}).items()
        if doc[key] != value
    ]


# -- finite-quotient oracle dispatch ----------------------------------


def oracle_orbit_count(action, modulus):
    """Twisted orbit count of a TwistedAction (`validate_problem`'s), or of
    the TwistedOrbitEngine built on one (it holds the same target and
    movers), on the target quotient mod `modulus`, under the enumeration cap
    of `twisted_orbits_finite`."""
    return twisted_orbits_finite(action.target.reduce_mod(modulus), action.movers)
