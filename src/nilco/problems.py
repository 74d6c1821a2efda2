"""Problem files: parsing, validation, canonical serialization, dispatch.

Problem files are UTF-8 JSON with a fixed schema (see README).  Integers
may be written as arbitrary-precision decimal strings.  INFINITE is always
serialized as the string "infinite", never a sentinel number.
"""

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod

from .errors import NilcoError, ParseError, max_order_cap
from .infra import (
    CosetAction,
    InfraStructure,
    decide_infra,
    infra_movers,
    require_valid_infra,
)
from .intmat import IntMatrix, cokernel
from .lattice import LatticeHomomorphism, NilpotentLattice
from .oracle import twisted_orbits_finite
from .reidemeister import (
    INFINITE,
    TwistedAction,
    TwistedOrbitEngine,
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


def _list_field(obj, key, where):
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{key}: expected a list")
    return value


def _int_matrix(value, where):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(f"{where}: expected a list of integer rows")
    rows = [[_as_int(x, where) for x in row] for row in value]
    try:
        return IntMatrix._trusted(rows)  # every entry checked just above
    except NilcoError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _shaped_matrix(value, rows, cols, where):
    if value == [] and rows == 0:
        return IntMatrix([], shape=(0, cols))
    M = _int_matrix(value, where)
    if M.rows != rows or M.cols != cols:
        raise SchemaError(f"{where}: expected a {rows}x{cols} matrix, got {M.rows}x{M.cols}")
    return M


def parse_lattice(obj, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a lattice object")
    if "ranks" not in obj:
        raise SchemaError(f"{where}: missing 'ranks'")
    ranks = _int_vector(obj["ranks"], f"{where}.ranks")
    cls = _as_int(obj.get("class", len(ranks)), f"{where}.class")
    if cls != len(ranks):
        raise SchemaError(f"{where}: class {cls} does not match {len(ranks)} ranks")
    brackets = ()
    if cls == 2:
        raw = obj.get("brackets")
        if raw is None:
            raise SchemaError(f"{where}: class-2 lattice needs 'brackets'")
        if not isinstance(raw, list) or len(raw) != ranks[1]:
            raise SchemaError(f"{where}.brackets: expected {ranks[1]} matrices")
        brackets = tuple(
            _shaped_matrix(B, ranks[0], ranks[0], f"{where}.brackets[{i}]")
            for i, B in enumerate(raw)
        )
    elif obj.get("brackets"):
        raise SchemaError(f"{where}: brackets are only allowed for class-2 lattices")
    try:
        return NilpotentLattice(ranks=ranks, brackets=brackets)
    except NilcoError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def parse_element(lattice, obj, where):
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected per-level coordinate vectors")
    coords = obj
    # a bare vector is accepted for single-level lattices
    if lattice.class_c == 1 and coords and not isinstance(coords[0], list):
        coords = [coords]
    if len(coords) != lattice.class_c:
        raise SchemaError(
            f"{where}: expected {lattice.class_c} coordinate levels, got {len(coords)}"
        )
    levels = [_int_vector(level, where) for level in coords]
    try:
        return lattice.element(levels)
    except NilcoError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def parse_hom(source, target, obj, where):
    depth = max(source.class_c, target.class_c)
    raw = obj
    if isinstance(raw, list) and raw and not isinstance(raw[0], list):
        raise SchemaError(f"{where}: expected per-level matrices")
    if isinstance(raw, list) and raw and raw[0] and not isinstance(raw[0][0], list):
        raw = [raw]  # single matrix for single-level towers
    if not isinstance(raw, list) or len(raw) != depth:
        raise SchemaError(f"{where}: expected {depth} level matrices")
    mats = tuple(
        _shaped_matrix(M, target.rank_at(i), source.rank_at(i), f"{where}[{i}]")
        for i, M in enumerate(raw)
    )
    try:
        return LatticeHomomorphism(source=source, target=target, matrices=mats)
    except NilcoError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _parse_expected(obj, where):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
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


@dataclass(frozen=True)
class ProblemFile:
    kind: str
    name: object
    target: NilpotentLattice
    source: object = None
    phi: object = None
    psi: object = None
    action: object = None  # PAIRS: the TwistedAction of the generator pairs
    infra: object = None
    expected: object = None


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

    if kind in ("TORUS", "NILMANIFOLD"):
        if kind == "TORUS" and target.class_c != 1:
            raise SchemaError(f"{where}: TORUS problems need a class-1 target")
        source = (
            parse_lattice(doc["source"], f"{where}.source") if "source" in doc else target
        )
        for key in ("F", "G"):
            if key not in doc:
                raise SchemaError(f"{where}: missing '{key}'")
        phi = parse_hom(source, target, doc["F"], f"{where}.F")
        psi = parse_hom(source, target, doc["G"], f"{where}.G")
        return ProblemFile(
            kind=kind, name=name, target=target, source=source, phi=phi, psi=psi,
            expected=expected,
        )

    if kind == "PAIRS":
        raw = doc.get("pairs")
        if not isinstance(raw, list):
            raise SchemaError(f"{where}: missing 'pairs' list")
        pairs = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{where}.pairs[{i}]: expected [phi, psi] coordinates")
            p = parse_element(target, pair[0], f"{where}.pairs[{i}][0]")
            q = parse_element(target, pair[1], f"{where}.pairs[{i}][1]")
            pairs.append((p, q))
        return ProblemFile(
            kind=kind, name=name, target=target,
            action=TwistedAction(target=target, movers=tuple(pairs)), expected=expected,
        )

    # INFRA
    raw = doc.get("infra")
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: missing 'infra' object")
    if "cover" not in raw:
        raise SchemaError(f"{where}.infra: missing 'cover'")
    cover = parse_lattice(raw["cover"], f"{where}.infra.cover")
    holonomy = _as_int(raw.get("holonomy_order", 1), f"{where}.infra.holonomy_order")
    actions = []
    for i, act in enumerate(_list_field(raw, "coset_actions", f"{where}.infra")):
        if not isinstance(act, dict):
            raise SchemaError(f"{where}.infra.coset_actions[{i}]: expected an object")
        mats_raw = act.get("matrices")
        if not isinstance(mats_raw, list) or len(mats_raw) != cover.class_c:
            raise SchemaError(
                f"{where}.infra.coset_actions[{i}].matrices: expected "
                f"{cover.class_c} level matrices"
            )
        mats = tuple(
            _shaped_matrix(
                M, cover.ranks[lvl], cover.ranks[lvl],
                f"{where}.infra.coset_actions[{i}].matrices[{lvl}]",
            )
            for lvl, M in enumerate(mats_raw)
        )
        translation = parse_element(
            cover, act.get("translation", [[0] * r for r in cover.ranks]),
            f"{where}.infra.coset_actions[{i}].translation",
        )
        actions.append(CosetAction(matrices=mats, translation=translation))
    images = []
    for i, pair in enumerate(_list_field(raw, "map_images", f"{where}.infra")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}.infra.map_images[{i}]: expected [f, g] coordinates")
        fi = parse_element(target, pair[0], f"{where}.infra.map_images[{i}][0]")
        gi = parse_element(target, pair[1], f"{where}.infra.map_images[{i}][1]")
        images.append((fi, gi))
    infra = InfraStructure(
        cover=cover,
        holonomy_order=holonomy,
        coset_actions=tuple(actions),
        map_images=tuple(images),
    )
    for key in ("F", "G"):
        if key not in doc:
            raise SchemaError(f"{where}: missing '{key}' (cover pair)")
    phi = parse_hom(cover, target, doc["F"], f"{where}.F")
    psi = parse_hom(cover, target, doc["G"], f"{where}.G")
    return ProblemFile(
        kind=kind, name=name, target=target, source=cover, phi=phi, psi=psi,
        infra=infra, expected=expected,
    )


def parse_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    with unlimited_int_digits():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        return parse_problem_dict(doc, where=str(path))


def validate_problem(problem):
    """Full semantic validation beyond schema shapes.

    Returns the problem's checked TwistedAction: `from_homs` of the map pair,
    which validates both homomorphisms, or the parsed PAIRS action.  The
    infra data is checked after the maps.
    """
    if problem.kind == "PAIRS":
        return problem.action
    action = TwistedAction.from_homs(problem.phi, problem.psi)
    if problem.infra is not None:
        require_valid_infra(problem.infra, problem.target)
    return action


# -- canonical serialization ------------------------------------------


def _lattice_dict(lattice):
    out = {"class": lattice.class_c, "ranks": list(lattice.ranks)}
    if lattice.class_c == 2:
        out["brackets"] = [[list(r) for r in B.data] for B in lattice.brackets]
    return out


def _element_list(e):
    return [list(level) for level in e.coordinates]


def serialize_problem(problem):
    """Canonical dict form of a parsed problem (round-trip stable)."""
    out = {"kind": problem.kind, "target": _lattice_dict(problem.target)}
    if problem.name is not None:
        out["name"] = problem.name
    if problem.kind in ("TORUS", "NILMANIFOLD"):
        if problem.source != problem.target:
            out["source"] = _lattice_dict(problem.source)
        out["F"] = [[list(r) for r in M.data] for M in problem.phi.matrices]
        out["G"] = [[list(r) for r in M.data] for M in problem.psi.matrices]
    elif problem.kind == "PAIRS":
        out["pairs"] = [
            [_element_list(p), _element_list(q)] for p, q in problem.action.movers
        ]
    else:
        out["F"] = [[list(r) for r in M.data] for M in problem.phi.matrices]
        out["G"] = [[list(r) for r in M.data] for M in problem.psi.matrices]
        out["infra"] = {
            "cover": _lattice_dict(problem.infra.cover),
            "holonomy_order": problem.infra.holonomy_order,
            "coset_actions": [
                {
                    "matrices": [[list(r) for r in M.data] for M in act.matrices],
                    "translation": _element_list(act.translation),
                }
                for act in problem.infra.coset_actions
            ],
            "map_images": [
                [_element_list(fi), _element_list(gi)]
                for fi, gi in problem.infra.map_images
            ],
        }
    if problem.expected is not None:
        out["expected"] = dict(problem.expected)
    return out


def canonical_json(doc):
    with unlimited_int_digits():
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- dispatch ----------------------------------------------------------


def compute_report(problem, action=None):
    """Run the computation a problem file asks for.

    Returns (report, cover_report); cover_report is None outside INFRA.  A
    caller that already ran `validate_problem` passes its action.
    """
    if action is None:
        action = validate_problem(problem)
    if problem.kind in ("TORUS", "NILMANIFOLD"):
        return coincidence_invariants(problem.phi, problem.psi, action=action), None
    if problem.kind == "PAIRS":
        return coincidence_invariants_from_pairs(action), None
    cover_report, report = decide_infra(problem.infra, problem.phi, problem.psi, action=action)
    return report, cover_report


def _count_or_infinite(value):
    return INFINITE if value is None else value


def report_dict(problem, report, cover_report=None):
    """Machine-readable report; deterministic for identical inputs."""
    R = report.R
    out = {
        "kind": problem.kind,
        "R": _count_or_infinite(R.count) if report.exact else None,
        "N": report.N,
        "deformable": report.deformable,
        "rationale": report.rationale,
        "level_counts": [_count_or_infinite(c) for c in R.level_counts],
        "infinite_level": R.infinite_level,
        "exact": report.exact,
    }
    if problem.name is not None:
        out["name"] = problem.name
    if report.count_bounds is not None:
        out["count_bounds"] = list(report.count_bounds)
    if R.reps is not None:
        out["reps"] = [_element_list(e) for e in R.reps]
    if R.fiber_counts is not None:
        # [order, classes] pairs: an object would key by strings, "16" < "4"
        out["fiber_counts"] = [list(pair) for pair in R.fiber_counts]
    if cover_report is not None:
        out["cover"] = {
            "R": _count_or_infinite(cover_report.R.count),
            "level_counts": [
                _count_or_infinite(c) for c in cover_report.R.level_counts
            ],
            "infinite_level": cover_report.R.infinite_level,
        }
    return out


def check_expected(problem, report):
    """List of mismatches against the problem's expected block."""
    if problem.expected is None:
        return []
    mismatches = []
    exp = problem.expected
    if "R" in exp:
        actual = INFINITE if report.R.count is None else report.R.count
        if not report.exact:
            actual = None
        if actual != exp["R"]:
            mismatches.append(f"R: expected {exp['R']}, got {actual}")
    if "N" in exp and report.N != exp["N"]:
        mismatches.append(f"N: expected {exp['N']}, got {report.N}")
    if "deformable" in exp and report.deformable != exp["deformable"]:
        mismatches.append(
            f"deformable: expected {exp['deformable']}, got {report.deformable}"
        )
    return mismatches


# -- finite-quotient oracle dispatch ----------------------------------


def default_modulus(problem, report, action):
    """Quotient modulus for the oracle when none is given, at least 2.

    For a class-1 target this is the largest invariant factor of the level-1
    difference matrix of the problem's movers: the exponent of the cokernel,
    so the quotient already separates every class.  For a class-2 target it
    is the product of the level counts, or R when one is infinite; that
    quotient need not separate every class.
    """
    if report.R.count is None:
        raise NilcoError("no finite modulus for an infinite result")
    if problem.target.class_c == 1:
        level1 = TwistedAction(target=problem.target, movers=problem_movers(problem, action))
        return max((2, *cokernel(TwistedOrbitEngine(level1).delta1).torsion))
    counts = report.R.level_counts
    return max(2, report.R.count if None in counts else prod(counts))


def problem_movers(problem, action):
    """Mover pairs of the problem's twisted action, as target elements, from
    `action = validate_problem(problem)`.  An INFRA problem adds its holonomy
    pairs (f(x), g(x)) to the cover movers."""
    if problem.kind == "INFRA":
        return infra_movers(problem.infra, action)
    return action.movers


def oracle_orbit_count(problem, modulus, max_order=None, action=None):
    """Twisted orbit count on the target quotient mod `modulus`.  A caller
    that already ran `validate_problem` passes its action."""
    if action is None:
        action = validate_problem(problem)
    cap = max_order_cap(max_order)
    table = problem.target.reduce_mod(modulus, max_order=cap)
    movers = [
        (table.project(p), table.project(q)) for p, q in problem_movers(problem, action)
    ]
    count, _ = twisted_orbits_finite(table, movers)
    return count
