"""Batch front door.

Subcommands: compute, oracle, validate, fixtures.  Exit codes:
0 ok, 1 any other NilcoError (such as `oracle` on an infinite count with no
--modulus), 2 parse error (unreadable file, a file that is not UTF-8,
invalid JSON or JSON nested too deep, a NILCO_MAX_ORDER that is not an
integer >= 1, or a --modulus that is not an integer >= 2), 3 schema/shape
error (also a map that is not a homomorphism, or invalid holonomy data;
the message names the place in the file), 4 unsupported class (also
`oracle` on a class >= 3 target), 5 bound exceeded, 6 fixture/expected
mismatch.  `fixtures` prints a PASS or FAIL line for every file, also one
that cannot be parsed or counted, and exits 6 on any FAIL.

NILCO_MAX_ORDER, the one enumeration setting, caps the quotient elements
`oracle` enumerates and the period classes `compute` builds fibers for.

`validate` parses the file, which checks every lattice, map, element and
holonomy datum as it is built, and builds the twisted action it counts;
it computes nothing.  `oracle` builds the same action once; without
--modulus one orbit engine counts it and gives the modulus
(`TwistedOrbitEngine.oracle_modulus`), and `compute` does not run.

`main(argv, out)` returns the exit code and raises nothing for a usage
error: an unknown option or a --modulus that is not an integer prints the
usage to stderr and returns 2, and --help writes the help to `out` and
returns 0.
"""

import argparse
import json
import sys
from contextlib import redirect_stdout

from .errors import (
    BoundExceededError,
    HomomorphismError,
    NilcoError,
    ParseError,
    ShapeError,
    UnsupportedClassError,
)
from .problems import (
    SchemaError,
    _shown,
    canonical_json,
    check_expected,
    compute_report,
    oracle_orbit_count,
    parse_problem,
    report_dict,
    unlimited_int_digits,
    validate_problem,
)
from .reidemeister import TwistedOrbitEngine

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_UNSUPPORTED = 4
EXIT_BOUND = 5
EXIT_MISMATCH = 6


def _exit_code_for(exc):
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, (SchemaError, ShapeError, HomomorphismError)):
        return EXIT_SCHEMA
    if isinstance(exc, UnsupportedClassError):
        return EXIT_UNSUPPORTED
    if isinstance(exc, BoundExceededError):
        return EXIT_BOUND
    return EXIT_ERROR


def _render_human(doc, out):
    name = doc.get("name")
    title = f"{doc['kind']}" + (f" [{name}]" if name else "")
    print(title, file=out)
    if not doc.get("exact", True):
        lo, hi = doc["count_bounds"]
        print(f"  R(f,g) in [{lo}, {hi}]  (UNSUPPORTED-EXACT: class > 2)", file=out)
    else:
        print(f"  R(f,g) = {doc['R']}", file=out)
    print(f"  N(f,g) = {_shown(doc['N'])}", file=out)
    print(f"  deformable to coincidence free: {doc['deformable']} ({doc['rationale']})", file=out)
    levels = ", ".join(str(c) for c in doc["level_counts"])
    print(f"  level counts: [{levels}]", file=out)
    if doc.get("infinite_level") is not None:
        print(f"  first infinite level: {doc['infinite_level']}", file=out)
    if doc.get("cover") is not None:
        print(f"  cover R = {_shown(doc['cover']['R'])}", file=out)
    reps = doc.get("reps")
    if reps is not None and len(reps) <= 64:
        print(f"  class representatives: {json.dumps(reps)}", file=out)


def _file_report(problem):
    """A parsed problem's report document and its expected-block mismatches."""
    doc = report_dict(problem, *compute_report(problem))
    return doc, check_expected(problem, doc)


def cmd_compute(args, out):
    doc, mismatches = _file_report(parse_problem(args.file))
    if args.output == "json":
        out.write(canonical_json(doc))
    else:
        _render_human(doc, out)
    for m in mismatches:
        print(f"expected mismatch: {m}", file=sys.stderr)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_oracle(args, out):
    modulus = args.modulus
    if modulus is not None and modulus < 2:
        raise ParseError(f"--modulus must be an integer >= 2, got {modulus}")
    problem = parse_problem(args.file)
    action = validate_problem(problem)
    if modulus is None:
        modulus = TwistedOrbitEngine(action).oracle_modulus()
    count = oracle_orbit_count(action, modulus)
    doc = {"kind": problem.kind, "modulus": modulus, "orbit_count": count}
    if problem.name is not None:
        doc["name"] = problem.name
    if args.output == "json":
        out.write(canonical_json(doc))
    else:
        print(f"orbits mod {modulus}: {count}", file=out)
    return EXIT_OK


def cmd_validate(args, out):
    problem = parse_problem(args.file)
    validate_problem(problem)
    if args.output == "json":
        out.write(canonical_json({"file": str(args.file), "valid": True}))
    else:
        print(f"{args.file}: ok", file=out)
    return EXIT_OK


def bundled_fixture_dir():
    from importlib import resources

    return resources.files("nilco") / "fixtures"


def cmd_fixtures(args, out):
    # only this command reads package files: a run of any other command
    # leaves importlib.resources and pathlib unloaded
    from pathlib import Path

    directory = Path(args.dir) if args.dir else bundled_fixture_dir()
    paths = sorted(str(p) for p in directory.glob("*.json"))
    if not paths:
        print(f"no fixtures found in {directory}", file=sys.stderr)
        return EXIT_PARSE
    failures = 0
    for path in paths:
        label = Path(path).stem  # until a name is parsed
        try:
            problem = parse_problem(path)
            label = problem.name or label
            if args.check and not problem.expected:  # {} checks nothing either
                raise NilcoError("no expected block")
            doc, mismatches = _file_report(problem)
        except NilcoError as exc:
            mismatches = [str(exc)]
        if mismatches:
            print(f"FAIL {label}: " + "; ".join(mismatches), file=out)
            failures += 1
        else:
            R, N = _shown(doc["R"]), _shown(doc["N"])
            print(f"PASS {label}: R={R} N={N} deformable={doc['deformable']}", file=out)
    if failures:
        print(f"{failures} fixture(s) failed", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilco",
        description=(
            "Exact coincidence Reidemeister/Nielsen numbers for maps into "
            "compact nilmanifolds, with a deformability decision."
        ),
    )
    parser.add_argument(
        "--output", choices=("human", "json"), default="human",
        help="report format (default: human)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute R, N and the Wecken decision")
    p.add_argument("file")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="brute-force orbit count on a finite quotient")
    p.add_argument("file")
    p.add_argument("--modulus", type=int, default=None,
                   help="quotient modulus (default: max(2, e1 n), e1 the largest "
                        "invariant factor of the level-1 difference matrix, n = E or "
                        "2E for an odd or even E, the lcm of the fiber cokernel "
                        "exponents, 1 at class 1; it separates every class)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="parse and validate a problem file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fixtures", help="run the bundled regression fixtures")
    p.add_argument("--check", action="store_true",
                   help="require a non-empty expected block in every fixture")
    p.add_argument("--dir", default=None, help="fixture directory override")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    with unlimited_int_digits():
        try:
            with redirect_stdout(out):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # usage error (2) or --help (0)
            return exc.code
        try:
            return args.func(args, out)
        except NilcoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _exit_code_for(exc)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
