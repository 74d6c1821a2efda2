"""Batch front door.

Subcommands: compute, oracle, validate, fixtures.  Exit codes:
0 ok, 1 any other NilcoError (such as `oracle` on an infinite count with no
--modulus), 2 parse error (unreadable file, a file that is not UTF-8,
invalid JSON or JSON nested too deep, an element cap from NILCO_MAX_ORDER
or --max-order that is not an integer >= 1, or a --modulus that is not an
integer >= 2), 3 schema/shape error (also a map that is not a
homomorphism, or invalid holonomy data; the message names the place in
the file), 4 unsupported class, 5 bound exceeded, 6 fixture/expected
mismatch.

`validate` parses the file, which checks every lattice, map, element and
holonomy datum as it is built, and builds the twisted action it counts;
it computes nothing.
"""

import argparse
import sys
from importlib import resources
from pathlib import Path

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
    canonical_json,
    check_expected,
    compute_report,
    default_modulus,
    oracle_orbit_count,
    parse_problem,
    report_dict,
    unlimited_int_digits,
    validate_problem,
)
from .reidemeister import INFINITE

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
        print(f"  R(f,g) in [{lo}, {hi}]  (UNSUPPORTED-EXACT: class > 2 merge)", file=out)
    else:
        print(f"  R(f,g) = {doc['R']}", file=out)
    print(f"  N(f,g) = {doc['N']}", file=out)
    print(f"  deformable to coincidence free: {doc['deformable']} ({doc['rationale']})", file=out)
    levels = ", ".join(str(c) for c in doc["level_counts"])
    print(f"  level counts: [{levels}]", file=out)
    if doc.get("infinite_level") is not None:
        print(f"  first infinite level: {doc['infinite_level']}", file=out)
    if doc.get("cover") is not None:
        print(f"  cover R = {doc['cover']['R']}", file=out)
    reps = doc.get("reps")
    if reps is not None and len(reps) <= 64:
        print(f"  class representatives: {reps}", file=out)


def cmd_compute(args, out):
    problem = parse_problem(args.file)
    report, cover_report = compute_report(problem)
    doc = report_dict(problem, report, cover_report)
    if args.output == "json":
        out.write(canonical_json(doc))
    else:
        _render_human(doc, out)
    if problem.expected is not None:
        mismatches = check_expected(problem, report)
        if mismatches:
            for m in mismatches:
                print(f"expected mismatch: {m}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_oracle(args, out):
    modulus = args.modulus
    if modulus is not None and modulus < 2:
        raise ParseError(f"--modulus must be an integer >= 2, got {modulus}")
    problem = parse_problem(args.file)
    if modulus is None:
        report, _ = compute_report(problem)
        modulus = default_modulus(problem, report)
    count = oracle_orbit_count(problem, modulus, max_order=args.max_order)
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
    return resources.files("nilco") / "fixtures"


def cmd_fixtures(args, out):
    directory = Path(args.dir) if args.dir else bundled_fixture_dir()
    paths = sorted(str(p) for p in directory.glob("*.json"))
    if not paths:
        print(f"no fixtures found in {directory}", file=sys.stderr)
        return EXIT_PARSE
    failures = 0
    for path in paths:
        problem = parse_problem(path)
        label = problem.name or Path(path).stem
        if args.check and problem.expected is None:
            print(f"FAIL {label}: no expected block", file=out)
            failures += 1
            continue
        try:
            report, _ = compute_report(problem)
        except NilcoError as exc:
            print(f"FAIL {label}: {exc}", file=out)
            failures += 1
            continue
        mismatches = check_expected(problem, report)
        if mismatches:
            print(f"FAIL {label}: " + "; ".join(mismatches), file=out)
            failures += 1
        else:
            shown = INFINITE if report.R.count is None else report.R.count
            print(f"PASS {label}: R={shown} N={report.N} deformable={report.deformable}", file=out)
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
                   help="quotient modulus (default: for a class-1 target the "
                        "largest invariant factor of the level-1 difference matrix, "
                        "for class 2 the product of the level counts, or R when one "
                        "is infinite; at least 2)")
    p.add_argument("--max-order", type=int, default=None,
                   help="element cap for enumeration (env NILCO_MAX_ORDER)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="parse and validate a problem file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fixtures", help="run the bundled regression fixtures")
    p.add_argument("--check", action="store_true",
                   help="require an expected block in every fixture")
    p.add_argument("--dir", default=None, help="fixture directory override")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    with unlimited_int_digits():
        args = build_parser().parse_args(argv)
        try:
            return args.func(args, out)
        except NilcoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _exit_code_for(exc)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
