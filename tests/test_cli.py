"""Command-line front end: parsing, dispatch, output formats, exit codes."""

import io
import json
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import nilco
import nilco.cli
import nilco.errors
import nilco.lattice
import nilco.problems

from conftest import (
    EXIT_BOUND,
    EXIT_CODES,
    EXIT_ERROR,
    EXIT_SCHEMA,
    EXIT_UNSUPPORTED,
    NO_CENTRE_INFINITE,
    NO_CENTRE_MAPS,
    NO_CENTRE_PAIRS,
    expand_reps,
    heisenberg_period_pairs,
    serialize_problem,
    sympy_cokernel_order,
)
from nilco.cli import EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, bundled_fixture_dir, main
from nilco.infra import InfraStructure
from nilco.intmat import IntMatrix
from nilco.lattice import NilpotentLattice
from nilco.problems import (
    SchemaError,
    canonical_json,
    compute_report,
    parse_problem,
    parse_problem_dict,
    render_reps,
    unlimited_int_digits,
    validate_problem,
)
from nilco.reidemeister import TwistedOrbitEngine

# canonical `--output json compute` bytes of each bundled fixture, next to
# the oracle ledger (tests/check_ledger.py), which is not a report
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_REPORTS = sorted(p for p in GOLDEN_DIR.glob("*.json") if p.name != "ledger.json")

HEISENBERG_DOC = {
    "kind": "NILMANIFOLD",
    "target": {"class": 2, "ranks": [2, 1], "brackets": [[[0, 1], [0, 0]]]},
    "F": [[[2, 0], [0, 2]], [[4]]],
    "G": [[[0, 0], [0, 0]], [[0]]],
}


KLEIN_DOC = json.loads(
    (bundled_fixture_dir() / "klein_bottle_to_circle.json").read_text(encoding="utf-8")
)

# problems with no group law to check their maps against, each refused with
# exit 4: the filiform pair into ranks (2, 1, 1) (no homomorphism, since G = 0
# and F = (I, [5], [7])), a class-3 source into the Heisenberg lattice, and
# generator pairs on a class-3 target
CLASS3_DOCS = {
    "filiform": {
        "kind": "NILMANIFOLD",
        "target": {"ranks": [2, 1, 1]},
        "F": [[[1, 0], [0, 1]], [[5]], [[7]]],
        "G": [[[0, 0], [0, 0]], [[0]], [[0]]],
    },
    "class3-into-heisenberg": {
        "kind": "NILMANIFOLD",
        "source": {"ranks": [2, 1, 1]},
        "target": HEISENBERG_DOC["target"],
        "F": [[[2, 0], [0, 2]], [[5]], []],
        "G": [[[0, 0], [0, 0]], [[0]], []],
    },
    "pairs": {
        "kind": "PAIRS",
        "target": {"ranks": [2, 1, 1]},
        "pairs": [[[[1, 0], [0], [0]], [[0, 0], [0], [0]]],
                  [[[0, 1], [0], [0]], [[0, 0], [0], [0]]]],
    },
}
# a class-3 source into T^2: every F1 is a homomorphism into an abelian group
CLASS3_INTO_TORUS_DOC = {
    "kind": "NILMANIFOLD",
    "source": {"ranks": [2, 1, 1]},
    "target": {"ranks": [2]},
    "F": [[[2, 1], [0, 3]], [], []],
    "G": [[[0, 0], [0, 0]], [], []],
}


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCompute:
    def test_human_output(self, tmp_path):
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code, text = run(["compute", path])
        assert code == EXIT_OK
        assert "R(f,g) = 16" in text
        assert "N(f,g) = 16" in text
        assert "deformable to coincidence free: no" in text

    def test_json_output_is_deterministic(self, tmp_path):
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code1, text1 = run(["--output", "json", "compute", path])
        code2, text2 = run(["--output", "json", "compute", path])
        assert code1 == code2 == EXIT_OK
        assert text1 == text2
        doc = json.loads(text1)
        assert doc["R"] == 16 and doc["N"] == 16 and doc["deformable"] == "no"
        assert doc["level_counts"] == [4, 4]

    def test_infinite_result_serialized_as_string(self, tmp_path):
        path = write_problem(
            tmp_path,
            {"kind": "TORUS", "target": {"ranks": [1]}, "F": [[2]], "G": [[2]]},
        )
        code, text = run(["--output", "json", "compute", path])
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["R"] == "infinite" and doc["N"] == 0 and doc["deformable"] == "yes"

    def test_human_output_prints_no_python_none(self):
        # the one null of a JSON report, infinite_level, is left out
        for path in sorted(bundled_fixture_dir().glob("*.json")):
            code, text = run(["compute", str(path)])
            assert code == EXIT_OK and "None" not in text, path

    @pytest.mark.parametrize("key", ["R", "N"])
    def test_expected_block_may_not_state_a_null_count(self, tmp_path, capsys, key):
        # every count is exact, so a null R or N is a schema error
        path = write_problem(tmp_path, dict(HEISENBERG_DOC, expected={key: None}))
        assert run(["compute", path])[0] == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"error: {path}.expected.{key}: expected integer or decimal string, got None\n"
        )

    def test_class3_source_into_a_torus_is_answered(self, tmp_path):
        path = write_problem(tmp_path, CLASS3_INTO_TORUS_DOC)
        code, text = run(["--output", "json", "compute", path])
        assert (code, text) == (EXIT_OK, (
            '{"N":6,"R":6,"deformable":"no","exact":true,"infinite_level":null,'
            '"kind":"NILMANIFOLD","level_counts":[6,1,1],"rationale":"EQ-THM",'
            '"reps":[[[0,0]],[[0,1]],[[0,2]],[[0,3]],[[0,4]],[[0,5]]]}\n'
        ))
        assert run(["validate", path])[0] == EXIT_OK
        code, text = run(["--output", "json", "oracle", path])
        assert code == EXIT_OK and json.loads(text)["orbit_count"] == 6

    def test_infra_report_includes_cover(self, tmp_path):
        fixture = str(bundled_fixture_dir() / "klein_bottle_to_circle.json")
        code, text = run(["--output", "json", "compute", fixture])
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["cover"]["R"] == 4 and doc["R"] == 2

    def test_decimal_string_integers_accepted(self, tmp_path):
        doc = {
            "kind": "TORUS",
            "target": {"ranks": ["1"]},
            "F": [["3"]],
            "G": [["0"]],
        }
        code, text = run(["--output", "json", "compute", write_problem(tmp_path, doc)])
        assert code == EXIT_OK and json.loads(text)["R"] == 3

    @pytest.mark.parametrize(
        "n, F, R",
        [
            (1, f"[[1{'0' * 4400}]]", "1" + "0" * 4400),
            (1, f'[["1{"0" * 4400}"]]', "1" + "0" * 4400),
            (2, f"[[1{'0' * 2300},0],[0,1{'0' * 2300}]]", "1" + "0" * 4600),
            (2, f'[[1{"0" * 4400},"0"],["-2",1]]', "1" + "0" * 4400),
            (2, '[["3","1"],["-2","5"]]', "17"),
        ],
        ids=["json-number", "decimal-string", "long-R", "mixed-rows", "string-rows"],
    )
    def test_integers_past_the_default_digit_limit(self, tmp_path, n, F, R):
        # written as text: Python's default limit is 4,300 digits per int
        path = tmp_path / "big.json"
        G = json.dumps([[0] * n] * n)
        path.write_text(
            f'{{"kind":"TORUS","target":{{"ranks":[{n}]}},"F":{F},"G":{G}}}', encoding="utf-8"
        )
        code, text = run(["--output", "json", "compute", str(path)])
        assert code == EXIT_OK and f'"R":{R},' in text
        code, text = run(["compute", str(path)])
        assert code == EXIT_OK and f"R(f,g) = {R}\n" in text
        assert run(["validate", str(path)])[0] == EXIT_OK


    def test_library_callers_read_and_write_integers_past_the_digit_limit(self, tmp_path):
        # in a fresh interpreter, because an in-process `main` lifts the limit
        # while it runs: parse_problem and canonical_json lift it themselves,
        # and restore it
        big = "1" + "0" * 4400
        path = tmp_path / "big.json"
        path.write_text(
            f'{{"kind":"TORUS","target":{{"ranks":[1]}},"F":[[{big}]],"G":[["-{big}"]]}}',
            encoding="utf-8",
        )
        script = (
            "import sys\n"
            "from nilco.problems import (\n"
            "    canonical_json, compute_report, parse_problem, report_dict)\n"
            "limit = getattr(sys, 'get_int_max_str_digits', lambda: None)()\n"
            f"problem = parse_problem({str(path)!r})\n"
            "report, cover = compute_report(problem)\n"
            "sys.stdout.write(canonical_json(report_dict(problem, report, cover)))\n"
            "assert getattr(sys, 'get_int_max_str_digits', lambda: None)() == limit\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nilco.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert f'"R":2{big[1:]},' in proc.stdout


def _decimal_strings(node):
    """`node` with every integer in it written as a decimal string."""
    if isinstance(node, list):
        return [_decimal_strings(x) for x in node]
    return str(node) if type(node) is int else node


class TestReadPath:
    # a file is read as bytes and decoded once, with text mode's newlines:
    # the same reports and the same errors as a text-mode read

    def test_utf8_bom_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(HEISENBERG_DOC).encode("utf-8"))
        assert run(["compute", str(path)]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == (
            f"error: {path}: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)\n"
        )

    def test_utf16_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_text(json.dumps(HEISENBERG_DOC), encoding="utf-16")
        assert run(["compute", str(path)]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize("name", [p.name for p in GOLDEN_REPORTS])
    def test_crlf_file_gives_the_lf_report(self, tmp_path, name):
        text = (bundled_fixture_dir() / name).read_bytes()
        assert b"\r" not in text and text.count(b"\n") > 1
        path = tmp_path / name
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert run(["--output", "json", "compute", str(path)]) == (EXIT_OK, golden)

    def test_crlf_and_cr_files_get_the_lf_error_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        errors = []
        for newline in ("\n", "\r\n", "\r"):
            path.write_bytes(newline.join(["{", '  "kind": "TORUS",', '  "target": x}']).encode())
            assert run(["compute", str(path)]) == (EXIT_PARSE, "")
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {path}: invalid JSON: Expecting value: "
                          "line 3 column 13 (char 33)\n"] * 3

    @pytest.mark.parametrize("name", [p.name for p in GOLDEN_REPORTS])
    def test_decimal_strings_give_the_integer_report(self, tmp_path, name):
        # every integer of the bracket matrices, the map matrices and the
        # pair coordinates (holonomy images included) as a decimal string
        text = (bundled_fixture_dir() / name).read_text(encoding="utf-8")
        doc = json.loads(text)
        parts = [doc, doc["target"], doc.get("source", {}), doc.get("infra", {})]
        parts.append(doc.get("infra", {}).get("cover", {}))
        for part in parts:
            for key in ("brackets", "F", "G", "pairs", "map_images"):
                if part.get(key):
                    part[key] = _decimal_strings(part[key])
        assert doc != json.loads(text)
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert run(["--output", "json", "compute", write_problem(tmp_path, doc)]) == (EXIT_OK, golden)


class TestDigitLimit:
    # `main` lifts Python's limit on integer digits while it runs and
    # restores it on every way out; library callers of `parse_problem` and
    # `canonical_json` get it lifted by those two
    DIGITS = "1" + "0" * 4998 + "7"  # 5,000 digits

    @pytest.fixture
    def limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        yield 4321
        sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("outcome", ["ok", "nilco-error", "usage-error"])
    def test_main_restores_the_limit(self, tmp_path, capsys, limit, outcome):
        path = tmp_path / "big.json"
        path.write_text('{"kind":"TORUS","target":{"ranks":[1]},'
                        f'"F":[[{self.DIGITS}]],"G":[[0]]}}', encoding="utf-8")
        argv, code = {
            "ok": (["--output", "json", "compute", str(path)], EXIT_OK),
            "nilco-error": (["oracle", str(path), "--modulus", "1"], EXIT_PARSE),
            "usage-error": (["compute", str(path), "--no-such-option"], EXIT_PARSE),
        }[outcome]
        code_seen, text = run(argv)
        assert code_seen == code
        assert sys.get_int_max_str_digits() == limit
        if outcome == "ok":
            assert f'"R":{self.DIGITS},' in text
        else:
            assert capsys.readouterr().err

    def test_library_callers_get_the_limit_lifted(self, tmp_path, limit):
        big = 10**4999 + 7
        path = tmp_path / "big.json"
        path.write_text('{"kind":"TORUS","target":{"ranks":[1]},'
                        f'"F":[["{self.DIGITS}"]],"G":[[{self.DIGITS}]]}}', encoding="utf-8")
        problem = parse_problem(str(path))
        phi, psi = problem.action.maps
        assert phi.matrices[0].data == psi.matrices[0].data == ((big,),)
        assert sys.get_int_max_str_digits() == limit
        assert canonical_json({"R": big}) == f'{{"R":{self.DIGITS}}}\n'
        assert sys.get_int_max_str_digits() == limit
        with unlimited_int_digits():  # an inner block leaves the limit to the outer one
            assert canonical_json({"R": big}) == f'{{"R":{self.DIGITS}}}\n'
            assert sys.get_int_max_str_digits() == 0
        assert sys.get_int_max_str_digits() == limit


class TestExitCodes:
    def test_the_table_names_every_error_class(self):
        classes = {name for name, value in vars(nilco.errors).items()
                   if isinstance(value, type) and issubclass(value, nilco.errors.NilcoError)}
        assert classes == set(EXIT_CODES)
        # the package re-exports each one, ParseError and SchemaError included
        assert classes <= set(nilco.__all__)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_an_error_exits_with_its_class_code(self, tmp_path, monkeypatch, capsys, name):
        error = getattr(nilco.errors, name)
        assert error.exit_code == EXIT_CODES[name]

        def compute_report(problem):
            raise error("raised on purpose")

        monkeypatch.setattr(nilco.cli, "compute_report", compute_report)
        assert run(["compute", write_problem(tmp_path, torus_doc(2))]) == (EXIT_CODES[name], "")
        assert capsys.readouterr().err == "error: raised on purpose\n"

    def test_bad_decimal_string_names_its_location_once(self, tmp_path, capsys):
        doc = {"kind": "TORUS", "target": {"ranks": [1]}, "F": [["3x"]], "G": [[0]]}
        path = write_problem(tmp_path, doc)
        assert run(["compute", path])[0] == EXIT_SCHEMA
        assert capsys.readouterr().err == f"error: {path}.F[0]: '3x' is not a decimal integer\n"

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = run(["compute", str(path)])
        assert code == EXIT_PARSE

    def test_missing_file(self):
        code, _ = run(["compute", "/nonexistent/problem.json"])
        assert code == EXIT_PARSE

    def test_schema_error_on_shape_mismatch(self, tmp_path):
        doc = {
            "kind": "TORUS",
            "target": {"ranks": [2]},
            "F": [[1, 0], [0, 1]],
            "G": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        }
        code, _ = run(["compute", write_problem(tmp_path, doc)])
        assert code == EXIT_SCHEMA

    def test_schema_error_on_invalid_hom(self, tmp_path, capsys):
        doc = dict(HEISENBERG_DOC)
        doc["F"] = [[[2, 0], [0, 2]], [[5]]]  # central part must be det = 4
        path = write_problem(tmp_path, doc)
        for command in ("compute", "oracle", "validate"):
            assert run([command, path])[0] == EXIT_SCHEMA
            assert capsys.readouterr().err == (
                f"error: {path}.F: bracket equivariance fails on basis pair (1, 2): "
                "expected [5], got [4]\n"
            )

    def test_schema_error_on_invalid_infra_data(self, tmp_path, capsys):
        doc = json.loads((bundled_fixture_dir() / "klein_bottle_to_circle.json").read_text())
        doc["infra"]["coset_actions"][0]["matrices"] = [[[-1, 0], [0, 2]]]
        path = write_problem(tmp_path, doc)
        for command in ("compute", "oracle", "validate"):
            assert run([command, path])[0] == EXIT_SCHEMA
            assert capsys.readouterr().err == (
                f"error: {path}.infra: invalid infra data: "
                "coset action 0: level 1 determinant -2 is not +-1\n"
            )

    def test_schema_error_on_malformed_infra_block(self, tmp_path, capsys):
        doc = json.loads((bundled_fixture_dir() / "klein_bottle_to_circle.json").read_text())
        no_block = {key: value for key, value in doc.items() if key != "infra"}
        bad_action = dict(doc, infra=dict(doc["infra"], coset_actions=[7]))
        for mutant, message in ((no_block, "{path}: missing 'infra' object"),
                                (bad_action, "{path}.infra.coset_actions[0]: expected an object")):
            path = write_problem(tmp_path, mutant)
            for command in ("compute", "validate"):
                assert run([command, path]) == (EXIT_SCHEMA, "")
                assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert run(["compute", str(path)])[0] == EXIT_PARSE

    def test_json_nested_too_deep_is_a_parse_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert run(["compute", str(path)])[0] == EXIT_PARSE

    @pytest.mark.parametrize("name", sorted(CLASS3_DOCS))
    def test_unsupported_class(self, tmp_path, capsys, name):
        # refused when the file is parsed, so validate refuses what compute
        # and oracle refuse, with the same message
        path = write_problem(tmp_path, CLASS3_DOCS[name])
        errors = set()
        for argv in (["compute"], ["validate"], ["oracle"], ["oracle", "--modulus", "2"]):
            assert run([argv[0], path, *argv[1:]]) == (EXIT_UNSUPPORTED, "")
            errors.add(capsys.readouterr().err)
        [error] = errors
        assert error.startswith(f"error: {path}") and "no group law past class 2" in error

    def test_env_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NILCO_MAX_ORDER", "10")
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code, _ = run(["oracle", path])
        assert code == EXIT_BOUND

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_env_cap_is_a_parse_error(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("NILCO_MAX_ORDER", value)
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code, _ = run(["oracle", path])
        assert code == EXIT_PARSE

    def test_max_order_flag_is_rejected(self, tmp_path, capsys):
        # NILCO_MAX_ORDER is the one enumeration setting
        path = write_problem(tmp_path, HEISENBERG_DOC)
        assert run(["oracle", path, "--max-order", "100"]) == (EXIT_PARSE, "")
        assert "unrecognized arguments: --max-order 100" in capsys.readouterr().err

    def test_modulus_that_is_not_an_integer_is_a_usage_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, HEISENBERG_DOC)
        assert run(["oracle", path, "--modulus", "abc"]) == (EXIT_PARSE, "")
        assert "argument --modulus: invalid int value: 'abc'" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        # the help goes to `out`, not to the real stdout
        code, text = run(["--help"])
        assert code == EXIT_OK and "usage: nilco" in text
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("modulus", ["1", "0", "-4"])
    def test_modulus_below_two_is_a_parse_error(self, tmp_path, capsys, modulus):
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code, _ = run(["oracle", path, "--modulus", modulus])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: --modulus must be an integer >= 2, got {modulus}\n"

    def test_other_errors_exit_one(self, capsys):
        path = str(bundled_fixture_dir() / "identical_torus_maps.json")
        code, _ = run(["oracle", path])  # infinite count: no default modulus
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: no finite modulus for an infinite result\n"

    @pytest.mark.parametrize("field", ["coset_actions", "map_images"])
    @pytest.mark.parametrize("value", [None, 5, {"0": []}])
    def test_infra_fields_that_are_not_lists_are_schema_errors(self, tmp_path, field, value):
        fixture = bundled_fixture_dir() / "klein_bottle_to_circle.json"
        doc = json.loads(fixture.read_text(encoding="utf-8"))
        doc["infra"][field] = value
        code, _ = run(["compute", write_problem(tmp_path, doc)])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("command", ["compute", "validate", "oracle"])
    @pytest.mark.parametrize("value", [False, 0, "", {}, 1, "[]"],
                             ids=["false", "zero", "empty-string", "empty-object", "one", "string"])
    def test_brackets_that_are_not_a_list_are_schema_errors(self, tmp_path, command, value):
        doc = {
            "kind": "TORUS",
            "target": {"ranks": [1], "brackets": value},
            "F": [[[0]]],
            "G": [[[2]]],
        }
        code, _ = run([command, write_problem(tmp_path, doc)])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("value", [None, []])
    def test_null_or_empty_brackets_mean_none(self, tmp_path, value):
        doc = {
            "kind": "TORUS",
            "target": {"ranks": [1], "brackets": value},
            "F": [[[0]]],
            "G": [[[2]]],
        }
        code, out = run(["--output", "json", "compute", write_problem(tmp_path, doc)])
        assert code == EXIT_OK and json.loads(out)["R"] == 2

    @pytest.mark.parametrize("K", [10**7, 10**10, 10**20])
    def test_level1_classes_beyond_the_cap_exit_before_listing(self, tmp_path, K):
        # the fiber over (a1, a2) has order gcd(K, a2), so K period classes;
        # 10^10 or 10^20 of them could not be listed at all, so exit 5 shows
        # the cap was checked before any representative was built
        code, _ = run(["compute", write_problem(tmp_path, heisenberg_period_pairs(K))])
        assert code == EXIT_BOUND

    @pytest.mark.parametrize("cap, expected", [("100", EXIT_OK), ("99", EXIT_BOUND)])
    def test_level1_cap_is_inclusive(self, tmp_path, monkeypatch, cap, expected):
        monkeypatch.setenv("NILCO_MAX_ORDER", cap)
        path = write_problem(tmp_path, heisenberg_period_pairs(100))  # 100 period classes
        code, _ = run(["compute", path])
        assert code == expected

    def test_uniform_fiber_beyond_the_cap_is_counted(self, tmp_path):
        # 10^20 level-1 classes, one period class: R = (10^10)^4
        doc = dict(HEISENBERG_DOC)
        doc["F"] = [[[10**10, 0], [0, 10**10]], [[10**20]]]
        code, text = run(["--output", "json", "compute", write_problem(tmp_path, doc)])
        assert code == EXIT_OK
        report = json.loads(text)
        assert report["R"] == 10**40 and report["level_counts"] == [10**20, 10**20]
        assert report["fiber_counts"] == [[10**20, 10**20]] and "reps" not in report

    def test_expected_mismatch(self, tmp_path):
        doc = dict(HEISENBERG_DOC)
        doc["expected"] = {"R": 17}
        code, _ = run(["compute", write_problem(tmp_path, doc)])
        assert code == EXIT_MISMATCH

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "TORUS", "F": [[1]], "G": [[0]]}, ": missing 'target'"),
        (dict(HEISENBERG_DOC, kind="TORUS"), ": TORUS problems need a class-1 target"),
        ({"kind": "NILMANIFOLD", "target": {"ranks": [1]}, "G": [[0]]}, ": missing 'F'"),
        ({"kind": "PAIRS", "target": {"ranks": [1]}, "pairs": [[[1]]]},
         ".pairs[0]: expected [phi, psi] coordinates"),
        (dict(KLEIN_DOC, infra={"holonomy_order": 1}), ".infra: missing 'cover'"),
        (dict(KLEIN_DOC, infra=dict(KLEIN_DOC["infra"], map_images=[5])),
         ".infra.map_images[0]: expected [f, g] coordinates"),
        ({k: v for k, v in KLEIN_DOC.items() if k != "G"}, ": missing 'G' (cover pair)"),
        # a matrix row with one entry that is not an integer, after one that is
        *(({"kind": "TORUS", "target": {"ranks": [2]}, "F": [[1, x], [0, 1]], "G": [[0, 0]] * 2},
           f".F[0]: {message}") for x, message in [
            (True, "booleans are not integers"),
            (1.5, "expected integer or decimal string, got 1.5"),
            (None, "expected integer or decimal string, got None"),
            ([1], "expected integer or decimal string, got [1]"),
            ("x", "'x' is not a decimal integer"),
            # only ASCII digits with an optional sign: no spaces, underscores
            # or other scripts' digits, which int() would take
            (" 12 ", "' 12 ' is not a decimal integer"),
            ("1_000", "'1_000' is not a decimal integer"),
            ("\u0661\u0662", "'\u0661\u0662' is not a decimal integer"),
        ]),
        (dict(HEISENBERG_DOC, target={"ranks": [2, 1], "brackets": [[[0, 1], [False, 0]]]}),
         ".target.brackets[0]: booleans are not integers"),
        # an element coordinate, after one that is an integer
        *(({"kind": "PAIRS", "target": {"ranks": [2]}, "pairs": [[[[1, x]], [[0, 0]]]]},
           f".pairs[0][0]: {message}") for x, message in [
            (True, "booleans are not integers"),
            (1.5, "expected integer or decimal string, got 1.5"),
            ("1e3", "'1e3' is not a decimal integer"),
        ]),
    ], ids=["target", "torus-class", "F", "pairs-entry", "cover", "map-images-entry", "G-cover",
            "row-bool", "row-float", "row-null", "row-list", "row-string", "row-spaces",
            "row-underscore", "row-arabic-indic", "bracket-bool", "coordinate-bool",
            "coordinate-float", "coordinate-string"])
    def test_missing_and_malformed_fields_name_their_place(self, tmp_path, capsys, doc, message):
        path = write_problem(tmp_path, doc)
        assert run(["compute", path])[0] == EXIT_SCHEMA
        assert capsys.readouterr().err == f"error: {path}{message}\n"


class TestOracle:
    def test_default_modulus_agrees_with_exact_count(self, tmp_path):
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code, text = run(["--output", "json", "oracle", path])
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["orbit_count"] == 16 and doc["modulus"] == 16

    def test_torus_default_modulus_is_the_cokernel_exponent(self, tmp_path):
        doc = {"kind": "TORUS", "target": {"ranks": [2]}, "F": [[1, 0], [0, 1]],
               "G": [[7, 0], [0, 7]]}
        code, text = run(["--output", "json", "oracle", write_problem(tmp_path, doc)])
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["modulus"] == 6 and doc["orbit_count"] == 36

    def test_default_modulus_of_a_trivial_cokernel_is_two(self, tmp_path):
        path = str(bundled_fixture_dir() / "surface_times_sphere_pairs.json")  # R = 1
        unimodular = {"kind": "TORUS", "target": {"ranks": [2]}, "F": [[1, 0], [0, 1]],
                      "G": [[3, 1], [1, 1]]}  # G - F = [[2, 1], [1, 0]], det -1
        for argv in (path, write_problem(tmp_path, unimodular)):
            code, text = run(["--output", "json", "oracle", argv])
            assert code == EXIT_OK
            doc = json.loads(text)
            assert doc["modulus"] == 2 and doc["orbit_count"] == 1

    def test_infra_default_modulus_counts_holonomy_columns(self):
        # its orbit count is checked by test_default_modulus_counts_every_finite_fixture
        path = str(bundled_fixture_dir() / "klein_bottle_to_circle.json")
        code, text = run(["--output", "json", "oracle", path])
        assert code == EXIT_OK
        assert json.loads(text)["modulus"] == 2

    @pytest.mark.parametrize("name", [
        p.name for p in sorted(bundled_fixture_dir().glob("*.json"))
        if json.loads(p.read_text(encoding="utf-8"))["expected"]["R"] != "infinite"
        # the oracle enumerates m^rank elements: the rank-12 torus pair's
        # 60^12 are far past any cap (test_rank12_fixture_count_is_sympys)
        and sum(json.loads(p.read_text(encoding="utf-8"))["target"]["ranks"]) <= 8
    ])
    def test_default_modulus_counts_every_finite_fixture(self, name):
        path = bundled_fixture_dir() / name
        code, text = run(["--output", "json", "oracle", str(path)])
        assert code == EXIT_OK
        expected = json.loads(path.read_text(encoding="utf-8"))["expected"]["R"]
        assert json.loads(text)["orbit_count"] == expected

    @pytest.mark.parametrize("modulus", [[], ["--modulus", "2"]], ids=["default", "explicit"])
    def test_one_action_and_one_engine_per_run(self, monkeypatch, modulus):
        # the action is built once, and the default modulus comes from the
        # one engine that counts it, in one pass: `oracle` runs no `compute`
        calls = dict.fromkeys(("action", "engine", "result", "compute"), 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (nilco.cli, nilco.problems):
            for key, name in (("action", "validate_problem"), ("compute", "compute_report")):
                monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        for key, name in (("engine", "__init__"), ("result", "result")):
            monkeypatch.setattr(
                TwistedOrbitEngine, name, counted(key, getattr(TwistedOrbitEngine, name))
            )
        engines = 0 if modulus else 1
        expected = {"action": 1, "engine": engines, "result": engines, "compute": 0}
        for path in sorted(bundled_fixture_dir().glob("*.json")):
            if path.stem == "torus_rank12_dense":  # its quotient is past the cap
                continue
            calls.update(dict.fromkeys(calls, 0))
            assert run(["oracle", str(path), *modulus])[0] in (EXIT_OK, EXIT_ERROR), path.name
            assert calls == expected, path.name

    @pytest.mark.parametrize("command, name, line", [
        ("oracle", "heisenberg_sixteen", "orbits mod 16: 16\n"),
        ("oracle", "free3_to_heisenberg_kernel_fill", "orbits mod 9: 9\n"),
        ("compute", "free3_to_heisenberg_kernel_fill", None),
    ])
    def test_default_modulus_builds_the_generator_images_once(self, monkeypatch, command,
                                                              name, line):
        # the engine that gives the modulus holds the movers the count reads:
        # one generator_images call per map, not two.  A count on the general
        # path (a source wider than the target) reads them from the engine's
        # movers too, once per map
        images = nilco.lattice.LatticeHomomorphism.generator_images
        calls = []

        def counted(hom):
            calls.append(hom)
            return images(hom)

        monkeypatch.setattr(nilco.lattice.LatticeHomomorphism, "generator_images", counted)
        if line is None:
            line = (GOLDEN_DIR / "human" / f"{name}.txt").read_text(encoding="utf-8")
        path = str(bundled_fixture_dir() / f"{name}.json")
        assert run([command, path]) == (EXIT_OK, line)
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_explicit_modulus(self, tmp_path):
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code, text = run(["--output", "json", "oracle", path, "--modulus", "4"])
        assert code == EXIT_OK
        assert json.loads(text)["orbit_count"] == 16

    @pytest.mark.parametrize("modulus", ["2", "4", "6"])
    def test_infra_oracle_counts_holonomy_moves(self, modulus):
        path = str(bundled_fixture_dir() / "klein_bottle_to_circle.json")
        code, text = run(["--output", "json", "oracle", path, "--modulus", modulus])
        assert code == EXIT_OK
        assert json.loads(text)["orbit_count"] == 2  # the exact R, not the cover's 4


class TestValidateAndFixtures:
    def test_validate_ok(self, tmp_path):
        path = write_problem(tmp_path, HEISENBERG_DOC)
        code, text = run(["validate", path])
        assert code == EXIT_OK and "ok" in text

    @pytest.mark.parametrize("command", [["compute"], ["oracle", "--modulus", "2"], ["validate"]])
    def test_each_check_runs_once_per_file(self, monkeypatch, command):
        # bracket equivariance once per parsed map, the holonomy checks once
        # per INFRA file: each type checks itself when built, and no later
        # stage checks again
        calls = {"hom": 0, "infra": 0}
        validate_hom = nilco.lattice.validate_hom
        post_init = InfraStructure.__post_init__

        def counted_hom(hom):
            calls["hom"] += 1
            return validate_hom(hom)

        def counted_infra(infra):
            calls["infra"] += 1
            post_init(infra)

        monkeypatch.setattr(nilco.lattice, "validate_hom", counted_hom)
        monkeypatch.setattr(InfraStructure, "__post_init__", counted_infra)
        for path in sorted(bundled_fixture_dir().glob("*.json")):
            kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
            calls.update(hom=0, infra=0)
            assert run([command[0], str(path), *command[1:]])[0] == EXIT_OK, path.name
            assert calls["hom"] == (0 if kind == "PAIRS" else 2), path.name
            assert calls["infra"] == (kind == "INFRA"), path.name

    @pytest.mark.parametrize("command", [["compute"], ["oracle", "--modulus", "2"], ["validate"]])
    @pytest.mark.parametrize("name", ["heisenberg_pairs_mixed", "klein_bottle_to_circle"])
    def test_each_parsed_element_is_shape_checked_once(self, monkeypatch, command, name):
        # a pair element or holonomy image is shape-checked where it is
        # parsed, and the action holding it checks it no second time
        path = bundled_fixture_dir() / f"{name}.json"
        problem = parse_problem(str(path))
        elements = 2 * len(problem.action.pairs)
        checked = []
        check_shape = NilpotentLattice.check_shape

        def counted(lattice, coords):
            checked.append(lattice)
            check_shape(lattice, coords)

        monkeypatch.setattr(NilpotentLattice, "check_shape", counted)
        assert run([command[0], str(path), *command[1:]])[0] == EXIT_OK
        assert elements > 0 and checked.count(problem.action.target) == elements

    def test_console_script_and_module_entry_exit_with_the_code(self, monkeypatch, capsys):
        # the `nilco` console script (`entrypoint`) and `python -m nilco.cli`
        # both raise SystemExit with main's exit code
        fixture = str(bundled_fixture_dir() / "heisenberg_sixteen.json")
        monkeypatch.setattr(sys, "argv", ["nilco", "validate", fixture])
        # as under `python -m`, the module is not imported before it runs
        monkeypatch.delitem(sys.modules, "nilco.cli")
        for start in (nilco.cli.entrypoint,
                      lambda: runpy.run_module("nilco.cli", run_name="__main__")):
            with pytest.raises(SystemExit) as info:
                start()
            assert info.value.code == EXIT_OK
            assert "ok" in capsys.readouterr().out

    def test_bundled_fixtures_all_pass(self):
        code, text = run(["fixtures", "--check"])
        assert code == EXIT_OK
        lines = [l for l in text.strip().splitlines()]
        assert len(lines) == 9
        assert all(l.startswith("PASS") for l in lines)

    def test_fixture_directory_override_with_mismatch(self, tmp_path):
        doc = dict(HEISENBERG_DOC)
        doc["expected"] = {"R": 1}
        write_problem(tmp_path, doc, name="wrong.json")
        code, text = run(["fixtures", "--check", "--dir", str(tmp_path)])
        assert code == EXIT_MISMATCH and "FAIL" in text

    def test_unknown_expected_keys_are_schema_errors(self, tmp_path, capsys):
        # a misspelt key would check nothing, so `compute` rejects the file,
        # `fixtures --check` fails it, and both name every unknown key
        doc = json.loads((bundled_fixture_dir() / "torus_degree_two.json").read_text("utf-8"))
        doc["expected"] = {"r": 999, "deformeable": "yes"}
        path = write_problem(tmp_path, doc)
        assert run(["compute", path])[0] == EXIT_SCHEMA
        unknown = "expected: unknown key(s) 'deformeable', 'r'"
        assert unknown in capsys.readouterr().err
        code, text = run(["fixtures", "--check", "--dir", str(tmp_path)])
        assert code == EXIT_MISMATCH
        assert text.startswith("FAIL problem: ") and unknown in text

    def test_empty_directory_is_a_parse_error(self, tmp_path, capsys):
        assert run(["fixtures", "--dir", str(tmp_path)]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"no fixtures found in {tmp_path}\n"

    def test_a_count_that_raises_is_a_fail_line(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NILCO_MAX_ORDER", "99")
        write_problem(tmp_path, dict(heisenberg_period_pairs(100), name="past-the-cap"))
        code, text = run(["fixtures", "--dir", str(tmp_path)])
        assert code == EXIT_MISMATCH
        assert text == "FAIL past-the-cap: coset count 100 exceeds bound 99\n"

    def test_a_file_that_fails_to_parse_does_not_stop_the_run(self, tmp_path):
        # the unparsed file is named by its stem; the next file still runs
        doc = json.loads((bundled_fixture_dir() / "torus_degree_two.json").read_text("utf-8"))
        write_problem(tmp_path, doc, name="b_good.json")
        bad = write_problem(tmp_path, dict(doc, expected={"r": 2}), name="a_bad.json")
        code, text = run(["fixtures", "--check", "--dir", str(tmp_path)])
        assert code == EXIT_MISMATCH
        assert text.splitlines() == [
            f"FAIL a_bad: {bad}.expected: unknown key(s) 'r'",
            "PASS circle-degree-two-vs-constant: R=2 N=2 deformable=no",
        ]

    def test_empty_expected_block_fails_the_check(self, tmp_path):
        doc = json.loads((bundled_fixture_dir() / "torus_degree_two.json").read_text("utf-8"))
        doc["expected"] = {}
        write_problem(tmp_path, doc)
        code, text = run(["fixtures", "--check", "--dir", str(tmp_path)])
        assert code == EXIT_MISMATCH
        assert text == "FAIL circle-degree-two-vs-constant: no expected block\n"
        # without --check an empty block checks nothing and passes
        assert run(["fixtures", "--dir", str(tmp_path)])[0] == EXIT_OK

    def test_expected_lines_print_the_report_encoding(self, tmp_path, capsys):
        wrong = dict(HEISENBERG_DOC, name="wrong", expected={"R": 17, "N": 16})
        path = write_problem(tmp_path, wrong, name="wrong.json")
        assert run(["compute", path])[0] == EXIT_MISMATCH
        assert capsys.readouterr().err == "expected mismatch: R: expected 17, got 16\n"
        same = {
            "kind": "TORUS", "name": "same", "target": {"ranks": [1]}, "F": [[2]], "G": [[2]],
            "expected": {"R": "infinite", "N": 0, "deformable": "yes"},
        }
        write_problem(tmp_path, same, name="same.json")
        code, text = run(["fixtures", "--check", "--dir", str(tmp_path)])
        assert code == EXIT_MISMATCH
        assert text.splitlines() == [
            "PASS same: R=infinite N=0 deformable=yes",
            "FAIL wrong: R: expected 17, got 16",
        ]


# modules `nilco.cli` leaves unloaded: dataclasses brings inspect, ast and
# dis; importlib.resources and pathlib (with tempfile and zipfile) are
# loaded by `fixtures` alone, the one command that reads package files
UNLOADED = ("dataclasses", "inspect", "importlib.resources", "pathlib", "tempfile", "zipfile")


def plain_interpreter(script):
    """Run `script` in `python -S` (no `site`, so nothing is preloaded) with
    the package on PYTHONPATH; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(nilco.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportFootprint:
    def test_import_and_compute_leave_these_modules_unloaded(self):
        fixture = bundled_fixture_dir() / "klein_bottle_to_circle.json"
        loaded = plain_interpreter(
            "import io, sys\n"
            "import nilco.cli\n"
            f"print(*[m for m in {UNLOADED!r} if m in sys.modules])\n"
            f"assert nilco.cli.main(['compute', {str(fixture)!r}], out=io.StringIO()) == 0\n"
            f"print(*[m for m in {UNLOADED!r} if m in sys.modules])\n"
        )
        assert loaded == "\n\n"

    def test_fixtures_command_loads_package_files_itself(self):
        out = plain_interpreter(
            "import nilco.cli\n"
            "raise SystemExit(nilco.cli.main(['fixtures', '--check']))\n"
        )
        assert len(out.splitlines()) == 9 and out.startswith("PASS")


class TestParserReuse:
    def test_reused_parser_carries_no_state_between_calls(self, tmp_path, monkeypatch, capsys):
        # one sequence through the process's parser and again through a
        # parser built afresh for every call: the same codes and bytes
        path = write_problem(tmp_path, HEISENBERG_DOC)
        sequence = [
            ["--output", "json", "oracle", path, "--modulus", "4"],
            ["--output", "json", "oracle", path],  # the default modulus again
            ["fixtures", "--check"],
            ["fixtures"],
            ["--output", "json", "compute", path],
            ["compute", path],  # human output again
            ["oracle", path, "--modulus", "x"],
            ["validate", path],
            ["--help"],
            ["--help"],
            ["oracle", "--help"],
            ["frobnicate"],
        ]

        def outcomes():
            results = []
            for argv in sequence:
                code, text = run(argv)
                results.append((code, text, capsys.readouterr()))
            return results

        reused = outcomes()
        assert nilco.cli.build_parser.cache_info().currsize == 1
        monkeypatch.setattr(nilco.cli, "build_parser", nilco.cli.build_parser.__wrapped__)
        assert reused == outcomes()
        codes = [code for code, _, _ in reused]
        assert codes == [EXIT_OK] * 6 + [EXIT_PARSE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_PARSE]
        assert json.loads(reused[0][1])["modulus"] == 4
        assert json.loads(reused[1][1])["modulus"] == 16
        assert reused[8][1] == reused[9][1] and reused[8][1].startswith("usage: nilco")

    def test_the_parser_is_built_on_the_first_call_and_once(self):
        # import builds no parser (it would add to start-up); the first call
        # builds the tree of five parsers (nilco and its four commands) and
        # later calls build none
        fixture = bundled_fixture_dir() / "heisenberg_sixteen.json"
        counts = plain_interpreter(
            "import argparse, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import nilco.cli\n"
            "print(len(built))\n"
            f"for argv in (['validate', {str(fixture)!r}], ['compute', {str(fixture)!r}],"
            " ['--help']):\n"
            "    nilco.cli.main(argv, out=io.StringIO())\n"
            "    print(len(built))\n"
        )
        assert counts.split() == ["0", "5", "5", "5"]


class TestGoldenReports:
    def test_every_fixture_has_a_golden_report(self):
        fixtures = sorted(p.name for p in bundled_fixture_dir().iterdir() if p.name.endswith(".json"))
        assert fixtures == [p.name for p in GOLDEN_REPORTS]

    def test_rank12_fixture_count_is_sympys(self):
        # the one finite fixture the oracle cannot enumerate: R against the
        # invariant factors sympy finds for G - F, and one listed
        # representative per class
        path = bundled_fixture_dir() / "torus_rank12_dense.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        (F,), (G,) = doc["F"], doc["G"]
        delta = IntMatrix([[g - f for f, g in zip(rf, rg)] for rf, rg in zip(F, G)])
        assert sympy_cokernel_order(delta) == doc["expected"]["R"] == 360
        code, text = run(["--output", "json", "compute", str(path)])
        assert code == EXIT_OK
        assert len({str(rep) for rep in json.loads(text)["reps"]}) == 360

    @pytest.mark.parametrize("name", [p.name for p in GOLDEN_REPORTS])
    def test_json_report_is_byte_identical(self, name):
        # reps, fiber_counts and key order included, not only R, N and deformable
        code, text = run(["--output", "json", "compute", str(bundled_fixture_dir() / name)])
        assert code == EXIT_OK
        assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()

    @pytest.mark.parametrize("name", ["torus_degree_two", "torus_rank12_dense",
                                      "klein_bottle_to_circle"])
    def test_class1_compute_builds_no_generator_image(self, monkeypatch, name):
        # a class-1 count reads Delta_1 from the level matrices (and an INFRA
        # pair its holonomy pairs): no element per source generator is built
        def refuse(hom):
            raise AssertionError("generator images built for a class-1 count")

        monkeypatch.setattr(nilco.lattice.LatticeHomomorphism, "generator_images", refuse)
        code, text = run(["--output", "json", "compute", str(bundled_fixture_dir() / f"{name}.json")])
        assert code == EXIT_OK
        assert text.encode("utf-8") == (GOLDEN_DIR / f"{name}.json").read_bytes()

    @pytest.mark.parametrize("name", [p.stem for p in GOLDEN_REPORTS])
    def test_human_report_is_byte_identical(self, name):
        # the human `compute` output of every fixture, reps line included
        code, text = run(["compute", str(bundled_fixture_dir() / f"{name}.json")])
        assert code == EXIT_OK
        assert text.encode("utf-8") == (GOLDEN_DIR / "human" / f"{name}.txt").read_bytes()


def torus_doc(R):
    """A rank-1 TORUS pair with R(f,g) = R."""
    return {"kind": "TORUS", "target": {"ranks": [1]}, "F": [[R]], "G": [[0]]}


def random_boxes(rng, r1, r2, count, hi=4):
    """`count` random reps boxes (prefix, diagonal): class 1 (one box with
    an empty prefix) when r1 is None, else class-2 blocks ((a,), diagonal)
    with a level-1 vector a of rank r1 and a diagonal of length r2."""
    def diagonal(n):
        return tuple(rng.randint(1, hi) for _ in range(n))

    if r1 is None:
        return (((), diagonal(r2)),)
    return tuple(((tuple(rng.randint(0, 9) for _ in range(r1)),), diagonal(r2))
                 for _ in range(count))


class TestRepresentatives:
    """`reps` goes from the engine to the report bytes as boxes: the
    renderers must give `json.dumps` of the expanded list."""

    @pytest.mark.parametrize("sep", [",", ", "])
    @pytest.mark.parametrize(
        "r1, r2, count",
        [(None, 0, 1), (None, 1, 1), (None, 4, 1), (1, 1, 3), (2, 1, 5), (3, 3, 4), (2, 0, 3)],
        ids=["class1-rank0", "class1-rank1", "class1-rank4", "class2-(1,1)", "class2-(2,1)",
             "class2-(3,3)", "empty-level"],
    )
    def test_rendered_boxes_are_json_dumps_of_the_expanded_list(self, rng, sep, r1, r2, count):
        for hi in (1, 4):  # hi = 1: every diagonal entry 1, one class per box
            for _ in range(10):
                boxes = random_boxes(rng, r1, r2, count, hi)
                listed = [e.coordinates for e in expand_reps(boxes)]
                assert render_reps(boxes, sep) == json.dumps(listed, separators=(sep, ":"))

    @pytest.mark.parametrize("sep", [",", ", "])
    def test_torus_shaped_boxes(self, rng, sep):
        # a torus diagonal: long runs of 1-entries and a few entries up to 30
        # with a product R <= 1024, the last entry 1 in about half of them;
        # then the fixed shapes at the ends
        diagonals = [(1,) * 19 + (1024,), (1,) * 19 + (840,), (1,) * 20, (1024, 1, 1),
                     (2,) * 10, (1, 1, 30, 30, 1), (1,)]
        for _ in range(60):
            rank = rng.randint(1, 20)
            diagonal, R = [1] * rank, 1
            places = list(range(rank - rng.randint(0, 1)))
            for i in rng.sample(places, min(len(places), rng.randint(0, 3))):
                d = rng.randint(2, 30)
                if R * d <= 1024:
                    diagonal[i], R = d, R * d
            diagonals.append(tuple(diagonal))
        for diagonal in diagonals:
            boxes = (((), diagonal),)
            listed = [e.coordinates for e in expand_reps(boxes)]
            assert render_reps(boxes, sep) == json.dumps(listed, separators=(sep, ":"))

    @pytest.mark.parametrize("sep", [",", ", "])
    def test_listings_of_many_class2_boxes(self, rng, sep):
        # a class-2 listing: one box per level-1 class, mostly 1-entries
        for _ in range(20):
            r1, r2 = rng.randint(1, 4), rng.randint(0, 3)
            boxes = tuple(
                ((tuple(rng.randint(-9, 99) for _ in range(r1)),),
                 tuple(rng.choice((1, 1, 1, 2, 3, 7)) for _ in range(r2)))
                for _ in range(rng.randint(1, 60))
            )
            listed = [e.coordinates for e in expand_reps(boxes)]
            assert render_reps(boxes, sep) == json.dumps(listed, separators=(sep, ":"))

    def test_one_class(self):
        # R = 1: the all-ones diagonal lists the zero vector, an empty
        # diagonal the empty one
        assert render_reps((((), (1, 1, 1)),)) == "[[[0,0,0]]]"
        assert render_reps((((), ()),), ", ") == "[[[]]]"
        assert render_reps(((((2, 0),), ()),), ", ") == "[[[2, 0], []]]"

    def test_reps_are_the_last_key_of_a_report_with_every_optional_key(self, rng):
        boxes = random_boxes(rng, 2, 1, 3)
        doc = {
            "kind": "INFRA", "R": 6, "N": 6, "deformable": "no", "rationale": "EQ-THM",
            "exact": True, "infinite_level": None, "level_counts": [6],
            "cover": {"R": 12, "level_counts": [12], "infinite_level": None},
            "fiber_counts": [[2, 3]], "name": "every key", "reps": boxes,
        }
        text = canonical_json(doc)
        assert text.index('"reps":') > max(text.index(f'"{key}":') for key in doc if key != "reps")
        assert text.endswith(f',"reps":{render_reps(boxes)}}}\n')
        expanded = dict(doc, reps=[e.coordinates for e in expand_reps(boxes)])
        assert text == json.dumps(expanded, sort_keys=True, separators=(",", ":")) + "\n"
        assert "reps" in doc  # the caller's document is left as it was

    @pytest.mark.parametrize("R, listed", [(64, True), (65, False)])
    def test_human_output_lists_at_most_64_classes(self, tmp_path, R, listed):
        code, text = run(["compute", write_problem(tmp_path, torus_doc(R))])
        assert code == EXIT_OK and f"R(f,g) = {R}\n" in text
        line = "  class representatives: " + json.dumps([[[x]] for x in range(R)]) + "\n"
        assert (line in text) is listed
        assert ("class representatives" in text) is listed

    @pytest.mark.parametrize("R, listed", [(1024, True), (1025, False)])
    def test_json_output_lists_at_most_1024_classes(self, tmp_path, R, listed):
        code, text = run(["--output", "json", "compute", write_problem(tmp_path, torus_doc(R))])
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["R"] == R
        assert doc.get("reps") == ([[[x]] for x in range(R)] if listed else None)

    def test_target_without_a_centre_lists_both_levels(self, tmp_path):
        # ranks (2, 0): both levels are counted, the second with a trivial
        # fiber, and every representative carries an empty second level,
        # whether the pair is given by maps or by generator pairs
        for name, doc in (("maps", NO_CENTRE_MAPS), ("pairs", NO_CENTRE_PAIRS)):
            path = write_problem(tmp_path, doc, f"{name}.json")
            code, text = run(["--output", "json", "compute", path])
            assert code == EXIT_OK and text.endswith(',"reps":[[[0,0],[]],[[1,0],[]]]}\n')
            assert '"level_counts":[2,1],' in text and '"fiber_counts":[[1,2]],' in text, name
            code, text = run(["compute", path])
            assert code == EXIT_OK
            assert "  class representatives: [[[0, 0], []], [[1, 0], []]]\n" in text
            code, text = run(["--output", "json", "oracle", path])
            assert code == EXIT_OK and json.loads(text)["orbit_count"] == 2
        path = write_problem(tmp_path, NO_CENTRE_INFINITE, "infinite.json")
        code, text = run(["--output", "json", "compute", path])
        assert code == EXIT_OK and '"level_counts":["infinite","infinite"],' in text


class TestRoundTrip:
    def test_serialize_parse_is_stable(self):
        for path in sorted(bundled_fixture_dir().glob("*.json")):
            problem = parse_problem(str(path))
            doc = serialize_problem(problem)
            reparsed = parse_problem_dict(doc)
            assert serialize_problem(reparsed) == doc
            assert canonical_json(doc) == canonical_json(serialize_problem(reparsed))

    def test_integer_coordinates_are_converted_once(self, monkeypatch):
        # a coordinate list of JSON integers goes to `lattice.element`, which
        # checks it, as it is: only a list with a decimal string (or a bad
        # entry) goes through `_as_int`, entry by entry
        seen = []
        as_int = nilco.problems._as_int

        def recorded(value, where):
            seen.append(where)
            return as_int(value, where)

        monkeypatch.setattr(nilco.problems, "_as_int", recorded)
        doc = {"kind": "PAIRS", "target": {"ranks": [2]},
               "pairs": [[[[1, "12"]], [[0, 0]]], [[[3, 4]], [[5, -6]]]]}
        action = parse_problem_dict(doc).action
        assert action.movers[0][0].coordinates == ((1, 12),)
        assert action.movers[1][1].coordinates == ((5, -6),)
        assert [where for where in seen if ".pairs" in where] == ["problem.pairs[0][0]"] * 2

    def test_booleans_are_not_integers(self):
        with pytest.raises(SchemaError):
            parse_problem_dict(
                {"kind": "TORUS", "target": {"ranks": [True]}, "F": [[1]], "G": [[0]]}
            )


# the last two are a ragged matrix and a matrix with a row that is not a list
FUZZ_VALUES = (None, -1, 0, 10**20, "x", [], {}, 1.5, True, [[1]], [[1, 2], [3]], [[1], 2])


def _json_paths(node, path=()):
    """Every node of a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _json_paths(child, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[head] = _replaced(doc[head], rest, value)
    return out


def _structural_paths(node, path=()):
    """The structural nodes of a JSON document, as key paths: the root,
    every object value and every list that holds a list or an object, so
    every node but the matrix rows and coordinate vectors in a list and
    their entries."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(node, dict) or isinstance(child, dict) or (
                isinstance(child, list) and any(isinstance(x, (list, dict)) for x in child)):
            yield from _structural_paths(child, path + (key,))


def _check_exit_codes(path, doc):
    """Write `doc` to `path` and run compute, oracle and validate on it: each
    ends with an exit code, never a traceback, and validate and compute
    agree on exit codes 2, 3 and 4."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    codes = {}
    for command in ("compute", "oracle", "validate"):
        codes[command], _ = run(["--output", "json", command, path])
        assert EXIT_OK <= codes[command] <= EXIT_MISMATCH, (command, doc)
    # validate rejects exactly the files that compute cannot read or
    # refuses for their class
    if {codes["compute"], codes["validate"]} & {EXIT_PARSE, EXIT_SCHEMA, EXIT_UNSUPPORTED}:
        assert codes["compute"] == codes["validate"], doc


class TestFuzz:
    def test_mutated_fixtures_exit_with_a_documented_code(self, tmp_path, monkeypatch):
        # 400 fixture documents with one or two nodes replaced by a value of
        # the wrong type or range; each run ends with an exit code, never a
        # traceback, and validate and compute agree on exit codes 2, 3 and 4
        monkeypatch.setenv("NILCO_MAX_ORDER", "20000")
        rng = random.Random(0xF022)
        fixtures = [
            json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(bundled_fixture_dir().glob("*.json"))
        ]
        path = str(tmp_path / "mutant.json")
        for n in range(400):
            doc = fixtures[n % len(fixtures)]
            for _ in range(rng.randint(1, 2)):
                # a depth first, then a node at that depth, so that the few
                # structural fields are hit as often as the many matrix entries
                paths = list(_json_paths(doc))
                depth = rng.choice(sorted({len(p) for p in paths}))
                node = rng.choice([p for p in paths if len(p) == depth])
                doc = _replaced(doc, node, rng.choice(FUZZ_VALUES))
            _check_exit_codes(path, doc)

    def test_each_structural_node_replaced_exits_with_a_documented_code(
            self, tmp_path, monkeypatch):
        # every structural node of every fixture set to each value in turn,
        # under the rules above: no parser error line depends on the draw
        monkeypatch.setenv("NILCO_MAX_ORDER", "20000")
        path = str(tmp_path / "mutant.json")
        for fixture in sorted(bundled_fixture_dir().glob("*.json")):
            doc = json.loads(fixture.read_text(encoding="utf-8"))
            for node in _structural_paths(doc):
                for value in (None, 0, "x", {}, []):
                    _check_exit_codes(path, _replaced(doc, node, value))
