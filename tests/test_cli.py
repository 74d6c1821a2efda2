"""Command-line front end: parsing, dispatch, output formats, exit codes."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nilco
import nilco.cli
import nilco.lattice
import nilco.problems

from conftest import heisenberg_period_pairs, serialize_problem, sympy_cokernel_order
from nilco.cli import (
    EXIT_BOUND,
    EXIT_ERROR,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_UNSUPPORTED,
    bundled_fixture_dir,
    main,
)
from nilco.infra import InfraStructure
from nilco.intmat import IntMatrix
from nilco.problems import (
    SchemaError,
    canonical_json,
    parse_problem,
    parse_problem_dict,
)
from nilco.reidemeister import TwistedOrbitEngine

# canonical `--output json compute` bytes of each bundled fixture
GOLDEN_DIR = Path(__file__).parent / "golden"

HEISENBERG_DOC = {
    "kind": "NILMANIFOLD",
    "target": {"class": 2, "ranks": [2, 1], "brackets": [[[0, 1], [0, 0]]]},
    "F": [[[2, 0], [0, 2]], [[4]]],
    "G": [[[0, 0], [0, 0]], [[0]]],
}


# class-3 pairs into the target of ranks (2, 1, 1): the (3, 1, 1) source's
# G1 - F1 has a kernel, so its count is only bounded, in [1, 6]; the square
# pair's count is exact, R = 4 * 4 * 8
CLASS3_KERNEL_DOC = {
    "kind": "NILMANIFOLD",
    "source": {"ranks": [3, 1, 1]},
    "target": {"ranks": [2, 1, 1]},
    "F": [[[1, 0, 0], [0, 1, 0]], [[2]], [[3]]],
    "G": [[[0, 0, 0], [0, 0, 0]], [[0]], [[0]]],
}
CLASS3_EXACT_DOC = {
    "kind": "NILMANIFOLD",
    "target": {"ranks": [2, 1, 1]},
    "F": [[[2, 0], [0, 2]], [[4]], [[8]]],
    "G": [[[0, 0], [0, 0]], [[0]], [[0]]],
}
# an INFRA pair whose cover count is inexact too: the cover R is null
CLASS3_INFRA_DOC = {
    "kind": "INFRA",
    "target": {"ranks": [2, 1, 1]},
    "F": [[[2, 0, 0], [0, 2, 0]], [[2]], [[3]]],
    "G": [[[0, 0, 0], [0, 0, 0]], [[0]], [[0]]],
    "infra": {
        "cover": {"ranks": [3, 1, 1]},
        "holonomy_order": 2,
        "coset_actions": [{"matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, -1]], [[1]], [[1]]]}],
        "map_images": [[[[0, 0], [0], [0]], [[0, 0], [0], [0]]]],
    },
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

    def test_human_output_prints_no_python_none(self, tmp_path):
        # every null of the JSON report reads `unknown` in human output
        docs = [CLASS3_KERNEL_DOC, CLASS3_INFRA_DOC]
        paths = [write_problem(tmp_path, doc, name=f"{i}.json") for i, doc in enumerate(docs)]
        paths += [str(p) for p in sorted(bundled_fixture_dir().glob("*.json"))]
        texts = []
        for path in paths:
            code, text = run(["compute", path])
            assert code == EXIT_OK and "None" not in text, path
            texts.append(text)
        assert "R(f,g) in [1, 6]" in texts[0] and "N(f,g) = unknown" in texts[0]
        assert "N(f,g) = unknown" in texts[1] and "cover R = unknown" in texts[1]
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_problem(corpus, dict(CLASS3_KERNEL_DOC, expected={"deformable": "no"}))
        code, text = run(["fixtures", "--dir", str(corpus)])
        assert code == EXIT_OK
        assert text == "PASS problem: R=unknown N=unknown deformable=no\n"

    def test_expected_block_may_state_a_null_count(self, tmp_path, capsys):
        # an expected block encodes the R and N of an inexact count as the
        # report does, as null
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        expected = {"R": None, "N": None, "deformable": "no"}
        path = write_problem(corpus, dict(CLASS3_KERNEL_DOC, expected=expected))
        assert run(["compute", path])[0] == EXIT_OK
        code, text = run(["fixtures", "--check", "--dir", str(corpus)])
        assert code == EXIT_OK
        assert text == "PASS problem: R=unknown N=unknown deformable=no\n"
        # an exact count does not match a null, which the message prints as
        # human output does
        path = write_problem(tmp_path, dict(HEISENBERG_DOC, expected={"N": None}))
        assert run(["compute", path])[0] == EXIT_MISMATCH
        assert capsys.readouterr().err == "expected mismatch: N: expected unknown, got 16\n"

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
        ],
        ids=["json-number", "decimal-string", "long-R"],
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


class TestExitCodes:
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

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert run(["compute", str(path)])[0] == EXIT_PARSE

    def test_json_nested_too_deep_is_a_parse_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert run(["compute", str(path)])[0] == EXIT_PARSE

    def test_unsupported_class(self, tmp_path):
        doc = {
            "kind": "PAIRS",
            "target": {"class": 3, "ranks": [1, 1, 1]},
            "pairs": [[[[1], [0], [0]], [[0], [0], [0]]]],
        }
        code, _ = run(["compute", write_problem(tmp_path, doc)])
        assert code == EXIT_UNSUPPORTED

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
        (dict(CLASS3_INFRA_DOC, infra={"holonomy_order": 1}), ".infra: missing 'cover'"),
        (dict(CLASS3_INFRA_DOC, infra=dict(CLASS3_INFRA_DOC["infra"], map_images=[5])),
         ".infra.map_images[0]: expected [f, g] coordinates"),
        ({k: v for k, v in CLASS3_INFRA_DOC.items() if k != "G"}, ": missing 'G' (cover pair)"),
    ], ids=["target", "torus-class", "F", "pairs-entry", "cover", "map-images-entry", "G-cover"])
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

    @pytest.mark.parametrize("doc", [CLASS3_KERNEL_DOC, CLASS3_EXACT_DOC],
                             ids=["inexact", "exact"])
    def test_class3_target_is_unsupported(self, tmp_path, capsys, doc):
        # the class is checked before the count, whether it is exact or not
        path = write_problem(tmp_path, doc)
        assert run(["oracle", path])[0] == EXIT_UNSUPPORTED
        assert run(["oracle", path, "--modulus", "2"])[0] == EXIT_UNSUPPORTED
        assert "class 3" in capsys.readouterr().err

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

    def test_a_count_that_raises_is_a_fail_line(self, tmp_path):
        doc = {
            "kind": "PAIRS", "name": "class-three",
            "target": {"class": 3, "ranks": [1, 1, 1]},
            "pairs": [[[[1], [0], [0]], [[0], [0], [0]]]],
        }
        write_problem(tmp_path, doc)
        code, text = run(["fixtures", "--dir", str(tmp_path)])
        assert code == EXIT_MISMATCH
        assert text == "FAIL class-three: orbit engine requires class <= 2, got class 3\n"

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


class TestGoldenReports:
    def test_every_fixture_has_a_golden_report(self):
        fixtures = sorted(p.name for p in bundled_fixture_dir().iterdir() if p.name.endswith(".json"))
        assert fixtures == sorted(p.name for p in GOLDEN_DIR.glob("*.json"))

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

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.json")))
    def test_json_report_is_byte_identical(self, name):
        # reps, fiber_counts and key order included, not only R, N and deformable
        code, text = run(["--output", "json", "compute", str(bundled_fixture_dir() / name)])
        assert code == EXIT_OK
        assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_DIR.glob("*.json")))
    def test_human_report_is_byte_identical(self, name):
        # the human `compute` output of every fixture, reps line included
        code, text = run(["compute", str(bundled_fixture_dir() / f"{name}.json")])
        assert code == EXIT_OK
        assert text.encode("utf-8") == (GOLDEN_DIR / "human" / f"{name}.txt").read_bytes()


class TestRoundTrip:
    def test_serialize_parse_is_stable(self):
        for path in sorted(bundled_fixture_dir().glob("*.json")):
            problem = parse_problem(str(path))
            doc = serialize_problem(problem)
            reparsed = parse_problem_dict(doc)
            assert serialize_problem(reparsed) == doc
            assert canonical_json(doc) == canonical_json(serialize_problem(reparsed))

    def test_booleans_are_not_integers(self):
        with pytest.raises(SchemaError):
            parse_problem_dict(
                {"kind": "TORUS", "target": {"ranks": [True]}, "F": [[1]], "G": [[0]]}
            )


FUZZ_VALUES = (None, -1, 0, 10**20, "x", [], {}, 1.5, True, [[1]])


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


class TestFuzz:
    def test_mutated_fixtures_exit_with_a_documented_code(self, tmp_path, monkeypatch):
        # 400 fixture documents with one or two nodes replaced by a value of
        # the wrong type or range; each run ends with an exit code, never a
        # traceback, and validate and compute agree on exit codes 2 and 3
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
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            codes = {}
            for command in ("compute", "oracle", "validate"):
                codes[command], _ = run(["--output", "json", command, path])
                assert EXIT_OK <= codes[command] <= EXIT_MISMATCH, (command, doc)
            # validate rejects exactly the files that compute cannot read
            if {codes["compute"], codes["validate"]} & {EXIT_PARSE, EXIT_SCHEMA}:
                assert codes["compute"] == codes["validate"], doc
