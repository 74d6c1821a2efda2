"""Oracle ledger: how the brute-force oracle covers each corpus answer.

For every problem of the golden corpus (`test_corpus.problems`) this runs
`compute`, then `oracle` at its default modulus, both in process under the
default enumeration cap, and puts the problem in one column:

    oracle    the orbit count equals the finite R
    capped    the quotient is past the cap: `oracle` exits 5
    infinite  R is infinite, and `oracle` exits 1 (no finite modulus)
    refused   `compute` and `oracle` both exit 3, or both exit 4

Any other outcome, a count that differs from R first of all, is a
disagreement.  The ledger is the number of problems per generator and
column, as sorted JSON; tests/test_oracle.py compares it with the committed
tests/golden/ledger.json.  Both read the columns from `answers`, whose one
`compute` per problem also gives the problem's corpus line, so tier 1
computes each corpus problem once for the corpus test and the ledger.  Run

    PYTHONPATH=src python tests/check_ledger.py > tests/golden/ledger.json

to print it; the run exits 1, naming each disagreement on stderr, if any.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from test_corpus import GENERATORS, compute, corpus_line, problems

from nilco.cli import main

COLUMNS = ("oracle", "capped", "infinite", "refused")


def _run(argv):
    """Exit code and parsed JSON document (None on an error) of one command."""
    out = io.StringIO()
    with redirect_stderr(io.StringIO()):
        code = main(["--output", "json", *argv], out)
    return code, json.loads(out.getvalue()) if code == 0 else None


def classify(path, code, report):
    """The ledger column of the problem in `path`, given the exit code and
    JSON report (None on an error) of its `compute`; None for a
    disagreement."""
    oracle_code, oracle = _run(["oracle", str(path)])
    if code == 0 and isinstance(report["R"], int):
        if oracle_code == 0 and oracle["orbit_count"] == report["R"]:
            return "oracle"
        return "capped" if oracle_code == 5 else None
    if code == 0:
        return "infinite" if oracle_code == 1 else None
    return "refused" if code == oracle_code and code in (3, 4) else None


def answers(path, generator):
    """(corpus line, (seed, index, ledger column)) of every problem of
    `generator`, from one `compute` per problem: the pass that the corpus
    test and the ledger test share."""
    out = []
    for seed, index, doc in problems(generator):
        computed = compute(path, doc)
        code, text, _ = computed
        column = classify(path, code, json.loads(text) if code == 0 else None)
        line = corpus_line(path, generator, seed, index, doc, computed)
        out.append((line, (seed, index, column)))
    return out


def ledger(columns):
    """(counts per generator and column, (generator, seed, index) of each
    disagreement), from the (seed, index, column) of every problem, by
    generator."""
    counts, disagreements = {}, []
    for generator, problem_columns in columns.items():
        row = counts[generator] = dict.fromkeys(COLUMNS, 0)
        for seed, index, column in problem_columns:
            if column is None:
                disagreements.append((generator, seed, index))
            else:
                row[column] += 1
    return counts, disagreements


def render(counts):
    return json.dumps(counts, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        counts, disagreements = ledger(
            {g: [column for _, column in answers(path, g)] for g in GENERATORS})
    sys.stdout.write(render(counts))
    for problem in disagreements:
        print(f"disagreement: {problem}", file=sys.stderr)
    sys.exit(1 if disagreements else 0)
