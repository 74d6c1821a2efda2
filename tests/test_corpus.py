"""Golden corpus: about 500 seeded problems, each pinned by hashes of what
nilco answers for it.

A line of tests/golden/corpus.jsonl names a generator and a seed (and, for
a benchmark family, the index of the problem in the family's pass) and
holds the exit code and the SHA-256 of the problem's `--output json
compute` document.  On a nonzero exit it also holds the SHA-256 of the
error message, with the problem file's path written as `problem.json`, so
it pins which refusal the problem gets.  For a finite count it holds the
SHA-256 of `TwistedOrbitEngine.label`'s (representative, witness) pairs for
three elements drawn from the seed.  The problems are rebuilt here from
their generator and seed, so the file holds no problem data.

The generators are the four families of bench/gen.py and random TORUS,
NILMANIFOLD, PAIRS and INFRA problems built from the conftest helpers, and
class-3 problem documents, which nilco refuses (exit 4).  After an intended change of output, rewrite the corpus with

    PYTHONPATH=src python tests/test_corpus.py > tests/golden/corpus.jsonl

and say in the change's notes which lines changed and why.
"""

import hashlib
import io
import json
import random
import runpy
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from conftest import (
    free_class2,
    heisenberg,
    heisenberg_squared,
    random_element,
    random_klein_like_infra,
    random_matrix,
    serialize_problem,
    torus,
)
from nilco.cli import main
from nilco.infra import infra_action
from nilco.intmat import IntMatrix
from nilco.lattice import LatticeHomomorphism
from nilco.problems import ProblemFile, parse_problem_dict, validate_problem
from nilco.reidemeister import TwistedAction, TwistedOrbitEngine

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.jsonl"

BENCH_SEED = 1
RANDOM_SEEDS = range(40)


def _hom(source, target, M1):
    """The homomorphism with level-1 matrix M1.  Each central coordinate of
    a class-2 source is the bracket of a pair of source generators, so its
    image is the target bracket of their images."""
    if source.class_c == 1:
        return LatticeHomomorphism(source, target, (M1,))
    units = [tuple(int(i == j) for i in range(source.ranks[0])) for j in range(source.ranks[0])]
    cols = {}
    for i, u in enumerate(units):
        for j in range(i + 1, len(units)):
            col = source.bracket(u, units[j])
            if col.count(0) == len(col) - 1 and 1 in col:
                cols.setdefault(col.index(1), target.bracket(M1.column(i), M1.column(j)))
    M2 = IntMatrix.from_columns([cols[k] for k in range(source.ranks[1])], target.ranks[1])
    return LatticeHomomorphism(source, target, (M1, M2))


def _block_pair(rng):
    """Level-1 matrix of a map of H x H that keeps the two Heisenberg
    factors apart: two 2 x 2 blocks, on the diagonal or swapped."""
    A, B = (random_matrix(rng, 2, 2, -3, 3).data for _ in range(2))
    z = [0, 0]
    if rng.random() < 0.5:
        return IntMatrix([list(A[0]) + z, list(A[1]) + z, z + list(B[0]), z + list(B[1])])
    return IntMatrix([z + list(A[0]), z + list(A[1]), list(B[0]) + z, list(B[1]) + z])


def random_torus(rng):
    n = rng.randint(1, 5)
    m = max(1, rng.choice((n, n, n - 1, n + 1)))
    F = random_matrix(rng, n, m, -4, 4)
    G = random_matrix(rng, n, m, -4, 4)
    if rng.random() < 0.15:  # G - F with a zero last row: R is infinite
        G = IntMatrix([list(r) for r in G.data[:-1]] + [list(F.data[-1])], shape=(n, m))
    phi = LatticeHomomorphism(torus(m), torus(n), (F,))
    psi = LatticeHomomorphism(torus(m), torus(n), (G,))
    return ProblemFile(kind="TORUS", name=None, action=TwistedAction.from_homs(phi, psi))


def random_nilmanifold(rng):
    target = rng.choice((heisenberg(), heisenberg(), free_class2(3), heisenberg_squared()))
    if target.ranks[0] == 4:
        source = target
        M1, N1 = _block_pair(rng), _block_pair(rng)
    else:
        source = rng.choice((target, free_class2(3)))
        M1, N1 = (random_matrix(rng, target.ranks[0], source.ranks[0], -3, 3) for _ in range(2))
    action = TwistedAction.from_homs(_hom(source, target, M1), _hom(source, target, N1))
    return ProblemFile(kind="NILMANIFOLD", name=None, action=action)


def random_pairs(rng):
    target = rng.choice(
        (torus(2), torus(3), heisenberg(), heisenberg(), free_class2(3), heisenberg_squared())
    )
    pairs = [
        (random_element(rng, target, -3, 3), random_element(rng, target, -3, 3))
        for _ in range(rng.randint(target.ranks[0], target.ranks[0] + 2))
    ]
    return ProblemFile(kind="PAIRS", name=None, action=TwistedAction(target, pairs))


def random_infra(rng):
    infra, phi, psi = random_klein_like_infra(rng)
    return ProblemFile(kind="INFRA", name=None, action=infra_action(infra, phi, psi), infra=infra)


def random_class3(rng):
    """The document of a pair into ranks (2, 1, 1) from a source of ranks
    (2, 1, 1) or (3, 1, 1).  nilco has no group law to check such a map
    against and refuses it, so the document is written here, not built."""
    target = {"class": 3, "ranks": [2, 1, 1]}
    source = {"class": 3, "ranks": [rng.choice((2, 3)), 1, 1]}
    F, G = (
        [[list(row) for row in random_matrix(rng, r, s, -3, 3).data]
         for r, s in zip(target["ranks"], source["ranks"])]
        for _ in range(2)
    )
    doc = {"kind": "NILMANIFOLD", "target": target, "F": F, "G": G}
    return doc if source == target else dict(doc, source=source)


RANDOM_GENERATORS = {
    "torus": random_torus,
    "nilmanifold": random_nilmanifold,
    "pairs": random_pairs,
    "infra": random_infra,
    "class3": random_class3,
}
BENCH_WORKLOADS = ("torus-snf", "class2-count", "infra-merge", "oracle-xcheck")
GENERATORS = tuple(f"bench:{w}" for w in BENCH_WORKLOADS) + tuple(RANDOM_GENERATORS)


def problems(generator):
    """(seed, index, problem document) of every corpus problem of one
    generator; index is None outside the benchmark families.  A random
    generator returns a ProblemFile, or the document of one nilco refuses."""
    if generator.startswith("bench:"):
        generate = runpy.run_path(str(ROOT / "bench" / "gen.py"))["generate"]
        ops = generate(generator[len("bench:"):], BENCH_SEED)
        return [(BENCH_SEED, i, op["doc"]) for i, op in enumerate(ops) if "doc" in op]
    build = RANDOM_GENERATORS[generator]
    built = [(seed, build(random.Random(f"{generator}:{seed}"))) for seed in RANDOM_SEEDS]
    return [(seed, None, p if isinstance(p, dict) else serialize_problem(p)) for seed, p in built]


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _labels(doc, report, rng):
    """Hash of label's (representative, witness) pairs on three elements,
    for a finite count; None otherwise."""
    if not isinstance(report["R"], int):
        return None
    problem = parse_problem_dict(doc)
    engine = TwistedOrbitEngine(validate_problem(problem))
    pairs = []
    for _ in range(3):
        rep, witness = engine.label(random_element(rng, problem.action.target, -9, 9))
        pairs.append([[list(x) for x in rep.coordinates], [list(x) for x in witness]])
    return _sha(json.dumps(pairs))


def compute(path, doc):
    """Write `doc` to `path` and run `--output json compute` on it in process:
    (exit code, stdout, stderr)."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = main(["--output", "json", "compute", str(path)], out)
    return code, out.getvalue(), err.getvalue()


def corpus_line(path, generator, seed, index, doc, computed):
    """The corpus line of a problem from `computed`, what `compute(path, doc)`
    returned for it."""
    code, out, err = computed
    line = {"generator": generator, "seed": seed}
    if index is not None:
        line["index"] = index
    line["exit"] = code
    line["compute"] = _sha(out)
    if code != 0:
        line["error"] = _sha(err.replace(str(path), "problem.json"))
    else:
        rng = random.Random(f"{generator}:{seed}:{index}:labels")
        labels = _labels(doc, json.loads(out), rng)
        if labels is not None:
            line["labels"] = labels
    return line


def _stored(generator):
    lines = [json.loads(s) for s in CORPUS.read_text(encoding="utf-8").splitlines()]
    return [line for line in lines if line["generator"] == generator]


@pytest.mark.parametrize("generator", GENERATORS)
def test_answers_match_the_corpus(corpus_answers, generator):
    stored = _stored(generator)
    fresh = [line for line, _ in corpus_answers[generator]]
    assert len(fresh) == len(stored)
    changed = [(new["seed"], new.get("index")) for new, old in zip(fresh, stored) if new != old]
    assert not changed, f"{len(changed)} of {len(fresh)} answers changed, first {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "problem.json"
        for generator in GENERATORS:
            for seed, index, doc in problems(generator):
                computed = compute(target, doc)
                print(json.dumps(corpus_line(target, generator, seed, index, doc, computed)))
