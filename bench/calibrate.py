"""One-off calibration: rerun the five baselines ROADMAP records for the
parent code, and store the measurements next to ROADMAP's figures.

    python3 bench/calibrate.py [--out bench/calibration.json]

Not part of the gated benchmark.  Each case runs in its own fresh
interpreter, so that its peak RSS is its own, and is stopped after
CASE_LIMIT_S seconds; a stopped case is recorded as such.  Takes two
minutes at most.
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CASE_LIMIT_S = 60

PRELUDE = """
import json, math, random, resource, sys, time, tracemalloc
sys.path.insert(0, "src")
sys.path.insert(0, "bench")
from nilco.intmat import IntMatrix, determinant, smith_normal_form
from nilco.lattice import LatticeHomomorphism, NilpotentLattice
from nilco.oracle import cokernel_oracle
from nilco.reidemeister import TwistedAction, TwistedOrbitEngine, coincidence_invariants

H = NilpotentLattice(ranks=(2, 1), brackets=(IntMatrix([[0, 1], [0, 0]]),))


def heis_map(M1):
    M1 = IntMatrix(M1)
    return LatticeHomomorphism(H, H, (M1, IntMatrix([[determinant(M1)]])))


def timed(fn, repeat=1):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, out


def random40():
    rng = random.Random(40)
    return IntMatrix([[rng.randint(-10**6, 10**6) for _ in range(40)] for _ in range(40)])


def emit(**fields):
    fields["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(fields))
"""

CASES = {
    "det85_oracle": (
        "cokernel_oracle on a 3x3 matrix with det 85 (614,125 elements)",
        "8.2 s",
        """
A = IntMatrix([[5, 1, 0], [0, 17, 0], [2, 3, 1]])
assert determinant(A) == 85
seconds, count = timed(lambda: cokernel_oracle(A))
assert count == 85
emit(seconds=seconds, elements=85 ** 3)
""",
    ),
    "det40": (
        "determinant of a 40x40 matrix, entries uniform in +-1e6 (random.Random(40))",
        "17 ms",
        """
seconds, det = timed(lambda: determinant(random40()), repeat=5)
emit(seconds=seconds, det_bits=abs(det).bit_length())
""",
    ),
    "snf40": (
        "smith_normal_form of the same 40x40 matrix, stopped after 60 s",
        "2.0 s",
        """
A = random40()
seconds, snf = timed(lambda: smith_normal_form(A))
assert math.prod(snf.invariant_factors) == abs(determinant(A))
bits = max(abs(x).bit_length() for M in (snf.U, snf.V) for row in M.data for x in row)
emit(seconds=seconds, transform_bits_max=bits)
""",
    ),
    "label": (
        "TwistedOrbitEngine.label per call: Heisenberg 2I vs 0, 200 elements with entries in +-10",
        "7.7 ms per call",
        """
engine = TwistedOrbitEngine(TwistedAction.from_homs(heis_map([[2, 0], [0, 2]]), heis_map([[0, 0], [0, 0]])))
rng = random.Random(4242)
elements = [H.element(((rng.randint(-10, 10), rng.randint(-10, 10)), (rng.randint(-10, 10),)))
            for _ in range(200)]
seconds, _ = timed(lambda: [engine.label(u) for u in elements], repeat=3)
emit(seconds_per_call=seconds / len(elements), calls=len(elements))
""",
    ),
    "heisenberg_1000": (
        "coincidence_invariants for Heisenberg 1000*I vs 0 (10^6 level-1 classes)",
        "0.24 s and 110 MB",
        """
phi, psi = heis_map([[1000, 0], [0, 1000]]), heis_map([[0, 0], [0, 0]])
seconds, report = timed(lambda: coincidence_invariants(phi, psi))
assert report.R.count == 1000 ** 4
del report
tracemalloc.start()
coincidence_invariants(phi, psi)
traced_peak = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
emit(seconds=seconds, tracemalloc_peak_mib=traced_peak)
""",
    ),
    "class2_42_elements": (
        "coincidence_invariants on a class-2 (4,2) case, H x H with diag(2A, 3B) vs 0, "
        "counting element() calls",
        "27 ms and 2,322 element() calls",
        """
from tracer import Tracer
H2 = NilpotentLattice(ranks=(4, 2), brackets=(
    IntMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    IntMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])))
F = LatticeHomomorphism(H2, H2, (IntMatrix([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 1, 3]]),
                                 IntMatrix([[4, 0], [0, 9]])))
G = LatticeHomomorphism(H2, H2, (IntMatrix([[0] * 4] * 4), IntMatrix([[0, 0], [0, 0]])))
seconds, report = timed(lambda: coincidence_invariants(F, G), repeat=5)
assert report.R.count == (4 * 9) * (4 * 9)
tracer = Tracer()
tracer.install()
coincidence_invariants(F, G)
tracer.uninstall()
emit(seconds=seconds, element_calls=tracer.calls()["lattice.element"], R=report.R.count)
""",
    ),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(BENCH / "calibration.json"))
    args = parser.parse_args()
    results = []
    for name, (what, roadmap, body) in CASES.items():
        try:
            proc = subprocess.run([sys.executable, "-c", PRELUDE + body], cwd=ROOT,
                                  capture_output=True, text=True, timeout=CASE_LIMIT_S)
        except subprocess.TimeoutExpired:
            measured = {"stopped_after_s": CASE_LIMIT_S}
        else:
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            measured = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"name": name, "case": what, "roadmap": roadmap, "measured": measured})
        print(f"{name}: roadmap {roadmap}; measured {json.dumps(measured)}")
    doc = {
        "machine": {"cpu": _cpu_model(), "python": platform.python_version()},
        "note": "ROADMAP figures were taken on the parent code on a 2-core box; "
                "the cases ROADMAP does not pin down (the label engine, the (4,2) map) "
                "are the ones named in 'case'.",
        "results": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
