"""Timed closed loop over one workload's problem files, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  One client, one thread: the
next operation starts only when the previous one has returned.  Every
operation goes through ``nilco.cli.main`` exactly as ``nilco --output json
<command> <file>`` would, except the cokernel_oracle cross-checks, which call
the library function on the difference matrix of a torus problem.

Each pass runs a fresh set of problems, so no two passes see the same
inputs: the worker prints ``NEXT`` and reads from standard input the path of
the manifest run.py has written for it.  Every answer is checked against the
manifest, outside the timed region.  Prints one JSON object as its last line.
"""

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

import nilco.cli
import nilco.oracle
from nilco.intmat import IntMatrix

import speed
from tracer import Tracer

MIN_PASSES = 3  # of about 100 operations each, so that many lie beyond p90
TRACED_PASSES = 2  # untraced and traced passes, alternated, for the overhead


def next_ops():
    """The operations of the next pass, from a manifest run.py writes."""
    print("NEXT", flush=True)
    with open(sys.stdin.readline().strip(), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = []
    for op in manifest["ops"]:
        if op["op"] == "cokernel_oracle":
            op["matrix"] = IntMatrix(op["matrix"])
        else:
            argv = ["--output", "json", op["op"], op["file"]]
            if op["op"] == "oracle":
                argv += ["--modulus", str(op["modulus"])]
            op["argv"] = argv
        ops.append(op)
    return ops


def run_op(op):
    """Run one operation; returns (exit code, output text)."""
    if op["op"] == "cokernel_oracle":
        return 0, f"{nilco.oracle.cokernel_oracle(op['matrix'])}\n"
    out = io.StringIO()
    code = nilco.cli.main(op["argv"], out=out)
    return code, out.getvalue()


def check(op, code, text):
    """Mismatches of one operation's output against its expected answer."""
    if code != 0:
        return [f"exit code {code}"]
    expect = op["expect"]
    if op["op"] == "cokernel_oracle":
        got = {"R": int(text)}
    elif op["op"] == "oracle":
        doc = json.loads(text)
        got = {"R": doc["orbit_count"]}
        if doc["modulus"] != op["modulus"]:
            return [f"modulus {doc['modulus']} != {op['modulus']}"]
    else:
        got = json.loads(text)
    return [f"{k}: expected {v!r}, got {got.get(k)!r}" for k, v in expect.items() if got.get(k) != v]


def guarded(op):
    """run_op that turns an exception into a failed operation."""
    try:
        return run_op(op)
    except Exception:  # a crash is a failed operation; keep measuring the rest
        traceback.print_exc()
        return None, ""


class Loop:
    """Every operation run so far: failures, wall times and the speed
    reference chunk run right after each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall = []
        self.chunks = []
        self.reports = hashlib.sha256()

    def run_pass(self, ops, run=guarded):
        """Runs and checks every operation of one pass; returns the indices
        of its operations in `wall`."""
        first = len(self.wall)
        clock = time.perf_counter
        for op in ops:
            start = clock()
            code, text = run(op)
            self.wall.append(clock() - start)
            self.chunks.append(speed.chunk())
            problems = check(op, code, text) if code is not None else ["exception"]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAIL {op['name']}: {'; '.join(problems)}", file=sys.stderr)
            self.reports.update(text.encode())
        return range(first, len(self.wall))

    def solve_s(self):
        """Every operation's time in reference seconds (see speed.py)."""
        return speed.scaled(self.wall, self.chunks)


def end_to_end(loop, seconds):
    """Passes for about `seconds`, at least MIN_PASSES of them.

    Problem files are written between passes, outside the timed phase.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        ops = next_ops()
        pass_start = time.perf_counter()
        loop.run_pass(ops)
        passes += 1
        now = time.perf_counter()
        # stop before a further pass would run past the deadline
        if passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solve = loop.solve_s()
    deciles = statistics.quantiles(solve, n=10, method="inclusive")
    wall = statistics.quantiles(loop.wall, n=10, method="inclusive")
    metrics = {
        "solve_s.p50": {"value": deciles[4], "unit": "s"},
        "solve_s.p90": {"value": deciles[8], "unit": "s"},
        "problems_per_s": {"value": len(solve) / sum(solve), "unit": "1/s"},
        "peak_rss_mib": {"value": rss_kib / 1024, "unit": "MiB"},
        "ok_frac": {"value": (loop.attempted - loop.failed) / loop.attempted, "unit": "frac"},
    }
    raw = {"wall_s.p50": wall[4], "wall_s.p90": wall[8],
           "wall_problems_per_s": len(solve) / sum(loop.wall)}
    return metrics, {"passes": passes, "samples": len(solve), **raw}


def traced(loop, spans_path):
    """Per-layer metrics from one traced pass.

    Untraced and traced passes alternate, TRACED_PASSES of each, each on
    fresh problems of the same schedule; the tracing overhead compares their
    summed times in reference seconds.  Only the first traced pass's spans
    are recorded.
    """
    first = Tracer()
    passes = {False: [], True: []}
    for k in range(2 * TRACED_PASSES):
        on = k % 2 == 1
        tracer = first if k == 1 else Tracer()
        ops = next_ops()
        if on:
            tracer.install()
        try:
            passes[on].append(loop.run_pass(ops))
        finally:
            if on:
                tracer.uninstall()
    first.write(spans_path)
    metrics = first.metrics()
    solve = loop.solve_s()

    def summed(on):
        return sum(solve[i] for indices in passes[on] for i in indices)

    metrics["trace.overhead_frac"] = {"value": summed(True) / summed(False) - 1, "unit": "frac"}

    peaks = []

    def measured(op):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = guarded(op)
        peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
        return result

    ops = next_ops()
    tracemalloc.start()
    try:
        loop.run_pass(ops, run=measured)
    finally:
        tracemalloc.stop()
    metrics["mem.alloc_peak_mib.p50"] = {"value": statistics.median(peaks), "unit": "MiB"}
    metrics["mem.alloc_peak_mib.max"] = {"value": max(peaks), "unit": "MiB"}
    calls = json.dumps(sorted(first.calls().items()))
    return metrics, {"calls_sha256": hashlib.sha256(calls.encode()).hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    loop = Loop()
    started = time.perf_counter()
    if args.trace:
        metrics, info = traced(loop, args.spans)
    else:
        metrics, info = end_to_end(loop, args.seconds)
    print(json.dumps({
        "metrics": metrics,
        "info": {"reports_sha256": loop.reports.hexdigest(), **info,
                 "worker_s": time.perf_counter() - started},
        "attempted": loop.attempted,
        "failed": loop.failed,
    }))


if __name__ == "__main__":
    main()
