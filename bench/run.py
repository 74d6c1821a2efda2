"""nilco benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run

1. runs ``nilco fixtures --check`` on the bundled corpus and stops if it fails;
2. with ``--trace 0``, times the import of ``nilco.cli`` in fresh
   interpreters (``setup_s``), then runs the closed loop in a fresh
   interpreter for about S seconds and reports the end-to-end metrics;
3. with ``--trace 1``, runs untraced and traced passes alternated twice and
   one tracemalloc pass instead, and reports the per-layer metrics.

Pass k of seed N runs the problems drawn from ``N:k``; this script writes
them under ``bench/_work/``, with the expected answer of every operation,
whenever the worker asks for its next pass.  Times are in reference seconds
(see speed.py).

The last line of standard output is the result object.  The line before it
holds the raw wall times, the sample count and the digests of all report
bytes (and, traced, of the per-layer call counts); two runs with the same
seed must print the same digests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 41
DEADLINE_S = 170  # the whole run must end within 180 s


def nilco_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def smoke(env):
    """Untimed `nilco fixtures --check`; False when any fixture fails."""
    proc = subprocess.run(
        [sys.executable, "-m", "nilco.cli", "fixtures", "--check"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


def write_problems(workload, seed, workdir):
    """Writes the problem files of one pass and their manifest; returns the
    manifest's path."""
    workdir.mkdir(parents=True)
    manifest = []
    for op in gen.generate(workload, seed):
        entry = {k: v for k, v in op.items() if k != "doc"}
        if "doc" in op:
            path = workdir / f"{op['name']}.json"
            path.write_text(json.dumps(op["doc"]) + "\n", encoding="utf-8")
            entry["file"] = str(path)
        manifest.append(entry)
    path = workdir / "manifest.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "ops": manifest}),
                    encoding="utf-8")
    return path


def setup_seconds(env):
    """Median time a fresh interpreter takes to import `nilco.cli`, in
    reference seconds: each import is scaled by speed chunks the same
    interpreter runs right after it.

    Timed from the interpreter's first statement, so the start of Python
    itself (exec, `site`), which nilco cannot change, is left out.
    """
    code = ("import time; start = time.perf_counter(); import nilco.cli; "
            "end = time.perf_counter(); import statistics, sys; "
            f"sys.path.insert(0, {str(BENCH)!r}); import speed; "
            "print(repr(end - start), repr(statistics.median(speed.chunk() for _ in range(7))))")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True).stdout
        wall, chunk = map(float, out.split())
        samples.append(wall * speed.REF_S / chunk)
    return statistics.median(samples)


def serve(proc, workload, seed, workdir):
    """Answers the worker's requests for its next pass until it exits;
    returns the last line it printed."""
    passes = 0
    last = ""
    for line in proc.stdout:
        if line.strip() != "NEXT":
            last = line
            continue
        shutil.rmtree(workdir / str(passes - 1), ignore_errors=True)
        manifest = write_problems(workload, f"{seed}:{passes}", workdir / str(passes))
        proc.stdin.write(f"{manifest}\n")
        proc.stdin.flush()
        passes += 1
    proc.wait()
    return last


def main():
    parser = argparse.ArgumentParser(description="nilco benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "nilco" / "cli.py").is_file():
        print(f"error: no nilco sources under {SRC}", file=sys.stderr)
        return 2
    env = nilco_env()
    if not smoke(env):
        print("error: bundled fixtures fail; no timing done", file=sys.stderr)
        return 3

    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup = None if args.trace else setup_seconds(env)

    cmd = [sys.executable, str(BENCH / "worker.py"), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(workdir / "spans.tsv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        last = serve(proc, args.workload, args.seed, workdir)
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}"
              f"{' (out of time)' if proc.returncode == -9 else ''}", file=sys.stderr)
        return 4
    result = json.loads(last)

    metrics = result["metrics"]
    if setup is not None:
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    info = {"workload": args.workload, "seed": args.seed, **result["info"],
            "run_s": time.perf_counter() - started}
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
