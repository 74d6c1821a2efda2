"""Steadiness checks for the benchmark itself.

    python3 bench/steadiness.py spread
    python3 bench/steadiness.py repeat

``spread`` runs two sets of runs, each running every workload once per seed
1..SEEDS, one set after the other.  For each set, workload and end-to-end
metric it prints the median and the distance between the first and third
quartile as a share of the median; a spread under a third of the metric's
bound from BENCHMARK.json is steady.  It then checks that the second set's
median is not worse than the first's by more than the bound.  `setup_s` is
held to the same rules as the other metrics.

``repeat`` runs the traced run twice with seed REPEAT_SEED and checks that
both print the same digests of all report bytes and of the per-layer call
counts.

Run from the root of a checkout; runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10
REPEAT_SEED = 7


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    info, result = out.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def one_set(bench):
    """Metric values per workload and metric name over seeds 1..SEEDS."""
    values = {}
    for workload in bench["workloads"]:
        for seed in range(1, SEEDS + 1):
            _, result = run(workload["name"], seed, 0, bench["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{workload['name']} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values.setdefault((workload["name"], name), []).append(metric["value"])
    return values


def spread(bench):
    sets = [one_set(bench), one_set(bench)]
    steady = True
    for workload in bench["workloads"]:
        for metric in bench["end_to_end"]:
            key = (workload["name"], metric["name"])
            medians = []
            for number, values in enumerate(sets, 1):
                q1, med, q3 = statistics.quantiles(values[key], n=4)
                share = (q3 - q1) / med
                ok = share < metric["bound"] / 3
                steady &= ok
                medians.append(med)
                print(f"{key[0]:14s} {key[1]:15s} set {number} median {med:.6g} "
                      f"iqr/median {share:.4f} bound {metric['bound']} {'ok' if ok else 'WIDE'}")
                print(f"{'':14s} values {json.dumps(values[key])}")
            change = medians[1] / medians[0] - 1
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= metric["bound"]
            steady &= ok
            print(f"{key[0]:14s} {key[1]:15s} set 2 vs set 1 {change:+.4f} "
                  f"{'ok' if ok else 'WORSE'}")
    return steady


def repeat(bench):
    same = True
    for workload in (w["name"] for w in bench["workloads"]):
        digests = [
            {k: info[k] for k in ("reports_sha256", "calls_sha256")}
            for info, _ in (run(workload, REPEAT_SEED, 1, bench["run_seconds"])
                            for _ in range(2))
        ]
        first, second = digests
        ok = first == second
        same &= ok
        print(f"{workload:14s} seed {REPEAT_SEED}: {'identical' if ok else 'DIFFERENT'} "
              f"reports {first['reports_sha256'][:16]} calls {first['calls_sha256'][:16]}")
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("spread", "repeat"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = spread(bench) if args.check == "spread" else repeat(bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
