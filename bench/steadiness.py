"""Steadiness of the benchmark on one commit: two sets of runs, compared with the bounds.

    python3 bench/steadiness.py [--workloads quote-cold ...]

Run from the repository root.  Each of two sets runs every workload ten
times, each run with its own seed (set ``s``, run ``r`` uses seed
``1000 s + r``), for ``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric and workload it prints each set's median and quartiles,
the spread (quartile distance over the median) against the metric's bound,
and how far the second set's median is worse than the first's.  It fails if
a spread or that change exceeds the bound, if an op failed or a check did
not pass.  The spread of ``setup_s`` is printed but not gated: set-up is the
same fixed work in every run, whatever the seed, so its spread is the host's
noise at interpreter start; a change to set-up shows as the move of its
median, which is gated.  Raw results are written to
``bench/out/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs = []
            for r in range(RUNS):
                res = run_once(spec, w, 1000 * s + r)
                runs.append(res)
                print(f"set {s} {w} seed {1000 * s + r}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} wall={res['wall_s']:.1f}s",
                      file=sys.stderr, flush=True)
            results[w].append(runs)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    header = f"{'workload':<12} {'metric':<14} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} " \
             f"{'spread':>7} {'bound':>6} {'worse':>7}"
    print(header)
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(results[w]):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                worse = 0.0
                if first is None:
                    first = med
                else:
                    change = (med - first) / first
                    worse = change if m["better"] == "lower" else -change
                flag = ""
                if spread > bound and name != "setup_s":
                    flag += " SPREAD"
                if worse > bound:
                    flag += " DRIFT"
                ok = ok and not flag
                print(f"{w:<12} {name:<14} {s:>3} {q1:>11.4f} {med:>11.4f} {q3:>11.4f} "
                      f"{spread:>7.3f} {bound:>6.2f} {worse:>+7.3f}{flag}")
        failed = sum(r["failed"] for runs in results[w] for r in runs)
        correct = all(r["correct"] for runs in results[w] for r in runs)
        print(f"{w:<12} failed ops {failed}, all correct: {correct}")
        ok = ok and failed == 0 and correct
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
