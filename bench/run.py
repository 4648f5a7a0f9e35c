"""Benchmark runner: one workload, one process, a fixed measuring time.

    python3 bench/run.py --workload quote-cold --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  Progress and failed checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI's worker pool keeps its default width of 1
os.environ.pop("ASIANHERMITE_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("quote-cold", "figure-grid", "mc-check")
# set-up is timed in this many fresh processes and reported as their median
SETUP_PROBES = 5

UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_cpu_ms_p50": "ms", "ops_per_s": "1/s",
         "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("digits_p50"):
        return "digits"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "asianhermite", "__init__.py")):
        sys.exit(f"bench: the program is not at {SRC}/asianhermite")


def set_up(name: str, out_dir: str):
    """Import the program and warm its process-wide caches; returns the workload."""
    require_program()
    sys.path[:0] = [SRC, HERE]
    import asianhermite
    import workloads

    if not os.path.abspath(asianhermite.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: asianhermite imported from {asianhermite.__file__}, not {SRC}")
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[name]()
    workload.warm_up(out_dir)
    return workload


def probe_set_up(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seconds", str(args.seconds), "--setup-probe", repr(started)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    if args.setup_probe is not None:
        try:
            set_up(args.workload, out_dir)
            print(time.monotonic() - args.setup_probe)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return 0

    probes = [] if args.trace else [probe_set_up(args) for _ in range(SETUP_PROBES)]
    try:
        return measure(args, probes, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, probes: list[float], out_dir: str) -> int:
    workload = set_up(args.workload, out_dir)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_layers(tracer)
        op_span = tracer.name_id("bench.op")

    done, walls, cpus = [], [], []
    attempted = failed = 0
    phase_start = time.perf_counter()
    while time.perf_counter() - phase_start < args.seconds:
        inp = workload.inputs(args.seed, attempted, out_dir)
        if tracer:
            tracer.current_op = attempted
            root = tracer.open(op_span)
        attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = workload.run(inp)
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        finally:
            cpu1, wall1 = time.process_time(), time.perf_counter()
            if tracer:
                tracer.close(root)
        walls.append(wall1 - wall0)
        cpus.append(cpu1 - cpu0)
        done.append((inp, workload.collect(inp, out)))
        print(f"op {attempted - 1}: {1e3 * walls[-1]:.1f} ms wall, {1e3 * cpus[-1]:.1f} ms cpu",
              file=sys.stderr)
    phase = time.perf_counter() - phase_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    failures, digits = [], []
    for inp, out in done:
        bad, dig = workload.check(inp, out)
        failures += bad
        digits += dig
    for line in failures:
        print("check failed:", line, file=sys.stderr)

    if tracer:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
        rows = tracer.per_op()
        per_op = [spans.layer_metrics(rows[op]) for op in sorted(rows) if op >= 0]
        values = {name: statistics.median(r[name] for r in per_op) for name in per_op[0]}
        values["pricing.digits_p50"] = statistics.median(digits) if digits else 0.0
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(probes),
            "op_ms_p50": 1e3 * statistics.median(walls),
            "op_cpu_ms_p50": 1e3 * statistics.median(cpus),
            "ops_per_s": len(walls) / phase,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0 and not failures and bool(done), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
