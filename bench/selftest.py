"""Self-tests of the reference code, and a run in which every check fails on wrong input.

    python3 bench/selftest.py            # the reference against closed forms and known values
    python3 bench/selftest.py --wrong    # every workload's checks on deliberately wrong input

Run from the repository root.  ``--wrong`` runs two ops of each workload
once, then checks their outputs four times: as they are, against a
reference built with ``sigma0`` halved, against one with ``b0`` raised by
0.1, and (``figure-grid``) on mutated outputs, the fig1 table one row short,
the fig2 rows reversed, the OU grid's strikes reversed and one interior
price per scale lifted above the chord of its neighbours.  It prints how many ops failed each check.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402

FIG7_OU = dict(b0=-0.02, b1=0.01, sigma0=0.98, y0=2.0)
FIG8_NIG = ref.Nig(1.0, 0.0, 0.05)


def times(m: int) -> tuple[float, ...]:
    return tuple(2.0 * (j + 1) / (m + 1) for j in range(m + 1))


def reference_tests() -> list[str]:
    from scipy.integrate import quad
    from scipy.special import kv

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    worst = 0.0
    for m in range(4):
        avg = ref.Average(times=times(m), **FIG7_OU)
        for k in (1.0, 2.0, 3.0, 4.0):
            closed = ref.gaussian_call(avg, k)
            worst = max(worst, abs(ref.fourier_call(avg, k) - closed) / closed)
    expect(worst <= 1e-13, f"jumps off: Fourier = Bachelier, m = 0..3, K = 1..4 (worst rel {worst:.1e})")

    crit8 = ref.Average(-0.02, 0.01, 0.49, 2.0, times(1), FIG8_NIG)
    price = ref.fourier_call(crit8, 1.0)
    expect(round(price, 6) == 1.045945 and 1.044533 < price < 1.046666,
           f"criterion 8, m = 1, K = 1: {price:.7f} = 1.045945, inside (1.044533, 1.046666)")
    price = ref.fourier_call(crit8, 2.0)
    expect(round(price, 6) == 0.328482, f"fig8 model, m = 1, K = 2: {price:.7f} = 0.328482")
    finer = ref.fourier_call(crit8, 2.0, panels=192, nodes=24)
    expect(abs(finer - price) <= 1e-12, f"quadrature converged: {abs(finer - price):.1e} on refining")
    single = ref.Average(-0.02, 0.01, 0.49, 2.0, (2.0,), FIG8_NIG)
    price = ref.fourier_call(single, 1.0)
    expect(abs(price - 1.0950828157227843) <= 1e-9,
           f"m = 0, K = 1: {price:.10f} = 1.0950828157 (a separate quad-based inversion)")

    nig = ref.Nig(1.7, -0.3, 0.06)

    def density(z):
        return nig.delta * nig.alpha / math.pi * math.exp(nig.beta * z) * kv(1, nig.alpha * abs(z)) / abs(z)

    second = sum(quad(lambda z: z * z * density(z), lo, hi, limit=200)[0]
                 for lo, hi in ((-math.inf, 0.0), (0.0, math.inf)))
    expect(abs(second - nig.variance_rate) <= 1e-8 * second,
           f"Levy second moment: quadrature {second:.10f} = delta alpha^2 / gamma^3")

    avg = ref.Average(-0.03, 0.04, 0.7, 1.8, times(2))
    direct = sum(quad(lambda s: (sum(math.exp(avg.b1 * (t - s)) for t in avg.times if s < t) / 3) ** 2,
                      lo, hi)[0] for lo, hi in zip((0.0,) + avg.times, avg.times))
    expect(abs(direct - avg.kernel_sq_integral()) <= 1e-12,
           f"int k^2 ds: quadrature {direct:.12f} = covariance sum {avg.kernel_sq_integral():.12f}")
    h = 1e-5
    up = ref.gaussian_call(ref.Average(avg.b0, avg.b1, avg.sigma0, avg.y0 + h, avg.times), 1.9)
    dn = ref.gaussian_call(ref.Average(avg.b0, avg.b1, avg.sigma0, avg.y0 - h, avg.times), 1.9)
    fd = (up - dn) / (2 * h)
    expect(abs(fd - ref.gaussian_delta(avg, 1.9)) <= 1e-8, f"delta = central difference ({fd:.10f})")
    return failures


class _Shifted(ref.Average):
    """Reference with a wrong model: ``sigma0`` scaled and ``b0`` shifted."""

    scale, shift = 1.0, 0.0

    def __init__(self, b0, b1, sigma0, y0, times, nig=None):
        super().__init__(b0 + self.shift, b1, sigma0 * self.scale, y0, times, nig)


def mutate(out: dict) -> dict:
    out = copy.deepcopy(out)
    out["fig1_rows"] -= 1
    for errs in out["fig2"].values():
        errs.reverse()
    grid = out["grid"]
    strikes = sorted({k for k, _ in grid})
    mirror = dict(zip(strikes, reversed(strikes)))
    out["grid"] = grid = {(mirror[k], b): cell for (k, b), cell in grid.items()}
    mid = len(strikes) // 2
    k0, k1, k2 = strikes[mid - 1: mid + 2]
    for b in {b for _, b in grid}:
        p0, p2 = grid[(k0, b)][1], grid[(k2, b)][1]
        chord = p0 + (p2 - p0) * (k1 - k0) / (k2 - k0)
        grid[(k1, b)] = (grid[(k1, b)][0], chord + 0.1 * abs(p2 - p0))
    return out


def wrong_inputs() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads

    out_dir = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    modes = ("as run", "sigma0 / 2", "b0 + 0.1", "outputs mutated")
    for name, cls in workloads.WORKLOADS.items():
        w = cls()
        ops = []
        for op in range(2):
            inp = w.inputs(1, op, out_dir)
            ops.append((inp, w.collect(inp, w.run(inp))))
        tallies = {}
        for mode in modes:
            if mode == "outputs mutated" and name != "figure-grid":
                continue
            _Shifted.scale = 0.5 if mode == "sigma0 / 2" else 1.0
            _Shifted.shift = 0.1 if mode == "b0 + 0.1" else 0.0
            workloads.ref.Average = _Shifted
            failed = Counter()
            for inp, out in ops:
                if mode == "outputs mutated":
                    out = mutate(out)
                bad, _ = w.check(inp, out)
                failed.update({line.split(":")[0] for line in bad})
            tallies[mode] = failed
        workloads.ref.Average = ref.Average
        checks = sorted(set().union(*tallies.values()) | set(workloads.CHECKS[name]))
        print(f"\n{name}: ops failing each check, of {len(ops)}")
        print(f"  {'check':<15}" + "".join(f"{m:>17}" for m in tallies))
        for c in checks:
            print(f"  {c:<15}" + "".join(f"{tallies[m][c]:>17}" for m in tallies))
    shutil.rmtree(out_dir, ignore_errors=True)


def main(argv) -> int:
    if "--wrong" in argv:
        wrong_inputs()
        return 0
    return 1 if reference_tests() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
