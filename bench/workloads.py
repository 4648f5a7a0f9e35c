"""The benchmark's workloads: inputs drawn from the seed, the timed op, and the checks.

Every op of a workload does the same kind of work.  Inputs come from
``numpy.random.default_rng([seed, op])``; the program sees only the drawn
numbers.  What the checks need of an op's output is collected after its
timer stops; the checks run after the timed phase, against
:mod:`reference`, which does not import the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil

import numpy as np

from asianhermite import benchmarks, cli, correlators, generator, kronecker, montecarlo, pricing
from asianhermite.hermite import GhpBasis

import reference as ref

MATURITY = 2.0
# Digits are -log10 of the relative error; exact agreement clamps here.
DIGITS_CLAMP = 16.0
# Increments this many decades below their neighbours are structural zeros;
# the same rule as the stopping rule and acceptance criterion 8.
DEGENERATE_RATIO = 1e-6
# OU stopped price, full-order price and full-order delta against the
# closed form, relative.
OU_PRICE_RTOL = 1e-3
OU_DELTA_RTOL = 1e-3
# OU price the stopping rule reports unconverged (its fallback order),
# relative: 4.3 times the worst fallback error over a scan of strikes.
OU_FALLBACK_RTOL = 1e-2
# Mean and standard deviation of the average against the closed-form law.
LAW_RTOL = 1e-9
# Window and factor of the asymptotic-error scale of the NIG series.
NIG_WINDOW = 2
NIG_FACTOR = 3.0
# Monte Carlo mean against the Fourier price, in standard errors.
MC_SIGMAS = 4.0


def uniform_times(m: int) -> tuple[float, ...]:
    return tuple((j + 1) * MATURITY / (m + 1) for j in range(m + 1))


def off(got: float, want: float, tol: float) -> bool:
    """True unless ``got`` is within ``tol`` of ``want``; a NaN is always off."""
    return not abs(got - want) <= tol


def digits(exact: float, approx: float) -> float:
    rel = abs(approx - exact) / abs(exact)
    if not math.isfinite(rel):
        return -DIGITS_CLAMP
    if rel == 0.0:
        return DIGITS_CLAMP
    return float(np.clip(-math.log10(rel), -DIGITS_CLAMP, DIGITS_CLAMP))


def measurable(partial: np.ndarray) -> list[int]:
    """Orders whose increment is not a structural zero."""
    steps = np.abs(np.diff(partial))
    out = []
    for n in range(1, partial.size):
        neighbour = max(steps[n - 2] if n >= 2 else 0.0, steps[n] if n < steps.size else 0.0)
        if steps[n - 1] > DEGENERATE_RATIO * neighbour:
            out.append(n)
    return out


def optimal_truncation(partial: np.ndarray) -> tuple[float, float, int]:
    """Partial sum before the smallest measurable increment, its error scale, and the order.

    The error scale is the largest of the measurable increments within
    ``NIG_WINDOW`` places of the smallest one: a single increment can be
    accidentally tiny where a payoff coefficient ``q_(n-2)(d)`` passes near
    zero, while the terms around it are not.
    """
    steps = np.abs(np.diff(partial))
    orders = measurable(partial)
    i = min(range(len(orders)), key=lambda k: steps[orders[k] - 1])
    window = orders[max(0, i - NIG_WINDOW): i + NIG_WINDOW + 1]
    scale = max(steps[n - 1] for n in window)
    return float(partial[orders[i] - 1]), float(scale), orders[i]


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


class Workload:
    name = ""

    def warm_up(self, out_dir: str) -> None:
        """Fill process-wide caches and load lazily imported code paths."""

    def inputs(self, seed: int, op: int, out_dir: str) -> dict:
        raise NotImplementedError

    def run(self, inp: dict) -> dict:
        """The timed op."""
        raise NotImplementedError

    def collect(self, inp: dict, out):
        """What the checks need of the op's output, read after the op is timed."""
        return out

    def check(self, inp: dict, out: dict) -> tuple[list[str], list[float]]:
        """Failed checks of one op as ``"<check>: <details>"``, and the digits of its OU prices."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# quote-cold: a small book on fresh parameters and fresh engines


# (model, m, order, with delta)
BOOK = (
    ("ou", 1, 40, True),
    ("nig", 1, 40, False),
    ("ou", 2, 20, True),
    ("nig", 2, 20, False),
    ("ou", 3, 16, False),
    ("nig", 3, 16, False),
)
SCALE_RATIO = 2.0


def _selector_warm_up(book) -> None:
    # the selector index maps are cached per process; build every one a
    # quote on this book asks for
    for _, m, order, _ in book:
        for n in range(1, order + 1):
            for rank in range(1, m + 1):
                kronecker.mth_selectors(n, rank)


class QuoteCold(Workload):
    name = "quote-cold"

    def warm_up(self, out_dir):
        _selector_warm_up(BOOK)
        ou = generator.ModelSpec(-0.02, 0.01, 0.98)
        nig = generator.ModelSpec(-0.02, 0.01, 0.49, generator.NigParams(2.0, 0.0, 0.0, 0.05))
        for model in (ou, nig):
            self._quote(model, 2.0, 1, 4, 0.0, model is ou)

    def inputs(self, seed, op, out_dir):
        rng = np.random.default_rng([seed, op])
        ou = dict(b0=_u(rng, -0.05, 0.05), b1=_u(rng, -0.05, 0.05),
                  sigma0=_u(rng, 0.5, 1.2), y0=_u(rng, 1.5, 2.5))
        nig = dict(b0=_u(rng, -0.05, 0.05), b1=_u(rng, -0.05, 0.05),
                   sigma0=_u(rng, 0.3, 0.8), y0=_u(rng, 1.5, 2.5),
                   alpha=_u(rng, 1.5, 2.5), delta=_u(rng, 0.03, 0.08))
        z = [_u(rng, -1.0, 1.0) for _ in BOOK]
        return {"ou": ou, "nig": nig, "z": z}

    @staticmethod
    def _model(p: dict):
        jumps = None
        if "alpha" in p:
            jumps = generator.NigParams(p["alpha"], 0.0, 0.0, p["delta"])
        return generator.ModelSpec(p["b0"], p["b1"], p["sigma0"], jumps)

    @staticmethod
    def _quote(model, y0, m, order, z, with_delta):
        times = uniform_times(m)
        engine = correlators.CorrelatorEngine(model)
        a = pricing.default_drift(model, 0.0, y0, times)
        s = pricing.average_std(model, 0.0, y0, times, engine=engine)
        strike = a + z * s
        basis = GhpBasis(drift=a, scale=SCALE_RATIO * benchmarks.scale_floor(s), order=order)
        req = pricing.PriceRequest(strike, 0.0, 0.0, times, basis, model, y0)
        report = pricing.asian_price(req, engine=engine)
        d = pricing.delta(req, engine=engine) if with_delta else None
        return {"a": a, "s": s, "strike": strike, "partial": report.price_by_N,
                "price": report.price, "converged": report.converged, "delta": d}

    def run(self, inp):
        models = {"ou": self._model(inp["ou"]), "nig": self._model(inp["nig"])}
        return {"book": [
            self._quote(models[kind], inp[kind]["y0"], m, order, z, with_delta)
            for (kind, m, order, with_delta), z in zip(BOOK, inp["z"])
        ]}

    def check(self, inp, out):
        failures, dig = [], []
        for (kind, m, order, with_delta), q in zip(BOOK, out["book"]):
            p = inp[kind]
            nig = ref.Nig(p["alpha"], 0.0, p["delta"]) if kind == "nig" else None
            avg = ref.Average(p["b0"], p["b1"], p["sigma0"], p["y0"], uniform_times(m), nig)
            tag = f"{kind} m={m} N={order}"
            if off(q["a"], avg.mean(), LAW_RTOL * abs(avg.mean())):
                failures.append(f"drift: {tag}: {q['a']!r} != mean {avg.mean()!r}")
            if off(q["s"], avg.std(), LAW_RTOL * avg.std()):
                failures.append(f"std: {tag}: {q['s']!r} != {avg.std()!r}")
            if kind == "ou":
                exact = ref.gaussian_call(avg, q["strike"])
                dig.append(digits(exact, q["price"]))
                # an unconverged report falls back to its first unconfirmed
                # crossing, which can sit far before the last order of a
                # series that converges (see CHANGES.md): that price is held
                # to the looser tolerance, and the full-order sum, which the
                # Gaussian series has converged to, to the tight one
                rtol = OU_PRICE_RTOL if q["converged"] else OU_FALLBACK_RTOL
                if off(q["price"], exact, rtol * exact):
                    failures.append(f"ou-price: {tag}: {q['price']!r} vs closed form {exact!r}, "
                                    f"converged={q['converged']}")
                full = float(q["partial"][-1])
                if off(full, exact, OU_PRICE_RTOL * exact):
                    failures.append(f"ou-full: {tag}: {full!r} vs closed form {exact!r}")
                if with_delta:
                    exact_d = ref.gaussian_delta(avg, q["strike"])
                    if off(q["delta"], exact_d, OU_DELTA_RTOL * abs(exact_d)):
                        failures.append(f"ou-delta: {tag}: {q['delta']!r} vs closed form {exact_d!r}")
            else:
                truth = ref.fourier_call(avg, q["strike"])
                price, scale, n_star = optimal_truncation(q["partial"])
                if off(price, truth, NIG_FACTOR * scale):
                    failures.append(f"nig-price: {tag}: optimal truncation N={n_star - 1} price {price!r} "
                                    f"misses Fourier {truth!r} by more than "
                                    f"{NIG_FACTOR} x {scale:.2e}")
        return failures, dig


# ----------------------------------------------------------------------
# figure-grid: `asianhermite run ... --no-mc` through cli.main


PRESETS = ("fig1", "fig2", "fig6")
GRID_STRIKES = 12
GRID_RATIOS = 6
GRID_ORDER = 40


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cells(rows: list[dict]) -> dict[tuple[float, float], tuple[list[float], float]]:
    """Prices by order and the stopped price of every (strike, scale) cell."""
    prices: dict[tuple[float, float], list[float]] = {}
    stopped: dict[tuple[float, float], float] = {}
    for row in rows:
        key = (float(row["K"]), float(row["b"]))
        prices.setdefault(key, []).append(float(row["price"]))
        if row["stopped"] == "true":
            stopped[key] = float(row["price"])
    return {key: (ps, stopped.get(key, math.nan)) for key, ps in prices.items()}


class FigureGrid(Workload):
    name = "figure-grid"

    def warm_up(self, out_dir):
        _selector_warm_up((("ou", 1, GRID_ORDER, False),))
        tiny = os.path.join(out_dir, "warm-up")
        os.makedirs(tiny, exist_ok=True)
        configs = [
            {"experiment": "w1", "kind": "payoff-approximation", "strike": 1.0,
             "scales": [1.0], "orders": [4], "x_grid": {"lo": 0.0, "hi": 2.0, "points": 3}},
            {"experiment": "w2", "kind": "series-error", "strike": 1.0, "scales": [1.0],
             "max_order": 2},
            {"experiment": "w3", "model": {"kind": "ou", "b0": -0.02, "b1": 0.01, "sigma0": 0.98},
             "y0": 2.0, "maturity": 2.0, "m_values": [0, 1], "strikes": [2.0],
             "scale_ratios": [2.0], "max_order": 4, "mc": None},
        ]
        for i, cfg in enumerate(configs):
            path = os.path.join(tiny, f"w{i}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            with _quiet():
                cli.main(["run", path, "--no-mc", "--out", tiny])
        shutil.rmtree(tiny)

    def inputs(self, seed, op, out_dir):
        rng = np.random.default_rng([seed, op])
        # y0 >= 2.5 keeps every strike, down to 1.5 standard deviations below
        # the mean, positive
        model = dict(b0=_u(rng, -0.05, 0.05), b1=_u(rng, -0.05, 0.05),
                     sigma0=_u(rng, 0.5, 1.2), y0=_u(rng, 2.5, 3.5))
        # strikes on a jittered grid of the average's width, so neighbours
        # stay at least 0.15 standard deviations apart
        z = [-1.5 + 3.0 * (j + 0.5 + 0.4 * (rng.uniform() - 0.5)) / GRID_STRIKES
             for j in range(GRID_STRIKES)]
        ratios = sorted(float(r) for r in rng.uniform(1.25, 2.0, GRID_RATIOS))
        avg = ref.Average(model["b0"], model["b1"], model["sigma0"], model["y0"], uniform_times(1))
        strikes = [avg.mean() + zj * avg.std() for zj in z]
        cfg = {
            "experiment": "ou-grid",
            "model": {"kind": "ou", "b0": model["b0"], "b1": model["b1"], "sigma0": model["sigma0"]},
            "y0": model["y0"], "maturity": MATURITY, "m_values": [1],
            "strikes": strikes, "scale_ratios": ratios, "a_policy": "mean",
            "max_order": GRID_ORDER, "mc": None, "output": "ou-grid.csv",
        }
        # a fresh directory, so a failed run cannot leave the last op's tables behind
        op_dir = os.path.join(out_dir, "op")
        shutil.rmtree(op_dir, ignore_errors=True)
        os.makedirs(op_dir)
        config_path = os.path.join(op_dir, "ou-grid.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        return {"model": model, "strikes": strikes, "ratios": ratios,
                "config": config_path, "dir": op_dir}

    def run(self, inp):
        with _quiet():
            return [cli.main(["run", name, "--no-mc", "--out", inp["dir"]])
                    for name in PRESETS + (inp["config"],)]

    def collect(self, inp, codes):
        if any(code != 0 for code in codes):
            return {"codes": codes}
        tables = {name: read_csv(os.path.join(inp["dir"], f"{name}.csv"))
                  for name in PRESETS + ("ou-grid",)}
        curves: dict[tuple[float, float], list[float]] = {}
        for row in tables["fig2"]:
            curves.setdefault((float(row["a"]), float(row["b"])), []).append(float(row["l2_error"]))
        return {"codes": codes, "fig1_rows": len(tables["fig1"]), "fig2": curves,
                "fig6": _cells(tables["fig6"]), "grid": _cells(tables["ou-grid"])}

    def check(self, inp, out):
        failures, dig = [], []
        if any(code != 0 for code in out["codes"]):
            return [f"cli: exit codes {out['codes']}"], dig
        preset = {name: cli.load_config(name) for name in PRESETS}
        p1, p2, p6 = preset["fig1"], preset["fig2"], preset["fig6"]
        want = len(p1["scales"]) * len(p1["orders"]) * p1["x_grid"]["points"]
        if out["fig1_rows"] != want:
            failures.append(f"fig1: {out['fig1_rows']} rows, expected {want}")
        # fig2: the weighted L2 error is a tail sum of non-negative terms
        curves = out["fig2"]
        if len(curves) != len(p2["drifts"]) * len(p2["scales"]):
            failures.append(f"fig2: {len(curves)} curves")
        for key, errs in curves.items():
            if len(errs) != p2["max_order"] + 1 or any(not b <= a for a, b in zip(errs, errs[1:])):
                failures.append(f"fig2: a,b={key}: L2 error not non-increasing in N")
        # fig6: every cell reaches one digit at some order; report the stopped digits
        m6 = p6["model"]
        avg6 = ref.Average(m6["b0"], m6["b1"], m6["sigma0"], p6["y0"], (p6["maturity"],))
        cells6 = out["fig6"]
        if len(cells6) != len(p6["strikes"]) * len(p6["scales"]):
            failures.append(f"fig6: {len(cells6)} cells")
        for (k, b), (prices, stopped) in cells6.items():
            exact = ref.gaussian_call(avg6, k)
            best = max(digits(exact, p) for p in prices)
            if best < 1.0:
                failures.append(f"fig6: K={k} b={b}: best accuracy {best:.2f} digits")
            dig.append(digits(exact, stopped))
        # the benchmark's own OU grid
        m = inp["model"]
        avg = ref.Average(m["b0"], m["b1"], m["sigma0"], m["y0"], uniform_times(1))
        cells = out["grid"]
        if len(cells) != GRID_STRIKES * GRID_RATIOS:
            failures.append(f"grid-price: {len(cells)} cells")
        by_scale: dict[float, list[tuple[float, float]]] = {}
        for (k, b), (_, price) in cells.items():
            exact = ref.gaussian_call(avg, k)
            dig.append(digits(exact, price))
            if off(price, exact, OU_PRICE_RTOL * exact):
                failures.append(f"grid-price: K={k} b={b}: stopped price {price!r} vs {exact!r}")
            by_scale.setdefault(b, []).append((k, price))
        for b, pts in by_scale.items():
            pts.sort()
            ps = [p for _, p in pts]
            slopes = [(q - p) / (l - k) for (k, p), (l, q) in zip(pts, pts[1:])]
            if any(not q <= p for p, q in zip(ps, ps[1:])):
                failures.append(f"grid-monotone: b={b}: prices not non-increasing in strike")
            if any(not s2 >= s1 for s1, s2 in zip(slopes, slopes[1:])):
                failures.append(f"grid-convex: b={b}: prices not convex in strike")
        return failures, dig


def _quiet():
    """Keep the output paths the CLI prints off the benchmark's standard output."""
    return contextlib.redirect_stdout(io.StringIO())


# ----------------------------------------------------------------------
# mc-check: the Monte Carlo reference of criterion 8 and fig8


FIG8 = dict(b0=-0.02, b1=0.01, sigma0=0.49, y0=2.0, alpha=1.0, delta=0.05)
MC_PATHS = 20_000
MC_BATCHES = 4
MC_REFINE = 100


class McCheck(Workload):
    name = "mc-check"

    def __init__(self):
        p = FIG8
        self.model = generator.ModelSpec(p["b0"], p["b1"], p["sigma0"],
                                         generator.NigParams(p["alpha"], 0.0, 0.0, p["delta"]))

    def _request(self, strike):
        basis = GhpBasis(drift=FIG8["y0"], scale=1.0, order=2)
        return pricing.PriceRequest(strike, 0.0, 0.0, uniform_times(1), basis, self.model, FIG8["y0"])

    def warm_up(self, out_dir):
        montecarlo.mc_price(self.model, self._request(2.0),
                            montecarlo.McConfig(paths=100, batches=2, seed=0, refine=2))

    def inputs(self, seed, op, out_dir):
        rng = np.random.default_rng([seed, op])
        return {"strike": _u(rng, 1.5, 2.5), "mc_seed": int(rng.integers(2**32))}

    def run(self, inp):
        cfg = montecarlo.McConfig(paths=MC_PATHS, batches=MC_BATCHES, seed=inp["mc_seed"],
                                  refine=MC_REFINE)
        est = montecarlo.mc_price(self.model, self._request(inp["strike"]), cfg)
        return {"mean": est.mean, "std_error": est.std_error}

    def check(self, inp, out):
        p = FIG8
        avg = ref.Average(p["b0"], p["b1"], p["sigma0"], p["y0"], uniform_times(1),
                          ref.Nig(p["alpha"], 0.0, p["delta"]))
        truth = ref.fourier_call(avg, inp["strike"])
        # the call payoff is 1-Lipschitz, so its standard deviation is at most
        # that of the average; this floors a batch estimate made from 3 d.o.f.
        floor = avg.std() / math.sqrt(MC_PATHS * MC_BATCHES)
        se = max(out["std_error"], floor)
        if off(out["mean"], truth, MC_SIGMAS * se):
            return [f"mc: K={inp['strike']!r}: mean {out['mean']!r} vs Fourier {truth!r}, "
                    f"se {se:.2e}"], []
        return [], []


WORKLOADS = {w.name: w for w in (QuoteCold, FigureGrid, McCheck)}
# the checks each workload makes, by the label its failure lines start with
CHECKS = {
    "quote-cold": ("drift", "std", "ou-price", "ou-full", "ou-delta", "nig-price"),
    "figure-grid": ("cli", "fig1", "fig2", "fig6", "grid-price", "grid-monotone", "grid-convex"),
    "mc-check": ("mc",),
}
