"""Command-line runner: single-price quotes and batch experiment tables.

``asianhermite run`` executes a named preset or a JSON config file over
grids of strikes, scales, truncations and sampling counts, writing a CSV
table plus a JSON metadata sidecar.  ``asianhermite price`` quotes one
option with optional Greeks and a Monte Carlo cross-check; its flags fill a
one-cell pricing config, which goes through the same validation and
resolution as a ``run`` config.

Exit codes: 2 for configuration errors, 3 for numerical failures, 4 when
``--strict`` is set and the series did not converge.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import comb

import numpy as np

from . import __version__
from .benchmarks import accuracy_gamma, gaussian_call, ou_asian_law, scale_floor
from .correlators import CorrelatorEngine
from .generator import ModelSpec, NigParams, NumericalError, max_order
from .hermite import (
    MAX_ORDER,
    SERIES_TAIL_END,
    GhpBasis,
    payoff_coefficients,
    payoff_l2_error,
    payoff_series_eval,
)
from .montecarlo import McConfig, mc_price
from .pricing import (
    DEFAULT_TERM_CAP,
    PriceRequest,
    asian_price,
    average_std,
    default_drift,
    delta,
    european_price,
    stopping_criterion,
    theta,
)

SCHEMA_VERSION = 1

PRICING_COLUMNS = [
    "experiment", "model", "K", "a", "b", "N", "m", "price", "gamma",
    "gamma_tilde", "mc_mean", "mc_lo", "mc_hi", "stopped", "wall_ms",
]


class ConfigError(Exception):
    """Invalid configuration; the message carries the offending field path."""


def _fmt(value) -> str:
    if isinstance(value, float):  # numpy floats too; NaN is blank
        return repr(float(value)) if value == value else ""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@lru_cache(maxsize=None)
def _engine_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except Exception:
        pass
    return __version__


# ----------------------------------------------------------------------
# configuration parsing


def _req(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}{key}: required field is missing")
    return cfg[key]


def _num(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _int(value, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _list(value, path: str, item=_num) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))


def _positive_list(value, path: str) -> tuple[float, ...]:
    values = _list(value, path)
    if any(v <= 0 for v in values):
        raise ConfigError(f"{path}: must be positive")
    return values


def _strike(value, path: str) -> float:
    strike = _num(value, path)
    if strike < 0:
        raise ConfigError(f"{path}: must be non-negative")
    return strike


def parse_model(cfg: dict, path: str = "model.") -> ModelSpec:
    kind = _req(cfg, "kind", path)
    if kind not in ("bm", "ou", "jd"):
        raise ConfigError(f"{path}kind: must be one of bm, ou, jd, got {kind!r}")
    b0 = _num(cfg.get("b0", 0.0), path + "b0")
    b1 = _num(cfg.get("b1", 0.0), path + "b1")
    sigma0 = _num(cfg.get("sigma0", 1.0), path + "sigma0")
    if sigma0 < 0:
        raise ConfigError(f"{path}sigma0: must be non-negative")
    jumps = None
    if kind == "jd":
        nig = _req(cfg, "nig", path)
        if not isinstance(nig, dict):
            raise ConfigError(f"{path}nig: expected an object")
        try:
            jumps = NigParams(
                alpha=_num(_req(nig, "alpha", path + "nig."), path + "nig.alpha"),
                beta=_num(_req(nig, "beta", path + "nig."), path + "nig.beta"),
                mu=_num(_req(nig, "mu", path + "nig."), path + "nig.mu"),
                delta=_num(_req(nig, "delta", path + "nig."), path + "nig.delta"),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}nig: {exc}") from exc
    elif "nig" in cfg:
        raise ConfigError(f"{path}nig: jump parameters are only valid for kind 'jd'")
    return ModelSpec(drift_const=b0, drift_lin=b1, diff_sq=sigma0, jumps=jumps)


def _model_label(model: ModelSpec) -> str:
    if model.jumps is not None:
        return "jd"
    if model.drift_const == 0.0 and model.drift_lin == 0.0:
        return "bm"
    return "ou"


def _model_config(model: ModelSpec) -> dict:
    block = {"kind": _model_label(model), "b0": model.drift_const,
             "b1": model.drift_lin, "sigma0": model.diff_sq}
    if model.jumps is not None:
        block["nig"] = dataclasses.asdict(model.jumps)
    return block


@dataclass(frozen=True)
class PricingExperiment:
    experiment: str
    model: ModelSpec
    t: float
    y0: float
    maturity: float
    rate: float
    m_values: tuple[int, ...]
    strikes: tuple[float, ...]
    scales: tuple[float, ...] | None      # absolute values
    scale_ratios: tuple[float, ...] | None  # multiples of the scale floor
    a_policy: float | str                 # "mean" or a number
    max_order: int
    mc: dict | None
    seed: int
    output: str


def parse_pricing(cfg: dict) -> PricingExperiment:
    experiment = _req(cfg, "experiment", "")
    model = parse_model(_req(cfg, "model", ""), "model.")
    t = _num(cfg.get("t", 0.0), "t")
    maturity = _num(_req(cfg, "maturity", ""), "maturity")
    if maturity <= t:
        raise ConfigError("maturity: must lie after t")
    m_values = _list(cfg.get("m_values", [0]), "m_values", lambda v, p: _int(v, p, 0))
    strikes = _list(_req(cfg, "strikes", ""), "strikes", _strike)
    scales = scale_ratios = None
    if "scales" in cfg and "scale_ratios" in cfg:
        raise ConfigError("scales: give either scales or scale_ratios, not both")
    if "scales" in cfg:
        scales = _positive_list(cfg["scales"], "scales")
    elif "scale_ratios" in cfg:
        scale_ratios = _positive_list(cfg["scale_ratios"], "scale_ratios")
        if model.diff_sq == 0 and model.jumps is None:
            raise ConfigError("scale_ratios: the scale floor needs a model with positive "
                              "variance (sigma0 > 0 or jumps)")
    else:
        raise ConfigError("scales: either scales or scale_ratios is required")
    a_policy = cfg.get("a_policy", "mean")
    if a_policy != "mean":
        a_policy = _num(a_policy, "a_policy")
    mc = cfg.get("mc")
    if mc is not None:
        if not isinstance(mc, dict):
            raise ConfigError("mc: expected an object or null")
        for key in ("paths", "batches", "refine"):
            if key in mc:
                # a batch-means error needs at least two batches
                _int(mc[key], f"mc.{key}", 2 if key == "batches" else 1)
    rate = _num(cfg.get("rate", 0.0), "rate")
    if rate < 0:
        raise ConfigError("rate: must be non-negative")
    return PricingExperiment(
        experiment=experiment, model=model, t=t, y0=_num(cfg.get("y0", 0.0), "y0"),
        maturity=maturity, rate=rate, m_values=m_values, strikes=strikes,
        scales=scales, scale_ratios=scale_ratios, a_policy=a_policy,
        max_order=_int(cfg.get("max_order", 60), "max_order", 1), mc=mc,
        seed=_int(cfg.get("seed", 0), "seed", 0), output=cfg.get("output", f"{experiment}.csv"),
    )


# ----------------------------------------------------------------------
# experiment execution


def _uniform_times(t: float, maturity: float, m: int) -> tuple[float, ...]:
    return tuple(t + (j + 1) * (maturity - t) / (m + 1) for j in range(m + 1))


def _resolve(exp: PricingExperiment, engine: CorrelatorEngine, times):
    """Basis drift, closed-form law (``None`` without one) and absolute scales on ``times``."""
    model = exp.model
    if exp.a_policy == "mean":
        drift = default_drift(model, exp.t, exp.y0, times)
    else:
        drift = float(exp.a_policy)
    law = None
    if model.jumps is None and model.diff_sq > 0:
        law = ou_asian_law(model, exp.t, exp.y0, times)
    if exp.scales is not None:
        return drift, law, exp.scales
    floor = scale_floor(average_std(model, exp.t, exp.y0, times, engine=engine))
    return drift, law, tuple(r * floor for r in exp.scale_ratios)


def _order_cap(model: ModelSpec, m: int) -> tuple[int, str]:
    """Highest series order for ``m + 1`` sampling times, and the limit that sets it.

    The generator of a correlator chain has order ``N (m + 1)``, so
    ``max_order(model) // (m + 1)`` bounds ``N``; the moment of order ``N``
    also expands into ``C(N + m, m)`` multinomial terms, at most
    ``DEFAULT_TERM_CAP``.
    """
    limit = max_order(model)
    cap = limit // (m + 1)
    terms = 0
    while terms < cap and comb(terms + 1 + m, m) <= DEFAULT_TERM_CAP:
        terms += 1
    if terms < cap:
        count = comb(terms + 1 + m, m)
        return terms, (f"the multinomial term cap: order {terms + 1} needs "
                       f"C({terms + 1 + m}, {m}) = {count} terms, above "
                       f"DEFAULT_TERM_CAP = {DEFAULT_TERM_CAP}")
    return cap, f"max_order(model) // (m + 1) = {limit} // {m + 1}"


def _capped_order(model: ModelSpec, m: int, requested: int, prefix: str = "") -> int:
    """``requested``, lowered to :func:`_order_cap` with a line on stderr."""
    cap, limit = _order_cap(model, m)
    if requested <= cap:
        return requested
    print(f"{prefix}order capped at {cap}; order {requested} exceeds {limit}", file=sys.stderr)
    return cap


def _price_report(request: PriceRequest, engine):
    """European or Asian report by the number of sampling times; failures name the order."""
    try:
        if request.m == 0:
            return european_price(request, engine=engine)
        return asian_price(request, engine=engine)
    except NumericalError as exc:
        raise NumericalError(f"order {request.basis.order} failed: {exc}") from exc


def _mc_config(mc: dict, seed: int) -> McConfig:
    return McConfig(paths=mc.get("paths", 20_000), batches=mc.get("batches", 100),
                    seed=seed, refine=mc.get("refine", 100))


def _run_pricing_cell(exp: PricingExperiment, engine, times, m, order, drift, law, strike,
                      scale, cell_idx):
    started = time.perf_counter()
    basis = GhpBasis(drift=drift, scale=scale, order=order)
    request = PriceRequest(
        strike=strike, rate=exp.rate, t=exp.t, times=times,
        basis=basis, model=exp.model, y_t=exp.y0,
    )
    report = _price_report(request, engine)
    exact = gaussian_call(law, strike) if law is not None else None
    mc = (None, None, None)
    if exp.mc is not None:
        estimate = mc_price(exp.model, request, _mc_config(exp.mc, exp.seed * 1_000_003 + cell_idx))
        mc = (estimate.mean, *estimate.ci95)
    wall_ms = int(round(1000 * (time.perf_counter() - started)))
    rows = []
    for n in range(order + 1):
        price_n = float(report.price_by_N[n])
        gamma = None
        if exact is not None and exact != 0 and math.isfinite(price_n):
            gamma = accuracy_gamma(exact, price_n)
        gt = float(report.gamma_tilde[n]) if n >= 1 else None
        rows.append((exp.experiment, _model_label(exp.model), strike, drift, scale, n, m,
                     price_n, gamma, gt, *mc, n == report.chosen_N, wall_ms))
    return rows


def _write_table(out_dir: str, output: str, header, rows, meta: dict) -> tuple[str, str]:
    """Write ``rows`` under ``header`` as a CSV table and ``meta`` as its JSON sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, output)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    meta_path = csv_path + ".meta.json"
    with open(meta_path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "engine": _engine_version(), **meta},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path


def run_pricing(exp: PricingExperiment, out_dir: str) -> tuple[str, str]:
    """Evaluate every grid cell and write the CSV table plus its sidecar."""
    engine = CorrelatorEngine(exp.model)
    cells = []
    for m in exp.m_values:
        times = _uniform_times(exp.t, exp.maturity, m)
        order = _capped_order(exp.model, m, exp.max_order, f"m={m}: ")
        drift, law, scales = _resolve(exp, engine, times)
        for strike in exp.strikes:
            for b in scales:
                cells.append((times, m, order, drift, law, strike, b))
    results = [
        _run_pricing_cell(exp, engine, *cell, idx) for idx, cell in enumerate(cells)
    ]
    config = dataclasses.asdict(exp)
    config["model"] = _model_config(exp.model)
    return _write_table(out_dir, exp.output, PRICING_COLUMNS,
                        (row for rows in results for row in rows),
                        {"seed": exp.seed, "kind": "pricing", "config": config})


def run_payoff_table(cfg: dict, out_dir: str) -> tuple[str, str]:
    """Payoff-approximation curves: series value against the kinked payoff."""
    experiment = _req(cfg, "experiment", "")
    strike = _strike(_req(cfg, "strike", ""), "strike")
    drift = _num(cfg.get("a", strike), "a")
    scales = _positive_list(_req(cfg, "scales", ""), "scales")
    orders = _list(cfg.get("orders", [5, 15, 30, 100]), "orders", lambda v, p: _int(v, p, 0))
    if max(orders) > MAX_ORDER:
        raise ConfigError(f"orders: must not exceed {MAX_ORDER}")
    grid = cfg.get("x_grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("x_grid: expected an object")
    lo = _num(grid.get("lo", strike - 5.0), "x_grid.lo")
    hi = _num(grid.get("hi", strike + 5.0), "x_grid.hi")
    xs = np.linspace(lo, hi, _int(grid.get("points", 201), "x_grid.points", 1))

    def rows():
        for b in scales:
            for order in orders:
                exp_ = payoff_coefficients(strike, GhpBasis(drift=drift, scale=b, order=order))
                vals = payoff_series_eval(exp_, xs)
                for x, v in zip(xs, vals):
                    yield (experiment, strike, drift, b, order, float(x),
                           max(x - strike, 0.0), float(v))

    return _write_table(out_dir, cfg.get("output", f"{experiment}.csv"),
                        ["experiment", "K", "a", "b", "N", "x", "payoff", "series_value"],
                        rows(), {"kind": "payoff-approximation", "config": cfg})


def run_error_table(cfg: dict, out_dir: str) -> tuple[str, str]:
    """Series-error tables: weighted L2 error over truncations and scales."""
    experiment = _req(cfg, "experiment", "")
    strike = _strike(_req(cfg, "strike", ""), "strike")
    drifts = _list(cfg.get("drifts", [strike]), "drifts")
    scales = _positive_list(_req(cfg, "scales", ""), "scales")
    max_order = _int(cfg.get("max_order", 30), "max_order", 0)
    if max_order >= SERIES_TAIL_END:
        raise ConfigError(f"max_order: must be below SERIES_TAIL_END = {SERIES_TAIL_END}")

    def rows():
        for a in drifts:
            for b in scales:
                for order in range(max_order + 1):
                    exp_ = payoff_coefficients(strike, GhpBasis(drift=a, scale=b, order=order))
                    yield experiment, strike, a, b, order, payoff_l2_error(exp_)

    return _write_table(out_dir, cfg.get("output", f"{experiment}.csv"),
                        ["experiment", "K", "a", "b", "N", "l2_error"],
                        rows(), {"kind": "series-error", "config": cfg})


def load_config(name_or_path: str) -> dict:
    """Load a bundled preset by name or a JSON config by path."""
    try:
        if os.path.exists(name_or_path):
            with open(name_or_path) as fh:
                cfg = json.load(fh)
        else:
            text = resources.files("asianhermite").joinpath(f"presets/{name_or_path}.json")
            cfg = json.loads(text.read_text())
    except FileNotFoundError:
        raise ConfigError(f"no such preset or config file: {name_or_path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name_or_path}: not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{name_or_path}: expected a JSON object")
    return cfg


def run_experiment(cfg: dict, out_dir: str) -> tuple[str, str]:
    """Dispatch a config to the writer for its experiment kind."""
    kind = cfg.get("kind", "pricing")
    if kind == "pricing":
        return run_pricing(parse_pricing(cfg), out_dir)
    if kind == "payoff-approximation":
        return run_payoff_table(cfg, out_dir)
    if kind == "series-error":
        return run_error_table(cfg, out_dir)
    raise ConfigError(f"kind: unknown experiment kind {kind!r}")


# ----------------------------------------------------------------------
# price subcommand


def _flag_number(raw: str):
    """``raw`` as a number if it parses as one, else as text for the config check to name."""
    try:
        return float(raw)
    except ValueError:
        return raw


def _explicit_times(raw: str, t: float) -> tuple[float, ...]:
    try:
        times = tuple(float(s) for s in raw.split(","))
    except ValueError:
        raise ConfigError(f"times: expected comma-separated numbers, got {raw!r}") from None
    if times[0] <= t or any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"times: must be strictly increasing and after t = {t!r}")
    return times


def _price_config(args) -> tuple[dict, tuple[float, ...] | None]:
    """The one-cell pricing config that the ``price`` flags describe, and the ``--times`` grid."""
    model = {"kind": args.model, "b0": args.b0, "b1": args.b1, "sigma0": args.sigma0}
    if args.nig is not None:
        model["nig"] = dict(zip(("alpha", "beta", "mu", "delta"), args.nig))
    ratio = args.b.removeprefix("ratio:")
    cfg = {
        "experiment": "price", "model": model, "t": args.t, "y0": args.y0,
        "rate": args.rate, "m_values": [args.m], "strikes": [args.strike],
        "scales" if ratio == args.b else "scale_ratios": [_flag_number(ratio)],
        "a_policy": _flag_number(args.a),
        "max_order": args.max_order if args.auto_n else args.order,
        "seed": args.seed,
    }
    if args.mc_check:
        cfg["mc"] = {"paths": args.mc_paths, "batches": args.mc_batches, "refine": args.mc_refine}
    times = None
    if args.times:
        times = _explicit_times(args.times, args.t)
        cfg.update(maturity=times[-1], m_values=[len(times) - 1])
    elif args.maturity is not None:
        cfg["maturity"] = args.maturity
    return cfg, times


def cmd_price(args) -> int:
    cfg, times = _price_config(args)
    exp = parse_pricing(cfg)
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ConfigError(f"threshold: must be finite and positive, got {args.threshold!r}")
    model, m = exp.model, exp.m_values[0]
    times = times or _uniform_times(exp.t, exp.maturity, m)
    engine = CorrelatorEngine(model)
    drift, _, (scale,) = _resolve(exp, engine, times)
    order_cap, _ = _order_cap(model, m)

    def price_at(order: int):
        basis = GhpBasis(drift=drift, scale=scale, order=order)
        request = PriceRequest(
            strike=exp.strikes[0], rate=exp.rate, t=exp.t, times=times,
            basis=basis, model=model, y_t=exp.y0,
        )
        return request, _price_report(request, engine)

    if args.auto_n:
        order = min(20, exp.max_order, order_cap)
        request, report = price_at(order)
        decision = stopping_criterion(report, args.threshold)
        while not decision.converged and order < min(exp.max_order, order_cap):
            grown = min(order + 20, exp.max_order)
            if grown > order_cap:
                grown = _capped_order(model, m, exp.max_order, "auto-N: ")
            try:
                request, report = price_at(grown)
            except NumericalError as exc:
                # a jump model's moments can exceed double range below its
                # order limit: keep the last order that priced
                print(f"auto-N: order capped at {order}; {exc}", file=sys.stderr)
                break
            order = grown
            decision = stopping_criterion(report, args.threshold)
    else:
        request, report = price_at(_capped_order(model, m, exp.max_order))
        decision = stopping_criterion(report, args.threshold)

    print(f"model: {_model_label(model)}  times: {', '.join(repr(s) for s in times)}")
    print(f"basis: a={drift!r} b={scale!r} order={report.order}")
    price = float(report.price_by_N[decision.n])
    print(f"price: {price!r}  (chosen N={decision.n}, converged={decision.converged})")
    trace = ", ".join(
        f"{n}:{report.gamma_tilde[n]:.2f}" for n in range(1, report.order + 1)
    )
    print(f"gamma_tilde trace: {trace}")
    if args.greeks:
        print(f"delta: {delta(request, engine=engine)!r}")
        for j in range(m + 1):
            print(f"theta[{j}]: {theta(request, j, engine=engine)!r}")
    if exp.mc is not None:
        estimate = mc_price(model, request, _mc_config(exp.mc, exp.seed))
        inside = estimate.contains(price)
        print(
            f"mc: mean={estimate.mean!r} ci95=({estimate.ci95[0]!r}, {estimate.ci95[1]!r}) "
            f"inside={'yes' if inside else 'no'}"
        )
    if args.strict and not decision.converged:
        print("series did not converge", file=sys.stderr)
        return 4
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.max_order is not None:
        cfg["max_order"] = args.max_order
    if args.no_mc:
        cfg["mc"] = None
    if args.mc_paths is not None or args.mc_batches is not None:
        mc = cfg.get("mc") or {}
        if args.mc_paths is not None:
            mc["paths"] = args.mc_paths
        if args.mc_batches is not None:
            mc["batches"] = args.mc_batches
        cfg["mc"] = mc
    csv_path, meta_path = run_experiment(cfg, args.out)
    print(csv_path)
    print(meta_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asianhermite",
        description="Hermite-series pricing of discretely sampled Asian calls "
                    "under polynomial jump-diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one option")
    p.add_argument("--model", choices=("bm", "ou", "jd"), default="bm")
    p.add_argument("--b0", type=float, default=0.0)
    p.add_argument("--b1", type=float, default=0.0)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--nig", type=float, nargs=4, metavar=("ALPHA", "BETA", "MU", "DELTA"))
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--maturity", type=float)
    p.add_argument("--m", type=int, default=0, help="number of extra sampling points")
    p.add_argument("--times", help="explicit comma-separated sampling times")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--a", default="mean", help="'mean' or a drift value")
    p.add_argument("--b", default="ratio:2.0", help="scale value or ratio:<x> of the floor")
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--auto-n", "--auto-N", dest="auto_n", action="store_true",
                   help="grow the order until the stop fires")
    p.add_argument("--max-order", type=int, default=100)
    p.add_argument("--threshold", type=float, default=4.0)
    p.add_argument("--greeks", action="store_true")
    p.add_argument("--mc-check", action="store_true")
    p.add_argument("--mc-paths", type=int, default=20_000)
    p.add_argument("--mc-batches", type=int, default=100)
    p.add_argument("--mc-refine", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_price)

    r = sub.add_parser("run", help="run a preset or config-file experiment")
    r.add_argument("config", help="preset name (fig1..fig8) or path to a JSON config")
    r.add_argument("--out", default=".", help="output directory")
    r.add_argument("--seed", type=int)
    r.add_argument("--max-order", type=int)
    r.add_argument("--no-mc", action="store_true")
    r.add_argument("--mc-paths", type=int)
    r.add_argument("--mc-batches", type=int)
    r.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
