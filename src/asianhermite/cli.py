"""Command-line runner: single-price quotes and batch experiment tables.

``asianhermite price`` quotes one option with optional Greeks and a Monte
Carlo cross-check.  ``asianhermite run`` executes a named preset or a JSON
config file over grids of strikes, scales, truncations and sampling counts,
writing a CSV table plus a JSON metadata sidecar.

Exit codes: 2 for configuration errors, 3 for numerical failures, 4 when
``--strict`` is set and the series did not converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import __version__
from .benchmarks import GaussianLaw, accuracy_gamma, gaussian_call, ou_asian_law, scale_floor
from .correlators import CorrelatorEngine
from .generator import ModelSpec, NigParams, NumericalError, max_order
from .hermite import GhpBasis, payoff_coefficients, payoff_l2_error, payoff_series_eval
from .montecarlo import McConfig, mc_price
from .pricing import (
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
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(float(value))
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


def _num_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


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
    m_values = cfg.get("m_values", [0])
    if not isinstance(m_values, list) or not m_values:
        raise ConfigError("m_values: expected a non-empty list")
    for i, m in enumerate(m_values):
        if not isinstance(m, int) or m < 0:
            raise ConfigError(f"m_values[{i}]: expected a non-negative integer")
    strikes = _num_list(_req(cfg, "strikes", ""), "strikes")
    if any(k < 0 for k in strikes):
        raise ConfigError("strikes: must be non-negative")
    scales = scale_ratios = None
    if "scales" in cfg and "scale_ratios" in cfg:
        raise ConfigError("scales: give either scales or scale_ratios, not both")
    if "scales" in cfg:
        scales = tuple(_num_list(cfg["scales"], "scales"))
        if any(b <= 0 for b in scales):
            raise ConfigError("scales: must be positive")
    elif "scale_ratios" in cfg:
        scale_ratios = tuple(_num_list(cfg["scale_ratios"], "scale_ratios"))
        if any(r <= 0 for r in scale_ratios):
            raise ConfigError("scale_ratios: must be positive")
    else:
        raise ConfigError("scales: either scales or scale_ratios is required")
    a_policy = cfg.get("a_policy", "mean")
    if a_policy != "mean":
        a_policy = _num(a_policy, "a_policy")
    max_order = cfg.get("max_order", 60)
    if not isinstance(max_order, int) or max_order < 1:
        raise ConfigError("max_order: expected a positive integer")
    mc = cfg.get("mc")
    if mc is not None:
        if not isinstance(mc, dict):
            raise ConfigError("mc: expected an object or null")
        for key in ("paths", "batches", "refine"):
            if key in mc and (not isinstance(mc[key], int) or mc[key] < 1):
                raise ConfigError(f"mc.{key}: expected a positive integer")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed: expected an integer")
    rate = _num(cfg.get("rate", 0.0), "rate")
    if rate < 0:
        raise ConfigError("rate: must be non-negative")
    output = cfg.get("output", f"{experiment}.csv")
    return PricingExperiment(
        experiment=experiment, model=model, t=t, y0=_num(cfg.get("y0", 0.0), "y0"),
        maturity=maturity, rate=rate, m_values=tuple(m_values), strikes=tuple(strikes),
        scales=scales, scale_ratios=scale_ratios, a_policy=a_policy,
        max_order=max_order, mc=mc, seed=seed, output=output,
    )


# ----------------------------------------------------------------------
# experiment execution


def _uniform_times(t: float, maturity: float, m: int) -> tuple[float, ...]:
    return tuple(t + (j + 1) * (maturity - t) / (m + 1) for j in range(m + 1))


def _benchmark_law(model: ModelSpec, t: float, y0: float, times) -> GaussianLaw | None:
    if model.jumps is not None or model.diff_sq <= 0:
        return None
    return ou_asian_law(model, t, y0, times)


def _capped_order(model: ModelSpec, m: int, requested: int, prefix: str = "") -> int:
    """``requested``, lowered to ``max_order(model) // (m + 1)`` with a line on stderr."""
    limit = max_order(model)
    cap = limit // (m + 1)
    if requested <= cap:
        return requested
    print(f"{prefix}order capped at {cap}; order {requested} exceeds "
          f"max_order(model) // (m + 1) = {limit} // {m + 1}", file=sys.stderr)
    return cap


def _price_report(request: PriceRequest, engine):
    """European or Asian report by the number of sampling times; failures name the order."""
    try:
        if request.m == 0:
            return european_price(request, engine=engine)
        return asian_price(request, engine=engine)
    except NumericalError as exc:
        raise NumericalError(f"order {request.basis.order} failed: {exc}") from exc


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
    estimate = None
    if exp.mc is not None:
        cfg = McConfig(
            paths=exp.mc.get("paths", 20_000),
            batches=exp.mc.get("batches", 100),
            seed=exp.seed * 1_000_003 + cell_idx,
            refine=exp.mc.get("refine", 100),
        )
        estimate = mc_price(exp.model, request, cfg)
    wall_ms = int(round(1000 * (time.perf_counter() - started)))
    rows = []
    for n in range(order + 1):
        price_n = float(report.price_by_N[n])
        gamma = None
        if exact is not None and exact != 0 and math.isfinite(price_n):
            gamma = accuracy_gamma(exact, price_n)
        gt = float(report.gamma_tilde[n]) if n >= 1 else None
        rows.append({
            "experiment": exp.experiment,
            "model": _model_label(exp.model),
            "K": strike,
            "a": drift,
            "b": scale,
            "N": n,
            "m": m,
            "price": price_n,
            "gamma": gamma,
            "gamma_tilde": gt,
            "mc_mean": estimate.mean if estimate else None,
            "mc_lo": estimate.ci95[0] if estimate else None,
            "mc_hi": estimate.ci95[1] if estimate else None,
            "stopped": n == report.chosen_N,
            "wall_ms": wall_ms,
        })
    return rows


def run_pricing(exp: PricingExperiment, out_dir: str) -> tuple[str, str]:
    """Evaluate every grid cell and write the CSV table plus its sidecar."""
    engine = CorrelatorEngine(exp.model)
    cells = []
    for m in exp.m_values:
        times = _uniform_times(exp.t, exp.maturity, m)
        order = _capped_order(exp.model, m, exp.max_order, f"m={m}: ")
        if exp.a_policy == "mean":
            drift = default_drift(exp.model, exp.t, exp.y0, times)
        else:
            drift = float(exp.a_policy)
        law = _benchmark_law(exp.model, exp.t, exp.y0, times)
        if exp.scales is not None:
            bs = exp.scales
        else:
            floor = scale_floor(average_std(exp.model, exp.t, exp.y0, times, engine=engine))
            bs = tuple(r * floor for r in exp.scale_ratios)
        for strike in exp.strikes:
            for b in bs:
                cells.append((times, m, order, drift, law, strike, b))
    results = [
        _run_pricing_cell(exp, engine, *cell, idx) for idx, cell in enumerate(cells)
    ]
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, exp.output)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PRICING_COLUMNS)
        for rows in results:
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in PRICING_COLUMNS])
    meta = {
        "schema_version": SCHEMA_VERSION,
        "engine": _engine_version(),
        "seed": exp.seed,
        "kind": "pricing",
        "config": _resolved_config(exp),
    }
    meta_path = csv_path + ".meta.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path


def _resolved_config(exp: PricingExperiment) -> dict:
    model = {
        "kind": _model_label(exp.model),
        "b0": exp.model.drift_const,
        "b1": exp.model.drift_lin,
        "sigma0": exp.model.diff_sq,
    }
    if exp.model.jumps is not None:
        j = exp.model.jumps
        model["nig"] = {"alpha": j.alpha, "beta": j.beta, "mu": j.mu, "delta": j.delta}
    return {
        "experiment": exp.experiment,
        "model": model,
        "t": exp.t,
        "y0": exp.y0,
        "maturity": exp.maturity,
        "rate": exp.rate,
        "m_values": list(exp.m_values),
        "strikes": list(exp.strikes),
        "scales": list(exp.scales) if exp.scales else None,
        "scale_ratios": list(exp.scale_ratios) if exp.scale_ratios else None,
        "a_policy": exp.a_policy,
        "max_order": exp.max_order,
        "mc": exp.mc,
        "seed": exp.seed,
        "output": exp.output,
    }


def run_payoff_table(cfg: dict, out_dir: str) -> tuple[str, str]:
    """Payoff-approximation curves: series value against the kinked payoff."""
    experiment = _req(cfg, "experiment", "")
    strike = _num(_req(cfg, "strike", ""), "strike")
    drift = _num(cfg.get("a", strike), "a")
    scales = _num_list(_req(cfg, "scales", ""), "scales")
    orders = cfg.get("orders", [5, 15, 30, 100])
    grid = cfg.get("x_grid", {})
    lo = _num(grid.get("lo", strike - 5.0), "x_grid.lo")
    hi = _num(grid.get("hi", strike + 5.0), "x_grid.hi")
    points = grid.get("points", 201)
    xs = np.linspace(lo, hi, points)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, cfg.get("output", f"{experiment}.csv"))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "K", "a", "b", "N", "x", "payoff", "series_value"])
        for b in scales:
            for order in orders:
                exp_ = payoff_coefficients(strike, GhpBasis(drift=drift, scale=b, order=order))
                vals = payoff_series_eval(exp_, xs)
                for x, v in zip(xs, vals):
                    writer.writerow([
                        experiment, _fmt(strike), _fmt(drift), _fmt(b), order,
                        _fmt(float(x)), _fmt(max(x - strike, 0.0)), _fmt(float(v)),
                    ])
    meta_path = csv_path + ".meta.json"
    with open(meta_path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "engine": _engine_version(),
                   "kind": "payoff-approximation", "config": cfg}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path


def run_error_table(cfg: dict, out_dir: str) -> tuple[str, str]:
    """Series-error tables: weighted L2 error over truncations and scales."""
    experiment = _req(cfg, "experiment", "")
    strike = _num(_req(cfg, "strike", ""), "strike")
    drifts = _num_list(cfg.get("drifts", [strike]), "drifts")
    scales = _num_list(_req(cfg, "scales", ""), "scales")
    max_order = cfg.get("max_order", 30)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, cfg.get("output", f"{experiment}.csv"))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "K", "a", "b", "N", "l2_error"])
        for a in drifts:
            for b in scales:
                for order in range(max_order + 1):
                    exp_ = payoff_coefficients(strike, GhpBasis(drift=a, scale=b, order=order))
                    err = payoff_l2_error(exp_)
                    writer.writerow([
                        experiment, _fmt(strike), _fmt(a), _fmt(b), order, _fmt(err),
                    ])
    meta_path = csv_path + ".meta.json"
    with open(meta_path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "engine": _engine_version(),
                   "kind": "series-error", "config": cfg}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path


def load_config(name_or_path: str) -> dict:
    """Load a bundled preset by name or a JSON config by path."""
    if os.path.exists(name_or_path):
        with open(name_or_path) as fh:
            return json.load(fh)
    try:
        text = resources.files("asianhermite").joinpath(f"presets/{name_or_path}.json").read_text()
    except FileNotFoundError:
        raise ConfigError(f"no such preset or config file: {name_or_path}") from None
    return json.loads(text)


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


def _parse_scale(raw: str, floor: float | None) -> float:
    if raw.startswith("ratio:"):
        if floor is None:
            raise ConfigError("--b ratio form needs a model with positive variance")
        try:
            ratio = float(raw.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"--b: bad ratio value {raw!r}") from None
        if ratio <= 0:
            raise ConfigError("--b: ratio must be positive")
        return ratio * floor
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"--b: expected a number or ratio:<x>, got {raw!r}") from None
    if value <= 0:
        raise ConfigError("--b: scale must be positive")
    return value


def cmd_price(args) -> int:
    model_cfg = {
        "kind": args.model,
        "b0": args.b0,
        "b1": args.b1,
        "sigma0": args.sigma0,
    }
    if args.model == "jd":
        if args.nig is None:
            raise ConfigError("model.nig: --nig ALPHA BETA MU DELTA is required for jd")
        model_cfg["nig"] = dict(zip(("alpha", "beta", "mu", "delta"), args.nig))
    model = parse_model(model_cfg)
    if args.times:
        try:
            times = tuple(float(s) for s in args.times.split(","))
        except ValueError:
            raise ConfigError(f"--times: expected comma-separated numbers, got {args.times!r}") from None
    else:
        if args.maturity is None:
            raise ConfigError("--maturity: required unless --times is given")
        times = _uniform_times(args.t, args.maturity, args.m)
    engine = CorrelatorEngine(model)
    if args.a == "mean":
        drift = default_drift(model, args.t, args.y0, times)
    else:
        try:
            drift = float(args.a)
        except ValueError:
            raise ConfigError(f"--a: expected 'mean' or a number, got {args.a!r}") from None
    floor = None
    try:
        floor = scale_floor(average_std(model, args.t, args.y0, times, engine=engine))
    except ValueError:
        pass
    scale = _parse_scale(args.b, floor)

    m = len(times) - 1
    order_cap = max_order(model) // (m + 1)

    def price_at(order: int):
        basis = GhpBasis(drift=drift, scale=scale, order=order)
        request = PriceRequest(
            strike=args.strike, rate=args.rate, t=args.t, times=times,
            basis=basis, model=model, y_t=args.y0,
        )
        return request, _price_report(request, engine)

    if args.auto_n:
        order = min(20, order_cap)
        request, report = price_at(order)
        decision = stopping_criterion(report, args.threshold)
        while not decision.converged and order < min(args.max_order, order_cap):
            grown = min(order + 20, args.max_order)
            if grown > order_cap:
                grown = _capped_order(model, m, args.max_order, "auto-N: ")
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
        request, report = price_at(_capped_order(model, m, args.order))
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
    if args.mc_check:
        cfg = McConfig(paths=args.mc_paths, batches=args.mc_batches,
                       seed=args.seed, refine=args.mc_refine)
        estimate = mc_price(model, request, cfg)
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
