"""Simulation benchmark: exact OU transitions, NIG jump-diffusion paths, MC pricing.

The Gaussian models are sampled exactly at the monitoring grid.  Jump
models take Euler steps for drift and diffusion on a refined grid, with the
jump increment over each step drawn exactly by inverse-Gaussian
subordination and recentred by its analytic mean so the simulated jump
part is a martingale, matching the compensated-measure dynamics.  Given
the subordinator S the diffusion and jump noises of a substep are
independent Gaussians, and the Euler map is affine in them, so given the
S of every substep of a monitoring interval the interval's Gaussian part
is one normal.  Its variance is the sum over the substeps of
``(1 + b1*dt)^(2j) * (diff_sq*dt + S)``, with j the number of substeps
after the one that drew S.  Each substep therefore draws only S, and each
interval draws one standard normal per path: the law at the monitoring
dates is the Euler scheme's.

``mc_price`` splits the paths into batches, each drawn from its own PCG64
substream spawned from the seed.  The batches run concurrently on
threads, and because no batch shares a stream with another the estimate
equals the serial loop's bit for bit, whatever the number of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .generator import ModelSpec, _phi, _require_int, _sampling_grid
from .pricing import PriceRequest

@dataclass(frozen=True)
class McConfig:
    """Path counts, batching, seed and Euler refinement of jump models."""

    paths: int = 20_000
    batches: int = 100
    seed: int = 0
    refine: int = 100  # euler substeps per monitoring interval

    def __post_init__(self):
        for name in ("paths", "batches", "refine"):
            _require_int(self, name, 1)
        _require_int(self, "seed", 0)


@dataclass(frozen=True)
class McEstimate:
    """Batch-mean estimate with its standard error and 95% interval."""

    mean: float
    std_error: float
    ci95: tuple[float, float]

    def contains(self, value: float) -> bool:
        return self.ci95[0] <= value <= self.ci95[1]


def _ou_step(spec: ModelSpec, y: np.ndarray, tau: float, rng: np.random.Generator) -> np.ndarray:
    b0, b1, s0 = spec.drift_const, spec.drift_lin, spec.diff_sq
    mean = y * math.exp(b1 * tau) + b0 * tau * _phi(b1 * tau)
    var = s0 * tau * _phi(2.0 * b1 * tau)
    if var <= 0.0:
        return mean
    return mean + math.sqrt(var) * rng.standard_normal(y.shape)


def _euler_jump_path(
    spec: ModelSpec,
    y: np.ndarray,
    t0: float,
    t1: float,
    substeps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    jumps = spec.jumps
    dt = (t1 - t0) / substeps
    gam = jumps.gamma
    # exact NIG increment over dt: mu*dt + beta*S + sqrt(S)*Z' with S
    # inverse-Gaussian; the compensator (mu + delta*beta/gam)*dt cancels mu
    ig_mean = jumps.delta * dt / gam
    ig_shape = (jumps.delta * dt) ** 2
    growth = 1.0 + spec.drift_lin * dt
    shift = (spec.drift_const - jumps.delta * jumps.beta / gam) * dt
    # substep k of K maps y to y*growth + shift + beta*S_k + sqrt(diff_sq*dt + S_k)*Z_k.
    # Given S_1..S_K the K normals sum to one normal of variance
    # sum growth^(2(K-1-k)) * (diff_sq*dt + S_k), so a substep draws only S_k
    # and Horner's rule keeps var = sum growth^(2(K-1-k)) S_k and
    # lin = sum growth^(K-1-k) S_k; the deterministic sums close at the end
    growth_sq = growth * growth
    var = np.zeros_like(y)
    lin = np.zeros_like(y) if jumps.beta != 0.0 else None
    for _ in range(substeps):
        s = rng.wald(ig_mean, ig_shape, size=y.shape)
        var *= growth_sq
        var += s
        if lin is not None:
            lin *= growth
            lin += s
    y = y * growth**substeps
    y += shift * math.fsum(growth**k for k in range(substeps))
    if lin is not None:
        lin *= jumps.beta
        y += lin
    var += spec.diff_sq * dt * math.fsum(growth ** (2 * k) for k in range(substeps))
    np.sqrt(var, out=var)
    var *= rng.standard_normal(y.shape)
    y += var
    return y


def _simulate(
    spec: ModelSpec,
    t: float,
    y_t: float,
    times: tuple[float, ...],
    paths: int,
    scheme: str,
    refine: int,
    rng: np.random.Generator,
) -> np.ndarray:
    grid = (t,) + times
    out = np.empty((paths, len(times)))
    y = np.full(paths, float(y_t))
    for j in range(len(times)):
        if scheme == "exact-ou":
            y = _ou_step(spec, y, grid[j + 1] - grid[j], rng)
        else:
            y = _euler_jump_path(spec, y, grid[j], grid[j + 1], refine, rng)
        out[:, j] = y
    return out


def _generator(stream: np.random.SeedSequence) -> np.random.Generator:
    """The generator every path batch draws from: PCG64 on its own stream."""
    return np.random.default_rng(stream)


def simulate_paths(
    spec: ModelSpec, t: float, y_t: float, times, cfg: McConfig
) -> np.ndarray:
    """Sample the process at the monitoring times; one row per path."""
    times = _sampling_grid(t, times)
    scheme = "exact-ou" if spec.jumps is None else "euler-jump"
    rng = _generator(np.random.SeedSequence(cfg.seed))
    return _simulate(spec, t, y_t, times, cfg.paths, scheme, cfg.refine, rng)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_price(spec: ModelSpec, request: PriceRequest, cfg: McConfig) -> McEstimate:
    """Discounted mean call payoff on the discrete average, batched.

    Each batch draws from its own spawned PCG64 substream, so batches
    run concurrently on a thread pool of ``min(batches, usable CPUs)``
    workers (numpy's draws and ufuncs release the GIL) and the estimate is
    bit-identical to running them one after another.  The standard error
    comes from the dispersion of batch means, so at least two batches are
    needed.
    """
    if request.model != spec:
        raise ValueError("request was built for a different model")
    if cfg.batches < 2:
        raise ValueError("a batch-means error needs at least two batches")
    scheme = "exact-ou" if spec.jumps is None else "euler-jump"
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.batches)

    def batch_mean(stream: np.random.SeedSequence) -> float:
        rng = _generator(stream)
        values = _simulate(
            spec, request.t, request.y_t, request.times, cfg.paths, scheme, cfg.refine, rng
        )
        payoff = np.maximum(values.mean(axis=1) - request.strike, 0.0)
        return request.discount * payoff.mean()

    with ThreadPoolExecutor(max_workers=min(cfg.batches, _usable_cpus())) as pool:
        means = np.fromiter(pool.map(batch_mean, streams), dtype=float, count=cfg.batches)
    mean = float(means.mean())
    std_error = float(means.std(ddof=1) / math.sqrt(cfg.batches))
    half = 1.96 * std_error
    return McEstimate(mean=mean, std_error=std_error, ci95=(mean - half, mean + half))
