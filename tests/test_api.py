"""The package's public names, the checks on their fields and the hooks the benchmark installs."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import asianhermite
from asianhermite import (
    GaussianLaw,
    GhpBasis,
    McConfig,
    ModelSpec,
    NigParams,
    PriceRequest,
    pricing,
)

PUBLIC = [
    "CorrelatorEngine", "CorrelatorQuery", "GaussianLaw", "GhpBasis", "McConfig",
    "McEstimate", "ModelSpec", "NigParams", "NumericalError", "PayoffExpansion",
    "PriceReport", "PriceRequest", "StoppingDecision", "accuracy_gamma", "asian_price",
    "average_std", "change_of_basis", "correlator", "correlator_kronecker_reference",
    "correlator_tower_oracle", "default_drift", "delta", "error_constant",
    "european_price", "gamma", "gaussian_call", "generator_matrix", "ghp_eval", "ghp_norm_sq",
    "hermite_eval", "levy_moments", "matrix_exponential", "max_order", "mc_price",
    "moment", "moment_vector", "ou_asian_law", "payoff_coefficients", "payoff_l2_error",
    "payoff_series_eval", "scale_floor", "simulate_paths", "std_normal",
    "stopping_criterion", "theta",
]

# name -> the module that still provides it; None where the name is gone
NOT_AT_ROOT = {
    "ChangeOfBasis": None,
    "ErrorBoundInputs": None,
    "GeneratorMatrix": None,
    "LevyMoments": None,
    "MultiIndexTerm": None,
    "kron": None,
    "DuplicatingMatrix": "kronecker",
    "EliminatingMatrix": "kronecker",
    "MthSelector": "kronecker",
    "duplicating": "kronecker",
    "eliminating": "kronecker",
    "mth_selectors": "kronecker",
    "vec": "kronecker",
    "vec_inverse": "kronecker",
    "vecl": "kronecker",
    "multinomial_expand": "pricing",
}


def test_public_names():
    assert asianhermite.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(asianhermite, name) is not None


def test_selector_calculus_lives_in_its_module():
    for name, module in NOT_AT_ROOT.items():
        assert not hasattr(asianhermite, name), name
        if module is not None:
            assert hasattr(importlib.import_module(f"asianhermite.{module}"), name), name


BM = ModelSpec(0.0, 0.0, 1.0)
BASIS = GhpBasis(drift=0.0, scale=1.0, order=4)

# (constructor call, field its error names)
BAD_FIELDS = [
    pytest.param(lambda: ModelSpec(0.0, 0.0, math.nan), "diff_sq", id="model-diff-sq-nan"),
    pytest.param(lambda: ModelSpec(0.0, math.inf, 1.0), "drift_lin", id="model-drift-lin-inf"),
    pytest.param(lambda: NigParams(1.0, 0.0, math.nan, 0.05), "mu", id="nig-mu-nan"),
    pytest.param(lambda: NigParams(1.0, 0.0, 0.5, 0.05), "mu", id="nig-mu-nonzero"),
    pytest.param(lambda: NigParams(math.inf, 0.0, 0.0, 0.05), "alpha", id="nig-alpha-inf"),
    pytest.param(lambda: GhpBasis(drift=math.nan, scale=1.0, order=4), "drift",
                 id="basis-drift-nan"),
    pytest.param(lambda: GhpBasis(drift=0.0, scale=math.inf, order=4), "scale",
                 id="basis-scale-inf"),
    pytest.param(lambda: GhpBasis(drift=0.0, scale=1.0, order=2.5), "order",
                 id="basis-order-fraction"),
    pytest.param(lambda: McConfig(paths=2.5), "paths", id="mc-paths-fraction"),
    pytest.param(lambda: GaussianLaw(mean=math.nan, std=1.0), "mean", id="law-mean-nan"),
    pytest.param(lambda: GaussianLaw(mean=0.0, std=math.inf), "std", id="law-std-inf"),
    pytest.param(lambda: PriceRequest(1.0, 0.0, 0.0, (1.0,), BASIS, BM, math.nan), "y_t",
                 id="request-state-nan"),
]


@pytest.mark.parametrize("build, field", BAD_FIELDS)
def test_bad_field_fails_at_construction(build, field):
    # a NaN or a fraction must not reach a price, where it fails late or
    # not at all
    with pytest.raises(ValueError, match=f"^{field} must be"):
        build()


def test_integer_fields_take_numpy_integers():
    assert GhpBasis(drift=0.0, scale=1.0, order=np.int64(4)).order == 4
    cfg = McConfig(paths=np.int32(10), batches=np.int64(2), seed=np.uint32(7), refine=np.int16(3))
    assert (cfg.paths, cfg.batches, cfg.seed, cfg.refine) == (10, 2, 7, 3)


def test_bench_hooks_install_and_uninstall(monkeypatch):
    # the benchmark wraps functions where their callers look them up, so a
    # moved or renamed name breaks it; install and remove every wrapper
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    original = pricing.asian_price
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer)
        originals = {}
        for owner, attr, fn in tracer._undo:
            originals.setdefault((owner, attr), fn)
        assert pricing.asian_price is not original
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in originals.items())
    finally:
        tracer.uninstall()
    assert pricing.asian_price is original
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())
