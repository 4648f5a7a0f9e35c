"""The package's public names and the hooks the benchmark installs on them."""

import importlib
from pathlib import Path

import asianhermite
from asianhermite import pricing

PUBLIC = [
    "CorrelatorEngine", "CorrelatorQuery", "GaussianLaw", "GhpBasis", "McConfig",
    "McEstimate", "ModelSpec", "NigParams", "NumericalError", "PayoffExpansion",
    "PriceReport", "PriceRequest", "StoppingDecision", "accuracy_gamma", "asian_price",
    "average_std", "change_of_basis", "correlator", "correlator_kronecker_reference",
    "correlator_tower_oracle", "default_drift", "delta", "error_constant",
    "european_price", "gaussian_call", "generator_matrix", "ghp_eval", "ghp_norm_sq",
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
