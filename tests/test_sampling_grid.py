"""Every entry point that takes a sampling grid refuses the same bad grids."""

import math

import pytest

from asianhermite import (
    CorrelatorQuery,
    GhpBasis,
    McConfig,
    PriceRequest,
    average_std,
    default_drift,
    ou_asian_law,
    simulate_paths,
)
from asianhermite.cli import main

# grids that are wrong relative to t = 0
BAD_GRIDS = {
    "empty": (),
    "unsorted": (1.0, 0.5),
    "not-after-t": (0.0, 1.0),
    "nan": (0.5, math.nan),
}

CALLERS = {
    "PriceRequest": lambda model, times: PriceRequest(
        1.0, 0.0, 0.0, times, GhpBasis(drift=2.0, scale=1.0, order=2), model, 2.0),
    "CorrelatorQuery": lambda model, times: CorrelatorQuery(
        t=0.0, y_t=2.0, times=times, powers=(1,) * len(times)),
    "simulate_paths": lambda model, times: simulate_paths(
        model, 0.0, 2.0, times, McConfig(paths=2, batches=1)),
    "ou_asian_law": lambda model, times: ou_asian_law(model, 0.0, 2.0, times),
    "default_drift": lambda model, times: default_drift(model, 0.0, 2.0, times),
    "average_std": lambda model, times: average_std(model, 0.0, 2.0, times),
}

PRICE_FLAGS = [
    "price", "--model", "ou", "--b0", "-0.02", "--b1", "0.01", "--sigma0", "0.98",
    "--y0", "2", "--strike", "2", "--order", "4",
]


@pytest.mark.parametrize("grid", BAD_GRIDS)
@pytest.mark.parametrize("caller", [*CALLERS, "price --times"])
def test_bad_grid_refused(caller, grid, ou_model, capsys):
    times = BAD_GRIDS[grid]
    if caller == "price --times":
        code = main(PRICE_FLAGS + ["--times", ",".join(repr(s) for s in times)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: times: ")
        assert captured.out == ""
    else:
        with pytest.raises(ValueError, match="sampling time"):
            CALLERS[caller](ou_model, times)
