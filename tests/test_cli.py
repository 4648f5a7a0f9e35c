import csv
import json
import math

import pytest

from asianhermite import ModelSpec, NigParams, max_order
from asianhermite.cli import PRICING_COLUMNS, _capped_order, _order_cap, load_config, main
from asianhermite.pricing import DEFAULT_TERM_CAP


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def tiny_config(tmp_path, **overrides):
    cfg = {
        "experiment": "tiny",
        "model": {"kind": "ou", "b0": -0.02, "b1": 0.01, "sigma0": 0.98},
        "t": 0.0,
        "y0": 2.0,
        "maturity": 2.0,
        "m_values": [0, 1],
        "strikes": [1.0, 2.0],
        "scales": [1.5],
        "a_policy": "mean",
        "max_order": 10,
        "mc": None,
        "seed": 7,
        "output": "tiny.csv",
    }
    cfg.update(overrides)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return path


class TestPriceCommand:
    def test_basic_quote(self, capsys):
        code = main([
            "price", "--model", "ou", "--b0", "-0.02", "--b1", "0.01",
            "--sigma0", "0.98", "--y0", "2", "--maturity", "2",
            "--m", "1", "--strike", "2", "--order", "24",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "price:" in out
        assert "gamma_tilde trace:" in out
        assert "chosen N=" in out

    def test_auto_order_stops(self, capsys):
        code = main([
            "price", "--model", "ou", "--b0", "-0.02", "--b1", "0.01",
            "--sigma0", "0.98", "--y0", "2", "--maturity", "2",
            "--m", "0", "--strike", "2", "--auto-n",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged=True" in out

    def test_auto_order_starts_within_max_order(self, capsys):
        # --max-order fills max_order, so growth never starts above it
        code = main([
            "price", "--model", "ou", "--b0", "-0.02", "--b1", "0.01",
            "--sigma0", "0.98", "--y0", "2", "--maturity", "2",
            "--m", "0", "--strike", "2", "--auto-n", "--max-order", "10", "--threshold", "9",
        ])
        assert code == 0
        assert "order=10" in capsys.readouterr().out

    def test_auto_order_capped_for_jump_model(self, capsys):
        # the fig8 jump moments leave double range: the order grows no
        # further than the model's limit, and an order whose exponential
        # overflows below it ends the growth at the last order that priced
        code = main([
            "price", "--model", "jd", "--nig", "1", "0", "0", "0.05",
            "--b0", "-0.02", "--b1", "0.01", "--sigma0", "0.49", "--y0", "2",
            "--maturity", "2", "--m", "0", "--strike", "2", "--auto-n",
            "--max-order", "200",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "auto-N: order capped at 160; order 172 failed" in captured.err
        assert "order=160" in captured.out
        assert captured.err.count("order 200 exceeds max_order(model) // (m + 1) = 172 // 1") == 1

    def test_order_cap_reported_and_failure_named(self, capsys):
        code = main([
            "price", "--model", "jd", "--nig", "1", "0", "0", "0.05",
            "--b0", "-0.02", "--b1", "0.01", "--sigma0", "0.49", "--y0", "2",
            "--maturity", "2", "--m", "0", "--strike", "2", "--order", "200",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "order capped at 172; order 200 exceeds max_order(model) // (m + 1) = 172 // 1" in err
        assert "numerical failure: order 172 failed: matrix exponential overflowed" in err

    def test_step_overflow_is_numerical_failure(self, capsys):
        # alpha = 0.005 keeps the generator finite up to order 83, but not
        # its product with the two-year step
        code = main([
            "price", "--model", "jd", "--nig", "0.005", "0", "0", "1.0",
            "--b0", "-0.02", "--b1", "0.01", "--sigma0", "0.49", "--y0", "2",
            "--maturity", "2", "--m", "0", "--strike", "2", "--order", "200",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure: order 83 failed: generator of order 83 overflowed" in err

    def test_order_within_cap_is_silent(self, capsys):
        code = main([
            "price", "--model", "jd", "--nig", "1", "0", "0", "0.05",
            "--b0", "-0.02", "--b1", "0.01", "--sigma0", "0.49", "--y0", "2",
            "--maturity", "2", "--m", "0", "--strike", "2", "--order", "20",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_greeks_flag(self, capsys):
        code = main([
            "price", "--model", "ou", "--b0", "-0.02", "--b1", "0.01",
            "--sigma0", "0.98", "--y0", "2", "--maturity", "2",
            "--m", "1", "--strike", "2", "--order", "8", "--greeks",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta:" in out
        assert "theta[0]:" in out
        assert "theta[1]:" in out

    def test_mc_check_flag(self, capsys):
        code = main([
            "price", "--model", "ou", "--b0", "-0.02", "--b1", "0.01",
            "--sigma0", "0.98", "--y0", "2", "--maturity", "2",
            "--m", "0", "--strike", "2", "--order", "16",
            "--mc-check", "--mc-paths", "2000", "--mc-batches", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mc: mean=" in out
        assert "inside=" in out

    def test_explicit_times(self, capsys):
        code = main([
            "price", "--model", "bm", "--maturity", "0.5",
            "--times", "0.2,0.5", "--strike", "0.2", "--b", "1.0", "--order", "8",
        ])
        assert code == 0

    def test_missing_nig_is_config_error(self, capsys):
        code = main(["price", "--model", "jd", "--maturity", "1", "--strike", "1"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_strict_flags_non_convergence(self, capsys):
        # at the scale floor the series oscillates without converging
        code = main([
            "price", "--model", "bm", "--maturity", "0.5", "--strike", "0.2",
            "--b", "ratio:1.0", "--order", "40", "--strict",
        ])
        assert code == 4

    def test_bad_scale_spec(self, capsys):
        code = main([
            "price", "--model", "bm", "--maturity", "0.5", "--strike", "0.2",
            "--b", "ratio:abc",
        ])
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys):
        # an astronomically large state overflows the moment vector
        code = main([
            "price", "--model", "bm", "--y0", "1e200", "--maturity", "1",
            "--strike", "1", "--b", "1.0", "--a", "0.0", "--order", "30",
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestOrderCap:
    OU = ModelSpec(-0.02, 0.01, 0.98)
    FIG8 = ModelSpec(-0.02, 0.01, 0.49, NigParams(1.0, 0.0, 0.0, 0.05))

    @pytest.mark.parametrize("model, m, cap, binding", [
        (OU, 0, 200, "max_order"), (OU, 6, 28, "max_order"), (OU, 7, 22, "term cap"),
        (OU, 11, 12, "term cap"), (FIG8, 7, 21, "max_order"), (FIG8, 8, 18, "term cap"),
    ], ids=["ou-0", "ou-6", "ou-7", "ou-11", "fig8-7", "fig8-8"])
    def test_cap_and_its_limit(self, model, m, cap, binding):
        got, limit = _order_cap(model, m)
        assert got == cap
        assert binding in limit

    @pytest.mark.parametrize("model", [OU, FIG8], ids=["ou", "fig8"])
    def test_cap_is_the_largest_admissible_order(self, model):
        for m in range(13):
            cap, _ = _order_cap(model, m)

            def admissible(n):
                return n * (m + 1) <= max_order(model) and math.comb(n + m, m) <= DEFAULT_TERM_CAP

            assert admissible(cap) and not admissible(cap + 1), m

    def test_term_cap_reported_on_stderr(self, capsys):
        # the quote itself would take minutes at m = 11; the cap is what fails early
        assert _capped_order(self.OU, 11, 30) == 12
        assert capsys.readouterr().err == (
            "order capped at 12; order 30 exceeds the multinomial term cap: order 13 "
            "needs C(24, 11) = 2496144 terms, above DEFAULT_TERM_CAP = 2000000\n"
        )


class TestRunCommand:
    def test_tiny_experiment_table(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "tiny.csv")
        assert list(rows[0].keys()) == PRICING_COLUMNS
        # one row per (m, K, b, N): 2 strikes x 1 scale x (11 + 11) orders
        assert len(rows) == 2 * (11 + 11)
        stopped = [r for r in rows if r["stopped"] == "true"]
        assert len(stopped) == 4  # one per cell
        # closed-form benchmark present for the jump-free model
        assert all(r["gamma"] != "" for r in rows if int(r["N"]) > 0)
        assert all(r["mc_mean"] == "" for r in rows)
        # rows echo the resolved configuration
        assert {r["m"] for r in rows} == {"0", "1"}
        assert all(r["a"] != "" and r["b"] == "1.5" for r in rows)

    def test_rerun_identical_up_to_timing(self, tmp_path):
        cfg = tiny_config(tmp_path)
        main(["run", str(cfg), "--out", str(tmp_path / "one")])
        main(["run", str(cfg), "--out", str(tmp_path / "two")])
        a = read_rows(tmp_path / "one" / "tiny.csv")
        b = read_rows(tmp_path / "two" / "tiny.csv")
        for ra, rb in zip(a, b):
            ra.pop("wall_ms")
            rb.pop("wall_ms")
            assert ra == rb

    def test_sidecar_metadata(self, tmp_path):
        cfg = tiny_config(tmp_path)
        main(["run", str(cfg), "--out", str(tmp_path)])
        meta = json.loads((tmp_path / "tiny.csv.meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["seed"] == 7
        assert meta["config"]["model"]["kind"] == "ou"
        assert meta["config"]["strikes"] == [1.0, 2.0]

    def test_mc_columns_filled_when_requested(self, tmp_path):
        cfg = tiny_config(
            tmp_path, mc={"paths": 500, "batches": 4}, m_values=[0], strikes=[2.0],
            max_order=6,
        )
        main(["run", str(cfg), "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "tiny.csv")
        assert all(r["mc_mean"] != "" for r in rows)
        assert all(float(r["mc_lo"]) <= float(r["mc_mean"]) <= float(r["mc_hi"]) for r in rows)

    def test_order_cap_reported_once_per_m(self, tmp_path, capsys):
        # alpha = 0.01 puts this model's order limit at 89
        cfg = tiny_config(
            tmp_path, m_values=[0], strikes=[1.0, 2.0], scales=[1.5, 2.0], max_order=100,
            model={"kind": "jd", "b0": -0.02, "b1": 0.01, "sigma0": 0.49,
                   "nig": {"alpha": 0.01, "beta": 0.0, "mu": 0.0, "delta": 0.05}},
        )
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 0
        assert err.count("order capped") == 1
        assert "m=0: order capped at 89; order 100 exceeds max_order(model) // (m + 1) = 89 // 1" in err
        rows = read_rows(tmp_path / "tiny.csv")
        assert len(rows) == 2 * 2 * 90

    def test_validation_error_paths(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "x", "model": {"kind": "nope"},
                                   "maturity": 1.0, "strikes": [1.0], "scales": [1.0]}))
        code = main(["run", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "model.kind" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        code = main(["run", "not-a-preset", "--out", "/tmp"])
        assert code == 2

    def test_scale_ratio_config(self, tmp_path):
        cfg = tiny_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["scales"]
        data["scale_ratios"] = [2.0]
        data["m_values"] = [1]
        cfg.write_text(json.dumps(data))
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "tiny.csv")
        b = float(rows[0]["b"])
        # twice the floor of the average width: must exceed the floor
        assert b > 0.0
        law_like = {float(r["b"]) for r in rows}
        assert len(law_like) == 1


PRICE_FLAGS = [
    "price", "--model", "ou", "--b0", "-0.02", "--b1", "0.01", "--sigma0", "0.98",
    "--y0", "2", "--maturity", "2", "--strike", "2",
]
PAYOFF = {"experiment": "p", "kind": "payoff-approximation", "strike": 1.0, "scales": [1.0],
          "orders": [4], "x_grid": {"lo": 0.0, "hi": 2.0, "points": 3}}
SERIES_ERROR = {"experiment": "e", "kind": "series-error", "strike": 1.0, "scales": [1.0],
                "max_order": 2}
PRICING = {"experiment": "q", "model": {"kind": "ou", "b0": -0.02, "b1": 0.01, "sigma0": 0.98},
           "y0": 2.0, "maturity": 2.0, "strikes": [2.0], "scales": [1.5], "max_order": 4}

# (extra price flags, field the error names); a repeated flag's last value wins
BAD_FLAGS = [
    (["--order", "-3"], "max_order"),
    (["--order", "0"], "max_order"),
    (["--m", "-1"], "m_values[0]"),
    (["--strike", "-1"], "strikes[0]"),
    (["--rate", "-0.1"], "rate"),
    (["--mc-check", "--mc-paths", "0"], "mc.paths"),
    (["--order", "10", "--mc-check", "--mc-paths", "2000", "--mc-batches", "1"], "mc.batches"),
    (["--order", "10", "--threshold", "-3"], "threshold"),
    (["--order", "10", "--threshold", "nan"], "threshold"),
    (["--times", "1,0.5"], "times"),
    (["--b0", "0", "--sigma0", "0", "--b", "ratio:2"], "scale_ratios"),
]

# (config, fields to replace, field the error names)
BAD_CONFIGS = [
    pytest.param(PAYOFF, {"orders": [4.5]}, "orders[0]", id="payoff-order-float"),
    pytest.param(PAYOFF, {"x_grid": {"points": "many"}}, "x_grid.points", id="payoff-points-text"),
    pytest.param(PAYOFF, {"scales": [-1.0]}, "scales", id="payoff-scale-negative"),
    pytest.param(SERIES_ERROR, {"max_order": "30"}, "max_order", id="error-order-text"),
    pytest.param(SERIES_ERROR, {"scales": [-1.0]}, "scales", id="error-scale-negative"),
    pytest.param(SERIES_ERROR, {"max_order": 170}, "max_order", id="error-order-past-tail"),
    pytest.param(PRICING, {"m_values": [True]}, "m_values[0]", id="pricing-m-bool"),
    pytest.param(PRICING, {"scales": None, "scale_ratios": [2.0],
                           "model": {"kind": "ou", "b0": -0.02, "b1": 0.01, "sigma0": 0.0}},
                 "scale_ratios", id="pricing-ratio-zero-variance"),
    pytest.param(PRICING, {"mc": {"batches": 1}}, "mc.batches", id="pricing-one-mc-batch"),
]


class TestBadInput:
    @pytest.mark.parametrize("flags, field", BAD_FLAGS, ids=[" ".join(f) for f, _ in BAD_FLAGS])
    def test_price_flag(self, flags, field, capsys):
        code = main(PRICE_FLAGS + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"configuration error: {field}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("base, changes, field", BAD_CONFIGS)
    def test_run_config(self, base, changes, field, tmp_path, capsys):
        cfg = {key: value for key, value in {**base, **changes}.items() if value is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: {field}: ")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text", ["[1, 2]", '{"experiment": '], ids=["list", "truncated"])
    def test_config_file_not_a_json_object(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["run", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: {path}: ")

    def test_price_equals_run_cell(self, tmp_path, capsys):
        # price and run resolve one cell through the same config, so the
        # quote is the row the stopping rule marks
        cfg = tiny_config(tmp_path, m_values=[1], strikes=[2.0], scale_ratios=[1.5],
                          scales=None, max_order=12)
        data = {k: v for k, v in json.loads(cfg.read_text()).items() if v is not None}
        cfg.write_text(json.dumps(data))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        stopped = [r for r in read_rows(tmp_path / "tiny.csv") if r["stopped"] == "true"]
        capsys.readouterr()
        assert main(PRICE_FLAGS + ["--m", "1", "--b", "ratio:1.5", "--order", "12"]) == 0
        out = capsys.readouterr().out
        assert f"b={stopped[0]['b']} " in out
        assert f"price: {stopped[0]['price']}  (chosen N={stopped[0]['N']}," in out


class TestPresets:
    @pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 9)])
    def test_presets_load(self, name):
        cfg = load_config(name)
        assert cfg["experiment"] == name

    def test_fig3_matches_experiment_grid(self):
        cfg = load_config("fig3")
        assert cfg["strikes"] == [0.0, 0.2, 0.6, 1.0]
        assert cfg["scales"] == [0.5, 0.6, 1.0, 2.0, 3.0]
        assert cfg["maturity"] == 0.5
        assert cfg["a_policy"] == 0.0

    def test_fig7_scale_policy(self):
        cfg = load_config("fig7")
        assert cfg["scale_ratios"] == [2.0]
        assert cfg["m_values"] == [1, 2]

    def test_fig8_is_jump_model(self):
        cfg = load_config("fig8")
        assert cfg["model"]["kind"] == "jd"
        assert cfg["scale_ratios"] == [1.2]

    def test_fig1_payoff_table(self, tmp_path):
        code = main(["run", "fig1", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "fig1.csv")
        assert {"x", "payoff", "series_value"} <= set(rows[0].keys())

    def test_fig2_error_table(self, tmp_path):
        code = main(["run", "fig2", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "fig2.csv")
        assert {"l2_error", "N"} <= set(rows[0].keys())
        # error is monotone non-increasing in the order within a cell
        cell = [float(r["l2_error"]) for r in rows
                if r["a"] == "5.0" and r["b"] == "1.0"]
        assert all(x >= y for x, y in zip(cell, cell[1:]))

    def test_fig3_desk_scale(self, tmp_path):
        code = main([
            "run", "fig3", "--out", str(tmp_path), "--no-mc", "--max-order", "12",
        ])
        assert code == 0
        rows = read_rows(tmp_path / "fig3.csv")
        assert len(rows) == 4 * 5 * 13
        assert all(r["experiment"] == "fig3" for r in rows)
