"""Config validation, run artifacts, determinism of the CLI."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import supgauss
from supgauss import simulate
from supgauss.cli import OUTPUT_FILES, RUNNERS, main, run, validate
from supgauss.simulate import CovarianceError


def minimal_config(**overrides):
    cfg = {
        "subcommand": "smoothmax-check",
        "seed": 7,
        "threads": 1,
        "output_dir": "out",
        "params": {"draws": 400, "deriv_draws": 100, "p_max": 50},
    }
    cfg.update(overrides)
    return cfg


class TestValidate:
    def test_minimal_valid(self):
        config, errors = validate(json.dumps(minimal_config()))
        assert errors == []
        assert config.subcommand == "smoothmax-check"
        assert config.seed == 7

    def test_unknown_subcommand(self):
        _, errors = validate(json.dumps(minimal_config(subcommand="frobnicate")))
        assert len(errors) == 1
        assert "unknown subcommand" in errors[0].message

    def test_alpha_out_of_range(self):
        cfg = minimal_config(subcommand="bands", params={"alpha": 1.5, "n": 100})
        _, errors = validate(json.dumps(cfg))
        assert len(errors) == 1
        assert "alpha" in errors[0].path
        assert errors[0].line is not None

    def test_unread_beta_and_delta_one_error_each(self):
        cfg = minimal_config(params={"beta": 1.0, "delta": 0.5})
        _, errors = validate(json.dumps(cfg))
        assert sorted(e.path for e in errors) == ["params.beta", "params.delta"]
        assert all("smoothmax-check takes no key" in e.message for e in errors)

    def test_unknown_top_level_key_rejected(self):
        text = json.dumps(minimal_config(thraeds=2), indent=1)
        _, errors = validate(text)
        assert [e.path for e in errors] == ["thraeds"]
        assert '"thraeds"' in text.splitlines()[errors[0].line - 1]
        assert "a config takes no key 'thraeds'" in errors[0].message

    def test_n_list_takes_at_most_2_14_entries(self):
        """rate salts entry i's two samples 4i + 1 and 4i + 3, below the 2^16 salts RngPolicy takes."""
        for size, anchors in ((2**14, []), (2**14 + 1, ["params.n_list"])):
            cfg = minimal_config(subcommand="rate", params={"n_list": list(range(3, 3 + size))})
            assert [e.path for e in validate(json.dumps(cfg))[1]] == anchors
        simulate.RngPolicy(0, 4 * (2**14 - 1) + 3)

    def test_small_n_rejected(self):
        cfg = minimal_config(subcommand="rate", params={"n_list": [2, 500, 800]})
        _, errors = validate(json.dumps(cfg))
        assert any("n >= 3" in e.message for e in errors)

    def test_sigma_above_b_rejected(self):
        cfg = minimal_config(subcommand="coupling-bounds", params={"moments": {"sigma": 2.0, "b": 1.0, "q": 4}})
        _, errors = validate(json.dumps(cfg))
        assert any("sigma" in e.message for e in errors)

    def test_nested_anchor_follows_the_path(self):
        cfg = minimal_config(subcommand="coupling-bounds", scenario={"type": "kernel_density"},
                             params={"moments": {"sigma": 0.5, "b": 1.0, "q": 4, "H": {"type": "x"}}})
        text = json.dumps(cfg, indent=1)
        _, errors = validate(text)
        assert [e.path for e in errors] == ["params.moments.H.type"]
        assert text.splitlines()[errors[0].line - 1].strip() == '"type": "x"'

    def test_malformed_json(self):
        config, errors = validate("{not json")
        assert config is None
        assert errors


class TestRun:
    def test_smoothmax_check_passes(self, tmp_path):
        cfg_dict = minimal_config(output_dir=str(tmp_path / "out"))
        config, errors = validate(json.dumps(cfg_dict))
        assert not errors
        assert run(config) == 0
        out = tmp_path / "out"
        assert (out / "manifest.json").exists()
        assert (out / "summary.txt").exists()
        assert (out / "smoothmax_check.csv").exists()
        assert "PASS" in (out / "summary.txt").read_text()

    def test_crossover_artifacts(self, tmp_path):
        cfg = {
            "subcommand": "coupling-crossover",
            "seed": 1,
            "output_dir": str(tmp_path / "x"),
            "params": {"delta": 50.0, "n_exponents": list(range(8, 17))},
        }
        config, errors = validate(json.dumps(cfg))
        assert not errors
        assert run(config) == 0
        rows = (Path(cfg["output_dir"]) / "crossover.csv").read_text().strip().splitlines()
        assert rows[0] == "n,p,maxima_coupling_bound,whole_vector_bound"
        assert len(rows) == 10

    def test_coupling_bounds_report(self, tmp_path):
        cfg = {
            "subcommand": "coupling-bounds",
            "seed": 1,
            "output_dir": str(tmp_path / "cb"),
            "params": {
                "n": 1000,
                "epsilon": 0.05,
                "gamma": 0.1,
                "moments": {
                    "sigma": 0.8, "b": 1.0, "q": 4, "M2": 1.5, "Mq": 2.0,
                    "kappa": 1.0, "EG_FF": 1.0,
                },
            },
        }
        config, errors = validate(json.dumps(cfg))
        assert not errors
        assert run(config) == 0
        report = json.loads((Path(cfg["output_dir"]) / "coupling_bounds.json").read_text())
        budget = report["budget"]
        for key in ("phi", "eps_term", "Mq_term", "M2_term", "FF_term", "kappa_term", "delta_n", "prob_bound"):
            assert key in budget
        assert budget["delta_n"] == pytest.approx(
            sum(budget[k] for k in ("phi", "eps_term", "Mq_term", "M2_term", "FF_term", "kappa_term"))
        )

    def test_rate_csv_schema(self, tmp_path):
        cfg = {
            "subcommand": "rate",
            "seed": 3,
            "output_dir": str(tmp_path / "rate"),
            "scenario": {"type": "kernel_density", "grid_points": 8},
            "params": {"n_list": [100, 200, 400], "replications": 120},
        }
        config, errors = validate(json.dumps(cfg))
        assert not errors
        assert run(config) == 0
        lines = (Path(cfg["output_dir"]) / "rate.csv").read_text().strip().splitlines()
        assert lines[0] == "n,ks,ks_conf,predicted_rate,slope_fit"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_bands_artifacts(self, tmp_path):
        cfg = {
            "subcommand": "bands",
            "seed": 4,
            "output_dir": str(tmp_path / "bands"),
            "scenario": {"type": "kernel_density", "grid_points": 8},
            "params": {"alpha": 0.2, "n": 200, "R_outer": 40, "R_inner": 400},
        }
        config, errors = validate(json.dumps(cfg))
        assert not errors
        assert run(config) == 0
        out = Path(cfg["output_dir"])
        band_lines = (out / "band.csv").read_text().strip().splitlines()
        assert band_lines[0] == "x,lower,upper"
        assert len(band_lines) == 9
        coverage = json.loads((out / "coverage.json").read_text())
        assert 0.0 <= coverage["empirical"] <= 1.0

    def test_series_scenarios_from_config(self, tmp_path):
        from supgauss.cli import scenario_from_config
        from supgauss.scenarios import design_series

        mean_scn = scenario_from_config({"type": "series_mean", "grid_points": 8})
        d = design_series(mean_scn, 125)
        assert d.K == 5
        q_scn = scenario_from_config(
            {"type": "series_quantile", "grid_points": 6, "tau_grid": [0.25, 0.75]}
        )
        dq = design_series(q_scn, 125)
        assert dq.cls.size == 12  # 6 grid points x 2 quantile levels
        assert dq.tau_of_col is not None

    def test_anticoncentration_artifacts(self, tmp_path):
        cfg = {
            "subcommand": "anticoncentration",
            "seed": 5,
            "output_dir": str(tmp_path / "ac"),
            "scenario": {"type": "kernel_density", "grid_points": 16},
            "params": {"n": 300, "replications": 4000, "epsilons": [0.05, 0.1]},
        }
        config, errors = validate(json.dumps(cfg))
        assert not errors
        assert run(config) == 0
        lines = (Path(cfg["output_dir"]) / "anticoncentration.csv").read_text().strip().splitlines()
        assert lines[0] == "epsilon,levy_concentration,bound,pass"
        assert len(lines) == 3


TINY_PARAMS = {
    "rate": {"n_list": [100, 200, 400], "replications": 20},
    "bands": {"alpha": 0.2, "n": 200, "R_outer": 20, "R_inner": 200},
    "anticoncentration": {"n": 200, "replications": 500},
}


def run_cli(tmp_path, subcommand, scenario, params=None) -> int:
    params = {**TINY_PARAMS[subcommand], **(params or {})}
    cfg = {"subcommand": subcommand, "seed": 6, "scenario": scenario, "params": params}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return main(["--config", str(path), "--output", str(tmp_path / "out")])


NO_MASS_LAW = {"type": "kernel_density", "data_law": "truncnorm", "law_params": {"mu": 1e6, "sd": 0.1},
               "grid_points": 4}
NO_MASS_LAW_BELOW = {**NO_MASS_LAW, "law_params": {"mu": -1e6, "sd": 0.1}}  # its mass lies in the lower tail


class TestScenarioContract:
    """Scenario subcommands exit 0 on every scenario type, 2 on a bad spec, never with a traceback."""

    @pytest.mark.parametrize("subcommand", ["bands", "anticoncentration"])
    @pytest.mark.parametrize(
        "scenario, columns",
        [
            ({"type": "kernel_density", "grid_points": 8}, 8),
            ({"type": "series_mean", "grid_points": 8}, 8),
            ({"type": "series_quantile", "grid_points": 4, "tau_grid": [0.25, 0.5, 0.75]}, 12),
        ],
        ids=["kernel_density", "series_mean", "series_quantile"],
    )
    def test_every_scenario_type_runs(self, tmp_path, capsys, subcommand, scenario, columns):
        assert run_cli(tmp_path, subcommand, scenario) == 0
        assert "Traceback" not in capsys.readouterr().err
        if subcommand == "bands":
            rows = (tmp_path / "out" / "band.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + columns

    @pytest.mark.parametrize(
        "subcommand, scenario, anchor",
        [
            ("bands", {"type": "kernel_density", "grid_lo": -0.5}, "scenario.grid_lo"),
            ("rate", {"type": "series_mean", "grid_lo": 0.7, "grid_hi": 0.2}, "scenario.grid_lo"),
            ("bands", {"type": "kernel_density", "normalization": "unit"}, "scenario.normalization"),
            ("rate", {"type": "kernel_density", "normalization": "robust"}, "scenario.normalization"),
            ("rate", {"type": "kernel_density", "data_law": "nope"}, "scenario.data_law"),
            ("rate", {"type": "kernel_density", "kernel": "nope"}, "scenario.kernel"),
            ("rate", {"type": "series_mean", "basis": "nope"}, "scenario.basis"),
            ("rate", {"type": "kernel_density", "bandwidth_scale": -1}, "scenario.bandwidth_scale"),
            ("rate", {"type": "series_mean", "k_scale": 0}, "scenario.k_scale"),
            ("anticoncentration", {"type": "series_quantile", "tau_grid": [0.0, 0.5]}, "scenario.tau_grid"),
            ("rate", {"type": "kernel_density", "law_params": {"a": -1}}, "scenario.law_params"),
            ("anticoncentration", {"type": "kernel_density", "bandwidth_power": "a"}, "scenario.bandwidth_power"),
            ("anticoncentration", {"type": "series_mean", "k_power": "a"}, "scenario.k_power"),
            ("rate", {"type": ["kernel_density"]}, "scenario.type"),
            # keys the scenario type's factory does not take
            ("rate", {"type": "kernel_density", "bandwith_power": 0.9}, "scenario.bandwith_power"),
            ("rate", {"type": "kernel_density", "basis": "legendre"}, "scenario.basis"),
            ("rate", {"type": "kernel_density", "tau_grid": [0.5]}, "scenario.tau_grid"),
            ("rate", {"type": "kernel_density", "law_params": {"mu": 0.3}}, "scenario.law_params.mu"),
            ("rate", {"type": "kernel_density", "data_law": "uniform", "law_params": {"a": 3}},
             "scenario.law_params.a"),
            ("rate", {"type": "series_mean", "law_params": {"a": 3}}, "scenario.law_params"),
            ("rate", {"type": "series_mean", "normalization": "studentized"}, "scenario.normalization"),
            ("bands", {"type": "series_mean", "normalization": "unit"}, "scenario.normalization"),
            # no truncated-normal mass on [0, 1] in floats
            pytest.param("rate", NO_MASS_LAW, "scenario.law_params: the truncnorm law (mu 1000000.0, sd 0.1)",
                         id="rate_no_data_mass"),
            pytest.param("anticoncentration", NO_MASS_LAW, "scenario.law_params: the truncnorm law",
                         id="anticoncentration_no_data_mass"),
            pytest.param("rate", NO_MASS_LAW_BELOW, "scenario.law_params: the truncnorm law (mu -1000000.0, sd 0.1)",
                         id="rate_no_data_mass_below"),
        ],
    )
    def test_bad_scenario_exits_2_with_anchor(self, tmp_path, capsys, subcommand, scenario, anchor):
        assert run_cli(tmp_path, subcommand, scenario) == 2
        err = capsys.readouterr().err
        assert anchor in err
        assert "Traceback" not in err

    def test_unknown_key_is_named_not_studentization(self, tmp_path, capsys):
        assert run_cli(tmp_path, "bands", {"type": "series_mean", "normalization": "unit"}) == 2
        err = capsys.readouterr().err
        assert "series_mean takes no key 'normalization'" in err
        assert "studentized" not in err

    @pytest.mark.parametrize(
        "subcommand, params, anchor",
        [
            ("bands", {"side": "upper"}, "params.side"),
            ("bands", {"target": "true_function"}, "params.target"),
            ("rate", {"n_list": [500, 2000]}, "params.n_list"),
            ("rate", {"n_list": list(range(3, 3 + 2**14 + 1))}, "params.n_list"),
            ("anticoncentration", {"epsilons": [0.0]}, "params.epsilons"),
            ("anticoncentration", {"epsilons": ["a"]}, "params.epsilons"),
            # keys the subcommand's runner does not read
            ("rate", {"replicatons": 5}, "params.replicatons"),
            ("bands", {"R_outter": 5}, "params.R_outter"),
            ("rate", {"R_outer": 5}, "params.R_outer"),
            ("anticoncentration", {"n_list": [100, 200, 400]}, "params.n_list"),
        ],
        ids=["side_upper", "target_true_function", "two_sample_sizes", "too_many_sample_sizes", "zero_epsilon",
             "string_epsilon", "misspelled_replications", "misspelled_R_outer", "bands_key_under_rate", "rate_key_under_anticoncentration"],
    )
    def test_bad_params_exits_2_with_anchor(self, tmp_path, capsys, subcommand, params, anchor):
        assert run_cli(tmp_path, subcommand, {"type": "kernel_density"}, params) == 2
        err = capsys.readouterr().err
        assert anchor in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "subcommand, scenario, params, message",
        [
            ("bands", {"type": "kernel_density", "data_law": "truncnorm", "law_params": {"mu": 0.5, "sd": 0.001}},
             None, "zero variance"),
            ("anticoncentration", {"type": "kernel_density", "bandwidth_power": 40}, None, "below the float spacing at grid point 0.1"),
            # K = ceil(1.9 * 14^1.9) = 287 basis functions, more than the 256 quadrature nodes resolve
            ("anticoncentration", {"type": "series_quantile", "k_power": 1.9, "k_scale": 1.9},
             {"n": 14, "replications": 5}, "K = 287 exceeds 128"),
            # n^-400 underflows to h = 0 and n^400 overflows to h = inf at n = 200
            ("anticoncentration", {"type": "kernel_density", "bandwidth_power": 400}, None, "bandwidth h = 0.0"),
            ("anticoncentration", {"type": "kernel_density", "bandwidth_power": -400}, None, "bandwidth h = inf"),
            ("anticoncentration", {"type": "series_mean", "k_power": 200}, None, "K = inf exceeds 128"),
            ("anticoncentration", {"type": "series_quantile", "k_power": 200}, None, "K = inf exceeds 128"),
            # a 7.11 PiB data draw: numpy refuses the fill at once, before allocating anything
            ("bands", {"type": "kernel_density"}, {"n": 10**15, "R_outer": 2, "R_inner": 10}, "out of memory: "),
            # at n = 10, h = 0.63 against data of sd 0.01: the centered second moment keeps 9.5 of 16 digits,
            # and studentizing would leave the covariance asymmetric by 3e-10
            ("rate", {"type": "kernel_density", "data_law": "truncnorm", "law_params": {"mu": 0.5, "sd": 0.01},
                      "grid_lo": 0, "grid_hi": 1}, {"n_list": [10, 20, 30]},
             "studentization at grid point 0.5079365079365079 loses 6.5 of 16 digits"),
        ],
        ids=["no_data_mass_near_grid", "collapsed_bandwidth", "basis_order_above_cap", "bandwidth_underflow",
             "bandwidth_overflow", "series_mean_order_overflow", "series_quantile_order_overflow", "out_of_memory",
             "studentization_lost_precision"],
    )
    def test_degenerate_design_exits_3(self, tmp_path, capsys, subcommand, scenario, params, message):
        assert run_cli(tmp_path, subcommand, scenario, params) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert message in (tmp_path / "out" / "summary.txt").read_text()

    def test_zero_replications_rejected(self):
        cfg = minimal_config(subcommand="anticoncentration", params={"replications": 0})
        _, errors = validate(json.dumps(cfg))
        assert [e.path for e in errors] == ["params.replications"]


MOMENTS = {"sigma": 0.8, "b": 1.0, "q": 4}


def run_closed_form(tmp_path, subcommand, params) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": subcommand, "seed": 1, "params": params}, indent=1), encoding="utf-8")
    return main(["--config", str(path), "--output", str(tmp_path / "out")])


class TestClosedFormContract:
    """The closed-form subcommands exit 2 with a path anchor on a bad param, 3 when floats run out of range."""

    @pytest.mark.parametrize(
        "subcommand, params, anchor",
        [
            ("coupling-bounds", {"n": 1000}, "params.moments"),
            ("coupling-bounds", {"moments": [0.8, 1.0, 4]}, "params.moments"),
            ("coupling-bounds", {"moments": {"sigma": 0.8, "b": 1.0}}, "params.moments.q"),
            ("coupling-bounds", {"moments": {**MOMENTS, "q": 2}}, "params.moments.q"),
            ("coupling-bounds", {"gamma": 2, "moments": MOMENTS}, "params.gamma"),
            ("coupling-bounds", {"moments": {**MOMENTS, "H": {"type": "x"}}}, "params.moments.H.type"),
            ("coupling-crossover", {"delta": 0}, "params.delta"),
            ("coupling-crossover", {"n_exponents": [1, 2, 3]}, "params.n_exponents"),
            ("coupling-crossover", {"n_exponents": "a"}, "params.n_exponents"),
            ("coupling-crossover", {"beta": "x", "delta": 2}, "params.beta"),
            ("coupling-crossover", {"n_exponents": [1024]}, "params.n_exponents"),
            ("smoothmax-check", {"p_max": 0}, "params.p_max"),
            ("smoothmax-check", {"draws": "a"}, "params.draws"),
            ("coupling-bounds", {"moments": {**MOMENTS, "p_or_N": 17}}, "params.moments.p_or_N"),
            ("coupling-bounds", {"moments": {**MOMENTS, "kapa": 5.0}}, "params.moments.kapa"),
            ("coupling-crossover", {"n_exponent": [8, 9]}, "params.n_exponent"),
            ("smoothmax-check", {"delta": 2.0}, "params.delta"),
            # keys a moment profile does not take, and the sample size that only params.n sets
            ("coupling-bounds", {"moments": {**MOMENTS, "phi": {"valeu": 0.3}}}, "params.moments.phi.valeu"),
            ("coupling-bounds", {"moments": {**MOMENTS, "phi": {"type": "constant", "value": 0.3}}},
             "params.moments.phi.type"),
            ("coupling-bounds", {"moments": {**MOMENTS, "H": {"type": "constant", "value": 9, "extra": 1}}},
             "params.moments.H.extra"),
            ("coupling-bounds", {"moments": {**MOMENTS, "H": {"type": "vc", "A": 3.0, "v": 1.0, "value": 9}}},
             "params.moments.H.value"),
            ("coupling-bounds", {"moments": {**MOMENTS, "tail": {"type": "zero", "ratio": 0.5}}},
             "params.moments.tail.ratio"),
            ("coupling-bounds", {"n": 500, "moments": {**MOMENTS, "n": 100000}}, "params.moments.n"),
            # an integer past the largest float is not a finite number
            ("coupling-bounds", {"moments": {**MOMENTS, "b": 10**400}}, "params.moments.b"),
            ("coupling-bounds", {"K_q": -(10**400), "moments": MOMENTS}, "params.K_q"),
            # phi bounds an expected supremum: a negative one would lower delta_n below the other terms
            ("coupling-bounds", {"moments": {**MOMENTS, "phi": {"value": -5.0}}}, "params.moments.phi.value"),
        ],
        ids=["no_moments", "moments_list", "no_q", "q_2", "gamma_2", "H_type_x", "delta_0", "exponent_1",
             "exponents_string", "beta_string", "exponent_1024", "p_max_0", "draws_string", "retired_p_or_N",
             "misspelled_kappa", "misspelled_n_exponents", "crossover_key_under_smoothmax", "misspelled_phi_value",
             "phi_type", "constant_H_extra_key", "vc_H_value", "zero_tail_ratio", "moments_n", "int_b_past_float_max",
             "int_K_q_below_float_min", "negative_phi"],
    )
    def test_bad_params_exit_2_with_anchor(self, tmp_path, capsys, subcommand, params, anchor):
        assert run_closed_form(tmp_path, subcommand, params) == 2
        err = capsys.readouterr().err
        assert f"{anchor}:" in err
        assert "Traceback" not in err

    def test_sandwich_line_counts_the_vectors_checked(self, tmp_path):
        """draws = 100 runs 40 batches of 100 // 40 = 2 vectors, so 80 are checked."""
        assert run_closed_form(tmp_path, "smoothmax-check", {"draws": 100, "deriv_draws": 10, "p_max": 5}) == 0
        assert "sandwich: 80 checks, 0 violations" in (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert (tmp_path / "out" / "smoothmax_check.csv").read_text().splitlines()[1] == "sandwich,80,0"

    @pytest.mark.parametrize(
        "subcommand, params, message",
        [
            ("coupling-crossover", {"n_exponents": [8, 42]}, "B0 = p delta^-3 sum E|X_i|^3 overflows"),
            ("coupling-crossover", {"n_exponents": [45]},
             "p^1.5 with p = ceil(exp(n^0.2)) overflows a float at n = 3.51844e+13"),
            ("coupling-crossover", {"n_exponents": [1023]},
             "p^1.5 with p = ceil(exp(n^0.2)) overflows a float at n = 8.98847e+307"),
            ("coupling-crossover", {"b": 1e200}, "b^3 overflows a float at b = 1e+200"),
            ("coupling-crossover", {"b": 1e-200}, "underflows to 0"),
            ("coupling-crossover", {"delta": 1e300}, "delta^2 overflows a float at delta = 1e+300"),
            ("coupling-crossover", {"delta": 1e154}, "B0 = p delta^-3 sum E|X_i|^3 underflows the float range at "
                                                     "delta = 1e+154"),
            ("coupling-crossover", {"delta": 1e104}, "underflows the float range at delta = 1e+104"),
            ("coupling-bounds", {"n": 10**400, "moments": MOMENTS}, "n^-1/2 overflows a float at n = 10^400"),
            ("coupling-bounds", {"moments": {"sigma": 1e200, "b": 1e200, "q": 4, "A": 3.0, "v": 1.0}},
             "b sigma^2 K_n^2 overflows a float at n = 1000, sigma = 1e+200"),
            # float products overflow to inf without raising: a term or K_n that does is named, not written out
            ("coupling-bounds", {"moments": {"sigma": 0.5, "b": 1.0, "q": 4, "kappa": 1e308}},
             "kappa_term overflows a float at n = 1000"),
            ("coupling-bounds", {"moments": {"sigma": 1.0, "b": 1e308, "q": 4, "A": 3.0, "v": 1.0}},
             "K_n overflows a float at n = 1000"),
            ("coupling-bounds", {"K_q": 1e308, "moments": {"sigma": 0.5, "b": 1e10, "q": 4}},
             "threshold overflows a float at n = 1000"),
            ("coupling-bounds", {"C_log": 1e308, "moments": MOMENTS}, "prob_bound_raw overflows a float at n = 1000"),
            # powers that raise OverflowError or divide by an underflowed 0 are named too
            ("coupling-bounds", {"moments": {**MOMENTS, "tail": {"type": "bounded", "ratio": 1e200}}},
             "delta_n_tail overflows a float at n = 1000"),
            ("coupling-crossover", {"delta": 1e-120}, "B0 = p delta^-3 sum E|X_i|^3 overflows a float at delta = 1e-120"),
            ("coupling-crossover", {"delta": 1e-300}, "delta^2 underflows to 0 at delta = 1e-300"),
        ],
        ids=["exponent_42", "exponent_45", "exponent_1023", "huge_b", "tiny_b", "huge_delta", "large_delta",
             "subnormal_B0", "huge_n", "vc_huge_sigma", "huge_kappa", "vc_huge_b", "huge_K_q", "huge_C_log",
             "huge_tail_ratio", "tiny_delta", "subnormal_delta"],
    )
    def test_float_range_failure_exits_3(self, tmp_path, capsys, subcommand, params, message):
        assert run_closed_form(tmp_path, subcommand, params) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert message in (tmp_path / "out" / "summary.txt").read_text()


@pytest.mark.parametrize("epsilon", [1e-320, 1e308], ids=["subnormal", "huge"])
def test_overflowing_anticoncentration_bound_exits_3(tmp_path, capsys, epsilon):
    """1 / epsilon overflows at a subnormal epsilon, and 3 epsilon times the mean at a huge one: an inf bound
    would pass every row."""
    params = {"n": 500, "replications": 200, "epsilons": [epsilon]}
    assert run_cli(tmp_path, "anticoncentration", {"type": "kernel_density"}, params) == 3
    assert "Traceback" not in capsys.readouterr().err
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert f"the anticoncentration bound overflows a float at epsilon = {epsilon!r}" in summary
    assert not (tmp_path / "out" / "anticoncentration.csv").exists()


class TestDeterminism:
    def _run_twice(self, tmp_path, subcommand, scenario, params, files, threads_second=3):
        outputs = []
        for tag, threads in (("a", 1), ("b", threads_second)):
            cfg = {
                "subcommand": subcommand,
                "seed": 11,
                "threads": threads,
                "output_dir": str(tmp_path / tag),
                "scenario": scenario,
                "params": params,
            }
            config, errors = validate(json.dumps(cfg))
            assert not errors
            assert run(config) == 0
            outputs.append([(Path(cfg["output_dir"]) / name).read_bytes() for name in files])
        return outputs

    def test_byte_identical_across_thread_caps(self, tmp_path):
        a, b = self._run_twice(
            tmp_path, "rate", {"type": "kernel_density", "grid_points": 6},
            {"n_list": [100, 200, 400], "replications": 80}, ["rate.csv", "summary.txt"],
        )
        assert a == b

    @pytest.mark.parametrize("stype", ["kernel_density", "series_mean"])
    def test_bands_byte_identical_across_thread_caps(self, tmp_path, stype):
        a, b = self._run_twice(
            tmp_path, "bands", {"type": stype, "grid_points": 6},
            {"alpha": 0.2, "n": 200, "R_outer": 90, "R_inner": 300}, ["band.csv", "coverage.json", "summary.txt"],
        )
        assert a == b

    def test_manifest_round_trip(self, tmp_path):
        cfg = {
            "subcommand": "rate",
            "seed": 12,
            "output_dir": str(tmp_path / "first"),
            "scenario": {"type": "kernel_density", "grid_points": 6},
            "params": {"n_list": [100, 200, 400], "replications": 60},
        }
        config, errors = validate(json.dumps(cfg))
        assert not errors
        assert run(config) == 0
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        echoed = manifest["config"]
        echoed["output_dir"] = str(tmp_path / "second")
        config2, errors2 = validate(json.dumps(echoed))
        assert not errors2
        assert run(config2) == 0
        assert (tmp_path / "first" / "rate.csv").read_bytes() == (tmp_path / "second" / "rate.csv").read_bytes()
        assert (tmp_path / "first" / "summary.txt").read_bytes() == (tmp_path / "second" / "summary.txt").read_bytes()


# one small run of every subcommand, each writing its own files
SMALL_RUNS = {
    "smoothmax-check": (None, {"draws": 400, "deriv_draws": 100, "p_max": 50}),
    "coupling-bounds": (None, {"moments": {"sigma": 0.8, "b": 1.0, "q": 4, "M2": 1.5, "Mq": 2.0, "kappa": 1.0,
                                           "EG_FF": 1.0}}),
    "coupling-crossover": (None, {"delta": 50.0, "n_exponents": list(range(8, 17))}),
    **{sub: ({"type": "kernel_density", "grid_points": 6}, TINY_PARAMS[sub]) for sub in TINY_PARAMS},
}
# at n = 10, h = 0.63 against data of sd 0.01: the design fails and the run exits 3 (see test_degenerate_design_exits_3)
FAILING_RATE = ({"type": "kernel_density", "data_law": "truncnorm", "law_params": {"mu": 0.5, "sd": 0.01},
                 "grid_lo": 0, "grid_hi": 1}, {"n_list": [10, 20, 30]})


class TestOutputDirectory:
    """A run's output directory holds this run's files only, whatever ran there before."""

    @staticmethod
    def _run(tmp_path, subcommand, scenario, params) -> int:
        cfg = {"subcommand": subcommand, "seed": 6, "output_dir": str(tmp_path / "out"), "params": params}
        config, errors = validate(json.dumps({**cfg, **({"scenario": scenario} if scenario else {})}))
        assert not errors
        return run(config)

    @pytest.mark.parametrize("subcommand", sorted(RUNNERS))
    def test_every_file_a_run_writes_is_an_output_file(self, tmp_path, subcommand):
        assert self._run(tmp_path, subcommand, *SMALL_RUNS[subcommand]) == 0
        written = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"manifest.json", "summary.txt"} < written <= set(OUTPUT_FILES)

    def test_failed_rerun_leaves_no_file_of_the_earlier_run(self, tmp_path):
        assert self._run(tmp_path, "rate", *SMALL_RUNS["rate"]) == 0
        assert self._run(tmp_path, "rate", *FAILING_RATE) == 3
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["summary.txt"]
        assert "studentization at grid point" in (tmp_path / "out" / "summary.txt").read_text()

    def test_rerun_of_another_subcommand_replaces_the_earlier_files(self, tmp_path):
        assert self._run(tmp_path, "bands", *SMALL_RUNS["bands"]) == 0
        assert self._run(tmp_path, "rate", *SMALL_RUNS["rate"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json", "rate.csv", "summary.txt"]
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["subcommand"] == "rate"

    def test_wall_time_ignores_a_clock_set_back(self, tmp_path, monkeypatch):
        """wall_time_s comes from the monotonic counter: a wall clock that jumps back an hour does not reach it."""
        import itertools
        import time

        clock = itertools.count(10**6, -3600)
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        assert self._run(tmp_path, "smoothmax-check", *SMALL_RUNS["smoothmax-check"]) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["wall_time_s"] >= 0.0


class TestMainEntry:
    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_config(subcommand="nope")), encoding="utf-8")
        assert main(["--config", str(path)]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json")]) == 2

    def test_seed_and_output_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(output_dir=str(tmp_path / "ignored"))), encoding="utf-8")
        out = tmp_path / "real"
        assert main(["--config", str(path), "--seed", "99", "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--seed", str(2**64)), ("--threads", "0"),
                                             ("--threads", "-4")])
    def test_bad_flag_value_exits_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(output_dir=str(tmp_path / "out"))), encoding="utf-8")
        assert main(["--config", str(path), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_output_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()), encoding="utf-8")
        assert main(["--config", str(path), "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("seed", 2**64), ("seed", 2**64 + 5), ("seed", -1), ("seed", True),
                                        ("threads", 0), ("output_dir", 5)])
def test_run_keys_out_of_range_exit_2_with_anchor(key, value):
    _, errors = validate(json.dumps(minimal_config(**{key: value})))
    assert [e.path for e in errors] == [key]


STARTUP = """
import json, os, sys, tempfile
from pathlib import Path
from supgauss import cli, scenarios
UNUSED = ("scipy", "scipy.special", "scipy.interpolate", "numpy.ma", "numpy.polynomial", "supgauss.bounds", "supgauss.smoothmax",
          "concurrent.futures", "multiprocessing")
loaded = lambda: [m for m in UNUSED if m in sys.modules]
seen = [loaded()]
for stype in ("series_mean", "kernel_density"):
    for n in (500, 2000, 8000):
        scenarios.design(cli.scenario_from_config({"type": stype}), n)
    seen.append(loaded())
with tempfile.TemporaryDirectory() as tmp:
    for sub, params in json.loads(sys.argv[1]).items():
        cfg = Path(tmp, sub + ".json")
        cfg.write_text(json.dumps({"subcommand": sub, "seed": 6, "scenario": {"type": "kernel_density"}, "params": params}))
        seen.append([sub, cli.main(["--config", str(cfg), "--output", str(Path(tmp, sub))]), loaded()])
from supgauss import simulate
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
simulate._cpus = lambda: 2
d = scenarios.design(cli.scenario_from_config({"type": "series_mean"}), 500)
simulate.empirical_sup_sample(d.cls, d.sampler, 500, -(-simulate.FORK_WORK // (500 + simulate.EMP_REP_POINTS)),
                              simulate.RngPolicy(6), threads=2)
seen.append(["forked", len(forks), loaded()])
print(seen)
"""


def run_fresh(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh interpreter that imports this checkout's supgauss."""
    src = str(Path(supgauss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, **kwargs)


def test_manifest_names_scipy_only_when_the_run_loaded_it(tmp_path):
    """A kernel `rate` run loads no scipy, and its manifest says so; a run in a process that holds scipy names it."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "rate", "seed": 6, "scenario": {"type": "kernel_density"},
                                "params": TINY_PARAMS["rate"]}), encoding="utf-8")
    assert run_fresh("-m", "supgauss.cli", "--config", str(path), "--output", str(tmp_path / "fresh")).returncode == 0
    import scipy

    assert main(["--config", str(path), "--output", str(tmp_path / "held")]) == 0
    versions = {run: json.loads((tmp_path / run / "manifest.json").read_text())["versions"] for run in ("fresh", "held")}
    assert (versions["fresh"]["scipy"], versions["held"]["scipy"]) == (None, scipy.__version__)


def test_startup_imports_no_unused_scipy_submodule():
    """The CLI, the default designs and a default kernel `rate` and `bands` run load nothing they do not use:
    no scipy at all (the manifest names its version only when a run loaded it), so neither scipy.special
    (Beta(2, 2)'s normalizer is the constant -log 6) nor scipy.interpolate, neither
    numpy.ma (the window edges are deduplicated without np.unique) nor numpy.polynomial (the quadrature rule is
    stored), not the closed-form modules, and neither a thread pool nor multiprocessing, even when a sample forks."""
    params = {sub: TINY_PARAMS[sub] for sub in ("rate", "bands")}
    out = run_fresh("-c", STARTUP, json.dumps(params), check=True).stdout
    assert out.strip() == str([[], [], [], ["rate", 0, []], ["bands", 0, []], ["forked", 1, []]])


class TestOneSchedulePerRun:
    """A `rate` or `bands` run decides the fork once, from the summed work of all its samples."""

    @pytest.fixture
    def forks(self, monkeypatch) -> list:
        forks, fork = [], os.fork
        monkeypatch.setattr(simulate.os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        return forks

    @pytest.fixture
    def works(self, monkeypatch) -> list:
        """Each schedule appends its work: the sum of its jobs' R * weight."""
        works, run_blocks = [], simulate._run_blocks

        def logged(jobs, threads):
            works.append(sum(job.R * job.weight for job in jobs))
            return run_blocks(jobs, threads)

        monkeypatch.setattr(simulate, "_run_blocks", logged)
        return works

    @staticmethod
    def run_threads(tmp_path, subcommand, params, threads, scenario=None) -> dict:
        path = tmp_path / "cfg.json"
        cfg = {"subcommand": subcommand, "seed": 6, "scenario": scenario or {"type": "kernel_density"},
               "params": params}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / f"t{threads}"
        assert main(["--config", str(path), "--output", str(out), "--threads", str(threads)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    def test_rate_samples_below_their_own_threshold_fork_once_together(self, tmp_path, forks):
        params = {"n_list": [1000, 1500, 2000], "replications": 120}
        works = [params["replications"] * (n + simulate.EMP_REP_POINTS) for n in params["n_list"]]
        assert max(works) < simulate.FORK_WORK <= sum(works)
        serial = self.run_threads(tmp_path, "rate", params, 1)
        assert forks == []
        assert self.run_threads(tmp_path, "rate", params, 2) == serial
        assert forks == [1]

    # the benchmark's `kernel-rate` and `series-rate` configs (bench/workloads.py), and the points they weigh
    @pytest.mark.parametrize("scenario, replications, work", [
        ({"type": "kernel_density"}, 100, 1_669_200), ({"type": "series_mean"}, 80, 1_335_360),
    ], ids=["kernel-rate", "series-rate"])
    def test_benchmark_rate_configs_fork_once(self, tmp_path, forks, works, scenario, replications, work):
        params = {"n_list": [500, 2000, 8000], "replications": replications}
        self.run_threads(tmp_path, "rate", params, 2, scenario)
        assert (works, forks) == ([work], [1])

    def test_band_calibration_sizes_fork_nothing(self, tmp_path, forks, works):
        """The benchmark's `band-calibration` config: 60 outer replications at n = 2000 weigh 240,000 points and
        12,000 inner ones at dim 64 weigh 768,000, below FORK_WORK together."""
        params = {"n": 2000, "alpha": 0.05, "R_outer": 60, "R_inner": 12_000}
        self.run_threads(tmp_path, "bands", params, 2, {"type": "kernel_density", "bandwidth_power": 1 / 3})
        assert (works, forks) == ([1_008_000], [])


class TestWorkerFailureExits3:
    """A worker process that raises or dies maps to exit 3 with a message in summary.txt, never a traceback."""

    @pytest.fixture(autouse=True)
    def forking(self, monkeypatch):
        monkeypatch.setattr(simulate, "FORK_WORK", 1)
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)

    @staticmethod
    def run_rate(monkeypatch, tmp_path, action) -> int:
        """A kernel `rate` run at two threads whose forked workers call action() before each block."""
        parent, run_blocks = os.getpid(), simulate._run_blocks

        def in_workers(jobs, threads):
            def in_worker(block_fn):
                def block(b, m):
                    if os.getpid() != parent:
                        action()
                    return block_fn(b, m)

                return block

            return run_blocks([dataclasses.replace(job, block_fn=in_worker(job.block_fn)) for job in jobs], threads)

        monkeypatch.setattr(simulate, "_run_blocks", in_workers)
        path = tmp_path / "cfg.json"
        cfg = {"subcommand": "rate", "seed": 6, "scenario": {"type": "kernel_density"}, "params": TINY_PARAMS["rate"]}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return main(["--config", str(path), "--output", str(tmp_path / "out"), "--threads", "2"])

    def test_worker_ended_by_a_signal(self, monkeypatch, tmp_path, capsys):
        assert self.run_rate(monkeypatch, tmp_path, lambda: os.kill(os.getpid(), signal.SIGKILL)) == 3
        assert "Traceback" not in capsys.readouterr().err
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert summary == f"worker process ended by signal {int(signal.SIGKILL)}\n"

    @pytest.mark.parametrize("exc, summary", [
        (CovarianceError("covariance is not symmetric"), "numerical failure: covariance is not symmetric\n"),
        (MemoryError("Unable to allocate 7.11 PiB"), "out of memory: Unable to allocate 7.11 PiB\n"),
    ], ids=["covariance_error", "memory_error"])
    def test_worker_exception_keeps_its_exit_code(self, monkeypatch, tmp_path, capsys, exc, summary):
        def fail():
            raise exc

        assert self.run_rate(monkeypatch, tmp_path, fail) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "out" / "summary.txt").read_text() == summary


def test_subnormal_sd_exits_3_without_runtime_warning(tmp_path):
    """A subnormal truncnorm sd overflows the density; the run reports zero variance and leaks no numpy warning."""
    scenario = {"type": "kernel_density", "data_law": "truncnorm", "law_params": {"mu": 0.5, "sd": 5e-324}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "rate", "seed": 6, "scenario": scenario, "params": TINY_PARAMS["rate"]}))
    proc = run_fresh("-m", "supgauss.cli", "--config", str(path), "--output", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "zero variance at grid point 0.1: studentization undefined" in summary


def test_huge_beta_parameters_exit_3_without_runtime_warning(tmp_path):
    """Beta parameters near the float max overflow the density; the run reports a non-finite covariance
    and leaks no numpy warning."""
    scenario = {"type": "kernel_density", "data_law": "beta", "law_params": {"a": 1e308, "b": 1e308}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "rate", "seed": 6, "scenario": scenario, "params": TINY_PARAMS["rate"]}))
    proc = run_fresh("-m", "supgauss.cli", "--config", str(path), "--output", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "covariance has non-finite entries" in summary


def test_truncnorm_mean_below_the_support_runs_without_runtime_warning(tmp_path):
    """mu = -2 lies 8 sd below the support, where the normal cdfs at both ends round to near 1: the law takes its
    mass in the mirrored frame, its draws stay finite and inside [0, 1], and KS stays within the summed DKW radii."""
    scenario = {"type": "kernel_density", "data_law": "truncnorm", "law_params": {"mu": -2, "sd": 0.25},
                "grid_lo": 0.05, "grid_hi": 0.3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "rate", "seed": 3, "scenario": scenario, "params": {"replications": 200}}))
    proc = run_fresh("-W", "error::RuntimeWarning", "-m", "supgauss.cli", "--config", str(path),
                     "--output", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [line.split(",") for line in (tmp_path / "out" / "rate.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 and all(float(ks) <= 2 * float(conf) for _, ks, conf, *_ in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu, point", [(-3, 0.9), (4, 0.1)])
def test_truncnorm_mass_far_from_a_grid_point_exits_3(tmp_path, mu, point):
    """mu = -3 and its mirror mu = 4 put no density in floats at the far end of the default grid."""
    scenario = {"type": "kernel_density", "data_law": "truncnorm", "law_params": {"mu": mu, "sd": 0.25}}
    assert run_cli(tmp_path, "rate", scenario) == 3
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert summary == f"numerical failure: zero variance at grid point {point}: studentization undefined\n"
