"""Fuzzed scenario configs: the CLI exits 0, 2 or 3 and never with a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supgauss.cli import main

bounds = st.floats(-0.5, 1.5)
scales = st.one_of(st.floats(-1.0, 2.0), st.just(0))
grid_points = st.integers(-1, 10)
normalization = st.sampled_from(["studentized", "unit", "nope"])
exponents = st.one_of(st.floats(-3.0, 60.0), st.just("a"))

KERNEL = {
    "data_law": st.sampled_from(["uniform", "beta", "truncnorm", "nope", 3]),
    "law_params": st.fixed_dictionaries(
        {}, optional={"a": st.floats(-1.0, 4.0), "b": st.floats(-1.0, 4.0), "mu": st.floats(0.0, 1.0),
                      "sd": st.floats(-0.1, 1.0), "lo": st.floats(-0.5, 0.5), "hi": st.floats(0.5, 1.5)}
    ),
    "kernel": st.sampled_from(["epanechnikov", "gaussian", "nope"]),
    "normalization": normalization,
    "grid_points": grid_points,
    "grid_lo": bounds,
    "grid_hi": bounds,
    "bandwidth_power": exponents,
    "bandwidth_scale": scales,
}
SERIES = {
    "basis": st.sampled_from(["fourier_trig", "legendre", "bspline", "nope"]),
    "normalization": normalization,
    "grid_points": grid_points,
    "grid_lo": bounds,
    "grid_hi": bounds,
    "k_power": exponents,
    "k_scale": scales,
}

scenarios = st.one_of(
    st.fixed_dictionaries({"type": st.just("kernel_density")}, optional=KERNEL),
    st.fixed_dictionaries({"type": st.just("series_mean")}, optional=SERIES),
    st.fixed_dictionaries(
        {"type": st.just("series_quantile")},
        optional={**SERIES, "tau_grid": st.lists(st.floats(-0.5, 1.5), max_size=3)},
    ),
)

budgets = st.integers(0, 20)
params = {
    "rate": st.fixed_dictionaries(
        {"n_list": st.lists(st.integers(3, 200), min_size=1, max_size=4, unique=True).map(sorted),
         "replications": budgets}
    ),
    "bands": st.fixed_dictionaries(
        {"n": st.integers(3, 200), "R_outer": budgets, "R_inner": budgets, "alpha": st.floats(0.05, 0.95)},
        optional={"side": st.sampled_from(["two_sided", "one_sided_lower", "upper"]),
                  "target": st.sampled_from(["exact_centered", "true_function"])},
    ),
    "anticoncentration": st.fixed_dictionaries(
        {"n": st.integers(3, 200), "replications": budgets},
        optional={"epsilons": st.lists(st.one_of(st.floats(-0.1, 0.5), st.just("a")), max_size=3)},
    ),
}
configs = st.sampled_from(sorted(params)).flatmap(
    lambda sub: st.fixed_dictionaries(
        {"subcommand": st.just(sub), "seed": st.integers(0, 5), "scenario": scenarios, "params": params[sub]}
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs)
def test_fuzzed_scenario_configs_never_raise(cfg):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["--config", str(path), "--output", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
