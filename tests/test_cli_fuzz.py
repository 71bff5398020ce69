"""Fuzzed configs: the CLI exits 0, 2 or 3 and never with a traceback, names the bad field, and writes
the same bytes at every thread cap."""

import contextlib
import inspect
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supgauss.cli import RUNNERS, _keyword_defaults, main
from supgauss.scenarios import SCENARIO_TYPES

# scenario configs: every key a type's factory takes, drawn valid by construction (grids inside the
# data support, K <= ceil(2 * 200^0.6) = 49, windows far above the float spacing), then at most one
# field of the scenario or the params mutated to a value its rule rejects, or one unknown scenario or params key added
LAW_PARAMS = {
    "uniform": {},
    "beta": {"a": st.floats(1.0, 4.0), "b": st.floats(1.0, 4.0)},
    "truncnorm": {"mu": st.floats(-1.0, 2.0), "sd": st.floats(0.1, 1.0), "lo": st.floats(-0.5, 0.0),
                  "hi": st.floats(1.0, 1.5)},
}
VALID = {
    "data_law": st.sampled_from(sorted(LAW_PARAMS)),
    "law_params": st.just({}),  # redrawn for the chosen law by with_law_params
    "kernel": st.sampled_from(["epanechnikov", "gaussian"]),
    "normalization": st.sampled_from(["studentized", "unit"]),
    "bandwidth_power": st.floats(0.05, 0.5),
    "bandwidth_scale": st.floats(0.2, 2.0),
    "basis": st.sampled_from(["fourier_trig", "legendre", "bspline"]),
    "k_power": st.floats(0.1, 0.6),
    "k_scale": st.floats(0.5, 2.0),
    "grid_points": st.integers(1, 12),
    "grid_lo": st.floats(0.0, 0.45),
    "grid_hi": st.floats(0.55, 1.0),
    "tau_grid": st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
}
BAD = {
    "data_law": ["nope", 3], "kernel": ["nope"], "basis": ["nope"], "normalization": ["robust", None],
    "bandwidth_power": ["a", float("inf")], "k_power": ["a", float("nan")], "bandwidth_scale": [0, -1.0],
    "k_scale": [0.0, "a"], "grid_points": [0, 2.5, True], "grid_lo": ["x", None], "grid_hi": [[], float("inf")],
    "tau_grid": [[], [0.0, 0.5], [1.5], 0.5], "law_params": [[], "x"],
}
PARAM_BAD = {"n_list": [[5, 4, 3], [100, 200]], "replications": [0, -1], "n": [2, "a"], "R_outer": [0],
             "R_inner": [0], "alpha": [1.5, 0], "side": ["upper"], "epsilons": [[0.0], ["a"], []]}


def factory_keys(stype):
    return list(inspect.signature(SCENARIO_TYPES[stype]).parameters)


ALL_KEYS = sorted({key for stype in SCENARIO_TYPES for key in factory_keys(stype)})


def with_law_params(spec):
    if "law_params" not in spec:
        return st.just(spec)
    law_params = st.fixed_dictionaries({}, optional=LAW_PARAMS[spec.get("data_law", "beta")])
    return law_params.map(lambda lp: {**spec, "law_params": lp})


valid_scenarios = st.sampled_from(sorted(SCENARIO_TYPES)).flatmap(lambda stype: st.fixed_dictionaries(
    {"type": st.just(stype)}, optional={key: VALID[key] for key in factory_keys(stype)}
).flatmap(with_law_params))

budgets = st.integers(1, 20)
sizes = st.integers(3, 200)
valid_params = {
    "rate": st.fixed_dictionaries(
        {"n_list": st.lists(sizes, min_size=3, max_size=4, unique=True).map(sorted), "replications": budgets}),
    "bands": st.fixed_dictionaries(
        {"n": sizes, "R_outer": budgets, "R_inner": budgets},
        optional={"alpha": st.floats(0.05, 0.95), "side": st.sampled_from(["two_sided", "one_sided_lower"])}),
    "anticoncentration": st.fixed_dictionaries(
        {"n": sizes, "replications": budgets}, optional={"epsilons": st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3)}),
}


def mutations(cfg):
    """(config, anchor of its one bad field or None): the valid config, or one field mutated."""
    scn, params = cfg["scenario"], cfg["params"]
    own = factory_keys(scn["type"])
    bad_value = st.sampled_from(own).flatmap(lambda key: st.sampled_from(BAD[key]).map(
        lambda v: ({**cfg, "scenario": {**scn, key: v}}, f"scenario.{key}")))
    unknown_key = st.sampled_from([k for k in ALL_KEYS if k not in own] + ["bandwith_power", "gridpoints", "seed"]).map(
        lambda key: ({**cfg, "scenario": {**scn, key: 0.5}}, f"scenario.{key}"))
    bad_param = st.sampled_from(sorted(params)).flatmap(lambda key: st.sampled_from(PARAM_BAD[key]).map(
        lambda v: ({**cfg, "params": {**params, key: v}}, f"params.{key}")))
    # a key another subcommand reads, or a misspelt one: the runner would silently ignore it
    others = sorted({key for runner in RUNNERS.values() for key in _keyword_defaults(runner)}
                    - set(_keyword_defaults(RUNNERS[cfg["subcommand"]])))
    unknown_param = st.sampled_from(others + ["replicatons", "R_outter", "n_lsit", "threads"]).map(
        lambda key: ({**cfg, "params": {**params, key: 5}}, f"params.{key}"))
    mutants = [bad_value, unknown_key, bad_param, unknown_param]
    if "law_params" in own:  # a key no data law takes
        mutants.append(st.just(({**cfg, "scenario": {**scn, "law_params": {"zz": 1.0}}}, "scenario.law_params.zz")))
    return st.one_of(st.just((cfg, None)), st.one_of(*mutants))


def studentized_for_bands(cfg):
    if cfg["subcommand"] == "bands" and "normalization" in cfg["scenario"]:  # bands + unit is a cross-field error
        return {**cfg, "scenario": {**cfg["scenario"], "normalization": "studentized"}}
    return cfg


scenario_configs = st.sampled_from(sorted(valid_params)).flatmap(lambda sub: st.fixed_dictionaries(
    {"subcommand": st.just(sub), "seed": st.integers(0, 5), "scenario": valid_scenarios, "params": valid_params[sub]}
)).map(studentized_for_bands).flatmap(mutations)


# closed-form subcommands: valid-by-construction params, at each level maybe one field set to a wild value
wild = st.one_of(st.floats(), st.integers(-3, 3), st.just("x"), st.just([]))
positive = st.floats(min_value=0.0, exclude_min=True)  # subnormal to inf: the float-range edges


def maybe_mutated(valid):
    """Draws a valid dict, or the same dict with one of its fields set to a wild value."""
    def mutants(d):
        mutant = st.tuples(st.sampled_from(sorted(d)), wild).map(lambda kv: {**d, kv[0]: kv[1]})
        return st.one_of(st.just(d), mutant)

    return valid.flatmap(lambda d: mutants(d) if d else st.just(d))


profiles = {
    "H": maybe_mutated(st.one_of(
        st.fixed_dictionaries({"type": st.just("constant"), "value": st.floats(0.0, 20.0)}),
        st.fixed_dictionaries({"type": st.just("vc"), "A": st.floats(0.5, 10.0), "v": st.floats(0.0, 3.0)}),
    )),
    "tail": maybe_mutated(st.one_of(
        st.fixed_dictionaries({"type": st.just("zero")}),
        st.fixed_dictionaries({"type": st.just("bounded"), "ratio": st.floats(0.0, 5.0)}),
    )),
    "phi": maybe_mutated(st.fixed_dictionaries({"value": st.floats(0.0, 1.0)})),
}
moments = maybe_mutated(st.fixed_dictionaries(
    {"sigma": st.floats(0.0, 1.0), "b": st.one_of(st.floats(1.0, 2.0), positive), "q": st.floats(3.0, 8.0)},
    optional={"M2": st.floats(0.0, 1.0), "Mq": st.floats(1.0, 3.0), "kappa": st.floats(0.01, 3.0),
              "EG_FF": st.floats(0.0, 3.0), "A": st.floats(3.0, 10.0), "v": st.floats(0.5, 3.0), **profiles},
))
closed_form = {
    "smoothmax-check": maybe_mutated(st.fixed_dictionaries(
        {"draws": st.integers(0, 200), "deriv_draws": st.integers(0, 40), "p_max": st.integers(1, 30)},
        optional={"beta": st.floats(0.1, 10.0), "delta": st.floats(0.1, 10.0)},
    )),
    "coupling-bounds": maybe_mutated(st.fixed_dictionaries(
        {"moments": moments},
        optional={"n": st.one_of(st.integers(3, 10**6), st.just(10**400)), "epsilon": st.floats(1e-3, 1.0),
                  "gamma": st.floats(1e-3, 0.999), "K_q": st.floats(0.1, 5.0), "c_const": st.floats(0.1, 5.0),
                  "C_log": st.floats(0.1, 5.0)},
    )),
    "coupling-crossover": maybe_mutated(st.fixed_dictionaries(
        {},
        optional={"n_exponents": st.lists(st.one_of(st.integers(2, 45), st.integers(2, 1100)), min_size=1, max_size=4),
                  "delta": st.one_of(st.floats(1.0, 100.0), positive), "b": st.one_of(st.floats(0.1, 10.0), positive)},
    )),
}
closed_form_configs = st.sampled_from(sorted(closed_form)).flatmap(
    lambda sub: st.fixed_dictionaries({"subcommand": st.just(sub), "seed": st.integers(0, 5), "params": closed_form[sub]})
)


def reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def run_fuzzed(cfg, threads=1):
    """Exit code, stderr and output bytes (manifest aside) of one CLI run; every JSON file it writes is strict."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        code = main(["--config", str(path), "--output", str(out), "--threads", str(threads)])
        files = {f.name: f.read_bytes() for f in sorted(out.glob("*")) if f.name != "manifest.json"}
        for f in out.glob("*.json"):  # json.dump writes a non-finite float as Infinity or NaN
            json.loads(f.read_text(encoding="utf-8"), parse_constant=reject_constant)
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    return code, stderr.getvalue(), files


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_configs)
def test_fuzzed_scenario_configs_never_raise(case):
    cfg, anchor = case
    code, err, files = run_fuzzed(cfg)
    if anchor is not None:
        assert code == 2
        assert f"{anchor}:" in err
    else:
        assert code in (0, 3)
    if code != 2:  # the thread-cap contract: CSV and summary bytes do not depend on threads
        assert run_fuzzed(cfg, threads=2)[2] == files


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closed_form_configs)
def test_fuzzed_closed_form_configs_never_raise(cfg):
    run_fuzzed(cfg)
