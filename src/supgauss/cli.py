"""Config-driven experiment runner binding the library into reproducible batch runs.

A run is described by one JSON config file.  Outputs are a manifest (config
echo, seed, versions, wall time), one CSV per result table, and a
human-readable summary.  CSV and summary bytes depend only on (config, seed),
never on the worker cap.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import scenarios as scn_mod
from .bands import coverage_experiment
from .simulate import CovarianceError, RngPolicy, WorkerError, gaussian_sup_sample, levy_concentration

@dataclass(frozen=True)
class RunConfig:
    """A validated run; its fields are the top-level config keys and their defaults."""

    subcommand: str
    seed: int = 0
    threads: int = 1
    output_dir: str = "out"
    scenario: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConfigError:
    path: str
    message: str
    line: int | None = None

    def render(self) -> str:
        loc = f"line {self.line}, " if self.line else ""
        return f"{loc}{self.path}: {self.message}"


def _line_of(text: str, key: str) -> int | None:
    idx = 0
    for part in key.split("."):  # each path component after the one before it
        idx = text.find(f'"{part}"', idx)
        if idx < 0:
            return None
    return text.count("\n", 0, idx) + 1


# config key -> the command-line flag that overrides it
FLAGS = {"seed": "--seed", "threads": "--threads", "output_dir": "--output"}


def validate(config_text: str, overrides: dict | None = None):
    """Parse a JSON config, apply the flag ``overrides`` (config key -> value) and validate the result;
    returns (RunConfig | None, [ConfigError]).  An overridden value's error is anchored at its flag."""
    overrides = overrides or {}
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        return None, [ConfigError(path="<json>", message=str(exc), line=exc.lineno)]
    if not isinstance(raw, dict):
        return None, [ConfigError(path="<root>", message="config must be a JSON object")]
    raw = {**raw, **overrides}
    problems = _problems(raw, _keyword_defaults(RunConfig), RUN_RULES, "", "a config")
    sub, params, scenario = raw.get("subcommand"), raw.get("params", {}), raw.get("scenario")
    if "subcommand" in raw and sub not in SUBCOMMANDS:
        problems.append(("subcommand", f"unknown subcommand {sub!r}; expected one of {', '.join(SUBCOMMANDS)}"))
    if sub in SUBCOMMANDS and isinstance(params, dict):
        problems += _problems(params, _keyword_defaults(RUNNERS[sub]), PARAM_RULES, "params", sub)
        if sub == "coupling-bounds" and isinstance(params.get("moments"), dict):
            problems += _moment_problems(params["moments"])
    if scenario and isinstance(scenario, dict):
        problems += _scenario_problems(scenario, sub)
    if problems:
        return None, [ConfigError(path=FLAGS[path], message=message) if path in overrides
                      else ConfigError(path=path, message=message, line=_line_of(config_text, path))
                      for path, message in problems]
    return RunConfig(**raw), []


def _is_number(value) -> bool:
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer past the largest float
        return False


def _int_from(lo: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _one_of(names):
    return (lambda v: isinstance(v, str) and v in names, f"one of {', '.join(names)}")


_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_NONNEGATIVE = (lambda v: _is_number(v) and v >= 0, "a nonnegative number")
_NUMBER = (_is_number, "a finite number")
_N = (_int_from(3), "an integer >= 3 (the coupling constructions assume n >= 3)")
_COUNT = (_int_from(1), "a positive integer")
_OBJECT = (lambda v: isinstance(v, dict), "an object")

# rules of the top-level keys; which keys a config takes, and their defaults, are RunConfig's fields
RUN_RULES = {"seed": (lambda v: _int_from(0)(v) and v < 2**64, "an integer in [0, 2^64)"), "threads": _COUNT,
             "output_dir": (lambda v: isinstance(v, str) and "\0" not in v, "a string without a NUL character"),
             "params": _OBJECT, "scenario": _OBJECT}

# rules of the params keys; which keys a subcommand takes is its runner's signature
PARAM_RULES = {
    "n": _N, "replications": _COUNT, "R_outer": _COUNT, "R_inner": _COUNT, "delta": _POSITIVE, "b": _POSITIVE,
    "alpha": (lambda v: _is_number(v) and 0 < v < 1, "a number strictly between 0 and 1"),
    "epsilons": (lambda v: isinstance(v, list) and v and all(_is_number(e) and e > 0 for e in v),
                 "a nonempty list of positive numbers"),
    "draws": (_int_from(0), "a nonnegative integer"), "deriv_draws": (_int_from(0), "a nonnegative integer"),
    "p_max": _COUNT, "epsilon": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "gamma": (lambda v: _is_number(v) and 0 < v < 1, "a number strictly between 0 and 1"),
    "K_q": _POSITIVE, "c_const": _POSITIVE, "C_log": _POSITIVE,
    "n_exponents": (lambda v: isinstance(v, list) and v and all(_int_from(2)(e) and e <= 1023 for e in v),
                    "a nonempty list of integers from 2 to 1023 (n = 2^e must be at least 3 and a float)"),
    # at most 2^14 entries: rate salts entry i's samples 4i + 1 and 4i + 3, and salts stay below 2^16
    "n_list": (lambda v: isinstance(v, list) and 3 <= len(v) <= 2**14 and all(map(_int_from(3), v))
               and all(b > a for a, b in zip(v, v[1:])), "a strictly increasing list of 3 to 16384 "
               "integers n >= 3 (the coupling constructions assume n >= 3)"),
    "side": _one_of(("two_sided", "one_sided_lower")),
    "moments": (lambda v: isinstance(v, dict), "an object with at least sigma, b and q"),
}
# rules of the moments keys; which keys it takes, and their defaults, are _moment_inputs's signature
MOMENT_RULES = {"sigma": _NONNEGATIVE, "b": _POSITIVE, "q": (lambda v: _is_number(v) and v >= 3, "a number >= 3"),
                "M2": _NONNEGATIVE, "Mq": _NONNEGATIVE, "kappa": _POSITIVE, "EG_FF": _NONNEGATIVE,
                "A": _POSITIVE, "v": _POSITIVE, "phi": _OBJECT}
# profile -> type -> (rules of its fields, each required; the profile it builds from n and them).  phi has no
# type: its one optional field is the constant modulus
PHI = lambda value=0.0: lambda eps, phi=float(value): phi
PROFILES = {
    "H": {"constant": ({"value": _NUMBER}, lambda n, value: lambda eps, h=max(float(value), math.log(n)): h),
          "vc": ({"A": _POSITIVE, "v": _NONNEGATIVE},
                 lambda n, A, v: lambda eps: max(math.log(n), float(v) * math.log(float(A) / eps)))},
    "tail": {"zero": ({}, lambda n: lambda u: 0.0),  # the tail P[(F / kappa)^3 1(F / kappa > u)], F constant
             "bounded": ({"ratio": _NUMBER}, lambda n, ratio: lambda u, r=float(ratio): r**3 if r > u else 0.0)},
}


# rules of the scenario keys; which keys a scenario type takes is its factory's signature
SCENARIO_RULES = {
    "data_law": _one_of(scn_mod.DATA_LAWS), "kernel": _one_of(scn_mod.KERNELS), "basis": _one_of(scn_mod.BASES),
    "normalization": _one_of(("unit", "studentized")), "bandwidth_scale": _POSITIVE, "k_scale": _POSITIVE,
    "bandwidth_power": _NUMBER, "k_power": _NUMBER, "grid_points": _COUNT, "grid_lo": _NUMBER, "grid_hi": _NUMBER,
    "tau_grid": (lambda v: isinstance(v, list) and v and all(_is_number(t) and 0 < t < 1 for t in v),
                 "a nonempty list of levels strictly between 0 and 1"),
    "law_params": _OBJECT,
}
LAW_RULES = {"a": _POSITIVE, "b": _POSITIVE, "sd": _POSITIVE, "mu": _NUMBER, "lo": _NUMBER, "hi": _NUMBER}


def _problems(obj: dict, keys: dict, rules: dict, prefix: str, owner: str) -> list[tuple[str, str]]:
    """(path, message) for each key of obj outside keys (name -> default), each key without a default that obj
    lacks, and each value of obj that breaks its rule."""
    at = lambda key: f"{prefix}.{key}" if prefix else key
    return ([(at(key), f"{owner} takes no key {key!r} (it takes {', '.join(keys) or 'none'})")
             for key in obj if key not in keys]
            + [(at(key), f"{key} is required") for key, default in keys.items()
               if default is inspect.Parameter.empty and key not in obj]
            + [(at(key), f"{key} must be {what}") for key, (ok, what) in rules.items()
               if key in obj and not ok(obj[key])])


def _moment_problems(m: dict) -> list[tuple[str, str]]:
    """Key, value and cross-field checks of the coupling-bounds moment inputs."""
    problems = _problems(m, _keyword_defaults(_moment_inputs), MOMENT_RULES, "params.moments", "moments")
    for key in (key for key in PROFILES if key in m):
        kinds, spec = PROFILES[key], m[key]
        if not isinstance(spec, dict) or spec.get("type") not in tuple(kinds):
            problems.append((f"params.moments.{key}.type", f"{key} must be an object of type {' or '.join(kinds)}"))
        else:
            rules = kinds[spec["type"]][0]
            problems += _problems(spec, {"type": spec["type"], **dict.fromkeys(rules, inspect.Parameter.empty)},
                                  rules, f"params.moments.{key}", f"a {spec['type']} {key}")
    if isinstance(m.get("phi"), dict):
        problems += _problems(m["phi"], _keyword_defaults(PHI), {"value": _NONNEGATIVE}, "params.moments.phi", "phi")
    if problems:
        return problems
    m = {**_keyword_defaults(_moment_inputs), **m}
    if m["sigma"] > m["b"]:
        problems.append(("params.moments.sigma", "sigma cannot exceed the envelope scale b"))
    if m["M2"] > m["Mq"] + 1e-12:
        problems.append(("params.moments.M2", "M2 cannot exceed Mq (||M||_2 <= ||M||_q for q >= 2)"))
    if None not in (m["A"], m["v"]) and (m["sigma"] == 0 or m["q"] < 4 or m["A"] * m["b"] / m["sigma"] < math.e):
        problems.append(("params.moments.A", "the VC-type budget (A and v given) needs sigma > 0, q >= 4 "
                                             "and A b / sigma >= e"))
    return problems


def _scenario_problems(scenario: dict, sub) -> list[tuple[str, str]]:
    """Key, value and cross-field checks of a scenario spec, as (path, message) pairs."""
    stype = scenario.get("type")
    if stype not in tuple(scn_mod.SCENARIO_TYPES):  # a tuple, so an unhashable type such as a list cannot raise
        return [("scenario.type", f"unknown scenario type {stype!r}; expected one of {', '.join(scn_mod.SCENARIO_TYPES)}")]
    keys = {"type": stype, **_keyword_defaults(scn_mod.SCENARIO_TYPES[stype])}
    problems = _problems(scenario, keys, SCENARIO_RULES, "scenario", stype)
    spec = {**keys, **scenario}
    if "law_params" in scenario and not problems:
        law = scn_mod.DATA_LAWS[spec["data_law"]]
        problems = _problems(spec["law_params"], _keyword_defaults(law), LAW_RULES, "scenario.law_params",
                             spec["data_law"])
    if problems:
        return problems
    lo, hi = spec["grid_lo"], spec["grid_hi"]
    if sub == "bands" and spec.get("normalization") == "unit":
        problems.append(("scenario.normalization", "bands need a studentized scenario"))
    if lo >= hi:
        return problems + [("scenario.grid_lo", "grid_lo must be below grid_hi")]
    law = scn_mod.DATA_LAWS[spec.get("data_law", "uniform")](**(spec.get("law_params") or {}))  # series data are U(0, 1)
    if lo < law.support[0] or hi > law.support[1]:
        problems.append(("scenario.grid_lo", f"the grid [{lo}, {hi}] must lie inside the data support {list(law.support)}"))
    if isinstance(law, scn_mod.TruncNorm):
        _, fa, fb = law.cdf_bounds()
        if not fb > fa:  # its mass fb - fa on the support rounds to 0
            problems.append(("scenario.law_params", f"the truncnorm law (mu {law.mu}, sd {law.sd}) has no mass on "
                                                    f"its support {list(law.support)} in floats"))
    return problems


def _keyword_defaults(factory) -> dict:
    """name -> default of each keyword a config block's schema takes: RunConfig, a scenario factory, a data law, a
    runner or the moments builder.  Positional-only parameters (a runner's run config and output directory, the
    builder's sample size) are not keys."""
    return {name: p.default for name, p in inspect.signature(factory).parameters.items()
            if p.kind is not p.POSITIONAL_ONLY}


def scenario_from_config(spec: dict):
    """The scenario a validated config block describes; its type's factory supplies every default."""
    rest = dict(spec)
    return scn_mod.SCENARIO_TYPES[rest.pop("type", "kernel_density")](**rest)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def _run_smoothmax_check(cfg: RunConfig, outdir: Path, /, draws=20_000, deriv_draws=5_000,
                         p_max=1000) -> tuple[list[str], bool]:
    from .smoothmax import epsilon_beta_delta, smooth_max, smooth_max_derivs

    rng = RngPolicy(cfg.seed)
    gen = rng.stream_of(0)
    sandwich_viol = 0
    batches = 40
    per = max(1, draws // batches)
    # sandwich suite on whole (per, dim) matrices, one smooth max per row
    for _ in range(batches):
        dim = int(gen.integers(1, p_max + 1))
        beta = float(gen.uniform(0.05, 50.0))
        x = gen.standard_normal((per, dim)) * gen.uniform(0.5, 3.0)
        m = x.max(axis=1)
        fb = smooth_max(x, beta)
        upper = m + math.log(dim) / beta
        sandwich_viol += int(np.sum((fb < m - 1e-12) | (fb > upper + 1e-9)))

    gen2 = rng.stream_of(1)
    simplex_viol = wsum_viol = qsum_viol = 0
    for _ in range(deriv_draws):
        dim = int(gen2.integers(1, 65))
        beta = float(gen2.uniform(0.05, 20.0))
        d = smooth_max_derivs(gen2.standard_normal(dim) * 2.0, beta)
        if abs(d.pi.sum() - 1.0) > 1e-12 or np.any(d.pi < 0):
            simplex_viol += 1
        if np.abs(d.w).sum() > 2.0 + 1e-12:
            wsum_viol += 1
        if d.q_sum > 6.0 + 1e-12:
            qsum_viol += 1

    # tolerance decay under the coupled choice beta = 2 log(p v n) / delta
    tol_viol = 0
    for pn in (3, 10, 100, 1000, 100_000):
        delta = 0.7
        beta = 2.0 * math.log(pn) / delta
        if epsilon_beta_delta(beta, delta) > 2.0 * math.log(pn) / pn + 1e-15:
            tol_viol += 1

    gen3 = rng.stream_of(2)
    struct_viol = 0
    for _ in range(200):
        dim = int(gen3.integers(2, 40))
        beta = float(gen3.uniform(0.1, 5.0))
        x = gen3.standard_normal(dim)
        c = float(gen3.standard_normal())
        if abs(smooth_max(x, beta) - smooth_max(np.flip(x), beta)) > 1e-10:
            struct_viol += 1
        if abs(smooth_max(x + c, beta) - (smooth_max(x, beta) + c)) > 1e-9:
            struct_viol += 1

    suites = [
        ("sandwich", batches * per, sandwich_viol),
        ("gradient_simplex", deriv_draws, simplex_viol),
        ("hessian_abs_sum", deriv_draws, wsum_viol),
        ("third_deriv_abs_sum", deriv_draws, qsum_viol),
        ("tolerance_decay", 5, tol_viol),
        ("structure", 400, struct_viol),
    ]
    write_csv(outdir / "smoothmax_check.csv", ["suite", "checks", "violations"], suites)
    ok = all(v == 0 for _, _, v in suites)
    lines = [f"{name}: {checks} checks, {viol} violations" for name, checks, viol in suites]
    lines.append("smoothmax-check: " + ("PASS" if ok else "FAIL"))
    return lines, ok


def _moment_inputs(n, /, sigma, b, q, M2=0.0, Mq=0.0, kappa=1.0, EG_FF=0.0, A=None, v=None,
                   H={"type": "constant", "value": 0.0}, tail={"type": "zero"}, phi={}):
    """The MomentInputs of a validated moments block at sample size n; the signature is the block's schema.  A and v
    feed only the VC-type budget, and a constant H is raised to log n.  The dict defaults are never mutated."""
    from .bounds import MomentInputs

    profile = lambda key, spec: PROFILES[key][spec["type"]][1](n, **{k: x for k, x in spec.items() if k != "type"})
    return MomentInputs(n=n, sigma=float(sigma), b=float(b), q=float(q), M2=float(M2), Mq=float(Mq),
                        kappa=float(kappa), EG_FF=float(EG_FF), H_profile=profile("H", H), phi_profile=PHI(**phi),
                        tail_fn=profile("tail", tail))


def _run_coupling_bounds(cfg: RunConfig, outdir: Path, /, moments, n=1000, epsilon=0.05, gamma=0.1, K_q=1.0,
                         c_const=1.0, C_log=1.0) -> tuple[list[str], bool]:
    from .bounds import coupling_budget, vc_class_budget

    # float() so that a JSON int such as K_q 1 reaches the report as 1.0, as the defaults do
    gamma, c_const = float(gamma), float(c_const)
    budget = coupling_budget(_moment_inputs(n, **moments), epsilon=float(epsilon), gamma=gamma,
                             K_q=float(K_q), c_const=c_const, C_log=float(C_log))
    report = {"inputs": dict(moments), "n": n, "budget": budget.as_dict()}
    if "A" in moments and "v" in moments:
        vc = vc_class_budget(n=n, gamma=gamma, c_const=c_const,
                             **{key: float(moments[key]) for key in ("q", "b", "sigma", "A", "v")})
        report["vc_budget"] = {key: getattr(vc, key) for key in ("terms", "total", "K_n", "prob_bound_raw",
                                                                 "prob_bound")}
    write_json(outdir / "coupling_bounds.json", report)
    rows = [(k, v) for k, v in report["budget"].items() if k != "constants_used"]
    write_csv(outdir / "coupling_bounds.csv", ["term", "value"], rows)
    lines = [f"{k} = {_fmt(v)}" for k, v in rows]
    return lines, True


def _run_crossover(cfg: RunConfig, outdir: Path, /, n_exponents=tuple(range(8, 17)), delta=50.0,
                   b=1.0) -> tuple[list[str], bool]:
    from .bounds import crossover_sweep

    rows, crossover_n = crossover_sweep([2**e for e in n_exponents], delta=float(delta), b=float(b))
    write_csv(
        outdir / "crossover.csv",
        ["n", "p", "maxima_coupling_bound", "whole_vector_bound"],
        [(r.n, r.p, r.cor_bound, r.yurinskii) for r in rows],
    )
    cor_vals = [r.cor_bound for r in rows]
    yur_vals = [r.yurinskii for r in rows]
    monotone = all(b < a for a, b in zip(cor_vals, cor_vals[1:])) and all(
        b > a for a, b in zip(yur_vals, yur_vals[1:])
    )
    lines = [
        f"n={r.n} p={r.p}: maxima bound {_fmt(r.cor_bound)}, whole-vector bound {_fmt(r.yurinskii)}"
        for r in rows
    ]
    lines.append(
        f"crossover (whole-vector bound overtakes): n = {crossover_n}"
        if crossover_n is not None
        else "no crossover inside the sweep"
    )
    lines.append(f"monotone decrease/increase: {'yes' if monotone else 'no'}")
    return lines, monotone and crossover_n is not None


def _run_rate(cfg: RunConfig, outdir: Path, /, n_list=(500, 2000, 8000), replications=2000) -> tuple[list[str], bool]:
    scenario = scenario_from_config(cfg.scenario)
    table = scn_mod.rate_experiment(scenario, n_list, R=replications, rng=RngPolicy(cfg.seed), threads=cfg.threads)
    write_csv(
        outdir / "rate.csv",
        ["n", "ks", "ks_conf", "predicted_rate", "slope_fit"],
        [(r.n, r.ks, r.ks_conf, r.predicted_rate, table.slope_fit) for r in table.rows],
    )
    lines = [f"n={r.n}: ks = {_fmt(r.ks)} (+/- {_fmt(r.ks_conf)}), predicted rate {_fmt(r.predicted_rate)}"
             for r in table.rows]
    lines.append(f"log-log slope of ks vs n: {_fmt(table.slope_fit)}")
    return lines, True


def _run_bands(cfg: RunConfig, outdir: Path, /, n=2000, alpha=0.05, R_outer=500, R_inner=4000,
               side="two_sided") -> tuple[list[str], bool]:
    scenario = scenario_from_config(cfg.scenario)
    report, band = coverage_experiment(scenario, alpha=float(alpha), n=n, R_outer=R_outer, R_inner=R_inner,
                                       rng=RngPolicy(cfg.seed), side=side, threads=cfg.threads)
    write_csv(
        outdir / "band.csv",
        ["x", "lower", "upper"],
        zip(band.x_grid, band.lower, band.upper),
    )
    write_json(outdir / "coverage.json", {**asdict(report), "binomial_se": report.binomial_se})
    lines = [
        f"nominal coverage {repr(report.nominal)}, empirical {repr(report.empirical)}"
        f" (se {repr(report.binomial_se)}, R_outer {report.replications})",
        f"critical value {repr(report.c_alpha)}",
    ]
    return lines, True


def _run_anticoncentration(cfg: RunConfig, outdir: Path, /, n=2000, replications=100_000,
                           epsilons=(0.01, 0.02, 0.05, 0.1, 0.2)) -> tuple[list[str], bool]:
    scenario = scenario_from_config(cfg.scenario)
    gauss = gaussian_sup_sample(scn_mod.design(scenario, n).cov, replications, RngPolicy(cfg.seed),
                                threads=cfg.threads)
    mean = float(gauss.values.mean())
    rows = []
    ok = True
    for eps in map(float, epsilons):
        lev = levy_concentration(gauss, eps)
        bound = 3.0 * eps * (mean + math.sqrt(max(1.0, math.log(1.0 / eps))))
        if not math.isfinite(bound):
            raise OverflowError(f"the anticoncentration bound overflows a float at epsilon = {eps!r}")
        good = lev <= bound
        ok = ok and good
        rows.append((eps, lev, bound, good))
    write_csv(outdir / "anticoncentration.csv", ["epsilon", "levy_concentration", "bound", "pass"], rows)
    lines = [f"eps={_fmt(e)}: L = {_fmt(l)}, bound = {_fmt(b)}, {'ok' if g else 'VIOLATED'}" for e, l, b, g in rows]
    lines.append(f"gaussian sup mean: {_fmt(mean)}")
    return lines, ok


# subcommand -> runner; a runner's keyword parameters are the keys and defaults of its params block
RUNNERS = {
    "smoothmax-check": _run_smoothmax_check,
    "coupling-bounds": _run_coupling_bounds,
    "coupling-crossover": _run_crossover,
    "rate": _run_rate,
    "bands": _run_bands,
    "anticoncentration": _run_anticoncentration,
}
SUBCOMMANDS = tuple(RUNNERS)
OUTPUT_FILES = ("manifest.json", "summary.txt", "smoothmax_check.csv", "coupling_bounds.json", "coupling_bounds.csv",
                "crossover.csv", "rate.csv", "band.csv", "coverage.json", "anticoncentration.csv")


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    outdir = Path(config.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name in OUTPUT_FILES:  # every file a run writes: none of an earlier run may outlive this one
            (outdir / name).unlink(missing_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        lines, ok = RUNNERS[config.subcommand](config, outdir, **config.params)
    except (CovarianceError, np.linalg.LinAlgError, ArithmeticError, MemoryError, WorkerError) as exc:
        kind = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        text = str(exc) if isinstance(exc, WorkerError) else f"{kind}: {exc}"  # a worker's message names its fate
        (outdir / "summary.txt").write_text(text + "\n", encoding="utf-8")
        return 3
    wall = time.perf_counter() - started
    scipy = sys.modules.get("scipy")  # importing it only to read its version would cost every run about 15 ms
    manifest = {
        "config": asdict(config),
        "seed": config.seed,
        "versions": {
            "supgauss": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__ if scipy else None,  # null when the run loaded no scipy code
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall,
    }
    write_json(outdir / "manifest.json", manifest)
    summary = "\n".join([f"subcommand: {config.subcommand}", f"seed: {config.seed}"] + lines) + "\n"
    (outdir / "summary.txt").write_text(summary, encoding="utf-8")
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="supgauss", description="Run a configured experiment")
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None, help="worker process cap")
    parser.add_argument("--output", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    flags = {"seed": args.seed, "threads": args.threads, "output_dir": args.output}
    config, errors = validate(text, {key: value for key, value in flags.items() if value is not None})
    if errors:
        for e in errors:
            print(e.render(), file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
