"""The traced run: per-layer numbers timed from outside the program.

Each layer is timed with perf_counter around calls into the public functions
of `scenarios`, `simulate`, `bands` and `cli`, at every n in N_LIST and at
threads 1 and 2. CLI runs of the timed config are also made with timing
wrappers patched over `RngPolicy.stream_of`, the library entry the subcommand
calls, the design builders and the sup samplers; the wrappers are removed
afterwards. Every time is scaled to the reference speed by probes
right before and after it (see probe.py). If a callable has gone, its metrics
are reported as missing and the run goes on.
"""

from __future__ import annotations

import statistics
import sys
import threading
import traceback
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import NamedTuple

from child import probed_cli_run
from probe import PROBES, Probe
from workloads import BAND_N, N_LIST, WORKLOADS

PER_N = [
    ("simulate.emp_rep_us", "us"),
    ("simulate.emp_rep_us_t2", "us"),
    ("simulate.gauss_rep_us", "us"),
    ("simulate.gauss_rep_us_t2", "us"),
    ("simulate.factor_ms", "ms"),
    ("simulate.ks_ms", "ms"),
    ("scenarios.design_ms", "ms"),
    ("scenarios.draw_us", "us"),
    ("scenarios.colsum_us", "us"),
    ("scenarios.evaluate_us", "us"),
]
PER_LAYER = (
    [("simulate.stream_us", "us"), ("simulate.streams", "count")]
    + [(f"{name}.n{n}", unit) for name, unit in PER_N for n in N_LIST]
    + [
        ("scenarios.design_share", "%"),
        ("simulate.empirical_share", "%"),
        ("simulate.gaussian_share", "%"),
        ("bands.coverage_s", "s"),
        ("bands.build_band_us", "us"),
        ("cli.overhead_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
)
UNITS = dict(PER_LAYER)


class Sizes(NamedTuple):
    batches: int  # data batches per n for the draw, column-sum and evaluate timers
    emp_r: int  # replications per empirical_sup_sample call
    gauss_r: int  # replications per gaussian_sup_sample call
    repeats: int  # calls per median
    cli_pairs: int  # untraced + traced CLI run pairs


FULL = Sizes(batches=20, emp_r=50, gauss_r=4000, repeats=3, cli_pairs=3)
SMOKE = Sizes(batches=2, emp_r=4, gauss_r=100, repeats=1, cli_pairs=1)
BUILD_BAND_CALLS = 200


class Tracer:
    """Sums perf_counter seconds and calls per span name; safe under threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1

    @contextmanager
    def patched(self, owner, attr: str, name: str):
        """Replace owner.attr by a wrapper that records a span per call."""
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(name, perf_counter() - started)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)


def _median_wall(probe: Probe, fn, repeats: int = 1) -> float:
    """Median seconds of `repeats` back-to-back calls of fn(), at the reference speed."""
    return _per_call(probe, lambda _: fn(), range(repeats))[1]


def _per_call(probe: Probe, fn, items) -> tuple[list, float]:
    """Results of fn(item) for each item and the median seconds per call, at the reference speed."""
    before = probe.run()
    results, walls = [], []
    for item in items:
        started = perf_counter()
        results.append(fn(item))
        walls.append(perf_counter() - started)
    return results, probe.scaled(statistics.median(walls), before, probe.run())


class Layers:
    """Collects metric values; a failing group marks its metrics missing."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.missing: dict[str, str] = {}

    @contextmanager
    def group(self, *names):
        try:
            yield self.values
        except Exception as exc:  # a layer callable changed or disappeared: report it, keep running
            traceback.print_exc(file=sys.stderr)
            for name in names:
                self.values.pop(name, None)
                self.missing[name] = f"{type(exc).__name__}: {exc}"


def _per_n(sg, wl, n, sizes: Sizes, layers: Layers) -> None:
    probe = PROBES[wl.probe]
    batches, emp_r, gauss_r, repeats = sizes.batches, sizes.emp_r, sizes.gauss_r, sizes.repeats
    names = [f"{name}.n{n}" for name, _ in PER_N]
    with layers.group(*names) as out:
        scenario = sg.cli.scenario_from_config(wl.scenario)
        build = sg.design_series if wl.kind == "series" else sg.design_kernel
        design = build(scenario, n)  # the first call fills lazy caches
        out[f"scenarios.design_ms.n{n}"] = 1e3 * _median_wall(probe, lambda: build(scenario, n), repeats)
        sigma = design.cov.sigma
        out[f"simulate.factor_ms.n{n}"] = 1e3 * _median_wall(probe, lambda: sg.CovarianceModel.from_matrix(sigma), repeats)

        sampler = design.sampler if wl.kind == "series" else scenario.family.sample
        rng = sg.RngPolicy(12345)
        gens = [rng.stream_of(i) for i in range(batches)]
        draws, seconds = _per_call(probe, lambda gen: sampler(gen, n), gens)
        out[f"scenarios.draw_us.n{n}"] = 1e6 * seconds
        cls = design.cls
        out[f"scenarios.colsum_us.n{n}"] = 1e6 * _per_call(probe, cls.column_sums, draws)[1]
        out[f"scenarios.evaluate_us.n{n}"] = 1e6 * _per_call(probe, lambda b: cls.evaluate(b).sum(axis=0), draws)[1]

        samples = {}
        for threads, suffix in ((1, ""), (2, "_t2")):
            def emp():
                samples["emp"] = sg.empirical_sup_sample(cls, sampler, n, emp_r, rng.with_salt(1), threads=threads)

            def gauss():
                samples["gauss"] = sg.gaussian_sup_sample(design.cov, gauss_r, rng.with_salt(3), threads=threads)

            out[f"simulate.emp_rep_us{suffix}.n{n}"] = 1e6 * _median_wall(probe, emp, repeats) / emp_r
            out[f"simulate.gauss_rep_us{suffix}.n{n}"] = 1e6 * _median_wall(probe, gauss, repeats) / gauss_r
        out[f"simulate.ks_ms.n{n}"] = 1e3 * _median_wall(
            probe, lambda: sg.ks_distance(samples["emp"], samples["gauss"]), 5 * repeats
        )


def _bands(sg, sizes: Sizes, layers: Layers) -> None:
    band = WORKLOADS["band-calibration"]
    probe = PROBES[band.probe]
    params = band.smoke if sizes == SMOKE else band.timed
    with layers.group("bands.coverage_s", "bands.build_band_us") as out:
        # coverage_experiment takes kernel scenarios only, so every traced run
        # times it on the band-calibration scenario.
        scenario = sg.cli.scenario_from_config(band.scenario)
        design = sg.design_kernel(scenario, BAND_N)
        out["bands.coverage_s"] = _median_wall(
            probe, lambda: sg.coverage_experiment(
                scenario, alpha=params["alpha"], n=BAND_N, R_outer=params["R_outer"],
                R_inner=params["R_inner"], rng=sg.RngPolicy(12345), threads=1,
            )
        )
        est, sd = design.estimator_mean, design.sigma_hat_sd
        x = scenario.x_grid

        def build_all():
            for _ in range(BUILD_BAND_CALLS):
                sg.build_band(est, sd, 3.0, side="two_sided", x_grid=x, alpha=0.05)

        out["bands.build_band_us"] = 1e6 * _median_wall(probe, build_all) / BUILD_BAND_CALLS


# Spans of a traced CLI run whose share of the run's wall is reported: the
# module attributes through which `rate_experiment` and `coverage_experiment`
# reach each callable. `simulate.empirical_share` is the rest of the library
# entry: the empirical replications of `rate` (draws, column sums, KS) or the
# outer data loop of `bands`.
SHARES = {
    "scenarios.design_share": (("scenarios", "design_kernel"), ("scenarios", "design_series"), ("bands", "design_kernel")),
    "simulate.gaussian_share": (("scenarios", "gaussian_sup_sample"), ("bands", "gaussian_sup_sample")),
}


def _cli(sg, wl, config, out, sizes: Sizes, layers: Layers) -> list[dict]:
    """Untraced and traced CLI runs, alternating; returns each run's record."""
    runs = []
    if wl.subcommand == "rate":
        entry_owner, entry_attr = sg.scenarios, "rate_experiment"
    else:
        entry_owner, entry_attr = sg.cli, "coverage_experiment"
    names = ("simulate.stream_us", "simulate.streams", "cli.overhead_ms", "trace.overhead_ms", "simulate.empirical_share", *SHARES)
    with layers.group(*names) as values:
        pairs, shares = [], defaultdict(list)
        probe = PROBES[wl.probe]
        probes = [probe.run()]
        for _ in range(sizes.cli_pairs):
            runs.append(probed_cli_run(sg.cli, config, 1, out / "untraced", probe.run, probes))
            tracer = Tracer()
            with ExitStack() as stack:
                stack.enter_context(tracer.patched(sg.RngPolicy, "stream_of", "stream"))
                stack.enter_context(tracer.patched(entry_owner, entry_attr, "entry"))
                for share, targets in SHARES.items():
                    for module, attr in targets:
                        stack.enter_context(tracer.patched(getattr(sg, module), attr, share))
                runs.append(probed_cli_run(sg.cli, config, 1, out / "traced", probe.run, probes))
            pairs.append(tracer)
            wall = runs[-1]["wall_s"]
            for share in SHARES:
                shares[share].append(100.0 * tracer.seconds[share] / wall)
            rest = tracer.seconds["entry"] - sum(tracer.seconds[share] for share in SHARES)
            shares["simulate.empirical_share"].append(100.0 * rest / wall)
        scales = [probe.reference_s / run["probe_s"] for run in runs]
        plain = [run["wall_s"] * k for run, k in zip(runs[0::2], scales[0::2])]
        traced = [run["wall_s"] * k for run, k in zip(runs[1::2], scales[1::2])]
        overhead = [t - tracer.seconds["entry"] * k for t, tracer, k in zip(traced, pairs, scales[1::2])]
        stream_s = [tracer.seconds["stream"] * k / max(tracer.calls["stream"], 1) for tracer, k in zip(pairs, scales[1::2])]
        values["simulate.streams"] = pairs[0].calls["stream"]
        values["simulate.stream_us"] = 1e6 * statistics.median(stream_s)
        values["cli.overhead_ms"] = 1e3 * statistics.median(overhead)
        values["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
        for share, pcts in shares.items():
            values[share] = statistics.median(pcts)
    return runs


def measure(sg, wl, config, out, smoke: bool):
    """Per-layer metrics of one workload and the CLI runs made on the way."""
    sizes = SMOKE if smoke else FULL
    layers = Layers()
    runs = _cli(sg, wl, str(config), out, sizes, layers)
    for n in N_LIST:
        _per_n(sg, wl, n, sizes, layers)
    _bands(sg, sizes, layers)
    return layers, runs
