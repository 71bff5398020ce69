"""Benchmark of supgauss through its CLI entry point.

    python3 bench/run.py --workload kernel-rate --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all        # every workload in turn
    python3 bench/run.py --smoke               # every workload at a tiny size, with every check

Run it from anywhere; it builds nothing and imports supgauss from `src/` of the
checkout it sits in. With `--trace 0` a run times the workload's CLI config at
threads 1 and 2 in one child process for `--seconds`, after seven set-up probes
in fresh interpreters. With `--trace 1` it reports per-layer numbers instead
(see tracing.py). Both then check the outputs against the benchmark's own
computations (see checks.py). The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; a human-readable
report goes to standard error. The exit code is 0 only if every operation
succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BAND_N, WORKLOADS, config_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
E2E_UNITS = {"setup_s": "s", "reps_per_s_t1": "reps/s", "reps_per_s_t2": "reps/s", "peak_rss_mb": "MB"}
# One process computes with at most 2 threads: the CLI's own thread cap, no BLAS pool.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Tally:
    """Operations attempted and failed: CLI runs and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def cli(self, run: dict) -> None:
        self.attempted += 1
        if run["rc"] != 0:
            self.failed += 1
            print(f"  FAIL cli run exited {run['rc']}", file=sys.stderr)

    def check(self, check) -> None:
        self.attempted += 1
        if not check.ok:
            self.failed += 1
            self.correct = False
        print(f"  {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}", file=sys.stderr)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **SINGLE_THREAD_BLAS, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probed_setups(wl, count: int) -> list[float]:
    """Set-up seconds of `count` fresh interpreters, each scaled to the reference
    speed by the `imports` probes right before and after it."""
    from probe import PROBES

    probe = PROBES["imports"]
    probes = [probe.run()]
    setups = []
    for _ in range(count):
        seconds = run_child("setup", wl.name)["setup_s"]
        probes.append(probe.run())
        setups.append(probe.scaled(seconds, probes[-2], probes[-1]))
    return setups


def timed_run(wl, config_path: Path, warmup_path: Path, params: dict, seconds: float, out: Path, tally: Tally, probes: int):
    from probe import PROBES

    reference_s = PROBES[wl.probe].reference_s
    setup = probed_setups(wl, probes)
    plan = out / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "workload": wl.name,
                "config": str(config_path),
                "warmup_config": str(warmup_path),
                "out": str(out),
                "seconds": seconds,
            }
        ),
        encoding="utf-8",
    )
    loop = run_child("loop", str(plan))
    tally.cli(loop["warmup"])
    runs = [run for rnd in loop["rounds"] for run in rnd]
    reps = wl.reps(params)
    rate = {t: [reps / r["wall_s"] * r["probe_s"] / reference_s for r in runs if r["threads"] == t] for t in (1, 2)}
    metrics = {
        "setup_s": statistics.median(setup),
        "reps_per_s_t1": statistics.median(rate[1]),
        "reps_per_s_t2": statistics.median(rate[2]),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    raw = {t: statistics.median(reps / r["wall_s"] for r in runs if r["threads"] == t) for t in (1, 2)}
    print(
        f"  {len(loop['rounds'])} rounds; unscaled reps/s t1 {raw[1]:.1f}, t2 {raw[2]:.1f};"
        f" scaled set-up probes {['%.3f' % s for s in setup]}",
        file=sys.stderr,
    )
    return metrics, loop["rounds"]


def output_checks(sg, checks, wl, seed: int, params: dict, outdir: Path) -> list:
    """Checks of the designs the workload uses and of the CLI outputs in outdir."""
    import numpy as np

    gen = np.random.default_rng([config_seed(wl.name, seed), 1])
    scenario = sg.cli.scenario_from_config(wl.scenario)
    results, refs = [], {}
    for n in wl.n_list:
        if wl.kind == "kernel":
            refs[n] = checks.KernelReference(n, wl.scenario.get("bandwidth_power", 0.2))
            design = sg.design_kernel(scenario, n)
            batches, direct = checks.kernel_batches(refs[n], gen)
            results.append(checks.kernel_design(design, refs[n]))
        else:
            design = sg.design_series(scenario, n)
            batches, direct = checks.series_batches(n, gen)
            results.append(checks.series_covariance(design, n))
        results.append(checks.colsums(f"{wl.kind}_colsums.n{n}", design.cls, batches, direct))
        if wl.subcommand == "rate":
            name = f"{wl.kind}_empirical_sup.n{n}"
            results.append(checks.empirical_sup(sg, name, design.cls, n, batches[0], direct[0]))
    sampler = design.sampler if wl.kind == "series" else scenario.family.sample
    results.append(checks.sampler_law(wl.kind, sampler, gen))
    if wl.subcommand == "rate":
        results += checks.rate_outputs(outdir, params, wl.kind, refs)
    else:
        results += checks.band_outputs(outdir, params, refs[BAND_N], gen)
    return results


def run_workload(sg, wl, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import checks
    import tracing

    print(f"{wl.name} (seed {seed}, trace {int(trace)}{', smoke' if smoke else ''})", file=sys.stderr)
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    params = wl.smoke if smoke else wl.timed
    config_path, warmup_path = out / "config.json", out / "warmup.json"
    config_path.write_text(json.dumps(wl.config(seed, params), indent=2), encoding="utf-8")
    warmup_path.write_text(json.dumps(wl.config(seed, wl.warmup), indent=2), encoding="utf-8")
    tally = Tally()

    if trace:
        layers, runs = tracing.measure(sg, wl, config_path, out, smoke)
        for run in runs:
            tally.cli(run)
        tally.check(checks.identical(runs, "bytes_traced_vs_untraced"))
        outdir = out / "untraced"
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name in layers.values:
                metrics[name] = {"value": layers.values[name], "unit": unit}
            else:
                metrics[name] = {"value": None, "unit": unit, "missing": layers.missing.get(name, "not measured")}
    else:
        values, rounds = timed_run(wl, config_path, warmup_path, params, seconds, out, tally, 1 if smoke else SETUP_PROBES)
        reference = rounds[0][0]
        for i, rnd in enumerate(rounds):
            for run in rnd:
                tally.cli(run)
            tally.check(checks.identical([reference, *rnd], f"bytes_t1_t2.round{i}"))
        outdir = out / "t1"
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    for check in output_checks(sg, checks, wl, seed, params, outdir):
        tally.check(check)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}", file=sys.stderr)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def smoke(sg) -> int:
    """Every workload, untraced and traced, at a tiny size with every check."""
    from tracing import PER_LAYER

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = (
        [m["name"] for m in declared["end_to_end"]] == list(E2E_UNITS)
        and [m["name"] for m in declared["per_layer"]] == [name for name, _ in PER_LAYER]
        and [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    )
    print(f"BENCHMARK.json names match the benchmark: {ok}", file=sys.stderr)
    for wl in WORKLOADS.values():
        for trace in (False, True):
            result = run_workload(sg, wl, seed=1, seconds=0, trace=trace, smoke=True)
            ok = ok and result["correct"] and result["failed"] == 0
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "supgauss" / "__init__.py").is_file():
        print(f"no supgauss sources under {SRC}: run the benchmark inside a checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so set it before any import of numpy.
    os.environ.update(SINGLE_THREAD_BLAS)
    sys.path.insert(0, str(SRC))
    import supgauss as sg
    import supgauss.cli  # noqa: F401  (sg.cli, sg.scenarios)

    if args.smoke:
        return smoke(sg)
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(sg, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), False) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
