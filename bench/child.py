"""Child processes of the benchmark, each started in a fresh interpreter.

    python3 bench/child.py setup WORKLOAD
        Time `import supgauss` plus a cold build of every design the workload uses.
    python3 bench/child.py loop PLAN.json
        Run the workload's CLI config in rounds at threads 1 and 2 until the time
        is up, then report each run's wall time, the reference probe time around
        it (see probe.py), its exit code and output digests, and this process's
        peak resident set size.

Both print one JSON object on stdout. `src/` of the checkout must be on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def setup(name: str) -> dict:
    wl = WORKLOADS[name]
    started = time.perf_counter()
    import supgauss
    from supgauss import cli

    scenario = cli.scenario_from_config(wl.scenario)
    build = supgauss.design_series if wl.kind == "series" else supgauss.design_kernel
    for n in wl.n_list:
        build(scenario, n)
    return {"setup_s": time.perf_counter() - started}


def output_digests(outdir: Path) -> dict:
    """sha256 of every output file but the manifest, which holds the wall time."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.name != "manifest.json"
    }


def cli_run(cli, config: str, threads: int, outdir: Path) -> dict:
    started = time.perf_counter()
    rc = cli.main(["--config", config, "--threads", str(threads), "--output", str(outdir)])
    wall = time.perf_counter() - started
    return {"threads": threads, "wall_s": wall, "rc": rc, "digests": output_digests(outdir)}


def probed_cli_run(cli, config: str, threads: int, outdir: Path, probe, probes: list) -> dict:
    """A CLI run with the probe time averaged from right before and right after it."""
    run = cli_run(cli, config, threads, outdir)
    probes.append(probe())
    run["probe_s"] = 0.5 * (probes[-2] + probes[-1])
    return run


def loop(plan_path: str) -> dict:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from probe import PROBES
    from supgauss import cli

    probe = PROBES[WORKLOADS[plan["workload"]].probe].run
    out = Path(plan["out"])
    warmup = cli_run(cli, plan["warmup_config"], 1, out / "warmup")
    rounds = []
    probes = [probe()]
    started = time.perf_counter()
    # Whole rounds only, and none that the last round's length says would end
    # past the deadline; the order of the two thread caps alternates so that a
    # drift in machine load falls on both alike.
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= plan["seconds"]:
        caps = (1, 2) if len(rounds) % 2 == 0 else (2, 1)
        begun = time.perf_counter()
        rounds.append([probed_cli_run(cli, plan["config"], t, out / f"t{t}", probe, probes) for t in caps])
        last = time.perf_counter() - begun
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    return {"warmup": warmup, "rounds": rounds, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    result = setup(arg) if mode == "setup" else loop(arg)
    print(json.dumps(result))
