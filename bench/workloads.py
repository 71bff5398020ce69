"""The benchmark's workloads: the CLI config each one runs, made from the workload seed.

This module imports nothing from numpy or supgauss, so a set-up probe can load it
before its timer starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

N_LIST = [500, 2000, 8000]
BAND_N = 2000
ALPHA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    scenario: dict  # the config's "scenario" block, as a user would write it
    timed: dict  # params of the timed CLI runs, untraced and traced
    smoke: dict  # params of the CLI runs in smoke mode
    warmup: dict  # params of the one untimed CLI run that fills lazy caches
    probe: str  # the reference loop in probe.py that matches the work that dominates

    @property
    def kind(self) -> str:
        return "series" if self.scenario["type"].startswith("series") else "kernel"

    @property
    def n_list(self) -> list[int]:
        """Sample sizes whose designs a CLI run of this workload builds."""
        return N_LIST if self.subcommand == "rate" else [BAND_N]

    def config(self, seed: int, params: dict) -> dict:
        return {
            "subcommand": self.subcommand,
            "seed": config_seed(self.name, seed),
            "threads": 1,
            "scenario": dict(self.scenario),
            "params": dict(params),
        }

    def reps(self, params: dict) -> int:
        """Sup replications one CLI run completes: empirical + Gaussian per n, or outer + inner."""
        if self.subcommand == "rate":
            return 2 * params["replications"] * len(params["n_list"])
        return params["R_outer"] + params["R_inner"]


def _rate(replications: int) -> dict:
    return {"n_list": list(N_LIST), "replications": replications}


def _bands(r_outer: int, r_inner: int) -> dict:
    return {"n": BAND_N, "alpha": ALPHA, "R_outer": r_outer, "R_inner": r_inner}


WORKLOADS = {
    w.name: w
    for w in (
        # Kernel column sums: a Python loop over the 64 grid points that holds the GIL.
        Workload(
            name="kernel-rate",
            subcommand="rate",
            scenario={"type": "kernel_density"},
            # R = 100: runs of about a second, which the probe readings around
            # them can follow; design quadrature is then about 30% of a run.
            timed=_rate(100),
            smoke=_rate(20),
            warmup=_rate(4),
            probe="interpreter",
        ),
        # Series column sums: K cos/sin over n points in numpy, which releases the GIL.
        Workload(
            name="series-rate",
            subcommand="rate",
            scenario={"type": "series_mean"},
            timed=_rate(80),
            smoke=_rate(20),
            warmup=_rate(4),
            probe="vector",
        ),
        # Gaussian side: Philox stream setup plus a 64 x 64 matvec per inner replication.
        Workload(
            name="band-calibration",
            subcommand="bands",
            scenario={"type": "kernel_density", "bandwidth_power": 1.0 / 3.0},
            timed=_bands(60, 12_000),
            smoke=_bands(20, 2_000),
            warmup=_bands(2, 50),
            probe="interpreter",
        ),
    )
}


def config_seed(workload: str, seed: int) -> int:
    """The seed the program receives: a hash of the workload name and the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")
