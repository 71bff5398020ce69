"""Undersmoothed uniform confidence bands from Gaussian-sup critical values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenarios import design, design_kernel  # noqa: F401  (the benchmark tracer patches bands.design_kernel)
from .simulate import RngPolicy, empirical_job, gaussian_job, sample_jobs, sup_quantile
from .simulate import gaussian_sup_sample  # noqa: F401  (unused here; the benchmark tracer patches this name)


@dataclass(frozen=True)
class BandResult:
    """A uniform band on a grid: estimate +/- c(alpha) * sigma_n pointwise."""

    x_grid: np.ndarray
    estimate: np.ndarray
    sigma_n: np.ndarray
    c_alpha: float
    side: str
    alpha: float
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self):
        lower = self.estimate - self.c_alpha * self.sigma_n
        if self.side == "two_sided":
            upper = self.estimate + self.c_alpha * self.sigma_n
        elif self.side == "one_sided_lower":
            upper = np.full_like(lower, np.inf)
        else:
            raise ValueError("side must be 'two_sided' or 'one_sided_lower'")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def contains(self, target: np.ndarray) -> bool:
        target = np.asarray(target, dtype=float)
        return bool(np.all(target >= self.lower) and np.all(target <= self.upper))


@dataclass(frozen=True)
class CoverageReport:
    """Simultaneous-coverage estimate across outer replications."""

    nominal: float
    empirical: float
    replications: int
    c_alpha: float
    inner_replications: int

    @property
    def binomial_se(self) -> float:
        return math.sqrt(self.empirical * (1.0 - self.empirical) / self.replications)


def build_band(estimate, sigma_n, c_alpha: float, side: str = "two_sided", x_grid=None, alpha: float = float("nan")) -> BandResult:
    """Assemble a band from pointwise estimates, standard deviations, and c(alpha)."""
    estimate = np.asarray(estimate, dtype=float)
    sigma_n = np.asarray(sigma_n, dtype=float)
    if estimate.shape != sigma_n.shape:
        raise ValueError("estimate and sigma_n must have the same length")
    if np.any(sigma_n < 0):
        raise ValueError("sigma_n must be nonnegative")
    if c_alpha < 0 and side == "two_sided":
        # one-sided critical values may be negative: for alpha > 1/2 the
        # (1 - alpha)-quantile of max_j Z_j can lie below 0
        raise ValueError("c_alpha of a two-sided band must be nonnegative")
    if x_grid is None:
        x_grid = np.arange(estimate.size, dtype=float)
    return BandResult(
        x_grid=np.asarray(x_grid, dtype=float),
        estimate=estimate,
        sigma_n=sigma_n,
        c_alpha=float(c_alpha),
        side=side,
        alpha=alpha,
    )


def coverage_experiment(
    scenario,
    alpha: float,
    n: int,
    R_outer: int,
    R_inner: int,
    rng: RngPolicy,
    side: str = "two_sided",
    threads: int = 1,
):
    """Coverage of the Gaussian-calibrated band over R_outer data replications.

    ``scenario`` is a kernel or series scenario whose design is studentized
    (unit variance at every column).  The critical value comes from R_inner
    draws of the exact Gaussian analogue (covariance by quadrature, shared
    across replications).  The target is E[S_n(x)], which removes bias
    entirely so coverage error isolates the Gaussian approximation of the
    supremum.  With studentized deviations Z_n = (S_hat - E S_hat) / sd(S_hat)
    the band est +/- c sd covers the target at every x exactly when
    max_j |Z_n| <= c (``one_sided_lower``: max_j Z_n <= c), so coverage is the
    fraction of empirical suprema at or below c(alpha).

    Returns (CoverageReport, BandResult) with the band from replication 0.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if side not in ("two_sided", "one_sided_lower"):
        raise ValueError("side must be 'two_sided' or 'one_sided_lower'")
    d = design(scenario, n)
    if not np.allclose(np.diag(d.cov.sigma), 1.0):
        raise ValueError("coverage experiments require a studentized scenario")
    absolute = side == "two_sided"
    gauss, emp = sample_jobs([
        gaussian_job(d.cov, R_inner, rng.with_salt(rng.salt + 101), absolute=absolute, statistic_id="band_gauss"),
        empirical_job(d.cls, d.sampler, n, R_outer, rng, absolute=absolute),
    ], threads)
    c_alpha = sup_quantile(gauss, alpha)
    report = CoverageReport(
        nominal=1.0 - alpha,
        empirical=int(np.count_nonzero(emp.values <= c_alpha)) / R_outer,  # a float: summary.txt writes its repr
        replications=R_outer,
        c_alpha=c_alpha,
        inner_replications=R_inner,
    )
    # the returned band: replication 0, the first draw of block 0's stream, redrawn
    dev = d.cls.sum_columns(d.sampler(rng.stream_of(0), n)) / math.sqrt(n)
    estimate = d.estimator_mean + d.sigma_hat_sd * dev
    band = build_band(estimate, d.sigma_hat_sd, c_alpha, side=side, x_grid=d.index_grid, alpha=alpha)
    return report, band
