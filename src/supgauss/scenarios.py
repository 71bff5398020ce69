"""Kernel (local) and series empirical-process scenarios with exact Gaussian analogues.

A scenario describes the data law, the localization (bandwidth or basis
order), the evaluation grid, and the normalization.  Builders discretize the
induced function family on the grid and compute the matching Gaussian-analogue
covariance by quadrature, so the analogue law is exact up to quadrature error.
Kernel moments use the 256-node rule on each panel between the window edges
x_j +/- window * h, where every kernel is smooth; on a panel the Epanechnikov
kernel is a polynomial, so its moments and column sums combine per-panel
polynomial moments (its moments are exact on a polynomial density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from .funcclass import DiscretizedClass
from .simulate import CovarianceError, CovarianceModel, RngPolicy, empirical_job, gaussian_job, ks_distance, sample_jobs
from .simulate import gaussian_sup_sample  # noqa: F401  (unused here; the benchmark tracer patches this name)

# ---------------------------------------------------------------------------
# quadrature

QUAD_NODES = 256
# largest series basis order: at half the nodes the quadrature Gram of every
# basis is still the identity (Fourier, Legendre) or well conditioned (B-splines)
MAX_BASIS_ORDER = QUAD_NODES // 2


@lru_cache(maxsize=1)
def _leggauss():
    """``np.polynomial.legendre.leggauss(QUAD_NODES)`` as numpy 2.4.6 computes it, stored bit for bit: loading
    it skips the import of numpy.polynomial and the eigensolve, and no design depends on the installed LAPACK."""
    rule = np.load(Path(__file__).with_name(f"leggauss{QUAD_NODES}.npy"))
    rule.flags.writeable = False  # every caller shares the cached array
    return rule


def gauss_legendre_rule(lo: float, hi: float):
    """256-point Gauss-Legendre nodes and weights on [lo, hi]; every quadrature here uses it."""
    x, w = _leggauss()
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# kernels

@dataclass(frozen=True)
class Epanechnikov:
    """k(u) = 0.75 (1 - u^2) on [-1, 1]; unit integral, compact support."""

    window: ClassVar[float] = 1.0  # support radius; design_kernel's panel algebra assumes |u| < 1

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


@dataclass(frozen=True)
class GaussianKernel:
    """Standard normal density kernel; unbounded support."""

    window: ClassVar[float] = math.inf

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


KERNELS = {"epanechnikov": Epanechnikov(), "gaussian": GaussianKernel()}


# ---------------------------------------------------------------------------
# data laws (1-d, with evaluable densities so quadrature centering is exact)

@dataclass(frozen=True)
class Uniform01:
    support: tuple = field(default=(0.0, 1.0), init=False)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        return ((t >= 0) & (t <= 1)).astype(float)

    def sample(self, gen, n):
        return gen.random(n)


@dataclass(frozen=True)
class BetaLaw:
    a: float = 2.0
    b: float = 2.0
    support: tuple = field(default=(0.0, 1.0), init=False)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        if self.a == self.b == 2:  # scipy's betaln(2, 2) to the bit, without the scipy.special import
            log_beta = -math.log(6.0)
        else:
            from scipy.special import betaln
            log_beta = betaln(self.a, self.b)
        inside = (t > 0) & (t < 1)
        out = np.zeros_like(t)
        tt = np.clip(t, 1e-300, 1 - 1e-16)
        with np.errstate(over="ignore"):  # huge a, b: the exponent runs to inf, which the covariance check reports
            out[inside] = np.exp(
                (self.a - 1) * np.log(tt[inside]) + (self.b - 1) * np.log1p(-tt[inside]) - log_beta
            )
        return out

    def sample(self, gen, n):
        if self.a == self.b == 2:  # the median of three uniforms: P(median <= x) = 3x^2 - 2x^3, exactly Beta(2, 2)
            a, b, c = gen.random((3, n))
            return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
        return gen.beta(self.a, self.b, size=n)


@dataclass(frozen=True)
class TruncNorm:
    mu: float = 0.5
    sd: float = 0.25
    lo: float = 0.0
    hi: float = 1.0

    @property
    def support(self):
        return (self.lo, self.hi)

    def cdf_bounds(self):
        """Normal cdf at lo and at hi; the law's mass on [lo, hi] is their difference."""
        from scipy.special import ndtr

        za = (self.lo - self.mu) / self.sd
        zb = (self.hi - self.mu) / self.sd
        return ndtr(za), ndtr(zb)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        fa, fb = self.cdf_bounds()
        with np.errstate(over="ignore"):  # a subnormal sd: z and the peak run to inf, which studentization reports
            z = (t - self.mu) / self.sd
            phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            out = phi / (self.sd * (fb - fa))
        return np.where((t >= self.lo) & (t <= self.hi), out, 0.0)

    def sample(self, gen, n):
        from scipy.special import ndtri

        fa, fb = self.cdf_bounds()
        u = gen.random(n)
        return self.mu + self.sd * ndtri(fa + u * (fb - fa))


# name -> law; each law's init fields are the law_params it takes
DATA_LAWS = {"uniform": Uniform01, "beta": BetaLaw, "truncnorm": TruncNorm}


# ---------------------------------------------------------------------------
# g-families for kernel statistics: each has one g, so a kernel design has one column per grid point

@dataclass(frozen=True)
class DensityFamily:
    """g = 1: the statistic estimates the design density."""

    x_law: object

    def sample(self, gen, n):
        return self.x_law.sample(gen, n)

    def g_values(self, batch):
        x = np.asarray(batch, dtype=float)
        return np.ones(x.size), x

    def g_mean(self, t):
        return np.ones(np.asarray(t).size)

    def g_cross(self, t):
        return np.ones(np.asarray(t).size)


@dataclass(frozen=True)
class RegressionFamily:
    """g(y) = y under Y = m(X) + sd(X) * N(0,1)."""

    x_law: object
    mean_fn: callable
    sd_fn: callable

    def sample(self, gen, n):
        x = self.x_law.sample(gen, n)
        y = self.mean_fn(x) + self.sd_fn(x) * gen.standard_normal(n)
        return (y, x)

    def g_values(self, batch):
        y, x = batch
        return np.asarray(y, dtype=float), np.asarray(x, dtype=float)

    def g_mean(self, t):
        return np.asarray(self.mean_fn(t), dtype=float)

    def g_cross(self, t):
        m = np.asarray(self.mean_fn(t), dtype=float)
        s = np.asarray(self.sd_fn(t), dtype=float)
        return m * m + s * s


# ---------------------------------------------------------------------------
# kernel scenario

@dataclass(frozen=True)
class KernelScenario:
    """Localized empirical-process experiment description."""

    kernel: object
    bandwidth_rule: callable
    x_grid: np.ndarray
    family: object
    normalization: str = "studentized"
    name: ClassVar[str] = "kernel"

    def __post_init__(self):
        if self.normalization not in ("unit", "studentized"):
            raise ValueError("normalization must be 'unit' or 'studentized'")
        if len(self.x_grid) == 0:
            raise ValueError("x_grid must be nonempty")


def kernel_density_scenario(
    data_law="beta",
    law_params: dict | None = None,
    kernel: str = "epanechnikov",
    grid_points: int = 64,
    grid_lo: float = 0.1,
    grid_hi: float = 0.9,
    bandwidth_power: float = 0.2,
    bandwidth_scale: float = 1.0,
    normalization: str = "studentized",
) -> KernelScenario:
    """Built-in density-family scenario: h_n = scale * n^{-power}."""
    law = DATA_LAWS[data_law](**(law_params or {}))
    return KernelScenario(
        kernel=KERNELS[kernel],
        bandwidth_rule=lambda n: bandwidth_scale * float(n) ** (-bandwidth_power),
        x_grid=np.linspace(grid_lo, grid_hi, grid_points),
        family=DensityFamily(law),
        normalization=normalization,
    )


@dataclass(frozen=True)
class KernelDesign:
    """Quadrature-computed design of a kernel scenario at one sample size."""

    scenario: KernelScenario
    n: int
    h: float
    means: np.ndarray  # (Nx,) uncentered kernel moments E[g k]
    variances: np.ndarray  # (Nx,) Var of the h^{-d/2}-scaled statistic
    c: np.ndarray  # (Nx,) normalizing constants
    cls: DiscretizedClass
    cov: CovarianceModel
    sampler: callable

    @property
    def index_grid(self) -> np.ndarray:
        return np.asarray(self.scenario.x_grid, dtype=float)

    @property
    def sigma_hat_sd(self) -> np.ndarray:
        """Standard deviation of the raw estimator S_n(x) itself."""
        return np.sqrt(self.variances / (self.n * self.h))

    @property
    def estimator_mean(self) -> np.ndarray:
        """E[S_n(x)] = h^{-1} E[g k]."""
        return self.means / self.h

    @property
    def predicted_rate(self) -> float:
        """(n h)^{-1/6} log n."""
        return (self.n * self.h) ** (-1.0 / 6.0) * math.log(self.n)


def _panel_lookup(breaks: np.ndarray):
    """panel_of(x) == clip(searchsorted(breaks, x) - 1, 0, P - 1) for finite x: the count of the P - 1 interior
    breaks below x, from a table of 8 uniform cells per panel. x -> cell is monotone in floats, so the breaks
    in lower cells lie below x (start[cell] is a lower bound) and those in higher cells above it: the most
    breaks in one cell bound the steps left."""
    cells, padded = 8 * (breaks.size - 1), np.append(breaks[1:-1], np.inf)  # the interior breaks, then inf
    inv = cells / (breaks[-1] - breaks[0])
    cell_of = lambda x: np.clip((x - breaks[0]) * inv, 0, cells - 1).astype(np.intp)
    start = np.searchsorted(cell_of(padded[:-1]), np.arange(cells + 1))
    steps = int(np.diff(start).max())

    def panel_of(x):
        k = start[cell_of(np.asarray(x, dtype=float))]
        for _ in range(steps):
            k += padded[k] < x
        return k

    return panel_of


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by its own sort and adjacent-difference mask, without its import of numpy.ma."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def design_kernel(scn: KernelScenario, n: int) -> KernelDesign:
    """Discretize the localized family on the grid; covariance by quadrature."""
    if n < 3:
        raise ValueError("sample size must be at least 3")
    try:
        h = float(scn.bandwidth_rule(n))
    except OverflowError:  # a bandwidth past the largest float
        h = math.inf
    if not 0 < h < math.inf:
        raise CovarianceError(f"bandwidth h = {h} at n = {n} is not a positive finite number")
    kern = scn.kernel
    law = scn.family.x_law
    xg = np.asarray(scn.x_grid, dtype=float)
    lo_s, hi_s = law.support
    collapsed = (xg - kern.window * h == xg) | (xg + kern.window * h == xg)
    if np.any(collapsed):
        raise CovarianceError(f"bandwidth h = {h} at n = {n} is below the float spacing at grid point {xg[collapsed][0]}")

    # first moments E[g(Y) k((X - x_j)/h)] and raw second moments E[g^2 k_j k_k]
    # by the 256-node rule on every panel between the window edges, where every kernel is smooth
    edges = np.concatenate([[lo_s, hi_s], xg - kern.window * h, xg + kern.window * h])
    breaks = _sorted_distinct(np.clip(edges, lo_s, hi_s))
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    t, w = gauss_legendre_rule(breaks[:-1, None], breaks[1:, None])  # (panels, nodes)
    wd = w * law.density(t)
    gm = scn.family.g_mean(t.ravel()).reshape(t.shape)
    gc = scn.family.g_cross(t.ravel()).reshape(t.shape)
    if isinstance(kern, Epanechnikov):
        # on panel p the window of x_j is 0.75 sum_a A[a, j, p] u^a = 0.75((1 - d^2) - 2 d u - u^2), with
        # u = (t - mid_p)/h, d = (mid_p - x_j)/h: exact combinations of the panel sums of w dens g u^r
        d = (mid[None, :] - xg[:, None]) / h
        inside = np.abs(d) < 1.0
        A = np.stack([np.where(inside, 1.0 - d * d, 0.0), np.where(inside, -2.0 * d, 0.0), -inside.astype(float)])
        u, mu1, mu2 = (t - mid[:, None]) / h, [], []
        for r in range(5):
            mu1.append(np.einsum("pt,pt->p", wd, gm))
            mu2.append(np.einsum("pt,pt->p", wd, gc))
            wd = wd * u
        means = 0.75 * np.einsum("ajp,ap->j", A, np.stack(mu1[:3]))
        S = np.einsum("ajp,abp->jbp", A, np.stack(mu2)[np.add.outer(np.arange(3), np.arange(3))])
        raw = 0.5625 * np.tensordot(S, A, axes=([1, 2], [0, 2]))  # sum over b, p
    else:  # the kernel at every node of every panel
        kv = kern((t.reshape(-1, 1) - xg[None, :]) / h)  # (nodes, nx)
        wk = wd.reshape(-1, 1) * kv
        means = wk.T @ gm.ravel()
        raw = (wk * gc.reshape(-1, 1)).T @ kv

    second = np.diagonal(raw)
    variances = (second - means**2) / h
    if scn.normalization == "studentized":
        if np.any(variances <= 1e-14):
            bad = xg[np.argmax(variances <= 1e-14)]
            raise CovarianceError(f"zero variance at grid point {bad}: studentization undefined")
        # studentizing scales raw's rounding, about eps * second, by second / (variances h): past
        # SYMMETRY_TOL / eps that alone would fail the covariance's symmetry check
        lost = second / (variances * h)
        if lost.max() * np.finfo(float).eps > CovarianceModel.SYMMETRY_TOL:
            raise CovarianceError(
                f"studentization at grid point {xg[lost.argmax()]} loses {math.log10(lost.max()):.1f} of 16 digits")
        c = 1.0 / np.sqrt(variances)
    else:
        c = np.ones(xg.size)

    # covariance of the Gaussian analogue on the grid
    sigma = np.outer(c, c) * (raw - np.outer(means, means)) / h
    cov = CovarianceModel.from_matrix(sigma)

    scale = c / math.sqrt(h)
    family = scn.family

    def evaluate(batch):
        g, x = family.g_values(batch)
        return (kern((x[:, None] - xg[None, :]) / h) * g[:, None] - means) * scale

    if not isinstance(kern, Epanechnikov):
        column_sums = None  # sum_columns takes the dense path
    else:
        # every point of a panel lies in the same windows: window sums combine (A) the panel sums of g u^k
        panel_of = _panel_lookup(breaks)

        def column_sums(batch):
            g, x = family.g_values(batch)
            p = panel_of(x)
            u = (x - mid[p]) / h
            gu = g * u
            M = [np.bincount(p, gk, mid.size) for gk in (g, gu, gu * u)]
            out = 0.75 * sum(a @ m for a, m in zip(A, M))
            return (out - x.size * means) * scale

    cls = DiscretizedClass(evaluate=evaluate, size=xg.size, centered=True, column_sums=column_sums)
    return KernelDesign(
        scenario=scn, n=n, h=h, means=means, variances=variances, c=c, cls=cls, cov=cov, sampler=family.sample
    )


# ---------------------------------------------------------------------------
# series bases

# e(t) = exp(2 pi i t) at t = k/2^10, k = 0..1024 (x - floor(x) can round up to 1), from quarter-period angles
_E1 = np.exp(2j * math.pi * (np.arange(1025) % 256) / 1024) * np.array([1, 1j, -1, -1j])[np.arange(1025) // 256 % 4]
_E2 = np.exp(2j * math.pi * np.arange(1024) / 2**20)  # and at t = k/2^20, k < 2^10


def exp_2pi_i(x: np.ndarray) -> np.ndarray:
    """exp(2 pi i x) by table (Tang 1989), no libm call: e(a/2^10) e(b/2^20) e(theta); NaN where x is not finite."""
    with np.errstate(invalid="ignore"):  # inf - inf and the casts of NaN: their indices clip, theta stays NaN
        t = (x - np.floor(x)) * 2.0**20
        u = np.floor(t)
        t -= u  # exact: x mod 1 = (u + t)/2^20 with u = 2^10 a + b and t in [0, 1)
        u = u.astype(np.intp)
        z = _E1.take(u >> 10, mode="clip") * _E2.take(u & 1023, mode="clip")
    t *= 2 * math.pi / 2**20  # theta < 6e-6, so the cubic below is exact to 1e-22
    c = np.empty(z.shape, complex)
    c.real = 1.0 - 0.5 * t * t
    c.imag = t - t * t * t / 6.0
    return np.multiply(z, c, out=z)


def fourier_sums(g: np.ndarray, x: np.ndarray, K: int) -> np.ndarray:
    """g.T @ psi(x) for the Fourier basis without the (K, n) matrix: the sums of g z^f, z = e(x), f <= K/2."""
    gt, z = g.T, exp_2pi_i(x)
    zf = np.ones_like(z)
    zri = zf.view(float).reshape(-1, 2)  # the re, im columns of zf, updated in place with it
    sums = [gt @ zri]  # (levels, 2): re and im of sum_i g_i z_i^f
    for _ in range(K // 2):
        zf *= z
        sums.append(gt @ zri)
    S = np.stack(sums, 1)
    S[:, 1:] *= math.sqrt(2.0)
    return S.reshape(g.shape[1], -1)[:, [0, *range(2, K + 1)]]  # re 0, then re f, im f: psi rows 0, 2f - 1, 2f


def fourier_trig_basis(K: int):
    """1, sqrt2 cos(2 pi x), sqrt2 sin(2 pi x), sqrt2 cos(4 pi x), ... (orthonormal under U[0,1])."""
    if K < 1:
        raise ValueError("basis order must be at least 1")

    def psi(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((K, x.size))
        out[0] = 1.0
        # rows 2f - 1, 2f: cos, sin of 2 pi f x from the running power z^f of z = exp(2 pi i x), as in fourier_sums
        z = exp_2pi_i(x)
        zf = np.ones_like(z)
        for f in range(1, K // 2 + 1):
            zf *= z
            out[2 * f - 1] = zf.real
            if 2 * f < K:
                out[2 * f] = zf.imag
        out[1:] *= math.sqrt(2.0)
        return out.T

    return psi


def legendre_basis(K: int):
    """Shifted Legendre polynomials, orthonormal under U[0,1]."""
    if K < 1:
        raise ValueError("basis order must be at least 1")

    def psi(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = 2.0 * x - 1.0
        P = np.empty((K, x.size))
        P[0], P[1:2] = 1.0, z
        for k in range(1, K - 1):  # (k + 1) P_{k+1} = (2k + 1) z P_k - k P_{k-1}
            P[k + 1] = ((2 * k + 1) * z * P[k] - k * P[k - 1]) / (k + 1)
        return (P * np.sqrt(2.0 * np.arange(K) + 1.0)[:, None]).T

    return psi


def bspline_basis(K: int):
    """K B-spline basis functions on a clamped uniform knot vector over [0,1]."""
    if K < 1:
        raise ValueError("basis order must be at least 1")
    deg = min(3, K - 1)
    interior = np.linspace(0, 1, K - deg + 1)[1:-1]
    knots = np.concatenate([np.zeros(deg + 1), interior, np.ones(deg + 1)])

    def psi(x):
        from scipy.interpolate import BSpline

        x = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(x, 0.0, 1.0 - 1e-12)
        return BSpline.design_matrix(xc, knots, deg).toarray()

    return psi


BASES = {"fourier_trig": fourier_trig_basis, "legendre": legendre_basis, "bspline": bspline_basis}


# ---------------------------------------------------------------------------
# series scenario

@dataclass(frozen=True)
class SeriesScenario:
    """Projection-type empirical-process experiment description."""

    basis: str
    K_rule: callable
    x_grid: np.ndarray
    tau_grid: tuple | None = None  # quantile levels of the check-function model; None: the mean model, eta ~ N(0,1)
    x_law: ClassVar[Uniform01] = Uniform01()
    name: ClassVar[str] = "series"

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis: {self.basis}")
        if len(self.x_grid) == 0:
            raise ValueError("x_grid must be nonempty")


def series_mean_scenario(
    basis: str = "fourier_trig",
    k_power: float = 1.0 / 3.0,
    k_scale: float = 1.0,
    grid_points: int = 64,
    grid_lo: float = 0.0,
    grid_hi: float = 1.0,
) -> SeriesScenario:
    """Built-in homoskedastic mean-regression scenario: K_n = ceil(scale * n^{power})."""
    return SeriesScenario(
        basis=basis,
        K_rule=lambda n: max(1, math.ceil(k_scale * float(n) ** k_power)),
        x_grid=np.linspace(grid_lo, grid_hi, grid_points),
    )


def series_quantile_scenario(
    basis: str = "fourier_trig",
    k_power: float = 1.0 / 3.0,
    k_scale: float = 1.0,
    grid_points: int = 16,
    grid_lo: float = 0.0,
    grid_hi: float = 1.0,
    tau_grid: tuple = (0.25, 0.5, 0.75),
) -> SeriesScenario:
    """Built-in check-function scenario at the quantile levels tau_grid, K_n as in series_mean_scenario."""
    scn = series_mean_scenario(basis, k_power, k_scale, grid_points, grid_lo, grid_hi)
    return replace(scn, tau_grid=tuple(tau_grid))


# config scenario types: each factory's keywords and their defaults are the keys and defaults of its config block
SCENARIO_TYPES = {"kernel_density": kernel_density_scenario, "series_mean": series_mean_scenario,
                  "series_quantile": series_quantile_scenario}


@dataclass(frozen=True)
class SeriesDesign:
    scenario: SeriesScenario
    n: int
    K: int
    psi: callable
    alpha: np.ndarray  # (N_index, K) linear functionals
    Omega: np.ndarray  # (K, K) noise second-moment matrix
    cov: CovarianceModel
    cls: DiscretizedClass
    sampler: callable
    tau_of_col: np.ndarray | None = None  # quantile scenarios: tau index per column

    @property
    def index_grid(self) -> np.ndarray:
        return np.repeat(np.asarray(self.scenario.x_grid, dtype=float), self.cls.size // len(self.scenario.x_grid))

    @property
    def estimator_mean(self) -> np.ndarray:
        """The statistic alpha^T n^{-1} sum g(eta_i) psi(X_i) is centered."""
        return np.zeros(self.cls.size)

    @property
    def sigma_hat_sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov.sigma) / self.n)

    @property
    def predicted_rate(self) -> float:
        """n^{-1/6} xi_n^{1/3} log n."""
        return self.n ** (-1.0 / 6.0) * xi_n(self.scenario, self.K) ** (1.0 / 3.0) * math.log(self.n)


def design_series(scn: SeriesScenario, n: int) -> SeriesDesign:
    """Series design: alpha functionals, noise matrix and grid covariance (rank <= K per level)."""
    if n < 3:
        raise ValueError("sample size must be at least 3")
    try:
        K = int(scn.K_rule(n))
    except OverflowError:  # an order past the largest float
        K = math.inf
    if K > MAX_BASIS_ORDER:
        raise CovarianceError(f"basis order K = {K} exceeds {MAX_BASIS_ORDER}, more than the quadrature resolves")
    psi = BASES[scn.basis](K)
    tq, wq = gauss_legendre_rule(*scn.x_law.support)
    dens = scn.x_law.density(tq)
    Pq = psi(tq)  # (nodes, K)
    gram = (Pq * (wq * dens)[:, None]).T @ Pq  # E[psi psi^T]
    xg = np.asarray(scn.x_grid, dtype=float)
    Pg = psi(xg)  # (nx, K)

    # column (x_j, level l) sums g_l(eta_i) alpha_jl^T psi(X_i): one level with
    # g(eta) = eta in the mean model, the check-function scores
    # tau - 1(eta <= tau) of each level tau in the quantile model. The noise is
    # independent of X, so its matrix Omega is the Gram matrix (level variances in level_cov)
    if scn.tau_grid is None:
        level_scale, level_cov = np.ones(1), np.ones((1, 1))

        draw_eta = np.random.Generator.standard_normal

        def scores(eta):
            return eta[:, None]

    else:
        # built-in check-function design: eta ~ U(0,1), conditional density 1
        taus = np.asarray(scn.tau_grid, dtype=float)
        level_scale = 1.0 / np.sqrt(taus * (1.0 - taus))
        level_cov = np.minimum.outer(taus, taus) - np.outer(taus, taus)

        draw_eta = np.random.Generator.random

        def scores(eta):
            return taus[None, :] - (eta[:, None] <= taus[None, :])  # (n, n_tau)

    # alpha(x) = Omega^{-1} psi(x) / ||Omega^{1/2} Omega^{-1} psi(x)||; the norm is never 0, every basis spans 1
    PA = Pg @ np.linalg.inv(gram)
    base_alpha = PA / np.sqrt(np.einsum("jk,jk->j", PA, Pg))[:, None]  # (nx, K)
    col = np.tile(np.arange(level_scale.size), xg.size)  # level of each column
    alpha = np.repeat(base_alpha, level_scale.size, axis=0) * level_scale[col, None]
    sigma = (alpha @ gram @ alpha.T) * level_cov[np.ix_(col, col)]
    cov = CovarianceModel.from_matrix(sigma)

    basis_sums = partial(fourier_sums, K=K) if scn.basis == "fourier_trig" else lambda g, x: g.T @ psi(x)

    def parts(batch):
        eta, x = batch
        return scores(np.asarray(eta, dtype=float)), np.asarray(x, dtype=float)

    def evaluate(batch):
        g, x = parts(batch)
        v = psi(x) @ alpha.T
        for lev in range(g.shape[1]):  # columns lev, lev + levels, ... hold level lev; in place, no (n, N) temporaries
            v[:, lev :: g.shape[1]] *= g[:, lev, None]
        return v

    def column_sums(batch):
        return np.einsum("ck,ck->c", basis_sums(*parts(batch))[col], alpha)  # basis sums: (levels, K)

    def sampler(gen, m):
        x = scn.x_law.sample(gen, m)
        return (draw_eta(gen, m), x)

    cls = DiscretizedClass(evaluate=evaluate, size=alpha.shape[0], centered=True, column_sums=column_sums)
    return SeriesDesign(
        scenario=scn, n=n, K=K, psi=psi, alpha=alpha, Omega=gram, cov=cov, cls=cls,
        sampler=sampler, tau_of_col=None if scn.tau_grid is None else col,
    )


def design(scenario, n: int):
    """KernelDesign or SeriesDesign of a scenario at sample size n.

    Both expose ``scenario``, ``n``, ``cls`` (the centered, normalized class),
    ``cov`` (its exact Gaussian analogue), ``sampler(gen, m)`` (an i.i.d.
    batch for ``cls``), ``index_grid`` (the x of each of the ``cls.size``
    columns), ``estimator_mean`` and ``sigma_hat_sd`` (mean and standard
    deviation of the raw estimator per column) and ``predicted_rate`` (the
    theory decay shape of the coupling at n).
    """
    if isinstance(scenario, KernelScenario):
        return design_kernel(scenario, n)
    if isinstance(scenario, SeriesScenario):
        return design_series(scenario, n)
    raise TypeError("scenario must be a KernelScenario or SeriesScenario")


def xi_n(scn: SeriesScenario, K: int) -> float:
    """sup_x |psi^K(x)| v 1 over 2001 evenly spaced points of [0, 1]."""
    psi = BASES[scn.basis](K)
    x = np.linspace(0.0, 1.0, 2001)
    norms = np.linalg.norm(psi(x), axis=1)
    return max(float(norms.max()), 1.0)


# ---------------------------------------------------------------------------
# rate experiments

@dataclass(frozen=True)
class RateRow:
    n: int
    ks: float
    ks_conf: float
    predicted_rate: float


@dataclass(frozen=True)
class RateTable:
    rows: list
    slope_fit: float


def rate_experiment(scenario, n_list, R: int, rng: RngPolicy, threads: int = 1) -> RateTable:
    """Kolmogorov distance between the empirical and Gaussian sup laws along n.

    For each n the empirical supremum and its exact Gaussian analogue are
    both sampled R times (on disjoint salted streams) and compared by the
    two-sample Kolmogorov distance; the predicted-rate column carries the
    theory decay shape for the scenario type.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least 3 entries")
    if any(n < 3 for n in n_list):
        raise ValueError("sample sizes must be at least 3")
    designs = [design(scenario, n) for n in n_list]
    jobs = []
    for i, (n, d) in enumerate(zip(n_list, designs)):
        jobs.append(empirical_job(d.cls, d.sampler, n, R, rng.with_salt(rng.salt + 4 * i + 1),
                                  statistic_id=f"{scenario.name}_emp_n{n}"))
        jobs.append(gaussian_job(d.cov, R, rng.with_salt(rng.salt + 4 * i + 3), statistic_id=f"{scenario.name}_gauss_n{n}"))
    samples = sample_jobs(jobs, threads)  # every sample of the run in one schedule: at most one fork per worker
    rows = []
    for n, d, emp, gau in zip(n_list, designs, samples[0::2], samples[1::2]):
        ks, conf = ks_distance(emp, gau)
        rows.append(RateRow(n=n, ks=ks, ks_conf=conf, predicted_rate=d.predicted_rate))
    logn = np.log([r.n for r in rows])
    logks = np.log([max(r.ks, 1e-12) for r in rows])
    slope = float(np.polyfit(logn, logks, 1)[0])
    return RateTable(rows=rows, slope_fit=slope)
