"""Correctness checks against computations the benchmark makes itself.

No check compares with a stored copy of earlier output. The references are
written here from the scenarios' definitions: Beta(2,2) data, the Epanechnikov
kernel, a 64-point grid, the Fourier basis orthonormal under U[0,1] and N(0,1)
noise. Tolerances are fixed beforehand:

- RTOL_QUAD: two quadratures of one polynomial integrand (the library's
  256-node Gauss-Legendre rule and scipy's adaptive `quad`) agree to about
  1e-14 relative; 1e-9 leaves room for another exact rule.
- RTOL_SUM: one float64 sum in another order or by another formula. Closed-form
  column sums are expected to differ from the direct sum by about 1e-11 of the
  uncentered magnitude; 1e-9 admits that.
- Z_MC: Monte Carlo windows are this many standard errors wide, so a correct
  program fails one of them with probability below 1e-4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, special

from workloads import ALPHA, BAND_N

RTOL_QUAD = 1e-9
RTOL_SUM = 1e-9
Z_MC = 4.0
BATCHES = 3  # column-sum batches per n
QUANTILE_DRAWS = 200_000  # the benchmark's own Gaussian sup sample for the band check
EMP_R = 4  # replications of one fixed batch in the empirical sup check
LAW_DRAWS = 100_000  # draws from the data sampler for the law check
P_LAW = 1e-4  # false-failure probability of the law check (DKW)

GRID_POINTS = 64
KERNEL_GRID = (0.1, 0.9)
SERIES_GRID = (0.0, 1.0)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def beta22(t):
    return 6.0 * t * (1.0 - t)


def epanechnikov(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _quad(f, lo, hi):
    if hi <= lo:
        return 0.0
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


class KernelReference:
    """Moments of the studentized Epanechnikov density process by scipy quad."""

    def __init__(self, n: int, bandwidth_power: float):
        self.n = n
        self.h = float(n) ** (-bandwidth_power)
        self.x = np.linspace(*KERNEL_GRID, GRID_POINTS)
        self.means = np.array([self._integral(xj, xj) for xj in self.x])
        second = np.array([self._integral(xj, xj, squared=True) for xj in self.x])
        self.variances = (second - self.means**2) / self.h
        self.scale = 1.0 / np.sqrt(self.variances * self.h)  # maps a centered kernel sum to the statistic

    def _window(self, a, b):
        return max(max(a, b) - self.h, 0.0), min(min(a, b) + self.h, 1.0)

    def _integral(self, a, b, squared=False):
        h = self.h
        lo, hi = self._window(a, b)
        if squared:
            return _quad(lambda t: float(epanechnikov((t - a) / h) * epanechnikov((t - b) / h)) * beta22(t), lo, hi)
        return _quad(lambda t: float(epanechnikov((t - a) / h)) * beta22(t), lo, hi)

    def covariance(self) -> np.ndarray:
        """Covariance of the studentized process on the grid."""
        m = self.x.size
        raw = np.zeros((m, m))
        for j in range(m):
            for k in range(j, m):
                raw[j, k] = raw[k, j] = self._integral(self.x[j], self.x[k], squared=True)
        c = 1.0 / np.sqrt(self.variances)
        return np.outer(c, c) * (raw - np.outer(self.means, self.means)) / self.h

    def direct_sums(self, x):
        """Direct O(n N) centered, scaled kernel sums and the uncentered magnitude per column."""
        kv = epanechnikov((x[:, None] - self.x[None, :]) / self.h)
        raw = kv.sum(axis=0)
        return (raw - x.size * self.means) * self.scale, (raw + x.size * self.means) * self.scale


def fourier(x, K):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, K))
    out[:, 0] = 1.0
    for c in range(1, K):
        arg = 2.0 * math.pi * ((c + 1) // 2) * x
        out[:, c] = math.sqrt(2.0) * (np.cos(arg) if c % 2 else np.sin(arg))
    return out


def series_order(n: int) -> int:
    return max(1, math.ceil(float(n) ** (1.0 / 3.0)))


def series_xi(K: int) -> float:
    """sup_x |psi(x)| v 1 over a dense grid of [0, 1]."""
    return max(float(np.linalg.norm(fourier(np.linspace(0.0, 1.0, 2001), K), axis=1).max()), 1.0)


def _rel_err(got, want, scale):
    return float(np.max(np.abs(np.asarray(got, dtype=float) - want) / np.maximum(scale, 1e-300)))


# ---------------------------------------------------------------------------
# checks on the library's designs

def kernel_design(design, ref: KernelReference) -> Check:
    got_m = np.asarray(design.means, dtype=float).reshape(-1)
    got_v = np.asarray(design.variances, dtype=float).reshape(-1)
    err_h = abs(design.h - ref.h) / ref.h
    err_m = _rel_err(got_m, ref.means, np.abs(ref.means))
    err_v = _rel_err(got_v, ref.variances, np.abs(ref.variances))
    ok = err_h <= RTOL_QUAD and err_m <= RTOL_QUAD and err_v <= RTOL_QUAD
    return Check(f"kernel_moments.n{ref.n}", ok, f"rel err h {err_h:.1e}, means {err_m:.1e}, variances {err_v:.1e}")


def colsums(name, cls, batches, direct) -> Check:
    """column_sums (when the class has it) and evaluate().sum(0) against the direct sums."""
    worst = 0.0
    fast = getattr(cls, "column_sums", None)
    for batch, (want, magnitude) in zip(batches, direct):
        worst = max(worst, _rel_err(cls.evaluate(batch).sum(axis=0), want, magnitude))
        if fast is not None:
            worst = max(worst, _rel_err(fast(batch), want, magnitude))
    return Check(name, worst <= RTOL_SUM, f"max err / magnitude {worst:.1e} over {len(batches)} batches")


def kernel_batches(ref: KernelReference, gen):
    """Beta(2,2) batches and their direct sums (centered, magnitude)."""
    batches = [gen.beta(2.0, 2.0, size=ref.n) for _ in range(BATCHES)]
    return batches, [ref.direct_sums(x) for x in batches]


def series_batches(n: int, gen):
    """(eta, x) batches, x ~ U[0,1] and eta ~ N(0,1), and their direct sums (centered, magnitude)."""
    K = series_order(n)
    xg = np.linspace(*SERIES_GRID, GRID_POINTS)
    pg = fourier(xg, K)
    alpha = pg / np.linalg.norm(pg, axis=1)[:, None]
    batches, direct = [], []
    for _ in range(BATCHES):
        x = gen.random(n)
        eta = gen.standard_normal(n)
        proj = fourier(x, K) @ alpha.T  # (n, N)
        direct.append(((eta[:, None] * proj).sum(axis=0), (np.abs(eta)[:, None] * np.abs(proj)).sum(axis=0)))
        batches.append((eta, x))
    return batches, direct


def empirical_sup(sg, name, cls, n: int, batch, direct) -> Check:
    """empirical_sup_sample on a sampler that returns one fixed batch, at threads 1
    and 2: every replication must equal max_j (direct centered sum_j) / sqrt(n)."""
    want, magnitude = direct
    expected = float(np.max(want)) / math.sqrt(n)
    tol = RTOL_SUM * float(np.max(magnitude)) / math.sqrt(n)
    worst = 0.0
    for threads in (1, 2):
        sample = sg.empirical_sup_sample(cls, lambda gen, m: batch, n, EMP_R, sg.RngPolicy(1), threads=threads)
        values = np.asarray(sample.values, dtype=float)
        if values.shape != (EMP_R,):
            return Check(name, False, f"{values.shape[0]} values for {EMP_R} replications at threads {threads}")
        worst = max(worst, float(np.max(np.abs(values - expected))))
    return Check(
        name, worst <= tol,
        f"{EMP_R} replications of one batch at threads 1, 2: max |value - {expected:.4f}| {worst:.1e} (tol {tol:.1e})",
    )


def _ks_one_sample(sample, cdf) -> float:
    x = np.sort(np.asarray(sample, dtype=float))
    f = cdf(x)
    steps = np.arange(1, x.size + 1) / x.size
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / x.size))))


def sampler_law(kind: str, sampler, gen) -> Check:
    """The data sampler against the law the scenario names: one-sample KS within the DKW radius."""
    radius = math.sqrt(math.log(2.0 / P_LAW) / (2.0 * LAW_DRAWS))
    batch = sampler(gen, LAW_DRAWS)
    if kind == "kernel":
        ks = {"x ~ Beta(2,2)": _ks_one_sample(batch, lambda t: t * t * (3.0 - 2.0 * t))}
    else:
        eta, x = batch
        ks = {"x ~ U[0,1]": _ks_one_sample(x, lambda t: t), "eta ~ N(0,1)": _ks_one_sample(eta, special.ndtr)}
    detail = ", ".join(f"KS({law}) {d:.4f}" for law, d in ks.items())
    return Check(f"{kind}_sampler_law", max(ks.values()) <= radius, f"{detail} <= {radius:.4f} over {LAW_DRAWS} draws")


def series_covariance(design, n: int) -> Check:
    """Closed form: psi(x_j).psi(x_k) / (|psi(x_j)| |psi(x_k)|), rank <= K."""
    K = series_order(n)
    pg = fourier(np.linspace(*SERIES_GRID, GRID_POINTS), K)
    unit = pg / np.linalg.norm(pg, axis=1)[:, None]
    want = unit @ unit.T
    sigma = np.asarray(design.cov.sigma, dtype=float)
    err = float(np.max(np.abs(sigma - want)))
    eig = np.linalg.eigvalsh(sigma)
    rank = int(np.sum(eig > 1e-9 * eig.max()))
    ok = design.K == K and err <= RTOL_QUAD and rank <= K
    return Check(f"series_sigma.n{n}", ok, f"K {design.K} (want {K}), max abs err {err:.1e}, rank {rank}")


# ---------------------------------------------------------------------------
# checks on CLI outputs

def rate_outputs(outdir: Path, params: dict, kind: str, refs: dict) -> list[Check]:
    """KS(n) <= 2 ks_conf(n) at every n, plus the table's shape and closed-form columns."""
    R = params["replications"]
    lines = (outdir / "rate.csv").read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]
    conf = math.sqrt(math.log(2 / 0.05) / (2 * R))
    checks = []
    ns = [int(r["n"]) for r in rows]
    checks.append(Check("rate_table_n", ns == params["n_list"], f"n column {ns}"))
    for r in rows:
        n = int(r["n"])
        if kind == "kernel":
            rate = (n * refs[n].h) ** (-1.0 / 6.0) * math.log(n)
        else:
            rate = n ** (-1.0 / 6.0) * series_xi(series_order(n)) ** (1.0 / 3.0) * math.log(n)
        lattice = abs(r["ks"] * R - round(r["ks"] * R))
        ok = (
            r["ks"] <= 2 * r["ks_conf"]
            and abs(r["ks_conf"] - conf) <= 1e-12 * conf
            and abs(r["predicted_rate"] - rate) <= RTOL_QUAD * rate
            and lattice <= 1e-9
        )
        checks.append(
            Check(
                f"rate_ks.n{n}",
                ok,
                f"KS {r['ks']:.4f} <= 2 conf {2 * r['ks_conf']:.4f}; conf, predicted rate and KS lattice as computed here",
            )
        )
    return checks


def band_outputs(outdir: Path, params: dict, ref: KernelReference, gen) -> list[Check]:
    report = json.loads((outdir / "coverage.json").read_text(encoding="utf-8"))
    r_outer, r_inner = params["R_outer"], params["R_inner"]
    p = 1.0 - ALPHA
    # Coverage: binomial window around the nominal level, widened by the inner
    # sample's own error in the level its quantile reaches.
    half = Z_MC * math.sqrt(p * ALPHA / r_outer) + Z_MC * math.sqrt(p * ALPHA / r_inner)
    cov_ok = (
        abs(report["empirical"] - p) <= half
        and report["replications"] == r_outer
        and report["inner_replications"] == r_inner
    )
    checks = [Check("band_coverage", cov_ok, f"empirical {report['empirical']:.4f} within {p} +/- {half:.4f}")]

    # Critical value: the level c_alpha reaches under the benchmark's own sample
    # of sup |G|, G ~ N(0, Sigma) with Sigma by quad and an eigen factor.
    vals, vecs = np.linalg.eigh(ref.covariance())
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    sups = np.concatenate(
        [np.abs(gen.standard_normal((50_000, factor.shape[0])) @ factor.T).max(axis=1) for _ in range(QUANTILE_DRAWS // 50_000)]
    )
    level = float(np.mean(sups <= report["c_alpha"]))
    tol = Z_MC * math.sqrt(p * ALPHA * (1.0 / r_inner + 1.0 / sups.size)) + 1.0 / r_inner
    checks.append(
        Check("band_critical_value", abs(level - p) <= tol, f"c_alpha {report['c_alpha']:.4f} reaches level {level:.4f}, want {p} +/- {tol:.4f}")
    )

    lines = (outdir / "band.csv").read_text(encoding="utf-8").splitlines()
    band = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    sd = np.sqrt(ref.variances / (BAND_N * ref.h))
    err_w = _rel_err(band[:, 2] - band[:, 1], 2.0 * report["c_alpha"] * sd, 2.0 * report["c_alpha"] * sd)
    ok = band.shape == (GRID_POINTS, 3) and np.allclose(band[:, 0], ref.x, rtol=0, atol=1e-15) and err_w <= RTOL_QUAD
    checks.append(Check("band_widths", ok, f"width = 2 c_alpha sd(x): rel err {err_w:.1e}"))
    return checks


def identical(runs: list[dict], name: str) -> Check:
    """CSV and summary bytes do not depend on the thread cap."""
    first = runs[0]["digests"]
    same = all(r["digests"] == first for r in runs)
    return Check(name, same and bool(first), f"{len(runs)} runs, files {sorted(first)}")
