"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 7 and 8 check the Gaussian approximation along n in the form the
paper promises: a non-asymptotic upper bound on the distance between the
empirical supremum's law and its Gaussian analogue, not a visible decay of
that distance at a fixed Monte Carlo budget.  At their stated parameters the
two-sample Kolmogorov distances sit at the Monte Carlo noise floor for every
n, and the theory shape attached to each row (``predicted_rate``) is flat or
rising on {500, 2000, 8000}, so no drop is demanded.  Instead each criterion
asserts (a) KS(n) <= the summed DKW radii of the two samples at every n,
(b) KS(8000) <= KS(500) plus both radii, and (c) a power control: at n = 500
the same comparison against a Gaussian analogue with a 10% larger standard
deviation must exceed the summed radii, so the criterion still fails when
the analogue is wrong.  See the README for the measured values.
"""

import math
import time

import numpy as np
import pytest

from supgauss.bands import coverage_experiment
from supgauss.bounds import crossover_sweep
from supgauss.cli import write_csv
from supgauss.funcclass import DiscretizedClass, covering_number, exhaustive_min_cover, product_class
from supgauss.scenarios import (
    design_kernel,
    design_series,
    kernel_density_scenario,
    rate_experiment,
    series_mean_scenario,
)
from supgauss.simulate import (
    CovarianceModel,
    RngPolicy,
    empirical_sup_sample,
    gaussian_sup_sample,
    ks_distance,
    levy_concentration,
)
from supgauss.smoothmax import (
    IndicatorSmoothing,
    epsilon_beta_delta,
    smooth_max,
    smooth_max_derivs,
    smoothed_indicator,
)

pytestmark = pytest.mark.acceptance

_artifacts: dict = {}


def report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}: {detail} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its time limit: {elapsed:.1f}s >= {limit}s"
    assert ok, f"criterion {num} failed: {detail}"


def _csv_bytes(header, rows) -> bytes:
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_csv(path, header, rows)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


def test_criterion_01_smooth_max_sandwich():
    started = time.time()
    rng = RngPolicy(1001)
    gen = rng.stream_of(0)
    total = 0
    violations = 0
    batches = 100
    per = 1000
    for _ in range(batches):
        p = int(gen.integers(1, 1001))
        beta = float(gen.uniform(0.01, 100.0))
        x = gen.standard_normal((per, p)) * float(gen.uniform(0.3, 4.0))
        m = x.max(axis=1)
        fb = smooth_max(x, beta)
        upper = m + math.log(p) / beta
        violations += int(np.sum((fb < m - 1e-12) | (fb > upper + 1e-9)))
        total += per
    # tightness in the constant-vector case, both ends
    const = np.zeros(50)
    fb_const = 0.0 + math.log(50) / 2.0  # exact upper bound at beta = 2
    tight = abs(smooth_max(const, 2.0) - fb_const) <= 1e-12
    elapsed = time.time() - started
    _artifacts["c1"] = violations
    report(
        1,
        "smooth-max sandwich",
        violations == 0 and tight and total == 100_000,
        f"{total} vectors, {violations} violations",
        elapsed,
        5.0,
    )


def test_criterion_02_derivative_suite():
    started = time.time()
    rng = RngPolicy(1002)
    gen = rng.stream_of(0)
    bad_simplex = bad_w = bad_q = 0
    draws = 10_000
    for _ in range(draws):
        p = int(gen.integers(1, 65))
        beta = float(gen.uniform(0.05, 30.0))
        d = smooth_max_derivs(gen.standard_normal(p) * 2.0, beta)
        if abs(d.pi.sum() - 1.0) > 1e-12 or np.any(d.pi < 0):
            bad_simplex += 1
        if np.abs(d.w).sum() > 2.0 + 1e-12:
            bad_w += 1
        if d.q_sum > 6.0 + 1e-12:
            bad_q += 1
    # finite-difference agreement for p <= 6
    fd_gen = rng.stream_of(1)
    worst_pi = worst_w = 0.0
    for _ in range(40):
        p = int(fd_gen.integers(2, 7))
        beta = float(fd_gen.uniform(0.3, 3.0))
        x = fd_gen.standard_normal(p)
        d = smooth_max_derivs(x, beta)
        h = 1e-5
        fd_pi = np.empty(p)
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd_pi[j] = (smooth_max(x + e, beta) - smooth_max(x - e, beta)) / (2 * h)
        worst_pi = max(worst_pi, np.abs(fd_pi - d.pi).max() / np.abs(d.pi).max())
        h2 = 1e-4
        fd_w = np.empty((p, p))
        for j in range(p):
            for k in range(p):
                ej = np.zeros(p); ej[j] = h2
                ek = np.zeros(p); ek[k] = h2
                fd_w[j, k] = (
                    smooth_max(x + ej + ek, beta) - smooth_max(x + ej - ek, beta)
                    - smooth_max(x - ej + ek, beta) + smooth_max(x - ej - ek, beta)
                ) / (4 * h2 * h2)
        worst_w = max(worst_w, np.abs(fd_w - beta * d.w).max() / np.abs(beta * d.w).max())
    elapsed = time.time() - started
    ok = bad_simplex == bad_w == bad_q == 0 and worst_pi < 1e-6 and worst_w < 1e-4
    _artifacts["c2"] = (bad_simplex, bad_w, bad_q, worst_pi, worst_w)
    report(
        2,
        "derivative suite",
        ok,
        f"{draws} draws clean, fd errors pi {worst_pi:.1e} / hessian {worst_w:.1e}",
        elapsed,
        10.0,
    )


def test_criterion_03_indicator_sandwich():
    started = time.time()
    sm = IndicatorSmoothing(intervals=((0.0, 1.0),), delta=0.2, beta=10.0)
    eps = epsilon_beta_delta(10.0, 0.2)
    t = np.linspace(-2.0, 3.0, 10_000)
    g = smoothed_indicator(sm, t)
    in_a = sm.contains(t)
    in_a3 = sm.contains(t, enlargement=0.6)
    lower_viol = int(np.sum(g < (1 - eps) * in_a - 1e-12))
    upper_viol = int(np.sum(g > eps + (1 - eps) * in_a3 + 1e-12))
    elapsed = time.time() - started
    _artifacts["c3"] = g
    report(
        3,
        "smoothed-indicator sandwich",
        lower_viol == 0 and upper_viol == 0 and sm.epsilon == eps,
        f"10^4 grid points, {lower_viol + upper_viol} violations, eps={eps:.5f}",
        elapsed,
        5.0,
    )


def test_criterion_04_covering_oracle():
    started = time.time()
    gen = np.random.default_rng(1004)
    greedy_ok = True
    product_ok = True
    trials = 0
    for _ in range(100):
        n_atoms = int(gen.integers(1, 6))
        N = int(gen.integers(2, 13))
        cls = DiscretizedClass.from_matrix(gen.standard_normal((n_atoms, N)))
        q = cls.atom_measure(n_atoms)
        for eps in (0.125, 0.25, 0.5, 0.75, 1.0):
            g = covering_number(cls, q, eps)
            lo = exhaustive_min_cover(cls, q, eps)
            hi = exhaustive_min_cover(cls, q, eps / 2)
            greedy_ok = greedy_ok and (lo <= g <= hi)
        # product-class submultiplicativity on a fresh small pair
        left = DiscretizedClass.from_matrix(gen.standard_normal((n_atoms, int(gen.integers(2, 11)))))
        right = DiscretizedClass.from_matrix(gen.standard_normal((n_atoms, int(gen.integers(2, 11)))))
        prod = product_class(left, right)
        for eps in (0.2, 0.45, 0.7):
            lhs = covering_number(prod, q, math.sqrt(2.0) * eps)
            rhs = covering_number(left, q, eps) * covering_number(right, q, eps)
            product_ok = product_ok and (lhs <= rhs)
        trials += 1
    elapsed = time.time() - started
    _artifacts["c4"] = (greedy_ok, product_ok)
    report(
        4,
        "covering oracle",
        greedy_ok and product_ok and trials == 100,
        f"100 random classes: greedy within oracle bracket {greedy_ok}, product submultiplicative {product_ok}",
        elapsed,
        60.0,
    )


def test_criterion_05_gaussian_sampler_oracle():
    started = time.time()
    rng = RngPolicy(1005)
    ident = gaussian_sup_sample(CovarianceModel.from_matrix(np.eye(2)), 20_000, rng.with_salt(1))
    target = 1.0 / math.sqrt(math.pi)
    se = ident.values.std(ddof=1) / math.sqrt(ident.R)
    mean_ok = abs(ident.values.mean() - target) <= 3.0 * se
    degenerate = gaussian_sup_sample(CovarianceModel.from_matrix(np.ones((2, 2))), 10_000, rng.with_salt(2))
    onedim = gaussian_sup_sample(CovarianceModel.from_matrix(np.eye(1)), 10_000, rng.with_salt(3))
    ks, _ = ks_distance(degenerate, onedim)
    elapsed = time.time() - started
    _artifacts["c5"] = (ident.values, degenerate.values, onedim.values)
    report(
        5,
        "gaussian-sup sampler oracle",
        mean_ok and ks <= 0.02,
        f"E[max] err {abs(ident.values.mean() - target):.4f} (3se={3 * se:.4f}), degenerate KS {ks:.4f}",
        elapsed,
        10.0,
    )


def test_criterion_06_coupling_crossover():
    started = time.time()
    n_list = [2**e for e in range(8, 17)]
    rows, crossover_n = crossover_sweep(n_list, delta=50.0)
    cor = [r.cor_bound for r in rows]
    yur = [r.yurinskii for r in rows]
    decreasing = all(b < a for a, b in zip(cor, cor[1:]))
    increasing = all(b > a for a, b in zip(yur, yur[1:]))
    elapsed = time.time() - started
    _artifacts["c6"] = rows
    report(
        6,
        "coupling crossover",
        decreasing and increasing and crossover_n is not None,
        f"maxima bound decreasing {decreasing}, whole-vector increasing {increasing}, crossover at n={crossover_n}",
        elapsed,
        5.0,
    )


def _kernel_rate_table(threads: int):
    scn = kernel_density_scenario()  # beta(2,2), epanechnikov, 64 points, h = n^{-1/5}, studentized
    return rate_experiment(scn, [500, 2000, 8000], R=5000, rng=RngPolicy(1007), threads=threads)


# rate_experiment uses salts 1 .. 4 * len(n_list) of the criterion's seed;
# the power control draws on salts well clear of them.
_CONTROL_SALT = 64


def _power_control_ks(design, sampler, R: int, seed: int, threads: int) -> tuple[float, float]:
    """KS between the empirical sup and a Gaussian analogue whose sd is inflated by 10%."""
    rng = RngPolicy(seed)
    emp = empirical_sup_sample(design.cls, sampler, design.n, R, rng.with_salt(_CONTROL_SALT), threads=threads)
    gau = gaussian_sup_sample(design.cov.scaled(1.1), R, rng.with_salt(_CONTROL_SALT + 2), threads=threads)
    return ks_distance(emp, gau)


def _rate_clauses(rows, control_ks: float, control_conf: float) -> tuple[bool, str]:
    """The coupling-along-n clauses shared by criteria 7 and 8.

    (a) every KS(n) lies within the summed DKW radii of the two samples;
    (b) KS(n_max) does not exceed KS(n_min) by more than their radii;
    (c) the same test, applied to a 10%-inflated Gaussian analogue, rejects it.
    """
    first, last = rows[0], rows[-1]
    per_n_ok = all(r.ks <= 2 * r.ks_conf for r in rows)
    no_growth_ok = last.ks <= first.ks + first.ks_conf + last.ks_conf
    control_ok = control_ks > 2 * control_conf
    table = ", ".join(
        f"n={r.n}: KS={r.ks:.4f} (conf {r.ks_conf:.4f}, rate {r.predicted_rate:.3f})" for r in rows
    )
    detail = (
        f"{table}; per-n KS <= 2 conf {per_n_ok}, no growth {no_growth_ok}, "
        f"control KS(sd x1.1, n={first.n})={control_ks:.4f} > {2 * control_conf:.4f} {control_ok}"
    )
    return per_n_ok and no_growth_ok and control_ok, detail


def test_criterion_07_kernel_rate_experiment():
    started = time.time()
    table = _kernel_rate_table(threads=2)
    rows = table.rows
    _artifacts["c7"] = table
    scn = kernel_density_scenario()
    control_ks, control_conf = _power_control_ks(
        design_kernel(scn, rows[0].n), scn.family.sample, R=5000, seed=1007, threads=2
    )
    clauses_ok, detail = _rate_clauses(rows, control_ks, control_conf)
    small_ok = rows[-1].ks <= 0.1
    elapsed = time.time() - started
    report(
        7,
        "kernel rate experiment",
        clauses_ok and small_ok,
        f"{detail}, KS(8000) <= 0.1 {small_ok}",
        elapsed,
        600.0,
    )


def _series_rate_table(threads: int):
    scn = series_mean_scenario()  # fourier, K = ceil(n^{1/3}), eta ~ N(0,1)
    return rate_experiment(scn, [500, 2000, 8000], R=20_000, rng=RngPolicy(1008), threads=threads)


def test_criterion_08_series_rate_experiment():
    started = time.time()
    table = _series_rate_table(threads=2)
    _artifacts["c8"] = table
    rows = table.rows
    scn = series_mean_scenario()
    designs = {n: design_series(scn, n) for n in (500, 2000, 8000)}
    # exact rank <= K covariance for every n in the sweep
    rank_ok = True
    for d in designs.values():
        sv = np.linalg.svd(d.cov.sigma, compute_uv=False)
        rank_ok = rank_ok and (sv[d.K :].max() <= 1e-8 * sv[0])
    d500 = designs[rows[0].n]
    control_ks, control_conf = _power_control_ks(d500, d500.sampler, R=20_000, seed=1008, threads=2)
    clauses_ok, detail = _rate_clauses(rows, control_ks, control_conf)
    elapsed = time.time() - started
    report(
        8,
        "series rate experiment",
        clauses_ok and rank_ok,
        f"{detail}, rank<=K {rank_ok}",
        elapsed,
        600.0,
    )


def _coverage_report(threads: int):
    scn = kernel_density_scenario(bandwidth_power=1.0 / 3.0)  # undersmoothed h = n^{-1/3}
    return coverage_experiment(
        scn, alpha=0.05, n=2000, R_outer=500, R_inner=4000, rng=RngPolicy(1009), threads=threads
    )


def test_criterion_09_band_coverage():
    started = time.time()
    result, band = _coverage_report(threads=2)
    _artifacts["c9"] = (result, band)
    elapsed = time.time() - started
    report(
        9,
        "band coverage",
        0.92 <= result.empirical <= 0.975,
        f"empirical coverage {result.empirical:.4f} (se {result.binomial_se:.4f}, c={result.c_alpha:.3f})",
        elapsed,
        600.0,
    )


def _anticoncentration_rows(threads: int):
    scn = kernel_density_scenario()
    design = design_kernel(scn, 2000)
    gauss = gaussian_sup_sample(design.cov, 100_000, RngPolicy(1010), threads=threads)
    mean = float(gauss.values.mean())
    rows = []
    for eps in (0.01, 0.02, 0.05, 0.1, 0.2):
        lev = levy_concentration(gauss, eps)
        bound = 3.0 * eps * (mean + math.sqrt(max(1.0, math.log(1.0 / eps))))
        rows.append((eps, lev, bound))
    return rows


def test_criterion_10_anticoncentration():
    started = time.time()
    rows = _anticoncentration_rows(threads=2)
    _artifacts["c10"] = rows
    ok = all(lev <= bound for _, lev, bound in rows)
    elapsed = time.time() - started
    worst = max(lev / bound for _, lev, bound in rows)
    report(
        10,
        "anti-concentration",
        ok,
        f"max L(eps)/bound = {worst:.3f} over eps grid",
        elapsed,
        60.0,
    )


def test_criterion_11_determinism_across_thread_caps():
    started = time.time()
    checks = {}

    # cheap randomized artifacts, re-run with a different thread cap
    rng = RngPolicy(1005)
    for threads in (1, 3):
        ident = gaussian_sup_sample(CovarianceModel.from_matrix(np.eye(2)), 20_000, rng.with_salt(1), threads=threads)
        checks.setdefault("c5", []).append(_csv_bytes(["v"], [(v,) for v in ident.values]))

    table7 = _artifacts.get("c7") or _kernel_rate_table(threads=2)
    retry7 = _kernel_rate_table(threads=1)
    checks["c7"] = [
        _csv_bytes(["n", "ks"], [(r.n, r.ks) for r in table7.rows]),
        _csv_bytes(["n", "ks"], [(r.n, r.ks) for r in retry7.rows]),
    ]

    table8 = _artifacts.get("c8") or _series_rate_table(threads=2)
    retry8 = _series_rate_table(threads=1)
    checks["c8"] = [
        _csv_bytes(["n", "ks"], [(r.n, r.ks) for r in table8.rows]),
        _csv_bytes(["n", "ks"], [(r.n, r.ks) for r in retry8.rows]),
    ]

    result9, _ = _artifacts.get("c9") or _coverage_report(threads=2)
    retry9, _ = _coverage_report(threads=1)
    checks["c9"] = [
        _csv_bytes(["cov", "c"], [(result9.empirical, result9.c_alpha)]),
        _csv_bytes(["cov", "c"], [(retry9.empirical, retry9.c_alpha)]),
    ]

    rows10 = _artifacts.get("c10") or _anticoncentration_rows(threads=2)
    retry10 = _anticoncentration_rows(threads=1)
    checks["c10"] = [
        _csv_bytes(["eps", "lev", "bound"], rows10),
        _csv_bytes(["eps", "lev", "bound"], retry10),
    ]

    mismatches = [name for name, blobs in checks.items() if blobs[0] != blobs[1]]
    elapsed = time.time() - started
    report(
        11,
        "determinism across thread caps",
        not mismatches,
        f"byte-identical artifacts for {sorted(checks)}; mismatches: {mismatches or 'none'}",
        elapsed,
        1200.0,
    )
