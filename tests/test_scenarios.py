"""Kernel and series scenario builders and rate experiments."""

import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betaln

from supgauss.bands import BandResult
from supgauss.bounds import vc_class_budget
from supgauss.funcclass import DiscretizedClass
from supgauss.smoothmax import IndicatorSmoothing
from supgauss.simulate import RngPolicy, empirical_sup_sample, gaussian_sup_sample, ks_distance
from supgauss.scenarios import (
    BASES,
    DATA_LAWS,
    BetaLaw,
    DensityFamily,
    Epanechnikov,
    GaussianKernel,
    KernelDesign,
    KernelScenario,
    QUAD_NODES,
    RegressionFamily,
    SeriesScenario,
    TruncNorm,
    Uniform01,
    _leggauss,
    _panel_lookup,
    _sorted_distinct,
    design,
    design_kernel,
    design_series,
    exp_2pi_i,
    kernel_density_scenario,
    rate_experiment,
    series_mean_scenario,
    series_quantile_scenario,
    xi_n,
)

EPA_L2 = 0.6  # int k^2 for the parabolic kernel 0.75 (1 - u^2)


def test_stored_quadrature_rule_is_leggauss():
    """The stored rule equals numpy's leggauss rule (bit for bit on numpy 2.4.6; within 1e-15 on other builds)."""
    x, w = _leggauss()
    want_x, want_w = np.polynomial.legendre.leggauss(QUAD_NODES)
    np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-15)


class TestKernels:
    def test_unit_integral(self):
        u = np.linspace(-8, 8, 400_001)
        for kern in (Epanechnikov(), GaussianKernel()):
            assert np.trapezoid(kern(u), u) == pytest.approx(1.0, abs=1e-6)

    def test_sup_values(self):
        assert Epanechnikov()(0.0) == pytest.approx(0.75)
        assert GaussianKernel()(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


class TestKernelDesign:
    def test_uniform_law_interior_closed_form(self):
        # X ~ U(0,1), interior grid, h = 0.05: E[k_h] = h exactly and
        # Var(h^{-1/2} k_h) = int k^2 - h exactly; quadrature must hit both
        scn = kernel_density_scenario(
            data_law="uniform", grid_points=5, grid_lo=0.3, grid_hi=0.7,
            bandwidth_power=0.0, bandwidth_scale=0.05, normalization="unit",
        )
        d = design_kernel(scn, 1000)
        np.testing.assert_allclose(d.means.ravel(), 0.05, rtol=1e-12)
        np.testing.assert_allclose(d.variances.ravel(), EPA_L2 - 0.05, rtol=1e-10)

    def test_variance_against_independent_quadrature(self):
        # direct trapezoid quadrature of the same integrals, separately coded
        scn = kernel_density_scenario(
            data_law="beta", grid_points=3, grid_lo=0.25, grid_hi=0.75,
            bandwidth_power=0.0, bandwidth_scale=0.05, normalization="unit",
        )
        d = design_kernel(scn, 500)
        h = d.h
        kern = scn.kernel
        law = scn.family.x_law
        t = np.linspace(0, 1, 200_001)
        p = law.density(t)
        for j, x in enumerate(np.asarray(scn.x_grid)):
            kv = kern((t - x) / h)
            m = np.trapezoid(kv * p, t)
            s2 = np.trapezoid(kv * kv * p, t)
            var = (s2 - m * m) / h
            assert d.variances[j] == pytest.approx(var, abs=1e-4)
            # small-h limit p(x) int k^2; the leading error is the
            # mean-centering term h p(x)^2 plus an O(h^2) smoothing bias
            px = law.density(np.array([x]))[0]
            assert abs(d.variances[j] - px * EPA_L2) <= 1.05 * h * px**2 + 0.1 * h

    def test_full_covariance_against_adaptive_quadrature(self):
        # every entry, off-diagonal cross moments included, of an Epanechnikov
        # x Beta(2,2) design: overlapping neighbours and disjoint far pairs
        scn = kernel_density_scenario(
            grid_points=6, grid_lo=0.2, grid_hi=0.8, bandwidth_power=0.0, bandwidth_scale=0.15, normalization="unit",
        )
        d = design_kernel(scn, 500)
        h, x, kern, dens = d.h, np.asarray(scn.x_grid), scn.kernel, scn.family.x_law.density

        def integral(a, b, power):
            lo, hi = max(a, b) - h, min(a, b) + h
            if hi <= lo:
                return 0.0
            f = lambda t: float(kern((t - a) / h) * kern((t - b) / h) ** power * dens(np.array([t]))[0])
            return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        means = np.array([integral(a, a, 0) for a in x])
        raw = np.array([[integral(a, b, 1) for b in x] for a in x])
        sigma = (raw - np.outer(means, means)) / h
        assert np.any(raw[0] == 0.0) and np.all(np.diag(raw, 1) > 0)
        np.testing.assert_allclose(d.means.ravel(), means, rtol=1e-12)
        np.testing.assert_allclose(d.cov.sigma, sigma, rtol=1e-12)

    def test_singular_density_against_adaptive_quadrature(self):
        # Beta(0.7, 1.5) density is unbounded at 0, inside the window of the
        # first grid points; panels between window edges keep the error small
        scn = kernel_density_scenario(law_params={"a": 0.7, "b": 1.5})
        d = design_kernel(scn, 500)
        h, x, kern, dens = d.h, np.asarray(scn.x_grid), scn.kernel, scn.family.x_law.density

        def integral(a, power):
            f = lambda t: float(kern((t - a) / h) ** power * dens(np.array([t]))[0])
            return integrate.quad(f, max(a - h, 0.0), min(a + h, 1.0), epsabs=0.0, epsrel=1e-12, limit=400)[0]

        means = np.array([integral(a, 1) for a in x])
        variances = (np.array([integral(a, 2) for a in x]) - means**2) / h
        np.testing.assert_allclose(d.means.ravel(), means, rtol=0, atol=1e-5)
        np.testing.assert_allclose(d.variances.ravel(), variances, rtol=0, atol=1e-5)

    def test_disjoint_supports_zero_raw_cross_moment(self):
        # compact kernel, grid points farther than 2h apart: the off-diagonal
        # covariance reduces exactly to the -mean*mean centering term
        scn = kernel_density_scenario(
            data_law="uniform", grid_points=2, grid_lo=0.25, grid_hi=0.75,
            bandwidth_power=0.0, bandwidth_scale=0.1, normalization="unit",
        )
        d = design_kernel(scn, 100)
        m = d.means.ravel()
        expected_off = -(m[0] * m[1]) / d.h
        assert d.cov.sigma[0, 1] == pytest.approx(expected_off, abs=1e-12)

    def test_studentized_unit_diagonal(self):
        scn = kernel_density_scenario(grid_points=16)
        d = design_kernel(scn, 2000)
        np.testing.assert_allclose(np.diag(d.cov.sigma), 1.0, atol=1e-6)

    def test_studentized_rejects_vanishing_variance(self):
        scn = KernelScenario(
            kernel=Epanechnikov(),
            bandwidth_rule=lambda n: 0.05,
            x_grid=np.array([0.5, 5.0]),  # second point is outside the support
            family=kernel_density_scenario().family,
            normalization="studentized",
        )
        with pytest.raises(ValueError, match="zero variance at grid point"):
            design_kernel(scn, 100)

    def test_build_returns_class_and_covariance(self):
        d = design(kernel_density_scenario(grid_points=8), 500)
        assert d.cls.size == 8
        assert d.cov.dim == 8

    def test_gaussian_kernel_supported(self):
        scn = kernel_density_scenario(kernel="gaussian", grid_points=8)
        d = design_kernel(scn, 500)
        np.testing.assert_allclose(np.diag(d.cov.sigma), 1.0, atol=1e-6)
        assert d.cls.column_sums is None  # unbounded support: dense path


class TestSeriesDesign:
    def test_k1_collapse(self):
        scn = series_mean_scenario(k_scale=1e-9, grid_points=8)  # K_rule floors at 1
        d = design_series(scn, 1000)
        assert d.K == 1
        np.testing.assert_allclose(d.alpha, 1.0, atol=1e-12)
        np.testing.assert_allclose(d.cov.sigma, 1.0, atol=1e-10)
        # the statistic collapses to n^{-1/2} sum eta_i
        gen = RngPolicy(2).stream_of(0)
        eta, x = d.sampler(gen, 1000)
        stat = d.cls.evaluate((eta, x)).sum(axis=0) / math.sqrt(1000)
        assert stat[0] == pytest.approx(eta.sum() / math.sqrt(1000))

    def test_k1_collapse_distribution(self):
        scn = series_mean_scenario(k_scale=1e-9, grid_points=4)
        d = design_series(scn, 10_000)
        rng = RngPolicy(41)
        emp = empirical_sup_sample(d.cls, d.sampler, 10_000, 10_000, rng.with_salt(1))
        gau = gaussian_sup_sample(d.cov, 10_000, rng.with_salt(2))
        ks, _ = ks_distance(emp, gau)
        assert ks <= 0.02

    @pytest.mark.parametrize("factory", [series_mean_scenario, series_quantile_scenario])
    def test_evaluate_is_the_score_times_basis_product(self, factory):
        """evaluate scales psi(x) @ alpha.T in place by level; the bytes are those of g[:, col] * (psi(x) @ alpha.T)."""
        d = design_series(factory(), 2000)
        eta, x = d.sampler(RngPolicy(9).stream_of(0), 2000)
        if d.tau_of_col is None:
            g = eta[:, None]
        else:
            taus = np.asarray(d.scenario.tau_grid, dtype=float)
            g = (taus[None, :] - (eta[:, None] <= taus[None, :]))[:, d.tau_of_col]
        assert d.cls.evaluate((eta, x)).tobytes() == (g * (d.psi(x) @ d.alpha.T)).tobytes()

    def test_fourier_orthonormal_and_xi(self):
        scn = series_mean_scenario()
        d = design_series(scn, 125)  # K = 5
        assert d.K == 5
        np.testing.assert_allclose(d.Omega, np.eye(5), atol=1e-8)
        assert xi_n(scn, 5) == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_homoskedastic_alpha_is_normalized_basis(self):
        scn = series_mean_scenario(grid_points=12)
        d = design_series(scn, 125)
        psi_vals = d.psi(np.asarray(scn.x_grid))
        expected = psi_vals / np.linalg.norm(psi_vals, axis=1, keepdims=True)
        np.testing.assert_allclose(d.alpha, expected, atol=1e-9)

    def test_covariance_rank_at_most_K(self):
        scn = series_mean_scenario(grid_points=48)
        d = design_series(scn, 1000)  # K = 10
        sv = np.linalg.svd(d.cov.sigma, compute_uv=False)
        assert sv[d.K :].max() <= 1e-8 * sv[0]

    def test_quantile_summands_at_half(self):
        scn = SeriesScenario(
            basis="fourier_trig", K_rule=lambda n: 3,
            x_grid=np.linspace(0, 1, 8), tau_grid=np.array([0.5]),
        )
        d = design_series(scn, 100)
        gen = RngPolicy(3).stream_of(0)
        eta, x = d.sampler(gen, 100)
        g = 0.5 - (eta <= 0.5)
        assert set(np.unique(g)) <= {-0.5, 0.5}
        # columns factor as g * projection
        vals = d.cls.evaluate((eta, x))
        proj = d.psi(x) @ d.alpha.T
        np.testing.assert_allclose(vals, g[:, None] * proj, atol=1e-12)

    def test_quantile_summands_centered_and_bounded(self):
        scn = SeriesScenario(
            basis="fourier_trig", K_rule=lambda n: 2,
            x_grid=np.linspace(0, 1, 6), tau_grid=np.array([0.25, 0.5, 0.75]),
        )
        gen = RngPolicy(4).stream_of(0)
        eta = gen.random(200_000)
        for tau in (0.25, 0.5, 0.75):
            g = tau - (eta <= tau)
            assert np.abs(g).max() <= 1.0
            se = math.sqrt(tau * (1 - tau) / eta.size)
            assert abs(g.mean()) <= 3 * se

    def test_zero_noise_kills_statistic(self):
        scn = series_mean_scenario(grid_points=8)
        d = design_series(scn, 125)
        x = RngPolicy(6).stream_of(0).random(500)
        vals = d.cls.evaluate((np.zeros(500), x))
        np.testing.assert_array_equal(vals, np.zeros_like(vals))

    def test_quantile_factory_shares_the_mean_order_rule(self):
        q, m = series_quantile_scenario(k_power=0.4, k_scale=1.5), series_mean_scenario(k_power=0.4, k_scale=1.5)
        assert (m.tau_grid, q.tau_grid, len(q.x_grid)) == (None, (0.25, 0.5, 0.75), 16)
        assert [q.K_rule(n) for n in (3, 125, 8000)] == [m.K_rule(n) for n in (3, 125, 8000)]
        assert design_series(series_quantile_scenario(tau_grid=[0.1, 0.9], grid_points=5), 125).cls.size == 10

    def test_data_laws_take_only_their_parameters(self):
        assert DATA_LAWS["beta"](a=3.0).support == (0.0, 1.0)
        assert DATA_LAWS["truncnorm"](lo=0.2).support == (0.2, 1.0)
        with pytest.raises(TypeError):
            DATA_LAWS["beta"](mu=0.3)
        with pytest.raises(TypeError):
            DATA_LAWS["uniform"](a=2.0)

    def test_design_functionals_and_covariance_shapes(self):
        d = design(series_mean_scenario(grid_points=10), 125)
        assert d.alpha.shape == (10, 5)
        assert d.Omega.shape == (5, 5)
        assert d.cov.dim == 10


def beta22_cdf(t):
    return t * t * (3.0 - 2.0 * t)


class TestBeta22Draw:
    """Beta(2, 2) is drawn as the median of three uniforms, exact in law; other (a, b) by gen.beta."""

    def test_ks_against_the_cdf_within_dkw_radius(self):
        n = 100_000
        x = np.sort(BetaLaw().sample(np.random.default_rng(2022), n))
        f = beta22_cdf(x)
        ks = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
        assert ks <= math.sqrt(math.log(2.0 / 1e-4) / (2.0 * n))  # DKW radius at p = 1e-4

    def test_three_uniforms_per_point(self):
        gen, twin = np.random.default_rng(77), np.random.default_rng(77)
        BetaLaw().sample(gen, 1000)
        twin.random(3000)
        assert gen.random() == twin.random()

    def test_median_of_three_uniform_rows(self):
        x = BetaLaw().sample(np.random.default_rng(5), 10_000)
        rows = np.random.default_rng(5).random((3, 10_000))
        assert x.tobytes() == np.median(rows, axis=0).tobytes()

    def test_other_parameters_keep_gen_beta(self):
        x = BetaLaw(2.0, 3.0).sample(np.random.default_rng(31), 500)
        assert x.tobytes() == np.random.default_rng(31).beta(2.0, 3.0, 500).tobytes()


class TestBetaDensity:
    """Beta(2, 2)'s log normalizer is the constant -log 6, scipy's betaln(2, 2) to the bit; other (a, b) keep betaln."""

    def test_minus_log_6_is_betaln(self):
        assert -math.log(6.0) == betaln(2.0, 2.0) == betaln(2, 2)

    @staticmethod
    def default_kernel_nodes(monkeypatch):
        """Every node at which the default kernel designs at n = 500, 2000 and 8000 evaluate the density."""
        seen, density = [], BetaLaw.density
        monkeypatch.setattr(BetaLaw, "density", lambda law, t: seen.append(np.array(t)) or density(law, t))
        for n in (500, 2000, 8000):
            design_kernel(kernel_density_scenario(), n)
        monkeypatch.undo()
        t = np.concatenate([nodes.ravel() for nodes in seen])
        assert t.size >= 3 * QUAD_NODES and np.all((t > 0) & (t < 1))
        return t

    @pytest.mark.parametrize("a, b", [(2, 2), (2.0, 2.0)])
    def test_default_law_keeps_the_betaln_bits(self, monkeypatch, a, b):
        t = self.default_kernel_nodes(monkeypatch)
        expected = np.exp(np.log(t) + np.log1p(-t) - betaln(2, 2))
        assert BetaLaw(a, b).density(t).tobytes() == expected.tobytes()

    def test_other_parameters_keep_betaln(self, monkeypatch):
        t = self.default_kernel_nodes(monkeypatch)
        expected = np.exp(1.5 * np.log(t) + 0.5 * np.log1p(-t) - betaln(2.5, 1.5))
        assert BetaLaw(2.5, 1.5).density(t).tobytes() == expected.tobytes()
        assert BetaLaw(2.5, 1.5).density(np.array([-1.0, 0.0, 1.0, 2.0])).tolist() == [0.0] * 4


FACTOR_SCENARIOS = {
    "epanechnikov": kernel_density_scenario,
    "gaussian_kernel": lambda: kernel_density_scenario(kernel="gaussian"),
    **{f"{basis}_{noise}": (lambda basis=basis, factory=factory: factory(basis=basis))
       for basis in BASES for noise, factory in (("mean", series_mean_scenario), ("quantile", series_quantile_scenario))},
    # a repeated level makes the level covariance singular
    "fourier_trig_repeated_level": lambda: series_quantile_scenario(tau_grid=(0.5, 0.5), grid_points=8),
}


class TestSeriesFactor:
    """Every design, series or kernel, samples its Gaussian analogue from the symmetric square root of sigma."""

    @pytest.mark.parametrize("n", [500, 2000, 8000])
    @pytest.mark.parametrize("name", sorted(FACTOR_SCENARIOS))
    def test_exact_factor_without_ridge(self, name, n):
        d = design(FACTOR_SCENARIOS[name](), n)
        L = d.cov.factor
        assert L.shape == (d.cls.size, d.cls.size)
        np.testing.assert_allclose(L, L.T, rtol=0, atol=1e-15 * np.abs(L).max())
        # measured at most 2.2e-14 on kernel designs (Gaussian kernel: rank 8-12 of 64) and 6e-15 on series designs
        bound = 1e-13 if isinstance(d, KernelDesign) else 1e-14
        assert np.abs(d.cov.sigma - L @ L.T).max() <= bound


def _kernel_family_scenario(family):
    return KernelScenario(
        kernel=Epanechnikov(), bandwidth_rule=lambda n: float(n) ** -0.2,
        x_grid=np.linspace(0.1, 0.9, 16), family=family,
    )


def _regression_kernel_scenario():
    return _kernel_family_scenario(RegressionFamily(
        x_law=BetaLaw(), mean_fn=lambda x: np.sin(4.0 * np.asarray(x)), sd_fn=lambda x: 0.5 + np.asarray(x),
    ))


def _quantile_scenario():
    return SeriesScenario(
        basis="legendre", K_rule=lambda n: 4,
        x_grid=np.linspace(0, 1, 6), tau_grid=np.array([0.25, 0.5, 0.75]),
    )


SURFACE_SCENARIOS = {
    "epanechnikov": lambda: kernel_density_scenario(grid_points=12),
    "gaussian_kernel": lambda: kernel_density_scenario(kernel="gaussian", grid_points=12),
    "series_mean": lambda: series_mean_scenario(grid_points=12),
    "series_quantile": _quantile_scenario,
    "kernel_regression": _regression_kernel_scenario,
}
KERNEL_SURFACE = sorted(name for name, make in SURFACE_SCENARIOS.items() if isinstance(make(), KernelScenario))


class TestDesignSurface:
    """design(scenario, n) gives every scenario type the same surface."""

    @pytest.mark.parametrize("name", sorted(SURFACE_SCENARIOS))
    def test_shared_surface(self, name):
        scn = SURFACE_SCENARIOS[name]()
        d = design(scn, 400)
        assert d.scenario is scn and d.n == 400
        size = d.cls.size
        assert len(d.index_grid) == len(d.estimator_mean) == len(d.sigma_hat_sd) == size == d.cov.dim
        assert set(np.unique(d.index_grid)) == set(np.asarray(scn.x_grid, dtype=float))
        assert np.all(d.sigma_hat_sd > 0)
        assert math.isfinite(d.predicted_rate) and d.predicted_rate > 0
        batch = d.sampler(RngPolicy(47).stream_of(0), 400)
        values = d.cls.evaluate(batch)
        assert values.shape == (400, size)
        np.testing.assert_allclose(d.cls.sum_columns(batch), values.sum(axis=0), rtol=1e-9, atol=1e-9)
        # every surface design is studentized: kernel columns by c, series columns by the norm of alpha
        np.testing.assert_allclose(np.diag(d.cov.sigma), 1.0, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("name", KERNEL_SURFACE)
    def test_kernel_design_has_one_column_per_grid_point(self, name):
        """Each kernel family has a single g: the columns are the grid points, and the moments are (nx,)."""
        scn = SURFACE_SCENARIOS[name]()
        d = design(scn, 400)
        x_grid = np.asarray(scn.x_grid, dtype=float)
        assert d.index_grid.tobytes() == x_grid.tobytes()
        assert d.means.shape == d.variances.shape == d.c.shape == (x_grid.size,)

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError, match="KernelScenario or SeriesScenario"):
            design(object(), 100)

    def test_quantile_index_grid_repeats_each_x_per_level(self):
        d = design(_quantile_scenario(), 200)
        np.testing.assert_array_equal(d.index_grid, np.repeat(np.linspace(0, 1, 6), 3))


# grid spacing 2h, all dyadic: x_j + h == x_{j+1} - h exactly, so the design must merge duplicate window edges
TOUCHING_H, TOUCHING_GRID = 0.0625, np.arange(1, 8) / 8


def _touching_windows_scenario():
    return KernelScenario(kernel=Epanechnikov(), bandwidth_rule=lambda n: TOUCHING_H, x_grid=TOUCHING_GRID,
                          family=DensityFamily(BetaLaw()))


# quantile levels of each noise model; None is the mean model
LEVELS = {"mean": None, "quantile": (0.25, 0.5, 0.75)}
FAST_PATH_SCENARIOS = {
    "kernel_density": lambda: kernel_density_scenario(grid_points=16),
    "kernel_regression": _regression_kernel_scenario,
    "kernel_touching_windows": _touching_windows_scenario,
    **{
        f"{basis}_{noise}": (lambda basis=basis, noise=noise: SeriesScenario(
            basis=basis, K_rule=lambda n: math.ceil(n ** (1.0 / 3.0)), x_grid=np.linspace(0, 1, 16),
            tau_grid=LEVELS[noise],
        ))
        for basis in BASES for noise in ("mean", "quantile")
    },
    # K = ceil(n^{1/2}): 90 basis functions at n = 8000
    **{
        f"fourier_trig_k90_{noise}": (lambda noise=noise: SeriesScenario(
            basis="fourier_trig", K_rule=lambda n: math.ceil(n**0.5), x_grid=np.linspace(0, 1, 16),
            tau_grid=LEVELS[noise],
        ))
        for noise in ("mean", "quantile")
    },
}
# |sum_columns - evaluate().sum(0)| per column, relative to the column's sum of |summands|
FAST_PATH_RTOL = 1e-12


def _hand_built_x(d, gen):
    """Ties, both support ends, and for kernel designs every window edge x_j +/- h."""
    xg = np.asarray(d.scenario.x_grid, dtype=float)
    edges = np.concatenate([xg - d.h, xg + d.h]) if isinstance(d.scenario, KernelScenario) else xg
    edges = edges[(edges >= 0.0) & (edges <= 1.0)]
    ties = np.repeat(gen.random(4), 5)
    return np.concatenate([edges, ties, [0.0, 0.0, 1.0, 1.0], xg])


class TestFastPaths:
    """Every column-sum fast path agrees with the reference evaluate(batch).sum(0)."""

    @pytest.mark.parametrize("batch_kind", ["drawn", "hand_built"])
    @pytest.mark.parametrize("n", [3, 500, 8000])
    @pytest.mark.parametrize("name", sorted(FAST_PATH_SCENARIOS))
    def test_sum_columns_matches_dense(self, name, n, batch_kind):
        d = design(FAST_PATH_SCENARIOS[name](), n)
        gen = RngPolicy(48).stream_of(n)
        batch = d.sampler(gen, n)
        if batch_kind == "hand_built":
            x = _hand_built_x(d, gen)
            draw = d.sampler(gen, x.size)
            batch = x if isinstance(draw, np.ndarray) else (draw[0], x)
        values = d.cls.evaluate(batch)
        err = np.abs(d.cls.sum_columns(batch) - values.sum(axis=0))
        assert np.all(err <= FAST_PATH_RTOL * np.abs(values).sum(axis=0))


def _window_breaks(law, h, xg=np.linspace(0.1, 0.9, 64)):
    """Panel breaks of a kernel design: the support ends and the window edges x_j +/- h inside the support."""
    lo, hi = law.support
    return np.unique(np.clip(np.concatenate([[lo, hi], xg - h, xg + h]), lo, hi))


LOOKUP_LAWS = {"uniform": Uniform01(), "beta_0.7_1.5": BetaLaw(0.7, 1.5), "truncnorm": TruncNorm(),
               "truncnorm_wide_support": TruncNorm(mu=0.3, sd=0.2, lo=-0.5, hi=1.5)}


class TestPanelLookup:
    """The cell-table panel lookup of the kernel column sums is clip(searchsorted(breaks, x) - 1, 0, P - 1) exactly."""

    @staticmethod
    def assert_is_searchsorted(breaks, law, gen):
        lo, hi = law.support
        x = np.concatenate([breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf), law.support,
                            [lo - 1.0, hi + 1.0], law.sample(gen, 4000), gen.uniform(lo, hi, 4000)])
        want = np.clip(np.searchsorted(breaks, x) - 1, 0, breaks.size - 2)
        np.testing.assert_array_equal(_panel_lookup(breaks)(x), want)

    @pytest.mark.parametrize("n", [500, 8000])
    @pytest.mark.parametrize("power", [0.2, 1.0 / 3.0, 0.5])
    @pytest.mark.parametrize("name", sorted(LOOKUP_LAWS))
    def test_lookup_is_searchsorted(self, name, power, n):
        law = LOOKUP_LAWS[name]
        self.assert_is_searchsorted(_window_breaks(law, n**-power), law, np.random.default_rng(n))

    @pytest.mark.parametrize("h", [1e-5, 1e-9])
    def test_distinct_breaks_within_one_cell(self, h):
        breaks = _window_breaks(BetaLaw(), h)
        cells = 8 * (breaks.size - 1)
        assert np.bincount((breaks * cells).astype(int)).max() >= 2  # x_j - h and x_j + h share a cell
        self.assert_is_searchsorted(breaks, BetaLaw(), np.random.default_rng(3))

    def test_touching_windows_share_their_edges(self):
        """The fast-path case "kernel_touching_windows" has coinciding window edges: 14 edges, 8 distinct breaks."""
        edges = np.concatenate([TOUCHING_GRID - TOUCHING_H, TOUCHING_GRID + TOUCHING_H])
        breaks = _window_breaks(BetaLaw(), TOUCHING_H, TOUCHING_GRID)
        assert np.unique(edges).size == 8 and breaks.size == 10
        self.assert_is_searchsorted(breaks, BetaLaw(), np.random.default_rng(6))

    @pytest.mark.parametrize("case", ["touching", "repeats", "signed_zeros", "one"])
    def test_sorted_distinct_is_unique(self, case):
        a = {"touching": np.concatenate([[0.0, 1.0], TOUCHING_GRID - TOUCHING_H, TOUCHING_GRID + TOUCHING_H]),
             "repeats": np.random.default_rng(7).integers(0, 20, 500) / 7.0,
             "signed_zeros": np.array([0.5, 0.0, -0.0, 0.0, -1.0, -0.0, 0.5]),
             "one": np.array([0.25])}[case]
        got = _sorted_distinct(a)
        assert got.tobytes() == np.unique(a).tobytes()

    @pytest.mark.parametrize("xg, h, interior", [([0.5], 2.0, 0), ([0.1, 0.9], 2.0, 0), ([0.3], 0.6, 1)])
    def test_windows_wider_than_the_grid(self, xg, h, interior):
        """Window edges beyond the support clip to its ends: one panel, or two, and the column sums still agree."""
        xg = np.array(xg)
        breaks = _window_breaks(Uniform01(), h, xg)
        assert breaks.size - 2 == interior
        self.assert_is_searchsorted(breaks, Uniform01(), np.random.default_rng(4))
        scn = KernelScenario(kernel=Epanechnikov(), bandwidth_rule=lambda n: h, x_grid=xg,
                             family=DensityFamily(Uniform01()), normalization="unit")
        d = design_kernel(scn, 50)
        x = np.random.default_rng(5).random(50)
        values = d.cls.evaluate(x)
        assert np.all(np.abs(d.cls.sum_columns(x) - values.sum(axis=0)) <= FAST_PATH_RTOL * np.abs(values).sum(axis=0))


@dataclass(frozen=True)
class NodeEpanechnikov:
    """The Epanechnikov kernel under a type design_kernel does not know, so it takes the node-quadrature path."""

    window: ClassVar[float] = 1.0

    def __call__(self, u):
        return Epanechnikov()(u)


MOMENT_FAMILIES = {
    "density_beta_0.7_1.5": lambda: DensityFamily(BetaLaw(0.7, 1.5)),
    "density_truncnorm": lambda: DensityFamily(TruncNorm()),
    "regression": lambda: _regression_kernel_scenario().family,
}


@pytest.mark.parametrize("grid", [(0.1, 0.9), (0.0, 1.0)], ids=["interior", "clipped_at_support_ends"])
@pytest.mark.parametrize("power", [0.2, 1.0 / 3.0])
@pytest.mark.parametrize("name", sorted(MOMENT_FAMILIES))
def test_polynomial_moments_match_node_quadrature(name, power, grid):
    """The Epanechnikov moments from per-panel polynomial moments equal the kernel evaluated at every node."""
    scn = KernelScenario(kernel=Epanechnikov(), bandwidth_rule=lambda n: float(n) ** -power,
                         x_grid=np.linspace(*grid, 16), family=MOMENT_FAMILIES[name](), normalization="unit")
    moments, nodes = design_kernel(scn, 2000), design_kernel(replace(scn, kernel=NodeEpanechnikov()), 2000)
    # unit normalization: sigma = (raw - means means^T) / h
    raw = [d.h * d.cov.sigma + np.outer(d.means.ravel(), d.means.ravel()) for d in (moments, nodes)]
    assert np.abs(raw[0] - raw[1]).max() <= 1e-13 * np.abs(raw[1]).max()
    assert np.abs(moments.means - nodes.means).max() <= 1e-13 * np.abs(nodes.means).max()
    assert moments.cls.column_sums is not None and nodes.cls.column_sums is None


class TestBases:
    def test_fourier_constant_norm_odd_K(self):
        psi = BASES["fourier_trig"](7)
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(np.linalg.norm(psi(x), axis=1), math.sqrt(7.0), atol=1e-10)

    def test_legendre_orthonormal(self):
        psi = BASES["legendre"](4)
        t = np.linspace(0, 1, 200_001)
        vals = psi(t)
        gram = np.trapezoid(vals[:, :, None] * vals[:, None, :], t, axis=0)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-6)

    def test_legendre_xi_nondecreasing(self):
        scn = SeriesScenario(basis="legendre", K_rule=lambda n: 2, x_grid=np.linspace(0, 1, 4))
        vals = [xi_n(scn, K) for K in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0

    # the recurrences against the closed forms, within 1e-12 of each column's
    # sup norm (sqrt 2 for Fourier, sqrt(2k + 1) for Legendre degree k);
    # an even K ends on a cosine column, an odd K > 1 on a sine column
    @pytest.mark.parametrize("K", [1, 2, 3, 8, 13, 20, 128])
    def test_fourier_matches_cos_sin(self, K):
        x = np.concatenate([np.linspace(0, 1, 8001), RngPolicy(49).stream_of(K).random(8000)])
        freq = (np.arange(K) + 1) // 2
        arg = 2.0 * math.pi * freq * x[:, None]
        want = np.where(np.arange(K) % 2 == 1, math.sqrt(2.0) * np.cos(arg), math.sqrt(2.0) * np.sin(arg))
        want[:, 0] = 1.0
        got = BASES["fourier_trig"](K)(x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * math.sqrt(2.0)

    # the table exponential at every table point k/1024, the float below 1, -0.0, -1e-20 (whose fractional part
    # rounds up to 1.0, the table's extra entry) and 1.0, and at random points of [-2, 2]
    def test_table_exponential_matches_cos_sin(self):
        special = [1.0 - 2.0**-53, -0.0, -1e-20, 1.0]
        x = np.concatenate([np.arange(-2048, 2049) / 1024, special, RngPolicy(51).stream_of(0).uniform(-2, 2, 10**5)])
        z = exp_2pi_i(x)
        assert np.abs(z.real - np.cos(2.0 * math.pi * x)).max() <= 2e-15
        assert np.abs(z.imag - np.sin(2.0 * math.pi * x)).max() <= 2e-15

    def test_table_exponential_has_period_one(self):
        # multiples of 2^-40 in [-2, 2]: x + 1 is exact, so both reduce to the same fractional part
        x = RngPolicy(52).stream_of(0).integers(-2**41, 2**41, 10**4) * 2.0**-40
        x = np.concatenate([x, np.arange(-1024, 1025) / 1024, [-0.0, -2.0**-40]])
        assert np.array_equal(exp_2pi_i(x), exp_2pi_i(x + 1.0))

    def test_nonfinite_points_give_nan_rows(self):
        x = np.array([np.nan, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, rows = exp_2pi_i(x), BASES["fourier_trig"](5)(x)
        assert np.isnan(z.real).all() and np.isnan(z.imag).all()
        assert np.all(rows[:, 0] == 1.0) and np.isnan(rows[:, 1:]).all()

    @pytest.mark.parametrize("K", [1, 2, 20, 128])
    def test_legendre_matches_eval_legendre(self, K):
        from scipy.special import eval_legendre

        x = np.concatenate([np.linspace(0, 1, 8001), RngPolicy(50).stream_of(K).random(8000)])
        sup = np.sqrt(2.0 * np.arange(K) + 1.0)
        want = np.column_stack([sup[k] * eval_legendre(k, 2.0 * x - 1.0) for k in range(K)])
        assert np.all(np.abs(BASES["legendre"](K)(x) - want).max(axis=0) <= 1e-12 * sup)

    def test_bspline_partition_of_unity(self):
        psi = BASES["bspline"](8)
        x = np.linspace(0, 1, 501)
        np.testing.assert_allclose(psi(x).sum(axis=1), 1.0, atol=1e-10)


class TestRateExperiment:
    def test_validates_n_list(self):
        scn = kernel_density_scenario(grid_points=4)
        with pytest.raises(ValueError, match="increasing"):
            rate_experiment(scn, [500, 400, 800], R=10, rng=RngPolicy(1))
        with pytest.raises(ValueError, match="at least 3 entries"):
            rate_experiment(scn, [500, 800], R=10, rng=RngPolicy(1))
        with pytest.raises(ValueError, match="at least 3"):
            rate_experiment(scn, [2, 500, 800], R=10, rng=RngPolicy(1))

    def test_predicted_rate_hand_value(self):
        scn = kernel_density_scenario(grid_points=4)
        table = rate_experiment(scn, [999, 1000, 1001], R=50, rng=RngPolicy(2))
        h = 1000.0 ** (-1.0 / 5.0)
        expected = (1000.0 * h) ** (-1.0 / 6.0) * math.log(1000.0)
        assert table.rows[1].predicted_rate == pytest.approx(expected, rel=1e-12)

    def test_degenerate_single_point_grid_berry_esseen_scale(self):
        scn = kernel_density_scenario(grid_points=1, grid_lo=0.5, grid_hi=0.5)
        n, R = 400, 4000
        d = design_kernel(scn, n)
        rng = RngPolicy(3)
        emp = empirical_sup_sample(d.cls, scn.family.sample, n, R, rng.with_salt(1))
        gau = gaussian_sup_sample(d.cov, R, rng.with_salt(2))
        ks, conf = ks_distance(emp, gau)
        # third absolute moment of the studentized summand by quadrature
        t = np.linspace(0, 1, 100_001)
        f = d.c[0] * d.h**-0.5 * (scn.kernel((t - 0.5) / d.h) - d.means[0])
        rho = np.trapezoid(np.abs(f) ** 3 * scn.family.x_law.density(t), t)
        berry_esseen = 0.4748 * rho / math.sqrt(n)
        assert ks <= conf + berry_esseen

    def test_kernel_ks_decreasing_up_to_conf_radii(self):
        scn = kernel_density_scenario(grid_points=24)
        table = rate_experiment(scn, [300, 900, 2700], R=800, rng=RngPolicy(4))
        rows = table.rows
        assert rows[-1].ks < rows[0].ks + rows[0].ks_conf + rows[-1].ks_conf

    def test_table_rows_structure(self):
        scn = series_mean_scenario(grid_points=8)
        table = rate_experiment(scn, [100, 200, 400], R=200, rng=RngPolicy(5))
        assert [r.n for r in table.rows] == [100, 200, 400]
        assert math.isfinite(table.slope_fit)


class TestRegressionFamily:
    def test_quadrature_moments_linear_mean(self):
        from supgauss.scenarios import RegressionFamily

        fam = RegressionFamily(
            x_law=Uniform01(), mean_fn=lambda x: 2.0 * np.asarray(x), sd_fn=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
        )
        scn = KernelScenario(
            kernel=Epanechnikov(), bandwidth_rule=lambda n: 0.05,
            x_grid=np.array([0.5]), family=fam, normalization="unit",
        )
        d = design_kernel(scn, 100)
        # E[Y k_h] = int 2 t k((t - 0.5)/h) dt = 2 * 0.5 * h = h for symmetric kernels
        assert d.means[0] == pytest.approx(d.h, rel=1e-10)
        # E[Y^2 k^2] - m^2 over h: integrand (4 t^2 + 0.25) k^2(u)
        t = np.linspace(0.4, 0.6, 200_001)
        kv = Epanechnikov()((t - 0.5) / 0.05)
        s2 = np.trapezoid((4 * t**2 + 0.25) * kv * kv, t)
        assert d.variances[0] == pytest.approx((s2 - d.h**2) / d.h, rel=1e-6)

    def test_sampling_matches_design_moments(self):
        from supgauss.scenarios import RegressionFamily

        fam = RegressionFamily(
            x_law=Uniform01(), mean_fn=lambda x: np.asarray(x, dtype=float), sd_fn=lambda x: np.ones_like(np.asarray(x, dtype=float))
        )
        y, x = fam.sample(RngPolicy(8).stream_of(0), 200_000)
        assert abs(np.mean(y - x)) <= 3.0 / math.sqrt(200_000)
        assert np.var(y - x) == pytest.approx(1.0, rel=0.02)


BAND = dict(x_grid=np.zeros(2), estimate=np.zeros(2), sigma_n=np.ones(2), c_alpha=1.0, side="two_sided", alpha=0.05)
VC = dict(n=100, gamma=0.1, q=4.0, b=1.0, sigma=0.5, A=math.e, v=1.0)
SMOOTHING = dict(intervals=((0.0, 1.0),), delta=0.2, beta=10.0)
KERNEL_SCENARIO = dict(kernel=Epanechnikov(), bandwidth_rule=lambda n: 0.2, x_grid=np.linspace(0.3, 0.7, 4),
                       family=DensityFamily(BetaLaw()))
SERIES_SCENARIO = dict(basis="legendre", K_rule=lambda n: 3, x_grid=np.linspace(0, 1, 4))

# each value the code used to accept and then ignore, overwrite or misread, or that no caller set
REMOVED_VALUES = {
    "Epanechnikov.name": lambda: Epanechnikov(name="epanechnikov"),
    "Epanechnikov.window": lambda: Epanechnikov(window=2.0),
    "GaussianKernel.name": lambda: GaussianKernel(name="gaussian"),
    "GaussianKernel.window": lambda: GaussianKernel(window=3.0),
    "BandResult.lower": lambda: BandResult(**BAND, lower=np.zeros(2)),
    "BandResult.upper": lambda: BandResult(**BAND, upper=np.zeros(2)),
    "IndicatorSmoothing.epsilon": lambda: IndicatorSmoothing(**SMOOTHING, epsilon=0.5),
    "SeriesScenario.noise_model": lambda: SeriesScenario(**SERIES_SCENARIO, noise_model="quantile"),
    "KernelScenario.name": lambda: KernelScenario(**KERNEL_SCENARIO, name="kernel"),
    "SeriesScenario.name": lambda: SeriesScenario(**SERIES_SCENARIO, name="series"),
    "SeriesScenario.x_law": lambda: SeriesScenario(**SERIES_SCENARIO, x_law=BetaLaw()),
    "vc_class_budget.C_prob": lambda: vc_class_budget(**VC, C_prob=2.0),
    "xi_n.grid_points": lambda: xi_n(series_mean_scenario(), 5, grid_points=4001),
    "DiscretizedClass.atom_measure.weights": lambda: DiscretizedClass.from_matrix(np.eye(2)).atom_measure(
        2, weights=[0.25, 0.75]),
}


@pytest.mark.parametrize("name", sorted(REMOVED_VALUES))
def test_removed_value_is_rejected(name):
    """A value the code does not compute with cannot be passed."""
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        REMOVED_VALUES[name]()
