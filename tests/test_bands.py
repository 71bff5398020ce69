"""Uniform confidence bands: assembly, critical values, coverage."""

import math

import numpy as np
import pytest

from supgauss import bands
from supgauss.bands import build_band, coverage_experiment, critical_value
from supgauss.scenarios import design, kernel_density_scenario, series_mean_scenario
from supgauss.simulate import (
    EMP_BLOCK,
    CovarianceModel,
    RngPolicy,
    SupSample,
    empirical_sup_sample,
    gaussian_sup_sample,
)


class TestCriticalValue:
    def test_absolute_normal_quantile(self):
        cov = CovarianceModel.from_matrix(np.array([[1.0]]))
        gauss = gaussian_sup_sample(cov, R=100_000, rng=RngPolicy(21), absolute=True)
        assert critical_value(gauss, 0.05) == pytest.approx(1.959964, abs=0.05)

    def test_monotone_in_alpha(self):
        s = SupSample(RngPolicy(22).stream_of(0).standard_normal(5000), "x", seed=22)
        assert critical_value(s, 0.01) >= critical_value(s, 0.05) >= critical_value(s, 0.5)


class TestBuildBand:
    def test_zero_c_degenerates(self):
        est = np.array([1.0, 2.0])
        band = build_band(est, np.array([0.3, 0.4]), 0.0)
        np.testing.assert_array_equal(band.lower, est)
        np.testing.assert_array_equal(band.upper, est)

    def test_doubling_c_doubles_halfwidth(self):
        est = np.array([0.0, 1.0, -1.0])
        sig = np.array([1.0, 0.5, 2.0])
        b1 = build_band(est, sig, 1.3)
        b2 = build_band(est, sig, 2.6)
        np.testing.assert_allclose(b2.upper - b2.lower, 2.0 * (b1.upper - b1.lower))

    def test_one_sided_upper_infinite(self):
        band = build_band(np.array([1.0]), np.array([0.5]), 2.0, side="one_sided_lower")
        assert band.upper[0] == math.inf
        assert band.lower[0] == pytest.approx(0.0)

    def test_negative_c_only_one_sided(self):
        band = build_band(np.array([1.0]), np.array([0.5]), -2.0, side="one_sided_lower")
        assert band.lower[0] == pytest.approx(2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            build_band(np.array([1.0]), np.array([0.5]), -2.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            build_band(np.array([1.0]), np.array([-0.1]), 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            build_band(np.array([1.0, 2.0]), np.array([0.5]), 1.0)

    def test_assembly_identity(self):
        gen = RngPolicy(23).stream_of(0)
        est = gen.standard_normal(16)
        sig = np.abs(gen.standard_normal(16)) + 0.1
        c = 1.7
        band = build_band(est, sig, c)
        np.testing.assert_array_equal(band.lower, est - c * sig)
        np.testing.assert_array_equal(band.upper, est + c * sig)

    def test_nesting_in_alpha(self):
        # smaller alpha -> larger critical value -> wider band, same inner sample
        s = SupSample(np.abs(RngPolicy(24).stream_of(0).standard_normal(4000)), "x", seed=24)
        est = np.zeros(4)
        sig = np.ones(4)
        b05 = build_band(est, sig, critical_value(s, 0.05))
        b25 = build_band(est, sig, critical_value(s, 0.25))
        assert np.all(b05.lower <= b25.lower) and np.all(b05.upper >= b25.upper)

    def test_equivariance_under_scaling(self):
        est = np.array([1.0, -2.0, 0.5])
        sig = np.array([0.2, 0.4, 0.1])
        c = 2.0
        base = build_band(est, sig, c)
        scaled = build_band(3.0 * est, 3.0 * sig, c)
        np.testing.assert_allclose(scaled.lower, 3.0 * base.lower)
        np.testing.assert_allclose(scaled.upper, 3.0 * base.upper)


class TestCoverage:
    def test_median_band_symmetric(self):
        scn = kernel_density_scenario(grid_points=16)
        report, _ = coverage_experiment(
            scn, alpha=0.5, n=500, R_outer=400, R_inner=3000, rng=RngPolicy(25)
        )
        assert abs(report.empirical - 0.5) <= 4.0 * math.sqrt(0.25 / 400)

    def test_one_sided_band_above_half_alpha(self):
        # one column: c_alpha is the 0.1-quantile of N(0, 1), about -1.28
        scn = kernel_density_scenario(grid_points=1)
        report, band = coverage_experiment(
            scn, alpha=0.9, n=300, R_outer=200, R_inner=2000, rng=RngPolicy(34), side="one_sided_lower"
        )
        assert report.c_alpha == pytest.approx(-1.2816, abs=0.1)
        assert np.all(band.lower > band.estimate)
        assert abs(report.empirical - 0.1) <= 4.0 * math.sqrt(0.09 / 200)

    def test_infinite_c_alpha_covers(self):
        scn = kernel_density_scenario(grid_points=8)
        _, band = coverage_experiment(scn, alpha=0.5, n=300, R_outer=60, R_inner=400, rng=RngPolicy(26))
        wide = build_band(band.estimate, band.sigma_n, c_alpha=np.inf, x_grid=band.x_grid, alpha=0.0)
        assert wide.contains(np.zeros_like(band.estimate))

    def test_coverage_monotone_in_alpha(self):
        scn = kernel_density_scenario(grid_points=12)
        rng = RngPolicy(27)
        r05, _ = coverage_experiment(scn, alpha=0.05, n=300, R_outer=300, R_inner=2000, rng=rng)
        r25, _ = coverage_experiment(scn, alpha=0.25, n=300, R_outer=300, R_inner=2000, rng=rng)
        assert r05.empirical >= r25.empirical

    def test_one_sided_band(self):
        scn = kernel_density_scenario(grid_points=8)
        report, band = coverage_experiment(
            scn, alpha=0.1, n=300, R_outer=200, R_inner=2000, rng=RngPolicy(28), side="one_sided_lower"
        )
        assert np.all(np.isinf(band.upper))
        assert 0.8 <= report.empirical <= 1.0

    def test_report_fields(self):
        scn = kernel_density_scenario(grid_points=8)
        report, band = coverage_experiment(scn, alpha=0.2, n=300, R_outer=50, R_inner=500, rng=RngPolicy(30))
        assert report.nominal == pytest.approx(0.8)
        assert type(report.empirical) is float  # summary.txt writes its repr
        assert 0.0 <= report.empirical <= 1.0
        assert report.binomial_se == pytest.approx(
            math.sqrt(report.empirical * (1 - report.empirical) / 50)
        )
        assert band.x_grid.shape == band.lower.shape

    def test_series_mean_band_coverage_near_nominal(self):
        scn = series_mean_scenario(grid_points=16)
        report, band = coverage_experiment(scn, alpha=0.05, n=500, R_outer=400, R_inner=4000, rng=RngPolicy(31))
        assert abs(report.empirical - 0.95) <= 3.0 * math.sqrt(0.95 * 0.05 / 400)
        np.testing.assert_array_equal(band.x_grid, scn.x_grid)

    @pytest.mark.parametrize(
        "scn, side",
        [
            (kernel_density_scenario(grid_points=8), "two_sided"),
            (kernel_density_scenario(grid_points=8), "one_sided_lower"),
            (series_mean_scenario(grid_points=8), "two_sided"),
        ],
        ids=["kernel_two_sided", "kernel_one_sided_lower", "series_mean"],
    )
    def test_coverage_is_count_over_sup_sample(self, scn, side):
        n, R_outer, rng = 300, 100, RngPolicy(33)
        report, _ = coverage_experiment(scn, alpha=0.2, n=n, R_outer=R_outer, R_inner=1000, rng=rng, side=side)
        d = design(scn, n)
        emp = empirical_sup_sample(d.cls, d.sampler, n, R_outer, rng, absolute=(side == "two_sided"))
        assert report.empirical == np.count_nonzero(emp.values <= report.c_alpha) / R_outer
        # the same count as bands built from each replication's estimate that contain E S_n
        hits = 0
        for r in range(R_outer):
            if r % EMP_BLOCK == 0:  # replication r is draw r % EMP_BLOCK of stream_of(r // EMP_BLOCK)
                gen = rng.stream_of(r // EMP_BLOCK)
            dev = d.cls.sum_columns(d.sampler(gen, n)) / math.sqrt(n)
            band = build_band(d.estimator_mean + d.sigma_hat_sd * dev, d.sigma_hat_sd, report.c_alpha, side=side)
            hits += band.contains(d.estimator_mean)
        assert report.empirical == hits / R_outer
        assert 0.0 < report.empirical < 1.0

    def test_bad_side_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the side was checked")

        monkeypatch.setattr(bands, "sample_jobs", no_sampling)
        with pytest.raises(ValueError, match="side must be"):
            coverage_experiment(kernel_density_scenario(grid_points=8), alpha=0.1, n=300, R_outer=10, R_inner=100,
                                rng=RngPolicy(33), side="two-sided")

    def test_rejects_unstudentized_design(self):
        scn = kernel_density_scenario(grid_points=8, normalization="unit")
        with pytest.raises(ValueError, match="studentized"):
            coverage_experiment(scn, alpha=0.1, n=300, R_outer=10, R_inner=100, rng=RngPolicy(32))
