"""Monte Carlo engine: RNG streams, samplers, distances, couplings."""

import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from supgauss import simulate
from supgauss.bands import coverage_experiment
from supgauss.funcclass import DiscretizedClass
from supgauss.scenarios import design, kernel_density_scenario
from supgauss.simulate import (
    EMP_BLOCK,
    GAUSS_BLOCK,
    CovarianceError,
    CovarianceModel,
    RngPolicy,
    SupSample,
    empirical_sup_sample,
    gaussian_sup_sample,
    ks_distance,
    levy_concentration,
    quantile_coupling,
    sup_quantile,
)


def centered_uniform_class():
    return DiscretizedClass.from_functions(
        [lambda x: np.asarray(x) - 0.5],
        lambda x: np.abs(np.asarray(x) - 0.5),
        centered=True,
    )


class TestRngPolicy:
    def test_reproducible_streams(self):
        rng = RngPolicy(1234)
        a = rng.stream_of(7).standard_normal(5)
        b = rng.stream_of(7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        rng = RngPolicy(1234)
        a = rng.stream_of(0).standard_normal(5)
        b = rng.stream_of(1).standard_normal(5)
        assert not np.allclose(a, b)

    def test_salt_separates_purposes(self):
        rng = RngPolicy(1234)
        a = rng.stream_of(3).standard_normal(5)
        b = rng.with_salt(1).stream_of(3).standard_normal(5)
        assert not np.allclose(a, b)

    def test_rejects_seed_outside_64_bits(self):
        # 2^64 + 5 would key the same Philox stream as seed 5
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match="master_seed"):
                RngPolicy(seed)
        assert RngPolicy(2**64 - 1).stream_of(0).standard_normal(1).shape == (1,)

    def test_rejects_salt_outside_16_bits(self):
        # the salt fills bits 48-63 of the key, so salt 2^16 + 1 would wrap onto salt 1
        for salt in (-1, 2**16, 2**16 + 1):
            with pytest.raises(ValueError, match="salt"):
                RngPolicy(5, salt)
        with pytest.raises(ValueError, match="salt"):
            RngPolicy(5).with_salt(2**16)
        assert RngPolicy(5, 2**16 - 1).salt == 2**16 - 1

    def test_stream_independence_statistics(self):
        rng = RngPolicy(99)
        draws = np.array([rng.stream_of(i).standard_normal(1)[0] for i in range(4000)])
        assert abs(draws.mean()) < 3.0 / math.sqrt(4000)
        assert abs(draws.var() - 1.0) < 0.1


class TestSupSample:
    def test_sorted_and_metadata(self):
        s = SupSample(np.array([3.0, 1.0, 2.0]), "demo", seed=5, n=10)
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.R == 3

    def test_csv_round_trip(self, tmp_path):
        s = SupSample(np.array([0.25, -1.5, 3.125]), "demo", seed=42, salt=7, n=100)
        path = tmp_path / "s.csv"
        s.to_csv(path)
        back = SupSample.from_csv(path)
        np.testing.assert_array_equal(back.values, s.values)
        assert back.statistic_id == "demo"
        assert back.seed == 42
        assert back.salt == 7
        assert back.n == 100

    def test_csv_with_fewer_values_than_R_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        SupSample(np.arange(5.0), "demo", seed=42, n=100).to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # header R = 5, three values left
        with pytest.raises(ValueError, match="R = 5"):
            SupSample.from_csv(path)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SupSample(np.array([]), "x", seed=0)


class TestCovarianceModel:
    def test_single_function(self):
        m = CovarianceModel.from_matrix(np.array([[0.25]]))
        assert m.factor[0, 0] == pytest.approx(0.5)

    def test_rank_one_repair(self):
        v = 0.7
        # rank one, so Cholesky needs a ridge on the second; the square root needs none on either
        for sigma in (np.array([[v, 2 * v], [2 * v, 4 * v]]), np.outer([1.0, 2.0, -0.5], [1.0, 2.0, -0.5])):
            m = CovarianceModel.from_matrix(sigma)
            np.testing.assert_allclose(m.factor @ m.factor.T, sigma, rtol=0, atol=1e-15 * np.abs(sigma).max())

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.3, 1.0]]))

    def test_asymmetry_beyond_rounding_is_a_covariance_error(self):
        sigma = np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]])
        with pytest.raises(CovarianceError, match=re.escape("not symmetric: max|sigma - sigma^T| = 1e-09")):
            CovarianceModel.from_matrix(sigma)
        CovarianceModel.from_matrix(np.array([[1.0, 0.5], [0.5 + 1e-11, 1.0]]))  # within rounding: symmetrized

    def test_rejects_badly_conditioned(self):
        with pytest.raises(CovarianceError, match="badly conditioned"):
            CovarianceModel.from_matrix(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_rejects_non_finite(self):
        with pytest.raises(CovarianceError, match="non-finite"):
            CovarianceModel.from_matrix(np.array([[np.nan]]))


class TestEmpiricalSup:
    def test_constant_zero_function(self):
        cls = DiscretizedClass.from_functions(
            [lambda x: np.zeros_like(np.asarray(x, dtype=float))],
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            centered=True,
        )
        s = empirical_sup_sample(cls, lambda g, n: g.random(n), n=50, R=20, rng=RngPolicy(3))
        np.testing.assert_array_equal(s.values, np.zeros(20))

    def test_clt_mean_and_variance(self):
        cls = centered_uniform_class()
        s = empirical_sup_sample(cls, lambda g, n: g.random(n), n=10_000, R=10_000, rng=RngPolicy(17))
        sd = math.sqrt(1.0 / 12.0)
        assert abs(s.values.mean()) <= 3.0 * sd / math.sqrt(10_000)
        assert abs(s.values.var() - 1.0 / 12.0) <= 0.05 / 12.0

    def test_negation_pair_nonnegative(self):
        cls = DiscretizedClass.from_functions(
            [lambda x: np.asarray(x) - 0.5, lambda x: 0.5 - np.asarray(x)],
            lambda x: np.abs(np.asarray(x) - 0.5),
            centered=True,
        )
        s = empirical_sup_sample(cls, lambda g, n: g.random(n), n=100, R=200, rng=RngPolicy(23))
        assert np.all(s.values >= 0)
        # closed under negation already: max_j |.| is max_j
        s_abs = empirical_sup_sample(cls, lambda g, n: g.random(n), n=100, R=200, rng=RngPolicy(23), absolute=True)
        np.testing.assert_array_equal(s_abs.values, s.values)

    def test_absolute_single_function(self):
        cls = centered_uniform_class()
        plain = empirical_sup_sample(cls, lambda g, n: g.random(n), n=100, R=200, rng=RngPolicy(24))
        s_abs = empirical_sup_sample(cls, lambda g, n: g.random(n), n=100, R=200, rng=RngPolicy(24), absolute=True)
        np.testing.assert_array_equal(s_abs.values, np.sort(np.abs(plain.values)))

    def test_rejects_non_centered_class(self):
        cls = DiscretizedClass.from_functions([lambda x: np.asarray(x)], lambda x: np.abs(np.asarray(x)))
        with pytest.raises(ValueError, match="centered class"):
            empirical_sup_sample(cls, lambda g, n: g.random(n), n=50, R=5, rng=RngPolicy(2))

    def test_rejects_small_n(self):
        cls = centered_uniform_class()
        with pytest.raises(ValueError, match="at least 3"):
            empirical_sup_sample(cls, lambda g, n: g.random(n), n=2, R=5, rng=RngPolicy(1))

    def test_thread_count_invariance(self):
        cls = centered_uniform_class()
        runs = [
            empirical_sup_sample(cls, lambda g, n: g.random(n), n=200, R=300, rng=RngPolicy(7), threads=t)
            for t in (1, 2, 3)
        ]
        np.testing.assert_array_equal(runs[0].values, runs[1].values)
        np.testing.assert_array_equal(runs[0].values, runs[2].values)


class TestGaussianSup:
    def test_one_dim_standard_normal(self):
        cov = CovarianceModel.from_matrix(np.array([[1.0]]))
        s = gaussian_sup_sample(cov, R=20_000, rng=RngPolicy(11))
        assert abs(s.values.mean()) <= 3.0 / math.sqrt(20_000)

    def test_two_dim_identity_mean(self):
        cov = CovarianceModel.from_matrix(np.eye(2))
        s = gaussian_sup_sample(cov, R=20_000, rng=RngPolicy(12))
        se = math.sqrt(1.0 - 1.0 / math.pi) / math.sqrt(20_000)
        assert abs(s.values.mean() - 1.0 / math.sqrt(math.pi)) <= 3.0 * se

    def test_degenerate_rank_one_matches_one_dim(self):
        cov2 = CovarianceModel.from_matrix(np.ones((2, 2)))
        s2 = gaussian_sup_sample(cov2, R=10_000, rng=RngPolicy(13))
        cov1 = CovarianceModel.from_matrix(np.array([[1.0]]))
        s1 = gaussian_sup_sample(cov1, R=10_000, rng=RngPolicy(14))
        ks, _ = ks_distance(s1, s2)
        assert ks <= 0.02

    def test_scale_equivariance_exact(self):
        base = CovarianceModel.from_matrix(np.array([[1.0, 0.3], [0.3, 2.0]]))
        for c in (2.0, 0.5, 4.0):
            scaled = base.scaled(c)
            s0 = gaussian_sup_sample(base, R=500, rng=RngPolicy(15))
            s1 = gaussian_sup_sample(scaled, R=500, rng=RngPolicy(15))
            # powers of two scale exactly through the factor and the product
            np.testing.assert_array_equal(s1.values, c * s0.values)

    def test_absolute_mode(self):
        cov = CovarianceModel.from_matrix(np.array([[1.0]]))
        s = gaussian_sup_sample(cov, R=5000, rng=RngPolicy(16), absolute=True)
        assert np.all(s.values >= 0)


def correlated_cov(dim: int = 24) -> CovarianceModel:
    a = RngPolicy(90).stream_of(0).standard_normal((dim, dim))
    return CovarianceModel.from_matrix(a @ a.T / dim + 0.1 * np.eye(dim))


class TestBlockLayout:
    """Replications run in fixed blocks; block b draws its replications in turn from stream_of(b)."""

    @pytest.mark.parametrize("absolute", [False, True])
    def test_gaussian_bytes_across_thread_caps(self, absolute):
        cov = correlated_cov()
        R = 2 * GAUSS_BLOCK + 37
        runs = [gaussian_sup_sample(cov, R, RngPolicy(91), absolute=absolute, threads=t).values for t in (1, 2, 3)]
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()

    def test_empirical_bytes_across_thread_caps(self):
        cls = centered_uniform_class()
        R = 2 * EMP_BLOCK + 3
        runs = [
            empirical_sup_sample(cls, lambda g, n: g.random(n), n=200, R=R, rng=RngPolicy(92), threads=t).values
            for t in (1, 2, 3)
        ]
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()

    def test_gaussian_replications_are_successive_draws_of_block_stream(self):
        cov = correlated_cov()
        rng = RngPolicy(93)
        R = GAUSS_BLOCK + 37
        expected = []
        for b, m in ((0, GAUSS_BLOCK), (1, 37)):
            gen = rng.stream_of(b)
            expected += [float((cov.factor @ gen.standard_normal(cov.dim)).max()) for _ in range(m)]
        # sorting moves no value by more than the largest elementwise difference
        np.testing.assert_allclose(gaussian_sup_sample(cov, R, rng).values, np.sort(expected), rtol=0, atol=1e-13)

    def test_empirical_replications_are_successive_draws_of_block_stream(self):
        cls = centered_uniform_class()
        rng, n = RngPolicy(94), 100
        expected = []
        for b, m in ((0, EMP_BLOCK), (1, 3)):
            gen = rng.stream_of(b)
            expected += [float(cls.sum_columns(gen.random(n)).max() / math.sqrt(n)) for _ in range(m)]
        s = empirical_sup_sample(cls, lambda g, k: g.random(k), n=n, R=EMP_BLOCK + 3, rng=rng)
        np.testing.assert_array_equal(s.values, np.sort(expected))

    def test_coverage_band_is_replication_zero(self):
        scn = kernel_density_scenario(grid_points=8)
        n, R_outer, rng = 300, 2 * EMP_BLOCK + 3, RngPolicy(95)
        _, band = coverage_experiment(scn, alpha=0.2, n=n, R_outer=R_outer, R_inner=500, rng=rng)
        d = design(scn, n)
        emp = empirical_sup_sample(d.cls, d.sampler, n, R_outer, rng, absolute=True)
        first = empirical_sup_sample(d.cls, d.sampler, n, 1, rng, absolute=True).values[0]
        assert first in emp.values
        band_sup = float(np.abs((band.estimate - d.estimator_mean) / d.sigma_hat_sd).max())
        assert band_sup == pytest.approx(first, rel=1e-12)


class TestKsDistance:
    def test_identical_samples(self):
        s = SupSample(np.arange(10.0), "x", seed=0)
        est, _ = ks_distance(s, s)
        assert est == 0.0

    def test_disjoint_atoms(self):
        a = SupSample(np.array([0.0]), "a", seed=0)
        b = SupSample(np.array([1.0]), "b", seed=0)
        est, _ = ks_distance(a, b)
        assert est == 1.0

    def test_shifted_uniforms(self):
        rng = RngPolicy(77)
        a = SupSample(rng.stream_of(0).random(100_000), "a", seed=77)
        b = SupSample(rng.with_salt(1).stream_of(0).random(100_000) + 0.1, "b", seed=77)
        est, conf = ks_distance(a, b)
        assert abs(est - 0.1) <= conf
        assert conf == pytest.approx(math.sqrt(math.log(2 / 0.05) / (2 * 100_000)))


class TestQuantileCoupling:
    def test_identical(self):
        s = SupSample(np.linspace(0, 1, 100), "x", seed=0)
        assert quantile_coupling(s, s, 0.01) == 0.0

    def test_exact_shift(self):
        a = SupSample(np.linspace(0, 1, 100), "a", seed=0)
        b = SupSample(np.linspace(0, 1, 100) + 0.5, "b", seed=0)
        assert quantile_coupling(a, b, 0.4) == 1.0
        assert quantile_coupling(a, b, 0.6) == 0.0

    def test_zero_delta_counts_unequal_pairs(self):
        a = SupSample(np.array([0.0, 1.0, 2.0]), "a", seed=0)
        b = SupSample(np.array([0.0, 1.5, 2.0]), "b", seed=0)
        assert quantile_coupling(a, b, 0.0) == pytest.approx(1.0 / 3.0)

    def test_normal_scale_family(self):
        # monotone coupling of N(0,1) with N(0, 1.2^2): exceedance 2 Phi(-delta/(sigma-1));
        # rank-paired indicators are correlated, so the standard error is
        # calibrated from independent replications of the whole estimator
        sigma, delta = 1.2, 0.1
        theory = 2.0 * norm.cdf(-delta / (sigma - 1.0))
        reps = 12
        estimates = np.empty(reps)
        for k in range(reps):
            rng = RngPolicy(1000 + k)
            a = SupSample(rng.stream_of(0).standard_normal(100_000), "a", seed=k)
            b = SupSample(sigma * rng.with_salt(1).stream_of(0).standard_normal(100_000), "b", seed=k)
            estimates[k] = quantile_coupling(a, b, delta)
        se = estimates.std(ddof=1) / math.sqrt(reps)
        assert abs(estimates.mean() - theory) <= 3.0 * se + 1e-3


class TestLevyConcentration:
    def test_all_equal(self):
        s = SupSample(np.zeros(50), "x", seed=0)
        assert levy_concentration(s, 0.001) == 1.0

    def test_standard_normal_mode(self):
        rng = RngPolicy(55)
        s = SupSample(rng.stream_of(0).standard_normal(100_000), "x", seed=55)
        target = 2.0 * norm.cdf(0.1) - 1.0
        se = math.sqrt(target * (1 - target) / 100_000)
        assert abs(levy_concentration(s, 0.1) - target) <= 5.0 * se

    def test_monotone_in_epsilon(self):
        rng = RngPolicy(56)
        s = SupSample(rng.stream_of(0).standard_normal(5000), "x", seed=56)
        vals = [levy_concentration(s, e) for e in (0.01, 0.05, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSupQuantile:
    def test_median_of_symmetric(self):
        s = SupSample(np.linspace(-1, 1, 201), "x", seed=0)
        assert abs(sup_quantile(s, 0.5)) <= 0.011

    def test_max_of_two_normals_closed_form(self):
        cov = CovarianceModel.from_matrix(np.eye(2))
        s = gaussian_sup_sample(cov, R=100_000, rng=RngPolicy(57))
        # P(max <= t) = Phi(t)^2 = 0.25 at t = 0
        assert abs(sup_quantile(s, 0.75)) <= 0.03

    def test_monotone_in_alpha(self):
        rng = RngPolicy(58)
        s = SupSample(rng.stream_of(0).standard_normal(1000), "x", seed=58)
        assert sup_quantile(s, 0.1) >= sup_quantile(s, 0.2) >= sup_quantile(s, 0.9)

    def test_higher_interpolation_conservative(self):
        s = SupSample(np.array([0.0, 1.0]), "x", seed=0)
        assert sup_quantile(s, 0.4) == 1.0



@pytest.mark.parametrize(
    "threads, blocks, cores, workers",
    [(100_000, 10, 4, 4), (3, 10, 4, 3), (100_000, 2, 4, 2), (100_000, 10, 1, None), (100_000, 10, None, None),
     (100_000, 1, 4, None), (1, 10, 4, None)],
    ids=["cores", "threads", "blocks", "one_core", "unknown_cores", "one_block", "one_thread"],
)
def test_pool_has_at_most_one_worker_per_block_and_core(monkeypatch, threads, blocks, cores, workers):
    made = []

    class SerialPool:
        """A ThreadPoolExecutor stand-in that records its max_workers and maps serially, starting no thread."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
    cov = correlated_cov()
    got = gaussian_sup_sample(cov, blocks * GAUSS_BLOCK, RngPolicy(93), threads=threads).values
    assert made == ([] if workers is None else [workers])
    assert got.tobytes() == gaussian_sup_sample(cov, blocks * GAUSS_BLOCK, RngPolicy(93)).values.tobytes()
