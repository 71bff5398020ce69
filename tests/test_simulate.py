"""Monte Carlo engine: RNG streams, samplers, distances, couplings."""

import bisect
import functools
import itertools
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
        for seed, salt, index in ((1234, 0, 7), (0, 0, 0), (2**64 - 1, 2**16 - 1, 2**48 - 1), (2**32 + 1, 3, 2**40)):
            a = RngPolicy(seed, salt).stream_of(index).standard_normal(64)
            b = RngPolicy(seed, salt).stream_of(index).standard_normal(64)
            assert a.tobytes() == b.tobytes()

    def test_distinct_keys_give_distinct_first_draws(self):
        # the first two pairs would hash to the same words if each key int went in as the fewest
        # 32-bit words it needs: [2^32 + 1, 0] and [1, 1] both pad to (1, 1, 0, 0)
        keys = [(2**32 + 1, 0, 0), (1, 0, 1), (7 + 3 * 2**32, 0, 2**16), (7, 1, 3),
                (1, 0, 0), (2**32, 0, 1), (7, 0, 3), (3, 0, 7),
                (0, 0, 2**32), (2**32, 0, 0), (0, 1, 0), (0, 0, 2**48 - 1)]
        first = {RngPolicy(seed, salt).stream_of(index).random() for seed, salt, index in keys}
        assert len(first) == len(keys)

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
        # 2^64 + 5 would key the same stream as seed 5
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

    @pytest.mark.parametrize("statistic_id", [" a", "\ta", "a "], ids=["leading_space", "leading_tab", "trailing_space"])
    def test_csv_round_trip_keeps_the_blanks_of_an_id(self, tmp_path, statistic_id):
        path = tmp_path / "s.csv"
        SupSample(np.arange(3.0), statistic_id, seed=1).to_csv(path)
        assert SupSample.from_csv(path).statistic_id == statistic_id

    def test_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        SupSample(np.arange(3.0), "demo", seed=1).to_csv(path)
        path.write_text("\n" + path.read_text().replace("value\n", "value\n\n \n") + "\n\n")
        back = SupSample.from_csv(path)
        assert back.statistic_id == "demo" and back.values.tolist() == [0.0, 1.0, 2.0]

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

    @pytest.mark.parametrize("statistic_id", ["a,b", "a\nb", "a\rb"], ids=["comma", "newline", "return"])
    def test_rejects_an_id_its_csv_header_cannot_hold(self, statistic_id):
        """to_csv writes the id as a bare CSV field: a comma or a line break would not read back."""
        with pytest.raises(ValueError, match="holds a comma or a line break"):
            SupSample(np.arange(3.0), statistic_id, seed=0)


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

    def test_thread_count_invariance(self, forking):
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


@pytest.mark.parametrize("R", [0, -5])
def test_builders_reject_fewer_than_one_replication(R):
    """A sample of no replications fails when its job is built, not after the schedule has run, and before a
    Gaussian job allocates its scratch (R = -5 would otherwise fail in numpy with "negative dimensions")."""
    with pytest.raises(ValueError, match=f"got R = {R}$"):
        simulate.empirical_job(centered_uniform_class(), lambda g, n: g.random(n), 50, R, RngPolicy(0))
    with pytest.raises(ValueError, match=f"got R = {R}$"):
        simulate.gaussian_job(correlated_cov(), R, RngPolicy(0))


class TestBlockLayout:
    """Replications run in fixed blocks; block b draws its replications in turn from stream_of(b)."""

    @pytest.mark.parametrize("absolute", [False, True])
    def test_gaussian_bytes_across_thread_caps(self, forking, absolute):
        cov = correlated_cov()
        R = 2 * GAUSS_BLOCK + 37
        runs = [gaussian_sup_sample(cov, R, RngPolicy(91), absolute=absolute, threads=t).values for t in (1, 2, 3)]
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()

    def test_empirical_bytes_across_thread_caps(self, forking):
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


class TestGaussianScratch:
    """Each Gaussian job draws and multiplies into one pair of arrays; its values are the plain expression's."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("absolute", [False, True])
    def test_values_equal_the_plain_expression(self, forking, absolute, threads):
        cov, rng, R = correlated_cov(), RngPolicy(96), 2 * GAUSS_BLOCK + 37
        plain = [simulate._sup(rng.stream_of(b).standard_normal((m, cov.dim)) @ cov.factor.T, absolute)
                 for b, m in ((0, GAUSS_BLOCK), (1, GAUSS_BLOCK), (2, 37))]
        s = gaussian_sup_sample(cov, R, rng, absolute=absolute, threads=threads)
        assert s.values.tobytes() == np.sort(np.concatenate(plain)).tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_two_jobs_on_one_covariance_give_their_own_samples(self, forking, threads):
        cov = correlated_cov()
        specs = [(300, RngPolicy(97), False), (2 * GAUSS_BLOCK + 37, RngPolicy(97, salt=1), True)]
        both = simulate.sample_jobs([simulate.gaussian_job(cov, R, rng, absolute) for R, rng, absolute in specs],
                                    threads)
        for s, (R, rng, absolute) in zip(both, specs):
            assert s.values.tobytes() == gaussian_sup_sample(cov, R, rng, absolute=absolute).values.tobytes()


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
        # midpoint grids of U[0, 1] and U[0.1, 1.1]: b_k = a_{k + 0.1 R} up to the rounding of the shift,
        # which can break each tie by one step, so the distance is 0.1 within one step 1/R
        R = 100_000
        a = SupSample((np.arange(R) + 0.5) / R, "a", seed=77)
        b = SupSample((np.arange(R) + 0.5) / R + 0.1, "b", seed=77)
        est, conf = ks_distance(a, b)
        assert abs(est - 0.1) <= 1.0 / R + 1e-15
        assert conf == pytest.approx(math.sqrt(math.log(2 / 0.05) / (2 * R)))


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

    def test_unequal_sizes_pair_each_value_with_the_quantile_at_its_midrank(self):
        """Order statistic i of a pairs with b's quantile at (i + 1/2) / R_a: here 0, 0, 10 and 10."""
        a = SupSample(np.array([0.0, 1.0, 2.0, 3.0]), "a", seed=0)
        b = SupSample(np.array([10.0, 0.0]), "b", seed=0)
        assert quantile_coupling(a, b, 0.5) == 0.75
        assert quantile_coupling(a, b, 7.5) == 0.25

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



def count_forks(monkeypatch) -> list:
    """Wrap the os.fork that simulate calls; each fork appends the number of live Python threads at that moment."""
    forks, fork = [], os.fork

    def counted():
        forks.append(threading.active_count())
        return fork()

    monkeypatch.setattr(simulate.os, "fork", counted)
    return forks


@pytest.fixture
def forking(monkeypatch):
    """Every sample call at threads > 1 forks, on up to four CPUs, whatever its size."""
    monkeypatch.setattr(simulate, "FORK_WORK", 1)
    monkeypatch.setattr(simulate, "_cpus", lambda: 4)


def job(block_fn, R: int, size: int, weight: float = 1.0) -> simulate.Job:
    """A job of R replications in blocks of size, each of the given weight."""
    return simulate.Job(block_fn, R, size, weight, "x", RngPolicy(0))


def blocks_of(jobs: list) -> list:
    """The jobs' blocks in call order, laid out as _run_blocks lays them out."""
    starts = itertools.accumulate((jb.R for jb in jobs), initial=0)
    return [simulate._Block(jb, b, start + b * jb.size, min(jb.size, jb.R - b * jb.size))
            for jb, start in zip(jobs, starts) for b in range(-(-jb.R // jb.size))]


def nearest_edge_parts(blocks: list, ranges: int) -> list:
    """The reference cut: blocks ordered by their place in their job, cut where the running work is nearest to
    each i / ranges of the total (at the earlier edge on a tie), each part in call order, empty parts dropped."""
    order = sorted(range(len(blocks)), key=lambda i: (blocks[i].index * blocks[i].job.size + blocks[i].m / 2)
                   / blocks[i].job.R)
    total = list(itertools.accumulate((blocks[i].m * blocks[i].job.weight for i in order), initial=0.0))

    def nearest(target: float) -> int:
        j = bisect.bisect_left(total, target)
        return j - 1 if j and target - total[j - 1] <= total[j] - target else j

    inner = {nearest(k * total[-1] / ranges) for k in range(1, ranges)} - {0, len(blocks)}
    cuts = [0, *sorted(inner), len(blocks)]
    return [[blocks[i] for i in sorted(order[lo:hi])] for lo, hi in zip(cuts, cuts[1:])]


# (R, block size, weight) of each sample of a run, in call order: the benchmark's three workloads, criteria 7
# and 8, the CLI defaults of rate and bands, TestOneSchedulePerRun's rate run and an odd mix
SCHEDULES = {
    "kernel-rate": [(100, 8, 2500), (100, 1024, 64), (100, 8, 4000), (100, 1024, 64), (100, 8, 10000),
                    (100, 1024, 64)],
    "series-rate": [(80, 8, 2500), (80, 1024, 64), (80, 8, 4000), (80, 1024, 64), (80, 8, 10000), (80, 1024, 64)],
    "band-calibration": [(12000, 1024, 64), (60, 8, 4000)],
    "criterion-7": [(5000, 8, 2500), (5000, 1024, 64), (5000, 8, 4000), (5000, 1024, 64), (5000, 8, 10000),
                    (5000, 1024, 64)],
    "criterion-8": [(20000, 8, 2500), (20000, 1024, 64), (20000, 8, 4000), (20000, 1024, 64), (20000, 8, 10000),
                    (20000, 1024, 64)],
    "rate-default": [(2000, 8, 2500), (2000, 1024, 64), (2000, 8, 4000), (2000, 1024, 64), (2000, 8, 10000),
                     (2000, 1024, 64)],
    "bands-default": [(4000, 1024, 64), (500, 8, 4000)],
    "rate-R120": [(120, 8, 3000), (120, 1024, 64), (120, 8, 3500), (120, 1024, 64), (120, 8, 4000), (120, 1024, 64)],
    "odd-mix": [(5 * EMP_BLOCK + 3, EMP_BLOCK, 8500), (40, 16, 64), (3 * EMP_BLOCK, EMP_BLOCK, 2500),
                (1, EMP_BLOCK, 10_000)],
}


def assert_midpoint_parts_match_the_nearest_edge_cut(shapes, ranges):
    jobs = [job(None, R, size, float(weight)) for R, size, weight in shapes]
    blocks = blocks_of(jobs)
    parts = simulate._parts(blocks, ranges)
    assert parts == nearest_edge_parts(blocks, ranges)
    assert sorted(blk.offset for part in parts for blk in part) == [blk.offset for blk in blocks]


@pytest.mark.parametrize("ranges", [2, 3, 4])
@pytest.mark.parametrize("name", SCHEDULES)
def test_parts_equal_the_nearest_edge_cut(name, ranges):
    """A block goes to the part that holds the midpoint of its work: the cut nearest each i / ranges of the work
    that the schedule used to make, block for block."""
    assert_midpoint_parts_match_the_nearest_edge_cut(SCHEDULES[name], ranges)


@settings(max_examples=300, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 3000), st.sampled_from([1, 3, EMP_BLOCK, 16, GAUSS_BLOCK]),
                                 st.integers(1, 20_000)), min_size=1, max_size=6),
       ranges=st.integers(2, 4))
def test_parts_equal_the_nearest_edge_cut_on_random_mixes(shapes, ranges):
    assert_midpoint_parts_match_the_nearest_edge_cut(shapes, ranges)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "threads, blocks, cores, workers",
    [(100_000, 10, 4, 4), (3, 10, 4, 3), (100_000, 2, 4, 2), (100_000, 10, 1, None), (100_000, 10, None, None),
     (100_000, 1, 4, None), (1, 10, 4, None)],
    ids=["cores", "threads", "blocks", "one_core", "unknown_cores", "one_block", "one_thread"],
)
def test_pool_has_at_most_one_worker_per_block_and_core(monkeypatch, threads, blocks, cores, workers):
    """The caller runs the first block range and forks one worker per other range: at most one per block and core.
    Where the OS keeps no affinity mask, os.cpu_count() counts the cores, and an unknown count means one."""
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(simulate, "FORK_WORK", 1)
    monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
    cov = correlated_cov()
    got = gaussian_sup_sample(cov, blocks * GAUSS_BLOCK, RngPolicy(93), threads=threads).values
    assert len(forks) == (0 if workers is None else workers - 1)
    assert got.tobytes() == gaussian_sup_sample(cov, blocks * GAUSS_BLOCK, RngPolicy(93)).values.tobytes()
    assert_no_child_left()


def test_an_empty_schedule_returns_no_samples(monkeypatch):
    forks = count_forks(monkeypatch)
    assert simulate.sample_jobs([], threads=2) == [] and forks == []


@pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
@pytest.mark.parametrize("kind", ["empirical", "gaussian"])
def test_calls_below_the_work_threshold_fork_nothing(monkeypatch, kind, below):
    """A call forks when R times its weight, n + EMP_REP_POINTS if empirical and dim if Gaussian, reaches
    FORK_WORK; below it the call stays in-process."""
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    if kind == "empirical":
        n = 400
        weight = n + simulate.EMP_REP_POINTS
        sample = functools.partial(empirical_sup_sample, centered_uniform_class(), lambda g, n: g.random(n), n)
    else:
        cov = CovarianceModel.from_matrix(np.eye(50))
        weight, sample = cov.dim, functools.partial(gaussian_sup_sample, cov)
    R = simulate.FORK_WORK // weight - below
    got = sample(R, RngPolicy(94), threads=2)
    assert simulate.FORK_WORK % weight == 0 and got.R == R  # R = FORK_WORK // weight reaches the threshold exactly
    assert len(forks) == (0 if below else 1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the OS keeps no affinity masks")
def test_one_cpu_mask_forks_nothing(monkeypatch):
    """Workers are capped at the CPUs of the affinity mask, not at os.cpu_count()."""
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(simulate, "FORK_WORK", 1)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        cpus = simulate._cpus()
        got = gaussian_sup_sample(correlated_cov(), 4 * GAUSS_BLOCK, RngPolicy(96), threads=2)
    finally:
        os.sched_setaffinity(0, allowed)
    assert (cpus, forks, got.R) == (1, [], 4 * GAUSS_BLOCK)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_schedule_puts_every_block_in_exactly_one_part(monkeypatch, forking, workers):
    """Jobs of uneven weights are cut into parts of about equal work that each hold about the same share of every
    job. The caller runs the first part and one forked worker each other one, and every block's values land in its
    own job's slots."""
    forks = count_forks(monkeypatch)
    parent = os.getpid()

    def returns_index(j):
        return lambda b, m: np.full(m, 1000.0 * j + b + (os.getpid() != parent) / 2)

    shapes = [(5 * EMP_BLOCK + 3, EMP_BLOCK, 8500.0), (40, 16, 64.0), (3 * EMP_BLOCK, EMP_BLOCK, 2500.0),
              (1, EMP_BLOCK, 10_000.0)]
    jobs = [job(returns_index(j), R, size, weight) for j, (R, size, weight) in enumerate(shapes)]
    number = {id(jb): j for j, jb in enumerate(jobs)}
    parts = simulate._parts(blocks_of(jobs), workers)
    placed = [[(number[id(blk.job)], blk.index) for blk in part] for part in parts]
    assert len(parts) == workers and all(part == sorted(part) for part in placed)
    assert sorted(sum(placed, [])) == [(j, b) for j, (R, size, _) in enumerate(shapes) for b in range(-(-R // size))]
    for j, (R, size, _) in enumerate(shapes):
        shares = [sum(jb == j for jb, _ in part) for part in placed]
        assert max(shares) - min(shares) <= 1 + (R > size)
    work = [sum(blk.m * blk.job.weight for blk in part) for part in parts]
    assert max(work) - min(work) <= 2 * EMP_BLOCK * max(weight for _, _, weight in shapes)

    got = simulate._run_blocks(jobs, threads=workers)
    assert len(forks) == workers - 1
    assert [values.size for values in got] == [R for R, _, _ in shapes]
    for j, (values, (R, size, _)) in enumerate(zip(got, shapes)):
        expected = [1000 * j + b + ((j, b) not in placed[0]) / 2 for b in range(-(-R // size)) for _ in range(size)]
        assert values.tolist() == expected[:R]
    assert_no_child_left()


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_forks_happen_while_no_other_thread_runs(monkeypatch, forking):
    """Python 3.12+ warns when a process with live threads forks; no thread runs when the samplers fork."""
    forks = count_forks(monkeypatch)
    cls = centered_uniform_class()
    empirical_sup_sample(cls, lambda g, n: g.random(n), n=200, R=5 * EMP_BLOCK, rng=RngPolicy(95), threads=2)
    gaussian_sup_sample(correlated_cov(), 3 * GAUSS_BLOCK, RngPolicy(95), threads=3)
    assert forks == [1, 1, 1]


class TestWorkerFailures:
    """A worker's exception re-raises in the caller with its type; a worker that dies raises WorkerError. No
    worker outlives the call on any path."""

    R = 4 * EMP_BLOCK

    def run(self, block_fn, threads=2):
        return simulate._run_blocks([job(block_fn, self.R, EMP_BLOCK)], threads)[0]

    @staticmethod
    def in_worker(action):
        """A block_fn that does action(b) in a forked worker and returns zeros in the caller's process."""
        parent = os.getpid()

        def block(b, m):
            if os.getpid() != parent:
                action(b)
            return np.zeros(m)

        return block

    def test_normal_return(self, forking):
        parent = os.getpid()
        got = self.run(lambda b, m: np.full(m, b + (os.getpid() != parent) / 2))
        assert got.tolist() == [b + (b >= 2) / 2 for b in range(4) for _ in range(EMP_BLOCK)]
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [CovarianceError("covariance is not symmetric"), MemoryError("no room"),
                                     KeyError("k")])
    def test_worker_exception_reraises_with_its_type(self, forking, exc):
        def fail(b):
            raise exc

        with pytest.raises(type(exc)) as info:
            self.run(self.in_worker(fail))
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        assert_no_child_left()

    def test_unpicklable_exception_still_reaches_the_caller(self, forking):
        class Local(ValueError):
            pass

        def fail(b):
            raise Local("cannot be pickled")

        with pytest.raises(simulate.WorkerError, match="Local: cannot be pickled"):
            self.run(self.in_worker(fail))
        assert_no_child_left()

    def test_worker_ended_by_a_signal(self, forking):
        with pytest.raises(simulate.WorkerError, match=f"worker process ended by signal {int(signal.SIGKILL)}$") as info:
            self.run(self.in_worker(lambda b: os.kill(os.getpid(), signal.SIGKILL)))
        assert isinstance(info.value, RuntimeError)
        assert_no_child_left()

    def test_worker_that_exits_without_an_exception(self, forking):
        with pytest.raises(simulate.WorkerError, match="^worker process exited with status 3$"):
            self.run(self.in_worker(lambda b: os._exit(3)))
        assert_no_child_left()

    def test_worker_that_sends_short_data(self, forking):
        with pytest.raises(simulate.WorkerError, match=f"worker process sent 0 of {8 * self.R // 2} bytes"):
            self.run(self.in_worker(lambda b: os._exit(0)))
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_caller_exception_kills_a_running_worker(self, forking, exc):
        parent = os.getpid()

        def block(b, m):
            if os.getpid() != parent:
                time.sleep(60)
            raise exc("in the caller's own blocks")

        started = time.perf_counter()
        with pytest.raises(exc):
            self.run(block, threads=4)
        assert time.perf_counter() - started < 30
        assert_no_child_left()


WORKER_STDIO = """
import os, sys
import numpy as np
from supgauss import simulate
simulate._cpus = lambda: 2
parent = os.getpid()
sys.stdout.write("buffered ")  # stdout is a pipe: this stays in the buffer across the fork

def block(b, m):
    if os.getpid() != parent:
        raise ValueError("in a worker")
    return np.zeros(m)

try:
    simulate._run_blocks([simulate.Job(block, 32, 8, simulate.FORK_WORK / 32, "x", simulate.RngPolicy(0))], 2)
except ValueError:
    sys.stdout.write("caught by " + ("the parent" if os.getpid() == parent else "a worker"))
"""


def test_workers_leave_by_os_exit_without_unwinding_or_flushing():
    """A worker never runs the caller's handlers and never flushes the buffer it inherited."""
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", WORKER_STDIO], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "buffered caught by the parent", "")
