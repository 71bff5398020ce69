"""Smooth-max, derivative aggregates, smoothed indicator, and tolerance tests."""

import math

import numpy as np
import pytest

from supgauss.smoothmax import (
    IndicatorSmoothing,
    epsilon_beta_delta,
    smooth_max,
    smooth_max_derivs,
    smoothed_indicator,
)


class TestSmoothMax:
    def test_constant_vector_hits_upper_bound(self):
        for p in (1, 2, 7, 100):
            c = -1.3
            val = smooth_max(np.full(p, c), beta=2.5)
            assert val == pytest.approx(c + math.log(p) / 2.5, abs=1e-12)

    def test_closed_form_two_point(self):
        # beta^{-1} log(e^{beta} + 1) at x = (1, 0), beta = 2
        expected = 0.5 * math.log(math.exp(2.0) + 1.0)
        assert smooth_max([1.0, 0.0], 2.0) == pytest.approx(expected, rel=1e-14)

    def test_sandwich_random_vectors(self):
        gen = np.random.default_rng(101)
        for _ in range(500):
            p = int(gen.integers(1, 400))
            beta = float(gen.uniform(0.01, 100.0))
            x = gen.standard_normal(p) * 5.0
            val = smooth_max(x, beta)
            assert x.max() <= val + 1e-12
            assert val <= x.max() + math.log(p) / beta + 1e-9

    def test_large_beta_no_overflow(self):
        x = np.array([500.0, -200.0, 499.5])
        val = smooth_max(x, beta=1e3)
        assert val == pytest.approx(500.0, abs=1e-6)

    def test_permutation_and_shift(self):
        gen = np.random.default_rng(7)
        x = gen.standard_normal(12)
        assert smooth_max(x, 1.7) == pytest.approx(smooth_max(x[::-1], 1.7), abs=1e-12)
        assert smooth_max(x + 3.25, 1.7) == pytest.approx(smooth_max(x, 1.7) + 3.25, abs=1e-10)

    def test_rows_of_a_matrix_match_vector_calls(self):
        gen = np.random.default_rng(23)
        for p in (1, 5, 300):
            x = gen.standard_normal((40, p)) * 3.0
            for beta in (0.05, 1.7, 80.0):
                rows = smooth_max(x, beta)
                assert rows.shape == (40,)
                np.testing.assert_allclose(rows, [smooth_max(r, beta) for r in x], rtol=1e-14, atol=1e-14)
        assert isinstance(smooth_max(np.zeros(3), 1.0), float)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            smooth_max([], 1.0)
        with pytest.raises(ValueError):
            smooth_max([1.0], 0.0)


def brute_force_q_sum(pi: np.ndarray) -> float:
    p = pi.size
    total = 0.0
    for j in range(p):
        for k in range(p):
            for l in range(p):
                d_jk = float(j == k)
                d_jl = float(j == l)
                d_kl = float(k == l)
                q = (
                    pi[j] * d_jl * d_jk
                    - pi[j] * pi[l] * d_jk
                    - pi[j] * pi[k] * (d_jl + d_kl)
                    + 2.0 * pi[j] * pi[k] * pi[l]
                )
                total += abs(q)
    return total


class TestDerivatives:
    def test_constant_vector_weights(self):
        d = smooth_max_derivs(np.zeros(4), beta=1.0)
        np.testing.assert_allclose(d.pi, 0.25)
        np.testing.assert_allclose(np.diag(d.w), 3.0 / 16.0)
        off = d.w[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 16.0)

    def test_argmax_limit(self):
        x = np.array([1.0, 0.0, -1.0])
        d = smooth_max_derivs(x, beta=1e3)
        assert d.pi[0] > 0.999

    def test_simplex_and_sum_bounds(self):
        gen = np.random.default_rng(42)
        for _ in range(2000):
            p = int(gen.integers(1, 50))
            beta = float(gen.uniform(0.05, 30.0))
            d = smooth_max_derivs(gen.standard_normal(p) * 2.0, beta)
            assert abs(d.pi.sum() - 1.0) <= 1e-12
            assert np.all(d.pi >= 0)
            assert np.abs(d.w).sum() <= 2.0 + 1e-12
            assert d.q_sum <= 6.0 + 1e-12

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(3)
        h = 1e-5
        for _ in range(30):
            p = int(gen.integers(2, 7))
            beta = float(gen.uniform(0.3, 3.0))
            x = gen.standard_normal(p)
            d = smooth_max_derivs(x, beta)
            fd = np.empty(p)
            for j in range(p):
                e = np.zeros(p)
                e[j] = h
                fd[j] = (smooth_max(x + e, beta) - smooth_max(x - e, beta)) / (2 * h)
            assert np.max(np.abs(fd - d.pi)) / np.max(np.abs(d.pi)) < 1e-6

    def test_hessian_matches_finite_differences(self):
        gen = np.random.default_rng(4)
        h = 1e-4
        for _ in range(15):
            p = int(gen.integers(2, 7))
            beta = float(gen.uniform(0.3, 3.0))
            x = gen.standard_normal(p)
            d = smooth_max_derivs(x, beta)
            hess = np.empty((p, p))
            for j in range(p):
                for k in range(p):
                    ej = np.zeros(p)
                    ek = np.zeros(p)
                    ej[j] = h
                    ek[k] = h
                    hess[j, k] = (
                        smooth_max(x + ej + ek, beta)
                        - smooth_max(x + ej - ek, beta)
                        - smooth_max(x - ej + ek, beta)
                        + smooth_max(x - ej - ek, beta)
                    ) / (4 * h * h)
            target = beta * d.w
            assert np.abs(hess - target).max() / np.abs(target).max() < 1e-4

    def test_q_sum_matches_brute_force_tensor(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            p = int(gen.integers(1, 7))
            beta = float(gen.uniform(0.2, 10.0))
            d = smooth_max_derivs(gen.standard_normal(p) * 2.0, beta)
            assert d.q_sum == pytest.approx(brute_force_q_sum(d.pi), abs=1e-12)


class TestEpsilonBetaDelta:
    def test_closed_form_values(self):
        assert epsilon_beta_delta(1.0, math.sqrt(2.0)) == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-14)
        assert epsilon_beta_delta(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.5), rel=1e-14)

    def test_decreasing_in_delta(self):
        deltas = np.linspace(1.2, 6.0, 40)
        vals = [epsilon_beta_delta(1.0, d) for d in deltas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            beta = float(gen.uniform(0.1, 20.0))
            # keep alpha = (beta delta)^2 - 1 below the exp underflow threshold
            delta = float(gen.uniform(1.01, 25.0)) / beta
            eps = epsilon_beta_delta(beta, delta)
            assert 0.0 < eps < 1.0

    def test_rejects_small_product(self):
        with pytest.raises(ValueError):
            epsilon_beta_delta(1.0, 1.0)

    def test_coupled_choice_decay(self):
        # beta = 2 log(p v n) / delta makes the tolerance at most 2 log(p v n)/(p v n)
        for pn in (3, 7, 30, 1000, 250_000):
            for delta in (0.1, 1.0, 5.0):
                beta = 2.0 * math.log(pn) / delta
                assert epsilon_beta_delta(beta, delta) <= 2.0 * math.log(pn) / pn + 1e-15


class TestSmoothedIndicator:
    def test_plateau_deep_inside(self):
        sm = IndicatorSmoothing(intervals=((0.0, 10.0),), delta=0.2, beta=10.0)
        assert smoothed_indicator(sm, 5.0) >= 1.0 - 1e-6

    def test_vanishes_far_outside(self):
        sm = IndicatorSmoothing(intervals=((0.0, 10.0),), delta=0.2, beta=10.0)
        assert smoothed_indicator(sm, 12.0) <= 1e-6
        assert smoothed_indicator(sm, -2.0) <= 1e-6

    def test_sandwich_on_unit_interval(self):
        sm = IndicatorSmoothing(intervals=((0.0, 1.0),), delta=0.2, beta=10.0)
        eps = sm.epsilon
        t = np.linspace(-2.5, 3.5, 10_000)
        g = smoothed_indicator(sm, t)
        in_a = sm.contains(t)
        in_a3 = sm.contains(t, enlargement=0.6)
        assert np.all(g >= (1 - eps) * in_a - 1e-12)
        assert np.all(g <= eps + (1 - eps) * in_a3 + 1e-12)

    def test_sandwich_multi_interval_overlapping_ramps(self):
        sm = IndicatorSmoothing(intervals=((0.0, 1.0), (1.5, 2.0), (4.0, 4.2)), delta=0.3, beta=8.0)
        t = np.linspace(-2.0, 6.0, 8_000)
        g = smoothed_indicator(sm, t)
        in_a = sm.contains(t)
        in_a3 = sm.contains(t, enlargement=0.9)
        assert np.all(g >= (1 - sm.epsilon) * in_a - 1e-12)
        assert np.all(g <= sm.epsilon + (1 - sm.epsilon) * in_a3 + 1e-12)

    def test_quadrature_oracle(self):
        # closed-form convolution vs direct numerical integration of h against the normal density
        sm = IndicatorSmoothing(intervals=((0.0, 1.0),), delta=0.2, beta=6.0)
        xs, hs = sm.hat_breakpoints()

        def h_of(s):
            return np.interp(s, xs, hs, left=0.0, right=0.0)

        z = np.linspace(-9.0, 9.0, 40_001)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        for t in (-0.5, -0.1, 0.0, 0.3, 0.9, 1.15, 1.6):
            direct = np.trapezoid(h_of(t + z / sm.beta) * phi, z)
            assert smoothed_indicator(sm, t) == pytest.approx(direct, abs=1e-7)

    def test_rejects_small_beta_delta(self):
        with pytest.raises(ValueError):
            IndicatorSmoothing(intervals=((0.0, 1.0),), delta=0.05, beta=10.0)
