"""Smooth maximum, its derivative aggregates, and smoothed set indicators.

The smooth max of a vector x at inverse temperature beta is
beta^{-1} log sum_j exp(beta x_j); it sandwiches the hard maximum within an
additive beta^{-1} log p.  The smoothed indicator of a set A on the line is
the Gaussian convolution (at scale beta^{-1}) of the delta-Lipschitz hat
function built on the delta-enlargement of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def smooth_max(x, beta: float):
    """Stable log-sum-exp smooth maximum beta^{-1} log sum_j e^{beta x_j}.

    Reduces over the last axis: a float for a vector, one value per row for a
    (rows, p) array.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        raise ValueError("input vector must be nonempty")
    if beta <= 0:
        raise ValueError("beta must be positive")
    m = x.max(axis=-1)
    total = np.exp(beta * (x - m[..., None])).sum(axis=-1)
    if x.ndim == 1:  # math.log: np.log differs from it in the last bit on some inputs
        return float(m) + math.log(float(total)) / beta
    return m + np.log(total) / beta


@dataclass(frozen=True)
class SmoothMaxDerivs:
    """First and second derivative weights of the smooth max, plus the
    aggregate absolute third-derivative sum (never materialized as a tensor)."""

    pi: np.ndarray
    w: np.ndarray
    q_sum: float


def softmax_weights(x, beta: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("input vector must be nonempty")
    if beta <= 0:
        raise ValueError("beta must be positive")
    z = np.exp(beta * (x - x.max()))
    return z / z.sum()


def smooth_max_derivs(x, beta: float) -> SmoothMaxDerivs:
    """Gradient weights pi, Hessian weights w, and sum |q| of the smooth max.

    pi_j = softmax(beta x)_j, w_jk = pi_j delta_jk - pi_j pi_k, and the third
    derivatives q_jkl group by coincidence pattern of (j, k, l), which lets
    sum |q| collapse to O(p) work:

      j=k=l:            pi (1 - pi)(1 - 2 pi)
      exactly two equal: three sums, each pi_a pi_b (2 pi_a - 1) in absolute value
      all distinct:     2 pi_j pi_k pi_l, summing to 2 (1 - 3 s2 + 2 s3)

    with s2 = sum pi^2, s3 = sum pi^3.
    """
    pi = softmax_weights(x, beta)
    w = np.diag(pi) - np.outer(pi, pi)
    s2 = float(np.sum(pi**2))
    s3 = float(np.sum(pi**3))
    pairwise = float(np.sum(pi * (1 - pi) * np.abs(1 - 2 * pi)))
    distinct = max(0.0, 1.0 - 3 * s2 + 2 * s3)
    q_sum = 4.0 * pairwise + 2.0 * distinct
    return SmoothMaxDerivs(pi=pi, w=w, q_sum=q_sum)


def epsilon_beta_delta(beta: float, delta: float) -> float:
    """Smoothing tolerance sqrt(e^{-alpha}(1+alpha)), alpha = beta^2 delta^2 - 1."""
    if beta <= 0 or delta <= 0:
        raise ValueError("beta and delta must be positive")
    alpha = beta * beta * delta * delta - 1.0
    if alpha <= 0 and beta * delta > 1:
        raise FloatingPointError(f"alpha = beta^2 delta^2 - 1 loses its sign in floats "
                                 f"(beta = {beta!r}, delta = {delta!r})")
    if alpha <= 0:
        raise ValueError("alpha must be positive (requires beta * delta > 1)")
    return math.sqrt(math.exp(-alpha) * (1.0 + alpha))


def _merge_intervals(intervals):
    ivals = sorted((float(a), float(b)) for a, b in intervals)
    if not ivals:
        raise ValueError("set must contain at least one interval")
    merged = [list(ivals[0])]
    for a, b in ivals[1:]:
        if b < a:
            raise ValueError("interval endpoints must be ordered")
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


@dataclass(frozen=True)
class IndicatorSmoothing:
    """Smoothed indicator parameters for a finite union of closed intervals."""

    intervals: tuple
    delta: float
    beta: float
    epsilon: float = field(init=False)  # epsilon_beta_delta(beta, delta)

    def __post_init__(self):
        merged = tuple(_merge_intervals(self.intervals))
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        eps = epsilon_beta_delta(self.beta, self.delta)
        object.__setattr__(self, "intervals", merged)
        object.__setattr__(self, "epsilon", eps)

    def enlarged(self, by: float):
        """The by-enlargement of the set, as merged disjoint intervals."""
        return _merge_intervals([(a - by, b + by) for a, b in self.intervals])

    def contains(self, t, enlargement: float = 0.0) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=bool)
        for a, b in self.enlarged(enlargement):
            out |= (t >= a) & (t <= b)
        return out

    def hat_breakpoints(self):
        """Breakpoints and values of h(t) = (1 - dist(t, A^delta)/delta)_+.

        h is piecewise linear: 1 on each delta-enlarged interval, ramping down
        at slope 1/delta outside; overlapping ramps between nearby intervals
        meet at the gap midpoint.
        """
        d = self.delta
        enlarged = self.enlarged(d)
        xs, hs = [], []
        first_a = enlarged[0][0]
        xs += [first_a - d, first_a]
        hs += [0.0, 1.0]
        for (a1, b1), (a2, b2) in zip(enlarged, enlarged[1:]):
            gap = a2 - b1
            if gap >= 2 * d:
                xs += [b1, b1 + d, a2 - d, a2]
                hs += [1.0, 0.0, 0.0, 1.0]
            else:
                mid = 0.5 * (b1 + a2)
                xs += [b1, mid, a2]
                hs += [1.0, 1.0 - gap / (2 * d), 1.0]
        last_b = enlarged[-1][1]
        xs += [last_b, last_b + d]
        hs += [1.0, 0.0]
        return np.asarray(xs), np.asarray(hs)


def smoothed_indicator(smoothing: IndicatorSmoothing, t) -> np.ndarray:
    """Gaussian convolution at scale beta^{-1} of the hat function, exactly.

    Each linear segment of the hat integrates against the normal density in
    terms of the normal cdf and pdf, so the value is closed-form up to erf.
    Satisfies (1 - eps) 1_A(t) <= g(t) <= eps + (1 - eps) 1_{A^{3 delta}}(t).
    """
    from scipy.special import ndtr

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    scalar = np.ndim(t) == 0
    beta = smoothing.beta
    xs, hs = smoothing.hat_breakpoints()
    total = np.zeros_like(t_arr)
    for u, v, hu, hv in zip(xs[:-1], xs[1:], hs[:-1], hs[1:]):
        if v <= u:
            continue
        b = (hv - hu) / (v - u)
        a = hu - b * u
        zu = beta * (u - t_arr)
        zv = beta * (v - t_arr)
        cdf_part = (a + b * t_arr) * (ndtr(zv) - ndtr(zu))
        pdf_part = (b / beta) * (_phi(zu) - _phi(zv))
        total += cdf_part + pdf_part
    return float(total[0]) if scalar else total


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
