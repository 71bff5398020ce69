"""Closed-form coupling and empirical-process bounds with traceable reports.

Each universal constant left free by the underlying inequalities is fixed at
1 or an explicit parameter (default 1.0) echoed in the report, so each number
a report carries traces back to a formula plus the constants used.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MomentInputs:
    """Moment summaries feeding the supremum coupling budget.

    ``H_profile(eps)`` is log(N(eps) v n) for the covering of the class at
    radius eps * ||F||_{P,2}; ``phi_profile(eps)`` bounds the expected sup of
    the process over eps-close pairs; ``tail_fn(u)`` is
    P[(F/kappa)^3 1(F/kappa > u)].
    """

    n: int
    sigma: float
    b: float  # envelope scale ||F||_{P,2} (and >= sigma)
    q: float
    M2: float  # ||M||_2
    Mq: float  # ||M||_q
    kappa: float
    EG_FF: float
    H_profile: callable
    phi_profile: callable
    tail_fn: callable

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("sample size must be at least 3")
        if self.sigma > self.b:
            raise ValueError("sigma cannot exceed the envelope scale b")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.M2 > self.Mq + 1e-12:
            raise ValueError("||M||_2 cannot exceed ||M||_q for q >= 2")
        logn = math.log(self.n)
        probe = np.linspace(0.05, 1.0, 8)
        vals = np.array([self.H_profile(e) for e in probe])
        if np.any(vals < logn - 1e-9):
            raise ValueError("H_profile must be at least log n")
        if np.any(np.diff(vals) > 1e-9):
            raise ValueError("H_profile must be non-increasing in epsilon")


@dataclass(frozen=True)
class CouplingBudget:
    """Named components of the coupling error budget and its probability bound."""

    terms: dict
    delta_n_tail: float
    prob_bound_raw: float
    constants_used: dict

    @property
    def delta_n(self) -> float:
        return sum(self.terms.values())

    @property
    def prob_bound(self) -> float:
        return min(max(self.prob_bound_raw, 0.0), 1.0)

    @property
    def threshold(self) -> float:
        """The coupling threshold K(q) * Delta_n implied by the budget."""
        return self.constants_used["K_q"] * self.delta_n

    def as_dict(self) -> dict:
        out = dict(self.terms)
        out.update(
            delta_n=self.delta_n,
            delta_n_tail=self.delta_n_tail,
            threshold=self.threshold,
            prob_bound_raw=self.prob_bound_raw,
            prob_bound=self.prob_bound,
            constants_used=dict(self.constants_used),
        )
        return out


def _finite(quantities: dict, n) -> None:
    """Raise OverflowError naming the first quantity that float multiplication or addition carried to inf at n."""
    for name, value in quantities.items():
        if not math.isfinite(value):
            raise OverflowError(f"{name} overflows a float at n = {n:.6g}")


def coupling_budget(
    inputs: MomentInputs,
    epsilon: float,
    gamma: float,
    K_q: float = 1.0,
    c_const: float = 1.0,
    C_log: float = 1.0,
) -> CouplingBudget:
    """Six-term coupling error budget for a supremum statistic.

    Returns the additive budget

        phi + gamma^{-1/q} eps b + n^{-1/2} gamma^{-1/q} ||M||_q
        + n^{-1/2} gamma^{-2/q} ||M||_2
        + n^{-1/4} gamma^{-1/2} EG_FF^{1/2} H^{1/2}
        + n^{-1/6} gamma^{-1/3} kappa H^{2/3}

    together with the tail correction delta_n and the probability bound
    gamma (1 + delta_n) + C_log log(n)/n.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    if inputs.q < 3:
        raise ValueError("the coupling budget requires q >= 3")
    n, q = inputs.n, inputs.q
    H = float(inputs.H_profile(epsilon))
    try:
        root_n = n**-0.5
    except OverflowError:  # an integer n past the largest float
        raise OverflowError(f"n^-1/2 overflows a float at n = 10^{math.log10(n):.6g}") from None
    terms = {
        "phi": float(inputs.phi_profile(epsilon)),
        "eps_term": gamma ** (-1.0 / q) * epsilon * inputs.b,
        "Mq_term": root_n * gamma ** (-1.0 / q) * inputs.Mq,
        "M2_term": root_n * gamma ** (-2.0 / q) * inputs.M2,
        "FF_term": n**-0.25 * gamma**-0.5 * math.sqrt(inputs.EG_FF) * math.sqrt(H),
        "kappa_term": n ** (-1.0 / 6.0) * gamma ** (-1.0 / 3.0) * inputs.kappa * H ** (2.0 / 3.0),
    }
    tail_arg = c_const * gamma ** (-1.0 / 3.0) * n ** (1.0 / 3.0) * H ** (-1.0 / 3.0)
    try:
        delta_n_tail = 0.25 * float(inputs.tail_fn(tail_arg))
    except OverflowError:  # a power inside the tail profile past the largest float
        raise OverflowError(f"delta_n_tail overflows a float at n = {n:.6g}") from None
    prob_raw = gamma * (1.0 + delta_n_tail) + C_log * math.log(n) / n
    budget = CouplingBudget(
        terms=terms,
        delta_n_tail=delta_n_tail,
        prob_bound_raw=prob_raw,
        constants_used={"K_q": K_q, "c_const": c_const, "C_log": C_log},
    )
    _finite({**terms, "delta_n": budget.delta_n, "threshold": budget.threshold, "prob_bound_raw": prob_raw}, n)
    return budget


@dataclass(frozen=True)
class VcBudget:
    """Three-term coupling budget specialized to VC type classes."""

    terms: dict
    K_n: float
    prob_bound_raw: float
    constants_used: dict

    @property
    def total(self) -> float:
        return sum(self.terms.values())

    @property
    def prob_bound(self) -> float:
        return min(max(self.prob_bound_raw, 0.0), 1.0)


def vc_class_budget(
    n: int,
    gamma: float,
    q: float,
    b: float,
    sigma: float,
    A: float,
    v: float,
    c_const: float = 1.0,
) -> VcBudget:
    """Coupling budget b K_n / (g^{1/2} n^{1/2-1/q}) + (b s)^{1/2} K_n^{3/4} / (g^{1/2} n^{1/4})
    + (b s^2 K_n^2)^{1/3} / (g^{1/3} n^{1/6}) for VC classes, with K_n = c v (log n v log(A b / sigma)), 1/q reading
    as 0 at q = inf, and the probability bound gamma + log(n)/n."""
    if sigma > b:
        raise ValueError("sigma cannot exceed b")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    if not (4 <= q):
        raise ValueError("q must be in [4, inf]")
    if A * b / sigma < math.e:
        raise ValueError("A b / sigma must be at least e")
    if n < 3:
        raise ValueError("sample size must be at least 3")
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    K_n = c_const * v * max(math.log(n), math.log(A * b / sigma))
    try:
        variance_scale = b * sigma**2 * K_n**2
    except OverflowError:
        raise OverflowError(f"b sigma^2 K_n^2 overflows a float at n = {n}, sigma = {sigma!r}") from None
    terms = {
        "envelope_term": b * K_n / (gamma**0.5 * n ** (0.5 - inv_q)),
        "mixed_term": math.sqrt(b * sigma) * K_n**0.75 / (gamma**0.5 * n**0.25),
        "variance_term": variance_scale ** (1.0 / 3.0) / (gamma ** (1.0 / 3.0) * n ** (1.0 / 6.0)),
    }
    prob_raw = gamma + math.log(n) / n
    budget = VcBudget(
        terms=terms,
        K_n=K_n,
        prob_bound_raw=prob_raw,
        constants_used={"c_const": c_const},
    )
    _finite({"K_n": K_n, **terms, "total": budget.total, "prob_bound_raw": prob_raw}, n)
    return budget


@dataclass(frozen=True)
class SteinCouplingTerms:
    """Moment terms B1, B2, B4 and the applied coupling probability bound they imply."""

    B1: float
    B2: float
    B4: float
    delta: float
    p: int
    n: int
    prob_raw_cor: float

    def __post_init__(self):
        for name in ("B1", "B2", "B4"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class AnalyticVectorMoments:
    """Analytic moment summaries for n independent p-vectors.

    ``b3_tail(thr)`` returns sum_i E[max_j |X_ij|^3 1(max_j |X_ij| > thr)].
    """

    B1: float
    B2: float
    b3_tail: callable


def stein_coupling_terms(moments: AnalyticVectorMoments, delta: float, n: int, p: int,
                         c_const: float = 1.0) -> SteinCouplingTerms:
    """Coupling terms for the maximum of a sum of independent p-vectors.

    B1 is the expected max entry deviation of the empirical second-moment
    matrix, B2 the expected max column sum of |X|^3, and B4 the truncated
    third-moment tail at threshold delta / log(p v n).  Returns the applied
    bound delta^{-2} (B1 + delta^{-1} (B2 + B4) log(p v n)) log(p v n)
    + log(n)/n, scaled by the exposed constant.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if max(p, n) < 3:
        raise ValueError("max(p, n) must be at least 3")
    L = math.log(max(p, n))
    B1, B2 = moments.B1, moments.B2
    B4 = float(moments.b3_tail(delta / L))
    try:
        delta2 = delta**2
    except OverflowError:
        raise OverflowError(f"delta^2 overflows a float at delta = {delta!r}") from None
    if delta2 == 0.0:
        raise FloatingPointError(f"delta^2 underflows to 0 at delta = {delta!r}")
    prob_cor = c_const * ((B1 + (B2 + B4) * L / delta) * L / delta2 + math.log(n) / n)
    return SteinCouplingTerms(B1=B1, B2=B2, B4=B4, delta=delta, p=p, n=n, prob_raw_cor=prob_cor)


def yurinskii_bound(p: int, delta: float, sum_third_moments: float) -> float:
    """Whole-vector coupling bound B0 (1 + |log(1/B0)| / p), B0 = p delta^{-3} sum E|X_i|^3."""
    if p < 1 or delta <= 0 or sum_third_moments <= 0:
        raise ValueError("inputs must be positive")
    try:
        B0 = p * delta**-3 * sum_third_moments
    except OverflowError:  # delta^-3 alone past the largest float
        B0 = math.inf
    if math.isinf(B0):
        raise OverflowError(f"B0 = p delta^-3 sum E|X_i|^3 overflows a float at delta = {delta!r}")
    if B0 < sys.float_info.min:  # below it 1 / B0 overflows to inf or B0 is 0
        raise FloatingPointError(f"B0 = p delta^-3 sum E|X_i|^3 underflows the float range at delta = {delta!r}")
    return B0 * (1.0 + abs(math.log(1.0 / B0)) / p)


@dataclass(frozen=True)
class CrossoverRow:
    n: int
    p: int
    cor_bound: float
    yurinskii: float


def crossover_sweep(n_list, delta: float, b: float = 1.0, c_const: float = 1.0):
    """Compare the maxima-coupling and whole-vector coupling bounds along a
    growth profile p_n = ceil(exp(n^{0.2})) with coordinates |X_ij| <= b / sqrt(n).

    Moment profile for bounded coordinates: B1 = b^2 sqrt(log(1 + p) / n),
    B2 = b^3 / sqrt(n), B4 thresholds at b / sqrt(n), and
    sum_i E|X_i|^3 <= b^3 p^{3/2} / sqrt(n).  Returns the per-n rows and the
    first n (if any) where the whole-vector bound exceeds the maxima bound.
    """
    try:
        b3 = b**3
    except OverflowError:
        raise OverflowError(f"b^3 overflows a float at b = {b!r}") from None
    rows = []
    for n in n_list:
        if n < 3:
            raise ValueError("sample sizes must be at least 3")
        try:
            p = math.ceil(math.exp(n**0.2))
            p15 = p**1.5
        except OverflowError:
            raise OverflowError(f"p^1.5 with p = ceil(exp(n^0.2)) overflows a float at n = {n:.6g}") from None
        coord = b / math.sqrt(n)
        moments = AnalyticVectorMoments(
            B1=b * b * math.sqrt(math.log1p(p) / n),
            B2=b3 / math.sqrt(n),
            b3_tail=lambda thr, c=coord, n_=n: (b3 / math.sqrt(n_)) if c > thr else 0.0,
        )
        terms = stein_coupling_terms(moments, delta=delta, n=n, p=p, c_const=c_const)
        third = b3 * p15 / math.sqrt(n)
        if third == 0.0:
            raise FloatingPointError(f"b^3 p^1.5 / sqrt(n) underflows to 0 at b = {b!r}")
        yur = yurinskii_bound(p, delta, third)
        rows.append(CrossoverRow(n=n, p=p, cor_bound=terms.prob_raw_cor, yurinskii=yur))
    crossover_n = None
    for row in rows:
        if row.yurinskii > row.cor_bound:
            crossover_n = row.n
            break
    return rows, crossover_n
