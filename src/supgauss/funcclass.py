"""Discretized function classes: covering numbers, entropy integrals, products.

A class is a finite family f_1..f_N of real functions on a sample space,
together with a pointwise envelope F >= max_j |f_j|.  Covering numbers are
taken in the L2(Q) semimetric of a finite discrete measure Q, at radii
expressed as fractions of the envelope norm ||F||_{Q,2}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

_E = math.e


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely discrete probability measure: atoms plus positive weights."""

    points: np.ndarray
    weights: np.ndarray
    measure_id: str = ""

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, points, measure_id: str = "uniform") -> "DiscreteMeasure":
        points = np.asarray(points)
        m = points.shape[0]
        return cls(points, np.full(m, 1.0 / m), measure_id)


@dataclass(frozen=True)
class DiscretizedClass:
    """Finite family of evaluable functions with an envelope.

    ``evaluate(batch)`` returns an (m, N) matrix of function values at the m
    sample points of ``batch``; ``envelope(batch)`` the corresponding (m,)
    envelope values.  ``batch`` is whatever the family's sample space uses
    (an array of points, a (Y, X) tuple, ...).
    """

    evaluate: callable
    envelope: callable
    size: int
    centered: bool = False
    vc_meta: tuple[float, float] | None = None  # (A, v)
    # optional fast path: column_sums(batch) == evaluate(batch).sum(axis=0)
    # within 1e-12 of each column's sum of |summands|; sum_columns uses it to
    # avoid materializing the full (n, N) value matrix
    column_sums: callable | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("class must contain at least one function")
        if self.vc_meta is not None:
            A, v = self.vc_meta
            if A < _E or v < 1:
                raise ValueError("vc_meta requires A >= e and v >= 1")

    @classmethod
    def from_matrix(
        cls,
        values: np.ndarray,
        envelope_values: np.ndarray | None = None,
        **kwargs,
    ) -> "DiscretizedClass":
        """Tabular class: rows are sample atoms, columns function values.

        The sample space is the row index; batches are integer index arrays.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        if envelope_values is None:
            envelope_values = np.abs(values).max(axis=1)
        envelope_values = np.asarray(envelope_values, dtype=float)
        if envelope_values.shape[0] != values.shape[0]:
            raise ValueError("envelope length must match the number of atoms")
        if np.any(np.abs(values).max(axis=1) > envelope_values + 1e-12):
            raise ValueError("envelope does not dominate the family")
        return cls(
            evaluate=lambda idx: values[np.asarray(idx, dtype=int)],
            envelope=lambda idx: envelope_values[np.asarray(idx, dtype=int)],
            size=values.shape[1],
            **kwargs,
        )

    @classmethod
    def from_functions(cls, funcs, envelope, **kwargs) -> "DiscretizedClass":
        """Class from a list of vectorized callables and an envelope callable."""
        funcs = list(funcs)

        def evaluate(batch):
            return np.column_stack([np.asarray(f(batch), dtype=float) for f in funcs])

        return cls(evaluate=evaluate, envelope=envelope, size=len(funcs), **kwargs)

    @classmethod
    def from_csv(cls, path, **kwargs) -> "DiscretizedClass":
        """Text matrix format: header row, one row per atom, last column envelope."""
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2:
            raise ValueError("matrix file needs a header and at least one atom row")
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        if data.shape[1] < 2:
            raise ValueError("matrix file needs at least one function column plus envelope")
        return cls.from_matrix(data[:, :-1], data[:, -1], **kwargs)

    def sum_columns(self, batch) -> np.ndarray:
        """(N,) column sums of evaluate(batch), by the fast path when the class has one."""
        if self.column_sums is not None:
            return self.column_sums(batch)
        return self.evaluate(batch).sum(axis=0)

    def atom_measure(self, n_atoms: int, weights=None, measure_id: str = "atoms") -> DiscreteMeasure:
        """Measure over the first n_atoms row indices of a tabular class."""
        idx = np.arange(n_atoms)
        if weights is None:
            return DiscreteMeasure.uniform(idx, measure_id)
        return DiscreteMeasure(idx, weights, measure_id)

    def envelope_violations(self, batch) -> int:
        """Number of points where max_j |f_j| exceeds the envelope."""
        vals = np.abs(self.evaluate(batch)).max(axis=1)
        env = np.asarray(self.envelope(batch), dtype=float)
        return int(np.sum(vals > env + 1e-12))

    def vc_bound_violations(self, measure, epsilons) -> int:
        """Number of tested epsilons where N(eps) exceeds (A/eps)^v.

        Requires vc_meta; measured with the greedy covering number, which can
        only over-count, so zero violations certifies the tagged bound on the
        tested grid.
        """
        if self.vc_meta is None:
            raise ValueError("class carries no vc_meta")
        A, v = self.vc_meta
        bad = 0
        for eps in np.asarray(epsilons, dtype=float):
            if covering_number(self, measure, eps) > (A / eps) ** v + 1e-9:
                bad += 1
        return bad


@dataclass(frozen=True)
class CoveringReport:
    """Covering numbers over an epsilon grid under one discrete measure."""

    epsilons: np.ndarray
    counts: np.ndarray
    measure_id: str

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        cnt = np.asarray(self.counts, dtype=int)
        if np.any(np.diff(eps) <= 0):
            raise ValueError("epsilon grid must be strictly increasing")
        if np.any(np.diff(cnt) > 0):
            raise ValueError("covering counts must be non-increasing in epsilon")
        if np.any(cnt < 1):
            raise ValueError("covering counts must be positive")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "counts", cnt)


@dataclass(frozen=True)
class EntropyProfile:
    """Entropy-integral values J(delta) on a delta grid."""

    delta_grid: np.ndarray
    J_values: np.ndarray
    source: str  # "empirical" or "vc_closed_form"


def _distance_geometry(cls: DiscretizedClass, measure: DiscreteMeasure):
    """Pairwise e_Q distances and the envelope norm ||F||_{Q,2}."""
    vals = cls.evaluate(measure.points)
    sw = np.sqrt(measure.weights)[:, None]
    scaled = vals * sw
    gram = scaled.T @ scaled
    diag = np.diag(gram)
    sq = np.maximum(diag[:, None] + diag[None, :] - 2 * gram, 0.0)
    dist = np.sqrt(sq)
    env = np.asarray(cls.envelope(measure.points), dtype=float)
    env_norm = math.sqrt(float(measure.weights @ env**2))
    return dist, env_norm


def covering_number(cls: DiscretizedClass, measure: DiscreteMeasure, epsilon: float) -> int:
    """Greedy farthest-point net size at radius epsilon * ||F||_{Q,2}.

    Nets are internal and use the strict-radius convention (a point is covered
    when its distance to a center is < radius).  The greedy count always lies
    between the minimal covering number at epsilon and the minimal covering
    number at epsilon/2.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    dist, env_norm = _distance_geometry(cls, measure)
    if env_norm <= 0:
        raise ValueError("degenerate envelope")
    radius = epsilon * env_norm
    return _greedy_net_size(dist, radius)


def _greedy_net_size(dist: np.ndarray, radius: float) -> int:
    # Farthest-point traversal from index 0; ties resolved by lowest index.
    nearest = dist[0].copy()
    count = 1
    while True:
        far = int(np.argmax(nearest))
        if nearest[far] < radius:
            return count
        count += 1
        nearest = np.minimum(nearest, dist[far])


def exhaustive_min_cover(cls: DiscretizedClass, measure: DiscreteMeasure, epsilon: float, max_size: int = 12) -> int:
    """Minimal internal net size by subset enumeration (oracle; N <= max_size)."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    dist, env_norm = _distance_geometry(cls, measure)
    if env_norm <= 0:
        raise ValueError("degenerate envelope")
    n = dist.shape[0]
    if n > max_size:
        raise ValueError(f"exhaustive search limited to families of size {max_size}")
    radius = epsilon * env_norm
    covered = dist < radius
    # bitmask per candidate center: which points it covers
    masks = [sum(1 << j for j in range(n) if covered[i, j]) for i in range(n)]
    full = (1 << n) - 1
    for m in range(1, n + 1):
        for subset in combinations(range(n), m):
            acc = 0
            for i in subset:
                acc |= masks[i]
            if acc == full:
                return m
    return n


def covering_report(cls: DiscretizedClass, measure: DiscreteMeasure, epsilons) -> CoveringReport:
    counts = [covering_number(cls, measure, e) for e in np.asarray(epsilons, dtype=float)]
    return CoveringReport(np.asarray(epsilons, dtype=float), np.asarray(counts), measure.measure_id)


def _entropy_integrand(cls: DiscretizedClass, measures, epsilons: np.ndarray) -> np.ndarray:
    """max over measures of sqrt(1 + log N(eps)) on the epsilon grid."""
    out = np.zeros_like(epsilons)
    for q in measures:
        counts = np.array([covering_number(cls, q, e) for e in epsilons], dtype=float)
        out = np.maximum(out, np.sqrt(1.0 + np.log(counts)))
    return out


def _eps_grid(delta: float, points: int = 64) -> np.ndarray:
    lo = min(1e-3, delta / 10)
    return np.geomspace(lo, delta, points)


def entropy_integral(cls: DiscretizedClass, delta: float, measures) -> float:
    """Quadrature value of int_0^delta max_Q sqrt(1 + log N(eps)) d eps.

    The max runs over the supplied measures only, so the value is a lower
    proxy for the entropy integral with the supremum over all finitely
    discrete measures.  Trapezoid rule on a geometric grid; the head
    [0, eps_min] contributes eps_min times the integrand at eps_min.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    measures = list(measures)
    if not measures:
        raise ValueError("at least one measure is required")
    eps = _eps_grid(delta)
    g = _entropy_integrand(cls, measures, eps)
    return float(np.trapezoid(g, eps) + eps[0] * g[0])


def entropy_profile(cls: DiscretizedClass, delta_grid, measures, points: int = 64) -> EntropyProfile:
    """J(delta) on a grid, from one shared cumulative quadrature.

    All deltas integrate the same piecewise-linear interpolant of the
    (non-increasing) integrand, so the profile shape properties -- J
    non-decreasing, J(delta)/delta non-increasing, J(c delta) <= c J(delta) --
    hold exactly on the grid.
    """
    delta_grid = np.sort(np.asarray(delta_grid, dtype=float))
    if np.any(delta_grid <= 0) or delta_grid[-1] > 1:
        raise ValueError("delta grid must lie in (0, 1]")
    measures = list(measures)
    if not measures:
        raise ValueError("at least one measure is required")
    eps = np.unique(np.concatenate([_eps_grid(delta_grid[-1], points), delta_grid]))
    g = _entropy_integrand(cls, measures, eps)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(eps))])
    head = eps[0] * g[0]
    J = head + np.interp(delta_grid, eps, cum)
    return EntropyProfile(delta_grid, J, source="empirical")


def vc_entropy_bound(A: float, v: float, delta: float) -> float:
    """Closed-form entropy-integral majorant 2 sqrt(2v) delta sqrt(log(A/delta))."""
    if A < _E:
        raise ValueError("A must be at least e")
    if v < 1:
        raise ValueError("v must be at least 1")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if A / delta < _E:
        raise ValueError("A/delta must be at least e")
    return 2.0 * math.sqrt(2.0 * v) * delta * math.sqrt(math.log(A / delta))


def product_class(left: DiscretizedClass, right: DiscretizedClass) -> DiscretizedClass:
    """Pointwise-product family {f * g} with envelope F * G."""

    def evaluate(batch):
        a = left.evaluate(batch)
        b = right.evaluate(batch)
        return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)

    def envelope(batch):
        return np.asarray(left.envelope(batch), dtype=float) * np.asarray(right.envelope(batch), dtype=float)

    return DiscretizedClass(
        evaluate=evaluate,
        envelope=envelope,
        size=left.size * right.size,
        centered=False,
    )
