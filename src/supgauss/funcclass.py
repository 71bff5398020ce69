"""Discretized function classes: covering numbers, entropy integrals, products.

A class is a finite family f_1..f_N of real functions on a sample space,
optionally with a pointwise envelope F >= max_j |f_j|.  Covering numbers are
taken in the L2(Q) semimetric of a finite discrete measure Q, at radii
expressed as fractions of the envelope norm ||F||_{Q,2}, so they need one.
"""

from __future__ import annotations

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
    def uniform(cls, points) -> "DiscreteMeasure":
        points = np.asarray(points)
        m = points.shape[0]
        return cls(points, np.full(m, 1.0 / m))


@dataclass(frozen=True)
class DiscretizedClass:
    """Finite family of evaluable functions, with an optional envelope.

    ``evaluate(batch)`` returns an (m, N) matrix of function values at the m
    sample points of ``batch``; ``envelope(batch)``, when given, the
    corresponding (m,) envelope values, which only covering numbers read.
    ``batch`` is whatever the family's sample space uses (an array of points,
    a (Y, X) tuple, ...).
    """

    evaluate: callable
    size: int
    envelope: callable | None = None
    centered: bool = False
    # optional fast path: column_sums(batch) == evaluate(batch).sum(axis=0)
    # within 1e-12 of each column's sum of |summands|; sum_columns uses it to
    # avoid materializing the full (n, N) value matrix
    column_sums: callable | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("class must contain at least one function")

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

    def sum_columns(self, batch) -> np.ndarray:
        """(N,) column sums of evaluate(batch), by the fast path when the class has one."""
        if self.column_sums is not None:
            return self.column_sums(batch)
        return self.evaluate(batch).sum(axis=0)

    def atom_measure(self, n_atoms: int) -> DiscreteMeasure:
        """Uniform measure over the first n_atoms row indices of a tabular class."""
        return DiscreteMeasure.uniform(np.arange(n_atoms))


def _distance_geometry(cls: DiscretizedClass, measure: DiscreteMeasure):
    """Pairwise e_Q distances and the envelope norm ||F||_{Q,2}."""
    if cls.envelope is None:
        raise ValueError("covering numbers need a class envelope")
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
    eps = np.geomspace(min(1e-3, delta / 10), delta, 64)
    g = np.zeros_like(eps)  # max over measures of sqrt(1 + log N(eps))
    for q in measures:
        counts = np.array([covering_number(cls, q, e) for e in eps], dtype=float)
        g = np.maximum(g, np.sqrt(1.0 + np.log(counts)))
    return float(np.trapezoid(g, eps) + eps[0] * g[0])


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
    """Pointwise-product family {f * g} with envelope F * G, or none if a factor has none."""

    def evaluate(batch):
        a = left.evaluate(batch)
        b = right.evaluate(batch)
        return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)

    def envelope(batch):
        return np.asarray(left.envelope(batch), dtype=float) * np.asarray(right.envelope(batch), dtype=float)

    return DiscretizedClass(
        evaluate=evaluate,
        envelope=None if left.envelope is None or right.envelope is None else envelope,
        size=left.size * right.size,
        centered=False,
    )
