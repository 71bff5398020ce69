"""Monte Carlo engine: suprema of empirical processes and their Gaussian analogues.

Replications run in fixed-size blocks, one keyed RNG stream per block
(``GAUSS_BLOCK`` Gaussian or ``EMP_BLOCK`` empirical replications, drawn one
after another from the block's stream), so that results are byte-identical for
a given master seed regardless of execution order or worker count.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .funcclass import DiscretizedClass

_MASK64 = (1 << 64) - 1
# Block indices live in the low 48 bits of the second key word; the
# salt occupies the high 16 bits so differently-salted policies never collide.
_SALT_SHIFT = 48
_INDEX_MASK = (1 << _SALT_SHIFT) - 1
# Replications per block, hence per stream. Fixed, never derived from the
# worker cap: the block shape decides the float results (a GEMM and a matvec
# differ in the last bits), so it must not change with the worker count.
GAUSS_BLOCK = 1024
EMP_BLOCK = 8
# Work below which a sample call runs in-process whatever the worker cap, since a fork costs about 5 ms:
# R * n for an empirical sample, R * dim**2 for a Gaussian one (break-evens measured in README.md).
EMP_FORK_WORK = 400_000
GAUSS_FORK_WORK = 100_000_000


class CovarianceError(RuntimeError, ValueError):
    """Raised when a covariance is non-finite, asymmetric or indefinite beyond rounding, or cannot be studentized."""


@dataclass(frozen=True)
class RngPolicy:
    """Keyed stream derivation from a single 64-bit master seed.

    ``stream_of(b)`` seeds SFC64 by numpy's ``SeedSequence`` hash of ``(master_seed, salt<<48 | b)``,
    so distinct block indices give statistically independent streams and the
    same ``(seed, salt, index)`` always reproduces the identical stream.
    """

    master_seed: int
    salt: int = 0

    def __post_init__(self):
        # a seed or salt outside its key bits would wrap onto another one's streams
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        if not 0 <= self.salt < 1 << (64 - _SALT_SHIFT):
            raise ValueError(f"salt must be in [0, 2^16), got {self.salt}")

    def stream_of(self, index: int) -> np.random.Generator:
        if index < 0 or index > _INDEX_MASK:
            raise ValueError("stream index out of range")
        # fixed-width words: SeedSequence zero-pads short ints, so [2^32 + 1, 0] would hash like [1, 1]
        words = np.array([self.master_seed, (self.salt << _SALT_SHIFT) | index], "<u8").view("<u4")
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))

    def with_salt(self, salt: int) -> "RngPolicy":
        """Derive an independent policy for a separate purpose (same seed)."""
        return RngPolicy(self.master_seed, salt)


@dataclass(frozen=True)
class SupSample:
    """Sorted replications of a supremum statistic with RNG provenance."""

    values: np.ndarray
    statistic_id: str
    seed: int
    salt: int = 0
    n: int = 0  # underlying sample size; 0 for Gaussian analogues

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=float))
        if values.size < 1:
            raise ValueError("SupSample requires at least one replication")
        object.__setattr__(self, "values", values)

    @property
    def R(self) -> int:
        return self.values.size

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("statistic_id,seed,salt,n,R\n")
            fh.write(f"{self.statistic_id},{self.seed},{self.salt},{self.n},{self.R}\n")
            fh.write("value\n")
            for v in self.values:
                fh.write(repr(float(v)) + "\n")

    @classmethod
    def from_csv(cls, path) -> "SupSample":
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        meta = dict(zip(lines[0].split(","), lines[1].split(",")))
        values = np.array([float(v) for v in lines[3:]])
        if values.size != int(meta["R"]):
            raise ValueError(f"{path} holds {values.size} values but its header says R = {meta['R']}")
        return cls(values, meta["statistic_id"], int(meta["seed"]), int(meta.get("salt", 0)), int(meta["n"]))


@dataclass(frozen=True)
class CovarianceModel:
    """An N x N covariance with its symmetric square root L, sigma = L L^T, enabling exact sampling."""

    sigma: np.ndarray
    factor: np.ndarray

    # an eigenvalue below -NEGATIVE_TOL * max(1, max|sigma|) or an asymmetry above SYMMETRY_TOL * max(1, max|sigma|)
    # is not rounding: sigma is no covariance
    NEGATIVE_TOL, SYMMETRY_TOL = 1e-6, 1e-10

    @classmethod
    def from_matrix(cls, sigma: np.ndarray) -> "CovarianceModel":
        """Factorize by eigendecomposition; eigenvalues at or below dim * eps * lambda_max count as zero."""
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("covariance must be square")
        if not np.all(np.isfinite(sigma)):
            raise CovarianceError("covariance has non-finite entries")
        scale = max(np.abs(sigma).max(), 1.0)
        asym = np.abs(sigma - sigma.T).max()
        if asym > cls.SYMMETRY_TOL * scale:
            raise CovarianceError(f"covariance is not symmetric: max|sigma - sigma^T| = {asym:.3g}")
        sigma = 0.5 * (sigma + sigma.T)
        vals, vecs = np.linalg.eigh(sigma)
        if vals[0] < -cls.NEGATIVE_TOL * scale:
            raise CovarianceError(f"covariance badly conditioned: smallest eigenvalue {vals[0]:.3g}")
        cut = sigma.shape[0] * np.finfo(float).eps * max(vals[-1], 0.0)
        # the symmetric root, not a thin factor: it moves little when degenerate eigenvectors rotate
        root = (vecs * np.sqrt(np.where(vals > cut, vals, 0.0))) @ vecs.T
        return cls(sigma=sigma, factor=root)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def scaled(self, c: float) -> "CovarianceModel":
        """Covariance of the process scaled by c (factor scales exactly by |c|)."""
        a = abs(float(c))
        return CovarianceModel(self.sigma * a * a, self.factor * a)


class WorkerError(RuntimeError):
    """A worker process ended by a signal, exited without a Python exception, or sent short data."""


def _run_blocks(block_fn, R: int, size: int, threads: int) -> np.ndarray:
    """Fill out[s:e] = block_fn(b, e - s) over blocks b of ``size`` replications.

    At ``threads > 1`` the blocks split into contiguous ranges, at most one per block and per core. The caller's
    process runs the first range and forks a worker process for each other one, which sends its values back
    as raw float64 bytes through a pipe. Every worker is reaped, or killed and reaped, before this returns.
    """
    out = np.empty(R)
    blocks = -(-R // size)
    workers = max(1, min(threads if hasattr(os, "fork") else 1, blocks, os.cpu_count() or 1))

    def fill(s: int, e: int) -> np.ndarray:
        for b in range(s // size, -(-e // size)):
            out[b * size:(b + 1) * size] = block_fn(b, min(size, R - b * size))
        return out[s:e]

    cuts = [min(k * blocks // workers * size, R) for k in range(workers + 1)]
    children = {}  # pid -> read end of its pipe, None once a read has taken it
    try:
        spans = {_fork(children, fill, s, e): (s, e) for s, e in zip(cuts[1:], cuts[2:])}
        fill(0, cuts[1])
        for pid, (s, e) in spans.items():
            out[s:e] = np.frombuffer(_collect(children, pid, 8 * (e - s)))
    finally:  # after an error: kill and reap the workers left, closing the pipes no read has taken
        for pid, fd in children.items():
            if fd is not None:
                os.close(fd)
            os.kill(pid, 9)  # SIGKILL, without loading the signal module
            os.waitpid(pid, 0)
    return out


def _fork(children: dict, fill, s: int, e: int) -> int:
    """Fork a worker that writes fill(s, e) as raw bytes, or its exception pickled, and leaves by os._exit."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # never unwinds into the caller's stack nor flushes its stdio
        code = 1
        try:
            os.close(r)
            _leave_parent_cpu()
            try:
                payload, code = fill(s, e).tobytes(), 0
            except BaseException as exc:
                try:
                    payload = pickle.dumps(exc)
                except Exception:
                    payload = pickle.dumps(WorkerError(f"{type(exc).__name__}: {exc}"))
            with open(w, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(code)
    os.close(w)
    children[pid] = r
    return pid


def _leave_parent_cpu() -> None:
    """Move a fresh worker off the CPU it was forked on, which its parent keeps busy, then lift the pin again.

    Linux starts a child on its parent's CPU, and on a 2-vCPU VM the two often shared that CPU for 0.1-0.3 s
    while the other one idled, longer than most sample calls. Where /proc or the affinity calls are missing,
    the scheduler places the worker."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])  # field 39: the CPU this process runs on
        allowed = os.sched_getaffinity(0)
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError, ValueError, IndexError):
        pass


def _collect(children: dict, pid: int, nbytes: int) -> bytes:
    """Read a worker's bytes to the end of its pipe and reap it; re-raise its exception, or raise WorkerError."""
    with open(children[pid], "rb") as fh:
        children[pid] = None
        data = fh.read()
    status = os.waitpid(pid, 0)[1]
    del children[pid]
    if os.WIFSIGNALED(status):
        raise WorkerError(f"worker process ended by signal {os.WTERMSIG(status)}")
    if os.WEXITSTATUS(status) != 0:
        try:
            exc = pickle.loads(data)
        except Exception:
            exc = WorkerError(f"worker process exited with status {os.WEXITSTATUS(status)}")
        raise exc
    if len(data) != nbytes:
        raise WorkerError(f"worker process sent {len(data)} of {nbytes} bytes")
    return data


def _sup(z: np.ndarray, absolute: bool) -> np.ndarray:
    """Row-wise max_j z_j, or max_j |z_j|."""
    return (np.abs(z) if absolute else z).max(axis=-1)


def empirical_sup_sample(
    cls: DiscretizedClass,
    sampler,
    n: int,
    R: int,
    rng: RngPolicy,
    absolute: bool = False,
    statistic_id: str = "empirical_sup",
    threads: int = 1,
) -> SupSample:
    """Sample max_j n^{-1/2} sum_i f_j(X_i) of a centered class over R replications.

    ``sampler(gen, n)`` draws an i.i.d. batch from P using the supplied
    generator.  The class must be centered (P f_j = 0 for every j).  With
    ``absolute=True`` the statistic is max_j |.|, i.e. the supremum over the
    class closed under negation.
    """
    if n < 3:
        raise ValueError("sample size must be at least 3")
    if not cls.centered:
        raise ValueError("the empirical supremum requires a centered class")
    root_n = math.sqrt(n)

    def block(b: int, m: int) -> list:
        gen = rng.stream_of(b)
        return [_sup(cls.sum_columns(sampler(gen, n)) / root_n, absolute) for _ in range(m)]

    values = _run_blocks(block, R, EMP_BLOCK, threads if R * n >= EMP_FORK_WORK else 1)
    return SupSample(values=values, statistic_id=statistic_id, seed=rng.master_seed, salt=rng.salt, n=n)


def gaussian_sup_sample(
    cov: CovarianceModel,
    R: int,
    rng: RngPolicy,
    absolute: bool = False,
    statistic_id: str = "gaussian_sup",
    threads: int = 1,
) -> SupSample:
    """Sample max_j (L xi)_j, xi standard normal, over R replications.

    With ``absolute=True`` the statistic is max_j |(L xi)_j|, i.e. the supremum
    over the class closed under negation.
    """
    LT = cov.factor.T

    def block(b: int, m: int) -> np.ndarray:
        # a (m, dim) fill draws the same numbers as m successive standard_normal(dim) calls
        return _sup(rng.stream_of(b).standard_normal((m, cov.dim)) @ LT, absolute)

    values = _run_blocks(block, R, GAUSS_BLOCK, threads if R * cov.dim**2 >= GAUSS_FORK_WORK else 1)
    return SupSample(values=values, statistic_id=statistic_id, seed=rng.master_seed, salt=rng.salt, n=0)


def ks_distance(a: SupSample, b: SupSample) -> tuple[float, float]:
    """Two-sample Kolmogorov distance and a distribution-free confidence radius.

    The radius is sqrt(log(2/0.05) / (2 min(R_a, R_b))): the one-sample
    Dvoretzky-Kiefer-Wolfowitz radius at level 0.05 of the smaller sample.
    Each empirical CDF lies within its own sample's radius of its true CDF
    with probability at least 0.95, so the two-sample estimate lies within the sum of the two samples'
    radii (at most twice the returned value) of the true distance.
    """
    xa, xb = a.values, b.values
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    estimate = float(np.abs(fa - fb).max())
    conf = math.sqrt(math.log(2 / 0.05) / (2 * min(xa.size, xb.size)))
    return estimate, conf


def quantile_coupling(a: SupSample, b: SupSample, delta: float) -> float:
    """Exceedance fraction of the rank-aligned (monotone) coupling.

    Pairs order statistics of the two samples and returns the fraction of
    pairs differing by more than ``delta``; an upper bound on the minimal
    coupling exceedance for laws on the line.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    xa, xb = a.values, b.values
    if xa.size == xb.size:
        paired = xb
    else:
        u = (np.arange(xa.size) + 0.5) / xa.size
        idx = np.minimum((u * xb.size).astype(int), xb.size - 1)
        paired = xb[idx]
    return float(np.mean(np.abs(xa - paired) > delta))


def levy_concentration(a: SupSample, epsilon: float) -> float:
    """Largest fraction of the sample within [x-eps, x+eps], centers at sample points."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    v = a.values
    hi = np.searchsorted(v, v + epsilon, side="right")
    lo = np.searchsorted(v, v - epsilon, side="left")
    return float((hi - lo).max() / v.size)


def sup_quantile(a: SupSample, alpha: float) -> float:
    """Empirical (1-alpha)-quantile, higher-interpolation convention."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return float(np.quantile(a.values, 1 - alpha, method="higher"))
