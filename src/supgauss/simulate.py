"""Monte Carlo engine: suprema of empirical processes and their Gaussian analogues.

Replications run in fixed-size blocks, one keyed RNG stream per block
(``GAUSS_BLOCK`` Gaussian or ``EMP_BLOCK`` empirical replications, drawn one
after another from the block's stream), so that results are byte-identical for
a given master seed regardless of execution order or worker count. A sample is
a ``Job``; the samples of one experiment run as one schedule (``sample_jobs``).
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
# Fixed cost of an empirical replication in data points: a kernel replication at n points took about 71 us +
# 0.03 us * n (86 / 137 / 308 us at n = 500 / 2000 / 8000), so it weighs n + 2000 points. A Gaussian one at dim
# coordinates took about 0.03 us * dim (0.28 / 2.0 / 9.3 us at dim 8 / 64 / 256) and weighs dim points.
EMP_REP_POINTS = 2_000
# Work in those points below which a schedule runs in-process whatever the worker cap, since a fork costs about
# 5 ms: a schedule forks when its samples' R * weight sum to FORK_WORK (break-evens measured in README.md).
FORK_WORK = 1_200_000


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
        if any(c in self.statistic_id for c in ",\r\n"):  # to_csv writes it as a bare CSV field
            raise ValueError(f"statistic_id {self.statistic_id!r} holds a comma or a line break")
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
            lines = [ln.rstrip("\r\n") for ln in fh if ln.strip()]  # the id's own blanks are kept
        meta = dict(zip(lines[0].split(","), lines[1].split(","))) if len(lines) > 1 else {}
        if not {"statistic_id", "seed", "n", "R"} <= meta.keys():
            raise ValueError(f"{path} is no SupSample CSV: its header lacks statistic_id, seed, n or R")
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


@dataclass(frozen=True)
class Job:
    """One sample's R replications in blocks of ``size``: block b fills its m replications with block_fn(b, m).

    ``weight`` estimates one replication's cost in points (see EMP_REP_POINTS), which decides the fork and the
    split; ``statistic_id``, ``rng`` and ``n`` label the SupSample its values become.
    """

    block_fn: Callable[[int, int], object]
    R: int
    size: int
    weight: float
    statistic_id: str
    rng: RngPolicy
    n: int = 0

    def __post_init__(self):
        if self.R < 1:
            raise ValueError(f"a sample needs at least one replication, got R = {self.R}")


class WorkerError(RuntimeError):
    """A worker process ended by a signal, exited without a Python exception, or sent short data."""


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one, else os.cpu_count()."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Block(NamedTuple):
    job: Job
    index: int
    offset: int  # of its first value in the schedule's output
    m: int  # its replications


def _parts(blocks: list, ranges: int) -> list[list[_Block]]:
    """The blocks cut into at most ``ranges`` parts of about equal estimated work (a block's replications times
    its job's weight), each part in call order.

    Taken in order of their place in their job, the blocks fill the parts one after another: each goes to the
    part that holds the midpoint of its work. Each part so holds about the same share of every job, and the split
    does not hang on how well the weights compare one job with another: only the blocks next to a cut do.
    """
    parts, done = [[] for _ in range(ranges)], 0.0
    total = sum(blk.m * blk.job.weight for blk in blocks)
    for blk in sorted(blocks, key=lambda blk: (blk.index * blk.job.size + blk.m / 2) / blk.job.R):
        work = blk.m * blk.job.weight
        parts[min(int((done + work / 2) * ranges / total), ranges - 1)].append(blk)
        done += work
    return [sorted(part, key=lambda blk: blk.offset) for part in parts if part] or parts[:1]


def _run_blocks(jobs: list, threads: int) -> list[np.ndarray]:
    """Each job's values: job.block_fn(b, m) for its blocks b of ``job.size`` replications, m in the last one fewer.

    At ``threads > 1``, when the jobs' R * weight sum to at least FORK_WORK, the blocks of all jobs are cut into at most
    min(threads, CPUs) parts of about equal work (see _parts). The caller's process runs the first part and
    forks a worker process for each other one, which sends its values back as raw float64 bytes through a pipe;
    the caller writes them into the jobs' arrays. Every worker is reaped, or killed and reaped, before this
    returns. Which process runs a block never changes its values.
    """
    starts = list(itertools.accumulate((job.R for job in jobs), initial=0))
    blocks = [_Block(job, b, start + b * job.size, min(job.size, job.R - b * job.size))
              for job, start in zip(jobs, starts) for b in range(-(-job.R // job.size))]
    out = np.empty(starts[-1])
    forks = hasattr(os, "fork") and sum(job.R * job.weight for job in jobs) >= FORK_WORK
    parts = _parts(blocks, max(1, min(threads if forks else 1, _cpus())))

    def fill(part: list) -> np.ndarray:
        """Compute the part's blocks into out and return their values in the part's order."""
        for job, b, offset, m in part:
            out[offset:offset + m] = job.block_fn(b, m)
        return np.concatenate([out[offset:offset + m] for _, _, offset, m in part] or [out[:0]])

    children = {}  # pid -> read end of its pipe, None once a read has taken it
    try:
        spans = {_fork(children, fill, part): part for part in parts[1:]}
        fill(parts[0])
        for pid, part in spans.items():
            slots = np.concatenate([np.arange(offset, offset + m) for _, _, offset, m in part])
            out[slots] = np.frombuffer(_collect(children, pid, 8 * slots.size))
    finally:  # after an error: kill and reap the workers left, closing the pipes no read has taken
        for pid, fd in children.items():
            if fd is not None:
                os.close(fd)
            os.kill(pid, 9)  # SIGKILL, without loading the signal module
            os.waitpid(pid, 0)
    return [out[s:e] for s, e in zip(starts, starts[1:])]


def _fork(children: dict, fill, part: list) -> int:
    """Fork a worker that writes fill(part) as raw bytes, or its exception pickled, and leaves by os._exit."""
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
            try:
                payload, code = fill(part).tobytes(), 0
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


def _collect(children: dict, pid: int, nbytes: int) -> bytes:
    """Read a worker's bytes to the end of its pipe and reap it; re-raise its exception, or raise WorkerError."""
    with open(children[pid], "rb") as fh:
        children[pid] = None
        data = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])  # -signal if a signal ended it
    del children[pid]
    if code < 0:
        raise WorkerError(f"worker process ended by signal {-code}")
    if code:
        try:
            exc = pickle.loads(data)
        except Exception:
            exc = WorkerError(f"worker process exited with status {code}")
        raise exc
    if len(data) != nbytes:
        raise WorkerError(f"worker process sent {len(data)} of {nbytes} bytes")
    return data


def _sup(z: np.ndarray, absolute: bool) -> np.ndarray:
    """Row-wise max_j z_j, or max_j |z_j|; |z| overwrites z."""
    return (np.abs(z, out=z) if absolute else z).max(axis=-1)


def sample_jobs(jobs: list, threads: int = 1) -> list[SupSample]:
    """Each job's SupSample, with the jobs run as one schedule: one fork decision and one work-balanced split of
    all their blocks (see _run_blocks)."""
    return [SupSample(values, job.statistic_id, job.rng.master_seed, job.rng.salt, job.n)
            for job, values in zip(jobs, _run_blocks(jobs, threads))]


def empirical_job(
    cls: DiscretizedClass, sampler, n: int, R: int, rng: RngPolicy, absolute: bool = False,
    statistic_id: str = "empirical_sup",
) -> Job:
    """The replications of ``empirical_sup_sample`` as a job of a schedule."""
    if n < 3:
        raise ValueError("sample size must be at least 3")
    if not cls.centered:
        raise ValueError("the empirical supremum requires a centered class")
    root_n = math.sqrt(n)

    def block(b: int, m: int) -> list:
        gen = rng.stream_of(b)
        return [_sup(cls.sum_columns(sampler(gen, n)) / root_n, absolute) for _ in range(m)]

    return Job(block, R, EMP_BLOCK, n + EMP_REP_POINTS, statistic_id, rng, n)


def gaussian_job(cov: CovarianceModel, R: int, rng: RngPolicy, absolute: bool = False,
                 statistic_id: str = "gaussian_sup") -> Job:
    """The replications of ``gaussian_sup_sample`` as a job of a schedule; its blocks, run one at a time in a
    process, draw and multiply into one pair of (min(R, GAUSS_BLOCK), dim) arrays and return fresh suprema."""
    LT = cov.factor.T

    def block(b: int, m: int) -> np.ndarray:
        # a (m, dim) fill draws the same numbers as m successive standard_normal(dim) calls
        z = np.matmul(rng.stream_of(b).standard_normal(out=draws[:m]), LT, out=products[:m])
        return _sup(z, absolute)

    job = Job(block, R, GAUSS_BLOCK, cov.dim, statistic_id, rng)
    draws, products = np.empty((2, min(R, GAUSS_BLOCK), cov.dim))  # after Job has rejected R < 1
    return job


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
    return sample_jobs([empirical_job(cls, sampler, n, R, rng, absolute, statistic_id)], threads)[0]


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
    return sample_jobs([gaussian_job(cov, R, rng, absolute, statistic_id)], threads)[0]


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
    u = (np.arange(xa.size) + 0.5) / xa.size  # at equal sizes the pairs are (xa[i], xb[i])
    paired = xb[np.minimum((u * xb.size).astype(int), xb.size - 1)]
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
