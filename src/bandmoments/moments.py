"""Monte Carlo estimation of second characteristic-polynomial moments.

Per-sample contributions det(l1 - H) det(l2 - H) span thousands of orders of
magnitude, so everything is accumulated in signed log-sum-exp pools: each
keeps a positive sum and a negative sum with a running-max shift, plus a sum
of squares for the standard error, and one array holds every pool of a scan.
A scan draws its signed log-determinants from one sample source per
ensemble: band scans draw dense matrices, eigensolved once per sample at
three or more energies and LU factored once per energy at one or two
(`estimate_f2`), and GOE scans run the pivot recurrence of the
Dumitriu-Edelman tridiagonal model (O(N) per sample and energy).  The
normalized ratio D2^{-1} F2 is computed from common random numbers (one draw
per sample serves every scan point) and its uncertainty comes from the delta
method on the three correlated means; the delta variance is evaluated in the
raw-moment form

    sum_i (A_i/SA - B_i/(2 SB) - C_i/(2 SC))^2

expanded into six second-moment pools, which keeps the centering terms from
cancelling catastrophically and is exactly zero on diagonal points.
`f2_goe_exact` gives the exact GOE value the GOE estimates are checked
against.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .ensemble import RngStream, sample_goe_tridiagonal, sample_symmetric
from .kernels import ds_kernel, rho
from .lattice import LatticeParams, variance_profile
from .spectral import signed_logdets, tridiagonal_signed_logdets

__all__ = [
    "SignedAccumulator",
    "MomentEstimate",
    "ScanConfig",
    "ScanRow",
    "scaled_energies",
    "estimate_f2",
    "estimate_ratio",
    "f2_goe_exact",
]

# Matrix entries sampled per batch (one dense N=256 matrix, or 256
# tridiagonal N=256 samples); larger batches only raise peak memory.
_CHUNK_ENTRIES = 2**16

# |mean| below 10x its standard error counts as an unresolved sign.
_SIGN_RESOLUTION_FACTOR = 10.0


def scaled_energies(lambda0: float, xi1: float, xi2: float, N: int) -> tuple[float, float]:
    """Bulk scaling lambda_j = lambda0 + xi_j / (N rho(lambda0))."""
    if not abs(lambda0) < 2.0:
        raise ValueError(f"lambda0 must lie in (-2, 2), got {lambda0}")
    scale = 1.0 / (N * rho(lambda0))
    return lambda0 + xi1 * scale, lambda0 + xi2 * scale


def _base(shift: np.ndarray) -> np.ndarray:
    """shift with 0 for the -inf of an empty sum, so exp(-inf - base) is 0, not NaN."""
    return np.where(shift > -math.inf, shift, 0.0)


def _combine(shift_a, total_a, shift_b, total_b) -> tuple[np.ndarray, np.ndarray]:
    """(shift, total) of the sum of two log-space sums shift + log(total)."""
    shift = np.maximum(shift_a, shift_b)
    base = _base(shift)
    return shift, total_a * np.exp(shift_a - base) + total_b * np.exp(shift_b - base)


class SignedAccumulator:
    """Signed streaming sums of sign * exp(log) terms over an array of pools.

    Each pool of the `shape`-shaped array keeps a positive sum, a negative sum
    and a sum of squares, each as shift + log(total) with a running-max shift.
    Indexing with a full index gives one pool, which has the scalar methods.
    """

    def __init__(self, shape: tuple[int, ...] = ()):
        # first axis: positive sum, negative sum, sum of squares
        self.shift = np.full((3, *shape), -math.inf)
        self.total = np.zeros((3, *shape))
        self.count = 0

    def add_many(self, signs, logs) -> None:
        """Add the terms signs * exp(logs), both of shape (count, *shape).

        A zero sign or a -inf log is a zero term: counted, but adding nothing.
        """
        signs = np.asarray(signs)
        logs = np.asarray(logs, dtype=float)
        if signs.shape != logs.shape or logs.shape[1:] != self.shift.shape[1:]:
            raise ValueError(f"expected signs and logs of shape (count, "
                             f"*{self.shift.shape[1:]}), got {signs.shape}, {logs.shape}")
        if not np.max(logs, initial=-math.inf) < math.inf:  # NaN fails too
            raise ValueError("log terms must be finite or -inf")
        terms = np.array([np.where(signs > 0, logs, -math.inf),
                          np.where(signs < 0, logs, -math.inf),
                          np.where(signs != 0, 2.0 * logs, -math.inf)])
        shift = np.max(terms, axis=1, initial=-math.inf)
        total = np.sum(np.exp(terms - _base(shift)[:, None]), axis=1)
        self.shift, self.total = _combine(self.shift, self.total, shift, total)
        self.count += len(logs)

    def merge(self, other: "SignedAccumulator") -> "SignedAccumulator":
        merged = SignedAccumulator()
        merged.shift, merged.total = _combine(self.shift, self.total,
                                              other.shift, other.total)
        merged.count = self.count + other.count
        return merged

    def __getitem__(self, index) -> "SignedAccumulator":
        index = (slice(None), *(index if isinstance(index, tuple) else (index,)))
        part = SignedAccumulator()
        part.shift, part.total, part.count = self.shift[index], self.total[index], self.count
        return part

    def log_sums(self) -> tuple[float, float, float]:
        """Logs of the positive sum, the negative sum and the sum of squares (-inf if empty)."""
        return tuple(s + math.log(t) if t > 0.0 else -math.inf
                     for s, t in zip(self.shift.tolist(), self.total.tolist()))

    def signed_log_sum(self) -> tuple[int, float]:
        """(sign, log|sum|) of the accumulated signed total."""
        lp, ln, _ = self.log_sums()
        if lp == ln:
            return 0, -math.inf
        if lp > ln:
            return 1, lp + math.log1p(-math.exp(ln - lp))
        return -1, ln + math.log1p(-math.exp(lp - ln))

    def estimate(self) -> "MomentEstimate":
        if self.count == 0:
            raise ValueError("cannot form an estimate from an empty accumulator")
        lp, ln, log_sumsq = self.log_sums()
        sign, log_abs = self.signed_log_sum()
        log_mean = log_abs - math.log(self.count)
        log_ex2 = log_sumsq - math.log(self.count)
        if sign == 0 or log_ex2 == -math.inf:
            return MomentEstimate(sign, log_mean, math.inf if sign == 0 else 0.0,
                                  self.count, sign != 0)
        ratio = min(math.exp(2.0 * log_mean - log_ex2), 1.0)
        if self.count < 2:
            rel_stderr = math.inf
        elif ratio >= 1.0:
            rel_stderr = 0.0
        else:
            log_var = log_ex2 + math.log1p(-ratio) + math.log(self.count / (self.count - 1))
            rel_stderr = math.exp(0.5 * (log_var - math.log(self.count)) - log_mean)
        one_sided = lp == -math.inf or ln == -math.inf
        resolved = one_sided or rel_stderr <= 1.0 / _SIGN_RESOLUTION_FACTOR
        return MomentEstimate(sign, log_mean, rel_stderr, self.count, resolved)


@dataclass(frozen=True)
class MomentEstimate:
    """Signed log-space mean with its relative standard error."""

    sign: int
    log_mean_magnitude: float
    relative_stderr: float
    count: int
    sign_resolved: bool

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.log_mean_magnitude)


@dataclass(frozen=True)
class ScanConfig:
    """One moment scan: ensemble, energy window, sample budget, seeding.

    Exactly one of `lattice` (band ensemble) and `goe_size` must be set.
    The sample budget is split over `num_streams` fixed substreams, so the
    result is bit-identical for any worker count.
    """

    lambda0: float
    xi_pairs: tuple[tuple[float, float], ...]
    num_samples: int
    master_seed: int
    lattice: LatticeParams | None = None
    goe_size: int | None = None
    num_streams: int = 64
    workers: int = 1

    def __post_init__(self):
        if not abs(self.lambda0) < 2.0:
            raise ValueError(f"lambda0 must lie in (-2, 2), got {self.lambda0}")
        if self.num_samples < 2:  # one sample gives no error bar
            raise ValueError(f"sample count must be at least 2, got {self.num_samples}")
        if self.num_streams < 1:
            raise ValueError(f"stream count must be at least 1, got {self.num_streams}")
        if self.goe_size is not None and self.goe_size < 1:
            raise ValueError(f"GOE size must be at least 1, got {self.goe_size}")
        if (self.lattice is None) == (self.goe_size is None):
            raise ValueError("set exactly one of lattice and goe_size")
        object.__setattr__(self, "xi_pairs", tuple((float(a), float(b)) for a, b in self.xi_pairs))

    @property
    def N(self) -> int:
        return self.lattice.N if self.lattice is not None else self.goe_size

    @property
    def sample_source(self) -> str:
        """The draws behind the scan: "dense" band matrices (eigensolved, or LU
        factored at one or two energies), or "dumitriu-edelman" tridiagonal
        GOE matrices."""
        return "dense" if self.lattice is not None else "dumitriu-edelman"


@dataclass(frozen=True)
class ScanRow:
    """One scan point of the normalized ratio against its DS reference."""

    xi1: float
    xi2: float
    ratio: float
    stderr: float
    ds_ref: float
    flag: str


@dataclass(frozen=True)
class _WorkerSpec:
    # (generator, count, lambdas) -> (logs, signs), each (count, len(lambdas));
    # picklable, so pool workers receive it with the spec
    source: Callable[[np.random.Generator, int, np.ndarray], tuple[np.ndarray, np.ndarray]]
    lambdas: np.ndarray
    pairs: np.ndarray             # (rows, 2) indices into lambdas
    master_seed: int


_SCAN_BLAS_THREADS = 1       # OpenBLAS threads of a scan's eigensolves and LUs

# Most energies at which a dense batch is factored by LU once per energy
# rather than eigensolved once: on one BLAS thread an eigvalsh costs 3.0-5.8
# LU factorisations (dgetrf) at N = 3..255, so LU wins at one or two
# energies and loses about 4x at a 13-energy band scan.
_LU_MAX_ENERGIES = 2


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    Left alone, each pool worker starts one BLAS thread per core and the
    workers oversubscribe the machine (at GOE N=256 on 2 cores, 2 workers ran
    6x slower than 1). One thread in every path also keeps the eigenvalues,
    and so a scan, bit-identical for every worker count.  Without a bundled
    OpenBLAS the block runs as is.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(_SCAN_BLAS_THREADS)
    try:
        yield
    finally:
        put(before)


def _in_batches(count: int, step: int, batch) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated (logs, signs) of batch(size) over batches of at most step samples."""
    parts = [batch(min(step, count - done)) for done in range(0, count, step)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _dense_source(profile: np.ndarray, gen: np.random.Generator, count: int,
                  lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed log-dets of dense draws with variance profile J.

    At up to _LU_MAX_ENERGIES energies each batch takes one batched LU
    (np.linalg.slogdet) of lam - H per energy; at more, one eigvalsh per
    matrix serves every energy.  Both routes make the same draws and return
    (logs, int8 signs), with sign 0 and log -inf for an exactly zero
    determinant.
    """
    n = len(profile)

    def batch(size):
        h = sample_symmetric(profile, size, gen)
        if len(lambdas) > _LU_MAX_ENERGIES:
            return signed_logdets(np.linalg.eigvalsh(h), lambdas)
        signs, logs = np.linalg.slogdet(lambdas[:, None, None] * np.eye(n) - h[:, None])
        return logs, signs.astype(np.int8)

    with _one_blas_thread():
        return _in_batches(count, max(_CHUNK_ENTRIES // (n * n), 1), batch)


def _tridiagonal_source(N: int, gen: np.random.Generator, count: int,
                        lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed log-dets of Dumitriu-Edelman GOE draws of size N, by the pivot recurrence."""
    def batch(size):
        return tridiagonal_signed_logdets(*sample_goe_tridiagonal(N, size, gen), lambdas)

    return _in_batches(count, max(_CHUNK_ENTRIES // N, 1), batch)


def _scan_stream(args: tuple[_WorkerSpec, int, int]) -> SignedAccumulator:
    """One substream's pools, shape (6, rows): per scan row with energies
    (l1, l2), A = det1 det2, B = det1^2, C = det2^2 and the products AB, AC, BC.
    """
    spec, stream_index, count = args
    gen = RngStream(spec.master_seed, stream_index).generator()
    logd, signs = spec.source(gen, count, spec.lambdas)
    i1, i2 = spec.pairs[:, 0], spec.pairs[:, 1]
    la, lb, lc = logd[:, i1] + logd[:, i2], 2.0 * logd[:, i1], 2.0 * logd[:, i2]
    sa = signs[:, i1] * signs[:, i2]
    sb, sc = (signs[:, i1] != 0).astype(np.int8), (signs[:, i2] != 0).astype(np.int8)
    pools = SignedAccumulator((6, len(i1)))
    pools.add_many(np.stack([sa, sb, sc, sa * sb, sa * sc, sb * sc], axis=1),
                   np.stack([la, lb, lc, la + lb, la + lc, lb + lc], axis=1))
    return pools


def _stream_counts(total: int, streams: int) -> list[int]:
    base, extra = divmod(total, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def _run_scan(config: ScanConfig, lambdas: tuple[float, ...],
              pairs: tuple[tuple[int, int], ...]) -> SignedAccumulator:
    if not all(math.isfinite(lam) for lam in lambdas):
        raise ValueError(f"energies must be finite, got {lambdas}")
    if config.lattice is not None:
        source = functools.partial(_dense_source, variance_profile(config.lattice))
    else:
        source = functools.partial(_tridiagonal_source, config.goe_size)
    spec = _WorkerSpec(source, np.asarray(lambdas),
                       np.asarray(pairs, dtype=int).reshape(-1, 2), config.master_seed)
    counts = _stream_counts(config.num_samples, config.num_streams)
    tasks = [(spec, i, c) for i, c in enumerate(counts) if c > 0]
    if config.workers <= 1 or len(tasks) == 1:
        results = [_scan_stream(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as ex:
            results = list(ex.map(_scan_stream, tasks))
    merged = results[0]
    for r in results[1:]:
        merged = merged.merge(r)
    return merged


def estimate_f2(config: ScanConfig, lambda1: float, lambda2: float) -> MomentEstimate:
    """Monte Carlo estimate of E[det(lambda1 - H) det(lambda2 - H)]."""
    if lambda1 == lambda2:
        lambdas, pairs = (lambda1,), ((0, 0),)
    else:
        lambdas, pairs = (lambda1, lambda2), ((0, 1),)
    return _run_scan(config, lambdas, pairs)[0, 0].estimate()


def f2_goe_exact(l1: float, l2: float, N: int) -> tuple[int, float]:
    """(sign, log|F2|) of the exact GOE moment F2 = E[det(l1 - H) det(l2 - H)].

    In the Dumitriu-Edelman model (see ensemble.sample_goe_tridiagonal) the
    leading minors obey p_k = (l - a_k) p_{k-1} - b_{k-1}^2 p_{k-2}, with
    (a_k, b_{k-1}^2) independent of everything before step k.  The moments
    s_k = E[p_k p'_k, p_k p'_{k-1}, p_{k-1} p'_k, p_{k-1} p'_{k-1}] (p at l1,
    p' at l2) therefore obey s_k = M_k s_{k-1}, a 4x4 step that needs only
    E[a^2] = 2/N, E[b^2] = d/N and E[b^4] = d(d + 2)/N^2 for b^2 ~ chi^2_d / N.
    Each step rescales the state by a power of two (exact) and keeps the
    exponent apart, so the recurrence does not overflow at any N.
    """
    if N < 1:
        raise ValueError(f"matrix size must be positive, got {N}")
    state = np.array([1.0, 0.0, 0.0, 0.0])       # p_0 = 1, p_{-1} = 0
    exponent = 0
    for k in range(N):
        dof = N - k           # b_{k-1}^2 ~ chi^2_{N-k} / N; unused at k = 0
        eb2, eb4 = dof / N, dof * (dof + 2) / N**2
        step = np.array([[l1 * l2 + 2.0 / N, -l1 * eb2, -l2 * eb2, eb4],
                         [l1, 0.0, -eb2, 0.0],
                         [l2, -eb2, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0]])
        state = step @ state
        _, e = math.frexp(float(np.max(np.abs(state))))
        state = np.ldexp(state, -e)
        exponent += e
    f2 = float(state[0])
    if f2 == 0.0:
        return 0, -math.inf
    return (1 if f2 > 0.0 else -1), math.log(abs(f2)) + exponent * math.log(2.0)


def _signed_sum(terms: list[tuple[float, float]]) -> float:
    """Sum of sign*exp(log) pairs, evaluated against the common max exponent."""
    m = max((lg for _, lg in terms if lg > -math.inf), default=-math.inf)
    if m == -math.inf:
        return 0.0
    return math.exp(m) * math.fsum(sgn * math.exp(lg - m) for sgn, lg in terms)


def estimate_ratio(config: ScanConfig) -> list[ScanRow]:
    """Scan of D2^{-1} F2 over the configured xi pairs, with DS references.

    All scan points share one sample set (common random numbers), which makes
    diagonal rows exactly 1 and the scan exactly symmetric under xi1 <-> xi2.
    """
    xi_values: list[float] = []
    index: dict[float, int] = {}
    for a, b in config.xi_pairs:
        for x in (a, b):
            if x not in index:
                index[x] = len(xi_values)
                xi_values.append(x)
    lam_of = {x: scaled_energies(config.lambda0, x, x, config.N)[0] for x in xi_values}
    lambdas = tuple(lam_of[x] for x in xi_values)
    pairs = tuple((index[a], index[b]) for a, b in config.xi_pairs)

    pools = _run_scan(config, lambdas, pairs)

    rows = []
    for r, (xi1, xi2) in enumerate(config.xi_pairs):
        acc_a, acc_b, acc_c, acc_ab, acc_ac, acc_bc = (pools[k, r] for k in range(6))
        sa, la = acc_a.signed_log_sum()
        sb, lb = acc_b.signed_log_sum()
        sc, lc = acc_c.signed_log_sum()
        ds_ref = float(ds_kernel(math.pi * (xi1 - xi2)))
        if sb != 1 or sc != 1 or sa == 0:
            rows.append(ScanRow(xi1, xi2, math.nan, math.nan, ds_ref, "sign_unresolved"))
            continue
        ratio = sa * math.exp(la - 0.5 * (lb + lc))
        sab, lab = acc_ab.signed_log_sum()
        sac, lac = acc_ac.signed_log_sum()
        sbc, lbc = acc_bc.signed_log_sum()
        terms = [
            (1.0, acc_a.log_sums()[2] - 2.0 * la),
            (0.25, acc_b.log_sums()[2] - 2.0 * lb),
            (0.25, acc_c.log_sums()[2] - 2.0 * lc),
            (-1.0 * sab * sa * sb, lab - la - lb),
            (-1.0 * sac * sa * sc, lac - la - lc),
            (0.5 * sbc * sb * sc, lbc - lb - lc),
        ]
        relvar = max(_signed_sum(terms), 0.0)
        stderr = abs(ratio) * math.sqrt(relvar)
        flag = "ok" if acc_a.estimate().sign_resolved else "sign_unresolved"
        rows.append(ScanRow(xi1, xi2, ratio, stderr, ds_ref, flag))
    return rows
