"""Monte Carlo estimation of second characteristic-polynomial moments.

Per-sample contributions det(l1 - H) det(l2 - H) span thousands of orders of
magnitude, so sums are kept in log space (SignedAccumulator).  A scan draws
its signed log-determinants from one sample source per ensemble: band scans
draw dense matrices, eigensolved once per sample at three or more energies
and LU factored once per energy at one or two (`estimate_f2`), and GOE scans
run the pivot recurrence of the Dumitriu-Edelman tridiagonal model (O(N) per
sample and energy).  Each worker runs one contiguous block of substreams.
Every substream draws in its own batches, as it would alone; the block pools
those draws across stream boundaries into chunks, evaluates each chunk in
one call, and returns each substream's per-sample signed log-dets in stream
order.  A sample's log-dets do not depend on the rest of its chunk, so no
result depends on the worker count.  The normalized ratio D2^{-1} F2 is
computed from common random numbers (one draw per sample serves every scan
point), and its uncertainty comes from the delta method on the means of
A = det1 det2, B = det1^2 and C = det2^2, summed over the samples as

    sum_i (A_i/SA - B_i/(2 SB) - C_i/(2 SC))^2

whose terms are normalised weights exp(log - log|S|): nothing cancels
catastrophically, and the sum is exactly zero on diagonal points.
`f2_goe_exact` gives the exact GOE value the GOE estimates are checked
against.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .ensemble import RngStream, sample_goe_tridiagonal, sample_symmetric
from .kernels import ds_kernel, rho
from .lattice import LatticeParams, variance_profile
from .spectral import rescale_pow2, signed_logdets, tridiagonal_signed_logdets

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

# Matrix entries of one chunk: a substream draws in batches of one chunk, and
# a worker block evaluates one chunk of pooled draws at a time.  A GOE chunk
# is _CHUNK_ENTRIES // N tridiagonal samples (256 at N=256), the batch its
# draws depend on.  A dense chunk counts 2 N^2 entries per sample, the draws
# and their pooled copy, plus N^2 per energy on the LU route for the shifted
# copies; dense draws do not depend on the batch.  Pooled chunks fill up where
# a single substream's batches did not, so counting the copies keeps small-N
# chunks (65,536 samples at N=1 for N^2 alone) from raising peak memory.
_CHUNK_ENTRIES = 2**16

# Fixed substreams of every scan, spawned from the master seed: the sample
# budget is split over them whatever the worker count.
_NUM_STREAMS = 64

# |mean| below 10x its standard error counts as an unresolved sign.
_SIGN_RESOLUTION_FACTOR = 10.0


def scaled_energies(lambda0: float, xi1: float, xi2: float, N: int) -> tuple[float, float]:
    """Bulk scaling lambda_j = lambda0 + xi_j / (N rho(lambda0))."""
    if not abs(lambda0) < 2.0:
        raise ValueError(f"lambda0 must lie in (-2, 2), got {lambda0}")
    scale = 1.0 / (N * rho(lambda0))
    return lambda0 + xi1 * scale, lambda0 + xi2 * scale


def _max_shifted(logs: np.ndarray,
                 weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the max `shift` of the logs and sum_k weights_k exp(logs_k - shift).

    An empty row (all logs -inf) keeps shift -inf and sums to 0.
    """
    shift = np.max(logs, axis=1, initial=-math.inf)
    safe = np.where(shift == -math.inf, 0.0, shift)   # exp(-inf - 0) is 0, not NaN
    scaled = np.exp(logs - safe[:, None])
    if weights is not None:
        scaled *= weights
    return shift, np.sum(scaled, axis=1)


class SignedAccumulator:
    """Signed streaming sum of sign * exp(log) terms, kept in log space.

    Each batch is kept as its max shifts and the linear sums scaled by them,
    for the positive sum, the negative sum and the sum of squares (shift
    -inf for an empty sum).  Reading the sums combines every batch in one
    max-shifted reduction, so a sum is rounded once at ulp(log) however many
    batches and merges fed it.
    """

    def __init__(self):
        self._shifts: list[np.ndarray] = []
        self._scaled: list[np.ndarray] = []
        self.count = 0

    def add_many(self, signs, logs) -> None:
        """Add the terms signs * exp(logs), both of shape (count,).

        A zero sign or a -inf log is a zero term: counted, but adding nothing.
        """
        signs = np.asarray(signs)
        logs = np.asarray(logs, dtype=float)
        if logs.ndim != 1 or signs.shape != logs.shape:
            raise ValueError(f"expected signs and logs of shape (count,), "
                             f"got {signs.shape}, {logs.shape}")
        if not np.max(logs, initial=-math.inf) < math.inf:  # NaN fails too
            raise ValueError("log terms must be finite or -inf")
        terms = np.array([np.where(signs > 0, logs, -math.inf),
                          np.where(signs < 0, logs, -math.inf),
                          np.where(signs != 0, 2.0 * logs, -math.inf)])
        shift, scaled = _max_shifted(terms)
        self._shifts.append(shift)
        self._scaled.append(scaled)
        self.count += len(logs)

    def merge(self, other: "SignedAccumulator") -> "SignedAccumulator":
        merged = SignedAccumulator()
        merged._shifts = self._shifts + other._shifts
        merged._scaled = self._scaled + other._scaled
        merged.count = self.count + other.count
        return merged

    def log_sums(self) -> tuple[float, float, float]:
        """Logs of the positive sum, the negative sum and the sum of squares (-inf if empty)."""
        if not self._shifts:
            return (-math.inf,) * 3
        # scaled sums times exp(shift), reduced against the largest shift
        shift, total = _max_shifted(np.array(self._shifts).T, np.array(self._scaled).T)
        return tuple((shift + np.log(total, out=np.full(3, -math.inf),
                                     where=total > 0.0)).tolist())

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
    The sample budget is split over 64 fixed substreams of the master seed,
    so the result is bit-identical for any worker count.
    """

    lambda0: float
    xi_pairs: tuple[tuple[float, float], ...]
    num_samples: int
    master_seed: int
    lattice: LatticeParams | None = None
    goe_size: int | None = None
    workers: int = 1

    def __post_init__(self):
        if not abs(self.lambda0) < 2.0:
            raise ValueError(f"lambda0 must lie in (-2, 2), got {self.lambda0}")
        if self.num_samples < 2:  # one sample gives no error bar
            raise ValueError(f"sample count must be at least 2, got {self.num_samples}")
        if self.workers < 1:
            raise ValueError(f"worker count must be at least 1, got {self.workers}")
        if not self.xi_pairs:
            raise ValueError("a scan needs at least one xi pair")
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
    # draw(size, generator) -> tuple of arrays with `size` leading rows, one
    # call per batch of a stream; evaluate(*draws, lambdas) -> (logs, signs),
    # each (rows, len(lambdas)), every row independent of the others.  Both
    # are picklable, so pool workers receive them with the spec.
    draw: Callable[[int, np.random.Generator], tuple[np.ndarray, ...]]
    evaluate: Callable[..., tuple[np.ndarray, np.ndarray]]
    chunk: int              # samples per draw call and per evaluation
    lambdas: np.ndarray
    master_seed: int


# Most energies at which a dense batch is factored by LU once per energy
# rather than eigensolved once: on one BLAS thread an eigvalsh costs 3.0-5.8
# LU factorisations (dgetrf) at N = 3..255, so LU wins at one or two
# energies and loses about 4x at a 13-energy band scan.
_LU_MAX_ENERGIES = 2


def _pin_one_blas_thread() -> Callable[[], int] | None:
    """Set numpy's bundled OpenBLAS to one thread and stop its workers.

    Loaded, the library starts a worker per extra core, and a worker
    busy-polls for about 0.12 s of CPU after the load and after every
    threaded call; a count of 1 alone does not stop it.  The count drops
    first: a set call made after the stop starts a worker again.
    libscipy_openblas64_ exports blas_thread_shutdown_ without a prefix.
    Returns the thread-count getter, None without a bundled OpenBLAS.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                put(1)
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.restype, stop.argtypes = ctypes.c_int, []
                    stop()
                return get
    return None


# Pinned at import, and never raised: every BLAS call runs on one thread,
# which keeps a scan bit-identical for every worker count, keeps pool workers
# from oversubscribing the cores, and keeps run times steady when another
# process wants a CPU.
_BLAS_THREADS = _pin_one_blas_thread()


def _dense_draw(profile: np.ndarray, size: int,
                gen: np.random.Generator) -> tuple[np.ndarray]:
    return (sample_symmetric(profile, size, gen),)


def _dense_logdets(h: np.ndarray, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed log-dets of det(lam - H) for a (batch, n, n) block of dense draws.

    At up to _LU_MAX_ENERGIES energies the block takes one batched LU
    (np.linalg.slogdet) of lam - H per energy; at more, one eigvalsh per
    matrix serves every energy.  Both routes return (logs, int8 signs), with
    sign 0 and log -inf for an exactly zero determinant.
    """
    if len(lambdas) > _LU_MAX_ENERGIES:
        return signed_logdets(np.linalg.eigvalsh(h), lambdas)
    signs, logs = np.linalg.slogdet(lambdas[:, None, None] * np.eye(h.shape[1]) - h[:, None])
    return logs, signs.astype(np.int8)


def _stream_draws(spec: _WorkerSpec, streams: list[tuple[int, int]]):
    """Each (stream index, count)'s draws, in batches of at most spec.chunk samples."""
    for index, count in streams:
        gen = RngStream(spec.master_seed, index).generator()
        for done in range(0, count, spec.chunk):
            yield spec.draw(min(spec.chunk, count - done), gen)


def _pooled(batches, size: int):
    """The batches' samples regrouped into chunks of `size` samples, the last one shorter.

    Every batch is copied into one reused chunk buffer, so a chunk is valid
    only until the next one is asked for, and at most one chunk of draws is
    held besides the batch in hand.
    """
    buffer, filled = None, 0
    for batch in batches:
        count = len(batch[0])
        if buffer is None:
            buffer = tuple(np.empty((size, *a.shape[1:]), a.dtype) for a in batch)
        done = 0
        while done < count:
            take = min(size - filled, count - done)
            for buf, a in zip(buffer, batch):
                buf[filled:filled + take] = a[done:done + take]
            filled, done = filled + take, done + take
            if filled == size:
                yield buffer
                filled = 0
    if filled:
        yield tuple(buf[:filled] for buf in buffer)


def _scan_block(args: tuple[_WorkerSpec, list[tuple[int, int]]]
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(logs, int8 signs) of each (stream index, count) of a block, in stream order.

    Each stream draws in batches of spec.chunk samples, as it would alone;
    the batches are pooled across stream boundaries, and each full chunk is
    evaluated in one call.
    """
    spec, streams = args
    counts = [count for _, count in streams]
    logs = np.empty((sum(counts), len(spec.lambdas)))
    signs = np.empty(logs.shape, dtype=np.int8)
    done = 0
    for draws in _pooled(_stream_draws(spec, streams), spec.chunk):
        size = len(draws[0])
        logs[done:done + size], signs[done:done + size] = spec.evaluate(*draws, spec.lambdas)
        done += size
    cuts = np.cumsum(counts)[:-1]
    return list(zip(np.split(logs, cuts), np.split(signs, cuts)))


def _run_scan(config: ScanConfig,
              lambdas: tuple[float, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every substream's (logs, int8 signs) at the energies, in stream order.

    Each worker runs one contiguous block of the substreams.
    """
    if not all(math.isfinite(lam) for lam in lambdas):
        raise ValueError(f"energies must be finite, got {lambdas}")
    if config.lattice is not None:
        profile = variance_profile(config.lattice)
        copies = 2 + (len(lambdas) if len(lambdas) <= _LU_MAX_ENERGIES else 0)
        draw, evaluate, entries = (functools.partial(_dense_draw, profile), _dense_logdets,
                                   copies * profile.size)
    else:
        draw, evaluate, entries = (functools.partial(sample_goe_tridiagonal, config.goe_size),
                                   tridiagonal_signed_logdets, config.goe_size)
    spec = _WorkerSpec(draw, evaluate, max(_CHUNK_ENTRIES // entries, 1), np.asarray(lambdas),
                       config.master_seed)
    base, extra = divmod(config.num_samples, _NUM_STREAMS)
    counts = [base + (1 if i < extra else 0) for i in range(_NUM_STREAMS)]
    streams = [(i, c) for i, c in enumerate(counts) if c > 0]
    workers = min(config.workers, len(streams))
    bounds = [len(streams) * w // workers for w in range(workers + 1)]
    tasks = [(spec, streams[a:b]) for a, b in zip(bounds, bounds[1:])]
    if workers == 1:
        return _scan_block(tasks[0])
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return [part for block in ex.map(_scan_block, tasks) for part in block]


def _f2_from_scan(parts: list[tuple[np.ndarray, np.ndarray]],
                  pairs: list[tuple[int, int]]) -> list[MomentEstimate]:
    """F2 at each (i1, i2) pair of a scan's energies, from its (logs, signs) parts."""
    accs = [SignedAccumulator() for _ in pairs]
    for logs, signs in parts:
        for acc, (i1, i2) in zip(accs, pairs):
            acc.add_many(signs[:, i1] * signs[:, i2], logs[:, i1] + logs[:, i2])
    return [acc.estimate() for acc in accs]


def estimate_f2(config: ScanConfig, lambda1: float, lambda2: float) -> MomentEstimate:
    """Monte Carlo estimate of E[det(lambda1 - H) det(lambda2 - H)]."""
    i2 = 0 if lambda1 == lambda2 else 1      # equal arguments: one energy
    return _f2_from_scan(_run_scan(config, (lambda1, lambda2)[:i2 + 1]), [(0, i2)])[0]


def f2_goe_exact(l1: float, l2: float, N: int) -> tuple[int, float]:
    """(sign, log|F2|) of the exact GOE moment F2 = E[det(l1 - H) det(l2 - H)].

    In the Dumitriu-Edelman model (see ensemble.sample_goe_tridiagonal) the
    leading minors obey p_k = (l - a_k) p_{k-1} - b_{k-1}^2 p_{k-2}, with
    (a_k, b_{k-1}^2) independent of everything before step k.  The moments
    s_k = E[p_k p'_k, p_k p'_{k-1}, p_{k-1} p'_k, p_{k-1} p'_{k-1}] (p at l1,
    p' at l2) therefore obey s_k = M_k s_{k-1}, a 4x4 step that needs only
    E[a^2] = 2/N, E[b^2] = d/N and E[b^4] = d(d + 2)/N^2 for b^2 ~ chi^2_d / N.
    Each step rescales the state by a power of two (exact) and keeps the
    exponent apart; only energies near the float range overflow (OverflowError).
    """
    if N < 1:
        raise ValueError(f"matrix size must be positive, got {N}")
    for name, value in (("l1", l1), ("l2", l2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    state = np.array([1.0, 0.0, 0.0, 0.0])       # p_0 = 1, p_{-1} = 0
    exponent = 0
    # an overflow reaches state[0] by the next step and stays: one check at the end
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            dof = N - k           # b_{k-1}^2 ~ chi^2_{N-k} / N; unused at k = 0
            eb2, eb4 = dof / N, dof * (dof + 2) / N**2
            step = np.array([[l1 * l2 + 2.0 / N, -l1 * eb2, -l2 * eb2, eb4],
                             [l1, 0.0, -eb2, 0.0],
                             [l2, -eb2, 0.0, 0.0],
                             [1.0, 0.0, 0.0, 0.0]])
            state, e = rescale_pow2(step @ state)
            exponent += int(e)
    f2 = float(state[0])
    if not math.isfinite(f2):
        raise OverflowError(f"the F2 recurrence overflows at l1={l1!r}, l2={l2!r}")
    if f2 == 0.0:
        return 0, -math.inf
    return (1 if f2 > 0.0 else -1), math.log(abs(f2)) + exponent * math.log(2.0)


def estimate_ratio(config: ScanConfig) -> list[ScanRow]:
    """Scan of D2^{-1} F2 over the configured xi pairs, with DS references.

    All scan points share one sample set (common random numbers), which makes
    diagonal rows exactly 1 and the scan exactly symmetric under xi1 <-> xi2.
    """
    xi_values = list(dict.fromkeys(x for pair in config.xi_pairs for x in pair))
    index = {x: k for k, x in enumerate(xi_values)}
    lambdas = tuple(scaled_energies(config.lambda0, x, x, config.N)[0] for x in xi_values)
    logs, signs = (np.concatenate(parts) for parts in zip(*_run_scan(config, lambdas)))

    rows = []
    for xi1, xi2 in config.xi_pairs:
        i1, i2 = index[xi1], index[xi2]
        ds_ref = float(ds_kernel(math.pi * (xi1 - xi2)))
        # A = det1 det2, B = det1^2, C = det2^2 per sample
        s12 = signs[:, i1] * signs[:, i2]
        la, lb, lc = logs[:, i1] + logs[:, i2], 2.0 * logs[:, i1], 2.0 * logs[:, i2]
        accs = [SignedAccumulator() for _ in range(3)]
        for acc, sgn, lg in zip(accs, (s12, signs[:, i1] != 0, signs[:, i2] != 0), (la, lb, lc)):
            acc.add_many(sgn, lg)
        (sa, log_a), (sb, log_b), (sc, log_c) = (acc.signed_log_sum() for acc in accs)
        if sb != 1 or sc != 1 or sa == 0:
            rows.append(ScanRow(xi1, xi2, math.nan, math.nan, ds_ref, "sign_unresolved"))
            continue
        ratio = sa * math.exp(log_a - 0.5 * (log_b + log_c))
        # delta method: u_i = A_i/S_A - B_i/(2 S_B) - C_i/(2 S_C), summing to zero
        u = sa * s12 * np.exp(la - log_a) - 0.5 * (np.exp(lb - log_b) + np.exp(lc - log_c))
        stderr = abs(ratio) * math.sqrt(float(np.sum(u * u)))
        flag = "ok" if accs[0].estimate().sign_resolved else "sign_unresolved"
        rows.append(ScanRow(xi1, xi2, ratio, stderr, ds_ref, flag))
    return rows
