"""Equal-argument evaluation of the dual chain representation of F2.

At coinciding spectral arguments (xi1 = xi2 = xi) the angular integrals of
the dual representation collapse site by site into the rank-2 Sp(2) HCIZ
closed form, leaving a two-variable nearest-neighbor chain integral

    F2(lam, lam) = -C(xi) det^3(-W^2 Delta + 1) / (24 pi)^N
                   * int prod_j w(a_j, b_j) prod_bonds K((a,b), (a', b')) da db

with site weight

    w(a, b) = (a - b)^4 exp(-f(a) - f(b) - i xi (a + b) / (N rho))

and bond kernel (tt = W^2 (a - b)(a' - b'))

    K = (6/tt^2 - 12/tt^3) Gd + (6/tt^2 + 12/tt^3) Gs,
    Gd = exp(-(W^2/2)((a-a')^2 + (b-b')^2)),
    Gs = exp(-(W^2/2)((a-b')^2 + (b-a')^2)).

The kernel is separable in the two variables.  On the grid, with the
Gaussian couplings gaa[i, j] = exp(-W^2 (a_i - a_j)^2 / 2) and
gab[i, j] = exp(-W^2 (a_i - b_j)^2 / 2), one bond maps v to

    (6/W^4) (gaa M2 gaa + gab M2^T gab) / d^2
        - (12/W^6) (gaa M3 gaa - gab M3^T gab) / d^3,   Mk = v / d^k,

with d = a - b taken entrywise.  Both variables use one uniform grid of
spacing h, weighted h per node (the trapezoid rule, spectrally accurate on
this smooth, Gaussian-decaying integrand, so the truncation radius, not the
spacing, sets the error); the b-grid is the a-grid staggered by h/2, which
keeps |a - b| >= h/2 (and with it the 1/tt^3 cancellations) away from zero,
and the site factor (a-b)^4 suppresses the near-diagonal region those terms
live on.  Sharing the spacing makes both couplings Toeplitz and the b-grid's
own coupling equal to gaa, so build_kernel stores gaa and gab as two dense
(G, G) matrices and a bond is eight real (G, G) products per plane: one
plane at the band centre (lambda0 = 0, xi = 0), whose site weights are
stored real, and M's real and imaginary planes elsewhere.  The bond is a
symmetric matrix in ((a, b), (a', b')) and all sites are alike, so for odd N
the chain integral is sum(site * m^2), m the message from one end into the
middle site: (N - 1) / 2 bonds, not N - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import log_phase_factor, rho, saddle_data
from .lattice import (LatticeParams, TridiagonalOperator, neumann_laplacian,
                      tridiagonal_logdet)
from .moments import _threaded_blas

__all__ = ["Grid2D", "TransferKernel", "TransferResult", "build_kernel",
           "transfer_evaluate"]

# Node spacing target is 1/(spacing_factor * W); the grid reaches at least
# this far beyond the saddle so single-site tails stay below the quadrature
# error target.
_SPACING_FACTOR = 2.0
_RADIUS_REACH = 6.5
_RADIUS_PAD = 4.6


@dataclass(frozen=True)
class Grid2D:
    """Uniform product grid for the (a, b) plane; each node has weight `spacing`."""

    nodes_a: np.ndarray
    nodes_b: np.ndarray       # the a-nodes shifted by spacing / 2
    spacing: float
    radius: float


@dataclass(frozen=True)
class TransferKernel:
    """Discretized site weights and bond couplings of the chain integral."""

    params: LatticeParams
    lambda0: float
    xi: float
    refine: float
    grid: Grid2D
    site: np.ndarray          # w(a,b) * quadrature weights, (Ga, Gb); real at the band centre
    inv_d2: np.ndarray
    inv_d3: np.ndarray
    gaa: np.ndarray           # (G, G) a-a coupling, also the b-b one
    gab: np.ndarray           # (G, G) a-b coupling
    log_prefactor_magnitude: float   # the prefactor itself is -exp(this)


@dataclass(frozen=True)
class TransferResult:
    """Transfer value of F2(lam, lam) with a truncation-and-spacing error estimate."""

    value: complex
    quadrature_error_estimate: float
    imag_ratio: float
    converged: bool

    @property
    def f2(self) -> float:
        return self.value.real


def _build_grid(params: LatticeParams, lambda0: float, refine: float,
                widen: float) -> Grid2D:
    sd = saddle_data(lambda0)
    # A single site has no bond coupling: its integrand is W-independent, and
    # the exp(-f) tails alone set the truncation.  With bonds, joint
    # excursions of the whole chain pay N*f_star, so a smaller pad suffices.
    eff_w = 1.0 if params.N == 1 else params.W
    radius = sd.a_plus + max(_RADIUS_REACH / eff_w, _RADIUS_PAD) + widen
    spacing = 1.0 / (_SPACING_FACTOR * eff_w * refine)
    count = math.ceil(2.0 * radius / spacing)
    h = 2.0 * radius / count
    nodes_a = -radius + h * np.arange(count + 1)
    # b = a + h/2, so min |a_i - b_j| = h/2
    return Grid2D(nodes_a, nodes_a + 0.5 * h, h, radius)


def _site_weights(grid: Grid2D, params: LatticeParams, lambda0: float, xi: float) -> np.ndarray:
    a = grid.nodes_a[:, None]
    b = grid.nodes_b[None, :]
    half = 0.5j * lambda0
    # exp(-f(x)) = (x - i lambda0/2) exp(-(x + i lambda0/2)^2 / 2)
    ea = (a - half) * np.exp(-0.5 * (a + half) ** 2)
    eb = (b - half) * np.exp(-0.5 * (b + half) ** 2)
    phase = np.exp(-1j * xi * (a + b) / (params.N * rho(lambda0)))
    d = a - b
    return ea * eb * phase * d**4 * grid.spacing**2


def build_kernel(params: LatticeParams, lambda0: float, xi: float,
                 refine: float = 1.0) -> TransferKernel:
    """Assemble grid, site weights, bond couplings, and the global prefactor."""
    return _kernel(params, lambda0, xi, refine, 0.0)


def _kernel(params: LatticeParams, lambda0: float, xi: float, refine: float,
            widen: float) -> TransferKernel:
    """build_kernel on a grid whose radius is widened by `widen`."""
    grid = _build_grid(params, lambda0, refine, widen)
    w2 = params.W**2
    a, b = grid.nodes_a, grid.nodes_b
    d = a[:, None] - b[None, :]
    lap = neumann_laplacian(params.N)
    profile_op = TridiagonalOperator(-w2 * lap.diagonal, -w2 * lap.offdiagonal)
    # det^{-3} J = det^3(-W^2 Delta + 1)
    log_pref = (log_phase_factor(xi, xi, lambda0, params.N)
                + 3.0 * tridiagonal_logdet(profile_op, 1.0).real
                - params.N * math.log(24.0 * math.pi))
    site = _site_weights(grid, params, lambda0, xi)
    return TransferKernel(
        params=params, lambda0=lambda0, xi=xi, refine=refine, grid=grid,
        site=site if site.imag.any() else site.real,
        inv_d2=d**-2.0, inv_d3=d**-3.0,
        gaa=np.exp(-0.5 * w2 * (a[:, None] - a[None, :]) ** 2),
        gab=np.exp(-0.5 * w2 * d**2),
        log_prefactor_magnitude=log_pref)


def _apply_bond(kernel: TransferKernel, v: np.ndarray) -> np.ndarray:
    """One bond of the chain (module docstring) applied to v, (G, G) real or complex."""
    gaa, gab = kernel.gaa, kernel.gab
    planes = np.stack((v.real, v.imag)) if np.iscomplexobj(v) else v[None]  # real GEMMs
    out = np.zeros_like(planes)
    for inv_d, coeff, sign in ((kernel.inv_d2, 6.0 / kernel.params.W**4, 1.0),
                               (kernel.inv_d3, -12.0 / kernel.params.W**6, -1.0)):
        m = planes * inv_d
        out += coeff * inv_d * (gaa @ m @ gaa + sign * (gab @ m.transpose(0, 2, 1) @ gab))
    return out[0] if len(out) == 1 else out[0] + 1j * out[1]


def _contract(kernel: TransferKernel) -> complex:
    """-C * sum(site * m^2), m the message from site 1 into the middle site."""
    n = kernel.params.N
    assert n % 2 == 1, f"the middle-site contraction needs odd N, got {n}"
    m = np.ones(kernel.site.shape)
    log_scale = 0.0
    with _threaded_blas(len(m)):
        for _ in range(n // 2):
            m = _apply_bond(kernel, m * kernel.site)
            scale = float(np.max(np.abs(m)))
            if scale == 0.0:
                return 0.0j
            m /= scale
            log_scale += math.log(scale)
    total = complex(np.sum(kernel.site * m * m))
    return -total * math.exp(kernel.log_prefactor_magnitude + 2.0 * log_scale)


def transfer_evaluate(kernel: TransferKernel) -> TransferResult:
    """Evaluate the chain contraction and estimate the quadrature error.

    Three contractions: on the kernel's grid, on a grid of the same spacing
    whose radius is widened by 1, and on that wider grid at 4/3 the spacing.
    The returned value is the second; the error estimate is its distance
    from the first (truncation) plus its distance from the third (spacing).
    F2 is real, so the residual imaginary part doubles as a consistency
    diagnostic.  Each contraction's products run on BLAS threads when its
    grid is large enough to split them (see _threaded_blas).  Each widened
    kernel is built just before its contraction, so at most one of them is
    held at a time.
    """
    params, lambda0, xi, refine = kernel.params, kernel.lambda0, kernel.xi, kernel.refine
    base = _contract(kernel)
    wide = _contract(_kernel(params, lambda0, xi, refine, 1.0))
    coarse = _contract(_kernel(params, lambda0, xi, 0.75 * refine, 1.0))
    err = abs(wide - base) + abs(wide - coarse)
    imag_ratio = abs(wide.imag) / max(abs(wide), 1e-300)
    return TransferResult(
        value=wide,
        quadrature_error_estimate=err,
        imag_ratio=imag_ratio,
        converged=err <= 5e-3 * abs(wide),
    )

