"""Closed-form scalar kernels: semicircle law, DS kernel, saddle data.

The saddle machinery packages the stationary points a_pm = +-pi*rho(lambda0)
of f(x) = (x + i*lambda0/2)^2/2 - log(x - i*lambda0/2) together with the
quadratic coefficients c_pm of f at those points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "rho",
    "semicircle_cdf",
    "ds_kernel",
    "saddle_f",
    "f_star",
    "SaddleData",
    "saddle_data",
    "log_phase_factor",
]

# Below this |x| the closed form of DS loses digits to cancellation.
DS_SERIES_CUTOFF = 1e-2
# Above this |x| the powers x^3 (from ~5.6e102) and x^2 would overflow, so the
# closed form divides by x one factor at a time.
DS_STEPWISE_FROM = 1e100


def rho(lam):
    """Wigner semicircle density (1/2pi) sqrt(4 - lam^2), zero off [-2, 2]."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    inside = np.abs(lam) < 2.0
    out[inside] = np.sqrt(4.0 - lam[inside] ** 2) / (2.0 * np.pi)
    if out.ndim == 0:
        return float(out)
    return out


def semicircle_cdf(x):
    """CDF of the semicircle density; exactly 0, 1/2, 1 at x = -2, 0, 2."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    out = 0.5 + xc * np.sqrt(4.0 - xc**2) / (4.0 * np.pi) + np.arcsin(xc / 2.0) / np.pi
    if out.ndim == 0:
        return float(out)
    return out


def ds_kernel(x):
    """GOE pair kernel DS(x) = 3(sin x / x^3 - cos x / x^2), DS(0) = 1.

    Even series through x^8 below |x| = 1e-2; closed form elsewhere, divided
    stepwise above |x| = 1e100 so that no finite x overflows.
    """
    x = np.abs(np.asarray(x, dtype=float))  # even; keeps DS(x) = DS(-x) exact
    small = x < DS_SERIES_CUTOFF
    huge = x > DS_STEPWISE_FROM
    xs = np.where(small | huge, 1.0, x)
    closed = 3.0 * (np.sin(xs) / xs**3 - np.cos(xs) / xs**2)
    xh = np.where(huge, x, 1.0)
    stepwise = 3.0 * (np.sin(xh) / xh / xh / xh - np.cos(xh) / xh / xh)
    xt = np.where(small, x, 0.0)
    x2 = xt * xt
    series = 1.0 + x2 * (-1.0 / 10.0 + x2 * (1.0 / 280.0 + x2 * (-1.0 / 15120.0 + x2 / 1330560.0)))
    out = np.where(small, series, np.where(huge, stepwise, closed))
    if out.ndim == 0:
        return float(out)
    return out


def saddle_f(x: float, lambda0: float) -> complex:
    """f(x) = (x + i lambda0/2)^2 / 2 - Log(x - i lambda0/2), principal branch."""
    z = complex(x, -lambda0 / 2.0)
    if z == 0:
        raise ValueError("f is singular at x = i*lambda0/2 (here x = 0, lambda0 = 0)")
    return complex(x, lambda0 / 2.0) ** 2 / 2.0 - cmath.log(z)


def f_star(x, lambda0: float):
    """Re(f(x) - f(a_pm)) for real x; vanishes exactly at the saddles."""
    x = np.asarray(x, dtype=float)
    c0 = (2.0 - lambda0**2) / 4.0
    out = 0.5 * (x**2 - lambda0**2 / 4.0 - np.log(x**2 + lambda0**2 / 4.0)) - c0
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SaddleData:
    """Saddle points and local expansion data of f at energy lambda0."""

    lambda0: float
    a_plus: float
    a_minus: float
    c_plus: complex
    c_minus: complex
    c0: float


def saddle_data(lambda0: float) -> SaddleData:
    """Closed forms for a_pm, c_pm, c0; requires |lambda0| < 2."""
    if not abs(lambda0) < 2.0:
        raise ValueError(f"lambda0 must lie in (-2, 2), got {lambda0}")
    a_plus = math.sqrt(4.0 - lambda0**2) / 2.0
    half_root = math.sqrt(1.0 - lambda0**2 / 4.0)
    c_plus = complex(1.0 - lambda0**2 / 4.0, lambda0 * half_root / 2.0)
    return SaddleData(
        lambda0=lambda0,
        a_plus=a_plus,
        a_minus=-a_plus,
        c_plus=c_plus,
        c_minus=c_plus.conjugate(),
        c0=(2.0 - lambda0**2) / 4.0,
    )


def log_phase_factor(xi1: float, xi2: float, lambda0: float, N: int) -> float:
    """log C(xi), the scalar prefactor of the dual chain representation."""
    if not abs(lambda0) < 2.0:
        raise ValueError(f"lambda0 must lie in (-2, 2), got {lambda0}")
    r = rho(lambda0)
    return lambda0 * (xi1 + xi2) / (2.0 * r) + (xi1**2 + xi2**2) / (2.0 * N * r**2)
