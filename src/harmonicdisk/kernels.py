"""Closed-form evaluation of the three reproducing kernels on the unit disk.

All three evaluators are pure functions, accept scalars or numpy arrays
(broadcasting), and share one stability idea: the common denominator
1 - 2*s*cos(psi) + s**2 is evaluated in the factored form

    (1 - s)**2 + 4*s*sin(psi/2)**2

which stays accurate as s -> 1, psi -> 0 where the kernels peak and the
naive expression cancels catastrophically.

A radius s (r, or r*rho) outside 0 <= s < 1, NaN included, raises DomainError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def check_alpha(alpha):
    """Refuse a weight exponent alpha that is not a finite number above -1."""
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise DomainError(f"alpha must be a finite number above -1, got {alpha}")


def _check_unit_interval(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):
        raise DomainError(f"{name} must satisfy 0 <= {name} < 1")
    return arr


def _stable_denominator(s, psi):
    """1 - 2*s*cos(psi) + s**2, factored to avoid cancellation."""
    half = np.sin(0.5 * np.asarray(psi))
    return (1.0 - s) ** 2 + 4.0 * s * half * half


def poisson_kernel(r, theta):
    """Boundary-to-interior kernel (1 - r^2) / (1 - 2 r cos(theta) + r^2).

    Strictly positive and finite for 0 <= r < 1; even and 2*pi-periodic
    in theta.  Scalars in give a float out; arrays broadcast.
    """
    r_arr = _check_unit_interval(r, "r")
    den = _stable_denominator(r_arr, theta)
    value = (1.0 - r_arr) * (1.0 + r_arr) / den
    if np.isscalar(r) and np.isscalar(theta):
        return float(value)
    return value


def q_kernel(s, psi):
    """Area reproducing kernel for square-integrable harmonic functions.

    Q(s, psi) = (1 - 2 s cos(psi) + s^2 cos(2 psi)) / (1 - 2 s cos(psi) + s^2)^2

    evaluated with the cancellation-free rewrite

        numerator = denominator0 - 2 (s sin(psi))^2,

    where denominator0 is the stable common denominator.  The argument s is
    the premultiplied product r*rho; callers form the product.  Q peaks at
    psi = 0 with value 1/(1-s)^2 and is *not* sign-definite: for s near 1 it
    dips negative away from the peak.
    """
    s_arr = _check_unit_interval(s, "s")
    den0 = _stable_denominator(s_arr, psi)
    sin_psi = np.sin(np.asarray(psi))
    num = den0 - 2.0 * (s_arr * sin_psi) ** 2
    value = num / (den0 * den0)
    if np.isscalar(s) and np.isscalar(psi):
        return float(value)
    return value


def poisson_kernel_series(r, theta, n_terms: int = 400):
    """Independent Fourier-series evaluation 1 + 2 sum r^n cos(n theta)."""
    r_arr = _check_unit_interval(r, "r")
    theta_arr = np.asarray(theta, dtype=float)
    k = np.arange(1, n_terms + 1)
    # powers on r's shape and cosines on theta's; only the product broadcasts
    terms = r_arr[..., None] ** k * np.cos(theta_arr[..., None] * k)
    value = 1.0 + 2.0 * terms.sum(axis=-1)
    if np.isscalar(r) and np.isscalar(theta):
        return float(value)
    return value


def analytic_bergman_kernel(z, w, alpha: float):
    """Weighted reproducing kernel for analytic functions on the disk.

    Returns ((1+alpha)/pi) * (1 - |w|^2)^alpha * (1 - z*conj(w))^(-(2+alpha))
    using the principal branch of the complex power.  For interior z, w the
    base 1 - z*conj(w) has positive real part, so the branch cut is never
    approached.  Accepts complex scalars or arrays.
    """
    check_alpha(alpha)
    z_c = np.asarray(z, dtype=complex)
    w_c = np.asarray(w, dtype=complex)
    if np.any(np.abs(z_c) >= 1.0) or np.any(np.abs(w_c) >= 1.0):
        raise DomainError("both points must lie strictly inside the unit disk")
    weight = (1.0 - np.abs(w_c) ** 2) ** alpha
    base = 1.0 - z_c * np.conj(w_c)
    value = (1.0 + alpha) / math.pi * weight * base ** (-(2.0 + alpha))
    if np.isscalar(value) or value.shape == ():
        return complex(value)
    return value
