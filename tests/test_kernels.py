import math

import numpy as np
import pytest

from harmonicdisk.errors import DomainError
from harmonicdisk.kernels import (
    KernelId,
    analytic_bergman_kernel,
    poisson_kernel,
    poisson_kernel_series,
    q_kernel,
)

PI = math.pi


def q_kernel_series(s, psi, n_terms: int):
    """Independent Fourier-series evaluation 1 + sum (k+1) s^k cos(k psi),
    elementwise for broadcasting arrays; slowly convergent near s = 1."""
    s, psi = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(psi, dtype=float))
    k = np.arange(1, n_terms + 1)
    return 1.0 + ((k + 1.0) * s[..., None] ** k * np.cos(psi[..., None] * k)).sum(axis=-1)


class TestPoissonKernel:
    def test_center_is_one(self):
        for theta in (-2.0, 0.0, 1.3, PI):
            assert poisson_kernel(0.0, theta) == 1.0

    def test_direct_substitution(self):
        assert poisson_kernel(0.5, 0.0) == pytest.approx(3.0, abs=1e-15)
        assert poisson_kernel(0.5, PI) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_positive_on_dense_grid(self):
        r = np.linspace(0.0, 0.99, 60)[:, None]
        theta = np.linspace(-PI, PI, 121)[None, :]
        assert np.all(poisson_kernel(r, theta) > 0.0)

    def test_even_and_periodic(self):
        r = np.linspace(0.0, 0.99, 25)[:, None]
        theta = np.linspace(-PI, PI, 41)[None, :]
        vals = poisson_kernel(r, theta)
        assert np.array_equal(vals, poisson_kernel(r, -theta))
        shifted = poisson_kernel(r, theta + 2.0 * PI)
        assert np.max(np.abs(shifted - vals) / vals) < 1e-10

    def test_series_consistency(self):
        # independent Fourier-series oracle; truncation chosen so the
        # geometric tail at r = 0.9 sits below the 1e-10 target
        r = np.linspace(0.0, 0.9, 13)[:, None]
        theta = np.linspace(-PI, PI, 29)[None, :]
        series = poisson_kernel_series(np.broadcast_to(r, (13, 29)), theta, n_terms=400)
        assert np.max(np.abs(series - poisson_kernel(r, theta))) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_kernel(1.0, 0.3)
        with pytest.raises(DomainError):
            poisson_kernel(-0.1, 0.3)
        with pytest.raises(DomainError):
            poisson_kernel(np.array([0.2, 1.5]), 0.0)


class TestQKernel:
    def test_center_is_one(self):
        for psi in (-2.0, 0.0, 0.7):
            assert q_kernel(0.0, psi) == 1.0

    def test_direct_substitution(self):
        assert q_kernel(0.5, 0.0) == pytest.approx(4.0, abs=1e-15)
        assert q_kernel(0.5, PI) == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_not_sign_definite(self):
        # raw-formula evaluation, frozen: the kernel dips negative
        value = q_kernel(0.9, 1.0)
        assert value < 0.0
        assert value == pytest.approx(-0.44147843792905445, abs=1e-13)

    def test_sign_change_for_large_s(self):
        psi = np.linspace(0.0, PI, 2001)
        for s in (0.8, 0.85, 0.9, 0.95, 0.99):
            assert np.min(q_kernel(s, psi)) < 0.0

    def test_even_and_periodic(self):
        s = np.linspace(0.0, 0.99, 25)[:, None]
        psi = np.linspace(-PI, PI, 41)[None, :]
        vals = q_kernel(s, psi)
        assert np.array_equal(vals, q_kernel(s, -psi))
        shifted = q_kernel(s, psi + 2.0 * PI)
        assert np.max(np.abs(shifted - vals) / np.maximum(np.abs(vals), 1e-3)) < 1e-10

    def test_peak_value_closed_form(self):
        s = np.linspace(0.0, 0.99, 50)
        assert np.max(np.abs(q_kernel(s, 0.0) * (1.0 - s) ** 2 - 1.0)) < 1e-12

    def test_peak_at_zero(self):
        psi = np.linspace(-PI, PI, 801)
        for s in (0.3, 0.6, 0.9):
            vals = np.abs(q_kernel(s, psi))
            assert abs(psi[np.argmax(vals)]) < 1e-12

    def test_series_consistency(self):
        s = np.linspace(0.0, 0.9, 10)[:, None]
        psi = np.linspace(-PI, PI, 17)[None, :]
        series = q_kernel_series(s, psi, n_terms=600)
        assert np.max(np.abs(series - q_kernel(s, psi))) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_kernel(1.0, 0.0)
        with pytest.raises(DomainError):
            q_kernel(-0.2, 0.0)

    def test_stable_near_peak(self):
        # the factored denominator keeps the peak finite and exact
        s = 0.999999
        assert q_kernel(s, 0.0) == pytest.approx(1.0 / (1.0 - s) ** 2, rel=1e-10)


class TestAnalyticBergmanKernel:
    def test_center_value(self):
        assert analytic_bergman_kernel(0j, 0j, 0.0) == pytest.approx(1.0 / PI, abs=1e-15)

    def test_real_diagonal(self):
        expected = 16.0 / (9.0 * PI)
        assert analytic_bergman_kernel(0.5 + 0j, 0.5 + 0j, 0.0) == pytest.approx(
            expected, abs=1e-15
        )

    def test_binomial_series_oracle(self):
        # independent oracle: (1 - u)^(-3) = sum (n+1)(n+2)/2 u^n
        z, w, alpha = 0.3 + 0.4j, 0.2 - 0.1j, 1.0
        u = z * np.conj(w)
        series = sum((n + 1) * (n + 2) / 2.0 * u**n for n in range(60))
        oracle = (1 + alpha) / PI * (1 - abs(w) ** 2) ** alpha * series
        value = analytic_bergman_kernel(z, w, alpha)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_accepts_complex_points(self):
        from harmonicdisk.geometry import ComplexPoint

        z = ComplexPoint.interior(0.3, 0.4)
        w = ComplexPoint.interior(0.2, -0.1)
        assert analytic_bergman_kernel(z, w, 1.0) == analytic_bergman_kernel(
            0.3 + 0.4j, 0.2 - 0.1j, 1.0
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            analytic_bergman_kernel(1.0 + 0j, 0j, 0.0)
        with pytest.raises(DomainError):
            analytic_bergman_kernel(0j, 0.8 + 0.7j, 0.0)
        with pytest.raises(DomainError):
            analytic_bergman_kernel(0j, 0j, -1.0)


class TestKernelId:
    def test_valid(self):
        KernelId("poisson")
        KernelId("q")
        KernelId("analytic_bergman", alpha=0.5)

    def test_invalid(self):
        with pytest.raises(DomainError):
            KernelId("unknown")
        with pytest.raises(DomainError):
            KernelId("analytic_bergman")
        with pytest.raises(DomainError):
            KernelId("analytic_bergman", alpha=-1.0)
        with pytest.raises(DomainError):
            KernelId("poisson", alpha=1.0)
