import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonicdisk.errors import (
    InvalidExponentError,
    InvalidRegionError,
    NonFiniteError,
)
from harmonicdisk.geometry import PolarRectangle
from harmonicdisk.kernels import q_kernel
from harmonicdisk.quadrature import (
    QuadratureSpec,
    _angular_rule,
    _gauss_rule,
    _jacobi_rule,
    _map_nodes,
    integrate_angular,
    integrate_polar,
)

PI = math.pi
DISK = PolarRectangle.full_disk()


def ones(rho, phi):
    return np.ones(np.broadcast_shapes(np.shape(rho), np.shape(phi)))


class TestIntegratePolar:
    def test_disk_area(self):
        res = integrate_polar(ones, DISK)
        assert res.value == pytest.approx(PI, abs=1e-12)
        assert res.converged

    def test_small_disk_area(self):
        res = integrate_polar(ones, PolarRectangle(0.0, 0.25, 0.0, 2.0 * PI))
        assert res.value == pytest.approx(PI / 16.0, abs=1e-12)

    def test_q_normalization_identity(self):
        res = integrate_polar(lambda rho, phi: q_kernel(0.5 * rho, 0.3 - phi) / PI, DISK)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", [0, 1, 5, 10])
    @pytest.mark.parametrize("k", [0, 3, 10])
    def test_exactness_polynomial_times_cosine(self, m, k):
        rect = PolarRectangle(0.15, 0.85, -1.1, 0.6)
        exact_r = (rect.r_hi ** (m + 2) - rect.r_lo ** (m + 2)) / (m + 2)
        if k == 0:
            exact_t = rect.theta_hi - rect.theta_lo
        else:
            exact_t = (math.sin(k * rect.theta_hi) - math.sin(k * rect.theta_lo)) / k
        res = integrate_polar(lambda rho, phi: rho**m * np.cos(k * phi), rect)
        assert res.value == pytest.approx(exact_r * exact_t, abs=1e-12)

    def test_additivity(self):
        f = lambda rho, phi: np.exp(rho) * np.sin(3.0 * phi + 0.2)
        rect = PolarRectangle(0.1, 0.9, -2.0, 1.5)
        whole = integrate_polar(f, rect).value
        left = integrate_polar(f, PolarRectangle(0.1, 0.9, -2.0, -0.3)).value
        right = integrate_polar(f, PolarRectangle(0.1, 0.9, -0.3, 1.5)).value
        assert whole == pytest.approx(left + right, abs=1e-12)
        lo = integrate_polar(f, PolarRectangle(0.1, 0.4, -2.0, 1.5)).value
        hi = integrate_polar(f, PolarRectangle(0.4, 0.9, -2.0, 1.5)).value
        assert whole == pytest.approx(lo + hi, abs=1e-12)

    def test_deterministic(self):
        f = lambda rho, phi: q_kernel(0.88 * rho, 0.4 - phi)
        first = integrate_polar(f, DISK)
        second = integrate_polar(f, DISK)
        assert first.value == second.value
        assert first.panels_used == second.panels_used

    def test_non_finite_raises(self):
        def bad(rho, phi):
            return np.where(rho > 0.5, np.nan, 1.0)

        with pytest.raises(NonFiniteError):
            integrate_polar(bad, DISK)

    # +inf at one node, and a +inf/-inf pair whose sum is NaN
    @pytest.mark.parametrize("bad_nodes", [{(2, 5): np.inf}, {(1, 1): np.inf, (2, 2): -np.inf}])
    def test_infinite_nodes_raise(self, bad_nodes):
        def bad(rho, phi):
            values = np.ones((rho.size, phi.size))
            for node, value in bad_nodes.items():
                values[node] = value
            return values

        with pytest.raises(NonFiniteError):
            integrate_polar(bad, DISK)

    def test_error_names_the_panel(self):
        with pytest.raises(NonFiniteError, match=re.escape("panel [0.25,0.75]x[-1.0,0.5]")):
            integrate_polar(lambda rho, phi: np.where(phi > 0.0, np.nan, rho + phi),
                            PolarRectangle(0.25, 0.75, -1.0, 0.5))

    def test_overflowing_sum_raises(self):
        # finite values whose weighted sum overflows: the sum is what is checked
        big = lambda rho, phi: np.full(np.broadcast_shapes(rho.shape, phi.shape), 1e308)
        with pytest.raises(NonFiniteError):
            integrate_polar(big, PolarRectangle(0.0, 1.0, -3.0, 3.0))

    def test_unconverged_flagged(self):
        spec = QuadratureSpec(nodes_radial=2, nodes_angular=2, adaptive_tol=1e-14, max_depth=1)
        res = integrate_polar(lambda rho, phi: q_kernel(0.9 * rho, phi), DISK, spec)
        assert not res.converged
        assert res.error_estimate > spec.adaptive_tol

    def test_converged_error_bound(self):
        spec = QuadratureSpec()
        res = integrate_polar(lambda rho, phi: q_kernel(0.85 * rho, phi), DISK, spec)
        assert res.converged
        assert res.error_estimate <= spec.adaptive_tol * res.panels_used


class TestSingularRadial:
    def test_one_dimensional_self_test(self):
        # int_0^1 rho (1 - rho)^(-1/2) drho = 2 - 2/3 over a unit angle
        res = integrate_polar(ones, PolarRectangle(0.0, 1.0, 0.0, 1.0), weight=(1.0, -0.5))
        assert res.value == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_with_jacobian_closed_form(self):
        # int_{3/4}^1 rho (1-rho)^(-1/4) drho via u = 1-rho
        expected = (4.0 / 3.0) * 0.25**0.75 - (4.0 / 7.0) * 0.25**1.75
        res = integrate_polar(ones, PolarRectangle(0.75, 1.0, 0.0, 1.0), weight=(1.0, -0.25))
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_beta_to_zero_matches_regular(self):
        region = PolarRectangle(0.5, 1.0, -0.4, 0.9)
        f = lambda rho, phi: np.cos(phi) * np.broadcast_to(rho, np.broadcast_shapes(np.shape(rho), np.shape(phi))) ** 2
        sub = integrate_polar(f, region, weight=(1.0, -1e-6)).value
        plain = integrate_polar(f, region).value
        assert sub == pytest.approx(plain, abs=1e-6)

    def test_angular_weight_at_disk_center(self):
        # with the kernel identically 1 the transform reduces to the plain
        # weighted integral; radial closed form times the cosine arc integral
        region = PolarRectangle(0.75, 1.0, -PI / 6, PI / 6)
        radial = (4.0 / 3.0) * 0.25**0.75 - (4.0 / 7.0) * 0.25**1.75
        expected = radial * (2.0 * math.sin(PI / 6.0))
        res = integrate_polar(
            lambda rho, phi: np.broadcast_to(np.cos(phi), np.broadcast_shapes(np.shape(rho), np.shape(phi))),
            region,
            weight=(1.0, -0.25),
        )
        assert res.value == pytest.approx(expected, abs=1e-9)
        # brute-force midpoint in the substituted variable
        # t = (1 - rho)^(1 - beta), an independent rule
        beta = 0.25
        n_t, n_p = 4000, 250
        t_hi = 0.25 ** (1 - beta)
        dt = t_hi / n_t
        dp = (PI / 3.0) / n_p
        t = (np.arange(n_t) + 0.5) * dt
        p = -PI / 6.0 + (np.arange(n_p) + 0.5) * dp
        rho = 1.0 - t ** (1.0 / (1.0 - beta))
        brute = np.sum(
            np.cos(p)[None, :] * (rho / (1.0 - beta))[:, None]
        ) * dt * dp
        assert res.value == pytest.approx(brute, rel=1e-4)

    def test_invalid_exponent(self):
        region = PolarRectangle(0.5, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidExponentError):
            integrate_polar(ones, region, weight=(1.0, -1.2))
        with pytest.raises(InvalidExponentError):
            integrate_polar(ones, region, weight=(1.0, -1.0))

    def test_region_must_touch_boundary(self):
        with pytest.raises(InvalidRegionError):
            integrate_polar(ones, PolarRectangle(0.5, 0.9, 0.0, 1.0), weight=(1.0, -0.25))


class TestJacobiRule:
    """The Gauss-Jacobi rule of the weight (1 - x)^(-beta) on [-1, 1]."""

    @staticmethod
    def moment(beta, m):
        # integral of (1 - x)^(-beta) (1 + x)^m over [-1, 1]
        return math.exp((m + 1 - beta) * math.log(2.0) + math.lgamma(1.0 - beta)
                        + math.lgamma(m + 1.0) - math.lgamma(m + 2.0 - beta))

    # 0.75 is the exponent 2 beta of |f|^2 for the fig 7 piece
    @pytest.mark.parametrize("beta", [1e-6, 0.25, 0.375, 0.5, 0.75])
    def test_exact_to_degree_2n_minus_1(self, beta):
        for n in (1, 2, 5, 16, 32):
            x, w = _jacobi_rule(n, -beta, 0.0)
            for m in range(2 * n):
                assert float(w @ (1.0 + x) ** m) == pytest.approx(self.moment(beta, m),
                                                                 rel=2e-13)

    @pytest.mark.parametrize("n", [1, 4, 32, 64])
    def test_beta_to_zero_is_gauss_legendre(self, n):
        x, w = _jacobi_rule(n, -1e-15, 0.0)
        nodes, weights = _gauss_rule(n)
        assert np.max(np.abs(x - nodes)) <= 1e-14
        assert np.max(np.abs(w - weights)) <= 1e-14

    def test_split_panels_agree_with_one_jacobi_panel(self):
        # a panel away from rho = 1 takes Gauss-Legendre times the weight
        g = lambda rho: rho**3 * np.cos(rho)
        panels = [(0.5, 1.0), (0.5, 0.75), (0.75, 1.0)]
        whole, left, right = (w @ g(x) for x, w in (_map_nodes(lo, hi, 16, (1.0, -0.375))
                                                    for lo, hi in panels))
        assert left + right == pytest.approx(whole, abs=1e-15)
        # one node carries the whole weight: 0.25^(1 - beta) / (1 - beta)
        _, w = _map_nodes(0.75, 1.0, 1, (1.0, -0.375))
        assert float(w[0]) == pytest.approx(0.25**0.625 / 0.625, abs=1e-15)


def _beta_moment(a, b, m):
    """Integral of (1 - x)^a (1 + x)^(b + m) over [-1, 1]:
    2^(a + b + m + 1) B(a + 1, b + m + 1)."""
    return math.exp((a + b + m + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                    + math.lgamma(b + m + 1.0) - math.lgamma(a + b + m + 2.0))


# near -1 the node at the singular end carries a weight of order 1 / (1 + a),
# so a moment loses about log10(1 / (1 + a)) digits to the rounding of 1 -+ x
exponents = st.floats(-0.999, 0.999)


class TestJacobiWeightAtEitherEnd:
    """The Gauss-Jacobi rule of (1 - x)^a (1 + x)^b for any exponents, and
    the radial weight |rho - end|^exponent it puts at either end of a panel."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(exponents, exponents)
    def test_exact_to_degree_2n_minus_1(self, a, b):
        # (1 + x)^m and (1 - x)^m, m <= 2n - 1, span the polynomials the rule
        # must integrate exactly; each moment is positive, so relative
        # agreement is meaningful
        for n in (1, 2, 5, 16):
            x, w = _jacobi_rule(n, a, b)
            for m in range(2 * n):
                assert float(w @ (1.0 + x) ** m) == pytest.approx(_beta_moment(a, b, m),
                                                                 rel=1e-12)
                assert float(w @ (1.0 - x) ** m) == pytest.approx(_beta_moment(b, a, m),
                                                                 rel=1e-12)

    @pytest.mark.parametrize("lo, hi, end", [(0.0, 0.8, 0.0), (0.3, 1.0, 1.0)])
    def test_weight_at_either_end_of_a_panel(self, lo, hi, end):
        # integral of |rho - end|^e over [lo, hi], and its split into halves,
        # of which only the one ending at ``end`` takes the Jacobi rule
        for exponent in (-0.375, 0.5, 1.5):
            exact = (hi - lo) ** (1.0 + exponent) / (1.0 + exponent)
            mid = 0.5 * (lo + hi)
            whole, left, right = (float(_map_nodes(a, b, 24, (end, exponent))[1].sum())
                                  for a, b in ((lo, hi), (lo, mid), (mid, hi)))
            assert whole == pytest.approx(exact, rel=1e-14)
            assert left + right == pytest.approx(exact, rel=1e-12)

    def test_weight_end_and_exponent_are_checked(self):
        region = PolarRectangle(0.0, 0.8, 0.0, 1.0)
        assert integrate_polar(ones, region, weight=(0.0, 0.5)).value == pytest.approx(
            0.8**2.5 / 2.5, rel=1e-13)
        with pytest.raises(InvalidRegionError):
            integrate_polar(ones, region, weight=(1.0, 0.5))
        with pytest.raises(InvalidExponentError):
            integrate_polar(ones, region, weight=(0.0, -1.0))


class TestIntegrateAngular:
    def test_full_circle_cosine(self):
        res = integrate_angular(lambda t: np.cos(t) ** 2, -PI, PI)
        assert res.value == pytest.approx(PI, abs=1e-12)

    def test_kink_is_bisected(self):
        # int_{-1}^{1} |phi - 0.3| dphi = (1.3^2 + 0.7^2) / 2; the panel
        # count pins the 1-D bisection path of the shared panel loop
        res = integrate_angular(lambda t: np.abs(t - 0.3), -1.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.09, abs=1e-9)
        assert res.panels_used == 10

    def test_unconverged_at_max_depth(self):
        spec = QuadratureSpec(max_depth=2)
        res = integrate_angular(lambda t: np.abs(np.log(t)), 0.0, 1.0, spec)
        assert not res.converged
        assert res.error_estimate > spec.adaptive_tol

    def test_invalid_interval(self):
        with pytest.raises(InvalidRegionError):
            integrate_angular(lambda t: t, 1.0, 1.0)

    def test_nan_at_one_node_raises(self):
        def bad(phi):
            values = np.ones_like(phi)
            values[3] = np.nan
            return values

        with pytest.raises(NonFiniteError, match=re.escape("panel [-1.0,1.0]")):
            integrate_angular(bad, -1.0, 1.0)

    def test_overflowing_sum_raises(self):
        with pytest.raises(NonFiniteError):
            integrate_angular(lambda t: np.full_like(t, 1e308), -3.0, 3.0)


def abs_log(phi):
    return np.abs(np.log(np.abs(phi)))


class TestGradedEnd:
    """A declared logarithmic end is graded, phi = e + (o - e) t^4, so one
    panel integrates it to roundoff instead of bisecting to max_depth."""

    # below ~1e-300 the graded nodes x t^4 underflow to 0, where ln is -inf
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(min_value=1e-300, max_value=1.0))
    def test_log_integral_both_orientations(self, x):
        exact = x * (1.0 - math.log(x))  # integral of |ln phi| over (0, x]
        for lo, hi in ((0.0, x), (-x, 0.0)):
            res = integrate_angular(abs_log, lo, hi, graded_end=0.0)
            assert res.converged
            assert res.panels_used <= 2
            assert res.value == pytest.approx(exact, abs=1e-13)

    def test_ungraded_log_end_bisects_to_max_depth(self):
        res = integrate_angular(abs_log, 0.0, 1.0)
        assert not res.converged
        assert res.panels_used > 10

    def test_polar_rectangle(self):
        # rho over [0.5, 1] times |ln phi| over [0, 1]
        region = PolarRectangle(0.5, 1.0, 0.0, 1.0)
        res = integrate_polar(lambda rho, phi: abs_log(phi), region, graded_end=0.0)
        assert res.converged and res.panels_used == 1
        assert res.value == pytest.approx(0.375, abs=1e-14)

    def test_composes_with_singular_radial(self):
        # rho (1 - rho)^(-1/2) over [0, 1] is 4/3; |ln phi| over [-1, 0] is 1
        region = PolarRectangle(0.0, 1.0, -1.0, 0.0)
        spec = QuadratureSpec(adaptive_tol=1e-13)
        res = integrate_polar(lambda rho, phi: abs_log(phi), region, spec,
                              graded_end=0.0, weight=(1.0, -0.5))
        assert res.converged
        assert res.value == pytest.approx(4.0 / 3.0, abs=1e-13)

    # 128 nodes: the fine rule of the default QuadratureSpec
    def test_graded_rule_integrates_log_moments(self):
        # integral of x^m ln x over [0, 1] is -1/(m+1)^2, graded towards
        # either end of the panel
        for lo, hi, end in ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)):
            x, w = _angular_rule(lo, hi, 128, end)
            for m in range(8):
                assert abs(w @ (np.abs(x)**m * np.log(np.abs(x))) + 1.0 / (m + 1) ** 2) <= 1e-14

    def test_graded_rule_is_additive_across_a_bisection(self):
        # the half that still ends at e stays graded; the other is plain
        g = lambda x: np.log(x) * np.cos(3.0 * x)
        x, w = _angular_rule(0.0, 1.0, 128, 0.0)
        halves = sum(w @ g(x) for x, w in (_angular_rule(0.0, 0.5, 128, 0.0),
                                            _angular_rule(0.5, 1.0, 128, 0.0)))
        assert abs(halves - w @ g(x)) <= 1e-14

    def test_graded_rule_only_on_a_panel_ending_at_end(self):
        plain = _map_nodes(0.5, 1.0, 16)
        for end in (None, 0.0, 0.75):
            graded = _angular_rule(0.5, 1.0, 16, end)
            assert all(np.array_equal(a, b) for a, b in zip(graded, plain))

    def test_graded_end_must_be_an_end(self):
        with pytest.raises(InvalidRegionError):
            integrate_angular(abs_log, 0.0, 1.0, graded_end=0.5)
        with pytest.raises(InvalidRegionError):
            integrate_polar(ones, PolarRectangle(0.0, 1.0, 0.0, 1.0), graded_end=-1.0)


class TestPanelTree:
    """The panel count, convergence and value of three integrands whose
    trees split: a coarse rule, fine rule or split probe that took the wrong
    node map would change the tree.  Values are pinned to 4 ulp, not bits,
    as numpy's and the CPU's rounding may differ."""

    @pytest.mark.parametrize("integral, panels, value", [
        # splits on both axes
        (lambda: integrate_polar(lambda rho, phi: q_kernel(0.95 * rho, 0.4 - phi), DISK,
                                 QuadratureSpec(nodes_radial=8, nodes_angular=16)),
         17, 3.1415926535897944),
        # a graded log end and a kink at 0.3
        (lambda: integrate_angular(lambda t: abs_log(t) * np.abs(t - 0.3), 0.0, 1.0,
                                   graded_end=0.0),
         9, 0.19335755235595897),
        # Gauss-Jacobi panels at rho = 1, split on both axes
        (lambda: integrate_polar(lambda rho, phi: q_kernel(0.99 * rho, 0.2 - phi),
                                 PolarRectangle(0.5, 1.0, 0.0, 1.0), weight=(1.0, -0.3)),
         7, 4.634636710830343),
    ])
    def test_tree_is_pinned(self, integral, panels, value):
        res = integral()
        assert res.panels_used == panels
        assert res.converged
        assert abs(res.value - value) <= 4 * math.ulp(value)


class TestSpecValidation:
    def test_bad_specs(self):
        with pytest.raises(InvalidRegionError):
            QuadratureSpec(nodes_radial=0)
        with pytest.raises(InvalidRegionError):
            QuadratureSpec(adaptive_tol=0.0)
        with pytest.raises(InvalidRegionError):
            QuadratureSpec(adaptive_tol=math.inf)
        with pytest.raises(InvalidRegionError):
            QuadratureSpec(max_depth=31)

    def test_bad_region(self):
        with pytest.raises(InvalidRegionError):
            PolarRectangle(0.5, 0.25, 0.0, 1.0)
        with pytest.raises(InvalidRegionError):
            PolarRectangle(0.0, 1.0, 0.0, 7.0)
