"""Centre-of-disk values for every catalog transform case.

At r = 0 the area kernel is identically 1, so the transform collapses to
prefactor * (weighted source mass) and every case has an elementary
closed form.  These are computed independently here and pin the whole
catalog: radial ranges, angular ranges, weight factors and prefactors.
The Poisson kernel at r = 0 is identically 1 too, so the boundary
integral there is the mean of the boundary data.
"""

import math

import pytest

from harmonicdisk.quadrature import QuadratureSpec
from harmonicdisk.sources import figure_case
from harmonicdisk.transforms import poisson_point, q_point

PI = math.pi
SPEC = QuadratureSpec(adaptive_tol=1e-12)
ATOL = 5e-14  # every case reaches 1.5e-14 or better (fig 7, the worst)
LOG_MASS = 2.0 + PI * (math.log(PI) - 1.0)  # integral of |ln phi| over [0, pi]


def _r2(a, b):
    return (b**2 - a**2) / 2.0  # integral of rho


def _r3(a, b):
    return (b**3 - a**3) / 3.0  # integral of rho^2


def _singular_radial(beta, r_lo):
    # int_{r_lo}^1 rho (1 - rho)^(-beta) drho via u = 1 - rho
    u = 1.0 - r_lo
    return u ** (1 - beta) / (1 - beta) - u ** (2 - beta) / (2 - beta)


CENTER_VALUES = {
    3: 0.0,  # odd angular factor
    4: _r2(0.0, 0.25) * 2 * PI,
    5: _r2(0.25, 0.5) * PI / 4 + _r2(0.6, 0.8) * PI / 6,
    6: _singular_radial(0.25, 0.75) * (2 * math.sin(PI / 6)),
    7: _singular_radial(0.25, 0.75) * (2 * math.sin(PI / 6))
       + _singular_radial(0.375, 0.875) * (math.sin(PI) - math.sin(5 * PI / 6)),
    9: (2 / PI) * _r2(0.9, 1.0) * (PI / 3),
    11: (2 / PI) * _r3(0.9, 1.0) * PI**2,
    12: (2 / PI) * _r3(0.9, 1.0) * (2.0 * (PI / 6) ** 3 / 3.0),
    13: (2 / PI) * _r3(0.9, 1.0) * 2.0,
    14: (2 / PI) * _r3(0.9, 1.0) * LOG_MASS,
    15: 5.0 * math.sqrt(PI / 10.0) * math.erf(0.2 * math.sqrt(10.0)),
}


@pytest.mark.parametrize("fig_id", sorted(CENTER_VALUES))
def test_center_value_closed_form(fig_id):
    q_case = figure_case(fig_id)
    value, _, converged = q_point(q_case.source, 0.0, 0.77, q_case.prefactor, SPEC)
    assert converged
    assert value == pytest.approx(CENTER_VALUES[fig_id], abs=ATOL)


def test_log_boundary_center_value():
    """Figure 14's |ln|theta|| boundary data: mean over the circle."""
    boundary = figure_case(14).boundary
    value, _, converged = poisson_point(boundary, 0.0, 0.77, SPEC)
    assert converged
    assert value == pytest.approx(LOG_MASS / (2 * PI), abs=ATOL)
