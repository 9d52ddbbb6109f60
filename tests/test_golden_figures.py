"""Regression against committed golden field files.

The goldens were produced by this implementation at fixed small settings
(4 x 8 grid, r_max 0.8, default quadrature); they pin down behavior
against accidental change, they are not external truth.  Only converged
points are compared, so every q and Poisson golden must be converged,
and the r = 0 ring of the log-singular figure 14 is also checked against
its closed forms.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from harmonicdisk.cli import _figure_fields
from harmonicdisk.geometry import EvaluationGrid
from harmonicdisk.gridio import read_grid_file
from harmonicdisk.quadrature import QuadratureSpec
from harmonicdisk.sources import figure_case

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fig_id", range(1, 16))
def test_figure_matches_golden(fig_id):
    grid = EvaluationGrid.regular(n_r=4, n_theta=8, r_max=0.8)
    fields = _figure_fields(figure_case(fig_id), grid, QuadratureSpec())
    # every field written has a golden, and every golden is still written
    goldens = sorted(p.stem[6:] for p in GOLDEN_DIR.glob(f"fig{fig_id:02d}_*.csv"))
    assert sorted(name for name, _ in fields) == goldens
    for name, fld in fields:
        path = GOLDEN_DIR / f"fig{fig_id:02d}_{name}.csv"
        golden = read_grid_file(path)
        scale = max(np.nanmax(np.abs(golden.values)), 1.0)
        mask = golden.converged
        assert np.array_equal(golden.converged, fld.converged)
        assert np.allclose(
            fld.values[mask], golden.values[mask], rtol=0, atol=1e-12 * scale
        ), f"{path.name} drifted"


@pytest.mark.parametrize(
    "path", sorted(p.name for p in GOLDEN_DIR.glob("fig*_*.csv")
                   if p.stem.endswith(("_q", "_poisson"))))
def test_transform_golden_is_converged(path):
    golden = read_grid_file(GOLDEN_DIR / path)
    assert golden.converged.all(), f"{path} has unconverged points"


def test_log_figure_center_ring_matches_closed_form():
    """At r = 0 both kernels are 1: the transforms are source means."""
    log_mass = 2.0 + math.pi * (math.log(math.pi) - 1.0)  # |ln phi| over [0, pi]
    expected = {
        "q": (2.0 / math.pi) * (1.0 - 0.9**3) / 3.0 * log_mass,
        "poisson": log_mass / (2.0 * math.pi),
    }
    for name, value in expected.items():
        golden = read_grid_file(GOLDEN_DIR / f"fig14_{name}.csv")
        assert golden.grid.radii[0] == 0.0
        scale = max(np.nanmax(np.abs(golden.values)), 1.0)
        assert np.all(np.abs(golden.values[0] - value) <= 1e-12 * scale), name


def test_golden_directory_covers_all_figures():
    ids = {int(p.name[3:5]) for p in GOLDEN_DIR.glob("fig*_*.csv")}
    assert ids == set(range(1, 16))
