"""Plain-text grid files plus JSON metadata sidecars.

A grid file is CSV with header ``r,theta,value,converged`` and one row
per grid point in row-major order (radius outer, angle inner).  Values
are rendered with 17 significant digits, which round-trips IEEE doubles
exactly; identical invocations therefore produce bitwise-identical
files.  The writer streams the file ring by ring; the reader parses it
with numpy's C parser and refuses rows out of that order, converged
flags other than 0 or 1, and rows that are not four numbers.  Timestamps
never appear in data files and appear in the sidecar only when
explicitly requested.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .errors import DomainError
from .geometry import EvaluationGrid
from .transforms import Field

ARTIFACT_VERSION = "0.1.0"

_HEADER = "r,theta,value,converged"


def write_grid_file(
    field: Field,
    path,
    sidecar_extra: dict | None = None,
    timestamp: bool = False,
    reload_check: bool = False,
) -> Path:
    """Write a field and its metadata sidecar; returns the data path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    thetas = [f",{t:.17g}," for t in field.grid.angles.tolist()]
    with path.open("w") as fh:
        fh.write(_HEADER + "\n")
        for i, r in enumerate(field.grid.radii.tolist()):
            rs = format(r, ".17g")
            rows = zip(thetas, field.values[i].tolist(), field.converged[i].tolist())
            fh.write("".join([f"{rs}{ts}{v:.17g},{1 if c else 0}\n" for ts, v, c in rows]))

    meta = dict(field.meta)
    meta["grid"] = {
        "n_r": field.grid.n_r,
        "n_theta": field.grid.n_theta,
        "r_max": float(field.grid.radii[-1]),
    }
    meta["artifact_version"] = ARTIFACT_VERSION
    if sidecar_extra:
        meta.update(sidecar_extra)
    if timestamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    if reload_check:
        reread = read_grid_file(path)
        if not (
            np.array_equal(reread.values, field.values, equal_nan=True)
            and np.array_equal(reread.converged, field.converged)
            and np.array_equal(reread.grid.radii, field.grid.radii)
            and np.array_equal(reread.grid.angles, field.grid.angles)
        ):
            raise DomainError(f"reload self-check failed for {path}")
    return path


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def read_grid_file(path) -> Field:
    """Re-read a grid file (and its sidecar when present) into a Field."""
    path = Path(path)
    with path.open() as fh:
        if fh.readline().rstrip("\r\n") != _HEADER:
            raise DomainError(f"{path}: not a grid file (bad header)")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"{path}: malformed data row: {exc}") from exc
    if data.shape[1] != 4:
        raise DomainError(f"{path}: expected rows of 4 columns, got shape {data.shape}")
    r_col, t_col, v_col, c_col = data.T
    radii, angles = np.unique(r_col), np.unique(t_col)
    n_r, n_t = radii.size, angles.size
    if not (np.array_equal(r_col, np.repeat(radii, n_t))
            and np.array_equal(t_col, np.tile(angles, n_r))):
        raise DomainError(f"{path}: rows are not in row-major (r, theta) order")
    if not np.all((c_col == 0) | (c_col == 1)):
        raise DomainError(f"{path}: converged flags must be 0 or 1")
    grid = EvaluationGrid(radii, angles, allow_near_boundary=True)
    values = np.ascontiguousarray(v_col).reshape(n_r, n_t)
    converged = (c_col == 1).reshape(n_r, n_t)

    meta = {}
    sc = sidecar_path(path)
    if sc.exists():
        meta = json.loads(sc.read_text())
    return Field(
        grid=grid,
        values=values,
        converged=converged,
        errors=np.zeros_like(values),
        meta=meta,
    )


def ratio_field(numerator: Field, denominator: Field, floor_fraction: float = 1e-6) -> Field:
    """Pointwise ratio of two fields on the same grid.

    Points where the denominator is smaller than ``floor_fraction`` times
    its own max magnitude are flagged unconverged and set to NaN rather
    than reported as huge ratios.
    """
    if numerator.grid != denominator.grid:
        raise DomainError("ratio requires matching grids")
    floor = floor_fraction * float(np.max(np.abs(denominator.values)))
    safe = np.abs(denominator.values) > floor
    values = np.full_like(numerator.values, np.nan)
    np.divide(numerator.values, denominator.values, out=values, where=safe)
    converged = safe & numerator.converged & denominator.converged
    meta = {
        "operator": "ratio",
        "numerator": numerator.meta.get("operator"),
        "denominator": denominator.meta.get("operator"),
        "floor_fraction": floor_fraction,
    }
    return Field(
        grid=numerator.grid,
        values=values,
        converged=converged,
        errors=np.zeros_like(values),
        meta=meta,
    )
