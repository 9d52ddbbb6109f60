"""Plain-text grid files plus JSON metadata sidecars.

A grid file is CSV with header ``r,theta,value,converged`` and one row
per grid point in row-major order (radius outer, angle inner).  Numbers
are rendered with 17 significant digits, which round-trips IEEE doubles
exactly; identical invocations therefore produce bitwise-identical
files.  The writer renders each angle once, into a row template per
converged flag, and formats a whole ring with one ``%``, so every value
costs one binary-to-decimal conversion and no Python code runs per row.
The reader parses every row with numpy's C parser into a record of
radius, angle text, value and flag.  Each ring must repeat the first
ring's angle texts (at most 24 characters, the longest ``.17g``
rendering), so the distinct angles are converted once.  It refuses rows
out of row-major order, flags other than the integers 0 and 1, rows that
are not four fields, and ``#`` lines.  Timestamps never appear in data
files and appear in the sidecar only when explicitly requested.
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
# a ".17g" rendering has at most 24 characters; a longer angle would be
# truncated silently by the fixed-width text field, so 25 is refused
_ANGLE_WIDTH = 25
_ROW = np.dtype([("r", "f8"), ("theta", f"S{_ANGLE_WIDTH}"), ("value", "f8"), ("converged", "u1")])


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
    # row templates: [flag][angle] -> ",<theta>,%.17g,<flag>\n"
    templates = np.array(
        [[f",{t:.17g},%.17g,{c}\n" for t in field.grid.angles.tolist()] for c in (0, 1)],
        dtype=object,
    )
    columns = np.arange(field.grid.n_theta)
    with path.open("w") as fh:
        fh.write(_HEADER + "\n")
        for r, values, converged in zip(field.grid.radii.tolist(), field.values, field.converged):
            rs = format(r, ".17g")
            ring = rs + rs.join(templates[converged.astype(np.intp), columns].tolist())
            fh.write(ring % tuple(values.tolist()))

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
        if not any(line.strip() for line in iter(fh.readline, "")):
            raise DomainError(f"{path}: no data rows")
    try:
        rows = np.loadtxt(path, dtype=_ROW, delimiter=",", skiprows=1, comments=None, ndmin=1)
    except ValueError as exc:
        raise DomainError(f"{path}: malformed data row: {exc}") from exc
    r_col = rows["r"]
    ring_ends = np.flatnonzero(r_col[1:] != r_col[:-1])
    n_t = int(ring_ends[0]) + 1 if ring_ends.size else r_col.size
    n_r, partial = divmod(r_col.size, n_t)
    if partial:
        raise DomainError(f"{path}: {r_col.size} rows do not fill rings of {n_t} angles")
    r_grid = r_col.reshape(n_r, n_t)
    t_grid = rows["theta"].reshape(n_r, n_t)
    if not (np.all(r_grid == r_grid[:, :1]) and np.all(t_grid == t_grid[:1])):
        raise DomainError(f"{path}: rows are not in row-major (r, theta) order")
    texts = t_grid[0].tolist()
    if max(map(len, texts)) >= _ANGLE_WIDTH:
        raise DomainError(f"{path}: an angle has {_ANGLE_WIDTH} or more characters")
    try:
        angles = np.array([float(t) for t in texts])
    except ValueError as exc:
        raise DomainError(f"{path}: malformed angle: {exc}") from exc
    c_col = rows["converged"]
    if np.any(c_col > 1):
        raise DomainError(f"{path}: converged flags must be 0 or 1")
    # the grid refuses radii or angles that are not strictly increasing; the
    # copy keeps the Field from holding on to the parsed rows
    grid = EvaluationGrid(r_grid[:, 0].copy(), angles, allow_near_boundary=True)
    values = np.ascontiguousarray(rows["value"]).reshape(n_r, n_t)
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
