import json
import math
from pathlib import Path

import numpy as np
import pytest

from harmonicdisk.errors import DomainError
from harmonicdisk.geometry import EvaluationGrid
from harmonicdisk.gridio import ratio_field, read_grid_file, sidecar_path, write_grid_file
from harmonicdisk.transforms import Field

GOLDEN = Path(__file__).parent / "golden"


def make_field(values=None, n_r=3, n_theta=4):
    grid = EvaluationGrid.regular(n_r=n_r, n_theta=n_theta, r_max=0.8)
    if values is None:
        rng = np.random.default_rng(7)
        values = rng.standard_normal(grid.shape) * np.pi
    return Field(
        grid=grid,
        values=values,
        converged=np.ones(grid.shape, dtype=bool),
        errors=np.zeros(grid.shape),
        meta={"operator": "test"},
    )


class TestGridIO:
    def test_roundtrip_exact(self, tmp_path):
        fld = make_field()
        path = write_grid_file(fld, tmp_path / "f.csv", reload_check=True)
        back = read_grid_file(path)
        assert np.array_equal(back.values, fld.values)
        assert np.array_equal(back.grid.radii, fld.grid.radii)
        assert np.array_equal(back.grid.angles, fld.grid.angles)
        assert back.meta["operator"] == "test"

    def test_seventeen_digits_roundtrip_awkward_values(self, tmp_path):
        values = np.array([[1.0 / 3.0, math.pi, 1e-300, -1.2345678901234567e17]])
        grid = EvaluationGrid(np.array([0.5]), np.array([-3.0, -1.0, 0.0, 1.0]))
        fld = Field(grid=grid, values=values,
                    converged=np.ones_like(values, bool), errors=np.zeros_like(values))
        write_grid_file(fld, tmp_path / "a.csv", reload_check=True)

    def test_deterministic_bytes(self, tmp_path):
        fld = make_field()
        p1 = write_grid_file(fld, tmp_path / "a.csv")
        p2 = write_grid_file(fld, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_timestamp_by_default(self, tmp_path):
        fld = make_field()
        path = write_grid_file(fld, tmp_path / "a.csv")
        meta = json.loads(sidecar_path(path).read_text())
        assert "timestamp" not in meta
        path = write_grid_file(fld, tmp_path / "b.csv", timestamp=True)
        meta = json.loads(sidecar_path(path).read_text())
        assert "timestamp" in meta

    def test_row_count(self, tmp_path):
        fld = make_field(n_r=5, n_theta=7)
        path = write_grid_file(fld, tmp_path / "a.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 7

    def test_ratio_field_guards_small_denominators(self):
        num = make_field(values=np.ones((3, 4)))
        den = make_field(values=np.ones((3, 4)))
        den.values[1, 2] = 1e-12
        ratio = ratio_field(num, den)
        assert not ratio.converged[1, 2]
        assert np.isnan(ratio.values[1, 2])
        assert ratio.values[0, 0] == 1.0

    def test_ratio_requires_matching_grids(self):
        a = make_field()
        b = make_field(n_r=4)
        with pytest.raises(DomainError):
            ratio_field(a, b)

    def test_nan_roundtrip(self, tmp_path):
        fld = make_field(values=np.full((3, 4), np.nan))
        write_grid_file(fld, tmp_path / "n.csv", reload_check=True)


def reference_bytes(field: Field) -> bytes:
    """The original per-row writer: three ``format(float(x), ".17g")`` calls a row."""
    lines = ["r,theta,value,converged"]
    for i, r in enumerate(field.grid.radii):
        for j, t in enumerate(field.grid.angles):
            lines.append(
                f"{format(float(r), '.17g')},{format(float(t), '.17g')},"
                f"{format(float(field.values[i, j]), '.17g')},"
                f"{1 if field.converged[i, j] else 0}"
            )
    return ("\n".join(lines) + "\n").encode()


AWKWARD = [np.nan, np.inf, -np.inf, -0.0, 1e-300, -1.2345678901234567e17, 1.0 / 3.0, 0.0]


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.csv")), ids=lambda p: p.name)
def test_golden_reread_rewrites_identical_bytes(golden, tmp_path):
    out = write_grid_file(read_grid_file(golden), tmp_path / golden.name)
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("n_r,n_theta", [(1, 4), (3, 7), (2, 5), (4, 8)])
def test_writer_matches_reference_formula(n_r, n_theta, tmp_path):
    rng = np.random.default_rng(n_r * 100 + n_theta)
    values = rng.standard_normal(n_r * n_theta) * 10.0 ** rng.integers(-20, 20, n_r * n_theta)
    values[: len(AWKWARD)] = AWKWARD[: values.size]
    grid = EvaluationGrid.regular(n_r=n_r, n_theta=n_theta, r_max=0.95, allow_near_boundary=True)
    fld = Field(grid=grid, values=values.reshape(grid.shape),
                converged=rng.random(grid.shape) < 0.5, errors=np.zeros(grid.shape))
    path = write_grid_file(fld, tmp_path / "f.csv", reload_check=True)
    assert path.read_bytes() == reference_bytes(fld)


def _lines(tmp_path):
    """Lines of a valid 3x4 grid file, mixed converged flags."""
    fld = make_field()
    fld.converged[1, 2] = False
    return write_grid_file(fld, tmp_path / "ok.csv").read_text().splitlines()


def _swap_rows(lines):
    lines[2], lines[3] = lines[3], lines[2]


def _swap_rings(lines):
    lines[1:5], lines[5:9] = lines[5:9], lines[1:5]


def _drop_row(lines):
    del lines[4]


def _flag_two(lines):
    lines[3] = lines[3][:-1] + "2"


def _short_row(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


def _long_row(lines):
    lines[3] += ",1"


def _all_rows_long(lines):
    lines[1:] = [line + ",0" for line in lines[1:]]


def _text_value(lines):
    r, t, _, c = lines[3].split(",")
    lines[3] = f"{r},{t},abc,{c}"


def _empty_value(lines):
    r, t, _, c = lines[3].split(",")
    lines[3] = f"{r},{t},,{c}"


def _bad_header(lines):
    lines[0] = "r,theta,value"


def _no_rows(lines):
    del lines[1:]


@pytest.mark.parametrize("corrupt", [
    _swap_rows, _swap_rings, _drop_row, _flag_two, _short_row, _long_row, _all_rows_long,
    _text_value, _empty_value, _bad_header,
    pytest.param(_no_rows, marks=pytest.mark.filterwarnings("ignore::UserWarning")),
], ids=lambda f: f.__name__.lstrip("_"))
def test_reader_refuses_malformed_file(corrupt, tmp_path):
    lines = _lines(tmp_path)
    corrupt(lines)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError):
        read_grid_file(path)


def test_reader_accepts_crlf_and_trailing_blank_line(tmp_path):
    fld = make_field()
    fld.converged[0, 1] = False
    text = write_grid_file(fld, tmp_path / "f.csv").read_text()
    path = tmp_path / "crlf.csv"
    path.write_bytes((text + "\n").replace("\n", "\r\n").encode())
    back = read_grid_file(path)
    assert np.array_equal(back.values, fld.values)
    assert np.array_equal(back.converged, fld.converged)
    assert back.grid == fld.grid
