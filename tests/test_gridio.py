import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _angle_respelled(lines):
    # ring 1's third angle is 0, written "0" by the writer
    r, t, v, c = lines[7].split(",")
    assert t == "0"
    lines[7] = f"{r},0.0,{v},{c}"


def _angle_26_chars(lines):
    # the same number in every ring; cut to 25 characters it would still parse
    for k in range(2, len(lines), 4):
        r, t, v, c = lines[k].split(",")
        lines[k] = ",".join([r, t.ljust(26, "0"), v, c])


def _flag_float(lines):
    assert lines[3].endswith(",1")
    lines[3] += ".0"


def _comment_line(lines):
    lines.insert(5, "# a note between two rings")


@pytest.mark.parametrize("corrupt", [
    _swap_rows, _swap_rings, _drop_row, _flag_two, _short_row, _long_row, _all_rows_long,
    _text_value, _empty_value, _bad_header, _no_rows,
    _angle_respelled, _angle_26_chars, _flag_float, _comment_line,
], ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.filterwarnings("error")
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


# numbers whose ".17g" renderings are the longest, 23 and 24 characters
LONGEST = [-1.2345678901234567e-300, -2.2250738585072014e-308, 1.2345678901234567e-310]
SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-320, *LONGEST]


def _increasing(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size, unique=True).map(sorted)


@st.composite
def fields(draw):
    radii = draw(_increasing(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.0, 5e-324, LONGEST[2], 0.99999999999999989])), 5))
    angles = draw(_increasing(st.one_of(
        st.floats(-math.pi, math.pi, exclude_max=True),
        st.sampled_from([-math.pi, -0.0, 5e-324, *LONGEST])), 9))
    shape = (len(radii), len(angles))
    values = draw(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES)),
                           min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    flag_row = st.one_of(st.just([False] * shape[1]), st.just([True] * shape[1]),
                         st.lists(st.booleans(), min_size=shape[1], max_size=shape[1]))
    converged = draw(st.lists(flag_row, min_size=shape[0], max_size=shape[0]))
    grid = EvaluationGrid(np.array(radii), np.array(angles), allow_near_boundary=True)
    return Field(grid=grid, values=np.array(values).reshape(shape),
                 converged=np.array(converged, dtype=bool), errors=np.zeros(shape))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(fld=fields())
def test_roundtrip_property(fld, tmp_path_factory):
    path = write_grid_file(fld, tmp_path_factory.mktemp("roundtrip") / "f.csv")
    assert path.read_bytes() == reference_bytes(fld)
    back = read_grid_file(path)
    assert back.grid == fld.grid
    assert np.array_equal(back.values, fld.values, equal_nan=True)
    finite = ~np.isnan(fld.values)
    assert np.array_equal(np.signbit(back.values[finite]), np.signbit(fld.values[finite]))
    assert np.array_equal(back.converged, fld.converged)
