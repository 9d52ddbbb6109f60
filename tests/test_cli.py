import json
import math
import re

import numpy as np
import pytest

from harmonicdisk.cli import build_parser, main, parse_prefactor
from harmonicdisk.gridio import read_grid_file, sidecar_path

PI = math.pi


class TestPrefactorParsing:
    def test_forms(self):
        assert parse_prefactor("1") == 1.0
        assert parse_prefactor("2/pi") == pytest.approx(2.0 / PI)
        assert parse_prefactor("pi/4") == pytest.approx(PI / 4.0)
        assert parse_prefactor("pi") == pytest.approx(PI)
        assert parse_prefactor("0.5*pi") == pytest.approx(PI / 2.0)
        assert parse_prefactor("-1.5") == -1.5

    def test_bad_forms(self):
        import argparse

        # unparsable, an undefined quotient, or not finite
        for text in ("two", "1/0", "pi/0", "nan", "-inf", "1e308*10"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_prefactor(text)


class TestCLI:
    def test_kernel_profile_constant_at_zero(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(["kernel", "--kernel", "poisson", "--radii", "0",
                     "--n-theta", "16", "--out", str(out), "--reload"])
        assert code == 0
        fld = read_grid_file(out)
        assert np.array_equal(fld.values, np.ones((1, 16)))

    def test_kernel_figure_radii(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(["kernel", "--kernel", "q", "--radii", "0.5,0.75",
                     "--n-theta", "32", "--out", str(out)])
        assert code == 0
        fld = read_grid_file(out)
        assert fld.grid.n_r == 2
        # profile peaks at theta = 0 with value 1/(1-s)^2
        i0 = np.argmin(np.abs(fld.grid.angles))
        assert fld.values[0, i0] == pytest.approx(4.0, abs=1e-12)

    def test_bergman_kernel_profile(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["kernel", "--kernel", "bergman", "--alpha", "1.0",
                     "--radii", "0.5", "--n-theta", "16", "--out", str(out)])
        assert code == 0

    def test_figure_4_plateau(self, tmp_path):
        code = main(["figure", "4", "--n-r", "4", "--n-theta", "8",
                     "--r-max", "0.8", "--out", str(tmp_path)])
        assert code == 0
        fld = read_grid_file(tmp_path / "fig04_q.csv")
        assert np.max(np.abs(fld.values - PI / 16.0)) < 1e-3
        meta = json.loads(sidecar_path(tmp_path / "fig04_q.csv").read_text())
        assert meta["figure"] == 4
        assert meta["prefactor"] == 1.0

    def test_figure_8_origin_value(self, tmp_path):
        code = main(["figure", "8", "--n-r", "3", "--n-theta", "8",
                     "--r-max", "0.6", "--out", str(tmp_path)])
        assert code == 0
        fld = read_grid_file(tmp_path / "fig08_poisson.csv")
        # harmonic measure of a pi/3 arc averages to 1/6 at the center
        assert np.allclose(fld.values[0], 1.0 / 6.0, atol=1e-6)

    def test_figure_9_emits_pair_and_ratio(self, tmp_path):
        code = main(["figure", "9", "--n-r", "3", "--n-theta", "8",
                     "--r-max", "0.7", "--out", str(tmp_path)])
        assert code == 0
        for name in ("fig09_q.csv", "fig09_poisson.csv", "fig09_ratio.csv"):
            assert (tmp_path / name).exists()

    def test_figure_12_paired_outputs(self, tmp_path):
        code = main(["figure", "12", "--n-r", "3", "--n-theta", "8",
                     "--r-max", "0.7", "--out", str(tmp_path)])
        assert code == 0
        q = read_grid_file(tmp_path / "fig12_q.csv")
        p = read_grid_file(tmp_path / "fig12_poisson.csv")
        ratio = read_grid_file(tmp_path / "fig12_ratio.csv")
        ok = ratio.converged
        assert np.array_equal(
            ratio.values[ok], (q.values / p.values)[ok]
        )

    def test_transform_matches_figure_bitwise(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({
            "type": "char_rect",
            "r": [0.9, 1.0],
            "theta": [-PI / 6, PI / 6],
        }))
        code = main(["figure", "9", "--n-r", "3", "--n-theta", "8",
                     "--r-max", "0.7", "--out", str(tmp_path)])
        assert code == 0
        code = main(["transform", "--source-file", str(src), "--prefactor", "2/pi",
                     "--n-r", "3", "--n-theta", "8", "--r-max", "0.7",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 0
        fig = (tmp_path / "fig09_q.csv").read_bytes()
        t = (tmp_path / "t.csv").read_bytes()
        assert fig == t

    def test_poisson_command(self, tmp_path):
        src = tmp_path / "b.json"
        src.write_text(json.dumps({"type": "one"}))
        out = tmp_path / "p.csv"
        code = main(["poisson", "--source-file", str(src), "--n-r", "3",
                     "--n-theta", "8", "--r-max", "0.7", "--out", str(out)])
        assert code == 0
        fld = read_grid_file(out)
        assert np.max(np.abs(fld.values - 1.0)) < 1e-10

    def test_project_command(self, tmp_path):
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"type": "char_disk", "radius": 0.25}))
        out = tmp_path / "p.csv"
        code = main(["project", "--source-file", str(src), "--n-r", "3",
                     "--n-theta", "8", "--r-max", "0.7", "--out", str(out)])
        assert code == 0
        fld = read_grid_file(out)
        assert np.max(np.abs(fld.values - 1.0 / 16.0)) < 1e-6

    def test_norms_command(self, tmp_path, capsys):
        src = tmp_path / "b.json"
        src.write_text(json.dumps({"type": "char_arc", "arc": [-PI / 6, PI / 6]}))
        code = main(["norms", "--source-file", str(src), "--kind", "circle_l2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(math.sqrt(PI / 3.0), abs=1e-10)

    def test_norms_command_sums_overlapping_arcs(self, tmp_path, capsys):
        arc = {"type": "char_arc", "arc": [-1.0, 1.0]}
        src = tmp_path / "b.json"
        src.write_text(json.dumps({"type": "weighted_sum", "terms": [
            {"coef": 1.0, "term": arc}, {"coef": -1.0, "term": arc}]}))
        assert main(["norms", "--source-file", str(src), "--kind", "circle_l2"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_norm_kind_that_does_not_apply_exits_2(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"type": "one"}))
        disk = tmp_path / "disk.json"
        disk.write_text(json.dumps({"type": "char_disk", "radius": 0.25}))
        for argv in (["--source-file", str(one)],  # a disk norm, by default
                     ["--source-file", str(disk), "--kind", "circle_l2"]):
            assert main(["norms", *argv]) == 2
            assert "applies to" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["transform", "--source-file", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["figure", "99", "--out", str(tmp_path)]) == 2
        # boundary function fed to a disk-source command
        barc = tmp_path / "arc.json"
        barc.write_text(json.dumps({"type": "abs_theta"}))
        assert main(["transform", "--source-file", str(barc),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["conjecture", "--out", str(tmp_path)]) == 2
        # grid above the evaluation cap
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({"type": "char_disk", "radius": 0.25}))
        assert main(["transform", "--source-file", str(ok), "--r-max", "0.995",
                     "--out", str(tmp_path / "x.csv")]) == 2
        # non-finite numbers: a grid radius, a tolerance, a prefactor
        assert main(["figure", "4", "--r-max", "nan", "--out", str(tmp_path)]) == 2
        assert main(["figure", "4", "--tol", "inf", "--out", str(tmp_path)]) == 2
        # ... a kernel weight and a Robin coefficient
        for alpha in ("nan", "inf"):
            assert main(["kernel", "--kernel", "bergman", "--alpha", alpha, "--radii", "0.5",
                         "--n-theta", "8", "--out", str(tmp_path / "k.csv")]) == 2
        assert main(["conjecture", "--figure", "4", "--boundary", "robin", "--robin-h", "nan",
                     "--n-r", "16", "--n-theta", "16", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "k.csv").exists()
        assert not (tmp_path / "steady_state.csv").exists()
        for prefactor in ("1/0", "nan"):
            with pytest.raises(SystemExit) as exit_info:
                main(["transform", "--source-file", str(ok), "--prefactor", prefactor,
                      "--out", str(tmp_path / "x.csv")])
            assert exit_info.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("doc", [
        {"type": "char_disk", "radius": "abc"},
        {"type": "separable", "radial": "one", "angular": {"cos": 1.5},
         "rect": {"r": [0.25, 0.5], "theta": [0.0, 1.0]}},
        {"type": "weighted_sum", "terms": [{"coef": math.nan, "term": {"type": "one"}}]},
    ], ids=["radius_text", "cos_fractional", "coef_nan"])
    def test_malformed_numbers_in_a_source_file_exit_2(self, tmp_path, capsys, doc):
        src = tmp_path / "src.json"
        src.write_text(json.dumps(doc))
        command = "poisson" if doc["type"] == "weighted_sum" else "transform"
        assert main([command, "--source-file", str(src), "--out", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_main_runs_repeatedly_in_one_process(self, tmp_path, capsys):
        """One parser serves every call; each call's options, defaults and
        outputs are its own, also after a usage error."""
        assert build_parser() is build_parser()
        assert main(["kernel", "--kernel", "q", "--radii", "0.5", "--n-theta", "8",
                     "--out", str(tmp_path / "q.csv")]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'q.csv'}\n"
        with pytest.raises(SystemExit) as exit_info:
            main(["figure", "4", "--n-r", "three", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--n-r: invalid int value" in capsys.readouterr().err
        assert main(["figure", "4", "--n-r", "3", "--n-theta", "8", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'fig04_q.csv'}\n"
        assert main(["figure", "99", "--out", str(tmp_path)]) == 2
        assert "figure id must lie in 1..15" in capsys.readouterr().err
        assert main(["kernel", "--kernel", "poisson", "--radii", "0.25,0.5",
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'p.csv'}\n"
        q, fig, poisson = (read_grid_file(tmp_path / name)
                           for name in ("q.csv", "fig04_q.csv", "p.csv"))
        assert q.grid.shape == (1, 8) and q.meta["operator"] == "kernel_profile[q]"
        assert fig.grid.shape == (3, 8) and fig.meta["quadrature"]["adaptive_tol"] == 1e-9
        assert poisson.grid.shape == (2, 512)
        assert poisson.meta["operator"] == "kernel_profile[poisson]"

    def test_conjecture_figure_zero_is_an_unknown_figure(self, tmp_path, capsys):
        for fig in ("0", "16"):
            assert main(["conjecture", "--figure", fig, "--out", str(tmp_path)]) == 2
            assert f"figure id must lie in 1..15, got {fig}" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path):
        # robin conditions sample the source on the rim, where the
        # figure-6 source diverges
        code = main(["conjecture", "--figure", "6", "--boundary", "robin",
                     "--n-r", "16", "--n-theta", "16", "--out", str(tmp_path)])
        assert code == 3

    def test_unconverged_field_is_written_and_exits_3(self, tmp_path, capsys):
        src = tmp_path / "b.json"
        src.write_text(json.dumps({"type": "abs_theta"}))
        out = tmp_path / "p.csv"
        argv = ["poisson", "--source-file", str(src), "--n-r", "2", "--n-theta", "2",
                "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(sidecar_path(out).read_text())["unconverged"] == 0
        assert main(argv + ["--tol", "1e-300"]) == 3
        assert json.loads(sidecar_path(out).read_text())["unconverged"] == 2
        assert f"{out}: 2 unconverged points" in capsys.readouterr().err

    def test_unconverged_figure_exits_3(self, tmp_path, capsys):
        argv = ["figure", "8", "--n-r", "2", "--n-theta", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv + ["--tol", "1e-300"]) == 3
        path = tmp_path / "fig08_poisson.csv"
        assert read_grid_file(path).converged.sum() == 2
        assert f"{path}: 2 unconverged points" in capsys.readouterr().err

    def test_conjecture_command(self, tmp_path):
        code = main(["conjecture", "--figure", "4", "--n-r", "32",
                     "--n-theta", "64", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "conjecture_report.json").read_text())
        assert report["boundary_condition"] == "dirichlet_zero"
        assert (tmp_path / "steady_state.csv").exists()
        assert (tmp_path / "transform.csv").exists()

    def test_verify_command_negative_control_wiring(self, tmp_path, capsys):
        # full default verify is exercised in the acceptance suite; here
        # just check report writing and the exit-code contract shape
        out = tmp_path / "report.json"
        code = main(["verify", "--skip-heat", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        # each invariant's wall time goes to stderr, never into the report
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(doc["records"])
        assert all(re.fullmatch(r"PASS \S+: .* \(\d+\.\d{3} s\)", line) for line in lines)
        assert all("seconds" not in record for record in doc["records"])
