"""Smoke tests of the benchmark itself, at sizes that run in seconds.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They are not part of the package's test suite (``testpaths = tests``).
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DETERMINISTIC = ("quadrature.panels", "quadrature.integrand_evals", "kernels.q.nodes",
                 "kernels.poisson.nodes", "heatlab.cg.iters", "gridio.write.rows",
                 "gridio.read.rows")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace, seed=3):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_traced_counts_repeat():
    first, second = (smoke("figures", 1, seed) for seed in (5, 6))
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["quadrature.panels"]["value"] > 0


def test_profile_check_flags_a_wrong_row(tmp_path, monkeypatch):
    """The profiles-io check passes the CLI's output at a seed whose Q
    profile crosses zero, and flags one row moved by 1e-12 of the peak."""
    import contextlib
    import io

    import numpy as np
    for path in (ROOT / "src", ROOT / "perfbench"):
        monkeypatch.syspath_prepend(str(path))
    from harmonicdisk import cli
    from workloads import ProfilesIO

    workload = ProfilesIO(ROOT, 926603175, smoke=False)
    calls = workload.calls(np.random.default_rng(0), tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        exits = [cli.main(argv) for _, argv in calls]
    clean = workload.account(tmp_path, calls, exits)
    assert clean.failed == 0 and not clean.problems

    path = tmp_path / "q.csv"
    lines = path.read_text().splitlines()
    peak = max(abs(float(line.split(",")[2])) for line in lines[1:4097])
    r, theta, value, ok = lines[5].split(",")
    lines[5] = ",".join([r, theta, repr(float(value) + 1e-12 * peak), ok])
    path.write_text("\n".join(lines) + "\n")
    assert workload.account(tmp_path, calls, exits).failed == 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    done = bench("--workload", "figures", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
