"""The four benchmark workloads, their inputs and their output checks.

Each workload turns the run seed into the CLI calls of one pass, then,
outside the timed region, reads back what the pass wrote: it counts the
operations attempted and failed, the units of work done, and the
problems that make the run incorrect.  Work totals do not depend on the
seed; the seed only permutes the call order within a pass and draws the
kernel-profile radii.

Sizes (full / smoke):

* ``figures``     -- ``figure N --reload`` for all 15 catalog figures at
  20x64 (smoke 3x8); figure 14 at 8x16 (smoke 2x4), because at 20x64 it
  alone would take ~10 s of a ~9 s pass (it never converges and bisects
  to max_depth at every point).
* ``conjecture``  -- figure 15 Dirichlet and figure 4 Robin(h=1) at a
  192x384 mesh (smoke 16x32).
* ``verify``      -- the full invariant suite (smoke: ``--skip-heat``).
* ``profiles-io`` -- q and Poisson kernel profiles, 50 radii x 4096
  angles with ``--reload`` (smoke 5x64).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from harmonicdisk.kernels import poisson_kernel, q_kernel
from tracing import FIGURE_GRID_KINDS

GOLDEN_GRID = ("--n-r", "4", "--n-theta", "8", "--r-max", "0.8")
GOLDEN_ATOL = 1e-12  # times max(|golden|, 1), as in the golden regression tests
RESIDUAL_MAX = 1e-10
QUAD = ("--tol", "1e-9")


class Workload:
    """One pass of CLI calls, and the checks of what the pass wrote."""

    def gate(self, run_cli, out_dir: Path):
        """Problems found by checks run once, before timing (none by default)."""
        return []


class Tally:
    """What one pass did, read back from its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.ratio_floor_nan = 0
        self.digests = {}
        self.problems = []
        self.notes = []


def read_grid(path):
    """(r, theta, value, converged) columns of a grid file, parsed
    independently of the package's reader."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3].astype(bool)


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _permuted(calls, rng):
    return [calls[i] for i in rng.permutation(len(calls))]


class Figures(Workload):
    name = "figures"
    work_name = "points_per_s"
    work_unit = "q/poisson grid points"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.golden_dir = root / "tests" / "golden"
        self.grid = (3, 8) if smoke else (20, 64)
        self.fig14_grid = (2, 4) if smoke else (8, 16)

    def _kinds(self, fig):
        kinds = [k for k, figs in FIGURE_GRID_KINDS.items() if fig in figs]
        if len(kinds) == 2:
            kinds.append("ratio")
        return kinds or ["kernel"]

    def _grid(self, fig):
        return self.fig14_grid if fig == 14 else self.grid

    def _size(self, fig):
        n_r, n_t = self._grid(fig)
        return n_r * n_t

    def calls(self, rng, out_dir: Path):
        calls = []
        for fig in range(1, 16):
            n_r, n_t = self._grid(fig)
            argv = ["figure", str(fig), "--n-r", str(n_r), "--n-theta", str(n_t),
                    "--r-max", "0.9", *QUAD, "--out", str(out_dir), "--reload"]
            calls.append((f"fig{fig:02d}", argv))
        return _permuted(calls, rng)

    def gate(self, run_cli, out_dir: Path):
        """Recompute every committed golden grid and compare it."""
        problems = []
        for fig in range(1, 16):
            argv = ["figure", str(fig), *GOLDEN_GRID, *QUAD, "--out", str(out_dir)]
            if run_cli(argv) != 0:
                problems.append(f"golden fig {fig}: nonzero exit")
                continue
            goldens = sorted(self.golden_dir.glob(f"fig{fig:02d}_*.csv"))
            written = sorted(out_dir.glob(f"fig{fig:02d}_*.csv"))
            if [p.name for p in goldens] != [p.name for p in written]:
                problems.append(f"golden fig {fig}: files {[p.name for p in written]}")
                continue
            for golden_path in goldens:
                problem = _compare_golden(golden_path, out_dir / golden_path.name)
                if problem:
                    problems.append(problem)
        return problems

    def account(self, out_dir: Path, calls, exits) -> Tally:
        tally = Tally()
        for (label, argv), code in zip(calls, exits):
            fig = int(argv[1])
            grid_kinds = [k for k in self._kinds(fig) if k in FIGURE_GRID_KINDS]
            expected = self._size(fig) * len(grid_kinds)
            tally.attempted += expected
            if code != 0:
                tally.failed += expected
                continue
            tally.work += expected
            for kind in self._kinds(fig):
                path = out_dir / f"{label}_{kind}.csv"
                if not path.exists():
                    tally.problems.append(f"{path.name} missing")
                    continue
                tally.digests[path.name] = digest(path)
                if kind == "kernel":  # profile radii come from the catalog
                    continue
                _, _, values, converged = read_grid(path)
                if values.size != self._size(fig):
                    tally.problems.append(f"{path.name}: {values.size} rows")
                elif kind in FIGURE_GRID_KINDS:
                    tally.failed += int(np.count_nonzero(~converged))
                elif kind == "ratio":
                    tally.ratio_floor_nan += int(np.count_nonzero(np.isnan(values)))
        return tally


def _compare_golden(golden_path: Path, path: Path):
    _, _, want, want_ok = read_grid(golden_path)
    _, _, got, got_ok = read_grid(path)
    if want.shape != got.shape or not np.array_equal(want_ok, got_ok):
        return f"golden {golden_path.name}: shape or convergence flags differ"
    scale = max(float(np.nanmax(np.abs(want))), 1.0)
    if not np.allclose(got[want_ok], want[want_ok], rtol=0.0, atol=GOLDEN_ATOL * scale):
        return f"golden {golden_path.name}: values drifted beyond {GOLDEN_ATOL:g}"
    return None


class Conjecture(Workload):
    name = "conjecture"
    work_name = "unknowns_per_s"
    work_unit = "solver mesh unknowns (n_r x n_theta)"
    comparison_points = 12 * 32  # conjecture_run's comparison grid

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.mesh = (16, 32) if smoke else (192, 384)

    def calls(self, rng, out_dir: Path):
        mesh = ["--n-r", str(self.mesh[0]), "--n-theta", str(self.mesh[1]), *QUAD]
        calls = [
            ("c15", ["conjecture", "--figure", "15", *mesh, "--out", str(out_dir / "c15")]),
            ("c04", ["conjecture", "--figure", "4", "--boundary", "robin", "--robin-h", "1",
                     *mesh, "--out", str(out_dir / "c04")]),
        ]
        return _permuted(calls, rng)

    def account(self, out_dir: Path, calls, exits) -> Tally:
        tally = Tally()
        for (label, _argv), code in zip(calls, exits):
            tally.attempted += 1
            if code != 0:
                tally.failed += 1
                continue
            run_dir = out_dir / label
            try:
                report = json.loads((run_dir / "conjecture_report.json").read_text())
                meta = json.loads((run_dir / "steady_state.csv.meta.json").read_text())
                residual = float(meta["solver"]["residual"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                tally.problems.append(f"{label}: unreadable output ({exc})")
                continue
            numbers = [report["correlation"], report["scale_factor"], report["residual_rms"]]
            if report["degenerate"] or not all(map(math.isfinite, numbers)):
                tally.problems.append(f"{label}: degenerate or non-finite report {numbers}")
            tally.notes.append(f"{label}: solver residual {residual:.3e}")
            # A residual above RESIDUAL_MAX or dropped (unconverged) comparison
            # points fail the run like an unconverged grid point does.
            if not residual <= RESIDUAL_MAX or report["n_points"] != self.comparison_points:
                tally.failed += 1
            tally.work += self.mesh[0] * self.mesh[1]
            for name in ("steady_state.csv", "transform.csv"):
                tally.digests[f"{label}/{name}"] = digest(run_dir / name)
        return tally


class Verify(Workload):
    name = "verify"
    work_name = "invariants_per_s"
    work_unit = "invariants"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.extra = ["--skip-heat"] if smoke else []

    def calls(self, rng, out_dir: Path):
        return [("suite", ["verify", "--r-max", "0.9", *QUAD, *self.extra,
                           "--out", str(out_dir / "verify.json")])]

    def account(self, out_dir: Path, calls, exits) -> Tally:
        tally = Tally()
        for (_label, _argv), code in zip(calls, exits):
            if code != 0:
                tally.problems.append(f"verify exited {code}")
            try:
                records = json.loads((out_dir / "verify.json").read_text())["records"]
            except (OSError, ValueError, KeyError) as exc:
                tally.problems.append(f"verify report unreadable ({exc})")
                tally.attempted += 1
                tally.failed += 1
                continue
            failed = sum(not r["passed"] for r in records)
            tally.attempted += len(records)
            tally.failed += failed
            tally.work += len(records) - failed
        return tally


class ProfilesIO(Workload):
    name = "profiles-io"
    work_name = "rows_per_s"
    work_unit = "grid-file rows written plus re-read"

    def __init__(self, root: Path, seed: int, smoke: bool):
        n_radii, self.n_theta = (5, 64) if smoke else (50, 4096)
        # Full-precision radii, so every radius prints with the same number
        # of digits whatever the seed.
        draw = np.random.default_rng([seed, 0]).uniform(0.01, 0.98, n_radii)
        self.radii = sorted(float(r) for r in draw)
        self.rows = n_radii * self.n_theta
        self.checked = {}  # file digest -> rows found wrong in a file with it

    def calls(self, rng, out_dir: Path):
        radii = ",".join(repr(r) for r in self.radii)
        calls = [(kernel, ["kernel", "--kernel", kernel, "--radii", radii,
                           "--n-theta", str(self.n_theta),
                           "--out", str(out_dir / f"{kernel}.csv"), "--reload"])
                 for kernel in ("q", "poisson")]
        return _permuted(calls, rng)

    def account(self, out_dir: Path, calls, exits) -> Tally:
        tally = Tally()
        direct = {"q": q_kernel, "poisson": poisson_kernel}
        for (kernel, _argv), code in zip(calls, exits):
            tally.attempted += self.rows
            if code != 0:
                tally.failed += self.rows
                continue
            path = out_dir / f"{kernel}.csv"
            tally.digests[path.name] = key = digest(path)
            if key not in self.checked:
                self.checked[key] = self._check(path, direct[kernel])
            bad = self.checked[key]
            if bad is None:
                tally.problems.append(f"{path.name}: wrong rows or radii")
                tally.failed += self.rows
                continue
            if bad:
                tally.problems.append(f"{path.name}: {bad} rows differ from direct {kernel}_kernel")
                tally.failed += bad
            tally.work += 2 * self.rows  # written, then re-read by --reload
        return tally

    def _check(self, path, kernel):
        """Rows of a profile file that differ from the direct kernel, or
        None if its rows or radii are wrong.  Passes that write the same
        bytes reuse the result, so each distinct file is parsed once."""
        r, theta, values, converged = read_grid(path)
        shape = (len(self.radii), self.n_theta)
        if values.size != self.rows or not np.array_equal(
            r, np.repeat(self.radii, self.n_theta)
        ):
            return None
        # One kernel call per radius, as a profile is defined.  Q changes
        # sign along a profile, so a rounding-level difference is judged
        # against the profile's peak, not the value near its zero.
        want = np.array([kernel(radius, row)
                         for radius, row in zip(self.radii, theta.reshape(shape))])
        scale = np.abs(want).max(axis=1, keepdims=True)
        return int(np.count_nonzero(
            ~(np.abs(values.reshape(shape) - want) <= 1e-14 * scale)
            | ~converged.reshape(shape)
        ))


WORKLOADS = {cls.name: cls for cls in (Figures, Conjecture, Verify, ProfilesIO)}
