"""Command-line workbench tying the transforms, catalog, verification and
heat harness together.

Subcommands: kernel, figure, transform, poisson, project, norms, verify,
conjecture.  All numeric flags default to the values used throughout the
package (r-max 0.9, 40 x 128 grids, per-panel tolerance 1e-9).  Exit
codes: 0 success, 1 verification failure, 2 usage/parse error,
3 numerical failure, also when a written field has unconverged points
(stderr names each such file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    HarmonicDiskError,
    InvalidExponentError,
    InvalidRegionError,
    NonConvergenceError,
    NonFiniteError,
    SourceParseError,
    SourceValidationError,
    UnknownFigureError,
)
from .geometry import EvaluationGrid
from .gridio import ratio_field, write_grid_file
from .heatlab import BoundaryCondition, conjecture_run
from .kernels import analytic_bergman_kernel, poisson_kernel, q_kernel
from .quadrature import QuadratureSpec
from .sources import (
    BoundaryFunction,
    SourceFunction,
    figure_case,
    parse_source_config,
)
from .transforms import Field, bergman_project, poisson_integral, q_transform
from .verify import NormSpec, SuiteConfig, norm_report, run_invariant_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_prefactor(text: str) -> float:
    """Accept plain finite floats plus the pi-forms used by the identities
    ('2/pi', 'pi/4', '3*pi', ...)."""
    s = text.strip().lower().replace(" ", "")
    try:
        value = math.pi if s == "pi" else float(s)
    except ValueError:
        left, sep, right = s.partition("/" if "/" in s else "*")
        try:
            lv, rv = (math.pi if part == "pi" else float(part) for part in (left, right))
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse prefactor {text!r}") from None
        value = lv * rv if sep == "*" else lv / rv if rv else math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"prefactor {text!r} is not a finite number")
    return value


def _radii_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad radii list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("radii list is empty")
    if any(not 0.0 <= v <= 0.99 for v in values):
        raise argparse.ArgumentTypeError("kernel radii must lie in [0, 0.99]")
    return values


def _add_grid_flags(p):
    p.add_argument("--r-max", type=float, default=0.9, help="largest evaluation radius")
    p.add_argument("--n-r", type=int, default=40, help="number of radii")
    p.add_argument("--n-theta", type=int, default=128, help="number of angles")


def _add_quad_flags(p):
    p.add_argument("--tol", type=float, default=1e-9, help="per-panel adaptive tolerance")


def _add_output_flags(p):
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--timestamp", action="store_true",
                   help="record a timestamp in the metadata sidecar")
    p.add_argument("--reload", action="store_true",
                   help="re-read the written file and fail on any mismatch")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonicdisk",
        description="Reproducing-kernel transforms and heat comparisons on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="1-D kernel profiles over theta at given radii")
    p.add_argument("--kernel", choices=("poisson", "q", "bergman"), required=True)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="weight exponent for the bergman kernel profile")
    p.add_argument("--radii", type=_radii_list, required=True,
                   help="comma-separated radii, e.g. 0.5,0.75,0.85")
    p.add_argument("--n-theta", type=int, default=512)
    _add_output_flags(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("figure", help="reproduce the data behind catalog figures 1..15")
    p.add_argument("id", type=int, help="figure id, 1..15")
    _add_grid_flags(p)
    _add_quad_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--timestamp", action="store_true")
    p.add_argument("--reload", action="store_true")
    p.set_defaults(func=cmd_figure)

    for name, help_text in (("transform", "area-kernel transform of a source file"),
                            ("poisson", "boundary integral of a boundary-function file"),
                            ("project", "orthogonal projection of a source file")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--source-file", required=True)
        if name == "transform":
            p.add_argument("--prefactor", type=parse_prefactor, default=1.0,
                           help="constant in front of the integral (accepts e.g. 2/pi)")
        _add_grid_flags(p)
        _add_quad_flags(p)
        _add_output_flags(p)
        p.set_defaults(func=cmd_field)

    p = sub.add_parser("norms", help="norms of a source or boundary function")
    p.add_argument("--source-file", required=True)
    p.add_argument("--kind", choices=("bergman_weighted", "harmonic_bergman_l2", "circle_l2"),
                   default="harmonic_bergman_l2")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--truncation", type=float, default=0.999)
    _add_quad_flags(p)
    p.add_argument("--out", help="optional output path (prints to stdout otherwise)")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("verify", help="run the invariant suite; exit 1 on failure")
    p.add_argument("--r-max", type=float, default=0.9)
    _add_quad_flags(p)
    p.add_argument("--skip-heat", action="store_true",
                   help="skip the heat-solver checks")
    p.add_argument("--out", help="optional report path (prints to stdout otherwise)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", help="compare solver equilibrium against the transform")
    p.add_argument("--source-file", help="source config file")
    p.add_argument("--figure", type=int, help="use a catalog figure source instead")
    p.add_argument("--boundary", choices=("dirichlet", "robin"), default="dirichlet")
    p.add_argument("--robin-h", type=float, default=1.0)
    p.add_argument("--n-r", type=int, default=128, help="solver radial resolution")
    p.add_argument("--n-theta", type=int, default=256, help="solver angular resolution")
    _add_quad_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--timestamp", action="store_true")
    p.set_defaults(func=cmd_conjecture)

    return parser


def _grid_from_args(args) -> EvaluationGrid:
    return EvaluationGrid.regular(n_r=args.n_r, n_theta=args.n_theta, r_max=args.r_max)


def _spec_from_args(args) -> QuadratureSpec:
    return QuadratureSpec(adaptive_tol=args.tol)


def _load_source(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SourceParseError(f"cannot read source file {path}: {exc}") from exc
    return parse_source_config(text)


def _profile_field(kernel_name, alpha, radii, n_theta) -> Field:
    angles = np.linspace(-math.pi, math.pi, n_theta, endpoint=False)
    values = np.empty((len(radii), n_theta))
    for i, r in enumerate(radii):
        if kernel_name == "poisson":
            values[i] = poisson_kernel(r, angles)
        elif kernel_name == "q":
            values[i] = q_kernel(r, angles)
        else:
            z = r * np.exp(1j * angles)
            values[i] = analytic_bergman_kernel(z, complex(r, 0.0), alpha).real
    grid = EvaluationGrid(np.asarray(radii, dtype=float), angles)
    meta = {
        "operator": f"kernel_profile[{kernel_name}]",
        "radii": list(radii),
    }
    if kernel_name == "bergman":
        meta["alpha"] = alpha
        meta["note"] = "real part of the kernel anchored at w = r, z moving on |z| = r"
    return Field(grid=grid, values=values,
                 converged=np.ones_like(values, dtype=bool),
                 errors=np.zeros_like(values), meta=meta)


def _require_converged(written):
    """Raise NonConvergenceError naming each written file with unconverged points."""
    bad = [f"{path}: {fld.meta['unconverged']} unconverged points"
           for path, fld in written if fld.meta.get("unconverged", 0)]
    if bad:
        raise NonConvergenceError("; ".join(bad))


def cmd_kernel(args) -> int:
    radii = sorted(set(args.radii))
    fld = _profile_field(args.kernel, args.alpha, radii, args.n_theta)
    write_grid_file(fld, args.out, timestamp=args.timestamp, reload_check=args.reload)
    print(f"wrote {args.out}")
    return EXIT_OK


def _figure_fields(case, grid, spec):
    """(name, Field) pairs of one catalog figure: its kernel profiles, or the
    Poisson integral of its boundary data, the area transform of its source
    and, when it has both, their pointwise ratio."""
    if case.kernel is not None:
        return [("kernel", _profile_field(case.kernel.tag, case.kernel.alpha or 0.0,
                                          list(case.radii), grid.n_theta))]
    out = []
    if case.boundary is not None:
        out.append(("poisson", poisson_integral(case.boundary, grid, spec)))
    if case.source is not None:
        out.append(("q", q_transform(case.source, grid, case.prefactor, spec)))
    if len(out) == 2:
        (_, p_fld), (_, q_fld) = out
        out.append(("ratio", ratio_field(q_fld, p_fld)))
    return out


def cmd_figure(args) -> int:
    grid = _grid_from_args(args)
    spec = _spec_from_args(args)
    case = figure_case(args.id)
    fields = _figure_fields(case, grid, spec)
    out_dir = Path(args.out)
    extra = {"figure": case.id, "description": case.description}
    written = [(out_dir / f"fig{case.id:02d}_{name}.csv", fld) for name, fld in fields]
    for path, fld in written:
        write_grid_file(fld, path, sidecar_extra=extra,
                        timestamp=args.timestamp, reload_check=args.reload)
        print(f"wrote {path}")
    _require_converged(written)
    return EXIT_OK


def _require_source(obj, path):
    if not isinstance(obj, SourceFunction):
        raise SourceValidationError(
            f"{path} describes a boundary function; this command needs a disk source"
        )
    return obj


def _require_boundary(obj, path):
    if not isinstance(obj, BoundaryFunction):
        raise SourceValidationError(
            f"{path} describes a disk source; this command needs a boundary function"
        )
    return obj


def cmd_field(args) -> int:
    """transform, poisson and project: one grid operator on a source file."""
    require = _require_boundary if args.command == "poisson" else _require_source
    obj = require(_load_source(args.source_file), args.source_file)
    grid, spec = _grid_from_args(args), _spec_from_args(args)
    if args.command == "poisson":
        fld = poisson_integral(obj, grid, spec)
    elif args.command == "project":
        fld = bergman_project(obj, grid, spec)
    else:
        fld = q_transform(obj, grid, args.prefactor, spec)
    write_grid_file(fld, args.out, timestamp=args.timestamp, reload_check=args.reload)
    print(f"wrote {args.out}")
    _require_converged([(args.out, fld)])
    return EXIT_OK


def cmd_norms(args) -> int:
    obj = _load_source(args.source_file)
    spec = NormSpec(args.kind, args.p, args.alpha, args.truncation)
    report = norm_report(obj, spec, QuadratureSpec(adaptive_tol=args.tol))
    doc = json.dumps(
        {
            "kind": args.kind,
            "p": args.p,
            "alpha": args.alpha,
            "truncation_radius": report.truncation_radius,
            "value": report.value,
            "tail_bound": report.tail_bound,
        },
        indent=2,
    )
    if args.out:
        Path(args.out).write_text(doc + "\n")
        print(f"wrote {args.out}")
    else:
        print(doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = SuiteConfig(
        r_max=args.r_max,
        quad=QuadratureSpec(adaptive_tol=args.tol),
        include_heat=not args.skip_heat,
    )
    report = run_invariant_suite(config)
    doc = report.to_json()
    if args.out:
        Path(args.out).write_text(doc + "\n")
        print(f"wrote {args.out}")
    else:
        print(doc)
    for record in report.records:
        status = "PASS" if record.passed else "FAIL"
        print(f"{status} {record.id}: measured={record.measured:.3e} "
              f"{record.comparator} {record.threshold:.3e} ({record.seconds:.3f} s)",
              file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def cmd_conjecture(args) -> int:
    if (args.source_file is None) == (args.figure is None):
        raise SourceParseError("pass exactly one of --source-file or --figure")
    if args.figure is not None:
        source = figure_case(args.figure).source
        if source is None:
            raise SourceValidationError(
                f"figure {args.figure} has no disk source to feed the solver"
            )
    else:
        source = _require_source(_load_source(args.source_file), args.source_file)
    boundary = (
        BoundaryCondition("dirichlet_zero")
        if args.boundary == "dirichlet"
        else BoundaryCondition("robin", h=args.robin_h)
    )
    report, u_fd, u_q = conjecture_run(
        source,
        boundary,
        mesh=(args.n_r, args.n_theta),
        spec=QuadratureSpec(adaptive_tol=args.tol),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "conjecture_report.json").write_text(report.to_json() + "\n")
    written = [(out_dir / "steady_state.csv", u_fd), (out_dir / "transform.csv", u_q)]
    for path, fld in written:
        write_grid_file(fld, path, timestamp=args.timestamp)
    print(f"wrote {out_dir}/conjecture_report.json")
    print(report.to_json())
    _require_converged(written)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SourceParseError, SourceValidationError, UnknownFigureError,
            InvalidRegionError, InvalidExponentError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteError, NonConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HarmonicDiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
