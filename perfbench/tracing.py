"""In-memory spans and counters around the harmonicdisk layers.

Nothing in the package is edited: ``Tracer.install`` replaces each public
function *where its caller looks it up* (``transforms`` imports
``q_kernel`` and ``integrate_*`` by name, ``heatlab`` imports
``q_transform`` by name and calls ``spla.cg``, ``cli`` imports
``write_grid_file`` ...) with a wrapper that records a span
``[name, start, end, parent, root]`` and bumps counters, and restores
the originals afterwards.  The integrand handed to the quadrature entry
points is wrapped as well, so tensor evaluations and nodes are counted
where the quadrature does the work.

Spans stay in memory until ``layer_metrics`` folds them into the
per-layer numbers; a hook whose target no longer exists (say, after a
solver stops using conjugate gradients) is skipped and its metrics read 0.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np

# Grid fields each catalog figure computes, per kind.  Figures 1 and 2 are
# kernel plots and have no transform grid.
FIGURE_GRID_KINDS = {
    "q": (3, 4, 5, 6, 7, 9, 11, 12, 13, 14, 15),
    "poisson": (3, 8, 9, 10, 11, 12, 13, 14),
}
CLI_COMMANDS = ("figure", "conjecture", "verify", "kernel")

_GRID_KIND = {"q_transform": "q", "poisson_integral": "poisson", "bergman_project": "project"}


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.context = ""  # label of the call being driven, e.g. "fig07"
        self.missing = []
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording a span ``name`` around every call.

        ``before(args, kwargs)`` may return replacement arguments;
        ``after(span, args, kwargs, result)`` sees the closed span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, parent[4] if parent else None]
            if parent is None:
                span[4] = span
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def _patch(self, module, attr, name, before=None, after=None):
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, before, after))

    # -- hooks -------------------------------------------------------------

    def install(self):
        """Patch every layer boundary; ``uninstall`` restores the originals."""
        from harmonicdisk import cli, gridio, heatlab, kernels, transforms, verify

        counts = self.counts

        def kernel_after(tag):
            def after(span, args, kwargs, result):
                counts[f"kernels.{tag}.nodes"] += int(np.size(result))
            return after

        for module in (kernels, transforms, cli):
            self._patch(module, "q_kernel", "kernels.q", after=kernel_after("q"))
            self._patch(module, "poisson_kernel", "kernels.poisson",
                        after=kernel_after("poisson"))

        def counting_integrand(integrand):
            def counted(*xs):
                counts["quadrature.integrand_evals"] += 1
                counts["quadrature.nodes"] += int(np.broadcast(*xs).size)
                return integrand(*xs)
            return counted

        def quad_before(args, kwargs):
            return (counting_integrand(args[0]),) + args[1:], kwargs

        def quad_after(span, args, kwargs, result):
            counts["quadrature.panels"] += result.panels_used
            counts["quadrature.unconverged"] += not result.converged
            if span[3] is not None and span[3][0].startswith("transforms."):
                counts["transforms.quad_calls"] += 1
                counts["transforms.panels"] += result.panels_used

        for module in (transforms, verify):
            for attr, name in (("integrate_polar", "quadrature.polar"),
                               ("integrate_singular_radial", "quadrature.singular"),
                               ("integrate_angular", "quadrature.angular")):
                self._patch(module, attr, name, before=quad_before, after=quad_after)

        def grid_after(kind):
            def after(span, args, kwargs, result):
                points = int(result.values.size)
                counts["transforms.grid.points"] += points
                if self.context.startswith("fig"):
                    key = f"transforms.{self.context}.{kind}"
                    counts[key + ".points"] += points
                    counts[key + ".s"] += span[2] - span[1]
            return after

        for module, attrs in ((cli, _GRID_KIND), (heatlab, ("q_transform",))):
            for attr in attrs:
                self._patch(module, attr, "transforms.grid", after=grid_after(_GRID_KIND[attr]))
        for attr in ("poisson_point", "q_point"):
            self._patch(verify, attr, "transforms.point")

        def write_after(span, args, kwargs, result):
            counts["gridio.write.rows"] += int(args[0].values.size)
            counts["gridio.write.bytes"] += os.path.getsize(result)

        def read_after(span, args, kwargs, result):
            counts["gridio.read.rows"] += int(result.values.size)

        self._patch(cli, "write_grid_file", "gridio.write", after=write_after)
        self._patch(gridio, "read_grid_file", "gridio.read", after=read_after)

        def solve_after(span, args, kwargs, result):
            counts["heatlab.unknowns"] += args[0].n_r * args[0].n_theta

        self._patch(heatlab, "solve_steady_state", "heatlab.solve", after=solve_after)
        self._patch(cli, "conjecture_run", "heatlab.conjecture")
        if hasattr(heatlab, "spla"):
            self._saved.append((heatlab, "spla", heatlab.spla))
            heatlab.spla = _CountingSparseLinalg(heatlab.spla, self)
        else:
            self.missing.append("harmonicdisk.heatlab.spla")

        def suite_after(span, args, kwargs, result):
            counts["verify.invariants"] += len(result.records)
            counts["verify.failed"] += sum(not r.passed for r in result.records)

        self._patch(cli, "run_invariant_suite", "verify.suite", after=suite_after)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- folding -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer values per traced pass, keyed by metric name."""
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent, _root in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[id(parent)] += end - start
        self_s = defaultdict(float)
        for span in self.spans:
            self_s[span[0]] += span[2] - span[1] - child[id(span)]

        c = self.counts
        n = float(passes)
        out = {}
        for tag in ("q", "poisson"):
            out[f"kernels.{tag}.calls"] = calls[f"kernels.{tag}"] / n
            out[f"kernels.{tag}.nodes"] = c[f"kernels.{tag}.nodes"] / n
            out[f"kernels.{tag}.s"] = total[f"kernels.{tag}"] / n
        kernel_s = total["kernels.q"] + total["kernels.poisson"]
        kernel_nodes = c["kernels.q.nodes"] + c["kernels.poisson.nodes"]
        out["kernels.nodes_per_s"] = kernel_nodes / kernel_s if kernel_s else 0.0

        quad = ("quadrature.polar", "quadrature.singular", "quadrature.angular")
        for name in quad:
            out[name + ".calls"] = calls[name] / n
        out["quadrature.s"] = sum(total[q] for q in quad) / n
        out["quadrature.self_s"] = sum(self_s[q] for q in quad) / n
        for key in ("panels", "integrand_evals", "nodes", "unconverged"):
            out[f"quadrature.{key}"] = c[f"quadrature.{key}"] / n
        evals = c["quadrature.integrand_evals"]
        out["quadrature.accepted_eval_ratio"] = (
            2.0 * c["quadrature.panels"] / evals if evals else 0.0
        )

        out["transforms.grid.calls"] = calls["transforms.grid"] / n
        out["transforms.grid.points"] = c["transforms.grid.points"] / n
        out["transforms.grid.s"] = total["transforms.grid"] / n
        out["transforms.point.calls"] = calls["transforms.point"] / n
        out["transforms.point.s"] = total["transforms.point"] / n
        for kind, figures in FIGURE_GRID_KINDS.items():
            for fig in figures:
                key = f"transforms.fig{fig:02d}.{kind}"
                points = c[key + ".points"]
                out[key + ".ms_per_point"] = 1e3 * c[key + ".s"] / points if points else 0.0
        points = c["transforms.grid.points"] + calls["transforms.point"]
        out["transforms.quad_calls_per_point"] = (
            c["transforms.quad_calls"] / points if points else 0.0
        )
        out["transforms.panels_per_point"] = c["transforms.panels"] / points if points else 0.0

        for op in ("write", "read"):
            out[f"gridio.{op}.calls"] = calls[f"gridio.{op}"] / n
            out[f"gridio.{op}.rows"] = c[f"gridio.{op}.rows"] / n
            # self time: the --reload re-read runs inside the write
            out[f"gridio.{op}.s"] = self_s[f"gridio.{op}"] / n
        out["gridio.write.bytes"] = c["gridio.write.bytes"] / n

        out["heatlab.solve.calls"] = calls["heatlab.solve"] / n
        out["heatlab.solve.s"] = total["heatlab.solve"] / n
        out["heatlab.unknowns"] = c["heatlab.unknowns"] / n
        out["heatlab.cg.s"] = total["heatlab.cg"] / n
        out["heatlab.cg.iters"] = c["heatlab.cg.iters"] / n
        # assembly = solve time not spent inside CG; comparison = conjecture
        # time not spent in the solve or the transform grid
        out["heatlab.assembly_s"] = self_s["heatlab.solve"] / n
        out["heatlab.compare_s"] = self_s["heatlab.conjecture"] / n

        out["verify.suite.s"] = total["verify.suite"] / n
        out["verify.invariants"] = c["verify.invariants"] / n
        out["verify.failed"] = c["verify.failed"] / n

        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = total[f"cli.{command}"] / n
        out["cli.overhead_s"] = sum(self_s[f"cli.{cmd}"] for cmd in CLI_COMMANDS) / n
        return out


class _CountingSparseLinalg:
    """Stands in for ``heatlab.spla``: ``cg`` is traced and its iterations
    counted through the callback; every other name is the real module's."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        counts = tracer.counts

        def count_iterations(args, kwargs):
            user_callback = kwargs.get("callback")

            def callback(xk):
                counts["heatlab.cg.iters"] += 1
                if user_callback is not None:
                    user_callback(xk)

            return args, {**kwargs, "callback": callback}

        self.cg = tracer.wrap("heatlab.cg", real.cg, before=count_iterations)

    def __getattr__(self, attr):
        return getattr(self._real, attr)
