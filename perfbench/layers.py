"""Per-layer metrics of the tagcomplete modules, traced from outside.

`LayerProbe` patches the public functions of every module (see FUNCTIONS and
METHODS), collects counters from their results, and turns the spans into the
metrics listed in PER_LAYER.  BENCHMARK.json lists the same names and units.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from tagcomplete import cli, core, io, lasso, metrics, solver, structure, synth
from tracing import Tracer, summarize

MODULES = (core, lasso, structure, solver, metrics, synth, io, cli)

# span name -> (defining module, function); traced in every module binding it
FUNCTIONS = {
    "structure.knn_index": (structure, "knn_index"),
    "structure.build_feature_structure": (structure, "build_feature_structure"),
    "structure.build_tag_structure": (structure, "build_tag_structure"),
    "structure.reinitialize": (structure, "reinitialize"),
    "structure.feature_structure_kkt": (structure, "feature_structure_kkt"),
    "structure.tag_structure_kkt": (structure, "tag_structure_kkt"),
    "lasso.solve_lasso": (lasso, "solve_lasso"),
    "lasso.verify_kkt": (lasso, "verify_kkt"),
    "solver.initial_model": (solver, "initial_model"),
    "solver.update_coeffs": (solver, "update_coeffs"),
    "solver.update_basis": (solver, "update_basis"),
    "solver.update_error": (solver, "update_error"),
    "solver.fit": (solver, "fit"),
    "metrics.rank_predictions": (metrics, "rank_predictions"),
    "metrics.evaluate": (metrics, "evaluate"),
    "synth.generate": (synth, "generate"),
    "synth.delete_tags": (synth, "delete_tags"),
    "io.read_sparse_matrix": (io, "read_sparse_matrix"),
    "io.write_sparse_matrix": (io, "write_sparse_matrix"),
    "io.read_dense_matrix": (io, "read_dense_matrix"),
    "io.write_dense_matrix": (io, "write_dense_matrix"),
    "io.read_matrix_auto": (io, "read_matrix_auto"),
    "io.write_model": (io, "write_model"),
    "io.read_split": (io, "read_split"),
}

# span name -> (class, attribute); __init__ times construction
METHODS = {
    "lasso.LassoProblem": (lasso.LassoProblem, "__init__"),
    "solver.SolverWorkspace": (solver.SolverWorkspace, "__init__"),
    "solver.objective_value": (solver.SolverWorkspace, "objective_value"),
    "core.FactorModel.completed": (core.FactorModel, "completed"),
}

# spans the workloads open around each in-process CLI call
CLI_SPANS = {
    ("build-structure", "image"): "cli.build_structure_image",
    ("build-structure", "tag"): "cli.build_structure_tag",
    ("complete", None): "cli.complete",
    ("evaluate", None): "cli.evaluate",
}

# span name whose self time is the unattributed remainder of wall_s
OP_SPAN = "bench.op"

# (name, unit, better): every per-layer metric, in report order
PER_LAYER = [
    ("lasso.solve_lasso.s", "s", "lower"),
    ("lasso.solve_lasso.calls", "count", "lower"),
    ("lasso.solve_lasso.p50_ms", "ms", "lower"),
    ("lasso.solve_lasso.p99_ms", "ms", "lower"),
    ("lasso.solve_lasso.max_ms", "ms", "lower"),
    ("lasso.LassoProblem.s", "s", "lower"),
    ("lasso.verify_kkt.s", "s", "lower"),
    ("lasso.max_kkt_residual", "residual", "lower"),
    ("lasso.support_frac", "ratio", "higher"),
    ("structure.knn_index.s", "s", "lower"),
    ("structure.knn_index.calls", "count", "lower"),
    ("structure.build_feature_structure.s", "s", "lower"),
    ("structure.build_feature_structure.self_s", "s", "lower"),
    ("structure.build_tag_structure.s", "s", "lower"),
    ("structure.build_tag_structure.self_s", "s", "lower"),
    ("structure.reinitialize.s", "s", "lower"),
    ("structure.kkt_recert.s", "s", "lower"),
    ("structure.S.nnz", "count", "lower"),
    ("structure.T.nnz", "count", "lower"),
    ("solver.initial_model.s", "s", "lower"),
    ("solver.SolverWorkspace.s", "s", "lower"),
    ("solver.update_coeffs.s", "s", "lower"),
    ("solver.update_coeffs.calls", "count", "lower"),
    ("solver.update_basis.s", "s", "lower"),
    ("solver.update_basis.calls", "count", "lower"),
    ("solver.update_error.s", "s", "lower"),
    ("solver.objective_value.s", "s", "lower"),
    ("solver.objective_value.calls", "count", "lower"),
    ("solver.fit.self_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.converged", "bool", "higher"),
    ("solver.skipped_coordinates", "count", "lower"),
    ("solver.final_objective", "objective", "lower"),
    ("solver.coord_steps", "count", "lower"),
    ("solver.us_per_coord", "us", "lower"),
    ("solver.penalty_bytes", "bytes_computed", "lower"),
    ("core.FactorModel.completed.s", "s", "lower"),
    ("metrics.rank_predictions.s", "s", "lower"),
    ("metrics.evaluate.s", "s", "lower"),
    ("io.read_sparse_matrix.s", "s", "lower"),
    ("io.write_sparse_matrix.s", "s", "lower"),
    ("io.read_dense_matrix.s", "s", "lower"),
    ("io.write_dense_matrix.s", "s", "lower"),
    ("io.read_matrix_auto.s", "s", "lower"),
    ("io.write_model.s", "s", "lower"),
    ("io.read_split.s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("cli.build_structure_image.s", "s", "lower"),
    ("cli.build_structure_tag.s", "s", "lower"),
    ("cli.complete.s", "s", "lower"),
    ("cli.evaluate.s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("synth.delete_tags.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


class LayerProbe:
    """A tracer plus the counters read from traced results."""

    def __init__(self):
        self.tracer = Tracer()
        self.lasso_kkt_max = 0.0
        self.lasso_support = 0
        self.lasso_vars = 0
        self.structure_nnz = {"S": 0, "T": 0}
        self.fit_report = None
        self.coord_steps = 0
        self.penalty_bytes = 0
        self.io_bytes = {"read": 0, "written": 0}

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        hooks = {
            "lasso.solve_lasso": self._on_lasso,
            "structure.build_feature_structure": self._on_structure("S"),
            "structure.build_tag_structure": self._on_structure("T"),
            "solver.fit": self._on_fit,
            "solver.update_coeffs": self._on_sweep("n_tags"),
            "solver.update_basis": self._on_sweep("n_images"),
            "solver.SolverWorkspace": self._on_workspace,
        }
        try:
            for name, (module, attribute) in FUNCTIONS.items():
                on_result = hooks.get(name)
                if name.startswith("io."):
                    on_result = self._on_io("read" if ".read_" in name else "written")
                self.tracer.patch_function(name, module, attribute, MODULES, on_result)
            for name, (cls, attribute) in METHODS.items():
                self.tracer.patch_method(name, cls, attribute, hooks.get(name))
            yield self
        finally:
            self.tracer.restore()

    def _on_lasso(self, index, args, kwargs, solution):
        self.lasso_kkt_max = max(self.lasso_kkt_max, float(solution.kkt_residual))
        self.lasso_support += int(np.count_nonzero(solution.weights))
        self.lasso_vars += int(solution.weights.shape[0])

    def _on_structure(self, key):
        def hook(index, args, kwargs, built):
            self.structure_nnz[key] = int(built.matrix.nnz)

        return hook

    def _on_fit(self, index, args, kwargs, report):
        self.fit_report = report

    def _on_sweep(self, size_attribute):
        def hook(index, args, kwargs, skipped):
            ws = args[0]
            self.coord_steps += ws.n_factors * getattr(ws, size_attribute)

        return hook

    def _on_workspace(self, index, args, kwargs, _none):
        D = args[1]  # __init__(self, D, S, T, model, hp)
        self.penalty_bytes = 8 * (D.n_images**2 + D.n_tags**2)

    def _on_io(self, direction):
        def hook(index, args, kwargs, _result):
            # count a file once, at the outermost io call that touched it
            if any(n.startswith("io.") for n in self.tracer.ancestors(index)):
                return
            self.io_bytes[direction] += os.path.getsize(args[0])

        return hook

    def metrics(self, untraced_wall_s: float, exit_nonzero: int) -> dict:
        """Every PER_LAYER metric as name -> (value, unit)."""
        stats = summarize(self.tracer.spans)

        def total(name):
            return stats[name].total_s if name in stats else 0.0

        def self_s(name):
            return stats[name].self_s if name in stats else 0.0

        def calls(name):
            return stats[name].calls if name in stats else 0

        lasso_ms = np.asarray(
            stats["lasso.solve_lasso"].durations if "lasso.solve_lasso" in stats else [0.0]
        ) * 1e3
        report = self.fit_report
        sweep_s = total("solver.update_coeffs") + total("solver.update_basis")
        values = {
            "lasso.solve_lasso.s": total("lasso.solve_lasso"),
            "lasso.solve_lasso.calls": calls("lasso.solve_lasso"),
            "lasso.solve_lasso.p50_ms": float(np.percentile(lasso_ms, 50)),
            "lasso.solve_lasso.p99_ms": float(np.percentile(lasso_ms, 99)),
            "lasso.solve_lasso.max_ms": float(lasso_ms.max()),
            "lasso.LassoProblem.s": total("lasso.LassoProblem"),
            "lasso.verify_kkt.s": total("lasso.verify_kkt"),
            "lasso.max_kkt_residual": self.lasso_kkt_max,
            "lasso.support_frac": self.lasso_support / max(self.lasso_vars, 1),
            "structure.knn_index.s": total("structure.knn_index"),
            "structure.knn_index.calls": calls("structure.knn_index"),
            "structure.build_feature_structure.s": total("structure.build_feature_structure"),
            "structure.build_feature_structure.self_s": self_s("structure.build_feature_structure"),
            "structure.build_tag_structure.s": total("structure.build_tag_structure"),
            "structure.build_tag_structure.self_s": self_s("structure.build_tag_structure"),
            "structure.reinitialize.s": total("structure.reinitialize"),
            "structure.kkt_recert.s": total("structure.feature_structure_kkt")
            + total("structure.tag_structure_kkt"),
            "structure.S.nnz": self.structure_nnz["S"],
            "structure.T.nnz": self.structure_nnz["T"],
            "solver.initial_model.s": total("solver.initial_model"),
            "solver.SolverWorkspace.s": total("solver.SolverWorkspace"),
            "solver.update_coeffs.s": total("solver.update_coeffs"),
            "solver.update_coeffs.calls": calls("solver.update_coeffs"),
            "solver.update_basis.s": total("solver.update_basis"),
            "solver.update_basis.calls": calls("solver.update_basis"),
            "solver.update_error.s": total("solver.update_error"),
            "solver.objective_value.s": total("solver.objective_value"),
            "solver.objective_value.calls": calls("solver.objective_value"),
            "solver.fit.self_s": self_s("solver.fit"),
            "solver.iterations": report.iterations if report else 0,
            "solver.converged": int(report.converged) if report else 0,
            "solver.skipped_coordinates": report.skipped_coordinates if report else 0,
            "solver.final_objective": float(report.objective_trace[-1]) if report else 0.0,
            "solver.coord_steps": self.coord_steps,
            "solver.us_per_coord": 1e6 * sweep_s / max(self.coord_steps, 1),
            "solver.penalty_bytes": self.penalty_bytes,
            "core.FactorModel.completed.s": total("core.FactorModel.completed"),
            "metrics.rank_predictions.s": total("metrics.rank_predictions"),
            "metrics.evaluate.s": total("metrics.evaluate"),
            "io.bytes_written": self.io_bytes["written"],
            "io.bytes_read": self.io_bytes["read"],
            "cli.exit_nonzero": exit_nonzero,
            "synth.generate.s": total("synth.generate"),
            "synth.delete_tags.s": total("synth.delete_tags"),
            "trace.wall_s": total(OP_SPAN),
            "trace.overhead_s": total(OP_SPAN) - untraced_wall_s,
            "trace.unattributed_s": self_s(OP_SPAN),
        }
        for name in FUNCTIONS:
            if name.startswith("io."):
                values[name + ".s"] = total(name)
        for name in CLI_SPANS.values():
            values[name + ".s"] = total(name)
        return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
