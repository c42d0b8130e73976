"""In-memory span tracing of calls into the dkg1d layers.

``Tracer.install`` replaces every public function of the layer modules by a
timing wrapper, at every module attribute through which it is looked up: a
function defined in ``norms`` and imported into ``counterexamples`` is wrapped
as ``dkg1d.norms.transform`` and as ``dkg1d.counterexamples.transform``, both
recording spans named ``norms.transform``.  Calls made inside the program
(``ratio_ladder`` calling ``inverse_transform``) therefore record spans too,
without any change to the program.

A span is (name, start, end, parent, count, label).  Spans stay in a list in
memory and are reduced to per-layer metrics when the run ends.  A layer
metric named ``*_self_s`` is a self time (the span minus its child spans);
any other ``*_s`` metric is the time inside the outermost calls of that
function.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np

LAYERS = ("counterexamples", "norms", "solver", "weights", "spinor", "regions")
FAMILIES = ("cond1_ab", "cond2", "cond3", "cond1_gamma", "cond4")
DIAGNOSTICS = ("solver.charge", "solver.spinor_sobolev_norm", "solver.sobolev_norm", "solver.kg_energy")
MEMBERSHIP = (
    "regions.in_wellposed_region",
    "regions.in_pecher_region",
    "regions.in_machihara_region",
    "regions.region_violations",
)


def _grid_points(args, kwargs, out):
    return out.grid.n_t * out.grid.n_x


def _strip_nonzeros(args, kwargs, out):
    u_hat, v_hat, _ = out
    return np.count_nonzero(u_hat.values) + np.count_nonzero(v_hat.values)


def _diagnostic_rows(args, kwargs, out):
    series = out[0] if isinstance(out, tuple) else out
    return series.t.size


def _file_bytes(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# What a span of these functions counts, besides the call itself.
COUNTS = {
    "norms.transform": _grid_points,
    "norms.inverse_transform": _grid_points,
    "counterexamples.build_family": _strip_nonzeros,
    "counterexamples.ratio_ladder": lambda args, kwargs, out: len(out),
    "solver.run": _diagnostic_rows,
    "solver.save_state": _file_bytes,
    "weights.sample_margins": lambda args, kwargs, out: out["samples"],
}

# Spans of these functions carry a label taken from their first argument.
LABELS = {"counterexamples.ratio_ladder"}

PER_LAYER = (
    "norms.transform_s",
    "norms.inverse_transform_s",
    "norms.fft2_points",
    "norms.weighted_norm_s",
    "norms.weighted_norm_calls",
    "counterexamples.build_family_s",
    "counterexamples.ratio_ladder_self_s",
    *(f"counterexamples.{family}_s" for family in FAMILIES),
    "counterexamples.strip_points",
    "counterexamples.ratio_rows",
    "solver.half_wave_flow_s",
    "solver.kg_flow_s",
    "solver.coupling_flow_s",
    "solver.strang_step_self_s",
    "solver.coupling_calls",
    "solver.steps",
    "solver.diagnostics_s",
    "solver.diagnostic_rows",
    "solver.rough_data_s",
    "solver.save_state_s",
    "solver.load_state_s",
    "solver.snapshot_bytes",
    "weights.sample_margins_s",
    "weights.dominance_margin_s",
    "weights.sign_split_residual_s",
    "weights.sum_bound_margin_s",
    "weights.samples",
    "spinor.verify_identities_s",
    "regions.choose_parameters_s",
    "regions.choose_parameters_calls",
    "regions.membership_s",
    "trace.spans",
    "trace.overhead_s",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str):
        count = COUNTS.get(name)
        labelled = name in LABELS
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, 0, None)
            spans[index] = (
                name,
                start,
                end,
                parent,
                count(args, kwargs, out) if count else 0,
                args[0] if labelled else None,
            )
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every public layer function at every layer-module attribute."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        origin = {mod.__name__: layer for layer, mod in modules.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = origin.get(value.__module__)
                if layer is None:
                    continue
                self._patched.append((mod, attr, value))
                setattr(mod, attr, self._wrap(value, f"{layer}.{value.__name__}"))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)


def layer_metrics(
    spans: list[tuple], offset: int, rounds: int, setup_spans: list[tuple]
) -> dict[str, float]:
    """Per-round layer metrics from the spans of ``rounds`` traced rounds.

    ``spans`` is ``Tracer.spans[offset:]``; parents recorded before it count
    as none.  ``solver.rough_data_s`` is a set-up cost and comes from
    ``setup_spans``, the spans of one traced set-up.
    """
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64) - offset
    parent[parent < 0] = -1
    child_time = np.zeros(len(spans))
    inside = parent >= 0
    np.add.at(child_time, parent[inside], dur[inside])
    self_time = dur - child_time

    def has_ancestor(i, wanted):
        p = parent[i]
        while p >= 0:
            if names[p] in wanted:
                return True
            p = parent[p]
        return False

    inclusive: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    by_label: dict[str, float] = {}
    diagnostics = 0.0
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_time[i]
        counts[name] = counts.get(name, 0) + spans[i][4]
        if not has_ancestor(i, {name}):
            inclusive[name] = inclusive.get(name, 0.0) + dur[i]
        if name in DIAGNOSTICS and not has_ancestor(i, DIAGNOSTICS):
            diagnostics += dur[i]
        label = spans[i][5]
        if label is not None:
            by_label[label] = by_label.get(label, 0.0) + dur[i]

    totals = {
        "norms.transform_s": inclusive.get("norms.transform", 0.0),
        "norms.inverse_transform_s": inclusive.get("norms.inverse_transform", 0.0),
        "norms.fft2_points": counts.get("norms.transform", 0) + counts.get("norms.inverse_transform", 0),
        "norms.weighted_norm_s": inclusive.get("norms.weighted_norm", 0.0),
        "norms.weighted_norm_calls": calls.get("norms.weighted_norm", 0),
        "counterexamples.build_family_s": inclusive.get("counterexamples.build_family", 0.0),
        "counterexamples.ratio_ladder_self_s": selfs.get("counterexamples.ratio_ladder", 0.0),
        **{f"counterexamples.{f}_s": by_label.get(f, 0.0) for f in FAMILIES},
        "counterexamples.strip_points": counts.get("counterexamples.build_family", 0),
        "counterexamples.ratio_rows": counts.get("counterexamples.ratio_ladder", 0),
        "solver.half_wave_flow_s": inclusive.get("solver.half_wave_flow", 0.0),
        "solver.kg_flow_s": inclusive.get("solver.kg_flow", 0.0),
        "solver.coupling_flow_s": inclusive.get("solver.coupling_flow", 0.0),
        "solver.strang_step_self_s": selfs.get("solver.strang_step", 0.0),
        "solver.coupling_calls": calls.get("solver.coupling_flow", 0),
        "solver.diagnostics_s": diagnostics,
        "solver.diagnostic_rows": counts.get("solver.run", 0),
        "solver.save_state_s": inclusive.get("solver.save_state", 0.0),
        "solver.load_state_s": inclusive.get("solver.load_state", 0.0),
        "weights.sample_margins_s": inclusive.get("weights.sample_margins", 0.0),
        "weights.dominance_margin_s": inclusive.get("weights.dominance_margin", 0.0),
        "weights.sign_split_residual_s": inclusive.get("weights.sign_split_residual", 0.0),
        "weights.sum_bound_margin_s": inclusive.get("weights.sum_bound_margin", 0.0),
        "weights.samples": counts.get("weights.sample_margins", 0),
        "spinor.verify_identities_s": inclusive.get("spinor.verify_identities", 0.0),
        "regions.choose_parameters_s": inclusive.get("regions.choose_parameters", 0.0),
        "regions.choose_parameters_calls": calls.get("regions.choose_parameters", 0),
        "regions.membership_s": sum(selfs.get(name, 0.0) for name in MEMBERSHIP),
        "trace.spans": len(spans),
    }
    out = {key: float(value) / rounds for key, value in totals.items()}
    snapshots = calls.get("solver.save_state", 0)
    out["solver.snapshot_bytes"] = counts.get("solver.save_state", 0) / snapshots if snapshots else 0.0
    out["solver.rough_data_s"] = sum(s[2] - s[1] for s in setup_spans if s[0] == "solver.rough_data")
    return out
