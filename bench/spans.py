"""Spans around the calls into each layer, installed from outside the library.

Each wrapper replaces a module attribute, the name through which a caller
binds a layer's entry point (`dynetlogit.cli.build_design` is the design
layer as the `fit` command calls it).  A span records its name, stage,
start, end and parent; spans stay in memory until the run writes them out.
`Tracer.remove` restores every original binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

# (module, attribute): span name.  The module is the caller's namespace.
BINDINGS = {
    ("dynetlogit.cli", "load_panel"): "panel.load",
    ("dynetlogit.cli", "save_panel"): "panel.save",
    ("dynetlogit.simulate", "Snapshot"): "panel.snapshot",
    ("dynetlogit.design", "vertex_term_values"): "terms.design",
    ("dynetlogit.design", "edge_term_values"): "terms.design",
    ("dynetlogit.simulate", "vertex_term_values"): "terms.simulate",
    ("dynetlogit.simulate", "edge_term_values"): "terms.simulate",
    ("dynetlogit.terms", "pair_cycle_count"): "terms.pair_cycle_count",
    ("dynetlogit.cli", "build_design"): "design.build",
    ("dynetlogit.cli", "fit_posterior_mode"): "solver.fit",
    ("dynetlogit.cli", "fit_mle"): "solver.fit",
    ("dynetlogit.simulate", "gli_vector"): "gli.vector",
    ("dynetlogit.gli", "triad_census"): "gli.triad_census",
    ("dynetlogit.gli", "krackhardt_connectedness"): "gli.connectedness",
    ("dynetlogit.gli", "degree_centralization"): "gli.centralization",
    ("dynetlogit.cli", "one_step_intervals"): "simulate.run",
    ("dynetlogit.cli", "project"): "simulate.run",
}

# per-layer metric: (unit, span names it is computed from).  A metric whose
# spans lost their binding is reported missing, never as zero.
METRICS = {
    "panel.load_s": ("s", ("panel.load",)),
    "panel.load_bytes": ("B", ("panel.load",)),
    "panel.save_s": ("s", ("panel.save",)),
    "panel.snapshot_s": ("s", ("panel.snapshot",)),
    "panel.snapshots": ("count", ("panel.snapshot",)),
    "terms.lag_cycle_embed_s": ("s", ("terms.design", "terms.simulate")),
    "terms.cycle_pairs": ("count", ("terms.pair_cycle_count",)),
    "terms.cycle_s_per_pair": ("s", ("terms.pair_cycle_count",)),
    "terms.lag_triangle_s": ("s", ("terms.design", "terms.simulate")),
    "terms.other_s.design": ("s", ("terms.design",)),
    "terms.rows.design": ("count", ("terms.design",)),
    "terms.other_s.simulate": ("s", ("terms.simulate",)),
    "terms.rows.simulate": ("count", ("terms.simulate",)),
    "design.build_s": ("s", ("design.build",)),
    "design.self_s": ("s", ("design.build", "terms.design")),
    "design.rows": ("count", ("design.build",)),
    "design.nnz": ("count", ("design.build",)),
    "design.csr_mb": ("MB", ("design.build",)),
    "solver.fit_s": ("s", ("solver.fit",)),
    "solver.iterations": ("count", ("solver.fit",)),
    "solver.s_per_iteration": ("s", ("solver.fit",)),
    "gli.s": ("s", ("gli.vector",)),
    "gli.calls": ("count", ("gli.vector",)),
    "gli.triad_census_s": ("s", ("gli.triad_census",)),
    "gli.connectedness_s": ("s", ("gli.connectedness",)),
    "gli.centralization_s": ("s", ("gli.centralization",)),
    "simulate.self_s": ("s", ("simulate.run", "terms.simulate", "gli.vector",
                              "panel.snapshot")),
    "simulate.replicate_steps": ("count", ("simulate.run",)),
    "simulate.edge_eval_unique_ratio": ("ratio", ("terms.simulate",)),
}


def _describe_terms(args, result):
    return {"kind": args[0].kind, "rows": len(result)}


def _describe_edge_eval(args, result):
    # (history, t, present set, term) identifies one evaluation of one term;
    # the span holds on to the history so that its id is not reused
    term, history, t, present = args[0], args[1], args[2], args[5]
    return {"kind": term.kind, "rows": len(result),
            "key": (id(history), t, present.tobytes(), id(term)), "history": history}


def _describe_design(args, result):
    x = result.features
    return {"rows": result.n_rows, "nnz": int(x.nnz),
            "csr_bytes": int(x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)}


def _describe_load(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _describe_simulate(args, result):
    if isinstance(result, tuple):  # one_step_intervals: (samples, report)
        draws = result[0].draws
    else:  # project
        draws = result.gli_paths
    return {"replicate_steps": int(draws.shape[0] * draws.shape[1])}


DESCRIBE = {
    ("dynetlogit.design", "vertex_term_values"): _describe_terms,
    ("dynetlogit.design", "edge_term_values"): _describe_terms,
    ("dynetlogit.simulate", "vertex_term_values"): _describe_terms,
    ("dynetlogit.simulate", "edge_term_values"): _describe_edge_eval,
    ("dynetlogit.cli", "build_design"): _describe_design,
    ("dynetlogit.cli", "fit_posterior_mode"): lambda a, r: {"iterations": r.iterations},
    ("dynetlogit.cli", "fit_mle"): lambda a, r: {"iterations": r.iterations},
    ("dynetlogit.cli", "load_panel"): _describe_load,
    ("dynetlogit.cli", "one_step_intervals"): _describe_simulate,
    ("dynetlogit.cli", "project"): _describe_simulate,
}


class Tracer:
    """Records spans while installed; `spans` is cleared by `take`."""

    def __init__(self):
        self.spans = []  # [name, stage, start, end, parent, attrs]
        self.stage = None
        self._stack = []
        self._originals = []
        self.missing = set()

    def install(self) -> None:
        bound = set()
        for (module_name, attr), name in BINDINGS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            bound.add(name)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, DESCRIBE.get((module_name, attr))))
        self.missing = set(BINDINGS.values()) - bound

    def remove(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name, describe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.stage, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if describe is not None:
                rec[5] = describe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def command(self, stage: str):
        """Span `cli.<stage>` around one CLI command; parent of its layers."""
        self.stage = stage
        rec = [f"cli.{stage}", stage, 0.0, 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()
            self.stage = None

    def take(self) -> list:
        """The spans recorded so far, leaving the tracer empty."""
        out = self.spans[:]
        self.spans.clear()
        return out


def command_sums(spans) -> list:
    """[(stage, sums)] per CLI command, from one pass's spans.

    Sums are additive (seconds, counts), so they can be combined across
    commands before `derive` turns them into metrics.  Self time is a
    span's duration minus that of its direct children.
    """
    child = defaultdict(float)
    for rec in spans:
        if rec[4] >= 0:
            child[rec[4]] += rec[3] - rec[2]
    out = []
    for k, (name, stage, start, end, parent, attrs) in enumerate(spans):
        if parent < 0:  # the cli.<stage> span opens a command
            acc = defaultdict(float)
            keys = set()
            out.append((stage, acc))
        dur = end - start
        acc[name + ".s"] += dur
        acc[name + ".n"] += 1
        acc[name + ".self"] += dur - child[k]
        if not attrs:
            continue
        for key in ("rows", "nnz", "csr_bytes", "iterations", "bytes", "replicate_steps"):
            if key in attrs:
                acc[f"{name}.{key}"] += attrs[key]
        if "kind" in attrs:
            kind = attrs["kind"]
            group = kind if kind in ("lag_cycle_embed", "lag_triangle") else "other"
            acc[f"{name}.{group}.s"] += dur
        if "key" in attrs:
            keys.add(attrs["key"])
            acc["edge_evals"] += 1
            acc["edge_evals_distinct"] = len(keys)
    return out


def derive(acc, missing=frozenset()) -> dict:
    """Per-layer metrics from summed span data; metrics whose bindings are
    missing are left out."""
    acc = defaultdict(float, acc)
    m = {
        "panel.load_s": acc["panel.load.s"],
        "panel.load_bytes": acc["panel.load.bytes"],
        "panel.save_s": acc["panel.save.s"],
        "panel.snapshot_s": acc["panel.snapshot.s"],
        "panel.snapshots": acc["panel.snapshot.n"],
        "terms.lag_cycle_embed_s": acc["terms.design.lag_cycle_embed.s"]
        + acc["terms.simulate.lag_cycle_embed.s"],
        "terms.cycle_pairs": acc["terms.pair_cycle_count.n"],
        "terms.cycle_s_per_pair": _ratio(acc["terms.pair_cycle_count.s"],
                                         acc["terms.pair_cycle_count.n"], 0.0),
        "terms.lag_triangle_s": acc["terms.design.lag_triangle.s"]
        + acc["terms.simulate.lag_triangle.s"],
        "terms.other_s.design": acc["terms.design.other.s"],
        "terms.rows.design": acc["terms.design.rows"],
        "terms.other_s.simulate": acc["terms.simulate.other.s"],
        "terms.rows.simulate": acc["terms.simulate.rows"],
        "design.build_s": acc["design.build.s"],
        "design.self_s": acc["design.build.self"],
        "design.rows": acc["design.build.rows"],
        "design.nnz": acc["design.build.nnz"],
        "design.csr_mb": acc["design.build.csr_bytes"] / 1e6,
        "solver.fit_s": acc["solver.fit.s"],
        "solver.iterations": acc["solver.fit.iterations"],
        "solver.s_per_iteration": _ratio(acc["solver.fit.s"],
                                         acc["solver.fit.iterations"], 0.0),
        "gli.s": acc["gli.vector.s"],
        "gli.calls": acc["gli.vector.n"],
        "gli.triad_census_s": acc["gli.triad_census.s"],
        "gli.connectedness_s": acc["gli.connectedness.s"],
        "gli.centralization_s": acc["gli.centralization.s"],
        "simulate.self_s": acc["simulate.run.self"],
        "simulate.replicate_steps": acc["simulate.run.replicate_steps"],
        # distinct (history, step, present set) edge evaluations per
        # evaluation; 1 when nothing was evaluated, since nothing was wasted
        "simulate.edge_eval_unique_ratio": _ratio(acc["edge_evals_distinct"],
                                                  acc["edge_evals"], 1.0),
    }
    return {k: v for k, v in m.items() if not missing.intersection(METRICS[k][1])}


def _ratio(num, den, empty):
    return num / den if den else empty
