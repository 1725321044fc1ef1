"""The benchmark traces layers by rebinding library names from outside.

`bench/spans.py` replaces module attributes such as
`dynetlogit.simulate.edge_term_values` and reads their positional
arguments.  A refactor that renames such a binding, or stops calling a layer
through it, silently blinds the trace; these tests catch that.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dynetlogit import ModelSpec, SimConfig, TermSpec, cli, save_model_spec, save_panel
from dynetlogit.design import build_design
from dynetlogit.simulate import one_step_intervals, project

BENCH = Path(__file__).resolve().parents[1] / "bench"

# vertex and edge kinds kept disjoint, so a span's kind tells its side
VERTEX_KINDS = {"attr_dummy", "lag_triangle"}
SPEC = ModelSpec(
    [TermSpec("vertex", "attr_dummy", params={"attr": "regular"}),
     TermSpec("vertex", "lag_triangle", lag=1)],
    [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1),
     TermSpec("edge", "log_size")],
)


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_binds_and_describes_every_layer(tiny_panel):
    fit = SimpleNamespace(coefficients=np.array([1.0, 0.2, 0.5, 0.3, -0.1]),
                          column_names=SPEC.column_names)
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        build_design(tiny_panel, SPEC)
        for fixed in (False, True):
            one_step_intervals(fit, SPEC, tiny_panel,
                               SimConfig(replicates=3, seed=1, fixed_vertex_set=fixed))
        project(fit, SPEC, tiny_panel, SimConfig(replicates=2, horizon=2, seed=1))
    finally:
        tracer.remove()

    assert tracer.missing == set()
    names = {rec[0] for rec in tracer.spans}
    assert {"terms.design", "terms.simulate", "panel.snapshot", "gli.vector",
            "gli.triad_census", "gli.connectedness", "gli.centralization"} <= names
    simulate_spans = [rec[5] for rec in tracer.spans if rec[0] == "terms.simulate"]
    assert any("key" in attrs for attrs in simulate_spans)
    for attrs in simulate_spans:
        assert ("key" in attrs) == (attrs["kind"] not in VERTEX_KINDS), attrs


def test_bench_tracer_sees_the_cycle_term(tiny_panel):
    # the cycle term is costed from its terms.design span, whatever kernel
    # the term calls underneath
    spec = ModelSpec([TermSpec("vertex", "intercept")],
                     [TermSpec("edge", "intercept"),
                      TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 9})])
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        build_design(tiny_panel, spec)
    finally:
        tracer.remove()

    assert tracer.missing == set()
    kinds = {rec[5]["kind"] for rec in tracer.spans if rec[0] == "terms.design"}
    assert "lag_cycle_embed" in kinds


@pytest.mark.parametrize("prior", [[], ["--prior", "none"]], ids=["cauchy", "none"])
def test_bench_tracer_sees_the_fit_layers(tiny_panel, lag1_spec, tmp_path, prior):
    panel, spec = tmp_path / "panel.json", tmp_path / "spec.json"
    save_panel(tiny_panel, panel)
    save_model_spec(lag1_spec, spec)
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        cli.main(["fit", str(panel), str(spec), "--out-dir", str(tmp_path / "out"), *prior])
    finally:
        tracer.remove()

    assert tracer.missing == set()
    names = [rec[0] for rec in tracer.spans]
    assert "design.build" in names
    fits = [rec[5] for rec in tracer.spans if rec[0] == "solver.fit"]
    assert len(fits) == 1 and "iterations" in fits[0]


@pytest.mark.parametrize("fixed", [False, True], ids=["stochastic", "fixed"])
def test_bench_tracer_sees_the_union_of_replicates(tiny_panel, fixed):
    # each step's replicates are one union snapshot, built through
    # simulate.Snapshot, whose indices go through the three bound gli names
    fit = SimpleNamespace(coefficients=np.array([1.0, 0.2, 0.5, 0.3, -0.1]),
                          column_names=SPEC.column_names)
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        samples, _ = one_step_intervals(fit, SPEC, tiny_panel,
                                        SimConfig(replicates=5, seed=1, fixed_vertex_set=fixed))
    finally:
        tracer.remove()

    assert tracer.missing == set()
    count = {}
    for rec in tracer.spans:
        count[rec[0]] = count.get(rec[0], 0) + 1
    unions = count["panel.snapshot"]
    assert unions == len(samples.steps)
    # one gli.vector per observed snapshot; every union and every vector
    # computes each bound index once
    assert count["gli.vector"] == len(samples.steps)
    for name in ("gli.triad_census", "gli.connectedness", "gli.centralization"):
        assert count[name] == unions + count["gli.vector"], name


@pytest.mark.parametrize("fixed", [False, True], ids=["stochastic", "fixed"])
def test_bench_tracer_sees_the_lockstep_projection(tiny_panel, fixed):
    # projection draws each step's replicates as one union through
    # simulate.Snapshot, and evaluates its terms through simulate's names
    fit = SimpleNamespace(coefficients=np.array([1.0, 0.2, 0.5, 0.3, -0.1]),
                          column_names=SPEC.column_names)
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        project(fit, SPEC, tiny_panel,
                SimConfig(replicates=4, horizon=3, seed=1, fixed_vertex_set=fixed))
    finally:
        tracer.remove()

    assert tracer.missing == set()
    count = {}
    for rec in tracer.spans:
        count[rec[0]] = count.get(rec[0], 0) + 1
    assert count["panel.snapshot"] == 3  # one union per step
    simulate_spans = [rec[5] for rec in tracer.spans if rec[0] == "terms.simulate"]
    kinds = {attrs["kind"] for attrs in simulate_spans}
    assert kinds == {"attr_dummy", "lag_triangle", "intercept", "lag_indicator", "log_size"} \
        - ({"attr_dummy", "lag_triangle"} if fixed else set())
    for attrs in simulate_spans:
        assert ("key" in attrs) == (attrs["kind"] not in VERTEX_KINDS), attrs
