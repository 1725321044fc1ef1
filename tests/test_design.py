import csv
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dynetlogit import (
    DesignError,
    ModelSpec,
    NetworkPanel,
    RiskSet,
    Snapshot,
    TermSpec,
    block_summaries,
    build_design,
    cli,
    fit_posterior_mode,
    save_model_spec,
    save_panel,
)
from dynetlogit import design
from dynetlogit.design import _endpoint_classes, dump_design
from dynetlogit.terms import (
    KINDS,
    MIXING_PAIRS,
    WEEKDAYS,
    History,
    SpecError,
    edge_term_values,
    resolve_lag,
    usable_transitions,
    vertex_term_values,
)

import oracles
from conftest import bench_workloads, random_panel


def snap(t, present, edges, n, attrs=None):
    return Snapshot(t, present, edges, attrs or {}, n=n)


def test_row_counts_example(lag1_spec):
    # T=3, k=1, |V_max|=5, |V_2|=3, |V_3|=4 -> 10 vertex rows, 3+6 edge rows
    rs = RiskSet([f"v{k}" for k in range(5)])
    p = NetworkPanel(rs, [
        snap(1, [0, 1], [(0, 1)], 5),
        snap(2, [0, 1, 2], [(0, 1)], 5),
        snap(3, [0, 1, 2, 3], [(1, 2)], 5),
    ])
    dm = build_design(p, lag1_spec)
    assert dm.n_vertex_rows == 10
    assert dm.n_rows - dm.n_vertex_rows == 3 + 6
    assert dm.column_names == ("v:intercept", "v:lag1", "e:intercept", "e:lag1")


def test_no_repeat_vertices_zero_lag_features():
    rs = RiskSet([f"v{k}" for k in range(4)])
    p = NetworkPanel(rs, [
        snap(1, [0, 1], [], 4),
        snap(2, [2, 3], [], 4),
        snap(3, [0, 1], [], 4),  # disjoint from t=2
    ])
    spec = ModelSpec([TermSpec("vertex", "lag_indicator", lag=1)], [])
    dm = build_design(p, spec)
    lag_col = dm.features[:, 0].toarray().ravel()
    responses_lag = lag_col[dm.responses[: dm.n_vertex_rows] == 1]
    assert np.all(responses_lag == 0)


def test_beach_shaped_vertex_rows(lag1_spec):
    rs = RiskSet([f"w{k}" for k in range(95)])
    snaps = [snap(t, [0, 1], [(0, 1)], 95) for t in range(1, 32) if t != 25]
    p = NetworkPanel(rs, snaps, gaps=[25])
    dm = build_design(p, lag1_spec)
    assert dm.n_vertex_rows == 28 * 95


def test_block_structure(tiny_panel, lag1_spec):
    dm = build_design(tiny_panel, lag1_spec)
    dense = dm.features.toarray()
    kv, nv = dm.n_vertex_terms, dm.n_vertex_rows
    assert np.all(dense[:nv, kv:] == 0)
    assert np.all(dense[nv:, :kv] == 0)
    # vertex responses are presence indicators, edge responses tie indicators
    tags = dm.tags
    for r in range(dm.n_rows):
        s = tiny_panel.at(int(tags.t[r]))
        i, j = int(tags.i[r]), int(tags.j[r])
        if tags.kind[r] == 0:
            assert j == -1
            assert dm.responses[r] == int(s.present[i])
        else:
            assert i < j
            assert s.present[i] and s.present[j]
            assert dm.responses[r] == int(oracles.has_edge(s, i, j))


def test_split_design_counts_and_deviance(tiny_panel, lag1_spec):
    dm = build_design(tiny_panel, lag1_spec)
    dv, de = oracles.split_design(dm)
    assert dv.n_rows + de.n_rows == dm.n_rows
    assert dv.n_cols + de.n_cols == dm.n_cols
    fit = fit_posterior_mode(dm)
    parts = block_summaries(dm, fit.coefficients)
    for part, sub in (("vertex", dv), ("edge", de)):
        assert parts[part]["columns"] == list(sub.column_names)
        assert parts[part]["n_obs"] == sub.n_rows
        assert parts[part]["bic"] == pytest.approx(
            parts[part]["deviance"] + sub.n_cols * np.log(sub.n_rows))
    assert parts["vertex"]["deviance"] + parts["edge"]["deviance"] == \
        pytest.approx(fit.deviance)


def test_split_empty_edge_part(tiny_panel):
    spec = ModelSpec([TermSpec("vertex", "intercept")], [])
    dm = build_design(tiny_panel, spec)
    dv, de = oracles.split_design(dm)
    assert de.n_rows == 0
    assert dv.n_rows == dm.n_rows
    assert set(block_summaries(dm, np.zeros(1))) == {"vertex"}


def test_determinism(tiny_panel, lag1_spec):
    a = build_design(tiny_panel, lag1_spec)
    b = build_design(tiny_panel, lag1_spec)
    assert np.array_equal(a.responses, b.responses)
    assert (a.features != b.features).nnz == 0
    assert np.array_equal(a.tags.t, b.tags.t)
    assert np.array_equal(a.tags.i, b.tags.i)
    assert np.array_equal(a.tags.j, b.tags.j)


def test_no_usable_transitions_raises():
    rs = RiskSet(["a"])
    p = NetworkPanel(rs, [snap(1, [0], [], 1)])
    spec = ModelSpec([TermSpec("vertex", "lag_indicator", lag=1)], [])
    with pytest.raises(DesignError):
        build_design(p, spec)


def test_align_to_lag_drops_leading_steps(tiny_panel, lag1_spec):
    dm1 = build_design(tiny_panel, lag1_spec)
    dm2 = build_design(tiny_panel, lag1_spec, align_to_lag=2)
    assert set(np.unique(dm2.tags.t)) == {3}
    assert dm2.n_rows < dm1.n_rows


def test_k2_drops_two_leading_slots():
    rs = RiskSet(["a", "b"])
    p = NetworkPanel(rs, [snap(t, [0, 1], [(0, 1)], 2) for t in range(1, 6)])
    spec = ModelSpec([TermSpec("vertex", "lag_indicator", lag=2)], [])
    dm = build_design(p, spec)
    assert sorted(set(dm.tags.t)) == [3, 4, 5]


def test_bridge_policy_recovers_post_gap_step():
    rs = RiskSet(["a", "b", "c"])
    snaps = [snap(t, [0, 1, 2], [(0, 1)], 3) for t in (1, 2, 4, 5)]
    p = NetworkPanel(rs, snaps, gaps=[3])
    terms = [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)]
    excl = build_design(p, ModelSpec(terms, []))
    bridged = build_design(p, ModelSpec(terms, [], gap_policy="bridge"))
    assert sorted(set(excl.tags.t)) == [2, 5]
    assert sorted(set(bridged.tags.t)) == [2, 4, 5]
    # the bridged t=4 rows read the t=2 snapshot as their lag
    t4 = bridged.tags.t == 4
    lag_col = bridged.features[:, 1].toarray().ravel()
    assert np.all(lag_col[t4] == p.at(2).present[bridged.tags.i[t4]])


def test_sparsity_with_dummy_heavy_model():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, n=20, T=6, presence=0.6, density=0.2)
    labels = panel.risk_set.labels
    edge_terms = [TermSpec("edge", "individual_dummy", params={"label": lab})
                  for lab in labels]
    spec = ModelSpec([TermSpec("vertex", "intercept")], edge_terms)
    dm = build_design(panel, spec)
    dense_cells = dm.n_rows * dm.n_cols
    assert dm.features.nnz < 0.2 * dense_cells


def test_dump_design_round_readable(tmp_path, tiny_panel, lag1_spec):
    dm = build_design(tiny_panel, lag1_spec)
    trip = tmp_path / "d.txt"
    cols = tmp_path / "c.csv"
    tags = tmp_path / "t.csv"
    dump_design(dm, tiny_panel.risk_set, trip, cols, tags)
    triplets = [ln.split() for ln in trip.read_text().splitlines()[1:]]
    dense = np.zeros((dm.n_rows, dm.n_cols))
    for r, c, v in triplets:
        dense[int(r), int(c)] = float(v)
    assert np.allclose(dense, dm.features.toarray())
    assert cols.read_text().splitlines()[1] == "0,v:intercept"
    assert len(tags.read_text().splitlines()) == dm.n_rows + 1


# ---------------------------------------------------------------------------
# patterns assembled from endpoint classes and lagged ties
# ---------------------------------------------------------------------------

def assert_patterns_equal_rows(dm, panel, spec):
    """``dm.patterns`` equal the grouped rows expanded dyad by dyad as a
    multiset, and the counts known without rows agree with the rows."""
    pat = dm.patterns
    block = np.arange(len(pat.trials)) >= pat.n_vertex_patterns
    got = oracles.grouped_rows(block, pat.responses, pat.features, pat.trials)
    want = oracles.patterns_by_rows(dm, panel, spec)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.all(pat.trials > 0)
    assert dm.n_rows == len(dm.responses) == dm.features.shape[0]
    assert dm.n_vertex_rows == int(np.sum(dm.tags.kind == 0))
    assert dm.steps == tuple(np.unique(dm.tags.t).tolist())


def term_pools(labels, lags, max_len):
    """Vertex terms, edge terms of step or class scope and edge terms of lag
    scope, over attributes a and b and risk-set ``labels``; ``lags`` are
    the lags of the vertex lag indicator, the vertex triangle count and the
    edge cycle term."""
    vertex_pool = [TermSpec("vertex", "intercept"),
                   TermSpec("vertex", "attr_dummy", params={"attr": "a"}),
                   TermSpec("vertex", "lag_indicator", lag=lags[0]),
                   TermSpec("vertex", "lag_triangle", lag=lags[1]),
                   TermSpec("vertex", "seasonal", params={"day": "Tuesday"})]
    class_pool = (
        [TermSpec("edge", "intercept"), TermSpec("edge", "log_size"),
         TermSpec("edge", "seasonal", params={"day": "Wednesday"})]
        + [TermSpec("edge", "mixing", params={"attr": attr, "pair": pair})
           for attr in "ab" for pair in MIXING_PAIRS]
        + [TermSpec("edge", "individual_dummy", params={"label": label}) for label in labels])
    tie_pool = [TermSpec("edge", "lag_indicator", lag=1),
                TermSpec("edge", "lag_indicator", lag=2),
                TermSpec("edge", "lag_cycle_embed", lag=lags[2], params={"max_len": max_len})]
    return vertex_pool, class_pool, tie_pool


@st.composite
def panels_and_specs(draw):
    """Small panels with gaps, vertices absent on some steps and steps of 0,
    1 or 2 present vertices, and specs over every edge kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 10))
    slots = draw(st.integers(4, 7))
    gaps = set(draw(st.lists(st.integers(2, slots - 1), max_size=1)))
    attrs = {name: [rng.choice([True, False, None]) for _ in range(n)] for name in "ab"}
    for column in attrs.values():
        column[0] = True
    rs = RiskSet([f"v{k}" for k in range(n)], attrs)
    snaps = []
    for t in range(1, slots + 1):
        if t in gaps:
            continue
        size = draw(st.sampled_from([0, 1, 2, None]))
        if size is None:
            present = rng.random(n) < rng.uniform(0.3, 1.0)
        else:
            present = np.zeros(n, dtype=bool)
            present[rng.choice(n, min(size, n), replace=False)] = True
        idx = np.flatnonzero(present)
        ii, jj = np.triu_indices(len(idx), 1)
        keep = rng.random(len(ii)) < rng.uniform(0.1, 0.8)
        snaps.append(snap(t, present, (idx[ii[keep]], idx[jj[keep]]), n,
                          {"day": WEEKDAYS[t % 7]}))
    panel = NetworkPanel(rs, snaps, gaps=sorted(gaps))

    labels = [f"v{k}" for k in rng.choice(n, min(n, 3), replace=False)]
    vertex_pool, class_pool, tie_pool = term_pools(
        labels, draw(st.lists(st.integers(1, 2), min_size=3, max_size=3)),
        draw(st.integers(3, 5)))
    name = lambda term: term.name  # noqa: E731
    vertex_terms = draw(st.lists(st.sampled_from(vertex_pool), unique_by=name, max_size=3))
    edge_terms = draw(st.permutations(
        draw(st.lists(st.sampled_from(class_pool), unique_by=name, max_size=5))
        + draw(st.lists(st.sampled_from(tie_pool), unique_by=name, max_size=3))))
    if not vertex_terms + edge_terms:
        edge_terms = class_pool[:1]
    spec = ModelSpec(vertex_terms, edge_terms, gap_policy=draw(st.sampled_from(
        ["exclude", "bridge"])))
    return panel, spec, draw(st.sampled_from([None, 1, 3]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(panels_and_specs())
def test_panel_patterns_equal_grouped_rows(case):
    panel, spec, align = case
    try:
        dm = build_design(panel, spec, align_to_lag=align)
    except DesignError:
        event("no rows")
        return
    event(f"{'with' if dm.n_vertex_terms else 'no'} vertex terms, "
          f"{'with' if dm.n_cols > dm.n_vertex_terms else 'no'} edge terms")
    assert_patterns_equal_rows(dm, panel, spec)


def _workload_designs(workload):
    panel, specs = bench_workloads()._base_draw(workload)
    align = max(s.max_lag for s in specs.values()) if len(specs) > 1 else None
    for spec in specs.values():
        yield panel, spec, build_design(panel, spec, align_to_lag=align)


@pytest.mark.parametrize("workload", ["month", "cycles", "million"])
def test_workload_patterns_equal_grouped_rows(workload):
    for panel, spec, dm in _workload_designs(workload):
        assert_patterns_equal_rows(dm, panel, spec)


def _same_patterns(got, want):
    """Two (Patterns, pattern_of) pairs equal byte for byte."""
    (p, of), (q, of2) = got, want
    arrays = [(p.features.data, q.features.data), (p.features.indices, q.features.indices),
              (p.features.indptr, q.features.indptr), (p.responses, q.responses),
              (p.trials, q.trials), (of, of2)]
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in arrays)
    assert p.features.shape == q.features.shape
    assert p.n_vertex_patterns == q.n_vertex_patterns


def assert_collapse_equals_the_sparse_stack(panel, spec, align=None, negative_zero=False):
    """``build_design``'s patterns, keyed from its term columns, equal those
    of the block-diagonal CSR of the same columns; with ``negative_zero``,
    every zero the terms return is -0.0, which neither the key nor the CSR
    may tell from 0.0."""
    seen = {}

    def columns(v_columns, e_columns, n_vertex_rows):
        seen["columns"] = (v_columns, e_columns)
        return term_columns(v_columns, e_columns, n_vertex_rows)

    def collapse(columns, responses, n_vertex_rows, trials):
        seen["rows"] = (responses, n_vertex_rows, trials)
        seen["got"] = collapse_columns(columns, responses, n_vertex_rows, trials)
        return seen["got"]

    def signed(function):
        def wrapper(*args):
            values = function(*args)
            return np.where(values == 0, -0.0, values) if negative_zero else values
        return wrapper

    term_columns, collapse_columns = design._term_columns, design._collapse
    with mock.patch.object(design, "_term_columns", columns), \
            mock.patch.object(design, "_collapse", collapse), \
            mock.patch.object(design, "vertex_term_values", signed(vertex_term_values)), \
            mock.patch.object(design, "edge_term_values", signed(edge_term_values)):
        try:
            build_design(panel, spec, align_to_lag=align)
        except DesignError:
            return False
    if any(np.signbit(c).any() for block in seen["columns"] for c in block):
        event("a column holds -0.0")
    _same_patterns(seen["got"], oracles.patterns_by_sparse_stack(*seen["columns"],
                                                                 *seen["rows"]))
    return True


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(panels_and_specs(), st.booleans())
def test_term_columns_collapse_as_the_sparse_stack(case, negative_zero):
    """Every kind, lags 1 and 2, both gap policies and individual dummies:
    the same patterns and pattern of every weighted row, byte for byte."""
    panel, spec, align = case
    if not assert_collapse_equals_the_sparse_stack(panel, spec, align, negative_zero):
        event("no rows")


@pytest.mark.parametrize("workload", ["month", "cycles", "million"])
def test_workload_columns_collapse_as_the_sparse_stack(workload):
    panel, specs = bench_workloads()._base_draw(workload)
    align = max(s.max_lag for s in specs.values()) if len(specs) > 1 else None
    for spec in specs.values():
        assert assert_collapse_equals_the_sparse_stack(panel, spec, align)


def test_rows_collapse_as_the_csc_keys_them():
    """A design made from rows collapses its CSC's stored entries, stored
    zeros (0.0 and -0.0 alike) included, as the CSC keying did."""
    rng = np.random.default_rng(3)
    values = rng.choice([0.0, -0.0, 1.0, 2.5], size=(300, 4))
    stored = rng.random((300, 4)) < 0.7
    rows, cols = np.nonzero(stored)
    features = sp.csr_matrix((values[rows, cols], (rows, cols)), shape=(300, 4))
    responses = (rng.random(300) < 0.4).astype(np.int8)
    tags = design.TagTable(np.repeat([0, 1], [100, 200]), np.ones(300), np.arange(300),
                           np.full(300, -1))
    dm = design.DesignMatrix(responses, features, tags, ["a", "b", "c", "d"], 2, 100)
    want = oracles.patterns_by_csc(features, responses, 100, np.ones(300))
    _same_patterns(design._collapse(design._csc_columns(features), responses, 100,
                                    np.ones(300)), want)
    _same_patterns((dm.patterns, want[1]), want)


def test_build_design_reads_each_lag_window_once(monkeypatch):
    """A design resolves each step's lag snapshots and time attributes once,
    however many terms read them: ``History.snapshot_at`` runs a few times
    per step, not once per term and step."""
    panel, specs = bench_workloads()._base_draw("month")
    calls = []
    snapshot_at = History.snapshot_at
    monkeypatch.setattr(History, "snapshot_at",
                        lambda self, t: calls.append(t) or snapshot_at(self, t))
    align = max(spec.max_lag for spec in specs.values())
    for spec in specs.values():
        calls.clear()
        dm = build_design(panel, spec, align_to_lag=align)
        assert len(dm.steps) == 28
        assert len(calls) <= 5 * len(dm.steps), (spec, len(calls))


def assert_rows_equal_rows_by_dyad(dm, panel, spec):
    """``dm.rows()``, gathered from the design's patterns, equal the rows with every edge term evaluated on every dyad, byte for
    byte."""
    responses, features, tags = dm.rows()
    want = oracles.design_rows_by_dyad(panel, spec, dm.steps)
    got = [responses, features.indptr, features.indices, features.data,
           tags.kind, tags.t, tags.i, tags.j]
    for a, b in zip(got, [want[0], want[1].indptr, want[1].indices, want[1].data,
                          want[2].kind, want[2].t, want[2].i, want[2].j]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert features.shape == want[1].shape


def test_term_pools_cover_every_kind():
    pools = term_pools(["v0"], (1, 2, 1), 3)
    for target in ("vertex", "edge"):
        pooled = {term.kind for pool in pools for term in pool if term.target == target}
        assert pooled == {name for name, kind in KINDS.items() if target in kind.targets}
    assert {term.scope for term in pools[1]} == {"step", "class"}
    assert {term.scope for term in pools[2]} == {"lag"}


def _one_value_per(key, values):
    """Whether ``values`` take one value per distinct ``key``."""
    return len(np.unique(np.column_stack([key, values]), axis=0)) == len(np.unique(key))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(panels_and_specs())
def test_term_scopes_hold(case):
    """Every term is constant where its kind's scope says, on every usable
    step: a ``step`` term over the risk set (vertex) or the present dyads
    (edge), a ``class`` term within each class of its own params' classes
    (vertex) or pair of them (edge), and a ``lag`` term is 0 off the
    vertices or ties of the snapshot at its lag.  The spec's endpoint
    classes equal the oracle's, keyed by kind name."""
    panel, spec, _ = case
    rs = panel.risk_set
    n = len(rs)
    assert np.array_equal(_endpoint_classes(rs, spec.edge_terms),
                          oracles.endpoint_classes_by_kind(rs, spec.edge_terms))
    history = History(panel, spec.gap_policy)
    steps = usable_transitions(history, spec.max_lag)
    event(f"{'some' if steps else 'no'} usable steps")
    for t in steps:
        snap = panel.at(t)
        ii, jj = oracles.dyads(snap.present_indices)
        for term in spec.vertex_terms + spec.edge_terms:
            classes = _endpoint_classes(rs, [term])
            if term.target == "vertex":
                values, pair = vertex_term_values(term, history, t), classes
            elif len(ii):
                values = edge_term_values(term, history, t, ii, jj, snap.present)
                lo, hi = np.sort([classes[ii], classes[jj]], axis=0)
                pair = lo * n + hi
            else:
                continue
            if term.scope == "step":
                assert len(np.unique(values)) == 1, (t, term)
            elif term.scope == "class":
                assert _one_value_per(pair, values), (t, term)
            else:
                lagged = history.snapshot_at(resolve_lag(history, t, term.lag))
                on = (lagged.present if term.target == "vertex"
                      else np.isin(ii * n + jj, lagged.codes))
                assert np.all(values[~on] == 0), (t, term)


def _fresh(panel):
    """``panel`` with new snapshots, so no cycle memo or work total is shared."""
    n = len(panel.risk_set)
    return NetworkPanel(panel.risk_set, [
        Snapshot(s.t, s.present, np.divmod(s.codes, n), s.time_attrs, n=n)
        for s in panel.snapshots], gaps=panel.gaps)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(panels_and_specs(), st.integers(3, 5), st.randoms(use_true_random=False))
def test_block_form_equals_the_per_step_calls(case, max_len, rnd):
    """Every kind of ``KINDS``, on both targets and at lags 1 and 2, takes
    the same values, byte for byte, with the steps side by side as blocks
    of n (one call) as from one call per step, concatenated; the dyads of
    every step go in shuffled, and steps of 0, 1 or 2 present vertices are
    blocks too."""
    panel, spec, _ = case
    rs = panel.risk_set
    n = len(rs)
    labels = rs.labels[:2]
    terms = {term.name + term.target: term for lags in ((1, 1, 1), (2, 2, 2))
             for pool in term_pools(labels, lags, max_len) for term in pool}
    for target in ("vertex", "edge"):
        assert {t.kind for t in terms.values() if t.target == target} == {
            name for name, kind in KINDS.items() if target in kind.targets}
    history = History(panel, spec.gap_policy)
    steps = usable_transitions(history, 2)
    event(f"{len(steps)} usable steps at lag 2")
    if not steps:
        return
    pairs = [oracles.dyads(panel.at(t).present_indices) for t in steps]
    ii = np.concatenate([s * n + i for s, (i, _) in enumerate(pairs)])
    jj = np.concatenate([s * n + j for s, (_, j) in enumerate(pairs)])
    order = np.array(rnd.sample(range(len(ii)), len(ii)), dtype=np.int64)
    ii, jj = ii[order], jj[order]
    present = np.concatenate([panel.at(t).present for t in steps])
    fresh = History(_fresh(panel), spec.gap_policy)
    for term in terms.values():
        if term.target == "vertex":
            got = vertex_term_values(term, history, steps)
            want = np.concatenate([vertex_term_values(term, fresh, t) for t in steps])
        else:
            got = edge_term_values(term, history, steps, ii, jj, present)
            want = np.concatenate([
                edge_term_values(term, fresh, t, i, j, panel.at(t).present)
                for t, (i, j) in zip(steps, pairs)])[order]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), term


def test_build_design_evaluates_each_term_once(monkeypatch):
    """``build_design`` calls each term function once per term over all
    steps, never once per step, through the names the benchmark's tracer
    rebinds."""
    panel, specs = bench_workloads()._base_draw("month")
    calls = []

    def counting(original):
        def wrapper(term, *args):
            calls.append(term)
            return original(term, *args)
        return wrapper

    for name in ("vertex_term_values", "edge_term_values"):
        monkeypatch.setattr(design, name, counting(getattr(design, name)))
    align = max(spec.max_lag for spec in specs.values())
    for spec in specs.values():
        calls.clear()
        dm = build_design(panel, spec, align_to_lag=align)
        assert len(dm.steps) > 1
        assert calls == list(spec.vertex_terms + spec.edge_terms)


def test_a_step_without_a_seasonal_key_names_that_step():
    """A usable step whose time attributes lack a seasonal term's key is a
    SpecError naming that step, for vertex and edge terms alike."""
    rs = RiskSet([f"v{k}" for k in range(4)])
    days = {1: "Monday", 2: "Tuesday", 4: "Thursday"}
    panel = NetworkPanel(rs, [snap(t, [0, 1, 2], [(0, 1)], 4, {"day": days[t]} if t in days
                                   else {"weather": "rain"}) for t in range(1, 5)])
    for spec in (ModelSpec([TermSpec("vertex", "seasonal", params={"day": "Monday"})], []),
                 ModelSpec([], [TermSpec("edge", "seasonal", params={"day": "Monday"})])):
        with pytest.raises(SpecError) as err:
            build_design(panel, spec)
        assert str(err.value) == "snapshot t=3 lacks time attribute 'day'"


@st.composite
def dyad_layouts(draw):
    """(present, classes, blocks, lagged): 1 to 4 vertex sets of 0 to 8
    present vertices among n <= 8 over up to 4 classes, laid out as
    ``blocks`` blocks (one per set, or one set that every block shares),
    and lagged codes i * (blocks * n) + j of random dyads, some of them
    with an absent endpoint."""
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    blocks = rows if rows > 1 else draw(st.integers(1, 4))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    present = np.array(draw(st.lists(bits, min_size=rows, max_size=rows)), dtype=bool)
    classes = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    pairs = [(s * n + i, s * n + j) for s in range(blocks) for i in range(n)
             for j in range(i + 1, n)]
    tied = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    lagged = np.unique(np.array([i * (blocks * n) + j for i, j in tied], dtype=np.int64))
    return present, classes, blocks, lagged


@settings(max_examples=300, deadline=None)
@given(dyad_layouts(), st.data())
def test_dyad_layout_equals_brute_force(case, data):
    """The dyad layout of design and simulation numbers every dyad of its
    blocks by position, in the row-major order of ``oracles.dyads``; its
    position of a dyad and its code at a position invert each other; the
    lagged ties among present vertices are where ``oracles.dyad_rows_by_class``
    finds them; every other dyad's class pair is that oracle's (block,
    class, class) key; and each class pair's representative is one of its
    own dyads, as many as ``sizes`` says."""
    present, classes, blocks, lagged = case
    rows, n = present.shape
    layout = design._DyadLayout(present, classes)
    block_bits = present[np.arange(blocks) % rows]
    ii, jj = oracles.dyads(np.flatnonzero(block_bits), block_bits.sum(axis=1))
    width = blocks * n
    keys = ii * n + jj % n  # (s * n + i) * n + j

    # position <-> dyad, over all blocks and over a union of some of them
    positions, pair = layout.position(keys), layout.pair_of(keys)
    assert np.array_equal(positions, np.arange(len(ii)))
    assert np.array_equal(layout.kept(np.ones(len(ii), dtype=bool), 0, blocks),
                          ii * width + jj)
    lo = data.draw(st.integers(0, blocks - 1))
    hi = data.draw(st.integers(lo + 1, blocks))
    first, span = layout.first(lo), slice(*np.searchsorted(ii, [lo * n, hi * n]).tolist())
    assert first == span.start
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=span.stop - first,
                                       max_size=span.stop - first)), dtype=bool)
    assert np.array_equal(layout.kept(keep, lo, hi),
                          ((ii[span] - lo * n) * ((hi - lo) * n) + jj[span] - lo * n)[keep])

    # the lagged ties among present vertices
    i, j = np.divmod(lagged, width)
    ties = i * n + j % n
    flat = block_bits.ravel()
    assert np.array_equal(layout.among(ties), flat[i] & flat[j])
    _, of = oracles.dyad_rows_by_class(ii, jj, classes, blocks, lagged)
    tie = np.isin(ii * width + jj, lagged)
    assert np.array_equal(layout.position(ties[layout.among(ties)]), np.flatnonzero(tie))
    assert np.array_equal(of[tie], np.arange(np.count_nonzero(tie)))

    # every dyad's class pair, keyed by block for blocks that share a row
    pairs = len(layout.sizes)
    assert np.array_equal(np.ravel(layout.gather(np.arange(pairs), 0, blocks)), pair)
    assert np.array_equal(np.ravel(layout.gather(np.arange(pairs), lo, hi)), pair[span])
    key = ii // n * pairs + pair
    assert np.array_equal(np.unique(key[~tie], return_inverse=True)[1],
                          of[~tie] - np.count_nonzero(tie))

    # each representative is a dyad of its set and class pair, and the
    # class pairs are numbered in ascending (set, class, class)
    ri, rj = layout.reps
    rep_keys = ri * n + rj % n
    assert np.all(ri < rj) and np.all(ri // n == rj // n) and np.all(ri // n < rows)
    assert np.array_equal(layout.pair_of(rep_keys), np.arange(pairs))
    row_pairs = ii < rows * n  # the dyads of the first period, one block per set
    assert np.array_equal(np.bincount(pair[row_pairs], minlength=pairs), layout.sizes)
    a, b = np.sort([classes[ri % n], classes[rj % n]], axis=0)
    cls = (ri // n * 4 + a) * 4 + b
    assert np.all(np.diff(cls) > 0)
    di, dj = np.sort([classes[ii % n], classes[jj % n]], axis=0)
    assert np.array_equal(cls[pair], (ii // n % rows * 4 + di) * 4 + dj)


@pytest.mark.parametrize("workload", ["month", "cycles", "million"])
def test_workload_classes_equal_the_oracle(workload):
    panel, specs = bench_workloads()._base_draw(workload)
    for spec in specs.values():
        assert np.array_equal(
            _endpoint_classes(panel.risk_set, spec.edge_terms),
            oracles.endpoint_classes_by_kind(panel.risk_set, spec.edge_terms))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(panels_and_specs())
def test_panel_rows_equal_rows_by_dyad(case):
    panel, spec, align = case
    try:
        dm = build_design(panel, spec, align_to_lag=align)
    except DesignError:
        return
    assert_rows_equal_rows_by_dyad(dm, panel, spec)


@pytest.mark.parametrize("workload", ["month", "cycles", "million"])
def test_workload_rows_equal_rows_by_dyad(workload):
    for panel, spec, dm in _workload_designs(workload):
        assert_rows_equal_rows_by_dyad(dm, panel, spec)


def assert_dump_equals_the_row_writer(dm, risk_set, tmp_path):
    """``dump_design`` writes the bytes of the row-at-a-time writer."""
    names = ("design.txt", "columns.csv", "tags.csv")
    dump_design(dm, risk_set, *(tmp_path / f"got_{name}" for name in names))
    oracles.dump_design_by_rows(dm, risk_set, *(tmp_path / f"want_{name}" for name in names))
    for name in names:
        assert (tmp_path / f"got_{name}").read_bytes() == (tmp_path / f"want_{name}").read_bytes()


def _no_terms(*args):
    raise AssertionError("a term evaluated after the design was built")


@pytest.mark.parametrize("workload", ["month", "million"])
def test_workload_dump_equals_the_row_writer(workload, tmp_path, monkeypatch):
    """Rows and the dump are gathered from the patterns: once the design is
    built, neither evaluates a term."""
    designs = list(_workload_designs(workload))
    monkeypatch.setattr(design, "edge_term_values", _no_terms)
    monkeypatch.setattr(design, "vertex_term_values", _no_terms)
    for panel, _, dm in designs:
        assert_dump_equals_the_row_writer(dm, panel.risk_set, tmp_path)


# labels that a CSV field must quote
_csv_labels = st.text(st.sampled_from('v,"\n\r x'), min_size=1, max_size=3)


@st.composite
def relabeled_panels_and_specs(draw):
    """``panels_and_specs`` with labels that need quoting in a CSV file."""
    panel, spec, align = draw(panels_and_specs())
    rs = panel.risk_set
    labels = draw(st.lists(_csv_labels, min_size=len(rs), max_size=len(rs), unique=True))
    new = dict(zip(rs.labels, labels))

    def relabel(term):
        if "label" not in term.params:
            return term
        return TermSpec(term.target, term.kind, term.lag,
                        {**term.params, "label": new[term.params["label"]]})

    panel = NetworkPanel(RiskSet(labels, rs.attrs), panel.snapshots, gaps=panel.gaps)
    spec = ModelSpec([relabel(t) for t in spec.vertex_terms],
                     [relabel(t) for t in spec.edge_terms], gap_policy=spec.gap_policy)
    return panel, spec, align


@settings(max_examples=100, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(relabeled_panels_and_specs())
def test_panel_dump_equals_the_row_writer(tmp_path, case):
    panel, spec, align = case
    try:
        dm = build_design(panel, spec, align_to_lag=align)
    except DesignError:
        return
    assert_dump_equals_the_row_writer(dm, panel.risk_set, tmp_path)
    with open(tmp_path / "got_columns.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["col", "name"]] + [
            [str(c), name] for c, name in enumerate(dm.column_names)]
    with open(tmp_path / "got_tags.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    labels = panel.risk_set.labels
    assert [(row[3], row[4]) for row in rows] == [
        (labels[i], labels[j] if j >= 0 else "") for i, j in zip(dm.tags.i, dm.tags.j)]


def _no_rows(*args):
    raise AssertionError("design rows expanded")


def test_fit_never_expands_rows(tmp_path, monkeypatch):
    panel, specs = bench_workloads()._base_draw("month")
    save_panel(panel, tmp_path / "panel.json")
    paths = []
    for stem, spec in specs.items():
        paths.append(str(tmp_path / f"{stem}.json"))
        save_model_spec(spec, paths[-1])
    monkeypatch.setattr(design._RowLayout, "expand", _no_rows)
    assert cli.main(["fit", str(tmp_path / "panel.json"), *paths,
                     "--out-dir", str(tmp_path / "out")]) == 0


def test_row_budget_refuses_only_the_row_dump(tmp_path, tiny_panel, lag1_spec,
                                              monkeypatch, capsys):
    save_panel(tiny_panel, tmp_path / "panel.json")
    save_model_spec(lag1_spec, tmp_path / "spec.json")
    argv = ["fit", str(tmp_path / "panel.json"), str(tmp_path / "spec.json"),
            "--out-dir", str(tmp_path / "out")]
    report = tmp_path / "out" / "spec_fit.json"
    assert cli.main(argv) == 0
    expected = report.read_bytes()
    report.unlink()
    rows = build_design(tiny_panel, lag1_spec).n_rows

    monkeypatch.setattr(design, "ROW_BUDGET", rows - 1)
    capsys.readouterr()
    assert cli.main(argv + ["--dump-design"]) == 3
    err = capsys.readouterr().err
    assert f"{rows:,} rows" in err and "fit does not need them" in err
    assert not report.exists()
    assert cli.main(argv) == 0
    assert report.read_bytes() == expected

    monkeypatch.setattr(design, "ROW_BUDGET", rows)
    assert cli.main(argv + ["--dump-design"]) == 0
    assert (tmp_path / "out" / "spec_design.txt").exists()


def test_row_budget_stays_far_above_the_million_workload():
    assert design.ROW_BUDGET >= 5 * 1_127_027


def test_sparse_panel_fits_without_rows(monkeypatch):
    """About 3.3M dyad rows: built through rows, the design and its fit
    peak at about 500 MB under tracemalloc; the patterns take a few MB."""
    rng = np.random.default_rng(3)
    n = 1500
    snaps = []
    for t in range(1, 5):
        present = rng.random(n) < 0.99
        idx = np.flatnonzero(present)
        a, b = rng.choice(idx, 3 * len(idx)), rng.choice(idx, 3 * len(idx))
        edges = np.unique(np.sort(np.column_stack([a, b])[a != b], axis=1), axis=0)
        snaps.append(snap(t, present, edges, n))
    panel = NetworkPanel(RiskSet([f"v{k}" for k in range(n)]), snaps)
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1),
         TermSpec("edge", "log_size")])
    monkeypatch.setattr(design._RowLayout, "expand", _no_rows)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        dm = build_design(panel, spec)
        fit = fit_posterior_mode(dm)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.n_rows - dm.n_vertex_rows > 3_200_000
    assert fit.converged
    assert seconds < 3.0
    assert peak < 24e6, peak
