import numpy as np
import pytest

from dynetlogit import (
    DesignError,
    ModelSpec,
    NetworkPanel,
    RiskSet,
    Snapshot,
    TermSpec,
    block_summaries,
    build_design,
    fit_posterior_mode,
    split_design,
)
from dynetlogit.design import dump_design

from conftest import random_panel


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
        tag = tags.row(r)
        s = tiny_panel.at(tag.t)
        if tag.kind == "vertex":
            assert dm.responses[r] == int(s.present[tag.i])
        else:
            assert tag.i < tag.j
            assert s.present[tag.i] and s.present[tag.j]
            assert dm.responses[r] == int(s.has_edge(tag.i, tag.j))


def test_split_design_counts_and_deviance(tiny_panel, lag1_spec):
    dm = build_design(tiny_panel, lag1_spec)
    dv, de = split_design(dm)
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
    dv, de = split_design(dm)
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
    spec = ModelSpec([TermSpec("vertex", "intercept"),
                      TermSpec("vertex", "lag_indicator", lag=1)], [])
    excl = build_design(p, spec)
    bridged = build_design(p, spec, gap_policy="bridge")
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
