import math
import time
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynetlogit import (
    GapError,
    ModelSpec,
    NetworkPanel,
    RiskSet,
    Snapshot,
    SpecError,
    TermSpec,
    disjoint_union,
    pair_cycle_count,
    seasonal_terms,
    triad_census,
    validate_model,
)
import dynetlogit.terms as terms
from dynetlogit.terms import (
    History,
    pair_cycle_counts,
    resolve_lag,
    triangle_counts,
    usable_transitions,
)

import oracles
from oracles import edge_stat, triangle_count, vertex_stat


def snap(t, present, edges, n, attrs=None):
    return Snapshot(t, present, edges, attrs or {}, n=n)


def complete(t, members, n, attrs=None):
    edges = [(a, b) for k, a in enumerate(members) for b in members[k + 1:]]
    return snap(t, members, edges, n, attrs)


# --- term spec validation -----------------------------------------------------


def test_lagged_kind_needs_lag():
    with pytest.raises(SpecError):
        TermSpec("vertex", "lag_indicator")
    with pytest.raises(SpecError):
        TermSpec("edge", "lag_indicator", lag=0)


def test_unlagged_kind_rejects_lag():
    with pytest.raises(SpecError):
        TermSpec("edge", "log_size", lag=1)


def test_cycle_len_range():
    with pytest.raises(SpecError):
        TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 2})
    with pytest.raises(SpecError):
        TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 10})


def test_kind_target_compatibility():
    with pytest.raises(SpecError):
        TermSpec("vertex", "log_size")
    with pytest.raises(SpecError):
        TermSpec("edge", "lag_triangle", lag=1)


def test_params_are_the_declared_ones():
    # a misspelt optional param would otherwise fall back to its default
    with pytest.raises(SpecError, match="seasonal term does not take params.kye"):
        TermSpec("vertex", "seasonal", params={"day": "Tuesday", "kye": "weekday"})
    with pytest.raises(SpecError, match="intercept term does not take params.attr"):
        TermSpec("edge", "intercept", params={"attr": "nosuch"})
    with pytest.raises(SpecError, match="mixing term requires params.pair"):
        TermSpec("edge", "mixing", params={"attr": "a"})
    with pytest.raises(SpecError, match="individual_dummy term requires params.label"):
        TermSpec("edge", "individual_dummy", params={"label": ""})
    day = TermSpec("edge", "seasonal", params={"day": "Friday"})
    assert day.params == {"day": "Friday", "key": "day"} and day.name == "day_Friday"
    assert TermSpec("edge", "lag_cycle_embed", lag=2).name == "cycles9_lag2"


def test_seasonal_terms_helper():
    terms = seasonal_terms("vertex")
    assert len(terms) == 6
    assert all(t.params["day"] != "Monday" for t in terms)
    assert seasonal_terms("edge", reference="Sunday")[0].params["day"] == "Monday"


# --- vertex statistics ---------------------------------------------------------


def test_lag_indicator_vertex(tiny_panel):
    term = TermSpec("vertex", "lag_indicator", lag=1)
    # vertex c (idx 2) present at t=1, absent at t=2
    assert vertex_stat(term, tiny_panel, 2, 2) == 1.0
    assert vertex_stat(term, tiny_panel, 3, 2) == 0.0


def test_lag_triangle_k4():
    rs = RiskSet(["a", "b", "c", "d", "e"])
    k4 = complete(1, [0, 1, 2, 3], 5)
    p = NetworkPanel(rs, [k4, snap(2, [0, 1], [], 5)])
    term = TermSpec("vertex", "lag_triangle", lag=1)
    for v in range(4):
        expected = oracles.triangles_at_vertex_by_enumeration([0, 1, 2, 3],
                                                              k4.edges, v)
        assert expected == 3
        assert vertex_stat(term, p, 2, v) == 3.0
    assert vertex_stat(term, p, 2, 4) == 0.0  # absent vertex has no triangles


def test_lag_triangle_odds_interpretation():
    # a coefficient of 0.3452 per triangle raises the odds by over 40 percent
    assert math.exp(0.3452) == pytest.approx(1.412, abs=5e-4)
    assert math.exp(0.3452) > 1.40


def test_intercept_attr_seasonal(tiny_panel):
    assert vertex_stat(TermSpec("vertex", "intercept"), tiny_panel, 2, 0) == 1.0
    reg = TermSpec("vertex", "attr_dummy", params={"attr": "regular"})
    assert vertex_stat(reg, tiny_panel, 2, 0) == 1.0
    assert vertex_stat(reg, tiny_panel, 2, 3) == 0.0
    tue = TermSpec("vertex", "seasonal", params={"day": "Tuesday"})
    assert vertex_stat(tue, tiny_panel, 2, 0) == 1.0
    assert vertex_stat(tue, tiny_panel, 3, 0) == 0.0


def test_unknown_attr_is_spec_error(tiny_panel):
    term = TermSpec("vertex", "attr_dummy", params={"attr": "nope"})
    with pytest.raises(SpecError):
        vertex_stat(term, tiny_panel, 2, 0)


# --- triangle and cycle counts -------------------------------------------------


def test_triangle_count_examples():
    assert triangle_count(snap(1, [0, 1, 2], [], 3), 0) == 0
    k3 = complete(1, [0, 1, 2], 3)
    assert triangle_count(k3, 0) == 1
    k5 = complete(1, [0, 1, 2, 3, 4], 5)
    assert triangle_count(k5, 2) == 6  # C(4,2)
    assert oracles.triangles_at_vertex_by_enumeration(list(range(5)), k5.edges, 2) == 6


def test_triangle_counts_vector_matches_scalar():
    # the scalar is the vector's batch of one, so both answer to the oracle
    rng = np.random.default_rng(3)
    for _ in range(25):
        edges = oracles.random_edge_set(rng, 7, 0.5)
        s = snap(1, list(range(7)), edges, 7)
        vec = triangle_counts(s)
        for v in range(7):
            expected = oracles.triangles_at_vertex_by_enumeration(range(7), edges, v)
            assert vec[v] == expected
            assert triangle_count(s, v) == expected


def test_triangle_counts_in_blocks_agree(monkeypatch):
    rng = np.random.default_rng(5)
    n = 40
    edges = oracles.random_edge_set(rng, n, 0.3)
    s = snap(1, list(range(n)), edges, n)
    whole = triangle_counts(s)
    monkeypatch.setattr(terms, "BITSET_BLOCK", 1)  # one edge per block
    assert np.array_equal(triangle_counts(snap(1, list(range(n)), edges, n)), whole)
    assert whole.tolist() == [oracles.triangles_at_vertex_by_enumeration(range(n), edges, v)
                              for v in range(n)]


def test_triangle_sum_equals_three_triangles():
    rng = np.random.default_rng(4)
    for _ in range(25):
        edges = oracles.random_edge_set(rng, 6, 0.5)
        s = snap(1, list(range(6)), edges, 6)
        assert triangle_counts(s).sum() == 3 * triad_census(s)[0, 3]


def test_pair_cycle_count_c4():
    c4 = snap(1, [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)], 4)
    assert pair_cycle_count(c4, 0, 1, 9) == 1
    assert pair_cycle_count(c4, 0, 1, 3) == 0  # the square is too long


def test_pair_cycle_count_k4():
    k4 = complete(1, [0, 1, 2, 3], 4)
    assert pair_cycle_count(k4, 0, 1, 3) == 2
    assert pair_cycle_count(k4, 0, 1, 9) == 4  # 2 triangles + 2 squares


def test_pair_cycle_count_no_path():
    s = snap(1, [0, 1, 2], [(0, 1)], 3)
    assert pair_cycle_count(s, 0, 2, 9) == 0
    assert pair_cycle_count(s, 0, 1, 9) == 0  # edge on no cycle


def test_pair_cycle_count_matches_enumerator():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(3, 8))
        edges = oracles.random_edge_set(rng, n, 0.45)
        s = snap(1, list(range(n)), edges, n)
        max_len = int(rng.integers(3, 10))
        for i in range(n):
            for j in range(i + 1, n):
                assert pair_cycle_count(s, i, j, max_len) == \
                    oracles.cycles_through_edge_by_enumeration(edges, i, j, max_len)


def _edge_arrays(edges):
    return (np.array([a for a, _ in edges], dtype=np.int64),
            np.array([b for _, b in edges], dtype=np.int64))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_pair_cycle_counts_match_dfs_on_larger_graphs(seed):
    """Graphs beyond whole-graph enumeration, every max_len, against the DFS."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 71))
    edges = oracles.random_edge_set(rng, n, rng.uniform(3, 6) / (n - 1))
    s = snap(1, list(range(n)), edges, n)
    ii, jj = _edge_arrays(edges)
    sample = rng.choice(len(edges), size=min(6, len(edges)), replace=False)
    for max_len in range(3, 10):
        counts = pair_cycle_counts(s, ii, jj, max_len)
        for r in sample:
            assert counts[r] == oracles.cycles_through_edge_by_dfs(
                edges, int(ii[r]), int(jj[r]), max_len)


def test_pair_cycle_counts_batch_matches_single_pairs():
    rng = np.random.default_rng(21)
    n = 14
    edges = oracles.random_edge_set(rng, n, 0.35)
    s = snap(1, list(range(n)), edges, n)
    ii, jj = _edge_arrays(edges)
    non_edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if (a, b) not in set(edges)][:5]
    # duplicates, reversed orientation and non-adjacent pairs in one batch
    qi = np.concatenate([ii, jj, ii[:3], [a for a, _ in non_edges]])
    qj = np.concatenate([jj, ii, jj[:3], [b for _, b in non_edges]])
    for max_len in (3, 6, 9):
        batch = pair_cycle_counts(s, qi, qj, max_len)
        single = [pair_cycle_count(s, int(a), int(b), max_len) for a, b in zip(qi, qj)]
        assert batch.tolist() == single
        assert not batch[-len(non_edges):].any()
        assert np.array_equal(batch[:len(ii)], batch[len(ii):2 * len(ii)])


def test_pair_cycle_counts_split_batches_agree(monkeypatch):
    rng = np.random.default_rng(8)
    n = 40
    edges = oracles.random_edge_set(rng, n, 5 / (n - 1))
    s = snap(1, list(range(n)), edges, n)
    ii, jj = _edge_arrays(edges)
    whole = pair_cycle_counts(s, ii, jj, 9)
    monkeypatch.setattr(terms, "HALF_PATH_BUDGET", 3000)  # about 4 pairs per batch
    assert np.array_equal(pair_cycle_counts(s, ii, jj, 9), whole)
    assert whole.any()


def test_pair_cycle_counts_reject_bad_input():
    k4 = complete(1, [0, 1, 2, 3], 4)
    with pytest.raises(ValueError):
        pair_cycle_counts(k4, [0, 1], [1, 1], 9)
    for max_len in (2, 10):
        with pytest.raises(ValueError):
            pair_cycle_counts(k4, [0], [1], max_len)
    with pytest.raises(ValueError):
        pair_cycle_count(k4, 2, 2, 9)


def test_pair_cycle_counts_off_the_two_core():
    # triangles 0-1-2 and 3-4-5 joined by the bridge 2-3, and a pendant 5-6
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6)]
    s = snap(1, list(range(7)), edges, 7)
    ii, jj = _edge_arrays(edges)
    assert pair_cycle_counts(s, ii, jj, 9).tolist() == [1, 1, 1, 1, 1, 1, 0, 0]
    ids = terms._cycle_core(s)[0]
    assert ids[6] == -1 and (ids[:6] >= 0).all()  # the bridge is inside the 2-core


def test_pair_cycle_count_budget_refuses_one_dense_pair():
    n = 60
    s = complete(4, list(range(n)), n)
    with pytest.raises(terms.CycleBudgetError, match=r"t=4.*\|V_t\|=60.*\|E_t\|=1770"):
        pair_cycle_count(s, 0, 1, 9)
    assert pair_cycle_count(s, 0, 1, 4) == 58 + 58 * 57  # triangles and squares


def test_cycle_work_budget_refuses_many_affordable_pairs():
    """Every edge of K18 is well inside the per-edge budget, but all 153 of
    them together grow more half-paths than one draw may: the call stops
    after a few seconds instead of counting for minutes.  The budget holds
    the draw's running total over calls, to which a refused call adds
    nothing."""
    n = 18
    s = complete(5, list(range(n)), n)
    held = terms._half_path_counts(*terms._cycle_core(s)[1:3], np.array([0]),
                                   np.array([1]), 9)[1][0]
    assert held < terms.HALF_PATH_BUDGET < terms.CYCLE_WORK_BUDGET < held * s.edge_count
    ii, jj = np.divmod(s.codes, n)
    start = time.perf_counter()
    with pytest.raises(terms.CycleBudgetError,
                       match=r"t=5 \(\|V_t\|=18, \|E_t\|=153\): counting its 153 queried "
                             r"edges grew (\d+) half-paths, taking the draw's total to \1, "
                             r"over the work budget of 10000000 per draw"):
        pair_cycle_counts(s, ii, jj, 9)
    assert time.perf_counter() - start < 30
    assert s._cycle_work is None  # a refused call adds nothing
    assert pair_cycle_counts(s, ii[:40], jj[:40], 9).tolist() == [63994816] * 40
    assert s._cycle_work.tolist() == [40 * held]
    # 42 more ties would pass on their own, but not on top of the draw's
    # total, which only the last of them takes over the budget: the message
    # names the call's share and the draw's total apart, and the refusal
    # leaves the total as it was
    assert 42 * held < terms.CYCLE_WORK_BUDGET
    assert 81 * held < terms.CYCLE_WORK_BUDGET < 82 * held
    with pytest.raises(terms.CycleBudgetError,
                       match=rf"counting its 42 queried edges grew {42 * int(held)} half-paths, "
                             rf"taking the draw's total to {82 * int(held)}, over the work "
                             r"budget of 10000000 per draw"):
        pair_cycle_counts(s, ii[40:82], jj[40:82], 9)
    assert s._cycle_work.tolist() == [40 * held]


def _random_union(rng, sizes):
    """Random snapshots over one risk set of max(sizes) vertices, with about
    sizes[d] of them present in draw d, and their disjoint union."""
    n = max(sizes)
    snaps = []
    for d, k in enumerate(sizes):
        members = sorted(rng.choice(n, size=k, replace=False).tolist())
        edges = [(members[a], members[b]) for a in range(k) for b in range(a + 1, k)
                 if rng.random() < 5 / max(k - 1, 1)]
        snaps.append(snap(3, members, edges, n))
    return snaps, disjoint_union(snaps)


@pytest.mark.parametrize("budget", [None, 3000], ids=["whole", "split"])
def test_pair_cycle_counts_on_a_union_are_per_draw_counts(monkeypatch, budget):
    """Counting every edge of a union at once gives each draw's counts on its
    own, in batches that mix draws too."""
    if budget:
        monkeypatch.setattr(terms, "HALF_PATH_BUDGET", budget)
    rng = np.random.default_rng(5)
    snaps, union = _random_union(rng, [30, 12, 3, 40, 25])
    n = len(snaps[0].present)
    ii, jj = np.divmod(union.codes, len(union.present))
    for max_len in (4, 9):
        expected = np.concatenate([
            pair_cycle_counts(s, *np.divmod(s.codes, n), max_len) for s in snaps])
        assert expected.any()
        assert np.array_equal(pair_cycle_counts(union, ii, jj, max_len), expected)


def test_cycle_work_budget_applies_per_draw(monkeypatch):
    """Three K10 draws of a union each grow fewer half-paths than one draw
    may, all of them together more: the union passes with each draw's own
    counts.  An over-budget draw is named with its own sizes."""
    n = 12
    k10, k11 = complete(5, list(range(10)), n), complete(5, list(range(11)), n)
    sparse = snap(5, range(6), [(0, 1), (1, 2), (0, 2)], n)
    ii, jj = np.divmod(k10.codes, n)
    work = terms._half_path_counts(*terms._cycle_core(k10)[1:3], ii, jj, 9)[1].sum()
    monkeypatch.setattr(terms, "CYCLE_WORK_BUDGET", int(1.2 * work))
    alone = pair_cycle_counts(k10, ii, jj, 9)
    union = disjoint_union([k10, sparse, k10, k10])
    ui, uj = np.divmod(union.codes, len(union.present))
    assert np.array_equal(pair_cycle_counts(union, ui, uj, 9),
                          np.concatenate([alone, [1, 1, 1], alone, alone]))

    mixed = disjoint_union([sparse, k11, sparse])
    ui, uj = np.divmod(mixed.codes, len(mixed.present))
    with pytest.raises(terms.CycleBudgetError,
                       match=r"t=5 \(\|V_t\|=11, \|E_t\|=55\): counting its 55 queried "
                             r"edges grew (\d+) half-paths, taking the draw's total to \1, "
                             rf"over the work budget of {int(1.2 * work)} per draw"):
        pair_cycle_counts(mixed, ui, uj, 9)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       density=st.floats(0.2, 1.0), max_len=st.sampled_from([3, 5, 9]),
       seed=st.integers(0, 2**32 - 1), cuts=st.lists(st.integers(0, 200), max_size=4),
       batch=st.sampled_from([None, 5000]))
def test_cycle_work_does_not_depend_on_how_ties_are_counted(sizes, density, max_len,
                                                            seed, cuts, batch):
    """Counting the ties of a union in one call, or in any split and order
    of calls, gives the same counts and the same per-draw running total;
    so does counting each draw on its own snapshot."""
    rng = np.random.default_rng(seed)
    n = max(sizes)
    snaps = []
    for k in sizes:
        members = sorted(rng.choice(n, size=k, replace=False).tolist())
        snaps.append(snap(3, members, [(a, b) for a, b in combinations(members, 2)
                                       if rng.random() < density], n))
    whole, split = disjoint_union(snaps), disjoint_union(snaps)
    ii, jj = np.divmod(whole.codes, len(whole.present))
    order = rng.permutation(len(ii))
    parts = np.split(order, sorted({c % (len(ii) + 1) for c in cuts}))
    # a batch of 5000 rows splits, but holds any one pair: 4160 rows in K9
    with mock.patch.object(terms, "HALF_PATH_BUDGET", batch or terms.HALF_PATH_BUDGET):
        expected = pair_cycle_counts(whole, ii, jj, max_len)
        counts = np.zeros_like(expected)
        for rows in parts:
            counts[rows] = pair_cycle_counts(split, ii[rows], jj[rows], max_len)
        alone = [pair_cycle_counts(s, *np.divmod(s.codes, n), max_len) for s in snaps]
    assert np.array_equal(counts, expected)
    assert np.array_equal(np.concatenate(alone), expected)
    totals = [0.0 if s._cycle_work is None else s._cycle_work[0] for s in snaps]
    if whole._cycle_work is None:  # no tie on a 2-core
        assert split._cycle_work is None and not any(totals)
    else:
        assert np.array_equal(split._cycle_work, whole._cycle_work)
        assert whole._cycle_work.tolist() == totals


def test_cycle_key_space_is_per_draw():
    """Keys number vertices within their draw: three draws of a 20,000-vertex
    cycle are counted, where keys over the union's 60,000 core vertices
    would overflow for even one pair."""
    n = 20_000
    ring = snap(1, range(n), [(k, (k + 1) % n) for k in range(n)], n)
    union = disjoint_union([ring] * 3)
    assert 60_000 * 60_001**3 >= 2**63 > n * (n + 1)**3
    ii = np.arange(3) * n
    assert pair_cycle_counts(union, ii, ii + 1, 9).tolist() == [0, 0, 0]


def _block_and_periphery(rng, k, density, m, chords):
    """Edges of a dense block on vertices 0..k-1 and a sparse periphery of m
    more: each periphery vertex joins a random earlier vertex, and
    ``chords`` random edges close cycles through both parts."""
    n = k + m
    edges = {(a, b) for a, b in combinations(range(k), 2) if rng.random() < density}
    edges |= {(int(rng.integers(0, v)), v) for v in range(k, n)}
    edges |= {tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
              for _ in range(chords)}
    return sorted(edges), n


class _RouteLog:
    """The levels whose halves a cycle count joins directly (their interior
    bit sets are built) and by inclusion-exclusion (their subset keys are)."""

    def __init__(self, monkeypatch):
        self.direct, self.keyed = set(), set()
        bits, keys = terms._Halves.bits, terms._Halves.keys

        def logged_bits(halves):
            self.direct.add(len(halves.cols))
            return bits(halves)

        def logged_keys(halves, *args):
            self.keyed.add(len(halves.cols))
            return keys(halves, *args)

        monkeypatch.setattr(terms._Halves, "bits", logged_bits)
        monkeypatch.setattr(terms._Halves, "keys", logged_keys)


@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 4),
       block=st.integers(5, 8), density=st.floats(0.7, 1.0))
@settings(max_examples=12, deadline=None)
def test_pair_cycle_counts_match_dfs_across_join_routes(seed, draws, block, density):
    """A dense block joined to a sparse periphery, alone or as a union of
    draws, at every max_len: the block's halves meet in crowds, the
    periphery's in ones and twos, so one call can join some levels directly
    and others by inclusion-exclusion."""
    rng = np.random.default_rng(seed)
    graphs = [_block_and_periphery(rng, block, density, int(rng.integers(10, 30)),
                                   int(rng.integers(2, 10))) for _ in range(draws)]
    n = max(size for _, size in graphs)
    snaps = [snap(2, range(size), edges, n) for edges, size in graphs]
    union = disjoint_union(snaps)
    ii, jj = np.divmod(union.codes, len(union.present))
    draw = ii // n
    sample = rng.choice(len(ii), size=min(10, len(ii)), replace=False)
    for max_len in range(3, 10):
        counts = pair_cycle_counts(union, ii, jj, max_len)
        for r in sample:
            d = draw[r]
            assert counts[r] == oracles.cycles_through_edge_by_dfs(
                graphs[d][0], int(ii[r] - d * n), int(jj[r] - d * n), max_len)


def test_cycle_join_routes_agree(monkeypatch):
    """Counting every join by inclusion-exclusion, or every join directly,
    gives the counts of the default routing, which on K8 joined to a sparse
    periphery takes both routes in one call."""
    rng = np.random.default_rng(0)
    edges, n = _block_and_periphery(rng, 8, 1.0, 100, 40)
    single = snap(1, range(n), edges, n)
    union = disjoint_union([single, snap(1, range(n), edges[28:], n), single])
    for s in (single, union):
        ii, jj = np.divmod(s.codes, len(s.present))
        routes = _RouteLog(monkeypatch)
        default = pair_cycle_counts(s, ii, jj, 9)
        assert routes.direct and routes.keyed
        for ratio, route in ((0.0, "keyed"), (1e12, "direct")):
            monkeypatch.setattr(terms, "DIRECT_JOIN_RATIO", ratio)
            routes = _RouteLog(monkeypatch)
            assert np.array_equal(pair_cycle_counts(s, ii, jj, 9), default)
            other = routes.direct if route == "keyed" else routes.keyed
            assert getattr(routes, route) and not other
        monkeypatch.setattr(terms, "DIRECT_JOIN_RATIO", 1.0)
    periphery = [k for k, (a, b) in enumerate(edges) if a >= 8 and b >= 8]
    for k in periphery[:5]:
        assert default[k] == oracles.cycles_through_edge_by_dfs(edges, *edges[k], 9)


def test_dense_levels_go_to_inclusion_exclusion(monkeypatch):
    """On K10 and G(60, 0.2) the deep levels' halves meet in crowds and are
    joined by inclusion-exclusion; on a sparse ring with chords every level
    is joined directly."""
    k10 = complete(1, list(range(10)), 10)
    rng = np.random.default_rng(0)
    g60 = snap(1, range(60), oracles.random_edge_set(rng, 60, 0.2), 60)
    for s, ties in ((k10, 45), (g60, 4)):
        routes = _RouteLog(monkeypatch)
        pair_cycle_counts(s, *np.divmod(s.codes[:ties], len(s.present)), 9)
        assert {3, 4} <= routes.keyed
    ring = [(k, (k + 1) % 200) for k in range(200)] + [(k, k + 7) for k in range(0, 190, 5)]
    sparse = snap(1, range(200), ring, 200)
    routes = _RouteLog(monkeypatch)
    counts = pair_cycle_counts(sparse, *np.divmod(sparse.codes, 200), 9)
    assert counts.any() and routes.direct == {2, 3, 4} and not routes.keyed


# --- edge statistics -----------------------------------------------------------


def test_log_size_value(tiny_panel):
    term = TermSpec("edge", "log_size")
    val = edge_stat(term, tiny_panel, 2, 0, 1, tiny_panel.at(2).present)
    assert val == pytest.approx(math.log(3), abs=1e-12)
    assert val * 2.72 == pytest.approx(2.99, abs=0.005)


def test_mixing_classes(tiny_panel):
    both = TermSpec("edge", "mixing", params={"attr": "regular", "pair": "both"})
    neither = TermSpec("edge", "mixing", params={"attr": "regular", "pair": "neither"})
    mixed = TermSpec("edge", "mixing", params={"attr": "regular", "pair": "mixed"})
    bits = tiny_panel.at(3).present
    # a,b regular; c,d not
    assert edge_stat(both, tiny_panel, 3, 0, 1, bits) == 1.0
    assert edge_stat(neither, tiny_panel, 3, 2, 3, bits) == 1.0
    assert edge_stat(mixed, tiny_panel, 3, 0, 2, bits) == 1.0
    assert edge_stat(both, tiny_panel, 3, 0, 2, bits) == 0.0
    # the three classes partition every dyad
    for i in range(4):
        for j in range(i + 1, 4):
            total = sum(edge_stat(t, tiny_panel, 3, i, j, bits)
                        for t in (both, neither, mixed))
            assert total == 1.0


def test_individual_dummy(tiny_panel):
    term = TermSpec("edge", "individual_dummy", params={"label": "b"})
    bits = tiny_panel.at(3).present
    assert edge_stat(term, tiny_panel, 3, 0, 1, bits) == 1.0
    assert edge_stat(term, tiny_panel, 3, 0, 2, bits) == 0.0


def test_edge_lag_indicator(tiny_panel):
    term = TermSpec("edge", "lag_indicator", lag=1)
    bits = tiny_panel.at(2).present
    assert edge_stat(term, tiny_panel, 2, 0, 1, bits) == 1.0  # (a,b) in t=1
    assert edge_stat(term, tiny_panel, 2, 0, 3, bits) == 0.0


def test_cycle_embed_values():
    rs = RiskSet(["a", "b", "c", "d"])
    k3 = complete(1, [0, 1, 2], 4)
    k4 = complete(1, [0, 1, 2, 3], 4)
    now = complete(2, [0, 1, 2, 3], 4)
    term = TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 9})

    p3 = NetworkPanel(rs, [k3, now])
    assert edge_stat(term, p3, 2, 0, 1, now.present) == pytest.approx(math.log(2))

    p4 = NetworkPanel(rs, [k4, snap(2, [0, 1, 2, 3], [], 4)])
    val = edge_stat(term, p4, 2, 0, 1, np.ones(4, dtype=bool))
    assert val == pytest.approx(math.log(5))  # 2 triangles + 2 squares

    # pair without the lagged tie contributes zero regardless of structure
    p5 = NetworkPanel(rs, [snap(1, [0, 1, 2, 3], [(0, 2), (2, 1), (1, 3), (3, 0)], 4),
                           now])
    # (0,1) not an edge at t=1 even though 0 and 1 are connected
    assert edge_stat(term, p5, 2, 0, 1, now.present) == 0.0


def test_edge_stat_validates_dyad(tiny_panel):
    term = TermSpec("edge", "intercept")
    bits = tiny_panel.at(2).present
    with pytest.raises(ValueError):
        edge_stat(term, tiny_panel, 2, 1, 1, bits)
    with pytest.raises(ValueError):
        edge_stat(term, tiny_panel, 2, 0, 2, bits)  # c absent at t=2


# --- gap handling ---------------------------------------------------------------


def gap_panel():
    rs = RiskSet(["a", "b", "c"])
    snaps = [snap(t, [0, 1, 2], [(0, 1)], 3, {"day": "Monday"})
             for t in (1, 2, 4, 5)]
    return NetworkPanel(rs, snaps, gaps=[3])


def test_lag_across_gap_raises():
    p = gap_panel()
    term = TermSpec("vertex", "lag_indicator", lag=1)
    with pytest.raises(GapError):
        vertex_stat(term, p, 4, 0)
    assert vertex_stat(term, p, 5, 0) == 1.0


def test_bridge_policy_spans_gap():
    p = gap_panel()
    term = TermSpec("vertex", "lag_indicator", lag=1)
    assert vertex_stat(term, p, 4, 0, policy="bridge") == 1.0
    assert resolve_lag(History(p, "bridge"), 4, 1) == 2
    with pytest.raises(GapError):
        resolve_lag(History(p, "bridge"), 1, 1)


def test_usable_transitions_counts():
    p = gap_panel()
    assert usable_transitions(History(p, "exclude"), 1) == (2, 5)
    assert usable_transitions(History(p, "bridge"), 1) == (2, 4, 5)
    assert usable_transitions(History(p, "exclude"), 0) == (1, 2, 4, 5)


def test_month_shape_gives_28_usable_steps():
    rs = RiskSet(["a", "b"])
    snaps = [snap(t, [0], [], 2, {"day": "Monday"}) for t in range(1, 32) if t != 25]
    p = NetworkPanel(rs, snaps, gaps=[25])
    assert len(usable_transitions(History(p, "exclude"), 1)) == 28



@pytest.mark.parametrize("policy", ["exclude", "bridge"])
def test_history_reads_an_added_snapshot_it_read_before(policy):
    """A history resolves each lag and time attribute once, until a snapshot
    is added: an added snapshot then takes precedence over the observed one
    read before, for lags and time attributes alike."""
    rs = RiskSet(["a", "b"])
    p = NetworkPanel(rs, [snap(t, [0, 1], [(0, 1)], 2, {"day": "Monday"}) for t in (1, 2, 3)])
    history = History(p, policy)
    assert history.lagged(3, 1) is p.at(2)
    assert history.time_attrs_at(2) == {"day": "Monday"}
    drawn = snap(2, [0], [], 2, {"day": "Tuesday"})
    history.add(drawn)
    assert history.lagged(3, 1) is drawn
    assert history.time_attrs_at(2) == {"day": "Tuesday"}

# --- model validation ------------------------------------------------------------


def test_validate_flags_dummy_trap(tiny_panel):
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), *seasonal_terms("vertex"),
         TermSpec("vertex", "seasonal", params={"day": "Monday"})],
        [TermSpec("edge", "intercept")],
    )
    report = validate_model(spec, tiny_panel)
    assert any("collinear" in w for w in report.warnings)
    assert report.ok


def _collinear_warnings(panel, edge_terms):
    report = validate_model(ModelSpec([TermSpec("vertex", "intercept")], edge_terms), panel)
    return [w for w in report.warnings if "collinear" in w]


def test_validate_groups_collinear_sets_by_attribute_and_key(tiny_panel):
    """The three mixing pairs are collinear with the intercept only on one
    attribute, and the seven day dummies only on one time attribute."""
    intercept = TermSpec("edge", "intercept")

    def mixing(attr, pair):
        return TermSpec("edge", "mixing", params={"attr": attr, "pair": pair})

    def week(key, days):
        return [TermSpec("edge", "seasonal", params={"day": d, "key": key}) for d in days]

    spread = [mixing("regular", "both"), mixing("group1", "neither"),
              mixing("regular", "mixed")]
    assert _collinear_warnings(tiny_panel, [intercept, *spread]) == []
    full = [mixing("group1", "both"), mixing("group1", "neither"), mixing("group1", "mixed")]
    assert _collinear_warnings(tiny_panel, [intercept, *spread[:2], *full]) == [
        "edge terms: full mixing set plus intercept is collinear"]

    six = week("day", terms.WEEKDAYS[1:])
    assert _collinear_warnings(tiny_panel, [intercept, *six, *week("weekday", ["Monday"])]) == []
    assert _collinear_warnings(tiny_panel, [intercept, *six, *week("day", ["Monday"])]) == [
        "edge terms: all 7 day dummies plus intercept are collinear"]
    assert _collinear_warnings(tiny_panel, [*week("weekday", terms.WEEKDAYS), *full]) == [
        "edge terms: all 7 day dummies plus full mixing set are collinear"]
    assert _collinear_warnings(tiny_panel, [*six, *week("weekday", ["Monday"]), *spread]) == []


def test_validate_counts_usable_steps():
    rs = RiskSet(["a", "b"])
    snaps = [snap(t, [0], [], 2) for t in range(1, 32) if t != 25]
    p = NetworkPanel(rs, snaps, gaps=[25])
    spec = ModelSpec([TermSpec("vertex", "intercept"),
                      TermSpec("vertex", "lag_indicator", lag=1)], [])
    report = validate_model(spec, p)
    assert len(report.usable_steps) == 28


def test_validate_missing_attr_is_error(tiny_panel):
    spec = ModelSpec([TermSpec("vertex", "attr_dummy", params={"attr": "zzz"})], [])
    report = validate_model(spec, tiny_panel)
    assert not report.ok
    assert any("zzz" in e for e in report.errors)


def test_validate_missing_day_attr():
    rs = RiskSet(["a"])
    p = NetworkPanel(rs, [snap(1, [0], [], 1), snap(2, [0], [], 1)])
    spec = ModelSpec([TermSpec("vertex", "seasonal", params={"day": "Friday"})], [])
    report = validate_model(spec, p)
    assert not report.ok


# --- spec files ------------------------------------------------------------------


def test_model_spec_file_round_trip(tmp_path):
    from dynetlogit import load_model_spec, save_model_spec

    spec = ModelSpec(
        [TermSpec("vertex", "intercept"),
         TermSpec("vertex", "attr_dummy", params={"attr": "regular"}),
         TermSpec("vertex", "lag_triangle", lag=2),
         *seasonal_terms("vertex")],
        [TermSpec("edge", "mixing", params={"attr": "regular", "pair": "both"}),
         TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 7}),
         TermSpec("edge", "log_size")],
        gap_policy="bridge",
    )
    path = tmp_path / "spec.json"
    save_model_spec(spec, path)
    back = load_model_spec(path)
    assert back == spec
    assert back.column_names == spec.column_names
    assert back.max_lag == 2


def test_model_spec_bad_json_is_spec_error(tmp_path):
    from dynetlogit import load_model_spec

    path = tmp_path / "bad.json"
    path.write_text("{]")
    with pytest.raises(SpecError, match="line 1"):
        load_model_spec(path)


def test_validate_model_reads_the_spec_policy():
    p = gap_panel()
    terms = [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)]
    assert validate_model(ModelSpec(terms, []), p).usable_steps == (2, 5)
    bridged = validate_model(ModelSpec(terms, [], gap_policy="bridge"), p)
    assert bridged.usable_steps == (2, 4, 5)
    assert bridged.errors == ()


# --- invariants ------------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lagged_stats_ignore_current_snapshot(seed):
    """History-only: changing the time-t snapshot never moves a lagged value."""
    rng = np.random.default_rng(seed)
    n = 5
    rs = RiskSet([f"v{k}" for k in range(n)])
    past = snap(1, list(range(n)), oracles.random_edge_set(rng, n, 0.4), n)
    now_a = snap(2, list(range(n)), oracles.random_edge_set(rng, n, 0.4), n)
    now_b = snap(2, list(range(n)), oracles.random_edge_set(rng, n, 0.4), n)
    pa = NetworkPanel(rs, [past, now_a])
    pb = NetworkPanel(rs, [past, now_b])
    for term in (TermSpec("vertex", "lag_indicator", lag=1),
                 TermSpec("vertex", "lag_triangle", lag=1)):
        for v in range(n):
            assert vertex_stat(term, pa, 2, v) == vertex_stat(term, pb, 2, v)
    bits = np.ones(n, dtype=bool)
    for term in (TermSpec("edge", "lag_indicator", lag=1),
                 TermSpec("edge", "lag_cycle_embed", lag=1)):
        for i in range(n):
            for j in range(i + 1, n):
                assert edge_stat(term, pa, 2, i, j, bits) == \
                    edge_stat(term, pb, 2, i, j, bits)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cycle_embed_monotone_in_lagged_edges(seed):
    rng = np.random.default_rng(seed)
    n = 6
    rs = RiskSet([f"v{k}" for k in range(n)])
    edges = oracles.random_edge_set(rng, n, 0.3)
    if not edges:
        return
    extra = [(a, b) for a in range(n) for b in range(a + 1, n)
             if (a, b) not in set(edges)]
    denser = edges + extra[: max(1, len(extra) // 2)]
    term = TermSpec("edge", "lag_cycle_embed", lag=1)
    now = snap(2, list(range(n)), [], n)
    sparse_p = NetworkPanel(rs, [snap(1, list(range(n)), edges, n), now])
    dense_p = NetworkPanel(rs, [snap(1, list(range(n)), denser, n), now])
    bits = np.ones(n, dtype=bool)
    for i, j in edges:  # pairs tied in both lagged graphs
        assert edge_stat(term, dense_p, 2, i, j, bits) >= \
            edge_stat(term, sparse_p, 2, i, j, bits)
