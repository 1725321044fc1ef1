from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from dynetlogit import (
    GLI_NAMES,
    PanelValidationError,
    Snapshot,
    degree_centralization,
    disjoint_union,
    gli_matrix,
    gli_vector,
    krackhardt_connectedness,
    triad_census,
)
from dynetlogit import terms
from dynetlogit.terms import triangle_counts

import oracles


def snap(present, edges, n=None):
    n = n if n is not None else (max(present) + 1 if present else 1)
    return Snapshot(1, present, edges, n=n)


K3 = snap([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
PATH4 = snap([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
DENSITY, MEAN_DEGREE = GLI_NAMES.index("density"), GLI_NAMES.index("mean_degree")


def density(s):
    return gli_vector(s)[DENSITY]


def mean_degree(s):
    return gli_vector(s)[MEAN_DEGREE]


def test_density_examples():
    assert density(K3) == 1.0
    assert density(snap([0, 1, 2, 3, 4], [])) == 0.0
    assert density(PATH4) == pytest.approx(0.5)


def test_centralization_examples():
    star = snap([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    assert degree_centralization(star).tolist() == [1.0]
    k4 = snap([0, 1, 2, 3], [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert degree_centralization(k4).tolist() == [0.0]
    assert degree_centralization(PATH4) == pytest.approx([2 / 6])


def test_connectedness_examples():
    assert krackhardt_connectedness(K3).tolist() == [1.0]
    assert krackhardt_connectedness(snap([0, 1, 2], [])).tolist() == [0.0]
    assert krackhardt_connectedness(snap([0, 1, 2], [(0, 1)])) == pytest.approx([1 / 3])


def test_census_examples():
    assert triad_census(snap([0, 1, 2], [])).tolist() == [[1, 0, 0, 0]]
    assert triad_census(K3).tolist() == [[0, 0, 0, 1]]
    assert triad_census(PATH4).tolist() == [[0, 2, 2, 0]]


def test_gli_vector_empty_snapshot():
    for n in (3, 0):  # also an empty risk set
        v = gli_vector(snap([], [], n=n))
        assert v.tolist() == [0, 0.0, 0.0, 0.0, 1.0, 0, 0, 0, 0]


def test_gli_vector_k3():
    assert gli_vector(K3).tolist() == [3, 1.0, 2.0, 0.0, 1.0, 0, 0, 0, 1]


def test_degenerate_sizes():
    assert density(snap([0], [], n=4)) == 0.0
    assert mean_degree(snap([], [], n=4)) == 0.0
    assert degree_centralization(snap([0, 1], [(0, 1)], n=4)).tolist() == [0.0]
    assert krackhardt_connectedness(snap([0], [], n=4)).tolist() == [1.0]
    assert triad_census(snap([0, 1], [(0, 1)], n=4)).tolist() == [[0, 0, 0, 0]]


def test_vector_matches_components():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(0, 8)
        present = list(rng.choice(10, size=n, replace=False))
        edges = [
            (a, b)
            for k, a in enumerate(present)
            for b in present[k + 1:]
            if rng.random() < 0.4
        ]
        s = snap(present, [(min(a, b), max(a, b)) for a, b in edges], n=10)
        v = gli_vector(s)
        assert v[0] == s.n_present
        assert v[3] == degree_centralization(s)[0]
        assert v[4] == krackhardt_connectedness(s)[0]
        assert v[5:].tolist() == triad_census(s)[0].tolist()


def test_against_oracles_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(0, 8))
        present = list(range(n))
        edges = oracles.random_edge_set(rng, n, p=float(rng.random()))
        s = snap(present, edges, n=max(n, 1))
        assert tuple(triad_census(s)[0].tolist()) == oracles.census_by_enumeration(
            present, edges)
        assert krackhardt_connectedness(s) == pytest.approx(
            [oracles.connectedness_by_bfs(present, edges)])
        assert degree_centralization(s) == pytest.approx(
            [oracles.centralization_by_formula(present, edges)])
        assert density(s) == pytest.approx(oracles.density_by_count(present, edges))
        assert mean_degree(s) == pytest.approx(
            oracles.mean_degree_by_count(present, edges))


def test_absent_vertices_do_not_count():
    # same graph embedded in a larger risk set with shuffled indices
    s = Snapshot(1, [2, 5, 9], [(2, 5), (5, 9), (2, 9)], n=12)
    assert density(s) == 1.0
    assert triad_census(s).tolist() == [[0, 0, 0, 1]]
    assert gli_vector(s)[0] == 3


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, sorted(edges)


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_census_sums_and_bounds(g):
    n, edges = g
    s = snap(list(range(n)), edges, n=max(n, 1))
    census = triad_census(s)[0]
    assert census.sum() == (comb(n, 3) if n >= 3 else 0)
    assert 0.0 <= density(s) <= 1.0
    assert 0.0 <= degree_centralization(s)[0] <= 1.0
    assert 0.0 <= krackhardt_connectedness(s)[0] <= 1.0


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_adding_edge_monotone(g):
    n, edges = g
    if n < 2:
        return
    s = snap(list(range(n)), edges, n=n)
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    missing = [p for p in all_pairs if p not in set(edges)]
    if not missing:
        return
    s2 = snap(list(range(n)), edges + [missing[0]], n=n)
    assert density(s2) >= density(s)
    assert krackhardt_connectedness(s2)[0] >= krackhardt_connectedness(s)[0]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kernels_match_networkx_on_larger_graphs(seed):
    """30-300 vertices with absent vertices, isolated present vertices and a
    long path, all under permuted labels."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 301))
    order = rng.permutation(n)
    present = order[: n - int(rng.integers(1, n // 4 + 1))]  # the rest is absent
    isolated = int(rng.integers(1, 6))
    active = present[isolated:]
    path = active[: max(20, len(active) // 2)]
    pairs = rng.choice(active, size=(int(rng.integers(0, 2 * len(active))), 2))
    edges = sorted({(int(min(a, b)), int(max(a, b)))
                    for a, b in [*zip(path[:-1], path[1:]), *pairs] if a != b})
    s = Snapshot(1, present, edges, n=n)

    G = nx.Graph()
    G.add_nodes_from(present.tolist())
    G.add_edges_from(edges)
    tri = nx.triangles(G)
    assert triangle_counts(s).tolist() == [tri.get(v, 0) for v in range(n)]
    assert triad_census(s)[0, 3] == sum(tri.values()) // 3
    assert triad_census(s).dtype == np.int64
    assert all(type(k) is int for k in (s.n_present, s.edge_count))
    reachable = sum(comb(len(c), 2) for c in nx.connected_components(G))
    assert krackhardt_connectedness(s).tolist() == [reachable / comb(len(present), 2)]
    assert degree_centralization(s) == pytest.approx(
        [oracles.centralization_by_formula(present.tolist(), edges)])

    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    doubled = [(j, i) for i, j in edges] + edges
    for form in (arr, (arr[:, 1], arr[:, 0]), doubled):
        other = Snapshot(1, np.isin(np.arange(n), present), form)
        assert other == s
        assert np.array_equal(other.codes, s.codes)
    assert s.edges.tolist() == [list(e) for e in edges]
    assert not s.codes.flags.writeable and not s.edges.flags.writeable


@st.composite
def draw_lists(draw):
    """Snapshots over one risk set of n vertices, including empty, 1-vertex
    and 2-vertex draws, isolated vertices and draws wider than one 32-bit
    bitset word, cut into consecutive unions."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    snaps = []
    for _ in range(draw(st.integers(1, 10))):
        k = draw(st.sampled_from([0, 1, 2, n // 2, n]))
        p = draw(st.sampled_from([0.05, 0.3, 0.8]))
        present = sorted(rng.permutation(n)[:k].tolist())
        edges = [e for e in combinations(present, 2) if rng.random() < p]
        snaps.append(Snapshot(1, present, edges, n=n))
    cuts = sorted(draw(st.sets(st.integers(1, len(snaps) - 1))) if len(snaps) > 1 else [])
    return n, snaps, [0, *cuts, len(snaps)]


@given(draw_lists())
@settings(max_examples=150, deadline=None)
def test_union_indices_match_each_draw(drawn):
    """The indices of a union of draws, one row per draw, equal each draw's
    own index vector bit for bit, whatever the union sizes."""
    n, snaps, cuts = drawn
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = snaps[lo:hi]
        union = Snapshot(1, np.concatenate([s.present for s in part]), (
            np.concatenate([s.edges[:, 0] + r * n for r, s in enumerate(part)]),
            np.concatenate([s.edges[:, 1] + r * n for r, s in enumerate(part)])),
            draws=len(part))
        assert disjoint_union(part) == union
        expected = np.array([gli_vector(s) for s in part])
        assert np.array_equal(gli_matrix(union), expected)
        assert np.array_equal(triangle_counts(union),
                              np.concatenate([triangle_counts(s) for s in part]))
        assert np.array_equal(triad_census(union),
                              np.concatenate([triad_census(s) for s in part]))
        for index in (degree_centralization, krackhardt_connectedness):
            assert np.array_equal(index(union), np.concatenate([index(s) for s in part]))


def test_union_checks_its_draws():
    """A union rejects an edge between two draws and a presence vector that
    its draw count does not divide; a one-draw snapshot takes both."""
    edges = [(0, 1), (2, 3)]
    assert Snapshot(1, range(4), edges, n=4, draws=2).draws == 2
    with pytest.raises(PanelValidationError, match=r"edge joins two draws at t=1: \(1,2\)"):
        Snapshot(1, range(4), [(0, 1), (1, 2)], n=4, draws=2)
    with pytest.raises(PanelValidationError, match="5 vertices at t=1 do not split into 2"):
        Snapshot(1, range(5), edges, n=5, draws=2)
    for draws in (0, -1):
        with pytest.raises(PanelValidationError, match="do not split"):
            Snapshot(1, range(4), edges, n=4, draws=draws)
    assert Snapshot(1, range(5), [(1, 2)], n=5).draws == 1
    # unions of unions keep each draw, and snapshots of unequal draws are refused
    a, b = snap([0, 1], [(0, 1)], n=3), snap([1, 2], [(1, 2)], n=3)
    nested = disjoint_union([disjoint_union([a, b]), a])
    assert nested == disjoint_union([a, b, a])
    assert nested.draws == 3 and gli_matrix(nested).shape == (3, len(GLI_NAMES))
    with pytest.raises(PanelValidationError, match="differ in risk-set size"):
        disjoint_union([a, snap([0, 1], [(0, 1)], n=4)])


@given(draw_lists(), st.sampled_from([1, 2, 5]))
@settings(max_examples=100, deadline=None)
def test_union_triangle_totals_match_enumeration(drawn, block):
    """A union's per-draw triangle totals, summed over its edges from the
    shared neighbour bitsets, give each draw the census that enumerating
    its triples gives, with the bitsets gathered in blocks of a few words
    (one edge per block when a draw needs two words)."""
    n, snaps, cuts = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(terms, "BITSET_BLOCK", block)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            union = disjoint_union(snaps[lo:hi])
            census = triad_census(union)
            assert [tuple(row) for row in census.tolist()] == [
                oracles.census_by_enumeration(s.present_indices.tolist(), s.edges.tolist())
                for s in snaps[lo:hi]]
            assert triangle_counts(union).sum() == 3 * census[:, 3].sum()
