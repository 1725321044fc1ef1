"""Brute-force reference implementations used to check the fast paths.

Everything here favors obviousness over speed: triple enumeration, per-pair
BFS, whole-graph cycle enumeration (via networkx) and path enumeration by
DFS, instead of the identities and meet-in-the-middle counting used by the
package.
"""

from itertools import combinations
from math import comb

import networkx as nx


def census_by_enumeration(present, edges):
    """Triad census by iterating every vertex triple."""
    eset = {tuple(sorted(e)) for e in edges}
    counts = [0, 0, 0, 0]
    for tri in combinations(sorted(present), 3):
        k = sum(1 for pair in combinations(tri, 2) if tuple(sorted(pair)) in eset)
        counts[k] += 1
    return tuple(counts)


def connectedness_by_bfs(present, edges):
    """Reachable-pair fraction from a fresh BFS per pair."""
    present = sorted(present)
    n = len(present)
    if n < 2:
        return 1.0
    nbrs = {v: set() for v in present}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    hits = 0
    for a, b in combinations(present, 2):
        frontier, seen = [a], {a}
        found = False
        while frontier and not found:
            u = frontier.pop()
            for v in nbrs[u]:
                if v == b:
                    found = True
                    break
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        hits += found
    return hits / comb(n, 2)


def centralization_by_formula(present, edges):
    present = sorted(present)
    n = len(present)
    if n < 3:
        return 0.0
    deg = {v: 0 for v in present}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    dmax = max(deg.values())
    return sum(dmax - d for d in deg.values()) / ((n - 1) * (n - 2))


def density_by_count(present, edges):
    n = len(present)
    if n < 2:
        return 0.0
    return len(set(map(tuple, map(sorted, edges)))) / comb(n, 2)


def mean_degree_by_count(present, edges):
    n = len(present)
    if n < 1:
        return 0.0
    return 2.0 * len(set(map(tuple, map(sorted, edges)))) / n


def triangles_at_vertex_by_enumeration(present, edges, p):
    eset = {tuple(sorted(e)) for e in edges}
    others = [v for v in present if v != p]
    count = 0
    for a, b in combinations(others, 2):
        if (tuple(sorted((p, a))) in eset and tuple(sorted((p, b))) in eset
                and tuple(sorted((a, b))) in eset):
            count += 1
    return count


def cycles_through_edge_by_enumeration(edges, i, j, max_len):
    """Count the graph's simple cycles of length <= max_len in which i and j
    appear in adjacent positions, via whole-graph cycle enumeration."""
    G = nx.Graph()
    G.add_edges_from(edges)
    if i not in G or j not in G:
        return 0
    count = 0
    for cyc in nx.simple_cycles(G, length_bound=max_len):
        L = len(cyc)
        for k in range(L):
            a, b = cyc[k], cyc[(k + 1) % L]
            if {a, b} == {i, j}:
                count += 1
                break
    return count


def cycles_through_edge_by_dfs(edges, i, j, max_len):
    """Count the simple i-j paths of 2..max_len-1 edges by depth-limited DFS
    from i: one per cycle of length <= max_len through the edge {i, j}.
    Costs every path of up to max_len - 1 edges, but reaches graphs too large
    for whole-graph enumeration.  A non-adjacent pair counts 0."""
    nbrs = {}
    for a, b in edges:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    if j not in nbrs.get(i, ()):
        return 0
    limit = max_len - 1
    visited = {i}

    def walk(u, depth):
        count = 0
        for v in nbrs[u]:
            if v == j:
                count += depth + 1 >= 2
            elif v not in visited and depth + 1 < limit:
                visited.add(v)
                count += walk(v, depth + 1)
                visited.discard(v)
        return count

    return walk(i, 0)


def random_edge_set(rng, n, p=0.4):
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b))
    return edges
