"""Graph-level indices of a snapshot, one value or row per draw.

All indices are computed over present vertices only.  Degenerate sizes get
fixed conventions (density 0 below 2 vertices, centralization 0 below 3,
connectedness 1 below 2, all-zero census below 3) so every simulated day
yields a finite index vector.

A snapshot holds ``snapshot.draws`` draws over one risk set side by side
(one, unless it is a union of simulated days), and every index comes out
once per draw, from reductions over the draw of each vertex, equal to the
index of that draw on its own.  Density and mean degree are columns of
``gli_matrix``.  The triad census reads each draw's triangle total off
neighbour bitsets from ``terms._common_neighbours``, the builder behind
``terms.triangle_counts``, and needs no count per vertex.
"""

from __future__ import annotations

import numpy as np

from .panel import Snapshot
from .terms import _common_neighbours

__all__ = [
    "GLI_NAMES",
    "degree_centralization",
    "krackhardt_connectedness",
    "triad_census",
    "gli_vector",
    "gli_matrix",
]

GLI_NAMES = (
    "size",
    "density",
    "mean_degree",
    "degree_centralization",
    "connectedness",
    "triad_census_0",
    "triad_census_1",
    "triad_census_2",
    "triad_census_3",
)


def _counts(snapshot: Snapshot):
    """Present vertices and edges per draw, and the degrees, one row per
    draw."""
    degrees = snapshot.degrees().reshape(snapshot.draws, -1)
    k = snapshot.present.reshape(snapshot.draws, -1).sum(axis=1)
    return k, degrees.sum(axis=1) // 2, degrees


def degree_centralization(snapshot: Snapshot) -> np.ndarray:
    """Freeman degree centralization with the star-graph denominator."""
    k, m, degrees = _counts(snapshot)
    # sum over present v of (max degree - d_v), since absent vertices have
    # degree 0; below 3 vertices all degrees are equal and it is 0
    spread = k * degrees.max(axis=1, initial=0) - 2 * m
    return spread / np.maximum((k - 1) * (k - 2), 1)


def krackhardt_connectedness(snapshot: Snapshot) -> np.ndarray:
    """Fraction of unordered present-vertex pairs joined by a path.

    Min-label hooking: while an edge's endpoint labels differ, the larger is
    set to the smaller and every label jumps to its label's label.  Labels
    stay within a component and end at its smallest vertex, so a component
    counts in the draw of its label."""
    size = len(snapshot.present)
    k = snapshot.present.reshape(snapshot.draws, -1).sum(axis=1)
    a = snapshot.codes // size
    b = snapshot.codes - a * size
    label = np.arange(size)
    while np.count_nonzero((la := label[a]) != (lb := label[b])):
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        label = label[label]
    sizes = np.bincount(label[snapshot.present], minlength=size)
    joined = (sizes * (sizes - 1) // 2).reshape(len(k), -1).sum(axis=1)
    return np.where(k > 1, joined / np.maximum(k * (k - 1) // 2, 1), 1.0)


def triad_census(snapshot: Snapshot) -> np.ndarray:
    """Counts of present-vertex triples with 0, 1, 2, 3 edges.

    Uses degree and triangle identities rather than triple enumeration:
    with m edges, w = sum_v C(d_v, 2) wedges and T triangles,
    N3 = T, N2 = w - 3T, N1 = m(n-2) - 2w + 3T, N0 fills to C(n,3).
    A draw's T is the sum over its edges {a, b}, a < b, of the neighbours
    after b they share (each triangle counts once, at the edge of its two
    first vertices), from bitsets of later neighbours that the builder
    behind ``triangle_counts`` makes.  An (R, 4) int64 array, one row per
    draw.
    """
    k, m, degrees = _counts(snapshot)
    found = _common_neighbours(snapshot, later=True)
    if found is None:
        triangles = np.zeros(len(k), dtype=np.int64)
    else:
        draw = np.arange(len(k)).repeat(m)  # the codes come draw by draw
        triangles = np.bincount(draw, found[2], minlength=len(k)).astype(np.int64)
    wedges = (degrees * (degrees - 1) // 2).sum(axis=1)
    n2 = wedges - 3 * triangles
    n1 = m * (k - 2) - 2 * wedges + 3 * triangles
    n0 = k * (k - 1) * (k - 2) // 6 - n1 - n2 - triangles
    return (np.array([n0, n1, n2, triangles]) * (k > 2)).T


def gli_matrix(snapshot: Snapshot) -> np.ndarray:
    """The index vectors of the snapshot's draws, as an (R, 9) float array
    in GLI_NAMES order."""
    k, m, _ = _counts(snapshot)
    out = np.empty((len(k), len(GLI_NAMES)))
    out[:, 0] = k
    out[:, 1] = m / np.maximum(k * (k - 1) // 2, 1)  # below 2 vertices, m is 0
    out[:, 2] = 2.0 * m / np.maximum(k, 1)
    out[:, 3] = degree_centralization(snapshot)
    out[:, 4] = krackhardt_connectedness(snapshot)
    out[:, 5:] = triad_census(snapshot)
    return out


def gli_vector(snapshot: Snapshot) -> np.ndarray:
    """The index vector of a one-draw snapshot; the batch of one of
    gli_matrix."""
    return gli_matrix(snapshot)[0]
