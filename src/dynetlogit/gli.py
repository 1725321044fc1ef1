"""Graph-level indices of a snapshot, or of each of several draws at once.

All indices are computed over present vertices only.  Degenerate sizes get
fixed conventions (density 0 below 2 vertices, centralization 0 below 3,
connectedness 1 below 2, all-zero census below 3) so every simulated day
yields a finite index vector.

``gli_matrix``, centralization, connectedness and the census also take
``segment``, for a union snapshot that holds R draws over one risk set of
``segment`` vertices side by side: vertex r * segment + i is vertex i of
draw r, and no edge joins two draws.  They then return one value per draw,
from reductions over ``vertex // segment``, equal to the index of that draw
on its own.  Without ``segment`` the snapshot is one draw and the index a
Python scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import Snapshot
from .terms import triangle_counts

__all__ = [
    "GLI_NAMES",
    "GliVector",
    "density",
    "mean_degree",
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


@dataclass(frozen=True)
class GliVector:
    size: int
    density: float
    mean_degree: float
    degree_centralization: float
    connectedness: float
    triad_census: tuple

    def as_array(self) -> np.ndarray:
        return np.array([
            self.size,
            self.density,
            self.mean_degree,
            self.degree_centralization,
            self.connectedness,
            *self.triad_census,
        ], dtype=float)


def _draws(snapshot: Snapshot, segment) -> int:
    return len(snapshot.present) // segment if segment else 1


def _counts(snapshot: Snapshot, segment):
    """Present vertices and edges per segment, and the degrees, one row per
    segment."""
    draws = _draws(snapshot, segment)
    degrees = snapshot.degrees().reshape(draws, -1)
    k = snapshot.present.reshape(draws, -1).sum(axis=1)
    return k, degrees.sum(axis=1) // 2, degrees


def _per_segment(values, segment):
    return values if segment else float(values[0])


def _density(k, m):
    return m / np.maximum(k * (k - 1) // 2, 1)  # below 2 vertices, m is 0


def _mean_degree(k, m):
    return 2.0 * m / np.maximum(k, 1)


def density(snapshot: Snapshot) -> float:
    k, m, _ = _counts(snapshot, None)
    return float(_density(k, m)[0])


def mean_degree(snapshot: Snapshot) -> float:
    k, m, _ = _counts(snapshot, None)
    return float(_mean_degree(k, m)[0])


def degree_centralization(snapshot: Snapshot, segment=None):
    """Freeman degree centralization with the star-graph denominator."""
    k, m, degrees = _counts(snapshot, segment)
    # sum over present v of (max degree - d_v), since absent vertices have
    # degree 0; below 3 vertices all degrees are equal and it is 0
    spread = k * degrees.max(axis=1, initial=0) - 2 * m
    return _per_segment(spread / np.maximum((k - 1) * (k - 2), 1), segment)


def krackhardt_connectedness(snapshot: Snapshot, segment=None):
    """Fraction of unordered present-vertex pairs joined by a path.

    Min-label hooking: while an edge's endpoint labels differ, the larger is
    set to the smaller and every label jumps to its label's label.  Labels
    stay within a component and end at its smallest vertex, so a component
    counts in the segment of its label."""
    size = len(snapshot.present)
    k = snapshot.present.reshape(_draws(snapshot, segment), -1).sum(axis=1)
    a, b = np.divmod(snapshot.codes, size)
    label = np.arange(size)
    while np.count_nonzero((la := label[a]) != (lb := label[b])):
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        label = label[label]
    sizes = np.bincount(label[snapshot.present], minlength=size)
    joined = (sizes * (sizes - 1) // 2).reshape(len(k), -1).sum(axis=1)
    return _per_segment(np.where(k > 1, joined / np.maximum(k * (k - 1) // 2, 1), 1.0),
                        segment)


def triad_census(snapshot: Snapshot, segment=None):
    """Counts of present-vertex triples with 0, 1, 2, 3 edges.

    Uses degree and triangle identities rather than triple enumeration:
    with m edges, w = sum_v C(d_v, 2) wedges and T triangles,
    N3 = T, N2 = w - 3T, N1 = m(n-2) - 2w + 3T, N0 fills to C(n,3).
    A tuple of ints, or an (R, 4) int64 array with ``segment``.
    """
    k, m, degrees = _counts(snapshot, segment)
    per_vertex = triangle_counts(snapshot, segment).reshape(len(k), -1)
    triangles = per_vertex.sum(axis=1).astype(np.int64) // 3
    wedges = (degrees * (degrees - 1) // 2).sum(axis=1)
    n2 = wedges - 3 * triangles
    n1 = m * (k - 2) - 2 * wedges + 3 * triangles
    n0 = k * (k - 1) * (k - 2) // 6 - n1 - n2 - triangles
    census = (np.array([n0, n1, n2, triangles]) * (k > 2)).T
    return census if segment else tuple(census[0].tolist())


def gli_matrix(snapshot: Snapshot, segment=None) -> np.ndarray:
    """The index vectors of the draws in a union, as an (R, 9) float array
    in GLI_NAMES order; one row for a plain snapshot."""
    k, m, _ = _counts(snapshot, segment)
    out = np.empty((len(k), len(GLI_NAMES)))
    out[:, 0] = k
    out[:, 1] = _density(k, m)
    out[:, 2] = _mean_degree(k, m)
    out[:, 3] = degree_centralization(snapshot, segment)
    out[:, 4] = krackhardt_connectedness(snapshot, segment)
    out[:, 5:] = triad_census(snapshot, segment)
    return out


def gli_vector(snapshot: Snapshot) -> GliVector:
    """The indices of one snapshot; the batch of one of gli_matrix."""
    row = gli_matrix(snapshot)[0]
    return GliVector(
        size=int(row[0]),
        density=float(row[1]),
        mean_degree=float(row[2]),
        degree_centralization=float(row[3]),
        connectedness=float(row[4]),
        triad_census=tuple(int(x) for x in row[5:]),
    )
