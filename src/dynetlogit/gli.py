"""Graph-level indices of a single snapshot.

All indices are computed over present vertices only.  Degenerate sizes get
fixed conventions (density 0 below 2 vertices, centralization 0 below 3,
connectedness 1 below 2, all-zero census below 3) so every simulated day
yields a finite index vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

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


def density(snapshot: Snapshot) -> float:
    n = snapshot.n_present
    if n < 2:
        return 0.0
    return snapshot.edge_count / comb(n, 2)


def mean_degree(snapshot: Snapshot) -> float:
    n = snapshot.n_present
    if n < 1:
        return 0.0
    return 2.0 * snapshot.edge_count / n


def degree_centralization(snapshot: Snapshot) -> float:
    """Freeman degree centralization with the star-graph denominator."""
    n = snapshot.n_present
    if n < 3:
        return 0.0
    degs = snapshot.degrees()
    return float((degs.max() - degs).sum()) / ((n - 1) * (n - 2))


def krackhardt_connectedness(snapshot: Snapshot) -> float:
    """Fraction of unordered present-vertex pairs joined by a path.

    Min-label hooking: while an edge's endpoint labels differ, the larger is
    set to the smaller and every label jumps to its label's label.  Labels
    stay within a component and end at its smallest vertex."""
    n = snapshot.n_present
    if n < 2:
        return 1.0
    size = len(snapshot.present)
    a, b = np.divmod(snapshot.codes, size)
    label = np.arange(size)
    while np.count_nonzero((la := label[a]) != (lb := label[b])):
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        label = label[label]
    sizes = np.bincount(label[snapshot.present])
    return int((sizes * (sizes - 1)).sum()) // 2 / comb(n, 2)


def triad_census(snapshot: Snapshot):
    """Counts of present-vertex triples with 0, 1, 2, 3 edges.

    Uses degree and triangle identities rather than triple enumeration:
    with m edges, w = sum_v C(d_v, 2) wedges and T triangles,
    N3 = T, N2 = w - 3T, N1 = m(n-2) - 2w + 3T, N0 fills to C(n,3).
    """
    n = snapshot.n_present
    if n < 3:
        return (0, 0, 0, 0)
    m = snapshot.edge_count
    degs = snapshot.degrees()
    triangles = int(triangle_counts(snapshot).sum()) // 3
    wedges = int((degs * (degs - 1)).sum()) // 2
    n2 = wedges - 3 * triangles
    n1 = m * (n - 2) - 2 * wedges + 3 * triangles
    n0 = comb(n, 3) - n1 - n2 - triangles
    return (n0, n1, n2, triangles)


def gli_vector(snapshot: Snapshot) -> GliVector:
    return GliVector(
        size=snapshot.n_present,
        density=density(snapshot),
        mean_degree=mean_degree(snapshot),
        degree_centralization=degree_centralization(snapshot),
        connectedness=krackhardt_connectedness(snapshot),
        triad_census=triad_census(snapshot),
    )
