"""Stacked sparse Bernoulli design for the joint vertex/edge likelihood.

The joint likelihood factors into independent Bernoulli rows: one row per
(time, risk-set vertex) with the presence indicator as response, and one
row per (time, present dyad) with the edge indicator.  Vertex terms and
edge terms occupy disjoint column blocks, so a single logistic fit of the
stacked design is exactly the product of the two sub-likelihoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .panel import NetworkPanel, dyads
from .terms import (
    History,
    ModelSpec,
    edge_term_values,
    usable_transitions,
    vertex_term_values,
)

__all__ = ["DesignError", "RowTag", "TagTable", "Patterns", "DesignMatrix",
           "build_design", "split_design", "dump_design"]

# mixed-radix row keys stay below this; past it the partial key is renumbered
_KEY_LIMIT = np.iinfo(np.int64).max


class DesignError(ValueError):
    """The panel/model combination yields no usable design rows."""


@dataclass(frozen=True)
class RowTag:
    """Provenance of one design row."""

    kind: str  # "vertex" or "edge"
    t: int
    i: int
    j: int | None = None


class TagTable:
    """Columnar row tags; cheap for millions of rows, RowTag view on demand."""

    __slots__ = ("kind", "t", "i", "j")

    def __init__(self, kind, t, i, j):
        self.kind = np.asarray(kind, dtype=np.uint8)  # 0 = vertex, 1 = edge
        self.t = np.asarray(t, dtype=np.int64)
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)  # -1 on vertex rows

    def __len__(self):
        return len(self.kind)

    def row(self, r: int) -> RowTag:
        if self.kind[r] == 0:
            return RowTag("vertex", int(self.t[r]), int(self.i[r]), None)
        return RowTag("edge", int(self.t[r]), int(self.i[r]), int(self.j[r]))

    def slice(self, lo: int, hi: int) -> "TagTable":
        return TagTable(self.kind[lo:hi], self.t[lo:hi], self.i[lo:hi], self.j[lo:hi])


@dataclass(frozen=True)
class Patterns:
    """The distinct rows of a design as binomial sufficient statistics.

    Rows that share their block, response and every feature value are one
    pattern: ``responses`` holds its 0/1 response and ``trials`` counts its
    rows.  Patterns keep the order of their first row, so the
    ``n_vertex_patterns`` vertex patterns come first, as vertex rows do.
    """

    features: sp.csr_matrix  # one row per pattern, every column of the design
    responses: np.ndarray  # float
    trials: np.ndarray  # float, summing to the design's rows
    n_vertex_patterns: int


def _row_patterns(features, responses, n_vertex_rows) -> Patterns:
    """Group rows by an exact key built column by column from the CSC form:
    each column's values are factorized and their codes added into one int64
    key per row in mixed radix, renumbering the partial key whenever the
    next radix would overflow it.  An explicitly stored zero gets a code of
    its own, so rows equal in value may land in two patterns; the
    likelihood does not change."""
    key = responses.astype(np.int64)
    key[n_vertex_rows:] += 2
    base = 4  # key < base: block and response take the lowest digits
    csc = features.tocsc()
    for lo, hi in zip(csc.indptr[:-1], csc.indptr[1:]):
        if lo == hi:
            continue
        values, codes = np.unique(csc.data[lo:hi], return_inverse=True)
        radix = len(values) + 1  # code 0 is an unstored zero
        if base > _KEY_LIMIT // radix:
            seen, key = np.unique(key, return_inverse=True)
            base = len(seen)
        codes += 1
        codes *= base
        key[csc.indices[lo:hi]] += codes
        base *= radix
    del csc
    _, first, trials = np.unique(key, return_index=True, return_counts=True)
    del key
    order = np.argsort(first)
    first, trials = first[order], trials[order].astype(float)
    return Patterns(
        features=features.tocsr()[first],
        responses=responses[first].astype(float),
        trials=trials,
        n_vertex_patterns=int(np.searchsorted(first, n_vertex_rows)),
    )


@dataclass
class DesignMatrix:
    """Responses, sparse features, and row provenance for one model fit."""

    responses: np.ndarray
    features: sp.csr_matrix
    tags: TagTable
    column_names: tuple
    n_vertex_terms: int
    n_vertex_rows: int

    @property
    def n_rows(self) -> int:
        return len(self.responses)

    @property
    def n_cols(self) -> int:
        return self.features.shape[1]

    @cached_property
    def patterns(self) -> Patterns:
        """The rows collapsed into binomial patterns, computed on first use
        and kept: a design is not modified once built."""
        return _row_patterns(self.features, self.responses, self.n_vertex_rows)

    def __repr__(self):
        return (
            f"DesignMatrix({self.n_rows} rows = {self.n_vertex_rows} vertex + "
            f"{self.n_rows - self.n_vertex_rows} edge, {self.n_cols} cols, "
            f"nnz={self.features.nnz})"
        )


def _is_edge(codes, pairs):
    """Membership of ``pairs`` in the sorted edge ``codes``."""
    if not len(codes):
        return np.zeros(len(pairs), dtype=bool)
    pos = np.minimum(np.searchsorted(codes, pairs), len(codes) - 1)
    return codes[pos] == pairs


def build_design(panel: NetworkPanel, spec: ModelSpec,
                 gap_policy: str | None = None,
                 align_to_lag: int | None = None) -> DesignMatrix:
    """Assemble the stacked design over every usable transition step.

    A step is usable when its whole lag window is observed (or bridgeable
    under the ``bridge`` policy).  ``align_to_lag`` forces a deeper history
    requirement so that several candidate models can be fit on identical
    rows and compared by BIC.
    """
    policy = gap_policy or spec.gap_policy
    history = History(panel)
    window = max(spec.max_lag, align_to_lag or 0)
    steps = usable_transitions(history, window, policy)
    if not steps:
        raise DesignError(
            f"no usable transition steps (max lag {window}, policy {policy!r})"
        )

    n = len(panel.risk_set)
    kv, ke = len(spec.vertex_terms), len(spec.edge_terms)

    v_blocks, v_resp, v_t = [], [], []
    e_blocks, e_resp, e_t, e_i, e_j = [], [], [], [], []

    for t in steps:
        snap = panel.at(t)
        if kv:
            cols = [vertex_term_values(term, history, t, policy)
                    for term in spec.vertex_terms]
            v_blocks.append(np.column_stack(cols))
            v_resp.append(snap.present.astype(np.int8))
            v_t.append(np.full(n, t, dtype=np.int64))
        if ke:
            ii, jj = dyads(snap.present_indices)
            if len(ii) == 0:
                continue
            cols = [edge_term_values(term, history, t, ii, jj, snap.present, policy)
                    for term in spec.edge_terms]
            e_blocks.append(np.column_stack(cols))
            e_resp.append(_is_edge(snap.codes, ii * n + jj).astype(np.int8))
            e_t.append(np.full(len(ii), t, dtype=np.int64))
            e_i.append(ii)
            e_j.append(jj)

    nv = sum(len(r) for r in v_resp)
    ne = sum(len(r) for r in e_resp)
    if nv + ne == 0:
        raise DesignError("design has no rows (no vertex terms and no present dyads)")

    vmat = sp.csr_matrix(np.vstack(v_blocks)) if v_blocks else sp.csr_matrix((0, kv))
    emat = sp.csr_matrix(np.vstack(e_blocks)) if e_blocks else sp.csr_matrix((0, ke))
    blocks = [[vmat, sp.csr_matrix((nv, ke))],
              [sp.csr_matrix((ne, kv)), emat]]
    features = sp.bmat(blocks, format="csr")

    responses = np.concatenate(
        [np.concatenate(v_resp) if v_resp else np.empty(0, dtype=np.int8),
         np.concatenate(e_resp) if e_resp else np.empty(0, dtype=np.int8)]
    )
    tag_kind = np.concatenate([np.zeros(nv, dtype=np.uint8), np.ones(ne, dtype=np.uint8)])
    tag_t = np.concatenate(
        [np.concatenate(v_t) if v_t else np.empty(0, dtype=np.int64),
         np.concatenate(e_t) if e_t else np.empty(0, dtype=np.int64)]
    )
    tag_i = np.concatenate(
        [np.tile(np.arange(n, dtype=np.int64), len(v_resp)),
         np.concatenate(e_i) if e_i else np.empty(0, dtype=np.int64)]
    )
    tag_j = np.concatenate(
        [np.full(nv, -1, dtype=np.int64),
         np.concatenate(e_j) if e_j else np.empty(0, dtype=np.int64)]
    )

    return DesignMatrix(
        responses=responses,
        features=features,
        tags=TagTable(tag_kind, tag_t, tag_i, tag_j),
        column_names=spec.column_names,
        n_vertex_terms=kv,
        n_vertex_rows=nv,
    )


def split_design(dm: DesignMatrix):
    """Vertex-only and edge-only sub-designs; block diagonality makes the
    joint log-likelihood the sum of the parts at any coefficient split."""
    nv, kv = dm.n_vertex_rows, dm.n_vertex_terms
    vertex = DesignMatrix(
        responses=dm.responses[:nv],
        features=dm.features[:nv, :kv].tocsr(),
        tags=dm.tags.slice(0, nv),
        column_names=dm.column_names[:kv],
        n_vertex_terms=kv,
        n_vertex_rows=nv,
    )
    edge = DesignMatrix(
        responses=dm.responses[nv:],
        features=dm.features[nv:, kv:].tocsr(),
        tags=dm.tags.slice(nv, dm.n_rows),
        column_names=dm.column_names[kv:],
        n_vertex_terms=0,
        n_vertex_rows=0,
    )
    return vertex, edge


def dump_design(dm: DesignMatrix, risk_set, triplet_path, columns_path, tags_path):
    """Write the design as (row, col, value) triplets plus column/tag CSVs,
    for cross-checking against external GLM software."""
    coo = dm.features.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(triplet_path, "w", encoding="utf-8") as fh:
        fh.write(f"# rows={dm.n_rows} cols={dm.n_cols} nnz={coo.nnz}\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {float(v)!r}\n")
    with open(columns_path, "w", encoding="utf-8") as fh:
        fh.write("col,name\n")
        for c, name in enumerate(dm.column_names):
            fh.write(f"{c},{name}\n")
    with open(tags_path, "w", encoding="utf-8") as fh:
        fh.write("row,kind,t,i,j,response\n")
        tags = dm.tags
        for r in range(dm.n_rows):
            if tags.kind[r] == 0:
                kind, i, j = "vertex", risk_set.labels[tags.i[r]], ""
            else:
                kind = "edge"
                i, j = risk_set.labels[tags.i[r]], risk_set.labels[tags.j[r]]
            fh.write(f"{r},{kind},{tags.t[r]},{i},{j},{dm.responses[r]}\n")
