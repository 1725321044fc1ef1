"""Stacked sparse Bernoulli design for the joint vertex/edge likelihood.

The joint likelihood factors into independent Bernoulli rows: one row per
(time, risk-set vertex) with the presence indicator as response, and one
row per (time, present dyad) with the edge indicator.  Vertex terms and
edge terms occupy disjoint column blocks, so a single logistic fit of the
stacked design is exactly the product of the two sub-likelihoods.

The fit needs only the design's binomial patterns, and ``build_design``
assembles those without building dyad rows, in O(|V_t| + |E_t|) per step
plus one row per class pair of present endpoints.  An edge term's scope
(``terms.KINDS``) says where it is constant: a term of ``step`` or
``class`` scope is constant over the dyads of one pair of endpoint classes
(a vertex's class is its values of the ``attr`` params of the spec's
class-scope terms and which of their ``label`` params it is), and a term
of ``lag`` scope is zero off the dyads tied at its lag.  So each step's
edge rows are one row per lagged tie among present vertices plus one
weighted row per (class pair, response), whose trials are counted from
the class sizes and whose successes from the current edges.  Each term is
evaluated once over all steps, which sit side by side as blocks of n
vertices (vertex s * n + i is vertex i at step s, as a union lays out its
draws): a vertex term on every step's n vertices, an edge term on every
step's ties and class representatives, or on the ties alone when it has
lag scope.  The patterns are keyed straight from those term columns, by
factorizing each column's nonzero values (``_collapse``), and only the
patterns' CSR is built, from the entries of each pattern's first row; no
sparse matrix of all the weighted rows is made.  A design made from rows
collapses the stored entries of its CSC columns the same way.  The rows
themselves (``responses``, ``features``, ``tags``) are expanded on first
access, as ``--dump-design`` does, and only up to ``ROW_BUDGET`` rows.
Each row is a pointer to its pattern: a vertex row is its own weighted
row, a dyad row its lagged tie's or else its class pair's and response's,
so rows are gathered from the patterns by integer work alone, through the
steps' ``_DyadLayout``, by which simulation draws its edges too.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .panel import NetworkPanel, _ranges
from .terms import (
    History,
    ModelSpec,
    SpecError,
    _is_edge,
    edge_term_values,
    usable_transitions,
    vertex_term_values,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["DesignError", "TagTable", "Patterns", "DesignMatrix", "ROW_BUDGET",
           "build_design", "dump_design"]

# mixed-radix row keys stay below this; past it the partial key is renumbered
_KEY_LIMIT = np.iinfo(np.int64).max

# Most rows a design built from a panel expands to.  With two stored entries
# a row, expanding peaks at about 64 bytes per row (72 MB under tracemalloc
# for the million workload's 1.13M rows), so about 0.64 GB here, more with
# more entries; the fit never expands rows.
ROW_BUDGET = 10_000_000


class DesignError(ValueError):
    """The panel/model combination yields no usable design rows."""


class TagTable:
    """Columnar row tags: the block, time and endpoints of every row."""

    __slots__ = ("kind", "t", "i", "j")

    def __init__(self, kind, t, i, j):
        self.kind = np.asarray(kind, dtype=np.uint8)  # 0 = vertex, 1 = edge
        self.t = np.asarray(t, dtype=np.int64)
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)  # -1 on vertex rows

    def __len__(self):
        return len(self.kind)


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


def _collapse(columns, responses, n_vertex_rows, trials):
    """(Patterns, the pattern of each row) of weighted rows, grouped by an
    exact key and summing their ``trials``.

    ``columns`` holds each design column's entries as (rows, values): the
    nonzero entries of the term columns (``_term_columns``) or the stored
    entries of a CSC (``_csc_columns``).  Each column's values are
    factorized (a column of one value without a sort) and their codes
    added into one int64 key per row in mixed radix, renumbering the
    partial key whenever the next radix would overflow it.  A stored zero gets a code of its own, so rows equal in
    value may land in two patterns; the likelihood does not change, and
    every row is its pattern's row, stored entries included.  The
    patterns' CSR is built from the entries of each pattern's first row."""
    key = responses.astype(np.int64)
    key[n_vertex_rows:] += 2
    base = 4  # key < base: block and response take the lowest digits
    for rows, values in columns:
        if not len(rows):
            continue
        # code 0 is an absent entry; a column of one value takes code 1, as
        # the sort would give it
        if (values == values[0]).all():
            radix, codes = 2, np.zeros(len(values), dtype=np.int64)
        else:
            seen, codes = np.unique(values, return_inverse=True)
            radix = len(seen) + 1
        if base > _KEY_LIMIT // radix:
            seen, key = np.unique(key, return_inverse=True)
            base = len(seen)
        codes += 1
        codes *= base
        key[rows] += codes
        base *= radix
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    trials = np.bincount(key, weights=trials)
    order = np.argsort(first)
    first, trials = first[order], trials[order]
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order))

    # the first rows' entries, in column order within each pattern
    slot = np.full(len(key), -1)
    slot[first] = np.arange(len(first))
    rows = np.concatenate([np.empty(0, dtype=np.int64), *(r for r, _ in columns)])
    of = slot[rows]
    kept = of >= 0
    of = of[kept]
    by = np.argsort(of, kind="stable")
    col = np.arange(len(columns)).repeat([len(r) for r, _ in columns])[kept][by]
    data = np.concatenate([np.empty(0), *(v for _, v in columns)])[kept][by]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(of, minlength=len(first)))])
    # imported here, so that only building a design loads scipy
    import scipy.sparse as sp

    return Patterns(
        features=sp.csr_matrix((data, col, indptr), shape=(len(first), len(columns))),
        responses=responses[first].astype(float),
        trials=trials,
        n_vertex_patterns=int(np.searchsorted(first, n_vertex_rows)),
    ), rank[key]


def _csc_columns(features) -> list:
    """The stored entries (rows, values) of each column of ``features``."""
    csc = features.tocsc()
    return [(csc.indices[lo:hi], csc.data[lo:hi])
            for lo, hi in zip(csc.indptr[:-1].tolist(), csc.indptr[1:].tolist())]


def _term_columns(vertex_columns, edge_columns, n_vertex_rows) -> list:
    """The nonzero entries (rows, values) of each column of the design,
    from each vertex term's values on the vertex rows and each edge term's
    on the edge rows after them."""
    out = []
    for offset, columns in ((0, vertex_columns), (n_vertex_rows, edge_columns)):
        for values in columns:
            rows = np.flatnonzero(values)
            out.append((rows + offset, values[rows]))
    return out


class DesignMatrix:
    """Responses, sparse features, and row provenance for one model fit.

    Made from rows, a design collapses them into its binomial ``patterns``
    on first use.  ``build_design`` makes it from the patterns instead, and
    its rows are gathered from them on first access, at most ``ROW_BUDGET``
    of them.  Either way both are kept: a design is not modified once
    built.  ``steps`` are the times that have rows.
    """

    def __init__(self, responses, features, tags, column_names, n_vertex_terms,
                 n_vertex_rows):
        self._set(column_names, n_vertex_terms, n_vertex_rows, len(responses),
                  tuple(np.unique(tags.t).tolist()))
        self._rows = (responses, features, tags)

    def _set(self, column_names, n_vertex_terms, n_vertex_rows, n_rows, steps):
        self.column_names = tuple(column_names)
        self.n_vertex_terms = n_vertex_terms
        self.n_vertex_rows = n_vertex_rows
        self.n_rows = n_rows
        self.steps = steps
        self._rows = self._layout = self._patterns = None

    @classmethod
    def _from_patterns(cls, patterns, layout, column_names, n_vertex_terms, n_vertex_rows,
                       n_rows, steps):
        dm = cls.__new__(cls)
        dm._set(column_names, n_vertex_terms, n_vertex_rows, n_rows, steps)
        dm._patterns, dm._layout = patterns, layout
        return dm

    def _gather(self):
        """(the row of ``x`` each row is, features x, responses of x, tags):
        x holds the patterns of a design built from a panel, whose rows are
        read only up to ``ROW_BUDGET``, and the rows of one made from rows."""
        if self._layout is None:
            responses, features, tags = self._rows
            return np.arange(self.n_rows), features, responses, tags
        if self.n_rows > ROW_BUDGET:
            raise DesignError(
                f"the design has {self.n_rows:,} rows, over the row budget of "
                f"{ROW_BUDGET:,}; fit does not need them (it runs on the "
                f"design's binomial patterns), only reading rows, as "
                f"--dump-design does, expands them"
            )
        of, tags = self._layout.expand()
        return of, self._patterns.features, self._patterns.responses, tags

    def rows(self):
        """(responses, features, tags), gathered from the patterns on the
        first call if the design was built from a panel."""
        if self._rows is None:
            of, x, responses, tags = self._gather()
            self._rows = (responses[of].astype(np.int8), x[of], tags)
        return self._rows

    @property
    def responses(self) -> np.ndarray:
        return self.rows()[0]

    @property
    def features(self) -> sp.csr_matrix:
        return self.rows()[1]

    @property
    def tags(self) -> TagTable:
        return self.rows()[2]

    @property
    def n_cols(self) -> int:
        return len(self.column_names)

    @property
    def patterns(self) -> Patterns:
        """The rows collapsed into binomial patterns."""
        if self._patterns is None:
            responses, features, _ = self.rows()
            self._patterns = _collapse(_csc_columns(features), responses, self.n_vertex_rows,
                                       np.ones(self.n_rows))[0]
        return self._patterns

    def __repr__(self):
        return (
            f"DesignMatrix({self.n_rows} rows = {self.n_vertex_rows} vertex + "
            f"{self.n_rows - self.n_vertex_rows} edge, {self.n_cols} cols)"
        )


def _endpoint_classes(risk_set, terms) -> np.ndarray:
    """Class of every risk-set vertex: its values of the ``attr`` params of
    the class-scope ``terms`` and which of their ``label`` params it is,
    numbered in that order (which fixes the order of the edge patterns)."""
    n = len(risk_set)
    key = np.zeros(n, dtype=np.int64)
    ident = np.zeros(n, dtype=np.int64)
    params = [t.params for t in terms if t.scope == "class"]
    try:
        for attr in sorted({p["attr"] for p in params if "attr" in p}):
            key = 2 * key + risk_set.attr_indicator(attr).astype(np.int64)
        labels = sorted({p["label"] for p in params if "label" in p})
        ident[[risk_set.index_of(label) for label in labels]] = np.arange(1, len(labels) + 1)
    except KeyError as exc:
        raise SpecError(str(exc)) from None
    return np.unique(key * (len(labels) + 1) + ident, return_inverse=True)[1]


def _lagged_codes(history, t, terms) -> np.ndarray:
    """Sorted keys (r * n + i) * n + j of the dyads tied in draw r of
    ``history`` at the lag, from step t, of some lag-scope term of
    ``terms``; a snapshot the draws share is tiled once per draw."""
    n, reps = len(history.risk_set), history.draws
    lagged = []
    for lag in {term.lag for term in terms if term.scope == "lag"}:
        snap = history.lagged(t, lag)
        codes = snap.codes  # i * n + j, the keys of a history of one draw
        if reps > 1:
            i, j = np.divmod(codes, len(snap.present))
            if snap.draws < reps:
                i = i + np.arange(reps)[:, None] * n
            codes = (i * n + j % n).ravel()
        lagged.append(codes)
    return lagged[0] if len(lagged) == 1 else np.unique(
        np.concatenate([np.empty(0, dtype=np.int64), *lagged]))


class _DyadLayout:
    """The dyads of blocks of n vertices side by side (a design's steps or a
    union's draws), vertex s * n + i being vertex i of block s, which has
    the vertex set ``present[s % len(present)]``: one set per block, or one
    every block shares.  Its dyads, pairs i < j of present vertices keyed
    (s * n + i) * n + j, take positions in row-major order, block after
    block; row a is the a-th present vertex and its ``later`` ones, from
    ``start[a]``.  Each set's class pairs (classes a <= b; edge terms are
    constant over one off the lagged ties) are numbered in ascending
    (set, a, b) where they have dyads, with ``sizes`` dyads and one in
    ``reps``: the set's first vertex of class a and first other of b.
    """

    def __init__(self, present, classes):
        sets, n = present.shape
        k = int(classes.max(initial=0)) + 1
        self.n, self.present, self._k, self._classes = n, present, k, classes
        self.vertex = vertex = np.flatnonzero(present)  # the rows of dyads, s * n + i
        m = np.count_nonzero(present, axis=1)
        self.counts = m * (m - 1) // 2  # dyads per vertex set
        self.offsets, self.total = np.cumsum(self.counts) - self.counts, int(self.counts.sum())
        self.later = np.cumsum(m).repeat(m) - 1 - np.arange(len(vertex))
        self.start = np.cumsum(self.later) - self.later

        # each set's classes of present vertices ("cells", ascending) and
        # its class pairs a <= b of them, numbered where they have dyads
        of_vertex = vertex // n
        key = of_vertex * k + classes[vertex - of_vertex * n]
        size = np.bincount(key, minlength=sets * k)
        cells = np.flatnonzero(size)
        cell, size = (np.cumsum(size > 0) - 1)[key], size[cells]
        of_set = cells // k
        run = np.bincount(of_set, minlength=sets)  # cells per set
        end, pos = np.cumsum(run), np.arange(len(cells))
        count = end[of_set] - pos  # this cell and the later ones of its set
        ca, cb = pos.repeat(count), _ranges(pos, count)
        same = ca == cb
        sizes = np.where(same, size[ca] * (size[ca] - 1) // 2, size[ca] * size[cb])
        has = sizes > 0

        # table[base[c] + local[c']]: the class pair of cells c, c' of a set,
        # in each set's run x run square (no dyad reads a pair without any)
        local = pos - (end - run)[of_set]
        base = (np.cumsum(run * run) - run * run)[of_set] + local * run[of_set]
        self._table = table = np.empty(int(np.sum(run * run)), dtype=np.int64)
        table[base[ca] + local[cb]] = table[base[cb] + local[ca]] = np.cumsum(has) - 1
        self._row, self._col = base[cell], local[cell]  # per present vertex

        by_class, first = vertex[np.argsort(key, kind="stable")], np.cumsum(size) - size
        ri, rj = by_class[first[ca[has]]], by_class[first[cb[has]] + same[has]]
        self.reps, self.sizes = (np.minimum(ri, rj), np.maximum(ri, rj)), sizes[has]
        self._pair_keys = cells[ca[has]] * k + cells[cb[has]] % k  # (set * k + a) * k + b

    def split(self, keys):
        """The endpoints s * n + i and s * n + j of the dyads ``keys``."""
        i, j = np.divmod(keys, self.n)
        return i, j + (i - i % self.n)

    def among(self, keys):
        """Whether both endpoints of each of ``keys`` are present."""
        flat = self.present.ravel()
        i, j = self.split(keys)
        return flat[i % len(flat)] & flat[j % len(flat)]

    def first(self, s):
        """The position of the first dyad of block s."""
        q, r = divmod(s, len(self.present))
        return q * self.total + int(self.offsets[r])

    def position(self, keys):
        """The position of each dyad of ``keys``, its endpoints ranked among the present."""
        q, keys = np.divmod(keys, self.present.size * self.n)
        a, b = (np.searchsorted(self.vertex, e) for e in self.split(keys))
        return q * self.total + self.start[a] + (b - a - 1)

    def pair_of(self, keys):
        """The class pair of each dyad of ``keys``, whose endpoints are present."""
        s, code = np.divmod(keys % (self.present.size * self.n), self.n * self.n)
        ci, cj = self._classes[code // self.n], self._classes[code % self.n]
        a, b = np.minimum(ci, cj), np.maximum(ci, cj)
        return np.searchsorted(self._pair_keys, (s * self._k + a) * self._k + b)

    def _pairs(self, a, b):
        """The class pair of every dyad of rows a..b-1, in position order."""
        later = self.later[a:b]
        return self._table[self._row[a:b].repeat(later) +
                           self._col[_ranges(np.arange(a + 1, b + 1), later)]]

    @cached_property
    def _period(self):
        """(i, j) of every dyad of the first period, by position."""
        return (self.vertex.repeat(self.later),
                self.vertex[_ranges(np.arange(1, len(self.vertex) + 1), self.later)])

    @cached_property
    def _period_pairs(self):
        """The class pair of every dyad of the first period, by position."""
        return self._pairs(0, len(self.vertex))

    def gather(self, values, lo, hi):
        """``values`` of the class pairs at the dyads of blocks lo..hi-1 of one
        period, or of any blocks one vertex set serves, broadcast per block.
        Under one class a set's dyads all read its one class pair, so its
        value is repeated over them, with no class pair per dyad."""
        one = len(self.present) == 1
        if self._k == 1:
            counts = self.counts if one else self.counts[lo:hi]
            first = 0 if one else np.count_nonzero(self.counts[:lo])
            counts = counts[counts > 0]  # the sets with dyads, whose pairs are numbered in turn
            row = values[first:first + len(counts)].repeat(counts)
        elif one:
            row = values[self._period_pairs]
        else:
            a, b = np.searchsorted(self.vertex, [lo * self.n, hi * self.n]).tolist()
            return values[self._pairs(a, b)]
        return np.broadcast_to(row, (hi - lo, len(row))) if one and hi - lo > 1 else row

    def kept(self, keep, lo, hi):
        """The codes i * width + j, ascending, of the dyads ``keep`` marks in
        blocks lo..hi-1 (width = (hi - lo) * n, i counted from block lo):
        by a searchsorted over the row starts, or from the period's codes."""
        width = (hi - lo) * self.n
        positions = np.flatnonzero(keep)
        if len(self.present) == 1:
            r = positions // max(self.total, 1)  # the block, counted from lo
            i, j = self._period
            return (i * width + j)[positions - r * self.total] + r * (self.n * (width + 1))
        positions += self.first(lo)
        a = np.searchsorted(self.start, positions, "right") - 1
        i = self.vertex[a] - lo * self.n
        return i * width + (self.vertex[a + 1 + (positions - self.start[a])] - lo * self.n)


def _edge_patterns(history, terms, steps, classes):
    """Edge rows of ``steps`` grouped as (each term's column, responses,
    trials): one row per lagged tie among a step's present vertices, then
    per class pair of the steps' ``_DyadLayout`` one row per response with
    its dyads off those ties.  Each term is evaluated once, on the ties and
    representatives (lag-scope terms on the ties alone).  Also returns
    (layout, ties, pair_rows) for ``_RowLayout``."""
    n = len(classes)
    snaps = [history.snapshot_at(t) for t in steps]
    present = np.stack([snap.present for snap in snaps])
    layout = _DyadLayout(present, classes)

    # current edges and lagged ties, keyed (step * n + i) * n + j, both
    # sorted: a step's codes are, and each step's keys exceed the last's
    edges = np.concatenate([s * n * n + snap.codes for s, snap in enumerate(snaps)])
    ties = np.concatenate([s * n * n + _lagged_codes(history, t, terms)
                           for s, t in enumerate(steps)])
    ties = ties[layout.among(ties)]
    tie_i, tie_j = layout.split(ties)

    pairs = len(layout.sizes)
    new = edges[~_is_edge(ties, edges)]
    ones = np.bincount(layout.pair_of(new), minlength=pairs)
    zeros = layout.sizes - np.bincount(layout.pair_of(ties), minlength=pairs) - ones
    left = np.flatnonzero(zeros + ones)
    dyad_i = np.concatenate([tie_i, layout.reps[0][left]])
    dyad_j = np.concatenate([tie_j, layout.reps[1][left]])

    responses = np.concatenate([_is_edge(edges, ties).astype(np.int8),
                                np.zeros(len(left), dtype=np.int8),
                                np.ones(len(left), dtype=np.int8)])
    trials = np.concatenate([np.ones(len(ties)), zeros[left], ones[left]])
    kept = trials > 0
    # each class pair's weighted row per response, -1 where it has none
    pair_rows = np.full((2, pairs), -1)
    pair_rows[:, left] = np.where(kept, np.cumsum(kept) - 1, -1)[len(ties):].reshape(2, -1)

    # a lag-scope term is 0 on the representatives, so only the ties need it
    flat = present.ravel()
    columns = []
    for term in terms:
        if term.scope == "lag":
            values = edge_term_values(term, history, steps, tie_i, tie_j, flat)
            values = np.concatenate([values, np.zeros(2 * len(left))])
        else:
            values = edge_term_values(term, history, steps, dyad_i, dyad_j, flat)
            values = np.concatenate([values, values[len(ties):]])
        columns.append(values[kept])
    return (columns, responses[kept], trials[kept]), (layout, ties, pair_rows)


@dataclass(frozen=True)
class _RowLayout:
    """Which weighted row of ``build_design``, and so which pattern
    (``pattern_of`` each weighted row), each row of its design is.  The n
    vertex rows of each of ``vertex_steps`` come first, each its own, then
    the dyad rows of ``edge_steps`` by position in their layout ``dyads``:
    a lagged tie among present vertices is its own, in the order of
    ``ties``, any other dyad its class pair p's ``pair_rows[response, p]``.
    """

    history: History
    pattern_of: np.ndarray
    vertex_steps: np.ndarray
    edge_steps: np.ndarray
    dyads: _DyadLayout | None = None
    ties: np.ndarray | None = None
    pair_rows: np.ndarray | None = None

    def expand(self):
        """(the pattern of every row, its tags), by integer work."""
        n, steps = len(self.history.risk_set), len(self.edge_steps)
        nv = n * len(self.vertex_steps)
        of = self.pattern_of[nv:]  # of each weighted edge row
        per_step, ii, jj = np.zeros(steps, dtype=np.int64), of[:0], of[:0]
        if steps:
            layout = self.dyads
            per_step = layout.counts
            # where pair_rows is -1 the gather is junk that no dyad reads
            pair, tie = of[self.pair_rows], of[:len(self.ties)]
            of = layout.gather(pair[0], 0, steps)
            edges = np.concatenate([s * n * n + self.history.snapshot_at(t).codes
                                    for s, t in enumerate(self.edge_steps)])
            of[layout.position(edges)] = pair[1, layout.pair_of(edges)]
            of[layout.position(self.ties)] = tie
            codes = layout.kept(np.ones(len(of), dtype=bool), 0, steps)
            ii, jj = (ends % n for ends in np.divmod(codes, steps * n))
        tags = TagTable(
            np.repeat(np.array([0, 1], dtype=np.uint8), [nv, len(ii)]),
            np.concatenate([self.vertex_steps.repeat(n), self.edge_steps.repeat(per_step)]),
            np.concatenate([np.tile(np.arange(n), len(self.vertex_steps)), ii]),
            np.concatenate([np.full(nv, -1), jj]),
        )
        return np.concatenate([self.pattern_of[:nv], of]), tags


def build_design(panel: NetworkPanel, spec: ModelSpec,
                 align_to_lag: int | None = None) -> DesignMatrix:
    """Assemble the stacked design over every usable transition step.

    A step is usable when its whole lag window resolves under the spec's
    gap policy: observed under ``exclude``, bridgeable under ``bridge``.
    ``align_to_lag`` forces a deeper history requirement so that several
    candidate models can be fit on identical rows and compared by BIC.

    The design is built from its binomial patterns: n vertex rows per step
    and the step's edge rows grouped by endpoint classes and lagged ties
    (see the module docstring).  Its rows are expanded only when read.
    """
    history = History(panel, spec.gap_policy)
    window = max(spec.max_lag, align_to_lag or 0)
    steps = usable_transitions(history, window)
    if not steps:
        raise DesignError(
            f"no usable transition steps (max lag {window}, policy {spec.gap_policy!r})"
        )

    n = len(panel.risk_set)
    kv, ke = len(spec.vertex_terms), len(spec.edge_terms)
    classes = _endpoint_classes(panel.risk_set, spec.edge_terms) if ke else None

    present = np.array([panel.at(t).present for t in steps], dtype=bool)
    m = present.sum(axis=1)
    dyad_rows = (m * (m - 1) // 2 * bool(ke)).tolist()
    row_steps = tuple(t for t, rows in zip(steps, dyad_rows) if rows or (kv and n))
    edge_steps = [t for t, rows in zip(steps, dyad_rows) if rows]
    ne = sum(dyad_rows)
    nv = n * len(steps) if kv else 0
    if nv + ne == 0:
        raise DesignError("design has no rows (no vertex terms and no present dyads)")

    v_columns, v_resp = [], np.empty(0, dtype=np.int8)
    if kv:
        v_columns = [vertex_term_values(term, history, steps) for term in spec.vertex_terms]
        v_resp = present.ravel().astype(np.int8)

    e_columns, e_resp, e_trials = [np.empty(0)] * ke, np.empty(0, dtype=np.int8), np.empty(0)
    edge_layout = ()
    if edge_steps:
        (e_columns, e_resp, e_trials), edge_layout = _edge_patterns(
            history, spec.edge_terms, edge_steps, classes)
    responses = np.concatenate([v_resp, e_resp])
    trials = np.concatenate([np.ones(nv), e_trials])
    patterns, pattern_of = _collapse(_term_columns(v_columns, e_columns, nv), responses, nv,
                                     trials)
    layout = _RowLayout(history, pattern_of, np.array(steps if kv else [], dtype=np.int64),
                        np.array(edge_steps, dtype=np.int64), *edge_layout)
    return DesignMatrix._from_patterns(
        patterns, layout,
        column_names=spec.column_names, n_vertex_terms=kv, n_vertex_rows=nv,
        n_rows=nv + ne, steps=row_steps,
    )


def _csv_line(fields) -> str:
    """``fields`` as one CSV line ending in "\\n", a field quoted (its quotes
    doubled) when it holds a comma, a quote or a line break: written with
    "\\r\\n" line ends, since under "\\n" ``csv`` leaves a lone "\\r" bare."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(fields)
    return line.getvalue()[:-2] + "\n"


def dump_design(dm: DesignMatrix, risk_set, triplet_path, columns_path, tags_path):
    """Write the design as (row, col, value) triplets plus column/tag CSVs,
    for cross-checking against external GLM software.  Each pattern's
    triplet text and each label are formatted once, and each row writes
    its pattern's text."""
    of, x, responses, tags = dm._gather()
    nnz = np.diff(x.indptr)
    texts = []  # per pattern: "", then " col value\n" per entry in column order
    for lo, hi in zip(x.indptr[:-1].tolist(), x.indptr[1:].tolist()):
        order = np.argsort(x.indices[lo:hi], kind="stable")
        texts.append(["", *(f" {c} {float(v)!r}\n" for c, v in zip(
            x.indices[lo:hi][order].tolist(), x.data[lo:hi][order].tolist()))])
    with open(triplet_path, "w", encoding="utf-8") as fh:
        fh.write(f"# rows={dm.n_rows} cols={dm.n_cols} nnz={int(nnz[of].sum())}\n")
        fh.writelines(map(str.join, map(str, range(dm.n_rows)),
                          [texts[p] for p in of.tolist()]))
    with open(columns_path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(map(_csv_line, [("col", "name"), *enumerate(dm.column_names)]))
    # each label as a CSV field, and "" for the j of a vertex row (-1)
    labels = [_csv_line([label, ""])[:-2] for label in risk_set.labels] + [""]
    kinds = ("vertex", "edge")
    responses = responses.astype(np.int8)[of]
    with open(tags_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,kind,t,i,j,response\n")
        fh.writelines(
            f"{r},{kinds[k]},{t},{labels[i]},{labels[j]},{y}\n" for r, k, t, i, j, y in zip(
                range(dm.n_rows), tags.kind.tolist(), tags.t.tolist(), tags.i.tolist(),
                tags.j.tolist(), responses.tolist()))
