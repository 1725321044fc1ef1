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
lag scope.  The rows themselves (``responses``, ``features``, ``tags``)
are expanded on first access, as ``--dump-design`` does, and only up to
``ROW_BUDGET`` rows.  Each row is a pointer to its pattern: a vertex row
is its own weighted row, a dyad row its lagged tie's or else its class
pair's and response's, so rows are gathered from the patterns by integer
work alone.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .panel import NetworkPanel, _ranges, dyads
from .terms import (
    History,
    ModelSpec,
    SpecError,
    _is_edge,
    edge_term_values,
    resolve_lag,
    usable_transitions,
    vertex_term_values,
)

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


def _row_patterns(features, responses, n_vertex_rows, trials):
    """(Patterns, the pattern of each row) of weighted rows, grouped by an
    exact key built column by column from the CSC form, summing their
    ``trials``: each column's values are factorized and their codes added
    into one int64 key per row in mixed radix, renumbering the partial key
    whenever the next radix would overflow it.  An explicitly stored zero
    gets a code of its own, so rows equal in value may land in two
    patterns; the likelihood does not change, and every row is its
    pattern's row, stored entries included."""
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
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    trials = np.bincount(key, weights=trials)
    order = np.argsort(first)
    first, trials = first[order], trials[order]
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order))
    return Patterns(
        features=features.tocsr()[first],
        responses=responses[first].astype(float),
        trials=trials,
        n_vertex_patterns=int(np.searchsorted(first, n_vertex_rows)),
    ), rank[key]


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
            self._patterns = _row_patterns(features, responses, self.n_vertex_rows,
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
    """Sorted codes of the dyads tied in ``history`` at the lag, from step
    t, of some lag-scope term of ``terms``: i * (draws * n) + j over the
    union of the history's draws, where a snapshot the draws share is
    tiled once per draw."""
    n, reps = len(history.risk_set), history.draws
    lagged = []
    for lag in {term.lag for term in terms if term.scope == "lag"}:
        snap = history.snapshot_at(resolve_lag(history, t, lag))
        codes = snap.codes
        if snap.draws < reps:
            i, j = np.divmod(codes, n)
            shift = np.arange(reps)[:, None] * n
            codes = ((i + shift) * (reps * n) + (j + shift)).ravel()
        lagged.append(codes)
    return lagged[0] if len(lagged) == 1 else np.unique(
        np.concatenate([np.empty(0, dtype=np.int64), *lagged]))


def _edge_patterns(history, terms, steps, classes):
    """Edge rows of ``steps`` grouped as (features, responses, trials): one
    row per lagged tie among a step's present vertices, then per step and
    pair of endpoint classes (a <= b) one row per response with its dyads
    off those ties, on which lag-scope terms are 0.  The counting runs
    over all steps at once, and so does each term: it is evaluated once,
    with the steps side by side as blocks of n vertices, on every step's
    ties and one representative dyad per class pair (on the ties alone
    when it has lag scope).  Also returns (ties, pair_keys, pair_rows),
    where ``_RowLayout`` finds each dyad's row."""
    n, k = len(classes), int(classes.max()) + 1
    snaps = [history.snapshot_at(t) for t in steps]
    present = np.stack([snap.present for snap in snaps])

    # present vertices by (step, class) cell; class pairs a <= b of a step,
    # keyed (step * k + a) * k + b and enumerated in ascending key order
    step_of, vertex = np.nonzero(present)
    cell = step_of * k + classes[vertex]
    size = np.bincount(cell, minlength=len(steps) * k)
    by_class = vertex[np.argsort(cell, kind="stable")]
    first = np.cumsum(size) - size
    seen = np.flatnonzero(size)
    run = np.bincount(seen // k, minlength=len(steps))
    pos = np.arange(len(seen))
    count = np.cumsum(run).repeat(run) - pos  # this class and the later ones
    ca, cb = seen.repeat(count), seen[_ranges(pos, count)]
    pair_keys = ca * k + cb % k
    same = ca == cb
    dyad_count = np.where(same, size[ca] * (size[ca] - 1) // 2, size[ca] * size[cb])

    def pair_of(keys):  # (step * n + i) * n + j -> index into pair_keys
        s, code = np.divmod(keys, n * n)
        ci, cj = classes[code // n], classes[code % n]
        return np.searchsorted(pair_keys, (s * k + np.minimum(ci, cj)) * k + np.maximum(ci, cj))

    # current edges and lagged ties, keyed (step * n + i) * n + j, both
    # sorted: a step's codes are, and each step's keys exceed the last's
    edges = np.concatenate([s * n * n + snap.codes for s, snap in enumerate(snaps)])
    ties = np.concatenate([s * n * n + _lagged_codes(history, t, terms)
                           for s, t in enumerate(steps)])
    s, code = np.divmod(ties, n * n)
    ti, tj = np.divmod(code, n)
    among = present[s, ti] & present[s, tj]
    # the steps side by side as blocks of n: vertex i at step s is s * n + i
    ties, tie_i, tie_j = ties[among], (s * n + ti)[among], (s * n + tj)[among]

    new = edges[~_is_edge(ties, edges)]
    ones = np.bincount(pair_of(new), minlength=len(pair_keys))
    zeros = dyad_count - np.bincount(pair_of(ties), minlength=len(pair_keys)) - ones
    left = np.flatnonzero(zeros + ones)
    ca, cb = ca[left], cb[left]
    # the first present vertex of class a and the first other one of class b
    ri, rj = by_class[first[ca]], by_class[first[cb] + same[left]]
    at = ca // k * n
    dyad_i = np.concatenate([tie_i, at + np.minimum(ri, rj)])
    dyad_j = np.concatenate([tie_j, at + np.maximum(ri, rj)])

    # a lag-scope term is 0 on the representatives, so only the ties need it
    flat = present.ravel()
    n_ties, n_reps = len(ties), len(left)
    features = np.zeros((n_ties + 2 * n_reps, len(terms)))
    for c, term in enumerate(terms):
        if term.scope == "lag":
            features[:n_ties, c] = edge_term_values(term, history, steps, tie_i, tie_j, flat)
        else:
            values = edge_term_values(term, history, steps, dyad_i, dyad_j, flat)
            features[:n_ties + n_reps, c] = values
            features[n_ties + n_reps:, c] = values[n_ties:]
    responses = np.concatenate([_is_edge(edges, ties).astype(np.int8),
                                np.zeros(len(left), dtype=np.int8),
                                np.ones(len(left), dtype=np.int8)])
    trials = np.concatenate([np.ones(len(ties)), zeros[left], ones[left]])
    kept = trials > 0
    # each class pair's weighted row per response, -1 where it has none
    pair_rows = np.full((2, len(pair_keys)), -1)
    pair_rows[:, left] = np.where(kept, np.cumsum(kept) - 1, -1)[len(ties):].reshape(2, -1)
    return (features[kept], responses[kept], trials[kept]), (ties, pair_keys, pair_rows)


@dataclass(frozen=True)
class _RowLayout:
    """Which weighted row of ``build_design`` each row of its design is,
    and so which pattern: ``pattern_of`` each weighted row.

    The n vertex rows of each of ``vertex_steps`` come first, each its own
    weighted row.  The dyad rows of ``edge_steps`` follow, step by step in
    row-major order.  A lagged tie among present vertices is its own
    weighted edge row, in the order of ``ties`` (keyed (s * n + i) * n + j
    at the s-th edge step).  Any other dyad is the weighted edge row
    ``pair_rows[response, p]`` of its class pair ``pair_keys[p]``, keyed
    (s * k + a) * k + b over its endpoints' ``classes`` a <= b.
    """

    history: History
    pattern_of: np.ndarray
    vertex_steps: np.ndarray
    edge_steps: np.ndarray
    classes: np.ndarray | None = None
    ties: np.ndarray | None = None
    pair_keys: np.ndarray | None = None
    pair_rows: np.ndarray | None = None

    def expand(self):
        """(the pattern of every row, its tags), by integer work."""
        n, steps = len(self.history.risk_set), len(self.edge_steps)
        nv = n * len(self.vertex_steps)
        present = np.array([self.history.snapshot_at(t).present for t in self.edge_steps],
                           dtype=bool).reshape(steps, n)
        m = present.sum(axis=1)
        per_step = m * (m - 1) // 2
        ii, jj = dyads(np.nonzero(present)[1], m)
        of = self.pattern_of[nv:]  # of each weighted edge row
        if steps:
            ci, cj = self.classes[ii], self.classes[jj]
            k = int(self.classes.max()) + 1
            key = np.minimum(ci, cj)
            key += np.arange(0, steps * k, k).repeat(per_step)
            key *= k
            key += np.maximum(ci, cj, out=ci)
            del ci, cj
            p = np.searchsorted(self.pair_keys, key)
            # where pair_rows is -1 the gather is junk that no dyad reads
            pair, tie = of[self.pair_rows], of[:len(self.ties)]
            of = pair[0, p]

            rank = np.cumsum(present, axis=1) - 1  # among the step's present vertices
            first = np.cumsum(per_step) - per_step

            def row_of(keys):  # (s * n + i) * n + j -> its dyad row
                s, i, j = keys // (n * n), keys // n % n, keys % n
                a, b = rank[s, i], rank[s, j]
                return first[s] + a * m[s] - a * (a + 1) // 2 + b - a - 1

            edges = row_of(np.concatenate([s * n * n + self.history.snapshot_at(t).codes
                                           for s, t in enumerate(self.edge_steps)]))
            of[edges] = pair[1, p[edges]]
            of[row_of(self.ties)] = tie
        tags = TagTable(
            np.repeat(np.array([0, 1], dtype=np.uint8), [nv, len(ii)]),
            np.concatenate([self.vertex_steps.repeat(n), self.edge_steps.repeat(per_step)]),
            np.concatenate([np.tile(np.arange(n), len(self.vertex_steps)), ii]),
            np.concatenate([np.full(nv, -1), jj]),
        )
        return np.concatenate([self.pattern_of[:nv], of]), tags


def _stack(v_blocks, e_blocks, kv, ke):
    """The block-diagonal CSR of the vertex and the edge blocks."""
    vmat = sp.csr_matrix(np.vstack(v_blocks)) if v_blocks else sp.csr_matrix((0, kv))
    emat = sp.csr_matrix(np.vstack(e_blocks)) if e_blocks else sp.csr_matrix((0, ke))
    nv, ne = vmat.shape[0], emat.shape[0]
    return sp.bmat([[vmat, sp.csr_matrix((nv, ke))],
                    [sp.csr_matrix((ne, kv)), emat]], format="csr")


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

    v_blocks, v_resp = [], np.empty(0, dtype=np.int8)
    if kv:
        v_blocks.append(np.column_stack([vertex_term_values(term, history, steps)
                                         for term in spec.vertex_terms]))
        v_resp = present.ravel().astype(np.int8)

    e_blocks, e_resp, e_trials = [], np.empty(0, dtype=np.int8), np.empty(0)
    edge_layout = ()
    if edge_steps:
        (block, e_resp, e_trials), edge_layout = _edge_patterns(
            history, spec.edge_terms, edge_steps, classes)
        e_blocks.append(block)
    responses = np.concatenate([v_resp, e_resp])
    trials = np.concatenate([np.ones(nv), e_trials])
    patterns, pattern_of = _row_patterns(_stack(v_blocks, e_blocks, kv, ke), responses,
                                         nv, trials)
    layout = _RowLayout(history, pattern_of, np.array(steps if kv else [], dtype=np.int64),
                        np.array(edge_steps, dtype=np.int64), classes, *edge_layout)
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
