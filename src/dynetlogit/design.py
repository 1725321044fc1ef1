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
the class sizes and whose successes from the current edges.  The rows
themselves (``responses``, ``features``, ``tags``) are expanded on first
access, as ``--dump-design`` does, and only up to ``ROW_BUDGET`` rows.
A step's edge rows are gathered from the values of its lagged ties and of
one representative dyad per class pair, the dyads that ``_dyad_rows``
picks; simulation draws its edges through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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

# Most rows a design built from a panel expands to.  With three edge terms
# expanding peaks at about 165 bytes per row (185 MB under tracemalloc for
# the million workload's 1.13M rows), so about 1.6 GB here, more with more
# terms; the fit never expands rows.
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


def _row_patterns(features, responses, n_vertex_rows, trials) -> Patterns:
    """Group weighted rows by an exact key built column by column from the
    CSC form, summing their ``trials``: each column's values are factorized
    and their codes added into one int64 key per row in mixed radix,
    renumbering the partial key whenever the next radix would overflow it.
    An explicitly stored zero gets a code of its own, so rows equal in value
    may land in two patterns; the likelihood does not change."""
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
    del key
    order = np.argsort(first)
    first, trials = first[order], trials[order]
    return Patterns(
        features=features.tocsr()[first],
        responses=responses[first].astype(float),
        trials=trials,
        n_vertex_patterns=int(np.searchsorted(first, n_vertex_rows)),
    )


class DesignMatrix:
    """Responses, sparse features, and row provenance for one model fit.

    Made from rows, a design collapses them into its binomial ``patterns``
    on first use.  ``build_design`` makes it from the patterns instead, and
    its rows are expanded from the panel on first access, at most
    ``ROW_BUDGET`` of them.  Either way both are kept: a design is not
    modified once built.  ``steps`` are the times that have rows.
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
        self._rows = self._expand = self._patterns = None

    @classmethod
    def _from_patterns(cls, patterns, expand, column_names, n_vertex_terms,
                       n_vertex_rows, n_rows, steps):
        dm = cls.__new__(cls)
        dm._set(column_names, n_vertex_terms, n_vertex_rows, n_rows, steps)
        dm._patterns, dm._expand = patterns, expand
        return dm

    def rows(self):
        """(responses, features, tags), expanded on the first call if the
        design was built from a panel."""
        if self._rows is None:
            if self.n_rows > ROW_BUDGET:
                raise DesignError(
                    f"the design has {self.n_rows:,} rows, over the row budget of "
                    f"{ROW_BUDGET:,}; fit does not need them (it runs on the "
                    f"design's binomial patterns), only reading rows, as "
                    f"--dump-design does, expands them"
                )
            self._rows = self._expand()
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
                                           np.ones(self.n_rows))
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


def _dyad_rows(ii, jj, classes, draws, lagged):
    """The dyads an edge term is evaluated on, for dyads (ii, jj) of the
    union of a history's ``draws`` draws, vertex r * n + i being vertex i
    of draw r.

    A dyad is a lagged tie when its code i * (draws * n) + j is in
    ``lagged``, as ``_lagged_codes`` gives them; every other dyad's class
    is its draw and the pair of its endpoints' ``classes``.  Every edge
    term is constant over the dyads of one class, lag-scope terms being 0
    there.  ``rows`` lists every lagged tie, then one representative per
    class, and ``of`` is each dyad's position in ``rows``, so a term's
    values on ``(ii[rows], jj[rows])`` gathered by ``of`` are its values
    on every dyad.
    """
    n, k = len(classes), int(classes.max(initial=0)) + 1
    # per union vertex: its class plus k times its draw, so that a dyad's
    # two values, ordered, key its class (draw, a, b) below draws * k * (k + 1)
    cls = (np.arange(draws)[:, None] * k + classes).ravel()
    tie = _is_edge(lagged, ii * (draws * n) + jj)
    ties, free = np.flatnonzero(tie), np.flatnonzero(~tie)
    a, b = cls[ii[free]], cls[jj[free]]
    key = np.minimum(a, b)
    key *= k
    key += np.maximum(a, b, out=a)
    del a, b
    size = draws * k * (k + 1)
    if size <= len(ii):  # a table over every key, unless it outgrows the dyads
        slot = np.full(size, -1)
        slot[key] = free  # whichever dyad lands here, it represents its class
        keys = np.flatnonzero(slot >= 0)
        reps = slot[keys]
        slot[keys] = np.arange(len(keys))
        key = slot[key]
    else:
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
        reps = free[first]
    of = np.empty(len(ii), dtype=np.int64)
    of[ties] = np.arange(len(ties))
    of[free] = key + len(ties)
    return np.concatenate([ties, reps]), of


def _vertex_block(history, terms, t):
    """Step t's vertex rows: one per risk-set vertex."""
    return np.column_stack([vertex_term_values(term, history, t) for term in terms])


def _edge_patterns(history, terms, steps, classes):
    """Edge rows of ``steps`` grouped as (features, responses, trials): one
    row per lagged tie among a step's present vertices, then per step and
    pair of endpoint classes (a <= b) one row per response with its dyads
    off those ties, on which lag-scope terms are 0.  The counting runs
    over all steps at once; each term is evaluated once per step, on the
    step's ties and one representative dyad per class pair."""
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
    ties, ties_at = ties[among], np.column_stack([s, ti, tj])[among]

    new = edges[~_is_edge(ties, edges)]
    ones = np.bincount(pair_of(new), minlength=len(pair_keys))
    zeros = dyad_count - np.bincount(pair_of(ties), minlength=len(pair_keys)) - ones
    left = np.flatnonzero(zeros + ones)
    ca, cb = ca[left], cb[left]
    # the first present vertex of class a and the first other one of class b
    ri, rj = by_class[first[ca]], by_class[first[cb] + same[left]]
    reps = np.column_stack([ca // k, np.minimum(ri, rj), np.maximum(ri, rj)])

    tie_blocks, rep_blocks = [], []
    tie_cut = np.searchsorted(ties_at[:, 0], np.arange(len(steps) + 1))
    rep_cut = np.searchsorted(reps[:, 0], np.arange(len(steps) + 1))
    for s, (t, snap) in enumerate(zip(steps, snaps)):
        dyad = np.concatenate([ties_at[tie_cut[s]:tie_cut[s + 1]],
                               reps[rep_cut[s]:rep_cut[s + 1]]])
        values = np.column_stack([
            edge_term_values(term, history, t, dyad[:, 1], dyad[:, 2], snap.present)
            for term in terms])
        cut = tie_cut[s + 1] - tie_cut[s]
        tie_blocks.append(values[:cut])
        rep_blocks.append(values[cut:])
    rep_values = np.vstack(rep_blocks)
    rep_values[:, np.array([term.scope == "lag" for term in terms])] = 0.0
    features = np.vstack(tie_blocks + [rep_values, rep_values])
    responses = np.concatenate([_is_edge(edges, ties).astype(np.int8),
                                np.zeros(len(left), dtype=np.int8),
                                np.ones(len(left), dtype=np.int8)])
    trials = np.concatenate([np.ones(len(ties)), zeros[left], ones[left]])
    kept = trials > 0
    return features[kept], responses[kept], trials[kept]


def _stack(v_blocks, e_blocks, kv, ke):
    """The block-diagonal CSR of the vertex and the edge blocks."""
    vmat = sp.csr_matrix(np.vstack(v_blocks)) if v_blocks else sp.csr_matrix((0, kv))
    emat = sp.csr_matrix(np.vstack(e_blocks)) if e_blocks else sp.csr_matrix((0, ke))
    nv, ne = vmat.shape[0], emat.shape[0]
    return sp.bmat([[vmat, sp.csr_matrix((nv, ke))],
                    [sp.csr_matrix((ne, kv)), emat]], format="csr")


def _concat(arrays, dtype):
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


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

    v_blocks, v_resp = [], []
    row_steps, edge_steps, ne = [], [], 0
    for t in steps:
        snap = panel.at(t)
        if kv:
            v_blocks.append(_vertex_block(history, spec.vertex_terms, t))
            v_resp.append(snap.present.astype(np.int8))
        m = snap.n_present
        dyad_rows = m * (m - 1) // 2 if ke else 0
        if (kv and n) or dyad_rows:
            row_steps.append(t)
        if dyad_rows:
            edge_steps.append(t)
            ne += dyad_rows

    nv = n * len(v_resp)
    if nv + ne == 0:
        raise DesignError("design has no rows (no vertex terms and no present dyads)")

    e_blocks, e_resp, e_trials = [], np.empty(0, dtype=np.int8), np.empty(0)
    if edge_steps:
        block, e_resp, e_trials = _edge_patterns(history, spec.edge_terms, edge_steps,
                                                 classes)
        e_blocks.append(block)
    responses = np.concatenate([_concat(v_resp, np.int8), e_resp])
    trials = np.concatenate([np.ones(nv), e_trials])
    patterns = _row_patterns(_stack(v_blocks, e_blocks, kv, ke), responses, nv, trials)
    return DesignMatrix._from_patterns(
        patterns, partial(_design_rows, history, spec, steps, classes),
        column_names=spec.column_names, n_vertex_terms=kv, n_vertex_rows=nv,
        n_rows=nv + ne, steps=tuple(row_steps),
    )


def _design_rows(history, spec, steps, classes):
    """(responses, features, tags) of every row: one per (step, risk-set
    vertex) and one per (step, present dyad), the edge rows gathered from
    the rows ``_dyad_rows`` picks."""
    n = len(history.risk_set)
    kv, ke = len(spec.vertex_terms), len(spec.edge_terms)

    v_blocks, v_resp, v_t = [], [], []
    e_blocks, e_resp, e_t, e_i, e_j = [], [], [], [], []

    for t in steps:
        snap = history.snapshot_at(t)
        if kv:
            v_blocks.append(_vertex_block(history, spec.vertex_terms, t))
            v_resp.append(snap.present.astype(np.int8))
            v_t.append(np.full(n, t, dtype=np.int64))
        if ke:
            ii, jj = dyads(snap.present_indices)
            if len(ii) == 0:
                continue
            rows, of = _dyad_rows(ii, jj, classes, 1,
                                  _lagged_codes(history, t, spec.edge_terms))
            ri, rj = ii[rows], jj[rows]
            cols = [edge_term_values(term, history, t, ri, rj, snap.present)
                    for term in spec.edge_terms]
            e_blocks.append(np.column_stack(cols).take(of, axis=0))
            e_resp.append(_is_edge(snap.codes, ii * n + jj).astype(np.int8))
            e_t.append(np.full(len(ii), t, dtype=np.int64))
            e_i.append(ii)
            e_j.append(jj)

    nv = sum(len(r) for r in v_resp)
    ne = sum(len(r) for r in e_resp)
    responses = np.concatenate([_concat(v_resp, np.int8), _concat(e_resp, np.int8)])
    tags = TagTable(
        np.concatenate([np.zeros(nv, dtype=np.uint8), np.ones(ne, dtype=np.uint8)]),
        np.concatenate([_concat(v_t, np.int64), _concat(e_t, np.int64)]),
        np.concatenate([np.tile(np.arange(n, dtype=np.int64), len(v_resp)),
                        _concat(e_i, np.int64)]),
        np.concatenate([np.full(nv, -1, dtype=np.int64), _concat(e_j, np.int64)]),
    )
    return responses, _stack(v_blocks, e_blocks, kv, ke), tags


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
