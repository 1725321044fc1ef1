"""Brute-force reference implementations used to check the fast paths.

Everything here favors obviousness over speed: triple enumeration, per-pair
BFS, whole-graph cycle enumeration (via networkx) and path enumeration by
DFS, instead of the identities and meet-in-the-middle counting used by the
package; one statistic at a time instead of a design column; one simulated
draw at a time instead of all replicates of a step at once, and each
projected replicate on a history of its own instead of all of them in
lockstep; a dense general-purpose optimizer instead of the package's
sparse damped Newton;
that Newton run on every Bernoulli row instead of on binomial patterns;
the Newton loop's products taken with scipy.sparse instead of on plain
arrays;
design rows with every edge term evaluated on every dyad instead of
gathered from the design's patterns, and grouped by
``np.unique`` over whole dense rows instead of patterns assembled from
endpoint classes and lagged ties; the design written one row at a time
from its rows instead of once per pattern; endpoint classes keyed by kind name
instead of read from the kind table's scopes and params; panel files read
one label at a time, or one snapshot at a time, and written through the
panel's JSON object and ``json.dumps`` instead of on arrays; and patterns
keyed from a block-diagonal CSR of all the weighted rows instead of from
the term columns; lag triangles and cycles counted with one kernel call
per lag snapshot instead of on unions of small ones; and class-pair
values gathered through an index per dyad even under one endpoint
class.  The tests' scalar and sub-design helpers
(``has_edge``, ``triangle_count``, ``split_design``,
``predict_probabilities``) live here too.
"""

import json
import math
from itertools import chain, combinations, repeat
from math import comb

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy import optimize, stats
from scipy.special import expit

from dynetlogit import (
    DesignMatrix,
    FitResult,
    NetworkPanel,
    PanelFormatError,
    PanelValidationError,
    PriorSpec,
    RiskSet,
    Snapshot,
    VertexRef,
)
from dynetlogit.design import _KEY_LIMIT, Patterns, TagTable, _endpoint_classes
from dynetlogit.gli import GLI_NAMES, gli_matrix
from dynetlogit.panel import _require, _typed, disjoint_union, presence_vector
from dynetlogit.simulate import (
    ProjectionResult,
    StepSampler,
    _generator,
    _seed_words,
    _split_theta,
    _step_keys,
    _weekday_attrs_fn,
)
from dynetlogit.solver import (
    _information_criteria,
    _prior_curvature,
    _prior_grad,
    _prior_log_const,
    _prior_logpdf,
    _prior_precision_em,
    _separating_columns,
    _solve_spd,
    _spd_inverse_diag,
)
from dynetlogit.terms import (
    History,
    SpecError,
    _is_edge,
    edge_term_values,
    pair_cycle_counts,
    triangle_counts,
    vertex_term_values,
)


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


def _index(v) -> int:
    return v.index if isinstance(v, VertexRef) else int(v)


def has_edge(snapshot, i, j) -> bool:
    """Whether the snapshot has the edge {i, j}."""
    return (min(i, j), max(i, j)) in set(map(tuple, snapshot.edges.tolist()))


def triangle_count(snapshot, p) -> int:
    """Triangles containing vertex p; the batch of one of triangle_counts."""
    return int(triangle_counts(snapshot)[_index(p)])


def vertex_stat(term, panel, t, p, policy="exclude") -> float:
    """One vertex statistic value; the per-row scalar entry of the design."""
    vals = vertex_term_values(term, History(panel, policy), t)
    return float(vals[_index(p)])


def edge_stat(term, panel, t, i, j, current_present, policy="exclude") -> float:
    """One edge statistic value for the dyad {i, j} given the current vertices."""
    i, j = sorted((_index(i), _index(j)))
    if i == j:
        raise ValueError("dyad endpoints must differ")
    bits = presence_vector(current_present, len(panel.risk_set))
    if not (bits[i] and bits[j]):
        raise ValueError(f"dyad ({i},{j}) endpoints must be in the current vertex set")
    vals = edge_term_values(term, History(panel, policy), t, np.array([i]), np.array([j]),
                            bits)
    return float(vals[0])


def endpoint_classes_by_kind(risk_set, terms):
    """Class of every risk-set vertex for the edge ``terms``, by kind name:
    its values of their mixing attributes and which of their individual
    dummies it is; the class ids ``design._endpoint_classes`` must give."""
    n = len(risk_set)
    key = np.zeros(n, dtype=np.int64)
    ident = np.zeros(n, dtype=np.int64)
    try:
        for attr in sorted({t.params["attr"] for t in terms if t.kind == "mixing"}):
            key = 2 * key + risk_set.attr_indicator(attr).astype(np.int64)
        labels = sorted({t.params["label"] for t in terms if t.kind == "individual_dummy"})
        ident[[risk_set.index_of(label) for label in labels]] = np.arange(1, len(labels) + 1)
    except KeyError as exc:
        raise SpecError(str(exc)) from None
    return np.unique(key * (len(labels) + 1) + ident, return_inverse=True)[1]


def step_draw_by_replicate(spec, theta_v, theta_e, history, t, rng=None, *,
                           threshold=False, fixed_vertex_set=False):
    """One snapshot drawn at step t on its own: the vertex set from
    ``rng.random(n)`` (or the 50-percent rule, or every vertex), then the
    dyads of the drawn set from ``np.triu_indices`` and their edge
    probabilities from the terms evaluated on that set alone, then one
    uniform per dyad in row-major order."""
    n = len(history.risk_set)
    if fixed_vertex_set:
        bits = np.ones(n, dtype=bool)
    else:
        eta = np.zeros(n)
        for theta, term in zip(theta_v, spec.vertex_terms):
            eta += theta * vertex_term_values(term, history, t)
        pv = expit(eta)
        bits = pv > 0.5 if threshold else rng.random(n) < pv
    idx = np.flatnonzero(bits)
    iu, ju = np.triu_indices(len(idx), 1)
    ii, jj = idx[iu], idx[ju]
    eta = np.zeros(len(ii))
    if len(ii):
        for theta, term in zip(theta_e, spec.edge_terms):
            eta += theta * edge_term_values(term, history, t, ii, jj, bits)
    pe = expit(eta)
    keep = pe > 0.5 if threshold else rng.random(len(pe)) < pe
    return Snapshot(t, bits, (ii[keep], jj[keep]), history.time_attrs_at(t) or {})


def project_by_replicate(fit, spec, panel, config):
    """n-step projection one replicate at a time: each replicate has a
    history of its own and draws every step with a sampler of its own, from
    its (seed, replicate, step) generator; the indices come from one
    ``gli_matrix`` call on the union of every drawn snapshot.  The result
    holds each step's draws as one union too, and its ``snapshots`` are the
    replicates' own draws, not cut from the unions."""
    theta_v, theta_e = _split_theta(fit, spec)
    start = panel.observed_times[-1] + 1
    steps = tuple(range(start, start + config.horizon))
    threshold = config.mode == "threshold50"
    attrs_fn = _weekday_attrs_fn(panel)
    classes = _endpoint_classes(panel.risk_set, spec.edge_terms)
    words = _seed_words(config.seed, _step_keys(steps, config.replicates, panel.t_min))

    trajectories = []
    for rep in range(config.replicates):
        history = History(panel, spec.gap_policy, attrs_fn)
        for h, target in enumerate(steps):
            sampler = StepSampler(spec, theta_v, theta_e, history, target,
                                  threshold=threshold,
                                  fixed_vertex_set=config.fixed_vertex_set,
                                  classes=classes)
            history.add(sampler.draw(_generator(words[h, rep])))
        trajectories.append(tuple(history.added[t] for t in steps))

    paths = gli_matrix(disjoint_union([s for traj in trajectories for s in traj]))
    result = ProjectionResult(
        steps=steps,
        gli_paths=paths.reshape(config.replicates, config.horizon, len(GLI_NAMES)),
        unions=tuple(disjoint_union(step) for step in zip(*trajectories)),
    )
    object.__setattr__(result, "snapshots", tuple(trajectories))
    return result


def logistic_fit_by_minimize(X, y, centers=None, scales=None, dfs=None):
    """Dense reference fit of a Bernoulli regression.

    Maximizes the log-likelihood, plus the independent Student-t log-prior
    (scipy.stats.t) when ``dfs`` is given, with scipy.optimize.minimize on
    the analytic gradient and Hessian.  Standard errors are the square roots
    of the diagonal of the inverse negative Hessian at the optimum.  Returns
    a dict with coefficients, std_errors, log_likelihood, deviance, bic and
    aic; the information criteria count every column and exclude the prior.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    prior = dfs is not None

    def neg_objective(theta):
        mu = expit(X @ theta)
        val = np.sum(y * np.log(mu) + (1 - y) * np.log1p(-mu))
        if prior:
            val += np.sum(stats.t.logpdf(theta, dfs, loc=centers, scale=scales))
        return -val

    def neg_gradient(theta):
        g = X.T @ (y - expit(X @ theta))
        if prior:
            d = theta - centers
            g = g - (dfs + 1) * d / (dfs * scales**2 + d**2)
        return -g

    def neg_hessian(theta):
        mu = expit(X @ theta)
        H = X.T @ (X * (mu * (1 - mu))[:, None])
        if prior:
            d2, s2 = (theta - centers) ** 2, dfs * scales**2
            H = H + np.diag((dfs + 1) * (s2 - d2) / (s2 + d2) ** 2)
        return H

    res = optimize.minimize(neg_objective, np.zeros(p), jac=neg_gradient,
                            hess=neg_hessian, method="Newton-CG",
                            options={"xtol": 1e-14, "maxiter": 1000})
    # certified on the gradient: the line search may stop on float noise
    # in the objective after the optimum is reached
    if np.abs(neg_gradient(res.x)).max() > 1e-7:
        raise RuntimeError(f"reference fit did not converge: {res.message}")
    theta = res.x
    mu = expit(X @ theta)
    ll = float(np.sum(y * np.log(mu) + (1 - y) * np.log1p(-mu)))
    deviance = -2.0 * ll
    return {
        "coefficients": theta,
        "std_errors": np.sqrt(np.diag(np.linalg.inv(neg_hessian(theta)))),
        "log_likelihood": ll,
        "deviance": deviance,
        "bic": deviance + p * math.log(n),
        "aic": deviance + 2.0 * p,
    }


def _row_loglik(eta, y):
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _row_xtwx(X, w):
    return (X.T @ X.multiply(w[:, None])).toarray()


class ScipyRows:
    """The Newton loop's three products on the active columns of a CSR,
    taken with scipy.sparse: the interface of ``solver._Rows``."""

    def __init__(self, features, active):
        self.X = features[:, active].tocsr()
        self.shape = self.X.shape

    def dot(self, theta):
        return self.X @ theta

    def rdot(self, v):
        return self.X.T @ v

    def xtwx(self, w):
        return _row_xtwx(self.X, w)


def fit_by_rows(dm, prior=None, tolerance=1e-8, max_iter=100):
    """The package's damped Newton fit run on every row of the design as a
    Bernoulli trial, without collapsing rows into binomial patterns: the
    same steps, line search, separation test and result as
    ``fit_posterior_mode``, so the two agree up to summation order.  The
    separation test runs on the rows, each of weight one."""
    prior = PriorSpec() if prior is None else prior
    nonzero = np.abs(dm.features).sum(axis=0).A1
    active = np.flatnonzero(nonzero > 0)
    notes = ()
    if len(active) < dm.n_cols:
        dead = [dm.column_names[c] for c in np.flatnonzero(nonzero == 0)]
        notes = (f"all-zero columns pinned at 0: {', '.join(dead)}",)
    use_prior = prior.kind != "none"
    if use_prior:
        centers, scales, dfs = prior.resolve(tuple(dm.column_names[c] for c in active))
        const = _prior_log_const(scales, dfs)
    X = dm.features.tocsr()[:, active].tocsr()
    y = dm.responses.astype(float)

    def objective(th):
        val = _row_loglik(X @ th, y)
        if use_prior:
            val += _prior_logpdf(th, centers, scales, dfs, const)
        return val

    def gradient(th):
        g = np.asarray(X.T @ (y - expit(X @ th))).ravel()
        if use_prior:
            g = g + _prior_grad(th, centers, scales, dfs)
        return g

    separating = ()
    if not use_prior:
        found = _separating_columns(X, y, np.ones(len(y)))
        separating = tuple(dm.column_names[c] for c in active[found])
    theta = np.zeros(X.shape[1])
    obj = objective(theta)
    iterations, converged, gnorm = 0, False, math.inf
    while iterations < max_iter:
        mu = expit(X @ theta)
        g = gradient(theta)
        gnorm = float(np.abs(g).max(initial=0.0))
        if gnorm <= tolerance:
            converged = True
            break
        iterations += 1
        H = _row_xtwx(X, mu * (1.0 - mu) + 1e-12)
        if use_prior:
            curv = None
            if gnorm < 1e-3:
                curv = _prior_curvature(theta, centers, scales, dfs)
                if np.any(H.diagonal() + curv <= 0):
                    curv = None
            if curv is None:
                curv = _prior_precision_em(theta, centers, scales, dfs)
            H = H + np.diag(curv)
        step = _solve_spd(H, g)
        gain = float(g @ step)
        noise = 1e-10 * max(1.0, abs(obj))
        lam = 1.0
        while lam > 1e-10:
            cand_obj = objective(theta + lam * step)
            if cand_obj >= obj + 1e-4 * lam * gain - noise:
                break
            lam *= 0.5
        else:
            break
        theta = theta + lam * step
        obj = cand_obj
    if not converged:
        gnorm = float(np.abs(gradient(theta)).max(initial=0.0))
    if separating:
        converged = False
        notes = notes + ("separation: no finite maximum likelihood estimate along "
                         + ", ".join(separating),)
    elif not converged:
        notes = notes + (f"no convergence in {max_iter} iterations",)

    coefficients = np.zeros(dm.n_cols)
    coefficients[active] = theta
    eta = X @ theta
    mu = expit(eta)
    ll = _row_loglik(eta, y)
    deviance = -2.0 * ll
    bic, aic = _information_criteria(deviance, dm.n_cols, dm.n_rows)
    H = _row_xtwx(X, mu * (1.0 - mu))
    penalized = None
    if use_prior:
        penalized = ll + _prior_logpdf(theta, centers, scales, dfs, const)
        d = _spd_inverse_diag(H + np.diag(_prior_curvature(theta, centers, scales, dfs)))
        if d is None:
            d = _spd_inverse_diag(
                H + np.diag(_prior_precision_em(theta, centers, scales, dfs)))
            notes = notes + ("std errors use the scale-mixture surrogate curvature",)
    else:
        d = _spd_inverse_diag(H)
    se = np.full(dm.n_cols, np.nan)
    if d is not None:
        se[active] = np.sqrt(d)
    else:
        notes = notes + ("information matrix singular at optimum; no std errors",)
    return FitResult(
        coefficients=coefficients, std_errors=se, log_likelihood=ll,
        deviance=deviance, bic=bic, aic=aic, n_obs=dm.n_rows,
        converged=converged, iterations=iterations, prior=prior,
        column_names=tuple(dm.column_names), gradient_norm=gnorm,
        separating_columns=separating, penalized_objective=penalized, notes=notes)


def grouped_rows(block, responses, features, trials=None):
    """Multiset of (block, response, feature row) -> summed trials, as the
    distinct dense rows in ``np.unique`` order and their trial sums; rows
    without ``trials`` count one each."""
    # whole rows compared as bytes (np.unique(axis=0) takes seconds on a
    # million rows); adding 0.0 turns -0.0 into 0.0, so bytes equal values
    full = np.column_stack([block, responses, features.toarray()]).astype(float) + 0.0
    keys = full.view(np.dtype((np.void, full.itemsize * full.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    weights = np.ones(len(full)) if trials is None else trials
    return full[first], np.bincount(inverse, weights=weights, minlength=len(first))


def _stack(v_blocks, e_blocks, kv, ke):
    """The block-diagonal CSR of the dense vertex and edge blocks."""
    vmat = sp.csr_matrix(np.vstack(v_blocks)) if v_blocks else sp.csr_matrix((0, kv))
    emat = sp.csr_matrix(np.vstack(e_blocks)) if e_blocks else sp.csr_matrix((0, ke))
    nv, ne = vmat.shape[0], emat.shape[0]
    return sp.bmat([[vmat, sp.csr_matrix((nv, ke))],
                    [sp.csr_matrix((ne, kv)), emat]], format="csr")


def patterns_by_csc(features, responses, n_vertex_rows, trials):
    """(Patterns, the pattern of each row) of the weighted rows of the CSR
    ``features``, keyed column by column from its CSC form, each pattern's
    row taken from the CSR."""
    key = responses.astype(np.int64)
    key[n_vertex_rows:] += 2
    base = 4
    csc = features.tocsc()
    for lo, hi in zip(csc.indptr[:-1], csc.indptr[1:]):
        if lo == hi:
            continue
        values, codes = np.unique(csc.data[lo:hi], return_inverse=True)
        radix = len(values) + 1
        if base > _KEY_LIMIT // radix:
            seen, key = np.unique(key, return_inverse=True)
            base = len(seen)
        codes += 1
        codes *= base
        key[csc.indices[lo:hi]] += codes
        base *= radix
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


def patterns_by_sparse_stack(v_columns, e_columns, responses, n_vertex_rows, trials):
    """``patterns_by_csc`` of the weighted rows whose vertex and edge terms
    take the values ``v_columns`` and ``e_columns``, stacked as dense
    blocks into one block-diagonal CSR."""
    kv, ke = len(v_columns), len(e_columns)
    features = _stack([np.column_stack(v_columns)] if kv else [],
                      [np.column_stack(e_columns)] if ke else [], kv, ke)
    return patterns_by_csc(features, responses, n_vertex_rows, trials)


def _concat(arrays, dtype):
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


def design_rows_by_dyad(panel, spec, steps):
    """(responses, features, tags) of the design's rows at ``steps``: one per
    (step, risk-set vertex) and one per (step, present dyad), every edge
    term evaluated on every dyad under the spec's gap policy."""
    history = History(panel, spec.gap_policy)
    n = len(history.risk_set)
    kv, ke = len(spec.vertex_terms), len(spec.edge_terms)

    v_blocks, v_resp, v_t = [], [], []
    e_blocks, e_resp, e_t, e_i, e_j = [], [], [], [], []

    for t in steps:
        snap = history.snapshot_at(t)
        if kv:
            v_blocks.append(np.column_stack([vertex_term_values(term, history, t)
                                             for term in spec.vertex_terms]))
            v_resp.append(snap.present.astype(np.int8))
            v_t.append(np.full(n, t, dtype=np.int64))
        if ke:
            ii, jj = dyads(snap.present_indices)
            if len(ii) == 0:
                continue
            cols = [edge_term_values(term, history, t, ii, jj, snap.present)
                    for term in spec.edge_terms]
            e_blocks.append(np.column_stack(cols))
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


def csv_field(text):
    """``text`` as one CSV field, as RFC 4180 has it: quoted, its quotes
    doubled, when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def dump_design_by_rows(dm, risk_set, triplet_path, columns_path, tags_path):
    """``design.dump_design`` one row at a time from ``dm.rows()``: one
    f-string per triplet, sorted by (row, col) from the COO form, and one
    per CSV row, its names and labels through ``csv_field``."""
    coo = dm.features.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(triplet_path, "w", encoding="utf-8") as fh:
        fh.write(f"# rows={dm.n_rows} cols={dm.n_cols} nnz={coo.nnz}\n")
        for r, c, v in zip(coo.row[order].tolist(), coo.col[order].tolist(),
                           coo.data[order].tolist()):
            fh.write(f"{r} {c} {float(v)!r}\n")
    with open(columns_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("col,name\n")
        for c, name in enumerate(dm.column_names):
            fh.write(f"{c},{csv_field(name)}\n")
    with open(tags_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,kind,t,i,j,response\n")
        tags, labels = dm.tags, risk_set.labels
        for r, (k, t, i, j, y) in enumerate(zip(tags.kind.tolist(), tags.t.tolist(),
                                                tags.i.tolist(), tags.j.tolist(),
                                                dm.responses.tolist())):
            if k == 0:
                kind, i, j = "vertex", labels[i], ""
            else:
                kind, i, j = "edge", labels[i], labels[j]
            fh.write(f"{r},{kind},{t},{csv_field(i)},{csv_field(j)},{y}\n")


def patterns_by_rows(dm, panel, spec):
    """The rows of ``dm``, a design of ``panel`` under ``spec`` and its gap
    policy, expanded dyad by dyad and grouped whole: independent of
    ``dm.patterns`` and of the dyad classification behind ``dm.rows()``."""
    responses, features, _ = design_rows_by_dyad(panel, spec, dm.steps)
    block = np.arange(len(responses)) >= dm.n_vertex_rows
    return grouped_rows(block, responses, features)


def split_design(dm):
    """Vertex-only and edge-only sub-designs; block diagonality makes the
    joint log-likelihood the sum of the parts at any coefficient split."""
    nv, kv = dm.n_vertex_rows, dm.n_vertex_terms
    tags = dm.tags

    def part(rows, cols, n_vertex_terms, n_vertex_rows):
        return DesignMatrix(
            responses=dm.responses[rows],
            features=dm.features[rows, cols].tocsr(),
            tags=TagTable(tags.kind[rows], tags.t[rows], tags.i[rows], tags.j[rows]),
            column_names=dm.column_names[cols],
            n_vertex_terms=n_vertex_terms,
            n_vertex_rows=n_vertex_rows,
        )

    return (part(slice(0, nv), slice(0, kv), kv, nv),
            part(slice(nv, dm.n_rows), slice(kv, dm.n_cols), 0, 0))


def predict_probabilities(fit, dm):
    """The fitted probability of every row of the design."""
    if dm.n_cols != len(fit.coefficients):
        raise ValueError(
            f"design has {dm.n_cols} columns, fit has {len(fit.coefficients)}"
        )
    return expit(dm.features @ fit.coefficients)


def panel_to_obj(panel):
    """The JSON object of a panel file, built one vertex and edge at a time."""
    rs = panel.risk_set
    risk = []
    for i, lab in enumerate(rs.labels):
        attrs = {k: rs.attrs[k][i] for k in sorted(rs.attrs) if rs.attrs[k][i] is not None}
        risk.append({"label": lab, "attrs": attrs})
    snaps = []
    for s in panel.snapshots:
        labels = [rs.labels[int(i)] for i in s.present_indices]
        edges = sorted(sorted((rs.labels[i], rs.labels[j])) for i, j in s.edges.tolist())
        snaps.append({
            "t": s.t,
            "attrs": dict(s.time_attrs),
            "present": labels,
            "edges": edges,
        })
    return {
        "risk_set": risk,
        "snapshots": snaps,
        "gaps": list(panel.gaps),
        "directed": False,
    }


def panel_json_by_dumps(panel):
    """The canonical panel text, from ``json.dumps`` of the whole object."""
    return json.dumps(panel_to_obj(panel), indent=2, sort_keys=True) + "\n"


def panel_from_obj_by_label(obj):
    """A panel from its JSON object, looking up one label at a time; the
    ``directed`` flag is checked after every snapshot has been read.  The
    shapes are checked as the loader checks them: lists, objects and
    integers where the file format has them."""
    if not isinstance(obj, dict):
        raise PanelFormatError("top level of a panel file must be an object")
    risk_entries = _require(obj, "risk_set", "panel file", list)
    labels, attr_dicts = [], []
    for k, entry in enumerate(risk_entries):
        labels.append(str(_require(entry, "label", f"risk_set[{k}]")))
        attr_dicts.append(dict(_typed(entry.get("attrs", {}), dict, f"attrs in risk_set[{k}]")))
    risk = RiskSet(labels, attr_dicts)
    n = len(risk)

    snapshots = []
    for k, rec in enumerate(_require(obj, "snapshots", "panel file", list)):
        t = _require(rec, "t", f"snapshots[{k}]", int)
        if not -2**63 <= t < 2**63:
            raise PanelFormatError(f"t in snapshots[{k}] must be a 64-bit integer, got {t}")
        present = []
        for lab in _require(rec, "present", f"snapshots[{k}]", list):
            try:
                present.append(risk.index_of(str(lab)))
            except KeyError:
                raise PanelValidationError(
                    f"present vertex {lab!r} at t={t} is not in the risk set"
                ) from None
        bits = presence_vector(present, n)
        edges = []
        listed = _require(rec, "edges", f"snapshots[{k}]")
        if not hasattr(listed, "__iter__"):
            raise PanelFormatError(f"edges at t={t} must be a list of label pairs, "
                                   f"got {json.dumps(listed)}")
        for edge in listed:
            if not isinstance(edge, list) or len(edge) != 2:
                raise PanelFormatError(f"edge at t={t} must be a pair of labels, "
                                       f"got {json.dumps(edge)}")
            a, b = edge
            try:
                i, j = risk.index_of(str(a)), risk.index_of(str(b))
            except KeyError as exc:
                raise PanelValidationError(f"edge label at t={t}: {exc}") from None
            if not (bits[i] and bits[j]):
                raise PanelValidationError(
                    f"edge endpoint absent at t={t}: ({a},{b})"
                )
            edges.append((i, j))
        attrs = _typed(rec.get("attrs", {}), dict, f"attrs in snapshots[{k}]")
        snapshots.append(Snapshot(t, bits, edges, attrs))

    if obj.get("directed", False):
        raise PanelValidationError("directed panels are not supported")
    gaps = _typed(obj.get("gaps", []), list, "gaps in panel file")
    for k, gap in enumerate(gaps):
        _typed(gap, int, f"gaps[{k}] in panel file")
    return NetworkPanel(risk, snapshots, gaps)


def _label_indices_by_snapshot(index, groups, count):
    """The risk-set index of each label in ``groups``, -1 where there is
    none, and whether every label was found; a miss is looked up again as
    ``str(label)``."""
    try:
        at = np.fromiter(map(index.get, chain.from_iterable(groups), repeat(-1)),
                         np.int64, count)
    except TypeError:  # an unhashable label
        at = np.full(count, -1, dtype=np.int64)
    if not count or at.min() >= 0:
        return at, True
    labels = list(chain.from_iterable(groups))
    for k in np.flatnonzero(at < 0).tolist():
        at[k] = index.get(str(labels[k]), -1)
    return at, bool(at.min() >= 0)


def _edge_indices_by_snapshot(risk, edges, bits, t):
    """Endpoint indices ``(ii, jj)`` of one snapshot's label pairs, naming
    its first bad edge."""
    try:
        edges = list(edges)
    except TypeError:
        raise PanelFormatError(f"edges at t={t} must be a list of label pairs, "
                               f"got {json.dumps(edges, default=repr)}") from None
    pairs = set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
    m = len(edges) if pairs else next(
        k for k, e in enumerate(edges) if type(e) is not list or len(e) != 2)
    ends, found = _label_indices_by_snapshot(risk._index, edges[:m], 2 * m)
    ii, jj = ends[0::2], ends[1::2]
    if m == len(edges) and found and bits[ends].all():
        return ii, jj
    ok = (ii >= 0) & (jj >= 0)
    ok[ok] = bits[ii[ok]] & bits[jj[ok]]
    k = int(np.argmin(ok)) if np.count_nonzero(ok) < m else m
    if k == m:
        raise PanelFormatError(f"edge at t={t} must be a pair of labels, "
                               f"got {json.dumps(edges[k], default=repr)}")
    a, b = edges[k]
    try:
        risk.index_of(str(a)), risk.index_of(str(b))
    except KeyError as exc:
        raise PanelValidationError(f"edge label at t={t}: {exc}") from None
    raise PanelValidationError(f"edge endpoint absent at t={t}: ({a},{b})")


def panel_from_obj_by_snapshot(obj):
    """A panel from its JSON object, one snapshot at a time: each
    snapshot's labels looked up, its edges checked and its codes sorted on
    their own, by the snapshot constructor."""
    if not isinstance(obj, dict):
        raise PanelFormatError("top level of a panel file must be an object")
    if obj.get("directed", False):
        raise PanelValidationError("directed panels are not supported")
    risk_entries = _require(obj, "risk_set", "panel file", list)
    labels, attr_dicts = [], []
    for k, entry in enumerate(risk_entries):
        labels.append(str(_require(entry, "label", f"risk_set[{k}]")))
        attr_dicts.append(_typed(entry.get("attrs", {}), dict, f"attrs in risk_set[{k}]"))
    risk = RiskSet(labels, attr_dicts)

    snapshots = []
    for k, rec in enumerate(_require(obj, "snapshots", "panel file", list)):
        t = _require(rec, "t", f"snapshots[{k}]", int)
        if not -2**63 <= t < 2**63:
            raise PanelFormatError(f"t in snapshots[{k}] must be a 64-bit integer, got {t}")
        present = _require(rec, "present", f"snapshots[{k}]", list)
        at, found = _label_indices_by_snapshot(risk._index, [present], len(present))
        if not found:
            raise PanelValidationError(f"present vertex {present[int(np.argmax(at < 0))]!r} "
                                       f"at t={t} is not in the risk set")
        bits = np.zeros(len(risk), dtype=bool)
        bits[at] = True
        edges = _edge_indices_by_snapshot(risk, _require(rec, "edges", f"snapshots[{k}]"),
                                          bits, t)
        attrs = _typed(rec.get("attrs", {}), dict, f"attrs in snapshots[{k}]")
        snapshots.append(Snapshot(t, bits, edges, attrs))
    gaps = _typed(obj.get("gaps", []), list, "gaps in panel file")
    for k, gap in enumerate(gaps):
        _typed(gap, int, f"gaps[{k}] in panel file")
    return NetworkPanel(risk, snapshots, gaps)


def dyads(indices, counts=None) -> tuple:
    """All unordered pairs (i < j) of the sorted vertex ``indices`` in
    row-major order, from ``np.triu_indices``, as two int64 arrays.  With
    ``counts``, the indices are consecutive runs of those lengths (the
    vertex sets of several draws, one after another) and the pairs are those
    within each run, run after run."""
    indices = np.asarray(indices, dtype=np.int64)
    ii, jj, lo = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], 0
    for count in [len(indices)] if counts is None else np.asarray(counts).tolist():
        iu, ju = np.triu_indices(count, 1)
        ii.append(indices[lo + iu])
        jj.append(indices[lo + ju])
        lo += count
    return np.concatenate(ii), np.concatenate(jj)


def dyad_rows_by_class(ii, jj, classes, draws, lagged):
    """The dyads an edge term is evaluated on, by brute force, for dyads
    (ii, jj) of the union of ``draws`` draws (vertex r * n + i being vertex
    i of draw r): the lagged ties found by ``np.isin`` among all of
    ``lagged`` (codes i * (draws * n) + j), then one dyad per class of the
    other dyads, keyed (draw, smaller class, larger class) over every draw
    of the union and numbered by ``np.unique`` in that order, each class
    represented by its first dyad.  ``of`` is each dyad's position in those
    rows."""
    n = len(classes)
    tie = np.isin(ii * (draws * n) + jj, lagged)
    ties, free = np.flatnonzero(tie), np.flatnonzero(~tie)
    a, b = classes[ii[free] % n], classes[jj[free] % n]
    keys = np.column_stack([ii[free] // n, np.minimum(a, b), np.maximum(a, b)])
    _, first, key = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    of = np.empty(len(ii), dtype=np.int64)
    of[ties] = np.arange(len(ties))
    of[free] = key.ravel() + len(ties)
    return np.concatenate([ties, free[first]]), of


def lag_values_by_snapshot(term, history, times, ii=None, jj=None):
    """The values of a ``lag_triangle`` term on every vertex, or of a
    ``lag_cycle_embed`` term on the dyads (ii[r], jj[r]), at one time per
    block of n vertices, with one kernel call per lag snapshot in step
    order: ``triangle_counts`` of each, or ``pair_cycle_counts`` of each
    snapshot's asked ties not yet memoized, its log1p written to the
    snapshot's memo."""
    snaps = [history.lagged(u, term.lag) for u in times]
    if term.kind == "lag_triangle":
        return np.concatenate([triangle_counts(snap) for snap in snaps])
    n, max_len = len(history.risk_set), term.params["max_len"]
    block = ii // n
    pair = (ii - block * n) * n + (jj - block * n) + block * (n * n)
    codes = np.concatenate([s * (n * n) + snap.codes for s, snap in enumerate(snaps)])
    out = np.zeros(len(ii))
    if len(codes):
        pos = np.minimum(np.searchsorted(codes, pair), len(codes) - 1)
        rows = np.flatnonzero(codes[pos] == pair)
        pos = pos[rows]
        asked = np.bincount(pos, minlength=len(codes)) > 0
        memos, lo = [], 0
        for snap in snaps:
            hi = lo + snap.edge_count
            memo = snap._cycle_memo.setdefault(max_len, np.full(snap.edge_count, np.nan))
            todo = np.flatnonzero(np.isnan(memo) & asked[lo:hi])
            if len(todo):
                memo[todo] = np.frompyfunc(math.log1p, 1, 1)(
                    pair_cycle_counts(snap, *np.divmod(snap.codes[todo], n), max_len))
            memos.append(memo)
            lo = hi
        out[rows] = np.concatenate(memos)[pos]
    return out


def gather_by_dyad(layout, values, lo, hi):
    """``design._DyadLayout.gather`` through the class pair of every dyad
    of blocks lo..hi-1 of one period, or of the one period that a single
    vertex set serves, broadcast per block: one index per dyad under any
    number of endpoint classes."""
    if len(layout.present) == 1:
        row = values[layout._pairs(0, len(layout.vertex))]
        return np.broadcast_to(row, (hi - lo, len(row))) if hi - lo > 1 else row
    a, b = np.searchsorted(layout.vertex, [lo * layout.n, hi * layout.n]).tolist()
    return values[layout._pairs(a, b)]
