"""Sufficient statistics for the vertex and edge models.

Each term maps panel history (lagged snapshots and covariates) to one real
statistic per vertex row or per edge row.  Lagged terms read only strictly
earlier snapshots, so the value at time t never depends on the time-t
outcome being predicted.

``KINDS`` declares every kind once: the targets it may model, its params,
its column name and its scope, where its value is constant.  Validation,
naming, the design's patterns and the sampler's class table read it; the
values themselves come from ``vertex_term_values`` and ``edge_term_values``.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .panel import (
    NetworkPanel,
    RiskSet,
    Snapshot,
    VertexRef,
    _json_kind,
    _ranges,
    _utf8,
    disjoint_union,
)

__all__ = [
    "GapError",
    "SpecError",
    "WEEKDAYS",
    "KINDS",
    "TermSpec",
    "ModelSpec",
    "ModelValidationReport",
    "History",
    "seasonal_terms",
    "resolve_lag",
    "usable_transitions",
    "triangle_counts",
    "CycleBudgetError",
    "pair_cycle_count",
    "pair_cycle_counts",
    "validate_model",
    "load_model_spec",
    "save_model_spec",
]


class SpecError(ValueError):
    """A term or model specification is malformed or references unknown data."""


class GapError(ValueError):
    """A lagged statistic needs a snapshot that was never observed."""


WEEKDAYS = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)

MIXING_PAIRS = ("both", "neither", "mixed")

# A param's values, by name: a non-empty string, one of a tuple or an int in a
# range; ``attr`` names a vertex attribute, ``label`` a vertex, ``key`` a time attribute.
PARAMS = {"attr": str, "pair": MIXING_PAIRS, "label": str, "day": WEEKDAYS, "key": str,
          "max_len": range(3, 10)}


@dataclass(frozen=True)
class Kind:
    """One term kind: the targets it may model, its params (each with its
    default, None when required), its column name as a template over its
    params and lag, and its scope, where its value is constant.  A ``step``
    term has one value per step (per draw, on a union of draws), a ``class``
    term one per class of vertex or pair of endpoint classes (a vertex's
    class being its values of the ``attr`` params and which ``label`` it
    is), and a ``lag`` term is 0 off the vertices or ties at its lag."""

    targets: tuple
    scope: str
    name: str
    params: dict = field(default_factory=dict)


# One row per kind; adding a kind means a row here and its branch in
# vertex_term_values or edge_term_values.
KINDS = {
    "intercept": Kind(("vertex", "edge"), "step", "intercept"),
    "attr_dummy": Kind(("vertex",), "class", "{attr}", {"attr": None}),
    "mixing": Kind(("edge",), "class", "mix_{attr}_{pair}", {"attr": None, "pair": None}),
    "individual_dummy": Kind(("edge",), "class", "indiv_{label}", {"label": None}),
    "log_size": Kind(("edge",), "step", "log_size"),
    "lag_indicator": Kind(("vertex", "edge"), "lag", "lag{lag}"),
    "lag_triangle": Kind(("vertex",), "lag", "triangle_lag{lag}"),
    "lag_cycle_embed": Kind(("edge",), "lag", "cycles{max_len}_lag{lag}", {"max_len": 9}),
    "seasonal": Kind(("vertex", "edge"), "step", "day_{day}", {"day": None, "key": "day"}),
}


@dataclass(frozen=True)
class TermSpec:
    """One sufficient statistic: a kind of ``KINDS``, its lag and its params,
    every default filled in."""

    target: str
    kind: str
    lag: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.target not in ("vertex", "edge"):
            raise SpecError(f"term target must be 'vertex' or 'edge', got {self.target!r}")
        kind = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None or self.target not in kind.targets:
            raise SpecError(f"kind {self.kind!r} not valid for {self.target} terms")
        if kind.scope == "lag":
            lag = _integer(self.lag, f"{self.kind} term lag")
            if lag < 1:
                raise SpecError(f"{self.kind} term requires lag >= 1, got {lag}")
            object.__setattr__(self, "lag", lag)
        elif self.lag is not None:
            raise SpecError(f"{self.kind} term does not take a lag")
        for name in self.params:
            if name not in kind.params:
                raise SpecError(f"{self.kind} term does not take params.{name}")
        object.__setattr__(self, "params", {
            name: _param(self.kind, name, self.params.get(name, default))
            for name, default in kind.params.items()})

    @property
    def scope(self) -> str:
        return KINDS[self.kind].scope

    @property
    def name(self) -> str:
        return KINDS[self.kind].name.format(lag=self.lag, **self.params)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.lag is not None:
            d["lag"] = self.lag
        if self.params:
            d["params"] = dict(self.params)
        return d

    @classmethod
    def from_dict(cls, target: str, d: dict, where: str = "term") -> "TermSpec":
        """The term of a spec file's entry ``d``; errors name ``where``."""
        if not isinstance(d, dict):
            raise SpecError(f"{where} must be an object, got {_json_kind(d)}")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise SpecError(f"params in {where} must be an object, got {_json_kind(params)}")
        try:
            return cls(target=target, kind=d.get("kind", ""), lag=d.get("lag"),
                       params=dict(params))
        except SpecError as exc:
            raise SpecError(f"{where}: {exc}") from None


def _param(kind: str, name: str, value):
    """``value`` of param ``name`` of a ``kind`` term, checked against PARAMS;
    None (a required param not given) and the empty string are refused."""
    domain = PARAMS[name]
    if value is None or value == "":
        raise SpecError(f"{kind} term requires params.{name}")
    if domain is str:
        if not isinstance(value, str):
            raise SpecError(f"params.{name} must be a string, got {_json_kind(value)}")
    elif isinstance(domain, range):
        value = _integer(value, f"{kind} {name}")
        if value not in domain:
            raise SpecError(f"{kind} {name} must be in [{domain[0]}, {domain[-1]}], got {value}")
    elif value not in domain:
        raise SpecError(f"{kind} term requires params.{name} in {domain}, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(f"{what} must be an integer, got {_json_kind(value)}")
    return int(value)


def seasonal_terms(target: str, reference: str = "Monday", key: str = "day"):
    """Day-of-week dummies for every day except the reference category."""
    if reference not in WEEKDAYS:
        raise SpecError(f"reference day must be one of {WEEKDAYS}")
    return [
        TermSpec(target, "seasonal", params={"day": day, "key": key})
        for day in WEEKDAYS
        if day != reference
    ]


@dataclass(frozen=True)
class ModelSpec:
    """Ordered vertex and edge term lists; order fixes the coefficient layout."""

    vertex_terms: tuple = ()
    edge_terms: tuple = ()
    gap_policy: str = "exclude"

    def __post_init__(self):
        object.__setattr__(self, "vertex_terms", tuple(self.vertex_terms))
        object.__setattr__(self, "edge_terms", tuple(self.edge_terms))
        for term in self.vertex_terms:
            if term.target != "vertex":
                raise SpecError(f"term {term.name} listed under vertex_terms")
        for term in self.edge_terms:
            if term.target != "edge":
                raise SpecError(f"term {term.name} listed under edge_terms")
        if self.gap_policy not in ("exclude", "bridge"):
            raise SpecError(f"gap_policy must be 'exclude' or 'bridge', got {self.gap_policy!r}")

    @property
    def max_lag(self) -> int:
        lags = [t.lag for t in self.vertex_terms + self.edge_terms if t.lag]
        return max(lags) if lags else 0

    @property
    def column_names(self) -> tuple:
        return tuple(f"v:{t.name}" for t in self.vertex_terms) + tuple(
            f"e:{t.name}" for t in self.edge_terms
        )

    def to_dict(self) -> dict:
        return {
            "vertex_terms": [t.to_dict() for t in self.vertex_terms],
            "edge_terms": [t.to_dict() for t in self.edge_terms],
            "gap_policy": self.gap_policy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        if not isinstance(d, dict):
            raise SpecError(f"top level of a model spec must be an object, got {_json_kind(d)}")
        terms = {}
        for target in ("vertex", "edge"):
            key = f"{target}_terms"
            entries = d.get(key, [])
            if not isinstance(entries, list):
                raise SpecError(f"{key} must be a list of terms, got {_json_kind(entries)}")
            terms[target] = [TermSpec.from_dict(target, x, f"{key}[{k}]")
                             for k, x in enumerate(entries)]
        return cls(terms["vertex"], terms["edge"], d.get("gap_policy", "exclude"))


def load_model_spec(path) -> ModelSpec:
    import json
    from pathlib import Path

    try:
        obj = json.loads(_utf8(Path(path).read_bytes(), path, SpecError))
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return ModelSpec.from_dict(obj)


def save_model_spec(spec: ModelSpec, path) -> None:
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# history access and lag resolution
# ---------------------------------------------------------------------------

class History:
    """An observed panel plus snapshots added on top of it.

    Lag terms read observed and added snapshots alike; an added snapshot
    takes precedence.  Every lag resolves under ``policy``, the spec's
    gap policy, so fit, adequacy and projection read the same snapshots.
    A time with no snapshot has time attributes only through ``attrs_fn``,
    so without one a term that needs them raises GapError there.

    A history holds ``draws`` histories side by side, one per draw that
    simulation makes on it: adequacy's replicates of a step and
    projection's replicates advanced in lockstep alike.  Every added
    snapshot is then a union of ``draws`` draws (vertex r * n + i being
    vertex i of draw r), and an observed snapshot is shared by every draw.

    Each time's lag snapshots and time attributes are resolved once, on
    first use, and kept until a snapshot is added: a design reads each
    step's lag window once, however many terms and passes read it.
    """

    __slots__ = ("panel", "policy", "added", "attrs_fn", "draws", "_times", "_lagged",
                 "_attrs")

    def __init__(self, panel: NetworkPanel, policy: str, attrs_fn=None, *, draws=1):
        self.panel = panel
        self.policy = policy
        self.added: dict[int, Snapshot] = {}
        self.attrs_fn = attrs_fn
        self.draws = draws
        self._times = panel.observed_times  # sorted; None once stale
        self._lagged: dict[tuple, Snapshot] = {}
        self._attrs: dict[int, dict | None] = {}

    @property
    def risk_set(self) -> RiskSet:
        return self.panel.risk_set

    def add(self, snap: Snapshot) -> None:
        if snap.draws != self.draws:
            raise ValueError(f"a history of {self.draws} draw(s) cannot add a snapshot "
                             f"of {snap.draws}")
        self.added[snap.t] = snap
        self._times = None
        self._lagged.clear()
        self._attrs.clear()

    def available_times(self):
        if self._times is None:
            self._times = tuple(sorted({*self.panel.observed_times, *self.added}))
        return self._times

    def snapshot_at(self, t: int):
        snap = self.added.get(t)
        return self.panel.at(t) if snap is None else snap

    def lagged(self, t: int, lag: int) -> Snapshot:
        """The snapshot a lag-``lag`` statistic at ``t`` reads (``resolve_lag``)."""
        snap = self._lagged.get((t, lag))
        if snap is None:
            snap = self._lagged[t, lag] = self.snapshot_at(resolve_lag(self, t, lag))
        return snap

    def time_attrs_at(self, t: int):
        if t not in self._attrs:
            snap = self.snapshot_at(t)
            self._attrs[t] = (snap.time_attrs if snap is not None else
                              None if self.attrs_fn is None else self.attrs_fn(t))
        return self._attrs[t]


def resolve_lag(history: History, t: int, lag: int) -> int:
    """Time index a lag-``lag`` statistic at time ``t`` should read, under
    the history's gap policy.

    Under ``exclude`` the lag counts calendar slots and any unobserved slot
    in between is an error; under ``bridge`` it counts back over observed
    snapshots only.
    """
    if history.policy == "exclude":
        u = t - lag
        if history.snapshot_at(u) is None:
            raise GapError(f"lag {lag} at t={t} needs unobserved slot {u}")
        return u
    if history.policy == "bridge":
        times = history.available_times()
        pos = bisect_left(times, t)
        if pos - lag < 0:
            raise GapError(f"lag {lag} at t={t}: fewer than {lag} earlier snapshots")
        return times[pos - lag]
    raise SpecError(f"unknown gap policy {history.policy!r}")


def usable_transitions(history: History, max_lag: int):
    """Available times whose entire lag window 1..max_lag is resolvable."""
    out = []
    for t in history.available_times():
        try:
            for lag in range(1, max_lag + 1):
                history.lagged(t, lag)
        except GapError:
            continue
        out.append(t)
    return tuple(out)


# ---------------------------------------------------------------------------
# statistic evaluation
# ---------------------------------------------------------------------------

def _as_index(p) -> int:
    return p.index if isinstance(p, VertexRef) else int(p)


def _is_edge(codes, pairs):
    """Membership of ``pairs`` in the sorted edge ``codes``."""
    if not len(codes):
        return np.zeros(len(pairs), dtype=bool)
    pos = np.minimum(np.searchsorted(codes, pairs), len(codes) - 1)
    return codes[pos] == pairs


# Most bitset words one block of _common_neighbours gathers per edge
# endpoint (4 MB of uint32 each).
BITSET_BLOCK = 1 << 20
# 2**k as floats: a bit's weight in the bincount that ORs it into its word
_POW2 = np.ldexp(1.0, np.arange(32))


def _common_neighbours(snapshot: Snapshot, *, later: bool = False):
    """Each edge's endpoints and how many neighbours they share: the arrays
    (a, b, common), one entry per edge {a, b}, a < b, in ``snapshot.codes``
    order, with ``common`` = |N(a) & N(b)|, the triangles that edge closes.
    With ``later``, N(v) holds only v's neighbours after v, so each
    triangle is counted once, at its edge of its two first vertices.  None
    when the snapshot has no triangle.

    Neighbourhoods are bitsets of uint32 words, intersected with
    ``np.bitwise_count``.  A bit numbers a vertex among those with an edge
    in its draw, so a union of ``snapshot.draws`` draws needs bitsets only
    as wide as its largest draw.  Edges go in blocks of at most
    BITSET_BLOCK words per endpoint.
    """
    size = len(snapshot.present)
    n = size // snapshot.draws
    codes, degrees = snapshot.codes, snapshot.degrees()
    if np.count_nonzero(degrees > 1) < 3:  # a triangle has three vertices of degree 2 or more
        return None
    a = codes // size
    b = codes - a * size
    touched = degrees > 0
    rank = touched.cumsum() - 1  # bitset row of a touched vertex
    per_draw = touched.reshape(-1, n).sum(axis=1)
    bit = rank - (per_draw.cumsum() - per_draw).repeat(n)  # rank in its draw
    words, rows = (int(per_draw.max()) + 31) // 32, int(rank[-1]) + 1
    ra, rb, bit_b = rank[a], rank[b], bit[b]
    row, col = ra, bit_b  # b is a's later neighbour; unless later, a is b's too
    if not later:
        row, col = np.concatenate([ra, rb]), np.concatenate([bit_b, bit[a]])
    # word w of row v at w * rows + v; the bits set in one word are
    # distinct, so their float sum is exact and is their union
    bits = np.bincount((col >> 5) * rows + row, _POW2[col & 31], minlength=words * rows)
    bits = bits.astype(np.uint32).reshape(words, rows)
    step = max(1, BITSET_BLOCK // words)  # edges per block
    common = np.empty(len(a), dtype=np.int64)
    for lo in range(0, len(a), step):
        shared = bits.take(ra[lo:lo + step], axis=1)
        shared &= bits.take(rb[lo:lo + step], axis=1)
        common[lo:lo + step] = np.bitwise_count(shared).sum(axis=0)
    return a, b, common


def triangle_counts(snapshot: Snapshot) -> np.ndarray:
    """Number of triangles through each vertex (0 for absent ones).

    Each edge {a, b} closes one triangle per common neighbour, so a vertex's
    count is half the sum of |N(a) & N(b)| over its edges
    (``_common_neighbours``).
    """
    size = len(snapshot.present)
    found = _common_neighbours(snapshot)
    if found is None:
        return np.zeros(size)
    a, b, common = found
    return np.bincount(np.concatenate([a, b]), np.concatenate([common, common]),
                       minlength=size) / 2


# Most half-path rows one call of the cycle kernel may hold, summed over its
# levels.  A row costs about 250 bytes at the peak of a call (its path
# columns, up to 8 subset keys and their sort), so a call stays near 125 MB.
# A batch over it is split; one pair over it is refused.
HALF_PATH_BUDGET = 500_000
# Most half-path rows grown on one draw of a snapshot, its running total
# over every pair_cycle_counts call on it: a few seconds of counting on one
# core, and 300 times the largest total of the bundled workloads.
CYCLE_WORK_BUDGET = 20 * HALF_PATH_BUDGET


class CycleBudgetError(ValueError):
    """Counting cycles would exceed HALF_PATH_BUDGET for one edge, or take
    one draw's running total of half-path rows past CYCLE_WORK_BUDGET."""


class _OverBudget(Exception):
    """A batch of pairs needs more half-path rows than the budget allows:
    at least ``rows``."""

    def __init__(self, rows: int):
        self.rows = rows


def _cycle_core(snapshot: Snapshot):
    """The snapshot's 2-core as compact CSR, cached on the snapshot.

    Returns (ids, indptr, indices, edges, starts): ``ids`` maps a vertex to
    its core id (-1 off the core), ``indptr``/``indices`` are the core's
    adjacency with sorted rows, ``edges`` its edges as sorted codes
    ``a * nc + b`` with a < b, and the core ids of draw d are
    ``starts[d]`` up to ``starts[d + 1]``.  Every cycle lies in the 2-core.
    """
    if snapshot._core is None:
        n = len(snapshot.present)
        a, b = np.divmod(snapshot.codes, n)
        while len(a):  # peel edges at vertices of degree 1
            deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
            keep = (deg[a] > 1) & (deg[b] > 1)
            if keep.all():
                break
            a, b = a[keep], b[keep]
        verts = np.flatnonzero(np.bincount(np.concatenate([a, b]), minlength=n))
        nc = len(verts)
        ids = np.full(n, -1, dtype=np.int64)
        ids[verts] = np.arange(nc)
        a, b = ids[a], ids[b]
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        indptr = np.zeros(nc + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=nc), out=indptr[1:])
        indices = dst[np.argsort(src * nc + dst)]
        starts = np.searchsorted(verts, np.arange(snapshot.draws + 1) * (n // snapshot.draws))
        snapshot._core = (ids, indptr, indices, a * nc + b, starts)
    return snapshot._core


def pair_cycle_counts(snapshot: Snapshot, ii, jj, max_len: int = 9) -> np.ndarray:
    """Simple cycles of length 3..max_len through each edge {ii[r], jj[r]}.

    A cycle through the edge {i, j} is a simple i-j path of e = 2..max_len-1
    edges.  Split at its ceil(e/2)-th vertex m, it is a half-path of
    ceil(e/2) edges from i that avoids j and one of floor(e/2) edges from j
    that avoids i, both ending at m, whose interiors are disjoint.  All
    half-paths of at most 4 edges are grown for every pair at once.  The
    pairs of halves that meet at m with disjoint interiors are then counted
    per pair of lengths by one of two routes, after counting the candidate
    pairs exactly.  Where few candidates meet at each (pair, m), each is
    checked directly.  Where many do, they are counted by inclusion-exclusion
    over the interior subsets S the halves share: sum over S of
    (-1)^|S| (#halves from i containing S) (#halves from j containing S),
    from at most 8 subset keys per half.  The direct route runs only when
    its candidates are no more than the keys it saves, so either way the
    work grows with the number of half-paths, not of cycles (Alon, Yuster
    & Zwick 1997).  Non-adjacent pairs, and edges with an endpoint off the
    2-core, count 0.

    On a union snapshot each draw is counted as if on its own: keys number
    vertices within their draw, and the budgets apply per draw.  So the
    sampler counts all its draws' ties in one call, and a design the ties
    of several small lag snapshots in one call on their union.  A draw's
    total over all calls of the half-path rows grown for its pairs does not
    depend on how its pairs are split into calls or ordered.  Raises
    CycleBudgetError when one pair needs more than HALF_PATH_BUDGET rows,
    or a draw's total would pass CYCLE_WORK_BUDGET; a refused call adds
    nothing to the total.
    """
    if not 3 <= max_len <= 9:
        raise ValueError(f"max_len must be in [3, 9], got {max_len}")
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    if np.any(ii == jj):
        raise ValueError("pair endpoints must differ")
    out = np.zeros(len(ii), dtype=np.int64)
    ids, indptr, indices, edges, starts = _cycle_core(snapshot)
    if not len(edges) or not len(ii):
        return out
    a, b = ids[ii], ids[jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    code = lo * (len(indptr) - 1) + hi
    pos = np.minimum(np.searchsorted(edges, code), len(edges) - 1)
    rows = np.flatnonzero((lo >= 0) & (edges[pos] == code))
    if len(rows):
        out[rows] = _cycle_batch(snapshot, a[rows], b[rows], max_len)
    return out


def _cycle_batch(snapshot, src, dst, max_len):
    """Cycle counts of the core edges (src[r], dst[r]), in batches of at
    most HALF_PATH_BUDGET half-path rows; a batch over it is split.  A
    pair's work is the half-path rows it grows in the batch that counts it,
    added to its draw's running total once every batch has passed."""
    _, indptr, indices, _, starts = _cycle_core(snapshot)
    draw = np.searchsorted(starts, src, "right") - 1
    width = np.diff(starts)[draw]
    offset = starts[draw] if snapshot.draws > 1 else None
    # each draw's total before this call; None until the snapshot's first count
    done = np.zeros(snapshot.draws) if snapshot._cycle_work is None else snapshot._cycle_work
    work = done.copy()
    out = np.empty(len(src), dtype=np.int64)
    todo = [np.arange(len(src))]
    while todo:
        rows = todo.pop()
        try:
            out[rows], grown = _half_path_counts(
                indptr, indices, src[rows], dst[rows], max_len,
                None if offset is None else offset[rows], int(width[rows].max()))
        except _OverBudget as over:
            if len(rows) == 1:
                raise CycleBudgetError(
                    f"{_cycle_site(snapshot, draw[rows[0]])}: one edge needs more than "
                    f"{HALF_PATH_BUDGET} half-paths, the work budget per edge") from None
            parts = min(len(rows), max(2, -(-over.rows // HALF_PATH_BUDGET)))
            todo.extend(np.array_split(rows, parts))
            continue
        work += np.bincount(draw[rows], grown, minlength=len(work))
        if work.max() > CYCLE_WORK_BUDGET:
            d = int(np.argmax(work > CYCLE_WORK_BUDGET))
            raise CycleBudgetError(
                f"{_cycle_site(snapshot, d)}: counting its {np.count_nonzero(draw == d)} "
                f"queried edges grew {int(work[d] - done[d])} half-paths, taking the "
                f"draw's total to {int(work[d])}, over the work budget of "
                f"{CYCLE_WORK_BUDGET} per draw")
    snapshot._cycle_work = work
    return out


def _cycle_site(snapshot, d):
    """The time and sizes of draw d of ``snapshot``, for a budget error."""
    size = len(snapshot.present) // snapshot.draws
    cut = np.searchsorted(snapshot.codes, np.array([d, d + 1]) * size * len(snapshot.present))
    return (f"cycle statistic at t={snapshot.t} (|V_t|="
            f"{np.count_nonzero(snapshot.present[d * size:(d + 1) * size])}, "
            f"|E_t|={cut[1] - cut[0]})")


def _half_path_counts(indptr, indices, src, dst, max_len, offset=None, width=None):
    """Cycle counts of the core edges (src[r], dst[r]), and the half-path
    rows grown for each; see pair_cycle_counts.

    Half h < P starts at src[h] and avoids dst[h], half P + h the reverse.
    Level l holds the half-paths of l edges as vertex columns v1..vl, rows
    sorted by half, each vertex numbered within its draw (core id minus the
    pair's ``offset``, below ``width``, the core ids of the widest draw).
    Each join of a left and a right level is counted by ``_join_halves``,
    directly or by inclusion-exclusion.  A subset key packs (pair, m,
    sorted subset) into one int64, each subset vertex as one
    base-(width+1) digit and padded with zero digits, so keys from both
    sides and every level share one key space.
    """
    n_pairs = len(src)
    nc = len(indptr) - 1 if width is None else width
    left_levels, right_levels = max_len // 2, (max_len - 1) // 2
    slots = right_levels - 1  # the largest subset two joined halves can share
    base = nc + 1
    if n_pairs * nc * base**slots >= 2**63:  # for one pair: a draw's core of ~55k vertices
        raise _OverBudget(2 * HALF_PATH_BUDGET)
    deg = np.diff(indptr)
    start, avoid = np.concatenate([src, dst]), np.concatenate([dst, src])
    half = np.arange(2 * n_pairs)
    cols = []
    held = 0
    grown = np.zeros(n_pairs)
    counts = np.zeros(n_pairs)
    right_prev = None
    for level in range(1, left_levels + 1):
        if level > right_levels:  # only halves from i grow this long
            n_left = np.searchsorted(half, n_pairs)
            half, cols = half[:n_left], [c[:n_left] for c in cols]
        last = cols[-1] if cols else start[half]
        d = deg[last]
        size = int(d.sum())
        if held + size > HALF_PATH_BUDGET:
            raise _OverBudget(held + size)
        held += size
        grown += np.bincount(half % n_pairs, d, minlength=n_pairs)
        half, cols = _grow(indptr, indices, start, avoid, half, cols, last, d)

        k_max = min(level, right_levels) - 1
        n_left = np.searchsorted(half, n_pairs)
        local = cols if offset is None else [c - offset[half % n_pairs] for c in cols]
        left = _Halves(half[:n_left], [c[:n_left] for c in local], k_max, nc)
        right = None
        if level <= right_levels:
            right = _Halves(half[n_left:] - n_pairs, [c[n_left:] for c in local], k_max, nc)
        for other in (right, right_prev):  # e = 2 * level, then 2 * level - 1
            if other is not None:
                counts += _join_halves(left, other, n_pairs, nc, base, slots)
        right_prev = right
    return counts.astype(np.int64), grown


def _grow(indptr, indices, start, avoid, half, cols, last, d):
    """The half-paths one edge longer than ``cols``, ending at ``last``
    of degree ``d``: each extended to every neighbour off its own path and
    off its pair's other endpoint."""
    rep = np.repeat(np.arange(len(last)), d)
    nxt = indices[_ranges(indptr[last], d)]
    h = half[rep]
    ok = (nxt != start[h]) & (nxt != avoid[h])
    for c in cols[:-1]:
        ok &= nxt != c[rep]
    rep = rep[ok]
    return h[ok], [c[rep] for c in cols] + [nxt[ok]]


# A join of two levels' halves runs directly when its candidate pairs of
# halves are at most this many times the subset keys inclusion-exclusion
# would still have to build for it, and by inclusion-exclusion otherwise.
DIRECT_JOIN_RATIO = 1.0


class _Halves:
    """One side's half-paths of one level: their pair, vertex columns
    numbered within their draw and (pair, end) group; their interiors as
    bit sets and their subset keys are built at most once, when a join
    needs them."""

    __slots__ = ("pair", "cols", "k_max", "group", "_bits", "_keys")

    def __init__(self, pair, cols, k_max, nc):
        self.pair, self.cols, self.k_max = pair, cols, k_max
        self.group = pair * nc + cols[-1]
        self._bits = self._keys = None

    def bits(self):
        """Each half's interior as one int64 of bits, bit v % 64 for vertex v."""
        if self._bits is None:
            self._bits = np.zeros(len(self.pair), dtype=np.int64)
            for c in self.cols[:-1]:
                self._bits |= np.left_shift(1, c & 63)
        return self._bits

    def unbuilt_keys(self) -> int:
        """Subset keys ``keys`` would build: none once built."""
        if self._keys is not None:
            return 0
        inner = len(self.cols) - 1
        return len(self.pair) * sum(math.comb(inner, k) for k in range(self.k_max + 1))

    def keys(self, base, slots):
        if self._keys is None:
            self._keys = _subset_counts(self.group, self.cols, self.k_max, base, slots)
        return self._keys


def _join_halves(left, right, n_pairs, nc, base, slots):
    """Per pair, the pairs of a left and a right half that end at the same
    vertex with disjoint interiors.

    The candidates, Σ |L_g|·|R_g| over (pair, end) groups g, are counted
    from one table of right halves per group: n_pairs * nc slots when that
    is no more than the halves joined, else the groups present, numbered by
    a sort.  Few candidates are checked directly: the right halves are
    sorted by group, each left half meets its group's, and a meeting whose
    interior bit sets share a bit is a clash, checked vertex by vertex when
    a bit stands for more than one vertex.  Many go to inclusion-exclusion
    (``_join``), whose work is bounded by the subset keys however many
    halves meet at one end.
    """
    gl, gr = left.group, right.group
    size = n_pairs * nc
    if size > len(gl) + len(gr):
        groups, inverse = np.unique(np.concatenate([gl, gr]), return_inverse=True)
        gl, gr, size = inverse[:len(gl)], inverse[len(gl):], len(groups)
    per_group = np.bincount(gr, minlength=size)
    partners = per_group[gl]
    inner_l, inner_r = left.cols[:-1], right.cols[:-1]
    if not inner_l or not inner_r:  # a half of one edge has no interior to share
        return np.bincount(left.pair, partners, minlength=n_pairs)
    if partners.sum() > DIRECT_JOIN_RATIO * (left.unbuilt_keys() + right.unbuilt_keys()):
        return _join(left.keys(base, slots), right.keys(base, slots),
                     n_pairs, nc, base, slots)
    meets = np.bincount(left.pair, partners, minlength=n_pairs)
    order = np.argsort(gr)
    first = per_group.cumsum() - per_group  # of each group among the sorted right halves
    at = _ranges(first[gl], partners)  # each meeting's right half, in that order
    li = np.repeat(np.arange(len(gl)), partners)  # and its left half
    shared = left.bits()[li]
    shared &= right.bits()[order][at]
    shared = np.flatnonzero(shared != 0)
    li = li[shared]
    if nc > 64:
        ri = order[at[shared]]
        clash = np.zeros(len(shared), dtype=bool)
        for a in inner_l:
            a = a[li]
            for b in inner_r:
                clash |= a == b[ri]
        li = li[clash]
    return meets - np.bincount(left.pair[li], minlength=n_pairs)


def _subset_counts(group, cols, k_max, base, slots):
    """Sorted distinct subset keys of these half-paths, with multiplicities;
    ``group`` is each half's (pair, end) as pair * width + m."""
    inner = cols[:-1]
    for stop in range(len(inner) - 1, 0, -1):  # sort each row's interior
        for k in range(stop):
            lo, hi = np.minimum(inner[k], inner[k + 1]), np.maximum(inner[k], inner[k + 1])
            inner[k], inner[k + 1] = lo, hi
    keys = []
    for k in range(k_max + 1):
        for subset in combinations(inner, k):
            key = group
            for c in subset:
                key = key * base + (c + 1)
            keys.append(key * base ** (slots - k))
    return np.unique(np.concatenate(keys), return_counts=True)


def _join(left, right, n_pairs, nc, base, slots):
    """Per pair, the signed sum over shared keys of left times right counts."""
    (u_l, c_l), (u_r, c_r) = left, right
    if not len(u_l) or not len(u_r):
        return 0.0
    pos = np.minimum(np.searchsorted(u_r, u_l), len(u_r) - 1)
    hit = u_r[pos] == u_l
    keys = u_l[hit]
    weight = (c_l[hit] * c_r[pos[hit]]).astype(float)
    rest, odd = keys % base**slots, np.zeros(len(keys), dtype=bool)
    for _ in range(slots):  # (-1)^|S|: |S| is the number of nonzero digits
        odd ^= rest % base > 0
        rest //= base
    weight[odd] *= -1.0
    # float sums stay exact: a pair's terms sum in absolute value to at most
    # (8 * HALF_PATH_BUDGET)**2 < 2**53
    return np.bincount(keys // (nc * base**slots), weights=weight, minlength=n_pairs)


# Most edges of the lag snapshots that one kernel call of a design counts
# together.  A design reads one lag snapshot per step; consecutive snapshots
# (those with ties to count, for the cycle statistic) share one call, as the
# draws of one disjoint union, while their edges total at most this, so
# small snapshots share a call's fixed cost and larger ones keep their own
# call, where a union's larger working set is slower.
LAG_GROUP_EDGES = 256


def _lag_groups(snaps, which):
    """The snapshots snaps[k], k in ``which``, in runs of consecutive ones
    whose edges total at most LAG_GROUP_EDGES, or of one snapshot over it."""
    groups, edges = [], 0
    for k in which:
        count = snaps[k].edge_count
        if groups and edges + count <= LAG_GROUP_EDGES:
            groups[-1].append(k)
            edges += count
        else:
            groups.append([k])
            edges = count
    return groups


def _lag_union(snaps) -> Snapshot:
    """The snapshots as the draws of one (``disjoint_union``), vertex
    r * n + i being vertex i of snaps[r]; one snapshot is its own union,
    and so keeps what a count caches on it."""
    return snaps[0] if len(snaps) == 1 else disjoint_union(snaps)


def _count_cycles(snaps, todo, max_len) -> None:
    """Fill each snapshot's cycle memo at its edges ``todo[r]`` with
    log1p(count), from one pair_cycle_counts call over the snapshots'
    union.  Each snapshot's running total of cycle work starts the call as
    its own and takes back its draw's total: a tie on a 2-core grows at
    least 4 half-paths, so a draw whose total moved is one its own call
    would have counted.  A call the budget refuses adds nothing, and is
    made again one snapshot at a time, so the refusal is that of the
    snapshot's own call and names its t and sizes, not the union's."""
    union = _lag_union(snaps)
    size = len(union.present)
    starts = np.cumsum([0] + [snap.edge_count for snap in snaps[:-1]])
    asked = np.concatenate([lo + rows for lo, rows in zip(starts, todo)])
    done = None
    if union is not snaps[0]:
        done = np.concatenate([np.zeros(1) if snap._cycle_work is None else snap._cycle_work
                               for snap in snaps])
        union._cycle_work = done
    try:
        counts = pair_cycle_counts(union, *np.divmod(union.codes[asked], size), max_len)
    except CycleBudgetError:
        if done is None:
            raise
        for snap, rows in zip(snaps, todo):
            _count_cycles([snap], [rows], max_len)
        return
    # math.log1p: np.log1p differs in the last bit for some counts
    logs = np.frompyfunc(math.log1p, 1, 1)(counts)
    for r, (snap, rows, part) in enumerate(zip(snaps, todo, np.split(
            logs, np.cumsum([len(rows) for rows in todo[:-1]])))):
        snap._cycle_memo[max_len][rows] = part
        if done is not None and union._cycle_work[r] != done[r]:
            snap._cycle_work = union._cycle_work[r:r + 1].copy()


def pair_cycle_count(snapshot: Snapshot, i, j, max_len: int = 9) -> int:
    """Simple cycles of length 3..max_len that traverse the edge {i, j}.

    The one-pair entry point of pair_cycle_counts; a non-adjacent pair
    counts 0.
    """
    i, j = _as_index(i), _as_index(j)
    return int(pair_cycle_counts(snapshot, [i], [j], max_len)[0])


def _seasonal_value(term: TermSpec, history, t: int) -> float:
    key = term.params["key"]
    attrs = history.time_attrs_at(t)
    if attrs is None:
        raise GapError(f"seasonal term needs time attributes at unobserved t={t}")
    day = attrs.get(key)
    if day is None:
        raise SpecError(f"snapshot t={t} lacks time attribute {key!r}")
    return 1.0 if day == term.params["day"] else 0.0


def vertex_term_values(term: TermSpec, history: History, t) -> np.ndarray:
    """Statistic of one vertex term for every risk-set vertex at time t:
    one block of n that every draw of the history shares, or one block per
    draw when the term reads a lagged union of the history's draws.

    ``t`` may also be a sequence of times on a history of one draw, one
    per block of n: vertex s * n + i is then vertex i at time t[s], and
    every block is computed in one pass, each time's attributes and lag
    snapshot read once.  Triangles are then counted on disjoint unions of
    consecutive lag snapshots, one call per run of them with at most
    LAG_GROUP_EDGES edges in all (``_lag_groups``).
    """
    rs = history.risk_set
    n = len(rs)
    times = list(t) if isinstance(t, (list, tuple, np.ndarray)) else [t]
    kind = term.kind
    if kind == "intercept":
        return np.ones(n * len(times))
    if kind == "attr_dummy":
        try:
            a = rs.attr_indicator(term.params["attr"])
        except KeyError as exc:
            raise SpecError(str(exc)) from None
        return a if len(times) == 1 else np.tile(a, len(times))
    if kind == "seasonal":
        return np.array([_seasonal_value(term, history, u) for u in times]).repeat(n)
    snaps = [history.lagged(u, term.lag) for u in times]
    if kind == "lag_indicator":
        return np.concatenate([snap.present for snap in snaps], dtype=float)
    if kind == "lag_triangle":
        return np.concatenate([triangle_counts(_lag_union([snaps[k] for k in group]))
                               for group in _lag_groups(snaps, range(len(snaps)))])
    raise SpecError(f"kind {kind!r} is not a vertex statistic")


def edge_term_values(term: TermSpec, history: History, t, ii: np.ndarray,
                     jj: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Statistic of one edge term for the dyads (ii[r], jj[r]) at time t.

    ``present`` is the current vertex set the edge model conditions on; for
    simulated steps it is the sampled one, which is what log_size reads.
    It may also be the disjoint union of several sets over the risk set of
    n vertices, one block of n after another: vertex d * n + i is vertex i
    of set d, and each dyad joins two vertices of one set.  A history of
    several draws needs such a union of one set per draw: a lagged term
    reads set d's lag in draw d of the history.  On a history of one draw,
    ``t`` may instead be a sequence of one time per block, as the design
    lays out its steps: set s is then the vertex set at time t[s], and
    every block is computed in one pass, with one lookup of its lagged ties
    over all the blocks' lag snapshots.  Cycles are then counted on
    disjoint unions of consecutive lag snapshots with ties not yet
    memoized, one call per run of them with at most LAG_GROUP_EDGES edges
    in all (``_lag_groups``); each snapshot keeps its own counts and cycle
    work, as a call on it alone leaves them.
    """
    rs = history.risk_set
    n = len(rs)
    m = len(ii)
    union = ii, jj
    draw = None
    if len(present) > n:  # a union: dyads in risk-set indices, and their set
        draw = ii // n
        ii, jj = ii - draw * n, jj - draw * n
    kind = term.kind
    if kind == "intercept":
        return np.ones(m)
    if kind == "mixing":
        try:
            a = rs.attr_indicator(term.params["attr"])
        except KeyError as exc:
            raise SpecError(str(exc)) from None
        ai, aj = a[ii], a[jj]
        pair = term.params["pair"]
        if pair == "both":
            return ai * aj
        if pair == "neither":
            return (1.0 - ai) * (1.0 - aj)
        return ai * (1.0 - aj) + (1.0 - ai) * aj
    if kind == "individual_dummy":
        try:
            idx = rs.index_of(term.params["label"])
        except KeyError as exc:
            raise SpecError(str(exc)) from None
        return ((ii == idx) | (jj == idx)).astype(float)
    if kind == "log_size":
        # math.log, not np.log: they differ in the last bit for some sizes;
        # a set of fewer than 2 vertices has no dyad and takes no log
        sizes = present.reshape(-1, n).sum(axis=1).tolist()
        logs = np.array([math.log(k) if k > 1 else 0.0 for k in sizes])
        return np.full(m, logs[0]) if draw is None else logs[draw]
    times = list(t) if isinstance(t, (list, tuple, np.ndarray)) else [t]
    if kind == "seasonal":
        values = [_seasonal_value(term, history, u) for u in times]
        return np.full(m, values[0]) if len(values) == 1 else np.array(values)[draw]
    snaps = [history.lagged(u, term.lag) for u in times]
    size = len(snaps[0].present)
    if snaps[0].draws > 1:  # one lag per draw: the dyads index the history's union
        if size != len(present):
            raise ValueError(f"dyads over {len(present)} vertices cannot read the "
                             f"{snaps[0].draws} draws of the history at t={snaps[0].t}")
        ii, jj = union
    # each dyad and each lagged tie keyed (s * size + i) * size + j at time s
    pair = ii.astype(np.int64) * size + jj
    codes = snaps[0].codes
    if len(snaps) > 1:
        pair += draw * (size * size)
        codes = np.concatenate([s * (size * size) + snap.codes
                                for s, snap in enumerate(snaps)])
    if kind == "lag_indicator":
        return _is_edge(codes, pair).astype(float)
    if kind == "lag_cycle_embed":
        max_len = term.params["max_len"]
        out = np.zeros(m)
        if len(codes):
            # the same lagged snapshot is queried for many rows and
            # replicates, so log1p(count) is memoized per edge code on it
            pos = np.minimum(np.searchsorted(codes, pair), len(codes) - 1)
            rows = np.flatnonzero(codes[pos] == pair)
            pos = pos[rows]
            asked = np.bincount(pos, minlength=len(codes)) > 0
            memos, todo, lo = [], [], 0
            for snap in snaps:
                hi = lo + snap.edge_count
                memos.append(snap._cycle_memo.setdefault(
                    max_len, np.full(snap.edge_count, np.nan)))
                todo.append(np.flatnonzero(np.isnan(memos[-1]) & asked[lo:hi]))
                lo = hi
            for group in _lag_groups(snaps, [k for k, rows in enumerate(todo) if len(rows)]):
                _count_cycles([snaps[k] for k in group], [todo[k] for k in group], max_len)
            out[rows] = np.concatenate(memos)[pos]
        return out
    raise SpecError(f"kind {kind!r} is not an edge statistic")


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelValidationReport:
    errors: tuple
    warnings: tuple
    usable_steps: tuple
    max_lag: int

    @property
    def ok(self) -> bool:
        return not self.errors


def _check_attr_refs(terms_list, risk_set, errors):
    for term in terms_list:
        attr, label = term.params.get("attr"), term.params.get("label")
        if attr is not None and attr not in risk_set.attrs:
            errors.append(f"term {term.name}: unknown vertex attribute {attr!r}")
        if label is not None and label not in risk_set.labels:
            errors.append(f"term {term.name}: label {label!r} not in risk set")


def _check_collinear(terms_list, side, warnings):
    names = [t.name for t in terms_list]
    for name in sorted({x for x in names if names.count(x) > 1}):
        warnings.append(f"{side} terms: duplicate term {name}")
    # a week is full on one time attribute, a mixing set on one vertex attribute
    days = {(t.params["key"], t.params["day"]) for t in terms_list if "day" in t.params}
    pairs = {(t.params["attr"], t.params["pair"]) for t in terms_list if "pair" in t.params}
    full_week = 7 in Counter(key for key, _ in days).values()
    full_mixing = len(MIXING_PAIRS) in Counter(attr for attr, _ in pairs).values()
    has_intercept = any(t.kind == "intercept" for t in terms_list)
    if full_week and has_intercept:
        warnings.append(f"{side} terms: all 7 day dummies plus intercept are collinear")
    if full_mixing and has_intercept:
        warnings.append(f"{side} terms: full mixing set plus intercept is collinear")
    if full_week and full_mixing:
        warnings.append(f"{side} terms: all 7 day dummies plus full mixing set are collinear")


def validate_model(spec: ModelSpec, panel: NetworkPanel) -> ModelValidationReport:
    """Static checks of a model against a panel, plus the usable time range
    under the spec's gap policy."""
    errors: list[str] = []
    warnings: list[str] = []
    _check_attr_refs(spec.vertex_terms + spec.edge_terms, panel.risk_set, errors)
    _check_collinear(spec.vertex_terms, "vertex", warnings)
    _check_collinear(spec.edge_terms, "edge", warnings)

    steps = usable_transitions(History(panel, spec.gap_policy), spec.max_lag)
    if not steps:
        errors.append(
            f"no usable transition steps for max lag {spec.max_lag} "
            f"under gap policy {spec.gap_policy!r}"
        )

    time_keys = {t.params["key"] for t in spec.vertex_terms + spec.edge_terms
                 if "key" in t.params}
    for key in sorted(time_keys):
        missing = [t for t in steps if key not in (panel.at(t).time_attrs or {})]
        if missing:
            errors.append(
                f"time attribute {key!r} missing at usable steps {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )

    return ModelValidationReport(
        errors=tuple(errors),
        warnings=tuple(warnings),
        usable_steps=steps,
        max_lag=spec.max_lag,
    )
