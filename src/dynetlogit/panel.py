"""Discrete-time network panels over a fixed vertex risk set.

A panel couples a risk set (every vertex that could ever appear) with a
time-ordered sequence of snapshots.  Each snapshot records which risk-set
members are present on that day and the undirected edges among them; days
with no observation are kept as explicit gap indices rather than silently
dropped, so lagged statistics can decide how to treat them.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

__all__ = [
    "PanelFormatError",
    "PanelValidationError",
    "VertexRef",
    "RiskSet",
    "Snapshot",
    "NetworkPanel",
    "dyads",
    "disjoint_union",
    "split_draws",
    "load_panel",
    "save_panel",
    "subpanel",
    "panel_from_edge_presence",
    "read_edge_presence_tables",
]


# whole-file edge keys (snapshot * n + i) * n + j stay below this
_KEY_LIMIT = np.iinfo(np.int64).max


class PanelFormatError(ValueError):
    """A panel file (or converter input) could not be parsed."""


class PanelValidationError(ValueError):
    """Panel contents violate a structural invariant."""


@dataclass(frozen=True)
class VertexRef:
    """Position of a vertex within a risk set, plus its opaque label."""

    index: int
    label: str


class RiskSet:
    """Ordered, immutable collection of all vertices at risk of appearing.

    ``attrs`` is a per-vertex attribute table: attribute name -> tuple of
    values aligned with vertex order.  Missing entries are normalized to
    ``None`` so every column covers every vertex.
    """

    __slots__ = ("labels", "attrs", "_index", "_indicators", "_json")

    def __init__(self, labels, attrs=None):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            dup = sorted(x for x, c in Counter(labels).items() if c > 1)
            raise PanelValidationError(f"duplicate vertex label(s): {dup}")
        object.__setattr__(self, "labels", labels)
        table = {}
        if attrs:
            if isinstance(attrs, dict):
                for name, column in attrs.items():
                    column = tuple(column)
                    if len(column) != len(labels):
                        raise PanelValidationError(
                            f"attribute column {name!r} has {len(column)} entries "
                            f"for {len(labels)} vertices"
                        )
                    table[name] = column
            else:
                # list of per-vertex dicts
                keys = sorted({k for d in attrs for k in d})
                for name in keys:
                    table[name] = tuple(d.get(name) for d in attrs)
        # all-None columns carry no information and would not survive a
        # save/load cycle; drop them so construction is canonical
        table = {k: v for k, v in table.items() if any(x is not None for x in v)}
        object.__setattr__(self, "attrs", table)
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})
        object.__setattr__(self, "_indicators", {
            k: _read_only(np.array([1.0 if v in (True, 1) else 0.0 for v in column]))
            for k, column in table.items()})
        object.__setattr__(self, "_json", None)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, RiskSet)
            and self.labels == other.labels
            and self.attrs == other.attrs
        )

    def __repr__(self):
        return f"RiskSet(n={len(self)}, attrs={sorted(self.attrs)})"

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in risk set") from None

    def vertex(self, index: int) -> VertexRef:
        return VertexRef(index, self.labels[index])

    @property
    def vertices(self):
        return tuple(VertexRef(i, lab) for i, lab in enumerate(self.labels))

    def attr_values(self, name: str):
        if name not in self.attrs:
            raise KeyError(f"unknown vertex attribute {name!r}")
        return self.attrs[name]

    def attr_indicator(self, name: str) -> np.ndarray:
        """Attribute column as a read-only 0/1 float vector (None counts as 0)."""
        self.attr_values(name)  # KeyError for an unknown name
        return self._indicators[name]


class Snapshot:
    """One observed time slice: presence bitset plus undirected edges.

    ``present`` is a read-only boolean vector over the risk set of n
    vertices.  ``codes`` holds the edges as the sorted, unique, read-only
    int64 values ``i * n + j`` with i < j, and every edge endpoint is
    present.  Sorted this way, the codes are also the upper half of the
    adjacency in CSR order: row i holds the j of its codes, ascending.

    A snapshot may hold ``draws`` draws over one risk set side by side (a
    union of simulated days): vertex r * (n / draws) + i is vertex i of draw
    r, and no edge joins two draws.  Graph indices come out one per draw.
    Instances are immutable after construction and cache derived structures
    (the degrees, the 2-core, per-edge cycle counts) on first use, beside
    each draw's running total of cycle-counting work.
    """

    __slots__ = ("t", "present", "codes", "time_attrs", "draws", "_degrees", "_core",
                 "_cycle_memo", "_cycle_work")

    def __init__(self, t, present, edges, time_attrs=None, *, n=None, draws=1,
                 _trusted=False):
        """``present`` is a bool vector over the risk set, or the indices of
        the present vertices together with the risk-set size ``n``.
        ``edges`` is a sequence of index pairs, an ``(m, 2)`` integer array
        or a tuple ``(ii, jj)`` of two 1-D integer arrays; a pair may come
        in either order and more than once.

        ``_trusted`` is for the package's own samplers only: ``edges`` is
        then already the int64 ``codes`` this constructor would make
        (sorted, unique, each joining two present vertices of one draw), and
        they are kept without the sort and the checks."""
        self.t = int(t)
        self.present = presence_vector(present, n)
        self.draws = int(draws)
        self.codes = _read_only(edges if _trusted else
                                _edge_codes(self.t, self.present, edges, self.draws))
        self.time_attrs = dict(time_attrs or {})
        self._degrees = self._core = self._cycle_work = None
        self._cycle_memo = {}

    # -- basic accessors -------------------------------------------------

    @property
    def n_present(self) -> int:
        return int(np.count_nonzero(self.present))

    @property
    def present_indices(self) -> np.ndarray:
        return np.flatnonzero(self.present)

    @property
    def edges(self) -> np.ndarray:
        """Edges as a read-only ``(m, 2)`` int64 array of (i, j), i < j."""
        return _read_only(np.column_stack(np.divmod(self.codes, len(self.present))))

    @property
    def edge_count(self) -> int:
        return len(self.codes)

    def degrees(self) -> np.ndarray:
        """Read-only degree of every risk-set vertex (0 for absent ones)."""
        if self._degrees is None:
            n = len(self.present)
            lo = self.codes // n
            ends = np.concatenate([lo, self.codes - lo * n])
            self._degrees = _read_only(np.bincount(ends, minlength=n))
        return self._degrees

    def __eq__(self, other):
        return (
            isinstance(other, Snapshot)
            and self.t == other.t
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.codes, other.codes)
            and self.time_attrs == other.time_attrs
            and self.draws == other.draws
        )

    def __repr__(self):
        return f"Snapshot(t={self.t}, |V|={self.n_present}, |E|={self.edge_count})"


def _edge_codes(t, bits, edges, draws) -> np.ndarray:
    """The sorted, unique codes ``i * n + j`` (i < j) of ``edges`` over the
    presence vector ``bits`` of ``draws`` draws, after checking that every
    edge joins two distinct present vertices of one draw."""
    n = len(bits)
    if isinstance(edges, tuple) and len(edges) == 2 and all(
            isinstance(x, np.ndarray) and x.ndim == 1 for x in edges):
        a, b = (x.astype(np.int64, copy=False) for x in edges)  # (ii, jj)
    else:
        pairs = np.asarray(list(edges), dtype=np.int64)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise PanelValidationError(f"edges at t={t} are not index pairs")
        a, b = pairs.reshape(-1, 2).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    ok = (lo != hi) & (lo >= 0) & (hi < n)
    size = n  # vertices per draw
    if draws != 1:
        if draws < 1 or n % draws:
            raise PanelValidationError(f"{n} vertices at t={t} do not split into {draws} draws")
        size = max(n // draws, 1)
        ok &= lo // size == hi // size
    ok[ok] = bits[lo[ok]] & bits[hi[ok]]
    if np.count_nonzero(ok) < len(ok):  # name the first bad edge
        k = int(np.argmin(ok))
        problem = ("loop edge" if lo[k] == hi[k] else "edge index outside the risk set"
                   if lo[k] < 0 or hi[k] >= n else "edge joins two draws"
                   if lo[k] // size != hi[k] // size else "edge endpoint not present")
        raise PanelValidationError(f"{problem} at t={t}: ({lo[k]},{hi[k]})")
    codes = lo * n + hi
    codes.sort()
    if np.count_nonzero(codes[1:] == codes[:-1]):  # a repeated pair
        codes = np.unique(codes)
    return codes


def disjoint_union(snapshots) -> Snapshot:
    """The draws of ``snapshots``, all over one risk set, side by side in one
    snapshot, in order, with the first snapshot's time and time attributes."""
    if len({len(s.present) // s.draws for s in snapshots}) > 1:
        raise PanelValidationError("snapshots of a union differ in risk-set size")
    offset, ii, jj = 0, [], []
    for s in snapshots:
        a, b = np.divmod(s.codes, len(s.present))
        ii.append(a + offset)
        jj.append(b + offset)
        offset += len(s.present)
    return Snapshot(snapshots[0].t, np.concatenate([s.present for s in snapshots]),
                    (np.concatenate(ii), np.concatenate(jj)), snapshots[0].time_attrs,
                    draws=sum(s.draws for s in snapshots))


def split_draws(snapshot: Snapshot) -> tuple:
    """The draws of a union snapshot, in order, as snapshots of one draw
    each with the union's time and time attributes."""
    n_all = len(snapshot.present)
    size = n_all // snapshot.draws
    a, b = np.divmod(snapshot.codes, n_all)
    cut = np.searchsorted(a, np.arange(snapshot.draws + 1) * size).tolist()
    return tuple(
        Snapshot(snapshot.t, snapshot.present[r * size:(r + 1) * size],
                 (a[lo:hi] - r * size, b[lo:hi] - r * size), snapshot.time_attrs)
        for r, (lo, hi) in enumerate(zip(cut[:-1], cut[1:])))


def presence_vector(present, n=None) -> np.ndarray:
    """Read-only bool vector over a risk set, from a bool vector or from the
    indices of the present vertices and the risk-set size ``n``."""
    if isinstance(present, np.ndarray) and present.dtype == bool:
        return _read_only(present.copy())
    if n is None:
        raise ValueError("need risk-set size n when present is an index set")
    idx = np.fromiter(present, dtype=np.int64)
    if np.count_nonzero((idx < 0) | (idx >= n)):
        raise PanelValidationError(f"present vertex index outside the risk set of {n}")
    bits = np.zeros(int(n), dtype=bool)
    bits[idx] = True
    return _read_only(bits)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _ranges(starts, counts) -> np.ndarray:
    """The concatenated ranges starts[k], ..., starts[k] + counts[k] - 1."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts).repeat(counts)


def dyads(indices, counts=None) -> tuple:
    """All unordered pairs (i < j) of the given sorted vertex indices, as two
    int64 index arrays in row-major order.

    With ``counts``, the indices are consecutive runs of those lengths (the
    vertex sets of several draws, one after another) and the pairs are those
    within each run, run after run."""
    indices = np.asarray(indices, dtype=np.int64)
    pos = np.arange(len(indices))
    if counts is None:
        later = len(indices) - 1 - pos
    else:
        later = np.cumsum(counts).repeat(counts) - 1 - pos  # later indices in the run
    return indices.repeat(later), indices[_ranges(pos + 1, later)]


def _check_gap_span(gaps, times, none) -> None:
    """Refuse a gap outside the span of the observed ``times`` (``none``
    says what is missing when there are none): it would move the panel's
    first time index, which keys every simulation stream."""
    span = (min(times), max(times)) if times else None
    for g in gaps:
        if span is None or not span[0] <= g <= span[1]:
            raise PanelValidationError(
                f"gap {g} lies outside the observed time span "
                + (f"{span[0]}..{span[1]}" if span else none)
            )


class NetworkPanel:
    """A time-ordered sequence of snapshots over one risk set.

    Immutable after construction; snapshot time indices are strictly
    increasing and disjoint from the gap indices, which lie within the
    snapshots' time span.
    """

    __slots__ = ("risk_set", "snapshots", "gaps", "_by_t")

    def __init__(self, risk_set: RiskSet, snapshots, gaps=()):
        snaps = tuple(sorted(snapshots, key=lambda s: s.t))
        times = [s.t for s in snaps]
        if len(set(times)) != len(times):
            dup = sorted(t for t, c in Counter(times).items() if c > 1)
            raise PanelValidationError(f"duplicate snapshot time index: {dup}")
        gaps = tuple(sorted(int(g) for g in gaps))
        if len(set(gaps)) != len(gaps):
            raise PanelValidationError("duplicate gap index")
        overlap = set(times) & set(gaps)
        if overlap:
            raise PanelValidationError(
                f"gap indices coincide with snapshots: {sorted(overlap)}"
            )
        _check_gap_span(gaps, times, "(no snapshots)")
        n = len(risk_set)
        for s in snaps:
            if len(s.present) != n:
                raise PanelValidationError(
                    f"snapshot t={s.t} presence vector has length {len(s.present)}, "
                    f"risk set has {n}"
                )
        self.risk_set = risk_set
        self.snapshots = snaps
        self.gaps = gaps
        self._by_t = {s.t: s for s in snaps}

    def at(self, t: int):
        """Snapshot at time ``t`` or None if unobserved."""
        return self._by_t.get(t)

    @property
    def observed_times(self):
        return tuple(s.t for s in self.snapshots)

    @property
    def t_min(self) -> int:
        ts = self.observed_times + self.gaps
        if not ts:
            raise ValueError("panel has no snapshots or gaps")
        return min(ts)

    @property
    def t_max(self) -> int:
        ts = self.observed_times + self.gaps
        if not ts:
            raise ValueError("panel has no snapshots or gaps")
        return max(ts)

    def __len__(self):
        return len(self.snapshots)

    def __eq__(self, other):
        return (
            isinstance(other, NetworkPanel)
            and self.risk_set == other.risk_set
            and self.snapshots == other.snapshots
            and self.gaps == other.gaps
        )

    def __repr__(self):
        return (
            f"NetworkPanel(n={len(self.risk_set)}, T={len(self.snapshots)}, "
            f"gaps={list(self.gaps)})"
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses


def _json_list(items, depth) -> str:
    """A JSON array of already encoded ``items``, laid out as
    ``json.dumps(indent=2)`` lays out an array ``depth`` levels deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_attrs(attrs: dict, memo) -> str:
    """``json.dumps(attrs, indent=2, sort_keys=True)`` as the value of a
    vertex's or snapshot's ``attrs``, encoded once per distinct value in
    ``memo``.  The memo key is the repr, which tells apart values that
    compare equal but encode differently (``1`` and ``True``, ``0.0`` and
    ``-0.0``)."""
    key = repr(attrs)
    text = memo.get(key)
    if text is None:
        text = json.dumps(attrs, indent=2, sort_keys=True)
        memo[key] = text = text.replace("\n", "\n      ")
    return text


def _risk_set_json(rs: RiskSet) -> tuple:
    """What a panel's text takes from its risk set, built once and cached
    on it: the encoded ``risk_set`` array, each vertex's rank among the
    labels in sorted order, by rank the encoded first and second label of
    an edge, and the ``_json_attrs`` memo its panels share."""
    if rs._json is None:
        n = len(rs)
        labels = np.array([_encode_str(lab) for lab in rs.labels], dtype=object)
        memo = {}
        names = sorted(rs.attrs)
        rows = zip(*(rs.attrs[k] for k in names)) if names else [()] * n
        risk = [
            '{\n      "attrs": '
            + _json_attrs({k: v for k, v in zip(names, row) if v is not None}, memo)
            + ',\n      "label": ' + lab + "\n    }"
            for lab, row in zip(labels.tolist(), rows)
        ]
        # an edge is its two labels in sorted order, and edges sort by that
        # pair: rank the labels once and sort each snapshot's edges by ranks
        order = np.array(sorted(range(n), key=rs.labels.__getitem__), dtype=np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        object.__setattr__(rs, "_json", (
            labels, _json_list(risk, 1), rank,
            "[\n          " + labels[order] + ",\n          ", labels[order] + "\n        ]",
            memo))
    return rs._json


def panel_to_json(panel: NetworkPanel) -> str:
    """Canonical serialization: same panel -> identical bytes.

    The text is ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` of the
    object with keys ``risk_set`` (``{"label", "attrs"}`` per vertex, None
    attrs left out), ``snapshots`` (``t``, ``attrs``, the ``present`` labels
    in risk-set order and the ``edges`` as label pairs, smaller label first,
    in sorted order), ``gaps`` and ``directed: false``.  ``json.dumps`` with
    an indent runs json's pure-Python encoder, so the text is written
    directly: each label is encoded once per risk set, and only attrs go
    through ``json.dumps``.
    """
    labels, risk, rank, first, second, memo = _risk_set_json(panel.risk_set)
    n = len(labels)
    snaps = []
    for s in panel.snapshots:
        a, b = np.divmod(s.codes, n)
        a, b = rank[a], rank[b]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        by = np.lexsort((hi, lo))
        snaps.append(
            '{\n      "attrs": ' + _json_attrs(dict(s.time_attrs), memo)
            + ',\n      "edges": ' + _json_list((first[lo[by]] + second[hi[by]]).tolist(), 3)
            + ',\n      "present": ' + _json_list(labels[s.present_indices].tolist(), 3)
            + ',\n      "t": ' + str(s.t) + "\n    }"
        )
    return (
        '{\n  "directed": false'
        + ',\n  "gaps": ' + _json_list([str(g) for g in panel.gaps], 1)
        + ',\n  "risk_set": ' + risk
        + ',\n  "snapshots": ' + _json_list(snaps, 1)
        + "\n}\n"
    )


def save_panel(panel: NetworkPanel, path) -> None:
    try:
        Path(path).write_text(panel_to_json(panel), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write panel file {path}: {exc}") from exc


def _json_kind(value) -> str:
    """What a JSON value is, for naming it in an error: the value itself
    when it is a scalar, only its kind when it is an object or a list."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return _as_json(value)


def _typed(value, kind, where):
    """``value`` if it is a ``kind``: dict, list or int (a bool is no int)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        name = {dict: "an object", list: "a list", int: "an integer"}[kind]
        raise PanelFormatError(f"{where} must be {name}, got {_json_kind(value)}")
    return value


def _require(obj, key, where, kind=None):
    if key not in _typed(obj, dict, where):
        raise PanelFormatError(f"missing key {key!r} in {where}")
    return obj[key] if kind is None else _typed(obj[key], kind, f"{key} in {where}")


def _label_indices(index, labels, count) -> tuple:
    """The risk-set index of each of the ``count`` labels that the call
    ``labels()`` iterates, -1 where there is none, in one dict pass, and
    whether every label was found.  A label that is not a key (a JSON
    number) is looked up again as ``str(label)``."""
    try:
        at = np.fromiter(map(index.get, labels(), repeat(-1)), np.int64, count)
    except TypeError:  # an unhashable label (a JSON array or object)
        at = np.full(count, -1, dtype=np.int64)
    if not count or at.min() >= 0:
        return at, True
    labels = list(labels())
    for k in np.flatnonzero(at < 0).tolist():
        at[k] = index.get(str(labels[k]), -1)
    return at, bool(at.min() >= 0)


def _as_json(value) -> str:
    return json.dumps(value, default=repr)


def _edge_indices(risk, edges, bits, t) -> tuple:
    """Endpoint indices ``(ii, jj)`` of a snapshot's edges, given as label
    pairs; the first bad edge, in file order, is named."""
    try:
        edges = list(edges)
    except TypeError:
        raise PanelFormatError(f"edges at t={t} must be a list of label pairs, "
                               f"got {_as_json(edges)}") from None
    pairs = set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
    m = len(edges) if pairs else next(
        k for k, e in enumerate(edges) if type(e) is not list or len(e) != 2)
    ends, found = _label_indices(risk._index, lambda: chain.from_iterable(edges[:m]), 2 * m)
    ii, jj = ends[0::2], ends[1::2]
    if m == len(edges) and found and bits[ends].all():
        return ii, jj
    ok = (ii >= 0) & (jj >= 0)
    ok[ok] = bits[ii[ok]] & bits[jj[ok]]
    k = int(np.argmin(ok)) if np.count_nonzero(ok) < m else m
    if k == m:  # the first edge that is not a pair, every earlier one sound
        raise PanelFormatError(f"edge at t={t} must be a pair of labels, "
                               f"got {_as_json(edges[k])}")
    a, b = edges[k]
    try:
        risk.index_of(str(a)), risk.index_of(str(b))
    except KeyError as exc:
        raise PanelValidationError(f"edge label at t={t}: {exc}") from None
    raise PanelValidationError(f"edge endpoint absent at t={t}: ({a},{b})")


def _snapshots_one_by_one(risk, records) -> list:
    """The snapshots of a file's records, checked record by record: raises
    on the first bad record, in file order."""
    snapshots = []
    for k, rec in enumerate(records):
        t = _require(rec, "t", f"snapshots[{k}]", int)
        present = _require(rec, "present", f"snapshots[{k}]", list)
        at, found = _label_indices(risk._index, lambda: present, len(present))
        if not found:
            raise PanelValidationError(f"present vertex {present[int(np.argmax(at < 0))]!r} "
                                       f"at t={t} is not in the risk set")
        bits = np.zeros(len(risk), dtype=bool)
        bits[at] = True
        edges = _edge_indices(risk, _require(rec, "edges", f"snapshots[{k}]"), bits, t)
        attrs = _typed(rec.get("attrs", {}), dict, f"attrs in snapshots[{k}]")
        snapshots.append(Snapshot(t, bits, edges, attrs))
    return snapshots


def _sound_record(rec) -> bool:
    """Whether a snapshot record has the shape of the file format: an
    integer ``t``, lists ``present`` and ``edges``, an object ``attrs``."""
    return (type(rec) is dict and type(rec.get("t")) is int
            and type(rec.get("present")) is list and type(rec.get("edges")) is list
            and type(rec.get("attrs", {})) is dict)


def _snapshots(risk, records) -> list:
    """The snapshots of a file's records, read in whole-file passes.

    Every record's present labels and every edge's labels are looked up in
    one pass each, and all edges are checked at once: label pairs, known
    labels, present endpoints, no loops.  One sort, keyed by snapshot and
    then code, gives every snapshot's sorted codes, and duplicates are
    dropped over all of them at once.  Only a file that fails some check is
    read again record by record, to name its first bad record in file
    order; so is one whose keys would overflow int64."""
    n, count = len(risk), len(records)
    if not all(map(_sound_record, records)) or count * n * n > _KEY_LIMIT:
        return _snapshots_one_by_one(risk, records)
    presents = [rec["present"] for rec in records]
    edge_lists = [rec["edges"] for rec in records]
    sizes = np.fromiter(map(len, presents), np.int64, count)
    counts = np.fromiter(map(len, edge_lists), np.int64, count)
    at, found = _label_indices(risk._index, lambda: chain.from_iterable(presents),
                               int(sizes.sum()))
    flat = chain.from_iterable
    if not (found and set(map(type, flat(edge_lists))) <= {list}
            and set(map(len, flat(edge_lists))) <= {2}):
        return _snapshots_one_by_one(risk, records)
    ends, found = _label_indices(risk._index, lambda: flat(flat(edge_lists)),
                                 2 * int(counts.sum()))
    if not found:
        return _snapshots_one_by_one(risk, records)
    step = np.arange(count)
    bits = np.zeros((count, n), dtype=bool)
    bits[step.repeat(sizes), at] = True
    of = step.repeat(counts)
    lo, hi = np.minimum(ends[0::2], ends[1::2]), np.maximum(ends[0::2], ends[1::2])
    if not (np.all(lo != hi) and bits[of, lo].all() and bits[of, hi].all()):
        return _snapshots_one_by_one(risk, records)
    keys = (of * n + lo) * n + hi
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    cut = np.searchsorted(keys, step * (n * n)).tolist() + [len(keys)]
    return [Snapshot(rec["t"], bits[k], keys[cut[k]:cut[k + 1]] - k * (n * n),
                     rec.get("attrs", {}), _trusted=True)
            for k, rec in enumerate(records)]


def panel_from_obj(obj: dict) -> NetworkPanel:
    if not isinstance(obj, dict):
        raise PanelFormatError("top level of a panel file must be an object")
    if obj.get("directed", False):
        raise PanelValidationError("directed panels are not supported")
    entries = _require(obj, "risk_set", "panel file", list)
    if not all(type(e) is dict and "label" in e and type(e.get("attrs", {})) is dict
               for e in entries):
        for k, entry in enumerate(entries):  # name the first bad entry
            _require(entry, "label", f"risk_set[{k}]")
            _typed(entry.get("attrs", {}), dict, f"attrs in risk_set[{k}]")
    risk = RiskSet([str(e["label"]) for e in entries], [e.get("attrs", {}) for e in entries])
    snapshots = _snapshots(risk, _require(obj, "snapshots", "panel file", list))
    gaps = _typed(obj.get("gaps", []), list, "gaps in panel file")
    for k, gap in enumerate(gaps):
        _typed(gap, int, f"gaps[{k}] in panel file")
    return NetworkPanel(risk, snapshots, gaps)


def load_panel(path) -> NetworkPanel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read panel file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PanelFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return panel_from_obj(obj)


def subpanel(panel: NetworkPanel, t_from: int, t_to: int) -> NetworkPanel:
    """Panel restricted to the closed time window [t_from, t_to], keeping
    the gaps within the span of the snapshots it keeps."""
    if t_from > t_to:
        raise ValueError(f"t_from={t_from} exceeds t_to={t_to}")
    if t_from < panel.t_min or t_to > panel.t_max:
        raise ValueError(
            f"window [{t_from},{t_to}] outside panel range "
            f"[{panel.t_min},{panel.t_max}]"
        )
    snaps = [s for s in panel.snapshots if t_from <= s.t <= t_to]
    gaps = [g for g in panel.gaps if snaps and snaps[0].t < g < snaps[-1].t]
    return NetworkPanel(panel.risk_set, snaps, gaps)


# ---------------------------------------------------------------------------
# converter: 3-column edge list + 2-column presence table -> panel
# ---------------------------------------------------------------------------

def _csv_fields(fields, text):
    """``fields``, the record ``csv.reader`` read from ``text``, with every
    unquoted field stripped: a quoted field keeps its text, commas, spaces
    and line breaks included.  The reader skipped the spaces before each
    field, and past a quoted field comes its delimiter (``strict``), so the
    text is walked field by field to tell which were quoted."""
    pos = 0
    for k, value in enumerate(fields):
        while text.startswith(" ", pos):
            pos += 1
        if text.startswith('"', pos):  # the quotes, every inner one doubled
            pos += len(value) + value.count('"') + 2
        else:
            pos += len(value)
            fields[k] = value.strip()
        pos += 1  # the comma
    return fields


def _read_table(path, n_cols, what):
    """Rows (lineno, t, *fields) of a table whose rows are comma-separated
    CSV records (see ``_csv_fields``), which span lines where a quoted field
    holds a line break, or, with no comma on their line, whitespace-separated.
    Lines that are blank or start with ``#`` where a row would start are
    skipped; a row's ``lineno`` is that of its first line.  A byte-order
    mark at the start of the file is dropped."""
    rows = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError as exc:
        raise OSError(f"cannot read {what} file {path}: {exc}") from exc
    at = 0  # the next line to read

    def feed():  # the lines of CSV records, to one reader over the whole text
        nonlocal at
        while at < len(lines):
            at += 1
            yield lines[at - 1]

    reader = csv.reader(feed(), skipinitialspace=True, strict=True)
    while at < len(lines):
        lineno, line = at + 1, lines[at].strip()
        if not line or line.startswith("#"):
            at += 1
            continue
        if "," in line:
            lines[at] = lines[at].lstrip()
            try:
                parts = _csv_fields(next(reader), "".join(lines[lineno - 1:at]))
            except csv.Error as exc:
                raise PanelFormatError(
                    f"{path}:{lineno}: {what} row is not valid CSV: {exc}") from None
        else:
            at += 1
            parts = line.split()
        if len(parts) != n_cols:
            raise PanelFormatError(
                f"{path}:{lineno}: expected {n_cols} columns in {what} row, "
                f"got {len(parts)}"
            )
        try:
            t = int(parts[0])
        except ValueError:
            raise PanelFormatError(
                f"{path}:{lineno}: first column must be an integer time index"
            ) from None
        rows.append((lineno, t, *parts[1:]))
    return rows


def read_edge_presence_tables(edge_path, presence_path):
    """Parse converter inputs: edge rows (t, i, j) and presence rows (t, label)."""
    return _read_table(edge_path, 3, "edge"), _read_table(presence_path, 2, "presence")


def panel_from_edge_presence(edge_rows, presence_rows, gaps=()) -> NetworkPanel:
    """Assemble a panel from row tuples as returned by the table reader.

    The risk set is the union of presence labels in sorted label order; an
    edge whose endpoint is not listed as present at its time index is a
    validation error naming the offending row.  A gap must lie within the
    observed time span: one outside it would move the panel's first time
    index, which keys every simulation stream.
    """
    present_by_t: dict[int, set] = {}
    for _lineno, t, lab in presence_rows:
        present_by_t.setdefault(t, set()).add(lab)
    _check_gap_span(gaps, present_by_t, "(no presence records)")
    labels = sorted({lab for members in present_by_t.values() for lab in members})
    risk = RiskSet(labels)
    n = len(risk)

    edges_by_t: dict[int, list] = {t: [] for t in present_by_t}
    for lineno, t, a, b in edge_rows:
        if t not in present_by_t:
            raise PanelValidationError(
                f"edge row {lineno}: time {t} has no presence records"
            )
        for lab in (a, b):
            if lab not in present_by_t[t]:
                raise PanelValidationError(
                    f"edge row {lineno}: vertex {lab!r} not present at t={t}"
                )
        i, j = risk.index_of(a), risk.index_of(b)
        if i == j:
            raise PanelValidationError(f"edge row {lineno}: loop edge at t={t}")
        edges_by_t[t].append((i, j))

    snapshots = [
        Snapshot(t, [risk.index_of(lab) for lab in members], edges_by_t[t], n=n)
        for t, members in sorted(present_by_t.items())
    ]
    return NetworkPanel(risk, snapshots, gaps)
