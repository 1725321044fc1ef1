import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynetlogit import (
    NetworkPanel,
    PanelFormatError,
    PanelValidationError,
    RiskSet,
    Snapshot,
    load_panel,
    panel_from_edge_presence,
    save_panel,
    subpanel,
)
from dynetlogit.panel import panel_from_obj, panel_to_json
from dynetlogit.terms import WEEKDAYS

from conftest import bench_workloads, random_panel
from oracles import panel_from_obj_by_label, panel_from_obj_by_snapshot, panel_json_by_dumps


def test_round_trip_single_snapshot(tmp_path):
    rs = RiskSet(["a", "b", "c"])
    p = NetworkPanel(rs, [Snapshot(1, [0, 1, 2], [(0, 1)], n=3)])
    path = tmp_path / "p.json"
    save_panel(p, path)
    q = load_panel(path)
    assert q == p
    assert q.at(1).n_present == 3
    assert q.at(1).edge_count == 1


def test_round_trip_empty_panel(tmp_path):
    p = NetworkPanel(RiskSet(["a", "b"]), [])
    path = tmp_path / "p.json"
    save_panel(p, path)
    assert load_panel(path) == p


def test_round_trip_preserves_gaps(tmp_path):
    rs = RiskSet(["a", "b"])
    p = NetworkPanel(rs, [Snapshot(1, [0], [], n=2), Snapshot(3, [1], [], n=2)],
                     gaps=[2])
    path = tmp_path / "p.json"
    save_panel(p, path)
    q = load_panel(path)
    assert q.gaps == (2,)
    assert q == p


def test_double_serialization_is_byte_identical(tmp_path):
    rng = np.random.default_rng(42)
    panel = random_panel(rng, n=95, T=30, presence=0.2, density=0.2,
                         gaps=(25,), t0=1)
    assert len(panel.snapshots) == 30
    first = panel_to_json(panel)
    second = panel_to_json(load_panel_roundtrip(panel, tmp_path))
    assert first == second


def load_panel_roundtrip(panel, tmp_path):
    path = tmp_path / "rt.json"
    save_panel(panel, path)
    return load_panel(path)


def test_edge_with_absent_endpoint_rejected():
    with pytest.raises(PanelValidationError, match="t=1"):
        Snapshot(1, [0, 1], [(0, 3)], n=4)


def test_loader_names_bad_edge(tmp_path):
    rs = RiskSet(["a", "b", "c", "d"])
    p = NetworkPanel(rs, [Snapshot(1, [0, 1, 2], [(0, 1)], n=4)])
    path = tmp_path / "p.json"
    save_panel(p, path)
    obj = json.loads(path.read_text())
    obj["snapshots"][0]["edges"].append(["a", "d"])  # d absent at t=1
    path.write_text(json.dumps(obj))
    with pytest.raises(PanelValidationError, match=r"t=1.*a.*d"):
        load_panel(path)


def test_round_trip_with_null_and_false_attrs(tmp_path):
    rs = RiskSet(["a", "b"], [{"flag": False, "ghost": None}, {"flag": True}])
    assert "ghost" not in rs.attrs  # all-None column is dropped up front
    p = NetworkPanel(rs, [Snapshot(1, [0, 1], [(0, 1)], n=2)])
    path = tmp_path / "p.json"
    save_panel(p, path)
    q = load_panel(path)
    assert q == p
    assert q.risk_set.attrs["flag"] == (False, True)


def test_duplicate_label_rejected():
    with pytest.raises(PanelValidationError, match="duplicate"):
        RiskSet(["a", "a", "b"])


def test_duplicate_label_named_in_a_large_risk_set():
    labels = [f"v{k}" for k in range(200_000)]
    labels.insert(123_456, "v99")
    with pytest.raises(PanelValidationError,
                       match=re.escape("duplicate vertex label(s): ['v99']")):
        RiskSet(labels)


def test_duplicate_snapshot_time_named():
    snaps = [Snapshot(t, [0], [], n=1) for t in (3, 1, 3, 2, 1)]
    with pytest.raises(PanelValidationError,
                       match=re.escape("duplicate snapshot time index: [1, 3]")):
        NetworkPanel(RiskSet(["a"]), snaps)


def test_directed_input_rejected(tmp_path):
    rs = RiskSet(["a", "b"])
    p = NetworkPanel(rs, [])
    path = tmp_path / "p.json"
    save_panel(p, path)
    obj = json.loads(path.read_text())
    obj["directed"] = True
    path.write_text(json.dumps(obj))
    with pytest.raises(PanelValidationError, match="directed"):
        load_panel(path)


def test_directed_rejected_before_snapshots_are_read():
    obj = {"directed": True, "risk_set": [], "snapshots": [{"t": 1}]}
    with pytest.raises(PanelValidationError, match="directed"):
        panel_from_obj(obj)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"risk_set": [,]}')
    with pytest.raises(PanelFormatError, match="line 1"):
        load_panel(path)


def test_missing_key_is_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"snapshots": []}')
    with pytest.raises(PanelFormatError, match="risk_set"):
        load_panel(path)


def test_loop_edge_rejected():
    with pytest.raises(PanelValidationError, match="loop"):
        Snapshot(1, [0, 1], [(1, 1)], n=2)


def test_integer_index_array_is_not_a_bitmask():
    # only a bool vector is a presence bitmask; an index array needs n
    s = Snapshot(1, np.array([0, 2]), [], n=3)
    assert s.present.tolist() == [True, False, True]
    assert s.n_present == 2


def test_edge_index_outside_risk_set_rejected():
    for edge in [(0, 3), (-1, 1)]:
        with pytest.raises(PanelValidationError, match="outside the risk set at t=1"):
            Snapshot(1, [0, 1, 2], [edge], n=3)


def test_present_index_outside_risk_set_rejected():
    for present in ([0, 3], [-1, 1]):
        with pytest.raises(PanelValidationError, match="outside the risk set"):
            Snapshot(1, present, [], n=3)


def test_attr_indicator_is_cached_and_read_only():
    rs = RiskSet(["a", "b", "c", "d"],
                 {"regular": [True, 1, False, None], "role": ["x", "y", "x", "y"]})
    first = rs.attr_indicator("regular")
    assert first.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert rs.attr_indicator("regular") is first
    assert rs.attr_indicator("role").tolist() == [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        first[2] = 1.0
    assert rs.attr_indicator("regular").tolist() == [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(KeyError):
        rs.attr_indicator("nope")


def test_gap_overlapping_snapshot_rejected():
    rs = RiskSet(["a"])
    with pytest.raises(PanelValidationError, match="gap"):
        NetworkPanel(rs, [Snapshot(1, [0], [], n=1)], gaps=[1])


def test_subpanel_single_and_full(tiny_panel):
    one = subpanel(tiny_panel, 2, 2)
    assert len(one.snapshots) == 1
    assert one.at(2) == tiny_panel.at(2)
    assert subpanel(tiny_panel, 1, 3) == tiny_panel


def test_subpanel_drops_excluded_gap(tmp_path):
    """A subpanel keeps the gaps within the span of the snapshots it keeps,
    so that it saves to a file that loads back."""
    rs = RiskSet(["a", "b"])
    p = NetworkPanel(rs, [Snapshot(t, [t % 2], [], n=2) for t in (1, 4, 6)], gaps=[2, 3, 5])
    assert subpanel(p, 3, 6).gaps == (5,)
    q = subpanel(p, 3, 4)
    assert q.gaps == ()
    assert load_panel_roundtrip(q, tmp_path) == q


def test_subpanel_range_errors(tiny_panel):
    with pytest.raises(ValueError):
        subpanel(tiny_panel, 0, 2)
    with pytest.raises(ValueError):
        subpanel(tiny_panel, 2, 9)
    with pytest.raises(ValueError):
        subpanel(tiny_panel, 3, 2)


# labels and attrs that json must escape or that sort unlike their code points
# in another encoding: non-ASCII, quote, backslash, newline, NUL, astral
_chars = st.one_of(st.characters(), st.sampled_from('"\\\n\x00\U0001F600\u00e9'))
_labels = st.text(_chars, max_size=4)
_scalars = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 0.0, -0.0, 1]),
                     st.integers(), st.floats(allow_nan=False), st.text(_chars, max_size=3))


@st.composite
def panels(draw, labels=_labels):
    """Panels whose labels are listed in any order, with vertex and time
    attrs of every JSON scalar kind, gaps within the snapshots' time span
    and snapshots without vertices or edges."""
    labels = draw(st.lists(labels, max_size=7, unique=True))
    n = len(labels)
    attrs = draw(st.dictionaries(st.text(_chars, max_size=3),
                                 st.lists(_scalars, min_size=n, max_size=n), max_size=3))
    times = draw(st.lists(st.integers(-2, 9), max_size=5, unique=True))
    inside = [g for g in range(min(times, default=0), max(times, default=-1))
              if g not in times]
    gaps = draw(st.lists(st.sampled_from(inside), max_size=2, unique=True)) if inside else []
    snaps = []
    for t in times:
        bits = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        pairs = list(combinations(np.flatnonzero(bits).tolist(), 2))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
        day = draw(st.dictionaries(st.text(_chars, max_size=3), _scalars, max_size=2))
        snaps.append(Snapshot(t, bits, edges, day))
    return NetworkPanel(RiskSet(labels, attrs), snaps, gaps=gaps)


@given(panels())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("rt") / "p.json"
    save_panel(panel, path)
    assert load_panel(path) == panel


@given(panels())
@settings(max_examples=300, deadline=None)
def test_canonical_bytes_property(panel):
    assert panel_to_json(panel) == panel_json_by_dumps(panel)


def test_equal_attrs_of_other_types_keep_their_bytes():
    # True == 1 == 1.0 and 0.0 == -0.0, but each encodes differently
    values = [True, 1, 1.0, False, 0, 0.0, -0.0, None, "1"]
    rs = RiskSet([f"v{k}" for k in range(len(values))], {"x": values})
    days = [{"day": v} for v in values]
    panel = NetworkPanel(rs, [Snapshot(t, [t], [], day, n=len(values))
                              for t, day in enumerate(days)])
    assert panel_to_json(panel) == panel_json_by_dumps(panel)


def test_attrs_are_encoded_once_per_risk_set(monkeypatch):
    """Panels over one risk set share its encoded attrs: three weeks of days
    in each of two panels take one encoding per distinct value, and the
    vertices' and days' equal values share theirs."""
    import dynetlogit.panel as panel_module
    rs = RiskSet(["a", "b", "c"], {"day": ["Monday", None, "Friday"]})
    days = [Snapshot(t, [0, 1], [(0, 1)], {"day": WEEKDAYS[t % 7]}, n=3)
            for t in range(21)]
    encoded = []
    dumps = json.dumps
    monkeypatch.setattr(panel_module.json, "dumps",
                        lambda obj, **kw: encoded.append(obj) or dumps(obj, **kw))
    texts = [panel_to_json(NetworkPanel(rs, days[k::2])) for k in (0, 1)]
    assert sorted(map(repr, encoded)) == sorted(
        repr(x) for x in [{"day": "Monday"}, {}, {"day": "Friday"},
                          *({"day": d} for d in WEEKDAYS[1:4] + WEEKDAYS[5:])])
    monkeypatch.undo()
    assert texts == [panel_json_by_dumps(NetworkPanel(rs, days[k::2])) for k in (0, 1)]


@given(panels())
@settings(max_examples=150, deadline=None)
def test_loader_equals_label_by_label_oracle(panel):
    obj = json.loads(panel_to_json(panel))
    assert panel_from_obj(obj) == panel_from_obj_by_label(obj) == panel
    assert panel_from_obj_by_snapshot(obj) == panel


# labels that also come as JSON numbers in a file
_numeric_labels = st.one_of(_labels, st.integers(-3, 30).map(str))


def _as_number(label):
    return int(label) if re.fullmatch(r"-?[0-9]+", label) and str(int(label)) == label else label


@given(panels(_numeric_labels), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_messy_files_load_as_the_oracles_load(panel, rnd):
    """Edges listed either way round, more than once and in any order,
    present labels repeated and in any order, and labels written as JSON
    numbers load to the same panel on the loader and both oracles."""
    obj = json.loads(panel_to_json(panel))
    number = (lambda label: _as_number(label) if rnd.random() < 0.5 else label)
    for entry in obj["risk_set"]:
        entry["label"] = number(entry["label"])
    for snap in obj["snapshots"]:
        edges = [[number(a), number(b)][::rnd.choice([1, -1])] for a, b in snap["edges"]]
        edges += rnd.sample(edges, rnd.randint(0, len(edges)))
        rnd.shuffle(edges)
        present = [number(label) for label in snap["present"]]
        present += rnd.sample(present, rnd.randint(0, len(present)))
        rnd.shuffle(present)
        snap["edges"], snap["present"] = edges, present
    assert panel_from_obj(obj) == panel_from_obj_by_snapshot(obj) == panel
    assert panel_from_obj_by_label(obj) == panel


@pytest.mark.parametrize("workload", ["month", "cycles", "million"])
def test_workload_panels_match_the_oracles(workload):
    workloads = bench_workloads()
    base, _specs = workloads._base_draw(workload)
    for seed in (0, 17):
        panel = workloads._permuted(base, seed)
        text = panel_to_json(panel)
        assert text == panel_json_by_dumps(panel)
        obj = json.loads(text)
        assert panel_from_obj(obj) == panel_from_obj_by_label(obj) == panel


def _small_panel_obj():
    rs = RiskSet(["a", "b", "c", "d", "7"], {"regular": [True, False, None, 1, 0]})
    snaps = [Snapshot(1, [0, 1, 2, 4], [(0, 1), (1, 2), (4, 0)], {"day": "Mon"}, n=5),
             Snapshot(3, [0, 3], [(0, 3)], n=5)]
    return json.loads(panel_to_json(NetworkPanel(rs, snaps, gaps=[2])))


def _edit(path, value):
    """Corruption setting ``path`` (keys and indices) in a panel object to
    ``value``, or deleting its last key when ``value`` is ``_DELETE``."""
    def apply(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        if value is _DELETE:
            del obj[last]
        else:
            obj[last] = value
    return apply


def _both(first, second):
    def apply(obj):
        first(obj)
        second(obj)
    return apply


_DELETE = object()
_CORRUPTIONS = {
    "unknown present": _edit(("snapshots", 0, "present", 1), "zz"),
    "two unknown present": _edit(("snapshots", 0, "present"), ["a", "yy", "b", "zz"]),
    "unknown edge first": _edit(("snapshots", 0, "edges", 1), ["zz", "b"]),
    "unknown edge second": _edit(("snapshots", 0, "edges", 1), ["b", "zz"]),
    "numeric present match": _edit(("snapshots", 0, "present", 3), 7),
    "numeric edge match": _edit(("snapshots", 0, "edges", 0), [7, "a"]),
    "numeric present miss": _edit(("snapshots", 0, "present", 3), 8),
    "numeric edge miss": _edit(("snapshots", 0, "edges", 0), ["a", 8.5]),
    "list label": _edit(("snapshots", 0, "present", 0), ["a"]),
    "two unknown edges": _edit(("snapshots", 0, "edges"), [["a", "b"], ["yy", "b"], ["a", "zz"]]),
    "absent endpoint": _edit(("snapshots", 0, "edges", 1), ["a", "d"]),
    "two absent endpoints": _edit(("snapshots", 0, "edges"), [["a", "b"], ["c", "d"], ["d", "a"]]),
    "absent later endpoint": _edit(("snapshots", 1, "edges", 0), ["a", "b"]),
    "three-label edge": _edit(("snapshots", 0, "edges", 1), ["a", "b", "c"]),
    "one-label edge": _edit(("snapshots", 0, "edges", 0), ["a"]),
    "number edge": _edit(("snapshots", 0, "edges", 2), 5),
    "null edge": _edit(("snapshots", 0, "edges", 1), None),
    "string edge": _edit(("snapshots", 0, "edges", 2), "ad"),
    "edges not a list": _edit(("snapshots", 0, "edges"), 5),
    "loop": _edit(("snapshots", 0, "edges", 1), ["b", "b"]),
    "label fault before width fault": _edit(("snapshots", 0, "edges"),
                                            [["a", "b"], ["a", "zz"], ["a", "b", "c"]]),
    "width fault before label fault": _edit(("snapshots", 0, "edges"),
                                            [["a", "b"], ["a"], ["a", "zz"]]),
    "absent before loop": _edit(("snapshots", 0, "edges"), [["c", "c"], ["a", "d"]]),
    "loop after absent": _edit(("snapshots", 0, "edges"), [["a", "d"], ["c", "c"]]),
    "later loop": _edit(("snapshots", 1, "edges", 0), ["d", "d"]),
    "first edge a loop": _edit(("snapshots", 0, "edges", 0), ["a", "a"]),
    "later unknown present": _edit(("snapshots", 1, "present"), ["a", "zz"]),
    "loop before later unknown": _both(_edit(("snapshots", 0, "edges", 0), ["a", "a"]),
                                       _edit(("snapshots", 1, "edges", 0), ["a", "zz"])),
    "absent before later width fault": _both(
        _edit(("snapshots", 0, "edges", 2), ["a", "d"]),
        _edit(("snapshots", 1, "edges", 0), ["a"])),
    "loop before later float t": _both(_edit(("snapshots", 0, "edges", 1), ["c", "c"]),
                                       _edit(("snapshots", 1, "t"), 3.0)),
    "loop before bad attrs": _both(_edit(("snapshots", 0, "edges", 1), ["c", "c"]),
                                   _edit(("snapshots", 0, "attrs"), 5)),
    "later unknown edge": _edit(("snapshots", 1, "edges", 0), ["a", "zz"]),
    "reversed duplicate edge match": _edit(("snapshots", 0, "edges"),
                                           [["b", "c"], ["b", "a"], ["a", "b"], ["c", "b"]]),
    "gap before span": _edit(("gaps",), [0, 2]),
    "gap after span": _edit(("gaps",), [2, 4]),
    "missing present": _edit(("snapshots", 1, "present"), _DELETE),
    "missing edges": _edit(("snapshots", 0, "edges"), _DELETE),
    "missing t": _edit(("snapshots", 0, "t"), _DELETE),
    "missing label": _edit(("risk_set", 2, "label"), _DELETE),
    "missing snapshots": _edit(("snapshots",), _DELETE),
    "duplicate time": _edit(("snapshots", 1, "t"), 1),
    "directed": _edit(("directed",), True),
    "float t": _edit(("snapshots", 0, "t"), 1.5),
    "string present": _edit(("snapshots", 0, "present"), "ab"),
    "non-object attrs": _edit(("snapshots", 0, "attrs"), ["day", "Mon"]),
    "non-object vertex attrs": _edit(("risk_set", 1, "attrs"), "regular"),
    "risk set not a list": _edit(("risk_set",), {"label": "a"}),
    "snapshots not a list": _edit(("snapshots",), 5),
    "gaps not a list": _edit(("gaps",), 2),
    "float gap": _edit(("gaps", 0), 2.0),
}


def _outcome(load, obj):
    try:
        return load(obj)
    except Exception as exc:  # the outcome compared is the exception raised
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
def test_corrupt_file_fails_as_the_oracle_fails(name):
    obj = _small_panel_obj()
    _CORRUPTIONS[name](obj)
    new, old = _outcome(panel_from_obj, obj), _outcome(panel_from_obj_by_label, obj)
    assert new == old == _outcome(panel_from_obj_by_snapshot, obj)
    assert isinstance(new, NetworkPanel) == name.endswith("match")
    if name in _NOT_PAIRS:  # a format error that names the time and the edge
        assert new[0] is PanelFormatError and new[1].startswith("edge")
        assert "at t=1 must be " in new[1] and new[1].endswith(_NOT_PAIRS[name])


_NOT_PAIRS = {"number edge": "got 5", "null edge": "got null", "string edge": 'got "ad"',
              "three-label edge": 'got ["a", "b", "c"]', "one-label edge": 'got ["a"]',
              "width fault before label fault": 'got ["a"]', "edges not a list": "got 5"}


# converter ------------------------------------------------------------------

def test_convert_single_edge():
    presence = [(1, 1, "a"), (2, 1, "b")]
    edges = [(1, 1, "a", "b")]
    p = panel_from_edge_presence(edges, presence)
    assert len(p.risk_set) == 2
    assert p.at(1).edge_count == 1


def test_convert_missing_endpoint_names_row():
    presence = [(1, 1, "a")]
    edges = [(7, 1, "a", "b")]
    with pytest.raises(PanelValidationError, match="row 7"):
        panel_from_edge_presence(edges, presence)


def test_convert_three_day_toy_equals_handwritten():
    presence = [
        (1, 1, "a"), (2, 1, "b"), (3, 1, "c"),
        (4, 2, "a"), (5, 2, "b"),
        (6, 3, "a"), (7, 3, "b"), (8, 3, "c"),
    ]
    edges = [(1, 1, "a", "b"), (2, 2, "a", "b"), (3, 3, "b", "c")]
    built = panel_from_edge_presence(edges, presence)
    rs = RiskSet(["a", "b", "c"])
    hand = NetworkPanel(rs, [
        Snapshot(1, [0, 1, 2], [(0, 1)], n=3),
        Snapshot(2, [0, 1], [(0, 1)], n=3),
        Snapshot(3, [0, 1, 2], [(1, 2)], n=3),
    ])
    assert built == hand


def test_risk_set_is_encoded_once_for_many_panels(monkeypatch):
    """Writing many panels over one risk set, as ``project --dump-graphs``
    does, encodes its labels and attributes once; every text stays the
    canonical one."""
    import dynetlogit.panel as panel_module
    encoded = []
    original = panel_module._encode_str
    monkeypatch.setattr(panel_module, "_encode_str",
                        lambda label: encoded.append(label) or original(label))
    rng = np.random.default_rng(9)
    rs = RiskSet([f"w{k}" for k in range(12)], {"club": [k % 3 == 0 for k in range(12)]})
    for k in range(5):
        bits = rng.random(12) < 0.6
        idx = np.flatnonzero(bits)
        panel = NetworkPanel(rs, [Snapshot(k + 1, bits, [(idx[0], idx[-1])], {"day": "Mon"})])
        assert panel_to_json(panel) == panel_json_by_dumps(panel)
    assert sorted(encoded) == sorted(rs.labels)
