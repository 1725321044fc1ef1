import json

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
from dynetlogit.panel import panel_to_json

from conftest import random_panel


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


def test_subpanel_drops_excluded_gap():
    rs = RiskSet(["a", "b"])
    p = NetworkPanel(rs, [Snapshot(1, [0], [], n=2), Snapshot(4, [1], [], n=2)],
                     gaps=[2, 3])
    q = subpanel(p, 3, 4)
    assert q.gaps == (3,)


def test_subpanel_range_errors(tiny_panel):
    with pytest.raises(ValueError):
        subpanel(tiny_panel, 0, 2)
    with pytest.raises(ValueError):
        subpanel(tiny_panel, 2, 9)
    with pytest.raises(ValueError):
        subpanel(tiny_panel, 3, 2)


@st.composite
def panels(draw):
    n = draw(st.integers(2, 6))
    T = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gap = draw(st.booleans())
    return random_panel(rng, n=n, T=T, gaps=(2,) if gap and T > 2 else ())


@given(panels())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("rt") / "p.json"
    save_panel(panel, path)
    assert load_panel(path) == panel


@given(panels())
@settings(max_examples=40, deadline=None)
def test_canonical_bytes_property(panel):
    assert panel_to_json(panel) == panel_to_json(panel)


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
