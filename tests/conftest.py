import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dynetlogit import ModelSpec, NetworkPanel, RiskSet, Snapshot, TermSpec
from dynetlogit.simulate import _generator, _seed_words

BENCH = Path(__file__).resolve().parents[1] / "bench"


def stream(seed, replicate, step, base=0):
    """The generator of stream key (replicate, step - base) under ``seed``,
    built as the library builds it."""
    return _generator(_seed_words(seed, [(replicate, step - base)])[0])


def make_snapshot(t, present, edges, n, attrs=None):
    return Snapshot(t, present, edges, attrs or {}, n=n)


@pytest.fixture
def tiny_panel():
    """4 vertices, 3 days, no gaps."""
    rs = RiskSet(
        ["a", "b", "c", "d"],
        [{"regular": True, "group1": True},
         {"regular": True, "group1": False},
         {"regular": False, "group1": False},
         {"regular": False, "group1": False}],
    )
    snaps = [
        Snapshot(1, [0, 1, 2], [(0, 1), (1, 2)], {"day": "Monday"}, n=4),
        Snapshot(2, [0, 1, 3], [(0, 1)], {"day": "Tuesday"}, n=4),
        Snapshot(3, [0, 1, 2, 3], [(0, 1), (0, 2), (1, 2)], {"day": "Wednesday"}, n=4),
    ]
    return NetworkPanel(rs, snaps)


@pytest.fixture
def lag1_spec():
    return ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)],
    )


def random_panel(rng, n=6, T=5, presence=0.7, density=0.4, gaps=(), t0=1,
                 attrs=None):
    """Small random panel for property tests."""
    labels = [f"v{k}" for k in range(n)]
    rs = RiskSet(labels, attrs)
    snaps = []
    t = t0
    made = 0
    while made < T:
        if t in gaps:
            t += 1
            continue
        bits = rng.random(n) < presence
        idx = np.flatnonzero(bits)
        edges = [
            (int(idx[a]), int(idx[b]))
            for a in range(len(idx))
            for b in range(a + 1, len(idx))
            if rng.random() < density
        ]
        snaps.append(Snapshot(t, bits, edges, {"day": "Monday"}, n=n))
        made += 1
        t += 1
    return NetworkPanel(rs, snaps, gaps=[g for g in gaps if g < t])


def bench_workloads():
    """The benchmark's ``workloads`` module, which draws its input panels."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
