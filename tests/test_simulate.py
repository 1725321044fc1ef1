import numpy as np
import pytest
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynetlogit import (
    ModelSpec,
    NetworkPanel,
    RiskSet,
    SimConfig,
    Snapshot,
    TermSpec,
    classify_threshold,
    generate_panel,
    one_step_intervals,
    one_step_sample,
    project,
)
from dynetlogit.design import build_design
from dynetlogit.gli import GLI_NAMES, gli_vector
from dynetlogit.panel import split_draws
from dynetlogit.solver import fit_posterior_mode
from dynetlogit.synth import make_month_panel, month_risk_set, nested_model_specs
from dynetlogit import simulate
from dynetlogit.simulate import (
    PAIR_BUDGET,
    StepSampler,
    _generator,
    _seed_words,
    _weekday_attrs_fn,
    interval_indices,
    weekday_attrs,
)
from dynetlogit.terms import History, SpecError

import oracles
from conftest import random_panel, stream


def fake_fit(spec, coefficients):
    return SimpleNamespace(coefficients=np.asarray(coefficients, dtype=float),
                           column_names=spec.column_names)


@pytest.fixture
def core_panel():
    rs = RiskSet(
        ["a", "b", "c", "d"],
        [{"core": True}, {"core": True}, {"core": True}, {"core": False}],
    )
    snaps = [
        Snapshot(1, [0, 1, 2], [(0, 1)], {"day": "Monday"}, n=4),
        Snapshot(2, [0, 1, 2, 3], [(0, 1), (1, 2)], {"day": "Tuesday"}, n=4),
    ]
    return NetworkPanel(rs, snaps)


INTERCEPT_SPEC = ModelSpec(
    [TermSpec("vertex", "intercept")],
    [TermSpec("edge", "intercept")],
)


def test_all_zero_probabilities_yield_empty_snapshot(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [-50.0, -50.0])
    for rep in range(5):
        snap = one_step_sample(fit, INTERCEPT_SPEC, core_panel, 1,
                               stream(0, rep, 2))
        assert snap.n_present == 0
        assert snap.edge_count == 0


def test_deterministic_limit_gives_k3(core_panel):
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"),
         TermSpec("vertex", "attr_dummy", params={"attr": "core"})],
        [TermSpec("edge", "intercept")],
    )
    fit = fake_fit(spec, [-60.0, 120.0, 60.0])
    snap = one_step_sample(fit, spec, core_panel, 1, stream(0, 0, 2))
    assert sorted(snap.present_indices) == [0, 1, 2]
    assert snap.edge_count == 3


def test_same_seed_reproducible_and_replicates_differ(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [0.0, 0.0])
    a = one_step_sample(fit, INTERCEPT_SPEC, core_panel, 1, stream(9, 0, 2))
    b = one_step_sample(fit, INTERCEPT_SPEC, core_panel, 1, stream(9, 0, 2))
    assert a == b
    draws = {
        tuple(sorted(one_step_sample(fit, INTERCEPT_SPEC, core_panel, 1,
                                     stream(9, rep, 2)).present_indices))
        for rep in range(40)
    }
    assert len(draws) > 1


def test_fit_spec_mismatch_raises(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [0.0, 0.0])
    other = ModelSpec([TermSpec("vertex", "intercept"),
                       TermSpec("vertex", "lag_indicator", lag=1)],
                      [TermSpec("edge", "intercept")])
    with pytest.raises(ValueError, match="do not match"):
        one_step_sample(fit, other, core_panel, 1, stream(0, 0, 2))


def test_interval_indices_formula():
    assert interval_indices(100, 0.95) == (2, 97)   # 3rd and 98th smallest
    assert interval_indices(200, 0.95) == (5, 194)  # 6th and 195th
    assert interval_indices(1, 0.95) == (0, 0)


def test_interval_contains_median_draw():
    draws = np.arange(1.0, 101.0)
    lo, hi = interval_indices(100, 0.95)
    ordered = np.sort(draws)
    assert ordered[lo] == 3.0 and ordered[hi] == 98.0
    assert ordered[lo] <= 50.0 <= ordered[hi]


def test_threshold_tie_classifies_absent(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [0.0, 0.0])  # probability exactly 0.5
    snap = classify_threshold(fit, INTERCEPT_SPEC, core_panel, 1)
    assert snap.n_present == 0


def test_threshold_high_probability_fills_risk_set(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [2.2, 2.2])  # ~0.9 everywhere
    snap = classify_threshold(fit, INTERCEPT_SPEC, core_panel, 1)
    assert snap.n_present == 4
    assert snap.edge_count == 6


def test_threshold_matches_modal_sample(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [3.0, -3.0])  # p(v)~0.95, p(e)~0.05
    predicted = classify_threshold(fit, INTERCEPT_SPEC, core_panel, 1)
    from collections import Counter
    outcomes = Counter()
    for rep in range(2000):
        s = one_step_sample(fit, INTERCEPT_SPEC, core_panel, 1, stream(5, rep, 2))
        outcomes[(tuple(s.present_indices.tolist()), tuple(s.codes.tolist()))] += 1
    modal = outcomes.most_common(1)[0][0]
    assert modal[0] == tuple(predicted.present_indices.tolist())
    assert np.array_equal(modal[1], predicted.codes)


def test_one_step_intervals_structure(core_panel):
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept")],
    )
    fit = fake_fit(spec, [0.0, 0.5, -0.5])
    config = SimConfig(replicates=50, alpha=0.9, seed=4)
    samples, report = one_step_intervals(fit, spec, core_panel, config)
    assert samples.steps == (2,)
    assert samples.draws.shape == (1, 50, 9)
    assert report.inside.shape == (1, 9)
    assert np.all(report.lower <= report.upper)
    assert np.all(report.covered <= report.total)
    d = report.to_dict()
    assert set(d["glis"]) == set(report.names)
    rows = list(report.csv_rows())
    assert rows[0][0] == "step"
    assert len(rows) == 1 + 9


def test_one_step_intervals_deterministic_model_zero_width(core_panel):
    spec = ModelSpec(
        [TermSpec("vertex", "intercept")],
        [TermSpec("edge", "intercept")],
    )
    fit = fake_fit(spec, [50.0, 50.0])  # probabilities ~1: always complete graph
    config = SimConfig(replicates=20, alpha=0.95, seed=0)
    _, report = one_step_intervals(fit, spec, core_panel, config)
    assert np.all(report.lower == report.upper)
    # observed day 2 is not the complete graph on all four vertices
    assert not np.all(report.inside)


def test_small_simulated_days_are_flagged(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [-4.0, 0.0])  # most draws have < 3 vertices
    config = SimConfig(replicates=30, alpha=0.9, seed=3)
    _, report = one_step_intervals(fit, INTERCEPT_SPEC, core_panel, config)
    assert any("fewer than 3 vertices" in note for note in report.notes)
    assert report.to_dict()["notes"]


def test_adequacy_coverage_with_well_matched_model(core_panel):
    # model probabilities equal to empirical frequencies cover the data
    spec = INTERCEPT_SPEC
    fit = fake_fit(spec, [2.0, -0.3])
    config = SimConfig(replicates=200, alpha=0.95, seed=8)
    _, report = one_step_intervals(fit, spec, core_panel, config)
    assert report.covered.min() >= 0


def test_project_horizon_one_equals_one_step(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [0.3, 0.1])
    config = SimConfig(replicates=1, horizon=1, seed=42)
    result = project(fit, INTERCEPT_SPEC, core_panel, config)
    direct = one_step_sample(fit, INTERCEPT_SPEC, core_panel, 2,
                             stream(42, 0, 3, core_panel.t_min))
    assert result.steps == (3,)
    traj = result.snapshots[0][0]
    assert traj.present.tolist() == direct.present.tolist()
    assert np.array_equal(traj.codes, direct.codes)


def test_project_zero_vertex_model_goes_empty(core_panel):
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept")],
    )
    fit = fake_fit(spec, [-60.0, 1.0, 0.0])
    config = SimConfig(replicates=3, horizon=4, seed=1)
    result = project(fit, spec, core_panel, config)
    for traj in result.snapshots:
        for s in traj:
            assert s.n_present == 0
    assert np.all(result.gli_paths[:, :, 0] == 0)  # size path


def test_projection_feeds_sampled_lags(core_panel):
    # a strong positive lag keeps a seeded vertex set alive through the horizon
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept")],
    )
    fit = fake_fit(spec, [-60.0, 120.0, -2.0])
    config = SimConfig(replicates=2, horizon=3, seed=0)
    result = project(fit, spec, core_panel, config)
    for traj in result.snapshots:
        for s in traj:
            assert sorted(s.present_indices) == [0, 1, 2, 3]


def _month_model_4():
    panel = make_month_panel()
    spec = nested_model_specs(month_risk_set())[3]
    return panel, spec, fit_posterior_mode(build_design(panel, spec))


@pytest.mark.parametrize("case", ["month", "core"])
def test_projection_indices_are_those_of_its_snapshots(core_panel, case):
    """The projected index paths, computed on the union of every drawn
    snapshot at once, equal each returned snapshot's own index vector bit
    for bit."""
    if case == "month":
        panel, spec, fit = _month_model_4()
        config = SimConfig(replicates=20, horizon=5, seed=17)
    else:
        panel, spec = core_panel, ModelSpec(
            [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
            [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)])
        fit = fake_fit(spec, [0.2, 0.8, -0.1, 1.0])
        config = SimConfig(replicates=7, horizon=4, seed=3)
    result = project(fit, spec, panel, config)
    assert result.gli_paths.shape == (config.replicates, config.horizon, len(GLI_NAMES))
    assert len(result.snapshots) == config.replicates
    for r, traj in enumerate(result.snapshots):
        assert tuple(s.t for s in traj) == result.steps
        for h, s in enumerate(traj):
            assert s.draws == 1
            assert np.array_equal(result.gli_paths[r, h], gli_vector(s))


def _weekly_panel(seed, gaps):
    """A 9-vertex random panel with two attributes and a weekly day cycle,
    so that seasonal terms extrapolate past its end."""
    attrs = [{"a": k % 2 == 0, "b": k % 3 == 0} for k in range(9)]
    panel = random_panel(np.random.default_rng(seed), n=9, T=7, density=0.5, gaps=gaps,
                         attrs=attrs)
    return NetworkPanel(panel.risk_set, [
        Snapshot(s.t, s.present, (s.codes // 9, s.codes % 9), weekday_attrs(s.t))
        for s in panel.snapshots], panel.gaps)


def _assert_same_projection(result, expected):
    assert result.steps == expected.steps
    assert result.gli_paths.tobytes() == expected.gli_paths.tobytes()
    assert result.gli_paths.shape == expected.gli_paths.shape
    assert result.snapshots == expected.snapshots


# every vertex kind and every edge kind, the lagged ones at lags 1 and 2
_EVERY_VERTEX_KIND = (
    [TermSpec("vertex", "intercept"),
     TermSpec("vertex", "attr_dummy", params={"attr": "a"}),
     TermSpec("vertex", "seasonal", params={"day": "Tuesday"}),
     TermSpec("vertex", "lag_indicator", lag=1),
     TermSpec("vertex", "lag_indicator", lag=2),
     TermSpec("vertex", "lag_triangle", lag=1),
     TermSpec("vertex", "lag_triangle", lag=2)],
    [0.3, -0.4, 0.2, 0.8, 0.3, 0.1, -0.1],
)


@pytest.mark.parametrize("policy, gaps", [("exclude", (3,)), ("bridge", (7,))],
                         ids=["exclude", "bridge"])
def test_lockstep_projection_equals_the_per_replicate_oracle(policy, gaps):
    """Advancing every replicate at once, with lags read from the previous
    step's union, must not change a bit of any path or drawn snapshot.
    Under bridge the gap sits right before the panel's last day, so the
    lag-2 terms of the first step bridge it."""
    panel = _weekly_panel(21, gaps)
    edge_terms, theta_e = _EVERY_KIND
    spec = ModelSpec(_EVERY_VERTEX_KIND[0], edge_terms + [TermSpec("edge", "log_size")],
                     gap_policy=policy)
    fit = fake_fit(spec, _EVERY_VERTEX_KIND[1] + theta_e + [-0.3])
    for mode, fixed in (("stochastic", False), ("stochastic", True), ("threshold50", False)):
        for horizon in (1, 5):
            for replicates in (1, 2, 20):
                for seed in (0, 17):
                    config = SimConfig(replicates=replicates, horizon=horizon, seed=seed,
                                       mode=mode, fixed_vertex_set=fixed)
                    _assert_same_projection(project(fit, spec, panel, config),
                                            oracles.project_by_replicate(fit, spec, panel,
                                                                         config))


def test_lockstep_projection_splits_steps_into_unions(monkeypatch):
    """A step whose draws outgrow PAIR_BUDGET is drawn as several unions, and
    the history reads them as one."""
    import dynetlogit.simulate as simulate
    panel = _weekly_panel(4, ())
    spec = ModelSpec(_EVERY_VERTEX_KIND[0], _EVERY_KIND[0])
    fit = fake_fit(spec, _EVERY_VERTEX_KIND[1] + _EVERY_KIND[1])
    for fixed in (False, True):
        config = SimConfig(replicates=20, horizon=5, seed=17, fixed_vertex_set=fixed)
        expected = oracles.project_by_replicate(fit, spec, panel, config)
        unions = []
        original = simulate.disjoint_union

        def counting(snaps):
            unions.append(len(snaps))
            return original(snaps)

        monkeypatch.setattr(simulate, "disjoint_union", counting)
        for budget in (40, 1):
            monkeypatch.setattr(simulate, "PAIR_BUDGET", budget)
            unions.clear()
            _assert_same_projection(project(fit, spec, panel, config), expected)
            assert max(unions[:-1]) > 1  # some step was several unions
        monkeypatch.setattr(simulate, "disjoint_union", original)


def test_unions_of_a_step_read_only_their_own_draws(monkeypatch):
    """A step drawn as several unions (PAIR_BUDGET small) finds each
    union's dyads, lagged ties and class pairs in its draws' span of the
    step's layout, as brute force over every draw of the history sorts
    them, and draws what one union per step draws."""
    import dynetlogit.simulate as simulate
    panel, spec, fit = _month_model_4()
    config = SimConfig(replicates=12, horizon=3, seed=5)
    expected = project(fit, spec, panel, config)
    original, starts = StepSampler._union, []

    def checked(self, bits, lo, hi, rngs, counts):
        n, draws = self.n, self.history.draws
        ii, jj = oracles.dyads(np.flatnonzero(bits[lo:hi].ravel()) + lo * n,
                               bits[lo:hi].sum(axis=1))
        lag_i, lag_j = self.dyads.split(self.lagged)  # codes i * (draws * n) + j
        lagged = lag_i * (draws * n) + lag_j
        _, of = oracles.dyad_rows_by_class(ii, jj, self.classes, draws, lagged)
        ties = np.isin(ii * (draws * n) + jj, lagged)
        layout, first = self.dyads, self.dyads.first(lo)
        assert np.array_equal(layout.kept(np.ones(len(ii), dtype=bool), lo, hi),
                              (ii - lo * n) * ((hi - lo) * n) + jj - lo * n)
        positions = self.ties[0]
        assert np.array_equal(positions[(positions >= first) & (positions < first + len(ii))],
                              np.flatnonzero(ties) + first)
        pair = np.ravel(layout.gather(np.arange(len(layout.sizes)), lo, hi))
        key = (ii // n) * len(layout.sizes) + pair  # (draw, class pair)
        assert np.array_equal(np.unique(key[~ties], return_inverse=True)[1],
                              of[~ties] - np.count_nonzero(ties))
        starts.append((lo, draws))
        return original(self, bits, lo, hi, rngs, counts)

    monkeypatch.setattr(StepSampler, "_union", checked)
    for budget in (2000, 1):
        monkeypatch.setattr(simulate, "PAIR_BUDGET", budget)
        starts.clear()
        _assert_same_projection(project(fit, spec, panel, config), expected)
        assert any(lo > 0 and draws == config.replicates for lo, draws in starts)


_LAG_SPEC = ModelSpec(
    [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
    [TermSpec("edge", "intercept"), TermSpec("edge", "log_size"),
     TermSpec("edge", "lag_indicator", lag=1)],
)


@pytest.mark.parametrize("mode, fixed", [("stochastic", False), ("stochastic", True),
                                         ("threshold50", False), ("threshold50", True)])
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       level=st.sampled_from([-4.0, 0.0, 3.0]), replicates=st.integers(1, 6),
       budget=st.sampled_from([1, 4, 40, PAIR_BUDGET]))
@example(n=6, seed=1, level=0.0, replicates=4, budget=1)
@example(n=2, seed=2, level=-4.0, replicates=5, budget=PAIR_BUDGET)
def test_unions_equal_the_validating_constructor(mode, fixed, n, seed, level, replicates,
                                                 budget):
    """Every union ``_union`` yields keeps its own codes, taken with no
    sort and no check, and equals the snapshot the validating constructor
    builds from its edges.  A two-step projection and adequacy draw from a
    layout of one vertex set every draw shares (under a fixed vertex set or
    the 50-percent rule), with lag ties shared by every draw (the first
    step) or per draw (the second, whose lag-1 terms read the drawn union),
    and from a layout of one vertex set per draw; draws of 0 to 2 vertices
    and, when the step's dyads outgrow PAIR_BUDGET, steps of several
    unions."""
    panel = random_panel(np.random.default_rng(seed), n=n, T=3, presence=0.7, density=0.5)
    fit = fake_fit(_LAG_SPEC, [level, 1.0, 0.5, -0.3, 1.5])
    config = SimConfig(replicates=replicates, horizon=2, seed=seed, mode=mode,
                       fixed_vertex_set=fixed)
    original, unions = StepSampler._union, {}

    def checked(self, bits, lo, hi, rngs, counts):
        union = original(self, bits, lo, hi, rngs, counts)
        e = union.edges
        assert union == Snapshot(union.t, union.present, (e[:, 0], e[:, 1]),
                                 union.time_attrs, draws=union.draws)
        assert union.codes.dtype == np.int64 and not union.codes.flags.writeable
        unions.setdefault(self, []).append(int(counts.sum()))
        return union

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StepSampler, "_union", checked)
        patch.setattr(simulate, "PAIR_BUDGET", budget)
        project(fit, _LAG_SPEC, panel, config)
        if fixed or mode == "threshold50":
            assert all(len(s.dyads.present) == 1 for s in unions)
        one_step_intervals(fit, _LAG_SPEC, panel, config)
    for sampler, counts in unions.items():
        if sampler.history.draws > 1 and sum(counts) > budget:
            assert len(counts) > 1  # the step was split


@pytest.mark.parametrize("seed", [0, 17])
def test_lockstep_projection_of_month_equals_the_oracle(seed):
    panel, spec, fit = _month_model_4()
    config = SimConfig(replicates=20, horizon=5, seed=seed)
    _assert_same_projection(project(fit, spec, panel, config),
                            oracles.project_by_replicate(fit, spec, panel, config))


def _recording_samplers(monkeypatch):
    """The list of every StepSampler that simulate builds from now on."""
    import dynetlogit.simulate as simulate
    built = []

    class Recording(simulate.StepSampler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(simulate, "StepSampler", Recording)
    return built


def test_draw_all_takes_one_generator_per_history_draw(core_panel):
    """A sampler draws exactly its history's draws, draw r from the r-th
    generator as a history of one draw would, and refuses any other number
    of generators."""
    theta_v, theta_e = np.array([0.3]), np.array([0.1])
    alone = [StepSampler(INTERCEPT_SPEC, theta_v, theta_e, History(core_panel, "exclude"),
                         3).draw(stream(5, r, 3)) for r in range(3)]
    for draws in (1, 3):
        sampler = StepSampler(INTERCEPT_SPEC, theta_v, theta_e,
                              History(core_panel, "exclude", draws=draws), 3)
        unions = list(sampler.draw_all([stream(5, r, 3) for r in range(draws)]))
        assert [s for union in unions for s in split_draws(union)] == alone[:draws]
        for count in (draws - 1, draws + 1):
            with pytest.raises(ValueError, match=rf"a history of {draws} draw\(s\) is drawn "
                                                 rf"with as many generators, not {count}"):
                list(sampler.draw_all([stream(5, r, 3) for r in range(count)]))


def test_vertex_probabilities_are_one_row_unless_lags_are_drawn(monkeypatch):
    """Adequacy's draws share their observed vertex lags, so its samplers
    compute one row of vertex probabilities for all of them; so does a
    lockstep projection's first step, and from its second step on, where
    the lag-1 terms read the drawn union, each draw has a row of its own."""
    panel = _weekly_panel(21, ())
    spec = ModelSpec(_EVERY_VERTEX_KIND[0], _EVERY_KIND[0])
    fit = fake_fit(spec, _EVERY_VERTEX_KIND[1] + _EVERY_KIND[1])
    n, m = len(panel.risk_set), 7
    built = _recording_samplers(monkeypatch)
    samples, _ = one_step_intervals(fit, spec, panel, SimConfig(replicates=m, seed=4))
    assert len(built) == len(samples.steps) > 1
    assert all(s.history.draws == m and s.pv.shape == (1, n) for s in built)
    built.clear()
    project(fit, spec, panel, SimConfig(replicates=m, horizon=3, seed=4))
    assert [s.pv.shape for s in built] == [(1, n), (m, n), (m, n)]


@pytest.mark.parametrize("lags", [(), (1,), (2, 1)], ids=["no lag", "lag 1", "lags 1 and 2"])
def test_fixed_vertex_projection_shares_pairs_while_lags_are_observed(monkeypatch, lags):
    """Under a fixed vertex set every draw has the same dyads, laid out
    once for the one vertex set: with lag-scope edge terms that read
    observed snapshots (the first step always) or drawn ones, and with
    none.  The paths and snapshots are still the per-replicate oracle's."""
    panel = _weekly_panel(21, ())
    spec = ModelSpec([TermSpec("vertex", "intercept")],
                     [TermSpec("edge", "intercept"), TermSpec("edge", "log_size"),
                      *[TermSpec("edge", "lag_indicator", lag=lag) for lag in lags]])
    fit = fake_fit(spec, [0.0, -0.5, 0.3] + [0.8, -0.4][:len(lags)])
    config = SimConfig(replicates=6, horizon=4, seed=9, fixed_vertex_set=True)
    built = _recording_samplers(monkeypatch)
    result = project(fit, spec, panel, config)
    assert [len(s.dyads.present) for s in built] == [1] * config.horizon
    _assert_same_projection(result, oracles.project_by_replicate(fit, spec, panel, config))


def test_projection_cuts_snapshots_only_when_read(monkeypatch):
    """A projection keeps each step's union of draws, and cuts the
    replicates' snapshots from them when they are first read: until then
    it has built one snapshot per step and the one its indices are
    computed on."""
    panel, spec, fit = _month_model_4()
    config = SimConfig(replicates=20, horizon=5, seed=17)
    built = []
    original = Snapshot.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        original(self, *args, **kwargs)

    monkeypatch.setattr(Snapshot, "__init__", counting)
    result = project(fit, spec, panel, config)
    assert len(built) == config.horizon + 1
    assert [u.draws for u in result.unions] == [config.replicates] * config.horizon
    built.clear()
    trajectories = result.snapshots
    assert result.snapshots is trajectories  # cut once
    assert len(built) == config.horizon * config.replicates


def _most_cycle_work(days):
    """The largest per-draw total of cycle work on these days."""
    return int(max((s._cycle_work.max() for s in days if s._cycle_work is not None),
                   default=0))


def _assert_refused_alike(monkeypatch, spec, coefficients, cases):
    """Set to the largest per-draw total of the per-replicate projection,
    the cycle work budget refuses neither projection; one below, it refuses
    both, though a union's draws together grow more.  Every run reads a
    fresh panel, whose days have no cycle counts memoized yet.  Returns,
    per case, whether a day of the panel held the largest total."""
    import dynetlogit.terms as terms
    fit = fake_fit(spec, coefficients)
    on_panel = []
    for fixed, horizon in cases:
        config = SimConfig(replicates=6, horizon=horizon, seed=3, fixed_vertex_set=fixed)
        panel = _weekly_panel(5, ())
        with monkeypatch.context() as m:
            m.setattr(terms, "CYCLE_WORK_BUDGET", 10**12)
            expected = oracles.project_by_replicate(fit, spec, panel, config)
        most = _most_cycle_work([*panel.snapshots, *(s for trajectory in expected.snapshots
                                                     for s in trajectory)])
        assert most > 0
        on_panel.append(most == _most_cycle_work(panel.snapshots))
        for budget, refused in ((most, False), (most - 1, True)):
            monkeypatch.setattr(terms, "CYCLE_WORK_BUDGET", budget)
            for run in (project, oracles.project_by_replicate):
                if refused:
                    with pytest.raises(terms.CycleBudgetError):
                        run(fit, spec, _weekly_panel(5, ()), config)
                else:
                    _assert_same_projection(run(fit, spec, _weekly_panel(5, ()), config),
                                            expected)
    return on_panel


def test_lockstep_projection_is_refused_when_a_replicate_is(monkeypatch):
    """The cycle work budget applies per draw of a union.  At horizon 1
    every replicate reads the panel's last day, whose work is the day's,
    whichever replicate queries its ties."""
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"),
         TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 9})])
    _assert_refused_alike(monkeypatch, spec, [0.2, 0.5, 0.8, 0.2],
                          ((False, 4), (True, 4), (False, 1)))


def test_two_lag_cycle_projection_is_refused_when_a_replicate_is(monkeypatch):
    """Cycle terms at lags 1 and 2 read the panel's last day at the first
    and at the second step: replicate by replicate, one replicate's second
    step counts ties there before the next replicate's first step does,
    while in lockstep every first step comes first.  The day's total is
    the same in both orders, and so is the refusal.  The drawn days are
    sparse, so the panel's days hold the most work."""
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"),
         TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 9}),
         TermSpec("edge", "lag_cycle_embed", lag=2, params={"max_len": 9})])
    assert all(_assert_refused_alike(monkeypatch, spec, [0.2, 0.5, -1.5, 0.2, 0.1],
                                     ((False, 2), (True, 2), (False, 3), (True, 3))))


def test_sampled_snapshots_pass_invariants(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [0.0, 0.0])
    for rep in range(30):
        s = one_step_sample(fit, INTERCEPT_SPEC, core_panel, 1, stream(3, rep, 2))
        for i, j in s.edges:
            assert s.present[i] and s.present[j]
            assert i < j


def test_fixed_vertex_set_pins_size(core_panel):
    fit = fake_fit(INTERCEPT_SPEC, [-50.0, 0.0])
    config = SimConfig(replicates=10, alpha=0.95, seed=2, fixed_vertex_set=True)
    samples, _ = one_step_intervals(fit, INTERCEPT_SPEC, core_panel, config)
    assert np.all(samples.draws[:, :, 0] == 4)


def test_edge_indicators_conditionally_independent(core_panel):
    spec = ModelSpec(
        [TermSpec("vertex", "intercept")],
        [TermSpec("edge", "intercept")],
    )
    fit = fake_fit(spec, [60.0, 0.0])  # vertex set fixed, edges iid 0.5
    m = 4000
    indicators = np.zeros((m, 6))
    for rep in range(m):
        s = one_step_sample(fit, spec, core_panel, 1, stream(6, rep, 2))
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        indicators[rep] = [oracles.has_edge(s, i, j) for i, j in pairs]
    corr = np.corrcoef(indicators.T)
    off = corr[~np.eye(6, dtype=bool)]
    assert np.all(np.abs(off) < 4 / np.sqrt(m))


# (edge terms, their coefficients): 2 classes of endpoints, whose keys are
# mostly looked up in a table, and every edge kind with 6 classes, whose
# keys are sorted (more table slots than dyads); the lagged kinds appear
# at lags 1 and 2
_FEW_CLASSES = (
    [TermSpec("edge", "intercept"),
     TermSpec("edge", "individual_dummy", params={"label": "v2"}),
     TermSpec("edge", "lag_indicator", lag=1),
     TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 5})],
    [0.6, 0.5, -0.3, 0.4],
)
_EVERY_KIND = (
    [TermSpec("edge", "intercept"),
     *[TermSpec("edge", "mixing", params={"attr": attr, "pair": pair})
       for attr in ("a", "b") for pair in ("both", "neither", "mixed")],
     TermSpec("edge", "individual_dummy", params={"label": "v2"}),
     TermSpec("edge", "individual_dummy", params={"label": "v6"}),
     TermSpec("edge", "seasonal", params={"day": "Monday"}),
     TermSpec("edge", "lag_indicator", lag=1),
     TermSpec("edge", "lag_indicator", lag=2),
     TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": 5}),
     TermSpec("edge", "lag_cycle_embed", lag=2, params={"max_len": 4})],
    [0.6, 0.2, -0.3, 0.1, -0.2, 0.3, 0.15, 0.5, -0.4, 0.05, -0.3, 0.35, 0.4, -0.25],
)


@pytest.mark.parametrize("with_logsize", [False, True])
def test_intervals_match_per_replicate_sampling(monkeypatch, with_logsize):
    """Drawing all replicates of a step at once, on unions of any size, and
    edge probabilities from the class table must not change a single draw:
    the oracle draws each replicate on its own, evaluating every term on
    every dyad."""
    import dynetlogit.simulate as simulate
    attrs = [{"a": k % 2 == 0, "b": k % 3 == 0} for k in range(9)]
    panel = random_panel(np.random.default_rng(11), n=9, T=7, density=0.5, attrs=attrs)
    budgets = (simulate.PAIR_BUDGET, 40, 1)  # unions of all, some and single draws
    for edge_terms, theta_e in (_FEW_CLASSES, _EVERY_KIND):
        if with_logsize:
            edge_terms, theta_e = edge_terms + [TermSpec("edge", "log_size")], theta_e + [-0.3]
        spec = ModelSpec(
            [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1),
             TermSpec("vertex", "lag_triangle", lag=1)],
            edge_terms,
        )
        # a typical model, and one whose days mostly have 0, 1 or 2 vertices
        for theta_v in ([0.2, 0.4, 0.1], [-2.5, 0.3, 0.1]):
            fit = fake_fit(spec, theta_v + theta_e)
            for mode, fixed in (("stochastic", False), ("stochastic", True),
                                ("threshold50", False)):
                config = SimConfig(replicates=25, alpha=0.9, seed=13, mode=mode,
                                   fixed_vertex_set=fixed)
                steps = simulate.usable_transitions(History(panel, "exclude"), spec.max_lag)
                expected = np.array([[
                    gli_vector(oracles.step_draw_by_replicate(
                        spec, np.asarray(theta_v), np.asarray(theta_e),
                        History(panel, spec.gap_policy), s,
                        None if mode == "threshold50" else stream(13, rep, s, panel.t_min),
                        threshold=mode == "threshold50", fixed_vertex_set=fixed))
                    for rep in range(config.replicates)] for s in steps])
                small = np.count_nonzero(expected[:, :, 0] < 3)
                if theta_v[0] < 0 and not fixed:
                    assert small > len(steps)  # the small-draw conventions are exercised
                for budget in budgets:
                    monkeypatch.setattr(simulate, "PAIR_BUDGET", budget)
                    samples, report = one_step_intervals(fit, spec, panel, config)
                    assert samples.steps == steps
                    assert np.array_equal(samples.draws, expected)
                    assert report.notes == (
                        (f"{small} simulated day(s) had fewer than 3 vertices; "
                         "degenerate-size index conventions applied",) if small else ())


def test_edge_terms_see_ties_and_one_dyad_per_class(monkeypatch):
    """On month model_4 each edge term of a step is evaluated on at most the
    replicates' lagged ties and one dyad per (replicate, class pair)."""
    import dynetlogit.simulate as simulate
    from dynetlogit.design import _endpoint_classes
    from dynetlogit.synth import default_coefficients, full_model_spec, make_month_panel
    panel = make_month_panel()
    spec = full_model_spec(panel.risk_set)
    fit = fake_fit(spec, default_coefficients(spec))
    k = int(_endpoint_classes(panel.risk_set, spec.edge_terms).max()) + 1
    rows = {}
    original = simulate.edge_term_values

    def counting(term, history, t, ii, *args):
        rows[t, term.name] = rows.get((t, term.name), 0) + len(ii)
        return original(term, history, t, ii, *args)

    monkeypatch.setattr(simulate, "edge_term_values", counting)
    m = 40
    samples, _ = one_step_intervals(fit, spec, panel, SimConfig(replicates=m, seed=6))
    assert {term.lag for term in spec.edge_terms if term.lag} == {1}
    sizes = samples.draws[:, :, 0]
    for s, size in zip(samples.steps, sizes):
        bound = m * (panel.at(s - 1).edge_count + k * (k + 1) // 2)
        dyads = int(np.sum(size * (size - 1) // 2))
        assert all(rows[s, term.name] <= min(bound, dyads) for term in spec.edge_terms)
    evaluated = sum(rows.values()) / len(spec.edge_terms)
    assert evaluated < np.sum(sizes * (sizes - 1) // 2) / 4


@pytest.mark.parametrize("seed", [0, 6, 2**32 - 1, 2**32, 2**64 + 7, 2**100])
def test_streams_equal_spawned_seed_sequences(seed):
    keys = [(0, 0), (99, 27), (2**32 - 1, 2**32 - 1)]
    for words, key in zip(_seed_words(seed, keys), keys):
        rng = _generator(words)
        expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        assert rng.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(rng.random(64), expected.random(64))


def test_streams_refuse_what_seed_sequences_would_read_otherwise():
    # a negative seed has no words; numpy splits a key of 2**32 into two words
    with pytest.raises(ValueError, match="got -1"):
        _seed_words(-1, [(0, 0)])
    with pytest.raises(ValueError, match="replicate 4294967296, step offset 3"):
        _seed_words(0, [(1, 2), (2**32, 3)])
    with pytest.raises(ValueError, match="replicate 0, step offset -1"):
        _seed_words(0, [(0, -1)])
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -5"):
        SimConfig(seed=-5)


@pytest.mark.parametrize("with_logsize", [False, True])
@pytest.mark.parametrize("mode, fixed", [("stochastic", True), ("threshold50", False),
                                         ("stochastic", False)])
def test_shared_vertex_set_evaluates_edge_terms_once_per_step(monkeypatch, mode, fixed,
                                                              with_logsize):
    # shared vertex set or not, each edge term is evaluated once per step
    import dynetlogit.simulate as simulate
    panel = random_panel(np.random.default_rng(3), n=8, T=6)
    edge_terms = [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)]
    if with_logsize:
        edge_terms.append(TermSpec("edge", "log_size"))
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        edge_terms,
    )
    fit = fake_fit(spec, [2.0, 1.0] + [0.3] * len(edge_terms))  # nearly everyone present
    calls = []
    original = simulate.edge_term_values

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, "edge_term_values", counting)
    for replicates in (1, 4, 30):
        calls.clear()
        samples, _ = one_step_intervals(
            fit, spec, panel,
            SimConfig(replicates=replicates, seed=2, mode=mode, fixed_vertex_set=fixed),
        )
        if mode == "threshold50" or fixed:
            assert np.all(samples.draws[:, :, 0] == 8)
        assert len(calls) == len(samples.steps) * len(edge_terms)


def test_threshold50_draws_once_per_step(monkeypatch):
    import dynetlogit.simulate as simulate
    panel = random_panel(np.random.default_rng(5), n=8, T=6)
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)],
    )
    fit = fake_fit(spec, [0.1, 1.0, -0.2, 1.5])
    calls = []
    original = simulate.gli_vector

    def counting(snap):
        calls.append(snap.t)
        return original(snap)

    monkeypatch.setattr(simulate, "gli_vector", counting)
    for replicates in (1, 4, 30):
        calls.clear()
        samples, report = one_step_intervals(
            fit, spec, panel, SimConfig(replicates=replicates, seed=2, mode="threshold50"))
        # one draw and the observed snapshot per step, whatever the replicate count
        assert len(calls) == 2 * len(samples.steps)
        assert np.all(samples.draws == samples.draws[:, :1])
    # a 50-percent rule that keeps nobody: every replicate of every step is small
    empty = fake_fit(spec, [-5.0, 0.0, -0.2, 1.5])
    _, report = one_step_intervals(empty, spec, panel,
                                   SimConfig(replicates=7, seed=2, mode="threshold50"))
    assert report.notes[0].startswith(f"{7 * len(report.steps)} simulated day(s)")


def test_fixed_vertex_set_adequacy_memory_is_bounded():
    """Replicates are drawn in unions of at most PAIR_BUDGET dyads, so 100
    replicates of the 95-vertex month panel (4,465 dyads each) stay small."""
    import tracemalloc
    from dynetlogit import build_design, fit_posterior_mode
    from dynetlogit.synth import make_month_panel, nested_model_specs
    panel = make_month_panel()
    spec = nested_model_specs(panel.risk_set)[-1]
    fit = fit_posterior_mode(build_design(panel, spec))
    config = SimConfig(replicates=100, seed=6, fixed_vertex_set=True)
    tracemalloc.start()
    try:
        one_step_intervals(fit, spec, panel, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_no_vertex_terms_needs_fixed_vertex_set(core_panel):
    spec = ModelSpec([], [TermSpec("edge", "intercept")])
    fit = fake_fit(spec, [0.0])
    config = SimConfig(replicates=5, horizon=2, seed=1)
    for simulate_call in (
        lambda: one_step_intervals(fit, spec, core_panel, config),
        lambda: project(fit, spec, core_panel, config),
        lambda: one_step_sample(fit, spec, core_panel, 1, stream(0, 0, 2)),
        lambda: classify_threshold(fit, spec, core_panel, 1),
    ):
        with pytest.raises(SpecError, match="fixed_vertex_set"):
            simulate_call()
    fixed = SimConfig(replicates=5, horizon=2, seed=1, fixed_vertex_set=True)
    samples, _ = one_step_intervals(fit, spec, core_panel, fixed)
    assert np.all(samples.draws[:, :, 0] == 4)
    assert np.all(project(fit, spec, core_panel, fixed).gli_paths[:, :, 0] == 4)


def test_gap_in_lag_window_raises(core_panel):
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept")],
    )
    fit = fake_fit(spec, [0.0, 0.0, 0.0])
    from dynetlogit import GapError
    with pytest.raises(GapError):
        one_step_sample(fit, spec, core_panel, 5, stream(0, 0, 6))


def test_weekday_extrapolation():
    rs = RiskSet(["a", "b"])
    snaps = [Snapshot(t, [0, 1], [], weekday_attrs(t, 2), n=2) for t in (1, 2, 3)]
    panel = NetworkPanel(rs, snaps)
    hist = History(panel, "exclude", _weekday_attrs_fn(panel))
    assert hist.time_attrs_at(4) == weekday_attrs(4, 2)
    assert hist.time_attrs_at(11) == weekday_attrs(11, 2)  # full week later
    assert History(panel, "exclude").time_attrs_at(4) is None  # observed days only


def test_generate_panel_deterministic_and_valid():
    rs = RiskSet([f"v{k}" for k in range(10)])
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)],
    )
    theta = [-0.5, 1.0, -1.5, 1.0]
    a = generate_panel(spec, theta, rs, 12, seed=3)
    b = generate_panel(spec, theta, rs, 12, seed=3)
    assert a == b
    assert len(a.snapshots) == 12
    c = generate_panel(spec, theta, rs, 12, seed=4)
    assert c != a
    trimmed = generate_panel(spec, theta, rs, 12, seed=3, burn_in=4)
    assert trimmed.observed_times[0] == 5


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -x at which e^-x overflows is log(largest float); its neighbours straddle it
_OVERFLOW = -709.782712893384
_EXPIT_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.7976931348623157e308,
     -1.7976931348623157e308, 36.0, -36.0, 37.0, -37.0, -745.13, -746.0]
    + [np.nextafter(_OVERFLOW, side) for side in (0.0, -np.inf)]
    + [_OVERFLOW + k * 1e-13 for k in range(-5, 6)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expit_equals_scipy_bit_for_bit():
    """Simulation's expit gives scipy's bits on a seeded sample and at the
    edges (signed zeros, infinities, NaN, the overflow of e^-x), keeps the
    input's shape and warns of nothing."""
    from scipy.special import expit

    rng = np.random.default_rng(2024)
    sample = np.stack([rng.normal(0.0, 5.0, 1_500_000), rng.uniform(-800.0, 800.0, 1_500_000)])
    assert _same_bits(simulate.expit(sample), expit(sample))
    assert _same_bits(simulate.expit(_EXPIT_EDGES), expit(_EXPIT_EDGES))
    column = _EXPIT_EDGES[:, None]
    assert _same_bits(simulate.expit(column), expit(column))
    assert simulate.expit(np.array([-746.0]))[0] == 0.0
    assert _same_bits(simulate.expit(np.empty((0, 3))), expit(np.empty((0, 3))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_expit_equals_scipy_on_finite_floats(values):
    from scipy.special import expit

    x = np.array(values)
    assert _same_bits(simulate.expit(x), expit(x))
