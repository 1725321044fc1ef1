"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every tolerance is fixed here, not tuned at runtime.
"""

import itertools
import time
from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit

import oracles
from conftest import random_panel

from dynetlogit import (
    ModelSpec,
    PriorSpec,
    RiskSet,
    SimConfig,
    Snapshot,
    TermSpec,
    build_design,
    GLI_NAMES,
    degree_centralization,
    fit_mle,
    fit_posterior_mode,
    generate_panel,
    gli_vector,
    krackhardt_connectedness,
    load_panel,
    one_step_intervals,
    pair_cycle_count,
    project,
    save_panel,
    triad_census,
    validate_model,
)
from dynetlogit.design import DesignMatrix, TagTable
from dynetlogit.synth import (
    full_model_spec,
    make_month_panel,
    month_risk_set,
    nested_model_specs,
)

import scipy.sparse as sp


def report(name, ok, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def simple_dm(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, p = X.shape
    return DesignMatrix(
        responses=np.asarray(y, dtype=np.int8),
        features=sp.csr_matrix(X),
        tags=TagTable(np.zeros(n, dtype=np.uint8), np.zeros(n), np.arange(n),
                      np.full(n, -1)),
        column_names=tuple(f"x{k}" for k in range(p)),
        n_vertex_terms=p,
        n_vertex_rows=n,
    )


LAG1_SPEC = ModelSpec(
    [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
    [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)],
)


def test_criterion_1_separability():
    """Joint-design fit equals concatenated vertex and edge fits to 1e-8."""
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    tries = 0
    while checked < 20 and tries < 200:
        tries += 1
        n = int(rng.integers(5, 11))
        T = int(rng.integers(6, 12))
        panel = random_panel(rng, n=n, T=T,
                             presence=float(rng.uniform(0.4, 0.8)),
                             density=float(rng.uniform(0.2, 0.6)))
        dm = build_design(panel, LAG1_SPEC)
        joint = fit_mle(dm)
        if joint.separation or not joint.converged:
            continue
        dv, de = oracles.split_design(dm)
        fv, fe = fit_mle(dv), fit_mle(de)
        if not (fv.converged and fe.converged):
            continue
        stacked = np.concatenate([fv.coefficients, fe.coefficients])
        worst = max(worst, float(np.abs(joint.coefficients - stacked).max()))
        checked += 1
    # posterior-mode fits are separable too (the penalty is coordinatewise)
    for seed in range(5):
        rng2 = np.random.default_rng(900 + seed)
        panel = random_panel(rng2, n=8, T=8, presence=0.6, density=0.4)
        dm = build_design(panel, LAG1_SPEC)
        joint = fit_posterior_mode(dm)
        dv, de = oracles.split_design(dm)
        stacked = np.concatenate([
            fit_posterior_mode(dv).coefficients,
            fit_posterior_mode(de).coefficients,
        ])
        worst = max(worst, float(np.abs(joint.coefficients - stacked).max()))
    report("criterion 1 separability", checked >= 20 and worst < 1e-8,
           f"{checked} panels, max coefficient gap {worst:.2e}")


def _check_gli_against_oracles(n, edges):
    s = Snapshot(1, list(range(n)), edges, n=max(n, 1))
    present = list(range(n))
    vec = dict(zip(GLI_NAMES, gli_vector(s)))
    assert tuple(triad_census(s)[0].tolist()) == oracles.census_by_enumeration(present, edges)
    assert abs(vec["density"] - oracles.density_by_count(present, edges)) < 1e-12
    assert abs(vec["mean_degree"] - oracles.mean_degree_by_count(present, edges)) < 1e-12
    assert abs(degree_centralization(s)[0]
               - oracles.centralization_by_formula(present, edges)) < 1e-12
    assert abs(krackhardt_connectedness(s)[0]
               - oracles.connectedness_by_bfs(present, edges)) < 1e-12


def test_criterion_2_gli_oracles():
    """Indices match brute force: exhaustive n <= 5, 10,000 random n = 6."""
    t0 = time.time()
    total = 0
    for n in range(0, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            _check_gli_against_oracles(n, edges)
            total += 1
    rng = np.random.default_rng(202)
    for _ in range(10_000):
        edges = oracles.random_edge_set(rng, 6, float(rng.random()))
        _check_gli_against_oracles(6, edges)
        total += 1
    report("criterion 2 GLI oracle equivalence", True,
           f"{total} graphs in {time.time() - t0:.1f}s")


def test_criterion_3_cycle_oracle():
    """pair_cycle_count equals whole-graph cycle enumeration, exactly."""
    t0 = time.time()
    rng = np.random.default_rng(303)
    graphs = 0
    checks = 0
    while graphs < 1000:
        n = int(rng.integers(3, 8))
        edges = oracles.random_edge_set(rng, n, float(rng.uniform(0.15, 0.8)))
        snap = Snapshot(1, list(range(n)), edges, n=n)
        max_len = 3 + graphs % 7  # sweeps 3..9
        for i in range(n):
            for j in range(i + 1, n):
                mine = pair_cycle_count(snap, i, j, max_len)
                ref = oracles.cycles_through_edge_by_enumeration(edges, i, j, max_len)
                assert mine == ref, (n, edges, i, j, max_len, mine, ref)
                checks += 1
        graphs += 1
    report("criterion 3 cycle-statistic oracle", True,
           f"{graphs} graphs, {checks} pair checks in {time.time() - t0:.1f}s")


RECOVERY_SPEC = ModelSpec(
    [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1),
     TermSpec("vertex", "lag_triangle", lag=1)],
    [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1),
     TermSpec("edge", "log_size")],
)
RECOVERY_THETA = np.array([-1.3, 1.0, 0.2, -4.0, 1.0, 0.6])


def test_criterion_4_coefficient_recovery():
    """Refit of self-generated data: all estimates within 3 SE in >= 95/100."""
    t0 = time.time()
    rs = RiskSet([f"v{k}" for k in range(40)])
    hits = 0
    worst = 0.0
    for rep in range(100):
        panel = generate_panel(RECOVERY_SPEC, RECOVERY_THETA, rs, 200,
                               seed=40_000 + rep, init_presence=0.4,
                               init_density=0.15)
        dm = build_design(panel, RECOVERY_SPEC)
        fit = fit_mle(dm)
        dev = np.abs(fit.coefficients - RECOVERY_THETA) / fit.std_errors
        worst = max(worst, float(dev.max()))
        hits += bool(fit.converged and np.all(dev < 3.0))
    report("criterion 4 coefficient recovery", hits >= 95,
           f"{hits}/100 runs inside 3 SE (worst dev {worst:.2f}) "
           f"in {time.time() - t0:.1f}s")


def test_criterion_5_posterior_mode_finiteness():
    """Separated designs: MLE flags separation, Cauchy posterior mode is finite."""
    rng = np.random.default_rng(505)
    sep_flags = 0
    finite_modes = 0
    for _ in range(100):
        n = int(rng.integers(6, 30))
        x = np.sort(rng.normal(size=n))
        cut = int(rng.integers(1, n - 1))
        y = (np.arange(n) >= cut).astype(int)  # perfectly separated on x
        dm = simple_dm(np.column_stack([np.ones(n), x]), y)
        mle = fit_mle(dm)
        sep_flags += bool(mle.separation)
        post = fit_posterior_mode(dm, PriorSpec.cauchy(2.5))
        finite_modes += bool(
            post.converged
            and np.all(np.isfinite(post.coefficients))
            and np.all(np.abs(post.coefficients) < 15.0)
            and np.all(np.isfinite(post.std_errors))
        )
    # 1-D oracle: all-ones intercept case
    dm1 = simple_dm(np.ones((5, 1)), np.ones(5))
    post1 = fit_posterior_mode(dm1, PriorSpec.cauchy(2.5))
    root = brentq(lambda t: 5 * (1 - expit(t)) - 2 * t / (t**2 + 6.25), 0.01, 50,
                  xtol=1e-12)
    oracle_gap = abs(post1.coefficients[0] - root)
    report("criterion 5 posterior-mode finiteness",
           sep_flags == 100 and finite_modes == 100 and oracle_gap < 1e-6,
           f"separation flags {sep_flags}/100, finite modes {finite_modes}/100, "
           f"oracle gap {oracle_gap:.2e}")


def test_criterion_6_simulation_calibration():
    """True-coefficient intervals cover density and mean degree 93.5-96.5%."""
    t0 = time.time()
    spec = LAG1_SPEC
    theta = np.array([-0.4, 0.8, -2.2, 1.2])
    rs = RiskSet([f"v{k}" for k in range(25)])
    panel = generate_panel(spec, theta, rs, 1001, seed=2024,
                           init_presence=0.5, init_density=0.1)
    fit = SimpleNamespace(coefficients=theta, column_names=spec.column_names)
    config = SimConfig(replicates=200, alpha=0.95, seed=99)
    _, rep = one_step_intervals(fit, spec, panel, config)
    assert rep.total == 1000
    cov = {name: rep.covered[g] / rep.total for g, name in enumerate(rep.names)}
    ok = 0.935 <= cov["density"] <= 0.965 and 0.935 <= cov["mean_degree"] <= 0.965
    report("criterion 6 simulation calibration", ok,
           f"density {cov['density']:.3f}, mean degree {cov['mean_degree']:.3f} "
           f"over 1000 steps in {time.time() - t0:.0f}s")


def test_criterion_7_month_panel_end_to_end(tmp_path):
    """Full workflow on a 95-vertex, 31-slot, 1-gap synthetic panel that
    exercises every statistic kind end to end."""
    panel = make_month_panel()
    checks = []

    checks.append(("shape", len(panel.risk_set) == 95
                   and len(panel.snapshots) == 30 and panel.gaps == (25,)))

    # file round trip
    path = tmp_path / "month.json"
    save_panel(panel, path)
    checks.append(("round trip", load_panel(path) == panel))

    spec = full_model_spec(month_risk_set())
    kinds = {t.kind for t in spec.vertex_terms + spec.edge_terms}
    checks.append(("every term kind", kinds == {
        "intercept", "attr_dummy", "mixing", "individual_dummy", "lag_indicator",
        "lag_triangle", "lag_cycle_embed", "log_size", "seasonal"}))

    vr = validate_model(spec, panel)
    checks.append(("28 usable steps", len(vr.usable_steps) == 28 and vr.ok))

    dm = build_design(panel, spec)
    checks.append(("vertex rows", dm.n_vertex_rows == 28 * 95))
    cyc_col = dm.column_names.index("e:cycles9_lag1")
    checks.append(("cycle term active",
                   dm.features[:, cyc_col].getnnz() > 0))

    fit = fit_posterior_mode(dm)
    checks.append(("fit converged", fit.converged
                   and np.all(np.isfinite(fit.coefficients))
                   and np.all(np.isfinite(fit.std_errors))))

    # selection: the generating (richest) model wins BIC on aligned designs
    bics = []
    for cand in nested_model_specs(month_risk_set()):
        cdm = build_design(panel, cand, align_to_lag=1)
        bics.append(fit_posterior_mode(cdm).bic)
    checks.append(("richest model wins BIC", bics[-1] == min(bics)))

    # adequacy at the protocol settings
    config = SimConfig(replicates=100, alpha=0.95, seed=6)
    _, rep = one_step_intervals(fit, spec, panel, config)
    checks.append(("adequacy shape", rep.total == 28 and len(rep.names) == 9))
    checks.append(("coverage sane", int(rep.covered.min()) >= 21))

    # fixed-vertex-set pathology: size intervals pinned at 95 never cover
    fixed_cfg = SimConfig(replicates=100, alpha=0.95, seed=6, fixed_vertex_set=True)
    _, fixed_rep = one_step_intervals(fit, spec, panel, fixed_cfg)
    size_g = list(fixed_rep.names).index("size")
    checks.append(("fixed-V pathology", int(fixed_rep.covered[size_g]) == 0))

    # 5-step projection stays inside the observed index ranges (median path)
    obs = np.array([gli_vector(s) for s in panel.snapshots])
    proj = project(fit, spec, panel, SimConfig(replicates=20, horizon=5, seed=17))
    med = np.median(proj.gli_paths, axis=0)  # horizon x gli
    in_range = np.all((med >= obs.min(axis=0) - 1e-9)
                      & (med <= obs.max(axis=0) + 1e-9))
    checks.append(("projection non-degenerate", bool(in_range)))

    failed = [name for name, ok in checks if not ok]
    detail = "; ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks)
    report("criterion 7 month-panel workflow (replacement mode)",
           not failed, detail)


def test_criterion_8_scalability():
    """>= 1e6 design rows build and fit in budget; storage tracks nonzeros."""
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1),
         TermSpec("edge", "log_size")],
    )
    theta = np.array([-1.45, 0.5, -5.2, 1.0, 0.3])
    rs = RiskSet([f"v{k:04d}" for k in range(1000)])
    panel = generate_panel(spec, theta, rs, 51, seed=31,
                           init_presence=0.2, init_density=0.02)
    degs = [2 * s.edge_count / max(1, s.n_present) for s in panel.snapshots]
    dm = build_design(panel, spec)
    t0 = time.time()
    fit = fit_mle(dm)
    fit_seconds = time.time() - t0
    X = dm.features
    sparse_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    linear_bound = 24 * X.nnz + 16 * (dm.n_rows + 1)
    ok = (dm.n_rows >= 1_000_000 and fit.converged and fit_seconds < 60.0
          and 4.0 <= np.mean(degs) <= 6.5 and sparse_bytes <= linear_bound)
    report("criterion 8 scalability", ok,
           f"{dm.n_rows} rows, fit {fit_seconds:.1f}s, "
           f"mean degree {np.mean(degs):.1f}, "
           f"storage {sparse_bytes / 1e6:.0f}MB for {X.nnz} nnz")
