import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import expit

from dynetlogit import (
    FitResult,
    PriorSpec,
    block_summaries,
    build_design,
    fit_mle,
    fit_posterior_mode,
)
from dynetlogit import solver
from dynetlogit.design import DesignMatrix, TagTable
from dynetlogit.solver import _information_criteria, _Rows
from dynetlogit.synth import make_month_panel, month_risk_set, nested_model_specs

import oracles
from conftest import random_panel
from oracles import predict_probabilities, split_design


def make_dm(X, y, names=None):
    X = sp.csr_matrix(X, dtype=float) if sp.issparse(X) else \
        sp.csr_matrix(np.atleast_2d(np.asarray(X, dtype=float)))
    n, p = X.shape
    names = tuple(names or (f"x{k}" for k in range(p)))
    return DesignMatrix(
        responses=np.asarray(y, dtype=np.int8),
        features=X,
        tags=TagTable(np.zeros(n, dtype=np.uint8), np.zeros(n), np.arange(n),
                      np.full(n, -1)),
        column_names=names,
        n_vertex_terms=p,
        n_vertex_rows=n,
    )


def test_intercept_only_closed_form():
    dm = make_dm(np.ones((4, 1)), [1, 0, 0, 0])
    fit = fit_mle(dm)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-8)
    assert fit.log_likelihood == pytest.approx(
        math.log(0.25) + 3 * math.log(0.75), abs=1e-8)


def test_all_zero_responses_flags_separation():
    dm = make_dm(np.ones((6, 1)), np.zeros(6))
    fit = fit_mle(dm)
    assert fit.separation
    assert not fit.converged
    assert fit.coefficients[0] < -15


def test_separated_feature_flags_separation():
    x = np.array([[1, 0], [1, 0], [1, 1], [1, 1]], dtype=float)
    y = np.array([0, 0, 1, 1])
    fit = fit_mle(make_dm(x, y))
    assert fit.separation


def test_separation_with_features_beyond_one_is_flagged():
    """The score falls below the tolerance at theta = -10.6, long before a
    coefficient bound would notice; the linear program sees the separation
    before the ascent starts."""
    fit = fit_mle(make_dm(np.full((6, 1), 2.0), np.zeros(6)))
    assert fit.separation and not fit.converged
    assert fit.separating_columns == ("x0",)
    assert fit.notes == ("separation: no finite maximum likelihood estimate along x0",)
    assert fit_posterior_mode(make_dm(np.full((6, 1), 2.0), np.zeros(6))).converged


def test_quasi_complete_separation_names_its_column():
    """x1 = 0 is seen with both responses and x1 = 1 only with response 1:
    the intercept is bounded both ways, the x1 coefficient is not."""
    x = np.array([[1, 0], [1, 0], [1, 1], [1, 1], [1, 1]], dtype=float)
    fit = fit_mle(make_dm(x, [0, 1, 1, 1, 1]))
    assert fit.separating_columns == ("x1",)
    assert not fit.converged
    assert abs(fit.coefficients[0]) < 1e-8 and fit.coefficients[1] > 15
    # one x1 = 1 row with response 0 bounds it: the MLE exists
    overlap = fit_mle(make_dm(x, [0, 1, 0, 1, 1]))
    assert overlap.converged and not overlap.separation
    assert overlap.coefficients[1] == pytest.approx(math.log(2), abs=1e-8)


def test_separation_names_columns_beyond_one_direction(monkeypatch):
    """Vertex a always re-appears and b never does: beta = (0, 1) separates,
    and so does (-1, 2), so the intercept diverges as well as the lag.
    Only a separated design runs the programs beyond the first."""
    import scipy.optimize
    calls = []
    original = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    x = np.array([[1.0, 1.0], [1.0, 0.0]] * 10)
    fit = fit_mle(make_dm(x, [1, 0] * 10))
    assert fit.separating_columns == ("x0", "x1")
    assert fit.coefficients[0] < -15 and fit.coefficients[1] > 15
    assert len(calls) > 1
    calls.clear()
    overlap = fit_mle(make_dm(x, [1, 0, 0, 1] * 5))
    assert overlap.converged and not overlap.separation
    assert len(calls) == 1


def test_monte_carlo_recovery():
    rng = np.random.default_rng(123)
    n = 50_000
    x = rng.normal(size=n)
    theta_true = np.array([-2.0, 1.0])
    eta = theta_true[0] + theta_true[1] * x
    y = rng.random(n) < expit(eta)
    dm = make_dm(np.column_stack([np.ones(n), x]), y.astype(int))
    fit = fit_mle(dm)
    assert fit.converged
    assert np.all(np.abs(fit.coefficients - theta_true) < 0.1)
    # true values inside the 95 percent Wald intervals for this seed
    lo = fit.coefficients - 1.96 * fit.std_errors
    hi = fit.coefficients + 1.96 * fit.std_errors
    assert np.all((theta_true > lo) & (theta_true < hi))


def test_posterior_mode_matches_root_find_oracle():
    # all successes, intercept only: the mode solves
    # n * (1 - sigmoid(t)) = 2 t / (t^2 + df*scale^2) for Cauchy(0, 2.5)
    dm = make_dm(np.ones((5, 1)), np.ones(5))
    fit = fit_posterior_mode(dm, PriorSpec.cauchy(scale=2.5))
    root = brentq(lambda t: 5 * (1 - expit(t)) - 2 * t / (t**2 + 6.25), 0.01, 50)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(root, abs=1e-6)
    assert 0 < fit.coefficients[0] < 15


def test_vague_prior_limit_approaches_mle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=400)
    y = (rng.random(400) < expit(0.5 - 0.8 * x)).astype(int)
    dm = make_dm(np.column_stack([np.ones(400), x]), y)
    mle = fit_mle(dm)
    post = fit_posterior_mode(dm, PriorSpec(kind="student_t", scale=1e6, df=1.0))
    assert np.all(np.abs(post.coefficients - mle.coefficients) < 1e-4)


def test_posterior_finite_on_separated_toys():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        x = np.sort(rng.normal(size=n))
        y = (np.arange(n) >= n // 2).astype(int)  # perfectly separated on x order
        dm = make_dm(np.column_stack([np.ones(n), x]), y)
        post = fit_posterior_mode(dm, PriorSpec.cauchy(2.5))
        assert post.converged
        assert np.all(np.isfinite(post.coefficients))
        assert np.all(np.abs(post.coefficients) < 15)
        assert np.all(np.isfinite(post.std_errors))


def test_information_criteria_formula():
    bic, aic = _information_criteria(100.0, 3, 1000)
    assert bic == pytest.approx(100.0 + 3 * math.log(1000), abs=1e-9)
    assert bic == pytest.approx(120.7233, abs=1e-3)
    assert aic == pytest.approx(106.0)


def test_information_criteria_no_parameters():
    bic, aic = _information_criteria(100.0, 0, 10)
    assert bic == 100.0
    assert aic == 100.0


def test_deviance_is_minus_twice_loglik():
    dm = make_dm(np.ones((4, 1)), [1, 0, 1, 0])
    fit = fit_mle(dm)
    assert fit.deviance == pytest.approx(-2 * fit.log_likelihood)
    assert fit.bic == pytest.approx(fit.deviance + 1 * math.log(4))
    assert fit.aic == pytest.approx(fit.deviance + 2)


def test_predict_probabilities():
    x = np.column_stack([np.ones(5), np.arange(5.0)])
    dm = make_dm(x, [0, 1, 0, 1, 1])
    fit = fit_mle(dm)
    zero = FitResult(
        coefficients=np.zeros(2), std_errors=np.zeros(2), log_likelihood=0.0,
        deviance=0.0, bic=0.0, aic=0.0, n_obs=5, converged=True, iterations=0,
        prior=PriorSpec.none(), column_names=("a", "b"), gradient_norm=0.0)
    assert np.allclose(predict_probabilities(zero, dm), 0.5)

    p25 = FitResult(
        coefficients=np.array([math.log(1 / 3), 0.0]), std_errors=np.zeros(2),
        log_likelihood=0.0, deviance=0.0, bic=0.0, aic=0.0, n_obs=5, converged=True,
        iterations=0, prior=PriorSpec.none(), column_names=("a", "b"),
        gradient_norm=0.0)
    assert np.allclose(predict_probabilities(p25, dm), 0.25)

    probs = predict_probabilities(fit, dm)
    assert np.all((probs > 0) & (probs < 1))
    with pytest.raises(ValueError):
        predict_probabilities(fit, make_dm(np.ones((3, 1)), [0, 1, 0]))


def test_monotone_in_positive_coefficient_feature():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 1))
    y = (rng.random(200) < expit(1.5 * x[:, 0])).astype(int)
    dm = make_dm(np.column_stack([np.ones(200), x]), y)
    fit = fit_mle(dm)
    assert fit.coefficients[1] > 0
    bumped = make_dm(np.column_stack([np.ones(200), x + 0.5]), y)
    assert np.all(predict_probabilities(fit, bumped) >=
                  predict_probabilities(fit, dm))


def test_separability_joint_equals_parts():
    rng = np.random.default_rng(11)
    panel = random_panel(rng, n=8, T=8, presence=0.6, density=0.4)
    from dynetlogit import ModelSpec, TermSpec
    spec = ModelSpec(
        [TermSpec("vertex", "intercept"), TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"), TermSpec("edge", "lag_indicator", lag=1)],
    )
    dm = build_design(panel, spec)
    joint = fit_mle(dm)
    dv, de = split_design(dm)
    fv, fe = fit_mle(dv), fit_mle(de)
    stacked = np.concatenate([fv.coefficients, fe.coefficients])
    assert np.all(np.abs(joint.coefficients - stacked) < 1e-8)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
    y = (rng.random(60) < expit(X @ np.array([0.3, -0.6, 1.0]))).astype(float)

    def loglik(theta):
        eta = X @ theta
        return float(y @ eta - np.logaddexp(0, eta).sum())

    def score(theta):
        return X.T @ (y - expit(X @ theta))

    dm = make_dm(X, y.astype(int))
    that = fit_mle(dm).coefficients
    h = 1e-6
    for theta in (that, np.zeros(3), rng.normal(size=3)):
        g = score(theta)
        fd = np.array([
            (loglik(theta + h * e) - loglik(theta - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        assert np.all(np.abs(g - fd) <= 1e-6 * max(1.0, np.abs(g).max()) + 1e-4 * h)


def test_row_permutation_invariance():
    rng = np.random.default_rng(13)
    X = np.column_stack([np.ones(100), rng.normal(size=100)])
    y = (rng.random(100) < expit(X @ np.array([-0.5, 0.8]))).astype(int)
    perm = rng.permutation(100)
    a = fit_mle(make_dm(X, y))
    b = fit_mle(make_dm(X[perm], y[perm]))
    assert np.allclose(a.coefficients, b.coefficients, atol=1e-10)
    assert np.allclose(a.std_errors, b.std_errors, atol=1e-10)
    assert a.log_likelihood == pytest.approx(b.log_likelihood)
    assert a.bic == pytest.approx(b.bic)


def test_column_scaling_invariance():
    rng = np.random.default_rng(17)
    x = rng.normal(size=150)
    y = (rng.random(150) < expit(0.2 + 0.9 * x)).astype(int)
    base = fit_mle(make_dm(np.column_stack([np.ones(150), x]), y))
    scaled = fit_mle(make_dm(np.column_stack([np.ones(150), 10 * x]), y))
    assert scaled.coefficients[1] == pytest.approx(base.coefficients[1] / 10, rel=1e-6)
    pa = predict_probabilities(base, make_dm(np.column_stack([np.ones(150), x]), y))
    pb = predict_probabilities(scaled,
                               make_dm(np.column_stack([np.ones(150), 10 * x]), y))
    assert np.allclose(pa, pb, atol=1e-8)


def test_all_zero_column_flagged_and_pinned():
    X = np.column_stack([np.ones(10), np.zeros(10)])
    y = np.array([1, 0] * 5)
    fit = fit_mle(make_dm(X, y))
    assert fit.coefficients[1] == 0.0
    assert np.isnan(fit.std_errors[1])
    assert any("all-zero" in n for n in fit.notes)


def test_matches_reference_glm():
    """Independent route: coefficients and standard errors agree with a
    standard GLM implementation on the same design."""
    sm = pytest.importorskip("statsmodels.api")
    rng = np.random.default_rng(31)
    X = np.column_stack([np.ones(500), rng.normal(size=(500, 2)),
                         (rng.random(500) < 0.3).astype(float)])
    y = (rng.random(500) < expit(X @ np.array([-0.4, 0.7, -1.1, 0.5]))).astype(int)
    mine = fit_mle(make_dm(X, y))
    ref = sm.GLM(y, X, family=sm.families.Binomial()).fit()
    assert np.allclose(mine.coefficients, ref.params, atol=1e-7)
    assert np.allclose(mine.std_errors, ref.bse, rtol=1e-5)
    assert mine.log_likelihood == pytest.approx(ref.llf, abs=1e-6)
    assert mine.aic == pytest.approx(ref.aic, abs=1e-5)


def _oracle_design():
    rng = np.random.default_rng(37)
    X = np.column_stack([np.ones(500), rng.normal(size=(500, 2)),
                         (rng.random(500) < 0.3).astype(float)])
    y = (rng.random(500) < expit(X @ np.array([-0.4, 0.7, -1.1, 0.5]))).astype(int)
    return X, y


@pytest.mark.parametrize("prior", [
    None,
    PriorSpec.cauchy(2.5),
    PriorSpec(kind="student_t", scale=1.5, df=3.0,
              overrides={"x2": {"center": -0.5, "scale": 0.2, "df": 5.0}}),
], ids=["mle", "cauchy", "t3_override"])
def test_matches_dense_reference_fit(prior):
    """Independent route that runs without statsmodels: a dense
    scipy.optimize fit of the same objective, SEs from its inverse Hessian."""
    X, y = _oracle_design()
    dm = make_dm(X, y)
    if prior is None:
        mine, ref = fit_mle(dm), oracles.logistic_fit_by_minimize(X, y)
    else:
        mine = fit_posterior_mode(dm, prior)
        ref = oracles.logistic_fit_by_minimize(X, y, *prior.resolve(dm.column_names))
        # informative only if the prior moves the fit off the MLE
        assert np.abs(mine.coefficients - fit_mle(dm).coefficients).max() > 1e-3
    assert mine.converged
    assert np.allclose(mine.coefficients, ref["coefficients"], rtol=0, atol=1e-6)
    assert np.allclose(mine.std_errors, ref["std_errors"], rtol=1e-5, atol=0)
    for key in ("log_likelihood", "deviance", "bic", "aic"):
        assert getattr(mine, key) == pytest.approx(ref[key], abs=1e-6), key


def test_wide_design_converges_by_newton():
    """Intercept, a lag column and 2,000 endpoint dummies: the full Newton
    path certifies the gradient contract in a few iterations."""
    rng = np.random.default_rng(41)
    rows, k = 6000, 2000
    # every vertex is an endpoint of some row, so no column is pinned
    ends = np.column_stack([np.arange(rows) % k, rng.integers(0, k, rows)])
    ends[:, 1] = np.where(ends[:, 1] == ends[:, 0], (ends[:, 0] + 1) % k, ends[:, 1])
    lag = (rng.random(rows) < 0.2).astype(float)
    r = np.arange(rows)
    X = sp.csr_matrix(
        (np.concatenate([np.ones(rows), lag, np.ones(2 * rows)]),
         (np.concatenate([r, r, r, r]),
          np.concatenate([np.zeros(rows, int), np.ones(rows, int),
                          2 + ends[:, 0], 2 + ends[:, 1]]))),
        shape=(rows, k + 2))
    X.eliminate_zeros()
    ability = rng.normal(scale=0.5, size=k)
    y = rng.random(rows) < expit(-2.0 + 2.5 * lag + ability[ends].sum(axis=1))
    fit = fit_posterior_mode(make_dm(X, y.astype(int)), PriorSpec.cauchy(2.5))
    assert fit.notes == ()  # all 2,002 columns active
    assert fit.converged
    assert fit.gradient_norm <= 1e-8
    assert fit.iterations < 100


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("prior", [PriorSpec.none(), PriorSpec.cauchy(2.5)],
                         ids=["mle", "cauchy"])
def test_stored_zeros_do_not_make_a_column_active(prior):
    """Columns are active by value: a CSR that stores 0.0 at every entry of
    column x1 fits as the one without those entries, x1 pinned at 0."""
    rng = np.random.default_rng(59)
    x = (rng.random(40) < 0.5).astype(float)
    y = (rng.random(40) < expit(-0.3 + 0.8 * x)).astype(int)
    dense = np.column_stack([np.ones(40), np.zeros(40), x])
    stored = sp.csr_matrix((dense.ravel(), (np.arange(40).repeat(3), np.tile([0, 1, 2], 40))),
                           shape=(40, 3))
    eliminated = stored.copy()
    eliminated.eliminate_zeros()
    dm = make_dm(stored, y)
    assert dm.patterns.features[:, 1].nnz > 0  # the stored zeros reach the patterns
    fit = fit_posterior_mode(dm, prior)
    assert fit.to_dict() == fit_posterior_mode(make_dm(eliminated, y), prior).to_dict()
    assert fit.notes == ("all-zero columns pinned at 0: x1",)
    assert fit.coefficients[1] == 0.0 and np.isnan(fit.std_errors[1])


def test_prior_override_by_column():
    dm = make_dm(np.ones((5, 1)), np.ones(5), names=("intercept",))
    tight = fit_posterior_mode(
        dm, PriorSpec(kind="student_t", scale=2.5, df=1,
                      overrides={"intercept": {"scale": 0.1}}))
    loose = fit_posterior_mode(dm, PriorSpec.cauchy(2.5))
    assert abs(tight.coefficients[0]) < abs(loose.coefficients[0])


def test_prior_override_on_all_zero_column():
    # the pinned column x1 still exists: its override is accepted and the
    # active columns keep their own prior; an unknown name still raises
    X = np.column_stack([np.ones(6), np.zeros(6), [0, 1, 0, 1, 1, 0]])
    y = np.array([1, 0, 0, 1, 1, 0])
    dm = make_dm(X, y)
    base = PriorSpec(kind="student_t", scale=1.0, df=3.0)
    fit = fit_posterior_mode(dm, PriorSpec(kind="student_t", scale=1.0, df=3.0,
                                           overrides={"x1": {"scale": 0.1}}))
    assert fit.coefficients[1] == 0.0 and np.isnan(fit.std_errors[1])
    np.testing.assert_array_equal(fit.coefficients, fit_posterior_mode(dm, base).coefficients)
    tight = fit_posterior_mode(dm, PriorSpec(kind="student_t", scale=1.0, df=3.0,
                                             overrides={"x2": {"scale": 0.05}}))
    assert abs(tight.coefficients[2]) < 0.5 * abs(fit.coefficients[2])
    with pytest.raises(ValueError, match="unknown column 'x9'"):
        fit_posterior_mode(dm, PriorSpec(overrides={"x9": {"scale": 0.1}}))


def test_fit_report_dict_round_trips_json():
    import json

    dm = make_dm(np.ones((4, 1)), [1, 0, 0, 1])
    fit = fit_posterior_mode(dm)
    blob = json.dumps(fit.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["columns"] == ["x0"]
    assert back["convergence"]["converged"] is True
    assert back["prior"]["df"] == 1.0


# ---------------------------------------------------------------------------
# fitting on binomial patterns against the row-level Newton oracle
# ---------------------------------------------------------------------------

def make_stacked_dm(Xv, yv, Xe, ye):
    """Block-diagonal vertex/edge design from dense blocks."""
    Xv, Xe = np.atleast_2d(Xv), np.atleast_2d(Xe)
    (nv, kv), (ne, ke) = Xv.shape, Xe.shape
    X = np.zeros((nv + ne, kv + ke))
    X[:nv, :kv] = Xv
    X[nv:, kv:] = Xe
    n = nv + ne
    return DesignMatrix(
        responses=np.concatenate([yv, ye]).astype(np.int8),
        features=sp.csr_matrix(X),
        tags=TagTable((np.arange(n) >= nv).astype(np.uint8), np.zeros(n),
                      np.arange(n), np.full(n, -1)),
        column_names=tuple(f"v{k}" for k in range(kv)) + tuple(f"e{k}" for k in range(ke)),
        n_vertex_terms=kv,
        n_vertex_rows=nv,
    )


def distinct_rows(dm):
    """Counts of the distinct (block, response, feature row) triples."""
    block = np.arange(dm.n_rows) >= dm.n_vertex_rows
    full = np.column_stack([block, dm.responses, dm.features.toarray()])
    return np.unique(full, axis=0, return_counts=True)[1]


def assert_fits_agree(fit, ref):
    """Coefficients, log-likelihood, deviance, BIC and AIC within 1e-9
    relative, SEs within 1e-6 relative: the two fits take the same Newton
    steps and differ only in summation order."""
    assert (fit.converged, fit.separation, fit.iterations, fit.notes, fit.n_obs) == \
        (ref.converged, ref.separation, ref.iterations, ref.notes, ref.n_obs)
    np.testing.assert_allclose(fit.coefficients, ref.coefficients, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(fit.std_errors, ref.std_errors, rtol=1e-6, atol=0)
    for key in ("log_likelihood", "deviance", "bic", "aic"):
        assert getattr(fit, key) == pytest.approx(getattr(ref, key), rel=1e-9, abs=1e-12), key


PRIORS = [PriorSpec.none(), PriorSpec.cauchy(2.5),
          PriorSpec(kind="student_t", scale=1.5, df=3.0,
                    overrides={"e0": {"center": -0.5, "scale": 0.4, "df": 5.0}})]
VALUES = [0.0, 1.0, 0.5, -1.25, 2.0]


@st.composite
def duplicated_designs(draw):
    """Few distinct feature rows repeated many times, per block; all-zero
    rows in both blocks give vertex and edge rows identical features, and a
    block's last column may be zero throughout (its first never is)."""
    seed = draw(st.integers(0, 2**32 - 1))
    kv, ke = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    blocks = []
    for k in (kv, ke):
        pool = rng.choice(VALUES, size=(draw(st.integers(2, 6)), k))
        pool[0] = 0.0
        pool[-1, 0] = 1.0
        if k > 1 and draw(st.booleans()):
            pool[:, -1] = 0.0
        n = draw(st.integers(1, 200))
        X = pool[np.append(rng.integers(0, len(pool), n - 1), len(pool) - 1)]
        blocks.append((X, (rng.random(n) < draw(st.floats(0.15, 0.85))).astype(int)))
    (Xv, yv), (Xe, ye) = blocks
    return make_stacked_dm(Xv, yv, Xe, ye), draw(st.sampled_from(PRIORS))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(duplicated_designs())
def test_pattern_fit_matches_row_level_newton(case):
    dm, prior = case
    fit = fit_posterior_mode(dm, prior)
    ref = oracles.fit_by_rows(dm, prior)
    X = dm.features.toarray()
    active = X[:, np.abs(X).sum(axis=0) > 0]
    identified = np.linalg.matrix_rank(active) == active.shape[1]
    # the linear program on the patterns and on the rows decides alike
    assert fit.separation == ref.separation
    if fit.separation:
        # no MLE: the ascent ends where the score falls below the
        # tolerance, at a point its last bits decide
        event("separated MLE")
        assert prior.kind == "none" and not fit.converged and not ref.converged
    elif prior.kind == "none" and not identified:
        # collinear columns: the Hessian is singular along a direction in
        # which the last bits decide the steps; the likelihood is pinned
        event("collinear MLE")
        assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-9, abs=1e-9)
    else:
        event(f"prior {prior.kind}")
        assert_fits_agree(fit, ref)
    pat = dm.patterns
    assert np.array_equal(np.sort(pat.trials), np.sort(distinct_rows(dm)))
    # block summaries from the patterns equal the sums over the rows
    eta = dm.features @ fit.coefficients
    y = dm.responses.astype(float)
    parts = block_summaries(dm, fit.coefficients)
    for name, rows in (("vertex", slice(0, dm.n_vertex_rows)),
                       ("edge", slice(dm.n_vertex_rows, dm.n_rows))):
        ll = float(y[rows] @ eta[rows] - np.logaddexp(0.0, eta[rows]).sum())
        assert parts[name]["log_likelihood"] == pytest.approx(ll, rel=1e-9, abs=1e-12)
        assert parts[name]["n_obs"] == rows.stop - rows.start


@pytest.mark.parametrize("prior", PRIORS[:2], ids=["mle", "cauchy"])
def test_separated_duplicated_design_matches_row_level_newton(prior):
    X = np.repeat([[1.0, 0.0], [1.0, 1.0]], [40, 60], axis=0)
    y = np.repeat([0, 1], [40, 60])
    dm = make_stacked_dm(X, y, np.ones((30, 1)), np.arange(30) % 3 == 0)
    fit = fit_posterior_mode(dm, prior)
    assert fit.separation == (prior.kind == "none")
    assert len(dm.patterns.trials) == 4
    assert_fits_agree(fit, oracles.fit_by_rows(dm, prior))


def test_wide_dummy_design_keys_exactly():
    """70 binary columns need 70 bits of mixed-radix key: the partial key is
    renumbered on the way, and the patterns are still exactly the distinct
    rows."""
    rng = np.random.default_rng(43)
    k = 70
    pool = (rng.random((400, k)) < 0.3).astype(float)
    pool[:, 0] = 1.0
    pool[1::2] = pool[::2]
    pool[1::2, -8:] = rng.random((200, 8)) < 0.3  # pairs differ past the renumbering
    X = pool[rng.integers(0, len(pool), 4000)]
    beta = rng.normal(scale=0.3, size=k)
    y = (rng.random(4000) < expit(X @ beta - 0.5)).astype(int)
    dm = make_stacked_dm(X, y, np.ones((5, 1)), [1, 0, 0, 1, 0])
    assert np.array_equal(np.sort(dm.patterns.trials), np.sort(distinct_rows(dm)))
    assert dm.patterns.trials.sum() == dm.n_rows
    prior = PriorSpec.cauchy(2.5)
    assert_fits_agree(fit_posterior_mode(dm, prior), oracles.fit_by_rows(dm, prior))


def test_bic_counts_trials_not_patterns():
    rng = np.random.default_rng(47)
    X = np.column_stack([np.ones(5000), rng.integers(0, 2, 5000)])
    y = (rng.random(5000) < expit(X @ np.array([-1.0, 0.7]))).astype(int)
    dm = make_dm(X, y)
    fit = fit_mle(dm)
    assert len(dm.patterns.trials) == 4
    assert fit.n_obs == dm.n_rows == 5000
    assert fit.bic == pytest.approx(fit.deviance + 2 * math.log(5000), rel=1e-12)
    assert block_summaries(dm, fit.coefficients)["vertex"]["n_obs"] == 5000


def test_fit_memory_stays_near_the_design():
    """The fit collapses the rows before it slices or weights them: its
    tracemalloc peak, over the design it is given, stays under 3.3 times the
    design's CSR bytes (a row-level Newton needs about 3.9 times)."""
    rng = np.random.default_rng(53)
    n = 300_000
    lag = rng.random(n) < 0.05
    size = np.log(rng.integers(150, 250, n) / 200.0)
    X = sp.csr_matrix(np.column_stack([np.ones(n), lag, size]))
    y = (rng.random(n) < expit(-2.0 + 3.0 * lag + 0.5 * size)).astype(int)
    dm = make_dm(X, y)
    csr_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit = fit_posterior_mode(dm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < 3.3 * csr_bytes, peak / csr_bytes


# ---------------------------------------------------------------------------
# the Newton loop's products on plain arrays against scipy.sparse
# ---------------------------------------------------------------------------

STORED = st.sampled_from([1.0, -1.0, 0.0, 0.5, -2.75, 1e-3]) | st.floats(
    -50.0, 50.0, allow_nan=False, allow_subnormal=False)


@st.composite
def sliced_csrs(draw):
    """A CSR with empty rows, stored zeros and negative and fractional
    values, a sorted subset of its columns (maybe none or one), and
    arguments for the three products."""
    n, k = draw(st.integers(0, 12)), draw(st.integers(1, 6))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, max(n - 1, 0)),
                                           st.integers(0, k - 1)),
                                 STORED, max_size=n * k))
    rows, cols = (np.array(c, dtype=np.int64) for c in zip(*cells)) if cells else ([], [])
    features = sp.csr_matrix((list(cells.values()), (rows, cols)), shape=(n, k))
    active = np.flatnonzero(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.normal(scale=3.0, size=len(active))
    w = rng.random(n) * 10.0 ** rng.integers(-6, 3, n)
    return features, active, theta, rng.normal(size=n), w


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(sliced_csrs())
def test_row_products_equal_scipy_bit_for_bit(case):
    """X @ theta, X'v and X'WX on plain arrays are the floats scipy.sparse
    gives on the sliced CSR, however many blocks X'WX is taken in."""
    features, active, theta, v, w = case
    ref = oracles.ScipyRows(features, active)
    for budget in (solver.ENTRY_PAIR_BUDGET, 5, 1):
        with mock.patch.object(solver, "ENTRY_PAIR_BUDGET", budget):
            rows = _Rows(features, active)
        assert rows.shape == ref.shape
        assert same_bits(rows.dot(theta), ref.dot(theta))
        assert same_bits(rows.rdot(v), ref.rdot(v))
        assert same_bits(rows.xtwx(w), ref.xtwx(w))


@pytest.mark.parametrize("prior", [PriorSpec.cauchy(2.5), PriorSpec.none()],
                         ids=["cauchy", "mle"])
def test_month_fits_equal_newton_on_scipy(monkeypatch, prior):
    """The month study's four nested fits run on plain arrays equal, bit for
    bit and iteration for iteration, the same Newton loop on scipy.sparse."""
    panel = make_month_panel()
    dms = [build_design(panel, spec) for spec in nested_model_specs(month_risk_set())]
    fits = [fit_posterior_mode(dm, prior) for dm in dms]
    monkeypatch.setattr(solver, "_Rows", oracles.ScipyRows)
    for dm, fit in zip(dms, fits):
        ref = fit_posterior_mode(dm, prior)
        assert fit.iterations == ref.iterations > 0
        assert same_bits(fit.coefficients, ref.coefficients)
        assert same_bits(fit.std_errors, ref.std_errors)
        assert fit.to_dict() == ref.to_dict()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 27),
       ridge=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]))
def test_lapack_cholesky_equals_scipy_wrappers_bit_for_bit(seed, p, ridge):
    """The solver's direct potrf/potrs calls give the bits of
    scipy.linalg.cho_factor and cho_solve, the wrappers they replace."""
    from scipy.linalg import cho_factor, cho_solve
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p + 2, p)) * rng.uniform(0.01, 100, size=p)
    H = A.T @ A + ridge * np.eye(p)
    g = rng.normal(size=p)
    c = cho_factor(H, lower=True)
    assert same_bits(solver._solve_spd(H, g), cho_solve(c, g))
    assert same_bits(solver._spd_inverse_diag(H), np.diag(cho_solve(c, np.eye(p))))


def test_solve_spd_leaves_h_unmodified():
    """The step factors H itself, signed zeros included, and then H plus a
    jitter; neither writes into H."""
    from scipy.linalg import cho_factor, cho_solve
    spd = np.array([[2.0, -0.0, 0.5], [-0.0, 3.0, 0.0], [0.5, 0.0, 1.0]])
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    for H in (spd, np.asfortranarray(spd), indefinite):
        before = H.tobytes(order="A")
        step = solver._solve_spd(H, np.ones(len(H)))
        assert H.tobytes(order="A") == before
        assert np.isfinite(step).all()
    assert same_bits(solver._solve_spd(spd, np.ones(3)),
                     cho_solve(cho_factor(spd, lower=True), np.ones(3)))


def test_cholesky_refuses_what_cho_factor_refuses():
    """Not positive definite: the jitter loop or None, as before.  An inf
    or NaN: the ValueError cho_factor's finite check raises."""
    H = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        solver._cholesky(H)
    assert solver._spd_inverse_diag(H) is None
    assert np.isfinite(solver._solve_spd(H, np.ones(2))).all()  # a jittered step
    assert solver._spd_inverse_diag(np.zeros((0, 0))).shape == (0,)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            solver._solve_spd(np.array([[1.0, 0.0], [0.0, bad]]), np.ones(2))
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            solver._solve_spd(np.eye(2), np.array([1.0, bad]))


@pytest.mark.parametrize("kwargs, message", [
    ({"scale": math.nan}, "prior scale must be finite, got nan"),
    ({"scale": math.inf}, "prior scale must be finite, got inf"),
    ({"center": -math.inf}, "prior center must be finite, got -inf"),
    ({"df": math.inf}, "prior df must be finite, got inf"),
    ({"df": math.nan}, "prior df must be finite, got nan"),
    ({"overrides": {"x0": {"scale": math.inf}}},
     "override for 'x0' has non-finite scale, got inf"),
    ({"overrides": {"x0": {"center": math.nan}}},
     "override for 'x0' has non-finite center, got nan"),
    ({"overrides": {"x0": {"df": math.inf}}}, "override for 'x0' has non-finite df, got inf"),
])
def test_prior_refuses_non_finite_parameters(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PriorSpec(kind="student_t", **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"tolerance": math.inf}, "tolerance must be a positive finite number, got inf"),
    ({"tolerance": math.nan}, "tolerance must be a positive finite number, got nan"),
    ({"tolerance": 0.0}, "tolerance must be a positive finite number, got 0.0"),
    ({"tolerance": -1.0}, "tolerance must be a positive finite number, got -1.0"),
    ({"max_iter": -3}, "max_iter must be non-negative, got -3"),
])
def test_fit_refuses_a_stopping_rule_that_cannot_stop_right(kwargs, message):
    dm = make_dm(np.ones((4, 1)), [1, 0, 0, 1])
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_posterior_mode(dm, PriorSpec(), **kwargs)
    assert not fit_posterior_mode(dm, PriorSpec(), max_iter=0).converged
