"""Bernoulli regression on sparse designs.

Two estimators share one damped-Newton engine: plain maximum likelihood,
and the posterior mode under independent Student-t coefficient priors.
The t prior is handled through its normal scale-mixture representation:
each outer iteration refreshes per-coefficient precision weights
(the EM E-step) and takes one reweighted-least-squares step against them,
with a line search on the true penalized objective so every iteration is
an ascent.  Once the gradient is nearly zero the exact penalized curvature
is used instead, which restores quadratic convergence.

Rows are independent Bernoulli trials, so the engine runs on the design's
binomial patterns (:attr:`DesignMatrix.patterns`): ``m`` rows of one feature
row and response ``y`` contribute s*eta - m*log(1 + e^eta) to the
log-likelihood, with s = m*y successes, and m*(y - mu) to the score, exactly
as the m rows would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError

from .design import DesignMatrix
from .panel import _ranges

if TYPE_CHECKING:
    import scipy.sparse as sp

# scipy is imported inside the functions that use it, so that only a fit
# pays its import: loading the package, simulating and computing indices
# need numpy alone.

__all__ = [
    "PriorSpec",
    "FitResult",
    "fit_mle",
    "fit_posterior_mode",
    "block_summaries",
]


@dataclass(frozen=True)
class PriorSpec:
    """Independent Student-t prior per coefficient (df=1 gives Cauchy)."""

    kind: str = "student_t"
    center: float = 0.0
    scale: float = 2.5
    df: float = 1.0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("none", "student_t"):
            raise ValueError(f"prior kind must be 'none' or 'student_t', got {self.kind!r}")
        if self.kind == "student_t":
            for key in ("center", "scale", "df"):
                if not math.isfinite(getattr(self, key)):
                    raise ValueError(f"prior {key} must be finite, got {getattr(self, key)}")
            if self.scale <= 0:
                raise ValueError("prior scale must be positive")
            if self.df <= 0:
                raise ValueError("prior df must be positive")
        for name, over in self.overrides.items():
            for key in ("center", "scale", "df"):
                if not math.isfinite(over.get(key, 0.0)):
                    raise ValueError(f"override for {name!r} has non-finite {key}, "
                                     f"got {over[key]}")
            if over.get("scale", 1.0) <= 0 or over.get("df", 1.0) <= 0:
                raise ValueError(f"override for {name!r} has nonpositive scale or df")

    @classmethod
    def none(cls) -> "PriorSpec":
        return cls(kind="none")

    @classmethod
    def cauchy(cls, scale: float = 2.5, center: float = 0.0) -> "PriorSpec":
        return cls(kind="student_t", center=center, scale=scale, df=1.0)

    def resolve(self, column_names):
        """Per-column (center, scale, df) arrays, applying overrides by name."""
        p = len(column_names)
        centers = np.full(p, self.center)
        scales = np.full(p, self.scale)
        dfs = np.full(p, self.df)
        for name, over in self.overrides.items():
            if name not in column_names:
                raise ValueError(f"prior override for unknown column {name!r}")
            c = column_names.index(name)
            centers[c] = over.get("center", self.center)
            scales[c] = over.get("scale", self.scale)
            dfs[c] = over.get("df", self.df)
        return centers, scales, dfs

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "student_t":
            d.update(center=self.center, scale=self.scale, df=self.df)
            if self.overrides:
                d["overrides"] = {k: dict(v) for k, v in self.overrides.items()}
        return d


@dataclass
class FitResult:
    """Converged (or diagnosed) fit of one stacked Bernoulli design."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    log_likelihood: float
    deviance: float
    bic: float
    aic: float
    n_obs: int
    converged: bool
    iterations: int
    prior: PriorSpec
    column_names: tuple
    gradient_norm: float
    separating_columns: tuple = ()  # names; empty unless the MLE does not exist
    penalized_objective: float | None = None
    notes: tuple = ()

    @property
    def separation(self) -> bool:
        return bool(self.separating_columns)

    @property
    def z_scores(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.coefficients / self.std_errors

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.column_names.index(name)])

    def to_dict(self) -> dict:
        z = self.z_scores
        return {
            "columns": list(self.column_names),
            "coefficients": [float(v) for v in self.coefficients],
            "std_errors": [None if not np.isfinite(v) else float(v)
                           for v in self.std_errors],
            "z_scores": [None if not np.isfinite(v) else float(v) for v in z],
            "log_likelihood": self.log_likelihood,
            "deviance": self.deviance,
            "bic": self.bic,
            "aic": self.aic,
            "n_obs": self.n_obs,
            "penalized_objective": self.penalized_objective,
            "convergence": {
                "converged": self.converged,
                "iterations": self.iterations,
                "gradient_norm": self.gradient_norm,
                "separation": self.separation,
                "notes": list(self.notes),
            },
            "prior": self.prior.to_dict(),
        }


# ---------------------------------------------------------------------------
# objective pieces
# ---------------------------------------------------------------------------

def _data_loglik(eta: np.ndarray, y: np.ndarray, trials: np.ndarray) -> float:
    return float((trials * y) @ eta - trials @ np.logaddexp(0.0, eta))


def _information_criteria(deviance: float, p: int, n: int):
    """(BIC, AIC) = deviance plus p*log(n) or 2p; prior term excluded."""
    bic = deviance + p * math.log(n) if n > 0 else deviance
    return bic, deviance + 2.0 * p


def _prior_log_const(scales, dfs) -> np.ndarray:
    """Per-coefficient log normalizing constants of the t prior."""
    from scipy.special import gammaln

    return (
        gammaln((dfs + 1) / 2.0)
        - gammaln(dfs / 2.0)
        - 0.5 * np.log(dfs * math.pi)
        - np.log(scales)
    )


def _prior_logpdf(theta, centers, scales, dfs, const) -> float:
    z2 = ((theta - centers) / scales) ** 2
    return float(np.sum(const - (dfs + 1) / 2.0 * np.log1p(z2 / dfs)))


def _prior_grad(theta, centers, scales, dfs) -> np.ndarray:
    d = theta - centers
    return -(dfs + 1) * d / (dfs * scales**2 + d**2)


def _prior_precision_em(theta, centers, scales, dfs) -> np.ndarray:
    # E[1/sigma^2] under the scale-mixture posterior at the current theta
    d = theta - centers
    return (dfs + 1) / (dfs * scales**2 + d**2)


def _prior_curvature(theta, centers, scales, dfs) -> np.ndarray:
    d2 = (theta - centers) ** 2
    s2 = dfs * scales**2
    return (dfs + 1) * (s2 - d2) / (s2 + d2) ** 2


@functools.cache
def _lapack(name: str):
    """LAPACK's float64 routine ``name``.  The solver calls the Cholesky
    factor and solve, potrf and potrs, that scipy.linalg.cho_factor and
    cho_solve wrap: the same bits, without the wrappers' argument handling,
    which costs more than the solve itself on the solver's systems of a few
    dozen columns."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(name, (np.empty((0, 0)),))


def _cholesky(H: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of H, as ``cho_factor(H, lower=True)`` gives
    it: ValueError when H holds an inf or NaN, LinAlgError when H is not
    positive definite."""
    c, info = _lapack("potrf")(np.asarray_chkfinite(H), lower=1, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def _solve_spd(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """H⁻¹g by Cholesky, of H itself first and, while H is not positive
    definite, of H + jitter * I for a growing jitter; least squares last.
    H is never written."""
    jitter = 0.0
    for _ in range(8):
        try:
            c = _cholesky(H + jitter * np.eye(H.shape[0]) if jitter else H)
        except LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 100.0
            continue
        return _lapack("potrs")(c, np.asarray_chkfinite(g), lower=1)[0]
    return np.linalg.lstsq(H, g, rcond=None)[0]


def _spd_inverse_diag(H: np.ndarray):
    """Diagonal of H^-1 if H is positive definite, else None."""
    if not H.size:  # no active column
        return np.zeros(0)
    try:
        c = _cholesky(H)
    except LinAlgError:
        return None
    d = np.diag(_lapack("potrs")(c, np.eye(H.shape[0]), lower=1)[0])
    if np.any(d <= 0):
        return None
    return d


# Most within-row pairs of entries that X'WX keeps between products, at 32
# bytes a pair; a design with more rebuilds them per product, in blocks of
# rows holding at most this many (or one row).
ENTRY_PAIR_BUDGET = 1 << 20


def _sums(index, values, size) -> np.ndarray:
    """The ``values`` summed by ``index`` in order, as floats (an empty
    ``np.bincount`` counts in integers)."""
    return np.bincount(index, values, size).astype(float, copy=False)


class _Rows:
    """The rows of a CSR on its ``active`` columns, as plain arrays, and the
    three products the Newton loop needs: X @ theta, X'v and X'WX.

    ``row``, ``col`` and ``data`` list the stored entries in CSR order, and
    X'WX sums over the pairs of entries of each row.  Each product adds its
    terms into an output element in row order, starting from 0.0, with
    the same floating-point products as ``X @ theta``, ``X.T @ v`` and
    ``(X.T @ X.multiply(w[:, None])).toarray()`` on the sliced CSR, so the
    floats are those of scipy.sparse; at the sizes of a design's patterns
    they come without its per-call overhead.
    """

    def __init__(self, features: sp.csr_matrix, active: np.ndarray):
        n, p = features.shape[0], len(active)
        where = np.full(features.shape[1], -1)
        where[active] = np.arange(p)
        col = where[features.indices]
        keep = col >= 0
        self.shape = (n, p)
        self.row = np.repeat(np.arange(n), np.diff(features.indptr))[keep]
        self.col, self.data = col[keep], features.data[keep]
        length = np.bincount(self.row, minlength=n)
        self._first = np.cumsum(length) - length
        self._length = length
        ends = np.cumsum(length * length)
        cuts = [0]
        while cuts[-1] < n:
            lo = cuts[-1]
            limit = (ends[lo - 1] if lo else 0) + ENTRY_PAIR_BUDGET
            cuts.append(max(lo + 1, int(np.searchsorted(ends, limit, "right"))))
        self._blocks = list(zip(cuts[:-1], cuts[1:]))
        self._pairs = [self._block_pairs(*self._blocks[0])] if len(self._blocks) == 1 else None

    def _block_pairs(self, lo, hi):
        """(key, left, right, row) of every ordered pair of entries within
        rows lo..hi-1, row by row: the pair's output element, its two
        values and its row."""
        first, length = self._first, self._length
        e = np.arange(first[lo], first[hi - 1] + length[hi - 1])
        r = self.row[e]
        k1 = e.repeat(length[r])
        k2 = _ranges(first[r], length[r])
        return (self.col[k1] * self.shape[1] + self.col[k2], self.data[k1],
                self.data[k2], self.row[k2])

    def dot(self, theta: np.ndarray) -> np.ndarray:
        """X @ theta."""
        return _sums(self.row, self.data * theta[self.col], self.shape[0])

    def rdot(self, v: np.ndarray) -> np.ndarray:
        """X'v."""
        return _sums(self.col, self.data * v[self.row], self.shape[1])

    def xtwx(self, w: np.ndarray) -> np.ndarray:
        """X'WX for row weights ``w``, dense."""
        p = self.shape[1]
        out = np.zeros(p * p)
        # np.add.at adds in order, continuing from out: blocks of rows give
        # the sums of one pass over all of them
        for key, left, right, row in self._pairs or (
                self._block_pairs(lo, hi) for lo, hi in self._blocks):
            np.add.at(out, key, left * (right * w[row]))
        return out.reshape(p, p)


def _separating_columns(X, y, trials) -> np.ndarray:
    """The columns that diverge when the rows of X with 0/1 responses ``y``
    are separated, or none when the maximum likelihood estimate exists.

    Konis's (2007) linear-programming test: the MLE is infinite iff some
    beta has (2y - 1) x beta >= 0 on every row and > 0 on at least one
    (Albert & Anderson 1984).  The program maximizes the ``trials``-weighted
    sum of (2y - 1) x beta subject to those signs and -1 <= beta <= 1, on
    columns scaled to unit max-norm; it is 0 unless the data are separated.
    The support of the one direction it returns can leave out columns that
    diverge too, so a separated design then also names every column that is
    nonzero in some direction of the same cone and box: one program
    maximizes, and one minimizes, each column not yet named.  Given one
    separating direction, any direction of the cone plus a small multiple of
    it separates, so these are the columns of some separating direction
    (collinear columns included).  A feature row seen with both responses
    is two rows, bounding beta both ways.
    """
    # imported here: scipy.optimize costs about 0.26 s, and only fits
    # without a prior ask for the test
    import scipy.sparse as sp
    from scipy.optimize import linprog

    A = sp.csr_matrix(X.multiply((2.0 * np.asarray(y, dtype=float) - 1.0)[:, None]))
    A = A @ sp.diags(1.0 / abs(A).max(axis=0).toarray().ravel())
    cone = {"A_ub": -A, "b_ub": np.zeros(A.shape[0]), "bounds": (-1, 1), "method": "highs"}

    def solve(cost):
        res = linprog(cost, **cone)
        if res.status != 0:
            raise RuntimeError(f"separation test failed: {res.message}")
        return res.x

    beta = solve(-(A.T @ trials))
    # HiGHS meets the sign constraints to about 1e-7; a margin that small is
    # its tolerance, not a separation
    if (A @ beta).max(initial=0.0) <= 1e-6:
        return np.empty(0, dtype=np.int64)
    named = np.abs(beta) > 1e-6
    for c in range(A.shape[1]):
        for sign in (-1.0, 1.0):  # maximize the column, then minimize it
            if not named[c]:
                named |= np.abs(solve(np.eye(1, A.shape[1], c).ravel() * sign)) > 1e-6
    return np.flatnonzero(named)


# ---------------------------------------------------------------------------
# core engine
# ---------------------------------------------------------------------------

def _maximize(X: _Rows, y, trials, prior_arrays, tolerance, max_iter):
    """Damped Newton ascent of the (penalized) binomial log-likelihood of
    ``trials`` Bernoulli rows with response ``y`` at each row of X.

    Returns (theta, info dict) on the active columns of X.
    """
    from scipy.special import expit

    theta = np.zeros(X.shape[1])
    use_prior = prior_arrays is not None
    if use_prior:
        centers, scales, dfs, const = prior_arrays

    def objective(th):
        val = _data_loglik(X.dot(th), y, trials)
        if use_prior:
            val += _prior_logpdf(th, centers, scales, dfs, const)
        return val

    def gradient(th, mu=None):
        if mu is None:
            mu = expit(X.dot(th))
        # y - mu before the weighting: exact for mu near 1, where s - m*mu
        # would cancel
        g = X.rdot(trials * (y - mu))
        if use_prior:
            g = g + _prior_grad(th, centers, scales, dfs)
        return g

    obj = objective(theta)
    iterations = 0
    converged = False
    gnorm = math.inf

    while iterations < max_iter:
        mu = expit(X.dot(theta))
        g = gradient(theta, mu)
        gnorm = float(np.abs(g).max(initial=0.0))
        if gnorm <= tolerance:
            converged = True
            break
        iterations += 1
        w = trials * (mu * (1.0 - mu) + 1e-12)
        H = X.xtwx(w)
        if use_prior:
            # EM step far out (surrogate precision is always PD); exact
            # penalized curvature near the mode for a fast tail
            curv = None
            if gnorm < 1e-3:
                curv = _prior_curvature(theta, centers, scales, dfs)
                if np.any(H.diagonal() + curv <= 0):
                    curv = None
            if curv is None:
                curv = _prior_precision_em(theta, centers, scales, dfs)
            H = H + np.diag(curv)
        step = _solve_spd(H, g)

        # Armijo backtracking with a float-noise floor: near the optimum the
        # true gain shrinks below the resolution of the objective, and the
        # (ascent) Newton step must still be accepted for the gradient test
        # to certify convergence.
        gain = float(g @ step)
        noise = 1e-10 * max(1.0, abs(obj))
        lam = 1.0
        while lam > 1e-10:
            cand = theta + lam * step
            cand_obj = objective(cand)
            if cand_obj >= obj + 1e-4 * lam * gain - noise:
                break
            lam *= 0.5
        else:
            break  # no ascent possible; report non-convergence
        theta = theta + lam * step
        obj = cand_obj

    if not converged:
        gnorm = float(np.abs(gradient(theta)).max(initial=0.0))

    return theta, {
        "converged": converged,
        "iterations": iterations,
        "gradient_norm": gnorm,
        "objective": obj,
    }


def _finalize(dm: DesignMatrix, X: _Rows, y, trials, theta_active, active, info,
              prior: PriorSpec, prior_arrays, notes, separating):
    """FitResult on all columns of ``dm`` from the optimum on the active
    columns ``X`` of its patterns (inactive coefficients stay 0, their SEs
    NaN).  BIC's n is the number of trials, the design's rows."""
    from scipy.special import expit

    p = dm.n_cols
    theta = np.zeros(p)
    theta[active] = theta_active
    eta = X.dot(theta_active)
    mu = expit(eta)
    ll = _data_loglik(eta, y, trials)
    deviance = -2.0 * ll
    n_obs = dm.n_rows
    bic, aic = _information_criteria(deviance, p, n_obs)

    # uncertainty from the curvature of the fitted objective at the optimum
    H = X.xtwx(trials * mu * (1.0 - mu))
    penalized = None
    if prior_arrays is not None:
        centers, scales, dfs, const = prior_arrays
        penalized = ll + _prior_logpdf(theta_active, centers, scales, dfs, const)
        curv = _prior_curvature(theta_active, centers, scales, dfs)
        d = _spd_inverse_diag(H + np.diag(curv))
        if d is None:
            # exact penalized curvature not PD here; EM surrogate is
            d = _spd_inverse_diag(
                H + np.diag(_prior_precision_em(theta_active, centers, scales, dfs))
            )
            notes = notes + ("std errors use the scale-mixture surrogate curvature",)
    else:
        d = _spd_inverse_diag(H)
    se = np.full(p, np.nan)
    if d is not None:
        se[active] = np.sqrt(d)
    else:
        notes = notes + ("information matrix singular at optimum; no std errors",)

    return FitResult(
        coefficients=theta,
        std_errors=se,
        log_likelihood=ll,
        deviance=deviance,
        bic=bic,
        aic=aic,
        n_obs=n_obs,
        converged=info["converged"],
        iterations=info["iterations"],
        prior=prior,
        column_names=tuple(dm.column_names),
        gradient_norm=info["gradient_norm"],
        separating_columns=separating,
        penalized_objective=penalized,
        notes=notes,
    )


def fit_mle(dm: DesignMatrix, tolerance: float = 1e-8,
            max_iter: int = 100) -> FitResult:
    """Maximum likelihood fit.  Separation is detected before the ascent
    (see ``_separating_columns``) and flagged rather than raised; the fit is
    then not converged, and its estimates are extreme and untrustworthy."""
    return fit_posterior_mode(dm, PriorSpec.none(), tolerance, max_iter)


def fit_posterior_mode(dm: DesignMatrix, prior: PriorSpec | None = None,
                       tolerance: float = 1e-8, max_iter: int = 100) -> FitResult:
    """Posterior mode under independent Student-t priors.

    Finite for any design, including completely separated ones.  With
    ``prior.kind == 'none'`` this is :func:`fit_mle`.
    """
    if prior is None:
        prior = PriorSpec()
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a positive finite number, got {tolerance}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if dm.n_rows == 0:
        raise ValueError("cannot fit an empty design")
    patterns = dm.patterns
    features = patterns.features
    # counted by value: an explicitly stored 0.0 does not make a column active
    nonzero = np.bincount(features.indices[features.data != 0], minlength=dm.n_cols)
    active = np.flatnonzero(nonzero)
    notes = ()
    if len(active) < dm.n_cols:
        dead = [dm.column_names[c] for c in np.flatnonzero(nonzero == 0)]
        notes = (f"all-zero columns pinned at 0: {', '.join(dead)}",)
    arrays = None
    if prior.kind != "none":
        centers, scales, dfs = (a[active] for a in prior.resolve(dm.column_names))
        arrays = (centers, scales, dfs, _prior_log_const(scales, dfs))
    X = _Rows(features, active)
    y, m = patterns.responses, patterns.trials
    separating = ()
    if prior.kind == "none" and len(active):  # no columns, nothing to separate along
        found = _separating_columns(features[:, active], y, m)
        separating = tuple(dm.column_names[c] for c in active[found])
    theta, info = _maximize(X, y, m, arrays, tolerance, max_iter)
    if separating:
        info["converged"] = False
        notes = notes + ("separation: no finite maximum likelihood estimate along "
                         + ", ".join(separating),)
    elif not info["converged"]:
        notes = notes + (f"no convergence in {max_iter} iterations",)
    return _finalize(dm, X, y, m, theta, active, info, prior, arrays, notes, separating)


def block_summaries(dm: DesignMatrix, coefficients: np.ndarray) -> dict:
    """Data-likelihood summaries of the vertex and edge blocks of a design
    at fixed coefficients, keyed "vertex" and "edge"; a block without rows
    is left out.  Block diagonality makes each block's linear predictor a
    slice of the joint one, so the block deviances sum to the joint deviance.
    Each block's ``n_obs`` counts its rows."""
    coefficients = np.asarray(coefficients, dtype=float)
    if dm.n_cols != len(coefficients):
        raise ValueError("coefficient length does not match design")
    patterns = dm.patterns
    eta = patterns.features @ coefficients
    nv, kv = dm.n_vertex_rows, dm.n_vertex_terms
    pv = patterns.n_vertex_patterns
    parts = {}
    for name, n_obs, pats, cols in (
            ("vertex", nv, slice(0, pv), slice(0, kv)),
            ("edge", dm.n_rows - nv, slice(pv, len(eta)), slice(kv, dm.n_cols))):
        if n_obs == 0:
            continue
        ll = _data_loglik(eta[pats], patterns.responses[pats], patterns.trials[pats])
        deviance = -2.0 * ll
        bic, aic = _information_criteria(deviance, cols.stop - cols.start, n_obs)
        parts[name] = {
            "columns": list(dm.column_names[cols]),
            "coefficients": [float(v) for v in coefficients[cols]],
            "log_likelihood": ll,
            "deviance": deviance,
            "bic": bic,
            "aic": aic,
            "n_obs": n_obs,
        }
    return parts
