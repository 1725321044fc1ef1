"""Forward simulation under the fitted model and index-based adequacy checks.

Prediction of a step samples the vertex set first (independent Bernoulli
draws from the vertex model) and then, conditional on the sampled vertices,
the edges (independent Bernoulli draws from the edge model).  Repeating
this per observed transition gives simulation intervals for graph-level
indices; chaining it forward gives n-step projections in which sampled
snapshots feed later lag terms.

Randomness is keyed by (seed, replicate, step), so reports are identical
across runs and scheduling orders.  Each key's generator is numpy's
``default_rng(SeedSequence(seed, spawn_key=(replicate, step - base)))``;
the seeding of every key of a command is hashed in one vectorized pass
(``_seed_words``), and each generator is built just before its draw.

Edge probabilities cost per class, not per dyad: a sampled dyad that is
not a lagged tie has the probability of its draw and its pair of endpoint
classes.  ``StepSampler`` draws by position in the design's ``_DyadLayout``:
the edge terms are evaluated on the ties and one representative per class
pair, and only the kept positions are decoded to edges.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .design import _DyadLayout, _endpoint_classes, _lagged_codes
from .gli import GLI_NAMES, gli_matrix, gli_vector
from .panel import NetworkPanel, RiskSet, Snapshot, disjoint_union, split_draws
from .solver import FitResult
from .terms import (
    GapError,
    History,
    ModelSpec,
    SpecError,
    WEEKDAYS,
    edge_term_values,
    usable_transitions,
    vertex_term_values,
)

__all__ = [
    "SimConfig",
    "GliSampleSet",
    "AdequacyReport",
    "ProjectionResult",
    "StepSampler",
    "one_step_sample",
    "one_step_intervals",
    "project",
    "classify_threshold",
    "generate_panel",
    "weekday_attrs",
    "interval_indices",
]


@dataclass(frozen=True)
class SimConfig:
    """Settings for simulation-based prediction and adequacy checks."""

    replicates: int = 100
    alpha: float = 0.95
    horizon: int = 1
    seed: int = 0
    mode: str = "stochastic"  # or "threshold50"
    fixed_vertex_set: bool = False

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.mode not in ("stochastic", "threshold50"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class GliSampleSet:
    """Simulated index draws per step: draws[s, r, g] for step s, replicate r."""

    steps: tuple
    draws: np.ndarray
    observed: np.ndarray | None
    names: tuple = GLI_NAMES


@dataclass(frozen=True)
class AdequacyReport:
    """Central simulation intervals per index and step, with coverage counts."""

    names: tuple
    steps: tuple
    lower: np.ndarray
    upper: np.ndarray
    observed: np.ndarray
    inside: np.ndarray
    alpha: float
    replicates: int
    notes: tuple = ()

    @property
    def covered(self) -> np.ndarray:
        return self.inside.sum(axis=0)

    @property
    def total(self) -> int:
        return len(self.steps)

    def to_dict(self) -> dict:
        out = {}
        cov = self.covered
        for g, name in enumerate(self.names):
            out[name] = {
                "steps": [
                    {
                        "step": int(s),
                        "lower": float(self.lower[k, g]),
                        "upper": float(self.upper[k, g]),
                        "observed": float(self.observed[k, g]),
                        "inside": bool(self.inside[k, g]),
                    }
                    for k, s in enumerate(self.steps)
                ],
                "summary": {"covered": int(cov[g]), "total": self.total},
            }
        return {
            "alpha": self.alpha,
            "replicates": self.replicates,
            "glis": out,
            "notes": list(self.notes),
        }

    def csv_rows(self):
        yield ("step", "gli", "lower", "upper", "observed", "inside")
        for k, s in enumerate(self.steps):
            for g, name in enumerate(self.names):
                yield (int(s), name, float(self.lower[k, g]), float(self.upper[k, g]),
                       float(self.observed[k, g]), int(self.inside[k, g]))


@dataclass(frozen=True)
class ProjectionResult:
    """GLI paths of n-step-ahead trajectories and the drawn snapshots."""

    steps: tuple
    gli_paths: np.ndarray  # (replicates, horizon, n_glis)
    unions: tuple  # per step: one Snapshot holding every replicate's draw
    names: tuple = GLI_NAMES

    @cached_property
    def snapshots(self) -> tuple:
        """Per replicate: its Snapshot at each step, cut from the unions."""
        return tuple(zip(*(split_draws(union) for union in self.unions)))


# ---------------------------------------------------------------------------
# history and randomness
# ---------------------------------------------------------------------------

def weekday_attrs(t: int, offset: int = 0) -> dict:
    """Day-of-week attribute map for synthetic timelines."""
    return {"day": WEEKDAYS[(t + offset) % 7]}


def _weekday_attrs_fn(panel: NetworkPanel):
    """Time attributes of unobserved steps, extrapolated from the panel's
    weekly day cycle; None when the panel has no such cycle."""
    offset = None
    for snap in panel.snapshots:
        day = snap.time_attrs.get("day")
        if day is None or day not in WEEKDAYS:
            return None
        o = (WEEKDAYS.index(day) - snap.t) % 7
        if offset is None:
            offset = o
        elif o != offset:
            return None
    return None if offset is None else partial(weekday_attrs, offset=offset)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, after
# Melissa O'Neill's seed_seq); all arithmetic on them wraps modulo 2**32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: each call xors in the running
    constant, advances it by ``mult`` and multiplies by the new one."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _WORD
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> 16)


def _seed_words(seed: int, keys) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)`` for
    every ``(replicate, step - base)`` key along the last axis of ``keys``.

    numpy's mixing, run on all keys at once: the seed's 32-bit words, least
    significant first and zero-padded to the pool of 4, then the two key
    words, are hashed into the pool, which is then hashed out into 8 words.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    keys = np.asarray(keys, dtype=np.int64)
    bad = np.any((keys < 0) | (keys > _WORD), axis=-1)
    if bad.any():
        replicate, offset = keys[bad][0].tolist()
        raise ValueError(f"stream key (replicate {replicate}, step offset {offset}) "
                         "is outside [0, 2**32)")
    shape = keys.shape[:-1]
    entropy = []
    while True:
        entropy.append(np.full(shape, seed & _WORD, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy += [np.zeros(shape, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    entropy += [keys[..., 0].astype(np.uint32), keys[..., 1].astype(np.uint32)]

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[d % _POOL_SIZE]) for d in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is already derived: the 4 uint64 words
    PCG64 asks for, its only caller."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words) -> np.random.Generator:
    """The generator seeded by one row of ``_seed_words``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _step_keys(steps, replicates: int, base: int) -> np.ndarray:
    """The (replicate, step - base) stream keys, one row of replicates per step."""
    keys = np.empty((len(steps), replicates, 2), dtype=np.int64)
    keys[..., 0] = np.arange(replicates)
    keys[..., 1] = (np.asarray(steps, dtype=np.int64) - base)[:, None]
    return keys


# ---------------------------------------------------------------------------
# per-step prediction
# ---------------------------------------------------------------------------

def _split_theta(fit: FitResult, spec: ModelSpec):
    if tuple(fit.column_names) != spec.column_names:
        raise ValueError(
            "fit columns do not match the model spec: "
            f"{list(fit.column_names)} vs {list(spec.column_names)}"
        )
    kv = len(spec.vertex_terms)
    return fit.coefficients[:kv], fit.coefficients[kv:]


# The largest x whose exp(x) is finite: log of the largest float.
_EXP_MAX = math.log(sys.float_info.max)


def expit(x) -> np.ndarray:
    """1 / (1 + e^-x) elementwise, bit for bit as ``scipy.special.expit``
    gives it, in numpy and the standard library (simulation loads no scipy).

    e^-x comes from the C library's ``exp`` through ``math.exp``, one value
    at a time: numpy's vectorized ``exp`` rounds some values differently.
    Where it would overflow, e^-x is inf and the result 0.0, with no
    warning.  The shape of ``x`` is kept.
    """
    x = np.asarray(x, dtype=float)
    neg = -x.ravel()
    over = neg > _EXP_MAX
    e = np.fromiter(map(math.exp, np.where(over, 0.0, neg).tolist()), float, neg.size)
    e[over] = np.inf
    return (1.0 / (1.0 + e)).reshape(x.shape)


# Most dyads one union of draws holds; a draw with more is a union of its own.
# A dyad holds a uniform, a probability and, where the draws' vertex sets differ,
# a class pair: a full union peaks near 4.3 MB (tracemalloc; 2.2 MB on one set).
PAIR_BUDGET = 1 << 17


def _uniforms(rngs, counts) -> np.ndarray:
    """counts[r] uniforms from each generator rngs[r], one after another."""
    out = np.empty(int(counts.sum()))
    pos = 0
    for rng, count in zip(rngs, counts.tolist()):
        rng.random(out=out[pos:pos + count])
        pos += count
    return out


class StepSampler:
    """Draws snapshots at step ``t``, one per draw of the history; draw r
    reads the lags of history draw r.

    A draw takes the vertex set from the vertex model, then the edges among
    the drawn vertices from the edge model, in that order from its
    generator: ``random(n)`` for the vertices, then ``random(#dyads)`` for
    the dyads in row-major order.  Under ``threshold`` both are the
    50-percent rule (ties are absent) and no generator is read.  The vertex
    probabilities ``pv`` are one row that every draw shares, or one row per
    draw when a vertex term reads drawn lags.

    The edges are drawn by position in the ``_DyadLayout`` of the drawn
    vertex sets (``classes`` are computed here when not given).  The edge
    terms are evaluated once per step on one representative per (draw,
    class pair) and on the lagged ties (per union on drawn lags); η is
    summed in spec order, and each dyad gets its class pair's or its tie's
    probability, the same float it would get on its own.
    """

    def __init__(self, spec: ModelSpec, theta_v, theta_e, history: History, t: int,
                 *, threshold: bool = False, fixed_vertex_set: bool = False,
                 classes=None):
        self.spec, self.theta_e, self.history, self.t = spec, theta_e, history, t
        self.threshold = threshold
        self.n = n = len(history.risk_set)
        self.pv = self.bits = None
        if fixed_vertex_set:
            self.bits = np.ones((1, n), dtype=bool)
        else:
            if not spec.vertex_terms:
                raise SpecError(
                    "model has no vertex terms; simulate with fixed_vertex_set instead"
                )
            eta = np.zeros((1, n))
            for theta, term in zip(theta_v, spec.vertex_terms):
                eta = eta + theta * vertex_term_values(term, history, t).reshape(-1, n)
            self.pv = expit(eta)
            if threshold:
                self.bits = self.pv > 0.5
        self.classes = (_endpoint_classes(history.risk_set, spec.edge_terms)
                        if classes is None else classes)
        self.lagged = _lagged_codes(history, t, spec.edge_terms)
        self.attrs = history.time_attrs_at(t) or {}

    def _tie_probs(self, a, b, bits):
        """Edge probabilities of ``ties`` a..b-1, lag-scope terms evaluated."""
        _, pairs, tie_i, tie_j = self.ties
        terms = self.pair_terms[:, pairs[a:b]]
        for row, theta, term in zip(terms[1:], self.theta_e, self.spec.edge_terms):
            if term.scope == "lag":
                row[:] = theta * edge_term_values(term, self.history, self.t, tie_i[a:b],
                                                  tie_j[a:b], bits.ravel())
        return expit(np.cumsum(terms, axis=0)[-1])

    def draw(self, rng=None) -> Snapshot:
        """The draw of a history of one draw; the batch of one of ``draw_all``."""
        return next(self.draw_all([rng]))

    def draw_all(self, rngs):
        """One draw per history draw, draw r from generator rngs[r], yielded
        in order as union snapshots.

        A union is a snapshot of consecutive draws side by side (its
        ``draws``), vertex r * n + i being vertex i of its r-th draw, and
        holds as many draws as fit in PAIR_BUDGET dyads, at least one.  Every
        vertex set is drawn before any edge; draws that all have one share it.
        """
        n, count = self.n, len(rngs)
        if count != self.history.draws:
            raise ValueError(f"a history of {self.history.draws} draw(s) is drawn with as "
                             f"many generators, not {count}")
        if self.bits is not None:
            bits = np.broadcast_to(self.bits, (count, n))
        else:
            uniforms = np.empty((count, n))
            for rng, row in zip(rngs, uniforms):
                rng.random(out=row)
            bits = uniforms < self.pv
        sets = bits[:1] if (bits == bits[0]).all() else bits
        self.dyads = layout = _DyadLayout(sets, self.classes)
        # 0.0, then θ times each edge term on the class pairs (lag scope: 0.0)
        rep_i, rep_j = layout.reps
        self.pair_terms = terms = np.zeros((1 + len(self.spec.edge_terms), len(rep_i)))
        if len(rep_i):  # never evaluated on no dyads: log_size would take the log of 0
            for row, theta, term in zip(terms[1:], self.theta_e, self.spec.edge_terms):
                row[:] = theta * (0.0 if term.scope == "lag" else edge_term_values(
                    term, self.history, self.t, rep_i, rep_j, sets.ravel()))
        self.pair_probs = expit(np.cumsum(terms, axis=0)[-1])
        ties = self.lagged[layout.among(self.lagged)]
        self.ties = (layout.position(ties), layout.pair_of(ties), *layout.split(ties))
        # ties on lag snapshots of one draw are evaluated for all draws at
        # once; on drawn lags per union, as the cycle statistic checks its
        # work budget per call and a refusal names the draw it stopped at
        self.tie_probs = self._tie_probs(0, len(ties), bits) if len(rep_i) and all(
            self.history.lagged(self.t, term.lag).draws == 1
            for term in self.spec.edge_terms if term.scope == "lag") else None
        counts = np.resize(layout.counts, count)  # draw r has set r % len(sets)
        ends = np.cumsum(counts)
        lo = 0
        while lo < count:
            limit = (ends[lo - 1] if lo else 0) + PAIR_BUDGET
            hi = max(lo + 1, int(np.searchsorted(ends, limit, "right")))
            yield self._union(bits, lo, hi, rngs[lo:hi], counts[lo:hi])
            lo = hi

    def _union(self, bits, lo, hi, rngs, counts) -> Snapshot:
        """Draws lo..hi-1 of the vertex sets ``bits`` as one union.  A lagged
        tie takes its own lag-scope terms and its class pair's others; under
        ``threshold`` every uniform is 0.5.  The kept codes are sorted,
        unique and join present vertices of one draw, so ``Snapshot`` takes
        them on its trusted path."""
        layout = self.dyads
        uniforms = (np.full(int(counts.sum()), 0.5) if self.threshold else
                    _uniforms(rngs, counts))
        probs = layout.gather(self.pair_probs, lo, hi)
        keep = uniforms.reshape(probs.shape) < probs
        first, positions = layout.first(lo), self.ties[0]
        a, b = np.searchsorted(positions, [first, first + keep.size]).tolist()
        at = positions[a:b] - first
        p = self._tie_probs(a, b, bits) if self.tie_probs is None else self.tie_probs[a:b]
        keep.reshape(-1)[at] = uniforms[at] < p
        return Snapshot(self.t, bits[lo:hi].ravel(), layout.kept(keep, lo, hi), self.attrs,
                        draws=hi - lo, _trusted=True)


def _observed_step(fit, spec, panel, t, **kwargs) -> StepSampler:
    theta_v, theta_e = _split_theta(fit, spec)
    history = History(panel, spec.gap_policy, _weekday_attrs_fn(panel))
    return StepSampler(spec, theta_v, theta_e, history, t + 1, **kwargs)


def one_step_sample(fit: FitResult, spec: ModelSpec, panel: NetworkPanel,
                    t: int, rng_stream) -> Snapshot:
    """Sample one predicted snapshot for time t+1 from observed history."""
    return _observed_step(fit, spec, panel, t).draw(rng_stream)


def classify_threshold(fit: FitResult, spec: ModelSpec, panel: NetworkPanel,
                       t: int) -> Snapshot:
    """Deterministic 50-percent-rule prediction of time t+1 (ties -> absent)."""
    return _observed_step(fit, spec, panel, t, threshold=True).draw()


# ---------------------------------------------------------------------------
# one-step intervals and coverage
# ---------------------------------------------------------------------------

def interval_indices(m: int, alpha: float):
    """0-based order-statistic positions of the central alpha interval.

    The tiny offsets keep floor/ceil stable when (1 +- alpha)/2 * m lands on
    an integer that floating point represents a hair off.
    """
    lo = math.floor((1.0 - alpha) / 2.0 * m + 1e-9) + 1
    hi = math.ceil((1.0 + alpha) / 2.0 * m - 1e-9)
    return max(lo, 1) - 1, min(hi, m) - 1


def one_step_intervals(fit: FitResult, spec: ModelSpec, panel: NetworkPanel,
                       config: SimConfig):
    """Simulate every one-step prediction and summarize index coverage.

    The replicates are the draws of one history, as in ``project``, whose
    observed lags they share.  Every predictable step (full lag window
    observed, target observed) gets one sampler that draws all of them at
    once, as union snapshots whose indices come out one row per replicate;
    replicate r still draws from its own (seed, r, step) generator.  Every
    key is hashed in one pass, and a step's generators are built just
    before it is drawn.  Under ``threshold50`` the draw is deterministic,
    so a history of one draw stands for all replicates.
    """
    theta_v, theta_e = _split_theta(fit, spec)
    m = config.replicates
    threshold = config.mode == "threshold50"
    history = History(panel, spec.gap_policy, _weekday_attrs_fn(panel),
                      draws=1 if threshold else m)
    steps = usable_transitions(history, spec.max_lag)
    if not steps:
        raise GapError("no predictable steps: every lag window crosses a gap")
    n_g = len(GLI_NAMES)
    base = panel.t_min

    classes = _endpoint_classes(panel.risk_set, spec.edge_terms)
    words = None if threshold else _seed_words(config.seed, _step_keys(steps, m, base))
    draws = np.empty((len(steps), m, n_g))
    observed = np.empty((len(steps), n_g))
    for k, s in enumerate(steps):
        sampler = StepSampler(spec, theta_v, theta_e, history, s, threshold=threshold,
                              fixed_vertex_set=config.fixed_vertex_set, classes=classes)
        if threshold:  # reads no generator, so every replicate draws this snapshot
            draws[k] = gli_vector(sampler.draw())
        else:
            rngs = [_generator(w) for w in words[k]]
            row = 0
            for union in sampler.draw_all(rngs):
                draws[k, row:row + union.draws] = gli_matrix(union)
                row += union.draws
        observed[k] = gli_vector(panel.at(s))
    small_draws = int(np.count_nonzero(draws[:, :, 0] < 3))

    lo_idx, hi_idx = interval_indices(m, config.alpha)
    ordered = np.sort(draws, axis=1)
    lower = ordered[:, lo_idx, :]
    upper = ordered[:, hi_idx, :]
    inside = (lower <= observed) & (observed <= upper)

    notes = ()
    if small_draws:
        notes = (
            f"{small_draws} simulated day(s) had fewer than 3 vertices; "
            "degenerate-size index conventions applied",
        )
    sample_set = GliSampleSet(steps=tuple(steps), draws=draws, observed=observed)
    report = AdequacyReport(
        names=GLI_NAMES, steps=tuple(steps), lower=lower, upper=upper,
        observed=observed, inside=inside, alpha=config.alpha, replicates=m,
        notes=notes,
    )
    return sample_set, report


# ---------------------------------------------------------------------------
# n-step projection
# ---------------------------------------------------------------------------

def project(fit: FitResult, spec: ModelSpec, panel: NetworkPanel,
            config: SimConfig) -> ProjectionResult:
    """Autoregressive projection past the end of the panel.

    Lags reaching back before the projection start read observed snapshots;
    later lags read the replicate's own sampled snapshots.  The replicates
    advance in lockstep on one history of ``config.replicates`` draws: each
    step's sampler draws every replicate at once, as ``one_step_intervals``
    does, and the step's union of draws is what later lags read (replicate
    r's draw being draw r), while an observed snapshot is shared by every
    replicate.  Replicate r still draws step s from its own (seed, r, s)
    generator, all of them hashed in one pass and each step's built just
    before its draw.  The indices come from one ``gli_matrix`` call on the
    union of every step's draws; the result cuts the unions into each
    replicate's snapshots when they are read.
    """
    theta_v, theta_e = _split_theta(fit, spec)
    if not panel.snapshots:
        raise ValueError("cannot project from an empty panel")
    start = panel.observed_times[-1] + 1
    if start + config.horizon > 2**63:
        raise ValueError(f"a horizon of {config.horizon} step(s) from t={start - 1} passes "
                         f"the largest 64-bit time index {2**63 - 1}")
    steps = tuple(range(start, start + config.horizon))
    m = config.replicates
    threshold = config.mode == "threshold50"
    classes = _endpoint_classes(panel.risk_set, spec.edge_terms)
    words = _seed_words(config.seed, _step_keys(steps, m, panel.t_min))

    history = History(panel, spec.gap_policy, _weekday_attrs_fn(panel), draws=m)
    for h, target in enumerate(steps):
        sampler = StepSampler(spec, theta_v, theta_e, history, target, threshold=threshold,
                              fixed_vertex_set=config.fixed_vertex_set, classes=classes)
        unions = list(sampler.draw_all([_generator(w) for w in words[h]]))
        history.add(unions[0] if len(unions) == 1 else disjoint_union(unions))
    drawn = tuple(history.added[t] for t in steps)

    paths = gli_matrix(disjoint_union(drawn)).reshape(config.horizon, m, len(GLI_NAMES))
    return ProjectionResult(
        steps=steps,
        gli_paths=np.ascontiguousarray(paths.transpose(1, 0, 2)),
        unions=drawn,
    )


# ---------------------------------------------------------------------------
# synthetic panels drawn from a known model
# ---------------------------------------------------------------------------

def generate_panel(spec: ModelSpec, coefficients, risk_set: RiskSet,
                   n_steps: int, seed: int, *, init_presence: float = 0.5,
                   init_density: float = 0.1, burn_in: int = 0,
                   attrs_fn=None) -> NetworkPanel:
    """Simulate a full panel from known coefficients.

    The first ``max_lag`` slots are seeded with homogeneous Bernoulli
    presence/edges, then the model runs forward; ``burn_in`` leading slots
    are dropped afterwards (time indices keep their original values so any
    day-of-week pattern stays aligned).
    """
    coefficients = np.asarray(coefficients, dtype=float)
    kv = len(spec.vertex_terms)
    if len(coefficients) != kv + len(spec.edge_terms):
        raise ValueError("coefficient length does not match spec")
    theta_v, theta_e = coefficients[:kv], coefficients[kv:]

    history = History(NetworkPanel(risk_set, ()), spec.gap_policy, attrs_fn)
    n = len(risk_set)
    k = max(spec.max_lag, 1)
    words = _seed_words(seed, [(0, t) for t in range(n_steps + 1)])
    classes = _endpoint_classes(risk_set, spec.edge_terms)
    # drawn directly, not by an intercept-only sampler: expit(logit(p)) is
    # not exactly p, so that would change every panel drawn so far
    for t in range(1, k + 1):
        rng = _generator(words[t])
        bits = rng.random(n) < init_presence
        layout = _DyadLayout(bits[None], classes)
        codes = layout.kept(rng.random(layout.total) < init_density, 0, 1)
        history.add(Snapshot(t, bits, codes, history.time_attrs_at(t) or {}, _trusted=True))

    for t in range(k + 1, n_steps + 1):
        sampler = StepSampler(spec, theta_v, theta_e, history, t, classes=classes)
        history.add(sampler.draw(_generator(words[t])))

    snaps = [history.added[t] for t in sorted(history.added) if t > burn_in]
    return NetworkPanel(risk_set, snaps)
