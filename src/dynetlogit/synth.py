"""Synthetic panels shaped like a month of daily group attendance data.

Used by the acceptance suite and the demo scripts: a 95-member risk set
with regular/group tags, a 31-slot daily panel with one unobserved day,
and a full model touching every statistic kind.
"""

from __future__ import annotations

import numpy as np

from .panel import NetworkPanel, RiskSet, Snapshot
from .simulate import generate_panel, weekday_attrs
from .terms import ModelSpec, TermSpec, seasonal_terms

__all__ = [
    "month_risk_set",
    "full_model_spec",
    "nested_model_specs",
    "default_coefficients",
    "make_month_panel",
]

# t = 1 falls on a Thursday, so weekends land mid-panel like a real month
WEEKDAY_OFFSET = 2


def month_risk_set(n_total: int = 95, n_regular: int = 54, n_group1: int = 22,
                   n_group2: int = 21) -> RiskSet:
    """Risk set with regular members, two tagged subgroups, and outsiders."""
    labels = [f"w{k:02d}" for k in range(1, n_total + 1)]
    attrs = []
    for k in range(n_total):
        regular = k < n_regular
        attrs.append({
            "regular": regular,
            "group1": k < n_group1,
            "group2": n_group1 <= k < n_group1 + n_group2,
        })
    return RiskSet(labels, attrs)


def full_model_spec(risk_set: RiskSet, n_indiv: int = 4,
                    cycle_max_len: int = 9) -> ModelSpec:
    """Model exercising every statistic kind (the richest candidate)."""
    group1 = [lab for k, lab in enumerate(risk_set.labels)
              if risk_set.attrs["group1"][k]]
    vertex = [
        TermSpec("vertex", "intercept"),
        TermSpec("vertex", "attr_dummy", params={"attr": "regular"}),
        TermSpec("vertex", "attr_dummy", params={"attr": "group1"}),
        TermSpec("vertex", "lag_indicator", lag=1),
        TermSpec("vertex", "lag_triangle", lag=1),
        *seasonal_terms("vertex"),
    ]
    edge = [
        TermSpec("edge", "mixing", params={"attr": "regular", "pair": "both"}),
        TermSpec("edge", "mixing", params={"attr": "regular", "pair": "neither"}),
        TermSpec("edge", "mixing", params={"attr": "regular", "pair": "mixed"}),
        *[TermSpec("edge", "individual_dummy", params={"label": lab})
          for lab in group1[:n_indiv]],
        TermSpec("edge", "log_size"),
        TermSpec("edge", "lag_indicator", lag=1),
        TermSpec("edge", "lag_cycle_embed", lag=1, params={"max_len": cycle_max_len}),
        *seasonal_terms("edge"),
    ]
    return ModelSpec(vertex, edge)


def nested_model_specs(risk_set: RiskSet):
    """Four nested candidates, poorest to richest, for selection demos."""
    m4 = full_model_spec(risk_set)
    m1 = ModelSpec(
        [TermSpec("vertex", "intercept")],
        [TermSpec("edge", "intercept")],
    )
    m2 = ModelSpec(
        [TermSpec("vertex", "intercept"),
         TermSpec("vertex", "lag_indicator", lag=1)],
        [TermSpec("edge", "intercept"),
         TermSpec("edge", "log_size"),
         TermSpec("edge", "lag_indicator", lag=1)],
    )
    m3 = ModelSpec(
        [TermSpec("vertex", "intercept"),
         TermSpec("vertex", "lag_indicator", lag=1),
         TermSpec("vertex", "lag_triangle", lag=1),
         *seasonal_terms("vertex")],
        [TermSpec("edge", "mixing", params={"attr": "regular", "pair": "both"}),
         TermSpec("edge", "mixing", params={"attr": "regular", "pair": "neither"}),
         TermSpec("edge", "mixing", params={"attr": "regular", "pair": "mixed"}),
         TermSpec("edge", "log_size"),
         TermSpec("edge", "lag_indicator", lag=1),
         TermSpec("edge", "lag_cycle_embed", lag=1),
         *seasonal_terms("edge")],
    )
    return [m1, m2, m3, m4]


# plausible effect sizes: attendance driven by membership, inertia and
# weekends; interaction driven by crowd size, mixing class and inertia.
# Kept in a stable sparse regime: strong positive feedback through the lag
# and cycle terms makes the process densify without bound (and blows up the
# cost of exact cycle counting), which is the degenerate behavior we also
# screen projections for.
DEFAULT_COEFFS = {
    "v:intercept": -3.1,
    "v:regular": 0.9,
    "v:group1": 0.8,
    "v:group2": 0.2,
    "v:lag1": 0.7,
    "v:triangle_lag1": 0.25,
    "v:day_Tuesday": -0.1,
    "v:day_Wednesday": 0.3,
    "v:day_Thursday": 0.4,
    "v:day_Friday": 0.2,
    "v:day_Saturday": 1.4,
    "v:day_Sunday": 1.1,
    "e:intercept": -4.2,
    "e:mix_regular_both": -4.9,
    "e:mix_regular_neither": -6.0,
    "e:mix_regular_mixed": -5.5,
    "e:log_size": 0.9,
    "e:lag1": 0.9,
    "e:cycles9_lag1": 0.10,
    "e:day_Tuesday": 0.2,
    "e:day_Wednesday": -0.3,
    "e:day_Thursday": 0.3,
    "e:day_Friday": 0.1,
    "e:day_Saturday": -0.4,
    "e:day_Sunday": -0.5,
}
INDIV_COEFFS = (-0.3, 0.8, -1.1, 0.5, 2.5, -0.8, 0.3, -0.4)


def default_coefficients(spec: ModelSpec) -> np.ndarray:
    """Coefficient vector for ``spec`` columns from the default effect table."""
    out = []
    n_indiv = 0
    for name in spec.column_names:
        if name.startswith("e:indiv_"):
            out.append(INDIV_COEFFS[n_indiv % len(INDIV_COEFFS)])
            n_indiv += 1
        elif name in DEFAULT_COEFFS:
            out.append(DEFAULT_COEFFS[name])
        else:
            raise KeyError(f"no default coefficient for column {name}")
    return np.array(out)


def make_month_panel(seed: int = 20230828, n_days: int = 31, gap_day: int | None = 25,
                     spec: ModelSpec | None = None,
                     coefficients=None, burn_in: int = 7) -> NetworkPanel:
    """31 daily snapshots over the month risk set with one unobserved day.

    The panel is drawn from the full model itself, so refitting it is a
    well-posed recovery problem and every statistic kind is exercised.  A
    one-week burn-in is generated and discarded (a multiple of 7, so the
    weekday pattern survives the relabeling back to t = 1..n_days).
    """
    if burn_in % 7:
        raise ValueError("burn_in must be a multiple of 7 to keep days aligned")
    risk = month_risk_set()
    if spec is None:
        spec = full_model_spec(risk)
    if coefficients is None:
        coefficients = default_coefficients(spec)
    attrs_fn = lambda t: weekday_attrs(t, WEEKDAY_OFFSET)
    raw = generate_panel(spec, coefficients, risk, n_days + burn_in, seed,
                         init_presence=0.15, init_density=0.1,
                         burn_in=burn_in, attrs_fn=attrs_fn)
    snaps = [Snapshot(s.t - burn_in, s.present, s.edges, s.time_attrs)
             for s in raw.snapshots]
    if gap_day is not None:
        snaps = [s for s in snaps if s.t != gap_day]
    return NetworkPanel(risk, snaps, gaps=[gap_day] if gap_day is not None else [])
