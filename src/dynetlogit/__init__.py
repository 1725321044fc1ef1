"""Dynamic network logistic regression for panels with joint edge/vertex dynamics."""

from .design import DesignError, DesignMatrix, build_design, dump_design
from .gli import (
    GLI_NAMES,
    degree_centralization,
    gli_matrix,
    gli_vector,
    krackhardt_connectedness,
    triad_census,
)
from .panel import (
    NetworkPanel,
    PanelFormatError,
    PanelValidationError,
    RiskSet,
    Snapshot,
    VertexRef,
    disjoint_union,
    load_panel,
    panel_from_edge_presence,
    save_panel,
    subpanel,
)
from .simulate import (
    AdequacyReport,
    GliSampleSet,
    ProjectionResult,
    SimConfig,
    classify_threshold,
    generate_panel,
    one_step_intervals,
    one_step_sample,
    project,
)
from .solver import (
    FitResult,
    PriorSpec,
    block_summaries,
    fit_mle,
    fit_posterior_mode,
)
from .terms import (
    CycleBudgetError,
    GapError,
    ModelSpec,
    SpecError,
    TermSpec,
    load_model_spec,
    pair_cycle_count,
    pair_cycle_counts,
    save_model_spec,
    seasonal_terms,
    validate_model,
)

__version__ = "0.1.0"
