"""Decay rates, optimal fluid paths, and exact exploration simulation for
the configuration random-graph model."""

from .core import (
    BOUND_LOWER_ONLY,
    BOUND_TWO_SIDED,
    DegreeDistribution,
    RateBreakdown,
    SubProfile,
    K_of_q,
    beta_of_q,
    entropy_H,
    rate_component_degree,
    rate_component_size,
    rate_conjectured_largest,
    rate_conjectured_multi,
    rate_d_regular,
    rate_d_regular_subgraph,
)
from .errors import (
    CmldError,
    DomainError,
    FeasibilityError,
    FitError,
    ParityError,
    PreconditionError,
    StateError,
)
from .estimate import EstimateResult, estimate_event_prob, rate_fit
from .explore import (
    ComponentRecord,
    DegreeSequence,
    ExplorationRecord,
    eea_run,
    empirical_path,
    extract_components,
    sample_multigraph,
)
from .fluid import FluidPath
from .lln import (
    criticality_nu,
    gen_G0,
    gen_G1,
    giant_fraction,
    inverse_Fs,
    lln_path,
    survival_rho,
)
from .paths import (
    CASE_I,
    CASE_II,
    LocalVelocity,
    PathSegmentSpec,
    StatePoint,
    cost_closed_form,
    local_rate_L,
    make_segment_spec,
    minimizer_path,
    path_cost,
)
from .rng import CounterRNG
from .verify import lln_check

__version__ = "0.1.0"
