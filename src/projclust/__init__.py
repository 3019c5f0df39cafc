"""Clustering of two-component high-dimensional mixtures by scanning
random 1-D projections, with the matching bound calculators and a Monte
Carlo verification harness."""

from .errors import (
    DimensionMismatchError,
    DomainError,
    InsufficientSampleError,
    NoBoundaryError,
    ProjclustError,
)
from .mathkit import (
    RngStream,
    chi2_lower_tail_exponent,
    chi2_upper_tail_exponent,
    q_function,
    q_inverse,
)
from .model import (
    Boundary1D,
    ClusterOutcome,
    Dataset,
    Mixture1D,
    MixtureSpec,
)
from .projection import (
    projected_mixture,
    sample_direction,
    separability_1d,
)
from .learner1d import (
    FitReport,
    bayes_error,
    bayes_orientation,
    bayes_thresholds,
    fit_em,
    fit_mixture,
    fit_mom,
)
from .bounds import (
    BoundReport,
    error_gap_bound,
    expected_projections_nonspherical,
    expected_projections_spherical,
    hd_bayes_error_bound,
    kgmm_failure_bound,
    kgmm_projection_bound,
    nonspherical_direction_prob,
    sample_size_required,
    spherical_direction_prob,
    sublog_regime_check,
)
from .datagen import (
    make_rank_spec,
    make_spherical_spec,
    read_dataset,
    sample_dataset,
    write_dataset,
)
from .clusterer import (
    ClusterConfig,
    classify,
    cluster_gmm,
    clustering_error,
    estimate_c_hat,
    projections_budget_default,
    scan_directions,
    score_direction,
)

__version__ = "0.1.0"
