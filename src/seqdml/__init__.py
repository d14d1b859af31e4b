"""Anytime-valid confidence sequences for double machine learning estimands.

Streaming estimation of causal/structural parameters (ATE, LATE, the
partially linear coefficient, and partial-identification bounds on the ATE
under a sensitivity model) with confidence sequences that stay valid under
continuous monitoring and data-dependent stopping.
"""

from .boundary import Interval, MixtureParams, intersect_step, region_threshold, scalar_radius, tune_rho
from .crossfit import (
    DmlFit,
    FoldPlan,
    IdentificationReport,
    identification_diagnostics,
    solve_dml1,
    solve_dml2,
)
from .engine import (
    BandPoint,
    CsPoint,
    StopDecision,
    StopRule,
    Stream,
    StreamConfig,
    excludes_zero,
    pate_band,
    width_below,
)
from .errors import (
    DgpError,
    EstimandError,
    FitError,
    IdentificationError,
    IngestError,
    NotReadyError,
    NuisanceError,
    ParameterError,
    SeqdmlError,
    SyncError,
)
from .nuisance import (
    FittedNuisance,
    GammaRegressionLoss,
    LearnerSpec,
    SquaredLoss,
    dump_model,
    fit_g1_gamma,
    fit_gbt,
    fit_logistic,
    fit_nu,
    fit_ridge,
    load_model,
    minimize_gamma_constant,
)
from .scores import (
    GammaParam,
    LinearScore,
    NuisanceEval,
    Observation,
    aipw_score,
    gamma_loss,
    gateaux_orthogonality_check,
    late_score,
    nu_value,
    partial_id_score,
    plr_score,
)
from .sim import (
    BandResult,
    Columns,
    CoverageResult,
    LateDgpParams,
    PartialIdDgpParams,
    gen_late,
    gen_partial_id,
    run_coverage,
    run_pate_band,
)

__version__ = "0.1.0"
