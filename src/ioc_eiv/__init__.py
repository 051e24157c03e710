"""Inverse optimal control with noisy demonstrations.

The package recovers stage-cost weights of a linear-quadratic-polytopic
optimal control problem from demonstrations whose inputs are observed with
noise.  Treating the noisy inputs as exact (classical inverse-KKT least
squares) is inconsistent; the estimators here treat the noise-free input
trajectory as a latent variable (an errors-in-variables model) and recover
it jointly with the weights, either by maximum a posteriori estimation
with a Gibbs-sampled covariance warm start or by total least squares with
hard stationarity constraints.
"""

from .demos import (
    DemoSet,
    NoiseSpec,
    generate,
    noise_cov,
    noise_scale_from_percent,
    rmse,
    sample_mean,
)
from .forward import ForwardSolution, objective
from .forward import solve as solve_forward
from .kkt_baseline import KktLsResult, NormalizationRule, kkt_ls, kkt_single
from .map_estimator import (
    GibbsConfig,
    MapConfig,
    MapResult,
    consistency_cost_check,
    map_cost,
    rescale_to_l1,
)
from .map_estimator import estimate as map_estimate
from .mcmc import (
    ChainOutput,
    ChainState,
    Priors,
    default_priors,
    gibbs_run,
    mh_step,
    mh_within_gibbs_U,
)
from .model import (
    BilinearStationarity,
    ForwardProblem,
    KktResidual,
    LinearSystem,
    PolytopicConstraints,
    QuadraticFeature,
    build_stationarity,
    kkt_residual,
    rollout,
)
from .numerics import (
    Infeasible,
    IterationLimit,
    NotPositiveDefinite,
    Qp,
    QpRows,
    QpSolution,
    cholesky,
    solve_qp,
)
from .tls_estimator import TlsResult, tls_inner
from .tls_estimator import estimate as tls_estimate

__version__ = "0.1.0"

__all__ = [
    "BilinearStationarity",
    "ChainOutput",
    "ChainState",
    "DemoSet",
    "ForwardProblem",
    "ForwardSolution",
    "GibbsConfig",
    "Infeasible",
    "IterationLimit",
    "KktLsResult",
    "KktResidual",
    "LinearSystem",
    "MapConfig",
    "MapResult",
    "NoiseSpec",
    "NormalizationRule",
    "NotPositiveDefinite",
    "PolytopicConstraints",
    "Priors",
    "Qp",
    "QpRows",
    "QpSolution",
    "QuadraticFeature",
    "TlsResult",
    "build_stationarity",
    "cholesky",
    "consistency_cost_check",
    "default_priors",
    "generate",
    "gibbs_run",
    "kkt_ls",
    "kkt_residual",
    "kkt_single",
    "map_cost",
    "map_estimate",
    "mh_step",
    "mh_within_gibbs_U",
    "noise_cov",
    "noise_scale_from_percent",
    "objective",
    "rescale_to_l1",
    "rmse",
    "rollout",
    "sample_mean",
    "solve_forward",
    "solve_qp",
    "tls_estimate",
    "tls_inner",
    "__version__",
]
