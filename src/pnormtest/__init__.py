"""p-norm tests for many moment equalities.

The top-level namespace re-exports the pieces most workflows touch: build
or load a sample (an n x d array), calibrate a :class:`DominantTestSpec`, call
:func:`run_tests`, and inspect the :class:`TestReport`.  Everything else
(consistency criteria, the simulation harness) lives in the submodules.
"""

from .covariance import difference_pairs, kurtosis_diagnostic
from .critical_values import (
    CriticalValueTable,
    calibrate_joint,
    kappa_inf_asymptotic,
    kappa_inf_exact,
    kappa_p_asymptotic,
    mc_pnorm_quantile,
)
from .dgp import IvConfig, RctConfig, gen_iv, gen_rct
from .dominant_test import (
    DominantTestSpec,
    calibrate_spec,
    default_spec,
    evaluate_psi,
    power_loss_bound,
)
from .gaussian_moments import g_p, lambda_p, sigma_p
from .harness import run_experiment
from .sample_split import SplitResult, split_test
from .test_engine import (
    TestReport,
    invert_confidence_set,
    p_norm_stat,
    prepare_standardized,
    run_tests,
)

__version__ = "0.1.0"

__all__ = [
    "difference_pairs",
    "kurtosis_diagnostic",
    "CriticalValueTable",
    "calibrate_joint",
    "kappa_p_asymptotic",
    "kappa_inf_asymptotic",
    "kappa_inf_exact",
    "mc_pnorm_quantile",
    "IvConfig",
    "RctConfig",
    "gen_iv",
    "gen_rct",
    "DominantTestSpec",
    "default_spec",
    "calibrate_spec",
    "evaluate_psi",
    "power_loss_bound",
    "lambda_p",
    "sigma_p",
    "g_p",
    "run_experiment",
    "SplitResult",
    "split_test",
    "TestReport",
    "run_tests",
    "prepare_standardized",
    "p_norm_stat",
    "invert_confidence_set",
    "__version__",
]
