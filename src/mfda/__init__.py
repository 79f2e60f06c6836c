"""Multilevel functional PCA for densely observed repeated curves.

Fits nested variance-decomposition models on curves observed over a common
[0, 1] grid, computes functional intraclass correlation coefficients, and
tests score-distribution equality between groups of second-level units.
"""

__version__ = "0.1.0"

FORMAT_VERSION = "mfda-v1"

from .core import (  # noqa: F401
    CenteringMeans,
    Curve,
    CurveSet,
    Grid,
    center_rows,
    same_grid,
    trapezoid_weights,
)
from .fpca import EigenSystem, SplineBasis, eigendecompose, select_k  # noqa: F401
from .icc import IccReport, global_icc, icc_report, pointwise_icc  # noqa: F401
from .leveltest import (  # noqa: F401
    TestReport,
    bh_adjust,
    permutation_pvalue,
    score_covariate_correlation,
    two_sample_score_test,
)
from .mfpca import (  # noqa: F401
    FitConfig,
    LevelCovariances,
    MultilevelFit,
    blup_scores,
    fit_nested,
    measure_means,
    sigma_B_hat,
    sigma_T_hat,
    three_level_covariances,
)
from .simkl import (  # noqa: F401
    GeneratorSpec,
    GroundTruth,
    fourier_basis,
    generate,
    load_spec,
    spec_from_dict,
)
