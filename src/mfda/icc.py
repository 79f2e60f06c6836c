"""Functional intraclass correlation coefficients for nested fits.

Both the pointwise curve and the global coefficient are computed from the
fitted eigensystems (truncated reconstructions), so they describe the same
object: the share of variance carried by the subject level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Curve
from .errors import UndefinedIccError
from .mfpca import MultilevelFit


@dataclass(frozen=True, eq=False)
class IccReport:
    """Pointwise ICC curve, global ICC, and the variance bookkeeping."""

    pointwise: Curve
    global_icc: float
    level_variances: tuple[float, ...]
    noise_variance: float


def pointwise_icc(fit: MultilevelFit) -> Curve:
    """Subject-level share of pointwise variance, clamped to [0, 1].

    rho(t) = V1(t) / (V1(t) + V2(t) [+ V3(t)] + noise), with
    V_l(t) = sum_k lambda_k^(l) e_k^(l)(t)^2 from the retained components.
    """
    variance_curves = [eig.variance_curve() for eig in fit.level_eig]
    denom = np.sum(variance_curves, axis=0) + fit.noise_variance
    zero = denom <= 0.0
    if np.any(zero):
        t_bad = float(fit.grid.points[zero][0])
        raise UndefinedIccError(f"all variance components vanish at t={t_bad!r}")
    rho = np.clip(variance_curves[0] / denom, 0.0, 1.0)
    return Curve(fit.grid, rho)


def global_icc(fit: MultilevelFit) -> float:
    """Subject-level eigenvalue mass over all variance sources, the level1
    entry of `MultilevelFit.variance_shares`: S1 / (S1 + S2 [+ S3] + noise),
    S_l the retained eigenvalue sum of level l. A zero total raises
    UndefinedIccError."""
    return fit.variance_shares()["level1"]


def icc_report(fit: MultilevelFit) -> IccReport:
    return IccReport(
        pointwise=pointwise_icc(fit),
        global_icc=global_icc(fit),
        level_variances=fit.level_variance_sums(),
        noise_variance=fit.noise_variance,
    )
