"""The eigen layer of the nested fit: one covariance surface at a time.

Kernel smoothing of a covariance surface, the diagonal-gap noise estimate,
the quadrature-weighted eigenproblem, and component selection by proportion
of variance explained. fit_nested calls these for every level surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid
from .errors import (
    AsymmetricMatrixError,
    DegenerateSpectrumError,
    GridMismatchError,
    InvalidGridError,
    InvalidParameterError,
)

# Eigenvalues below RELATIVE_EIGENVALUE_CUTOFF * lambda_1 are snapped to zero
# so that trailing round-off noise does not pollute pve ratios.
RELATIVE_EIGENVALUE_CUTOFF = 1e-12

DEFAULT_BANDWIDTH = 0.05


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ordered nonnegative eigenvalues with L2-orthonormal eigenfunctions.

    functions has one eigenfunction per column (shape m x K); pve is the
    cumulative proportion of variance explained.
    """

    grid: Grid
    eigenvalues: np.ndarray
    functions: np.ndarray
    pve: np.ndarray

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=float)
        fn = np.asarray(self.functions, dtype=float)
        if ev.ndim != 1 or fn.shape != (self.grid.size, ev.size):
            raise GridMismatchError("eigenfunctions must be (m, K) on the grid")
        if ev.size and (np.any(ev < 0) or np.any(np.diff(ev) > 0)):
            raise InvalidParameterError("eigenvalues must be nonincreasing, >= 0")
        for arr in (ev, fn, np.asarray(self.pve, dtype=float)):
            arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "functions", fn)
        object.__setattr__(self, "pve", np.asarray(self.pve, dtype=float))

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.size)

    def truncated(self, k: int) -> "EigenSystem":
        if k < 0 or k > self.n_components:
            raise InvalidParameterError(f"cannot keep {k} of {self.n_components}")
        return EigenSystem(
            self.grid, self.eigenvalues[:k], self.functions[:, :k], self.pve[:k]
        )

    def variance_curve(self) -> np.ndarray:
        """Pointwise variance sum_k lambda_k e_k(t)^2."""
        return (self.functions**2) @ self.eigenvalues


def smooth_covariance(
    S: np.ndarray, grid: Grid, bandwidth: float = DEFAULT_BANDWIDTH
) -> np.ndarray:
    """2-D Nadaraya-Watson Gaussian smooth of a covariance surface.

    The diagonal is excluded from the fit so a white-noise nugget cannot
    inflate the surface; the returned diagonal is the smooth's own limit at
    (t, t) estimated from off-diagonal entries. The gap between the raw and
    smoothed diagonals is what estimates the noise variance downstream.
    """
    S = np.asarray(S, dtype=float)
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise InvalidParameterError(
            f"bandwidth must be positive and finite, got {bandwidth}"
        )
    m = grid.size
    if S.shape != (m, m):
        raise AsymmetricMatrixError(f"expected a {m}x{m} surface, got {S.shape}")
    if np.max(np.abs(S - S.T)) > 1e-8 * max(1.0, np.max(np.abs(S))):
        raise AsymmetricMatrixError("surface must be symmetric")
    t = grid.points
    K = np.exp(-0.5 * ((t[:, None] - t[None, :]) / bandwidth) ** 2)
    off = 1.0 - np.eye(m)
    num = K @ (S * off) @ K.T
    # K @ off @ K.T in one m x m x m product. With K = I + E (E symmetric)
    # and e = E 1 it is off - 2E + e 1' + 1 e' + e e' - E E', whose diagonal
    # sums small terms only, so kernels far narrower than the grid spacing
    # keep it exact where outer(K 1, K 1) - K K' would cancel to zero
    E = K - np.eye(m)
    e = E.sum(axis=1)
    den = off - 2.0 * E + np.add.outer(e, e) + np.outer(e, e) - E @ E.T
    if np.any(den <= 0.0):
        # kernel weights underflow when the bandwidth is far below the
        # grid spacing, leaving some targets with no off-diagonal mass
        raise InvalidParameterError(
            f"bandwidth {bandwidth} is too narrow for this grid spacing"
        )
    out = num / den
    return 0.5 * (out + out.T)


def eigendecompose(S: np.ndarray, grid: Grid) -> EigenSystem:
    """Quadrature-weighted eigendecomposition of a covariance surface.

    Decomposes W^{1/2} S W^{1/2} with W = diag(weights) and maps eigenvectors
    back by W^{-1/2}, so the eigenfunctions are orthonormal in L2 and the
    eigenvalues are those of the integral operator. Negative eigenpairs are
    trimmed; each retained eigenfunction is signed so its largest-magnitude
    entry is positive.
    """
    S = np.asarray(S, dtype=float)
    m = grid.size
    if S.shape != (m, m):
        raise AsymmetricMatrixError(f"expected a {m}x{m} surface, got {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.T)) > 1e-8 * scale:
        raise AsymmetricMatrixError("surface must be symmetric within 1e-8")
    w = grid.weights
    if np.any(w <= 0):
        raise InvalidGridError("quadrature weights must be strictly positive")
    sqrt_w = np.sqrt(w)
    A = sqrt_w[:, None] * S * sqrt_w[None, :]
    A = 0.5 * (A + A.T)
    evals, evecs = np.linalg.eigh(A)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    keep = evals >= 0.0
    evals = evals[keep]
    evecs = evecs[:, keep]
    if evals.size:
        evals = np.where(evals < RELATIVE_EIGENVALUE_CUTOFF * evals[0], 0.0, evals)
    funcs = evecs / sqrt_w[:, None]
    for a in range(funcs.shape[1]):
        peak = int(np.argmax(np.abs(funcs[:, a])))
        if funcs[peak, a] < 0:
            funcs[:, a] = -funcs[:, a]
    total = evals.sum()
    pve = np.cumsum(evals) / total if total > 0 else np.zeros_like(evals)
    return EigenSystem(grid, evals, funcs, pve)


def select_k(eig: EigenSystem, pve_threshold: float) -> int:
    """Smallest K whose cumulative proportion of variance reaches the threshold."""
    if not 0.0 < pve_threshold <= 1.0:
        raise InvalidParameterError("pve threshold must be in (0, 1]")
    if eig.n_components == 0 or eig.eigenvalues.sum() <= 0.0:
        raise DegenerateSpectrumError("all eigenvalues are zero")
    return int(np.searchsorted(eig.pve, pve_threshold - 1e-15) + 1)


def estimate_noise_gap(raw: np.ndarray, smoothed: np.ndarray) -> float:
    """Noise variance from the mean diagonal gap, clamped at zero."""
    raw = np.asarray(raw, dtype=float)
    smoothed = np.asarray(smoothed, dtype=float)
    if raw.shape != smoothed.shape:
        raise AsymmetricMatrixError("raw and smoothed surfaces differ in shape")
    return float(max(0.0, np.mean(np.diag(raw) - np.diag(smoothed))))
