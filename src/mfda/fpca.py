"""The eigen layer of the nested fit: one covariance surface at a time.

Every level surface is smoothed by the bivariate P-spline sandwich smoother
(Xiao, Li & Ruppert 2013) in the coefficient space of one cubic B-spline
basis, orthonormal under the quadrature weights, at a penalty chosen by
closed-form GCV. The surface that carries the white-noise nugget takes its
diagonal from its own smooth, as in FACE (Xiao, Li, Checkley & Crainiceanu
2016), and the diagonal gap estimates the noise. The eigenproblem is solved on
the c x c coefficient matrix, so its size does not grow with the grid, and
components are selected by proportion of variance explained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, _readonly
from .errors import (
    AsymmetricMatrixError,
    DegenerateSpectrumError,
    InvalidGridError,
    InvalidParameterError,
    field_error,
)

# Eigenvalues below RELATIVE_EIGENVALUE_CUTOFF * lambda_1 are snapped to zero
# so that trailing round-off noise does not pollute pve ratios.
RELATIVE_EIGENVALUE_CUTOFF = 1e-12

# Most functions in the spline basis. The white noise of the curves leaks
# into the projected surfaces as eigenvalue mass that grows like c^1.5 / m, so
# a small basis keeps the retained rank from depending on the grid; 15 cubic
# B-splines still resolve three periods of a sine to about 1%. A grid of m
# points gets at most m // 3, since the diagonal fixed point amplifies noise
# by 1 / (1 - leverage) and a point's leverage grows with c / m.
MAX_BASIS = 15
# Penalties GCV chooses from, the same for every level and grid.
PENALTIES = 10.0 ** np.linspace(-8.0, 2.0, 51)
# The diagonal iteration stops when no entry moves by more than this
# fraction of the largest raw diagonal entry, or after DIAGONAL_MAX_STEPS.
DIAGONAL_RTOL = 1e-10
DIAGONAL_MAX_STEPS = 1000


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ordered nonnegative eigenvalues with L2-orthonormal eigenfunctions.

    functions has one eigenfunction per column (shape m x K). Both arrays
    must be finite; the system holds its own read-only copies.
    """

    grid: Grid
    eigenvalues: np.ndarray
    functions: np.ndarray

    def __post_init__(self) -> None:
        ev, fn = _readonly(self.eigenvalues), _readonly(self.functions)
        if fn.ndim != 2 or len(fn) != self.grid.size or not np.isfinite(fn).all():
            raise field_error("eigenfunctions must be finite, (m, K) on the grid", "functions")
        if ev.shape != fn.shape[1:] or not (
                np.isfinite(ev).all() and np.all(ev >= 0) and np.all(np.diff(ev) <= 0)):
            raise field_error("need one eigenvalue per eigenfunction, finite, nonincreasing "
                              "and >= 0", "eigenvalues")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "functions", fn)

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.size)

    def truncated(self, k: int) -> "EigenSystem":
        if k < 0 or k > self.n_components:
            raise InvalidParameterError(f"cannot keep {k} of {self.n_components}")
        return EigenSystem(self.grid, self.eigenvalues[:k], self.functions[:, :k])

    def variance_curve(self) -> np.ndarray:
        """Pointwise variance sum_k lambda_k e_k(t)^2."""
        return (self.functions**2) @ self.eigenvalues


def bspline_design(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """Values at the points x of the B-splines of a strictly increasing knot
    vector, one column per function (Cox-de Boor recursion).

    The points must lie in [knots[degree], knots[-degree - 1]], where the
    functions sum to one.
    """
    x = np.asarray(x, dtype=float)[:, None]
    B = ((knots[:-1] <= x) & (x < knots[1:])).astype(float)
    for k in range(1, degree + 1):
        rise = (x - knots[: -k - 1]) / (knots[k:-1] - knots[: -k - 1])
        fall = (knots[k + 1 :] - x) / (knots[k + 1 :] - knots[1:-k])
        B = rise * B[:, :-1] + fall * B[:, 1:]
    return B


@dataclass(frozen=True, eq=False)
class SplineBasis:
    """The P-spline basis of a grid, orthonormal under its weights.

    functions (m x c) satisfy functions' W functions = I and diagonalise the
    second-difference penalty, whose eigenvalues are `penalty`: at penalty
    lam, the smooth keeps s_i = 1 / (1 + lam penalty_i) of coefficient i.
    """

    grid: Grid
    functions: np.ndarray
    penalty: np.ndarray

    @classmethod
    def of(cls, grid: Grid) -> "SplineBasis":
        """Cubic B-splines with knots at grid quantiles, so that every
        function covers grid points, and equally spaced knots extending past
        both ends, so that on a uniform grid the penalty leaves straight lines
        alone; a tiny grid gets fewer functions and a lower degree."""
        w, m = grid.weights, grid.size
        if np.any(w <= 0):
            raise InvalidGridError("quadrature weights must be strictly positive")
        c = max(min(m, 4), min(MAX_BASIS, m // 3))
        degree = min(3, c - 1)
        inner = np.interp(np.linspace(0, m - 1, c - degree + 1), np.arange(m), grid.points)
        steps = np.arange(1, degree + 1)
        knots = np.r_[inner[0] - (inner[1] - inner[0]) * steps[::-1], inner,
                      inner[-1] + (inner[-1] - inner[-2]) * steps]
        sqrt_w = np.sqrt(w)
        Q, R = np.linalg.qr(sqrt_w[:, None] * bspline_design(grid.points, knots, degree))
        # second differences of the coefficients of the orthonormal basis Q R^-1
        E = np.linalg.solve(R.T, np.diff(np.eye(c), 2, axis=0).T)
        d, U = np.linalg.eigh(E @ E.T)
        return cls(grid, (Q @ U) / sqrt_w[:, None], np.maximum(d, 0.0))

    def smooth(self, S: np.ndarray, nugget: bool = False) -> tuple[float, np.ndarray, float]:
        """Sandwich smooth of a covariance surface: (lam, C, noise).

        C is the c x c coefficient matrix of the smooth functions C functions'
        at the penalty lam of least GCV for S. With `nugget`, S's diagonal is
        then replaced by the smooth's own until it settles, and the noise is
        mean(diag S - diag smooth), clamped at zero; without, it is zero.
        S, exactly symmetric as the moment surfaces are, is only read: its
        weighted norm is summed row by row, without an m x m temporary.
        """
        F, w = self.functions, self.grid.weights
        Fw = F * w[:, None]
        G = Fw.T @ S @ Fw
        lam, C = self._gcv(G, float(np.einsum("ij,ij,j->i", S, S, w) @ w))
        if not nugget:
            return lam, C, 0.0
        s = 1.0 / (1.0 + lam * self.penalty)
        raw = diag = np.diag(S).copy()
        tol = DIAGONAL_RTOL * float(np.max(np.abs(raw)))
        for _ in range(DIAGONAL_MAX_STEPS):
            new = np.sum((F @ C) * F, axis=1)
            G = G + (Fw.T * (new - diag)) @ Fw
            change, diag = float(np.max(np.abs(new - diag))), new
            C = s[:, None] * G * s
            if change <= tol:
                break
        return lam, C, max(0.0, float(np.mean(raw - diag)))

    def _gcv(self, G: np.ndarray, norm2: float) -> tuple[float, np.ndarray]:
        """The penalty of least GCV and its smooth, in O(c^2) per penalty.

        G is the projected surface and norm2 the surface's weighted squared
        norm; the residual is norm2 - sum_ij (2 s_i s_j - s_i^2 s_j^2) G_ij^2
        and the trace of the sandwich smoother is (sum_i s_i)^2.
        """
        s = 1.0 / (1.0 + PENALTIES[:, None] * self.penalty)
        G2 = G * G
        rss = norm2 - 2.0 * np.sum((s @ G2) * s, axis=1) + np.sum((s * s @ G2) * s * s, axis=1)
        m = self.grid.size
        gcv = rss / np.maximum((1.0 - (s.sum(axis=1) / m) ** 2) ** 2, np.finfo(float).tiny)
        best = int(np.argmin(gcv))
        return float(PENALTIES[best]), s[best][:, None] * G * s[best]


def eigendecompose(S: np.ndarray, grid: Grid, basis: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a covariance surface in a basis of the grid.

    S is the c x c coefficient matrix of the surface basis S basis', where
    basis (m x c) is orthonormal under the quadrature weights, so S is
    decomposed as it is and mapped to the grid by `basis`: the eigenfunctions
    are orthonormal in L2 and the eigenvalues are those of the integral
    operator. Negative eigenpairs are trimmed; each retained eigenfunction is
    signed so its largest-magnitude entry is positive.
    """
    S = np.asarray(S, dtype=float)
    n = basis.shape[1]
    if S.shape != (n, n):
        raise AsymmetricMatrixError(f"expected a {n}x{n} matrix, got {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S), initial=0.0)))
    if np.max(np.abs(S - S.T), initial=0.0) > 1e-8 * scale:
        raise AsymmetricMatrixError("surface must be symmetric within 1e-8")
    evals, evecs = np.linalg.eigh(0.5 * (S + S.T))
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    keep = evals >= 0.0
    evals = evals[keep]
    evecs = evecs[:, keep]
    if evals.size:
        evals = np.where(evals < RELATIVE_EIGENVALUE_CUTOFF * evals[0], 0.0, evals)
    funcs = basis @ evecs
    for a in range(funcs.shape[1]):
        peak = int(np.argmax(np.abs(funcs[:, a])))
        if funcs[peak, a] < 0:
            funcs[:, a] = -funcs[:, a]
    return EigenSystem(grid, evals, funcs)


def select_k(eig: EigenSystem, pve_threshold: float) -> int:
    """Smallest K whose cumulative proportion of the system's variance
    reaches the threshold."""
    if not 0.0 < pve_threshold <= 1.0:
        raise InvalidParameterError("pve threshold must be in (0, 1]")
    ev = eig.eigenvalues
    if ev.sum() <= 0.0:  # no components, or all zero
        raise DegenerateSpectrumError("all eigenvalues are zero")
    return int(np.searchsorted(np.cumsum(ev) / ev.sum(), pve_threshold - 1e-15) + 1)
