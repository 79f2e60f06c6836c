"""Grids, curves, coded curve sets, the quadrature primitives and variance shares.

Everything downstream works on a common evaluation grid over [0, 1] with
trapezoid quadrature weights, so that L2 inner products reduce to weighted
sums. All containers are immutable after construction; every operation here
is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateKeyError,
    EmptyDataError,
    GridMismatchError,
    InvalidGridError,
    MissingMeanError,
)

_DOMAIN_EPS = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def trapezoid_weights(points: Sequence[float] | np.ndarray) -> np.ndarray:
    """Trapezoid-rule quadrature weights for a strictly increasing grid.

    w[0] = (p1-p0)/2, w[m-1] = (p[m-1]-p[m-2])/2, interior
    w[j] = (p[j+1]-p[j-1])/2; the weights sum to the grid range.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise InvalidGridError("grid needs at least two points")
    if not np.all(np.isfinite(p)):
        raise InvalidGridError("grid points must be finite")
    if np.any(np.diff(p) <= 0):
        raise InvalidGridError("grid points must be strictly increasing")
    w = np.empty_like(p)
    w[0] = (p[1] - p[0]) / 2.0
    w[-1] = (p[-1] - p[-2]) / 2.0
    w[1:-1] = (p[2:] - p[:-2]) / 2.0
    return w


@dataclass(frozen=True, eq=False)
class Grid:
    """Common evaluation grid on [0, 1]. Its quadrature weights are the
    trapezoid weights of its points, derived once here: a grid is its points."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        points = _readonly(self.points)
        weights = trapezoid_weights(points)  # refuses too few, non-finite or unordered points
        weights.setflags(write=False)
        if points[0] < -_DOMAIN_EPS or points[-1] > 1.0 + _DOMAIN_EPS:
            raise InvalidGridError("grid points must lie in [0, 1]")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, m: int) -> "Grid":
        """Uniform grid of m points covering [0, 1]."""
        if m < 2:
            raise InvalidGridError("grid needs at least two points")
        return cls(np.linspace(0.0, 1.0, m))

    @property
    def size(self) -> int:
        return int(self.points.size)


def same_grid(a: Grid, b: Grid) -> bool:
    """Exact equality of the points, which fix the weights; shared references trivially match."""
    return a is b or np.array_equal(a.points, b.points)


def variance_shares(sums: Sequence[float], noise: float) -> Optional[dict[str, float]]:
    """Each level's variance sum S_l and the noise over their total, keyed level1, ...,
    noise: level1's is the global ICC. None for a total <= 0, a case each caller rules."""
    total = sum(sums) + noise
    if total <= 0.0:
        return None
    shares = {f"level{l + 1}": s / total for l, s in enumerate(sums)}
    shares["noise"] = noise / total
    return shares


@dataclass(frozen=True, eq=False)
class Curve:
    """Values of one function evaluated on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        if values.shape != self.grid.points.shape:
            raise GridMismatchError("curve values must match the grid length")
        if not np.all(np.isfinite(values)):
            raise InvalidGridError("curve values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class CurveSet:
    """A stack of curves on one Grid, one per row of values.

    codes holds each row's (subject, measure, replicate) as 1-based integers,
    and the rows are held in that canonical order whatever order they come in.
    Label tuples map 1-based subject/measure indices back to the external
    string ids they came from (defaults to the index itself).
    """

    grid: Grid
    codes: np.ndarray
    values: np.ndarray
    subject_labels: tuple[str, ...] = ()
    measure_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64).reshape(-1, 3)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape != (len(codes), self.grid.size):
            raise GridMismatchError(
                f"values must be ({len(codes)}, {self.grid.size}), "
                f"got {values.shape}"
            )
        order = np.lexsort(codes.T[::-1])  # the one sort: indexing makes the private copies
        codes, values = codes[order], values[order]
        codes.setflags(write=False)
        values.setflags(write=False)
        if not np.all(np.isfinite(values)):
            raise InvalidGridError("curve values must be finite")
        if (codes < 1).any():
            raise EmptyDataError("subject, measure and replicate indices start at 1")
        if (codes[1:] == codes[:-1]).all(axis=1).any():
            raise DuplicateKeyError("nested indices must be unique")
        n_sub, n_meas = codes[:, :2].max(axis=0, initial=0).tolist()
        subject_labels = self.subject_labels or tuple(map(str, range(1, n_sub + 1)))
        measure_labels = self.measure_labels or tuple(map(str, range(1, n_meas + 1)))
        if len(subject_labels) != n_sub or len(measure_labels) != n_meas:
            raise EmptyDataError("label tuples must cover every index")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "subject_labels", tuple(subject_labels))
        object.__setattr__(self, "measure_labels", tuple(measure_labels))

    def __len__(self) -> int:
        return len(self.codes)

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (subject, measure) pairs in sorted order, and the
        number of rows of each."""
        pairs = self.codes[:, :2]
        first = np.flatnonzero(np.r_[True, (pairs[1:] != pairs[:-1]).any(axis=1)])
        return pairs[first], np.diff(first, append=len(pairs))


@dataclass(frozen=True)
class CenteringMeans:
    """Global mean plus per-measure deviations, as produced by measure_means."""

    global_mean: Curve
    measure_effects: Mapping[int, Curve] = field(default_factory=dict)


def center_rows(X: CurveSet, means: CenteringMeans) -> CurveSet:
    """Subtract the global mean and each row's measure effect.

    The rows keep their canonical order. Raises MissingMeanError when a row's
    measure has no supplied effect curve (an empty mapping means no measure
    effects at all, which is allowed).
    """
    if not same_grid(means.global_mean.grid, X.grid):
        raise GridMismatchError("means live on a different grid")
    for eff in means.measure_effects.values():
        if not same_grid(eff.grid, X.grid):
            raise GridMismatchError("measure effects live on a different grid")
    centered = X.values - means.global_mean.values
    if means.measure_effects:
        measure = X.codes[:, 1]
        for j in dict.fromkeys(measure.tolist()):  # in the order of first rows
            eff = means.measure_effects.get(j)
            if eff is None:
                raise MissingMeanError(f"no mean supplied for measure {j}")
            centered[measure == j] -= eff.values
    return CurveSet(X.grid, X.codes, centered, X.subject_labels, X.measure_labels)
