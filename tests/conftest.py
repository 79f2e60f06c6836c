"""Shared builders for synthetic datasets used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mfda.core import CurveSet, Grid
from mfda.fpca import EigenSystem, eigendecompose
from mfda.simkl import GeneratorSpec, spec_from_dict


def n2_spec_dict(
    seed: int,
    n: int = 200,
    J: int = 4,
    m: int = 101,
    lam1=(4.0, 2.0),
    lam2=(2.0, 1.0),
    noise: float = 1.0,
    mean: str | float = "10*sin(2*pi*t)",
) -> dict:
    return {
        "grid": {"m": m},
        "design": {"subjects": n, "measures": J, "replicates": 1},
        "mean": mean,
        "levels": [
            {"eigenvalues": list(lam1), "basis": "fourier"},
            {"eigenvalues": list(lam2), "basis": "fourier"},
        ],
        "noise_variance": noise,
        "seed": seed,
    }


def n2_spec(seed: int, **kwargs) -> GeneratorSpec:
    return spec_from_dict(n2_spec_dict(seed, **kwargs))


def n3_spec_dict(
    seed: int,
    n: int = 100,
    J: int = 2,
    K_rep: int = 20,
    m: int = 101,
    lam1=(4.0, 2.0),
    lam2=(2.0, 1.0),
    lam3=(1.0,),
    noise: float = 0.25,
) -> dict:
    return {
        "grid": {"m": m},
        "design": {"subjects": n, "measures": J, "replicates": K_rep},
        "mean": "5*cos(2*pi*t)",
        "levels": [
            {"eigenvalues": list(lam1), "basis": "fourier"},
            {"eigenvalues": list(lam2), "basis": "fourier"},
            {"eigenvalues": list(lam3), "basis": "fourier"},
        ],
        "noise_variance": noise,
        "seed": seed,
    }


def n3_spec(seed: int, **kwargs) -> GeneratorSpec:
    return spec_from_dict(n3_spec_dict(seed, **kwargs))


def two_level_set(values: np.ndarray, grid: Grid, J: int) -> CurveSet:
    """Rows laid out subject-major with J measures each."""
    n = values.shape[0] // J
    codes = [(i, j, 1) for i in range(1, n + 1) for j in range(1, J + 1)]
    return CurveSet(grid, codes, values)


def eigendecompose_on_grid(S: np.ndarray, grid: Grid) -> EigenSystem:
    """The on-grid reference eigendecomposition of an m x m surface S:
    W^{1/2} S W^{1/2} is decomposed and mapped back by W^{-1/2}, which is
    eigendecompose in the basis W^{-1/2}, orthonormal under the weights W."""
    sqrt_w = np.sqrt(grid.weights)
    return eigendecompose(sqrt_w[:, None] * S * sqrt_w, grid, np.diag(1.0 / sqrt_w))


@pytest.fixture
def uniform_grid() -> Grid:
    return Grid.uniform(101)


@pytest.fixture
def small_grid() -> Grid:
    return Grid.uniform(21)
