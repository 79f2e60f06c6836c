"""The eigen layer, and the pooled moments and scores around it.

Pooled rows are laid out as one subject's measures, so the nested
estimators see them as a single sample: the grand mean of measure_means,
the total surface of sigma_T_hat, and the zero-noise BLUP projection.
"""

import numpy as np
import pytest

from mfda.core import CenteringMeans, Curve, CurveSet, Grid, NestedIndex
from mfda.errors import (
    AsymmetricMatrixError,
    DegenerateSpectrumError,
    EmptyDataError,
    InsufficientDataError,
    InvalidParameterError,
)
from mfda.fpca import (
    EigenSystem,
    eigendecompose,
    select_k,
    smooth_covariance,
)
from mfda.mfpca import FitConfig, blup_scores, fit_nested, measure_means, sigma_T_hat
from mfda.simkl import fourier_basis, generate

from .conftest import n2_spec, n3_spec


def independent_rows(values: np.ndarray, grid: Grid) -> CurveSet:
    index = tuple(NestedIndex(1, i + 1) for i in range(values.shape[0]))
    return CurveSet(grid, index, values)


def mean_curve(X: CurveSet) -> Curve:
    return measure_means(X, center_measures=False).global_mean


def empirical_covariance(X: CurveSet) -> np.ndarray:
    return sigma_T_hat(X, measure_means(X, center_measures=False))


def kl_sample(grid: Grid, lam, n: int, seed: int) -> CurveSet:
    """Independent KL draws: sum_k sqrt(lam_k) z_ik e_k(t)."""
    basis = fourier_basis(grid, len(lam))
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, len(lam))) * np.sqrt(lam)
    return independent_rows(scores @ basis.T, grid)


def from_weighted(A: np.ndarray, grid: Grid) -> np.ndarray:
    """Surface whose weighted form W^{1/2} S W^{1/2} equals A."""
    inv_sqrt_w = 1.0 / np.sqrt(grid.weights)
    return inv_sqrt_w[:, None] * A * inv_sqrt_w[None, :]


class TestMeanCurve:
    def test_zero_rows(self, small_grid):
        X = independent_rows(np.zeros((2, small_grid.size)), small_grid)
        np.testing.assert_array_equal(mean_curve(X).values, 0.0)

    def test_symmetry(self):
        grid = Grid.uniform(3)
        X = independent_rows(np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]), grid)
        np.testing.assert_allclose(mean_curve(X).values, [2.0, 2.0, 2.0])

    def test_monte_carlo_consistency(self, uniform_grid):
        t = uniform_grid.points
        mu = np.sin(2 * np.pi * t)
        rng = np.random.default_rng(20260811)
        X = independent_rows(
            mu + rng.normal(0, 1, (1000, uniform_grid.size)), uniform_grid
        )
        assert np.max(np.abs(mean_curve(X).values - mu)) < 0.1

    def test_empty_error(self, small_grid):
        X = CurveSet(small_grid, (), np.zeros((0, small_grid.size)))
        with pytest.raises(EmptyDataError):
            mean_curve(X)


class TestEmpiricalCovariance:
    def test_two_point_toy(self):
        grid = Grid.uniform(2)
        X = independent_rows(np.array([[1.0, -1.0], [-1.0, 1.0]]), grid)
        S = empirical_covariance(X)
        np.testing.assert_allclose(S, [[1.0, -1.0], [-1.0, 1.0]])

    def test_constant_rows(self, small_grid):
        X = independent_rows(np.ones((5, small_grid.size)), small_grid)
        S = empirical_covariance(X)
        np.testing.assert_allclose(S, 0.0, atol=1e-14)

    def test_kl_eigenvalue_recovery(self, uniform_grid):
        X = kl_sample(uniform_grid, [2.0, 1.0], n=2000, seed=99)
        S = empirical_covariance(X)
        eig = eigendecompose(S, uniform_grid)
        assert eig.eigenvalues[0] == pytest.approx(2.0, rel=0.10)
        assert eig.eigenvalues[1] == pytest.approx(1.0, rel=0.10)

    def test_insufficient_rows(self, small_grid):
        X = independent_rows(np.ones((1, small_grid.size)), small_grid)
        with pytest.raises(InsufficientDataError):
            empirical_covariance(X)


class TestSmoothCovariance:
    def test_reproduces_constants(self, small_grid):
        S = np.full((small_grid.size, small_grid.size), 3.25)
        sm = smooth_covariance(S, small_grid, bandwidth=0.07)
        np.testing.assert_allclose(sm, 3.25, rtol=1e-12)

    def test_symmetry_preserved(self, small_grid):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(small_grid.size, small_grid.size))
        S = A + A.T
        sm = smooth_covariance(S, small_grid, bandwidth=0.1)
        np.testing.assert_allclose(sm, sm.T)

    def test_noise_reduction(self, uniform_grid):
        t = uniform_grid.points
        e = np.sqrt(2) * np.sin(2 * np.pi * t)
        truth = np.outer(e, e)
        wins = 0
        for rep in range(20):
            rng = np.random.default_rng(100 + rep)
            noise = rng.normal(0, 0.1, truth.shape)
            raw = truth + 0.5 * (noise + noise.T)
            sm = smooth_covariance(raw, uniform_grid, bandwidth=0.02)
            off = 1.0 - np.eye(truth.shape[0])
            err_raw = np.max(np.abs((raw - truth) * off))
            err_smooth = np.max(np.abs((sm - truth) * off))
            wins += err_smooth < err_raw
        assert wins == 20

    def test_bad_bandwidth(self, small_grid):
        S = np.eye(small_grid.size)
        with pytest.raises(InvalidParameterError):
            smooth_covariance(S, small_grid, bandwidth=0.0)

    def test_asymmetric_rejected(self, small_grid):
        S = np.zeros((small_grid.size, small_grid.size))
        S[0, 1] = 1.0
        with pytest.raises(AsymmetricMatrixError):
            smooth_covariance(S, small_grid, bandwidth=0.05)

    @pytest.mark.parametrize("m", [3, 5, 11, 21, 101, 401])
    @pytest.mark.parametrize("bandwidth", [0.015, 0.05, 0.2])
    def test_matches_two_product_reference(self, m, bandwidth):
        # the surface divided by the off-diagonal kernel mass K @ off @ K.T,
        # formed literally with two matrix products
        grid = Grid.uniform(m)
        t = grid.points
        rng = np.random.default_rng(m)
        A = rng.uniform(0.0, 1.0, (m, m))
        S = 2.0 + np.outer(t, t) + A + A.T
        K = np.exp(-0.5 * ((t[:, None] - t[None, :]) / bandwidth) ** 2)
        off = 1.0 - np.eye(m)
        ref = (K @ (S * off) @ K.T) / (K @ off @ K.T)
        np.testing.assert_allclose(
            smooth_covariance(S, grid, bandwidth), 0.5 * (ref + ref.T), rtol=1e-13
        )

    def test_bandwidth_below_grid_resolution_rejected(self):
        grid = Grid.uniform(2)  # spacing 1.0; kernel weights underflow
        S = np.eye(2)
        with pytest.raises(InvalidParameterError):
            smooth_covariance(S, grid, bandwidth=0.015)


class TestEigendecompose:
    def test_scaled_identity_in_weighted_coordinates(self):
        grid = Grid.uniform(11)
        h = 0.1
        S = from_weighted(h * np.eye(grid.size), grid)
        eig = eigendecompose(S, grid)
        np.testing.assert_allclose(eig.eigenvalues, h)
        gram = eig.functions.T @ (grid.weights[:, None] * eig.functions)
        np.testing.assert_allclose(gram, np.eye(grid.size), atol=1e-8)

    def test_negative_pair_trimmed(self):
        grid = Grid.uniform(2)
        S = from_weighted(np.diag([2.0, -1.0]), grid)
        eig = eigendecompose(S, grid)
        assert eig.n_components == 1
        np.testing.assert_allclose(eig.eigenvalues, [2.0])

    def test_rank_one(self, small_grid):
        rng = np.random.default_rng(11)
        v = rng.normal(size=small_grid.size)
        S = np.outer(v, v)
        eig = eigendecompose(S, small_grid)
        positive = eig.eigenvalues[eig.eigenvalues > 1e-10]
        quad_norm_sq = float(np.sum(small_grid.weights * v * v))
        assert positive.size == 1
        assert positive[0] == pytest.approx(quad_norm_sq, rel=1e-10)
        e_hat = eig.functions[:, 0]
        v_normalized = v / np.sqrt(quad_norm_sq)
        if v_normalized[np.argmax(np.abs(v_normalized))] < 0:
            v_normalized = -v_normalized
        np.testing.assert_allclose(e_hat, v_normalized, atol=1e-10)

    def test_asymmetric_rejected(self, small_grid):
        S = np.zeros((small_grid.size, small_grid.size))
        S[0, 1] = 1.0
        with pytest.raises(AsymmetricMatrixError):
            eigendecompose(S, small_grid)

    def test_retained_plus_trimmed_is_m(self, small_grid):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(small_grid.size, small_grid.size))
        S = 0.5 * (A + A.T)  # indefinite
        eig = eigendecompose(S, small_grid)
        evals = np.linalg.eigvalsh(
            np.sqrt(small_grid.weights)[:, None]
            * S
            * np.sqrt(small_grid.weights)[None, :]
        )
        assert eig.n_components == int(np.sum(evals >= 0))

    def test_psd_part_reassembly(self, small_grid):
        rng = np.random.default_rng(31)
        B = rng.normal(size=(small_grid.size, 4))
        S = B @ B.T  # PSD input
        eig = eigendecompose(S, small_grid)
        rebuilt = (eig.functions * eig.eigenvalues) @ eig.functions.T
        assert np.linalg.norm(rebuilt - S) < 1e-6 * np.linalg.norm(S)

    def test_deterministic(self, small_grid):
        rng = np.random.default_rng(55)
        B = rng.normal(size=(small_grid.size, 3))
        S = B @ B.T
        a = eigendecompose(S, small_grid)
        b = eigendecompose(S, small_grid)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.functions, b.functions)

    def test_sign_convention(self, small_grid):
        v = -np.abs(np.linspace(1, 2, small_grid.size))  # all negative
        S = np.outer(v, v)
        eig = eigendecompose(S, small_grid)
        peak = np.argmax(np.abs(eig.functions[:, 0]))
        assert eig.functions[peak, 0] > 0


class TestSelectK:
    def test_examples(self, small_grid):
        def eig_of(lam):
            lam = np.asarray(lam, dtype=float)
            funcs = fourier_basis(small_grid, lam.size)
            return EigenSystem(
                small_grid, lam, funcs, np.cumsum(lam) / lam.sum()
            )

        assert select_k(eig_of([9.0, 1.0]), 0.9) == 1
        assert select_k(eig_of([5.0, 3.0, 2.0]), 0.8) == 2
        assert select_k(eig_of([1.0, 1.0, 1.0, 1.0]), 0.95) == 4

    def test_degenerate(self, small_grid):
        eig = EigenSystem(
            small_grid,
            np.zeros(2),
            fourier_basis(small_grid, 2),
            np.zeros(2),
        )
        with pytest.raises(DegenerateSpectrumError):
            select_k(eig, 0.9)

    def test_bad_threshold(self, small_grid):
        eig = EigenSystem(
            small_grid,
            np.ones(1),
            fourier_basis(small_grid, 1),
            np.ones(1),
        )
        with pytest.raises(InvalidParameterError):
            select_k(eig, 0.0)


class TestProjectScores:
    """blup_scores without noise: curves in the span get their coordinates."""

    @staticmethod
    def _eigs(grid, lam):
        lam = np.asarray(lam, dtype=float)
        basis = fourier_basis(grid, lam.size)
        empty = EigenSystem(grid, np.zeros(0), np.zeros((grid.size, 0)), np.zeros(0))
        return EigenSystem(grid, lam, basis, np.cumsum(lam) / lam.sum()), empty

    def test_exact_eigenfunction(self, uniform_grid):
        eigs = self._eigs(uniform_grid, [3.0, 2.0, 1.0])
        mean = Curve(uniform_grid, np.zeros(uniform_grid.size))
        X = independent_rows(np.tile(eigs[0].functions[:, 0], (2, 1)), uniform_grid)
        scores = blup_scores(X, CenteringMeans(mean), eigs, 0.0)
        np.testing.assert_allclose(scores[0], [[1.0, 0.0, 0.0]], atol=1e-8)

    def test_mean_rows_give_zero(self, uniform_grid):
        mu = np.linspace(0, 1, uniform_grid.size)
        eigs = self._eigs(uniform_grid, [1.0, 1.0])
        X = independent_rows(np.tile(mu, (3, 1)), uniform_grid)
        scores = blup_scores(X, CenteringMeans(Curve(uniform_grid, mu)), eigs, 0.0)
        np.testing.assert_allclose(scores[0], 0.0, atol=1e-12)


class TestReconstruct:
    """EigenSystem.truncated: the K leading components a fit keeps."""

    @staticmethod
    def _eig(grid):
        lam = np.array([2.0, 1.0])
        return EigenSystem(grid, lam, fourier_basis(grid, 2), np.cumsum(lam) / 3.0)

    def test_k_zero_returns_mean(self, uniform_grid):
        # a level that keeps no components adds nothing to the mean
        none = self._eig(uniform_grid).truncated(0)
        assert none.functions.shape == (uniform_grid.size, 0)
        np.testing.assert_array_equal(none.variance_curve(), 0.0)

    def test_k_out_of_range(self, uniform_grid):
        eig = self._eig(uniform_grid)
        for k in (-1, eig.n_components + 1):
            with pytest.raises(InvalidParameterError):
                eig.truncated(k)


class TestFitProperties:
    def test_score_variance_approaches_eigenvalue(self):
        X, _ = generate(n2_spec(123, n=500, J=4, m=41))
        fit = fit_nested(X, FitConfig(levels=2, pve=0.95))
        top_var = float(np.var(fit.scores[0][:, 0]))
        assert top_var == pytest.approx(4.0, rel=0.15)

    def test_score_columns_centered(self):
        X, _ = generate(n2_spec(17, n=50, J=4, m=41))
        fit = fit_nested(X, FitConfig(levels=2, pve=0.95))
        for eig, scores in zip(fit.level_eig, fit.scores):
            n = scores.shape[0]
            for a in range(eig.n_components):
                bound = 3.0 * np.sqrt(max(eig.eigenvalues[a], 1e-12) / n)
                assert abs(scores[:, a].mean()) <= bound

    def test_bitwise_deterministic(self):
        X, _ = generate(n3_spec(21, n=10, J=2, K_rep=3, m=21))
        a = fit_nested(X, FitConfig(levels=3))
        b = fit_nested(X, FitConfig(levels=3))
        assert a.noise_variance == b.noise_variance
        for sa, sb, ea, eb in zip(a.scores, b.scores, a.level_eig, b.level_eig):
            assert np.array_equal(sa, sb)
            assert np.array_equal(ea.eigenvalues, eb.eigenvalues)
            assert np.array_equal(ea.functions, eb.functions)

    def test_noise_estimation_requested(self):
        X, _ = generate(n3_spec(29, n=40, J=2, K_rep=5, m=41, noise=1.0))
        fit = fit_nested(X, FitConfig(levels=3))
        assert 0.5 < fit.noise_variance < 1.5
