"""The eigen layer, and the pooled moments and scores around it.

Pooled rows are laid out as one subject's measures, so the nested
estimators see them as a single sample: the grand mean of measure_means,
the total surface of sigma_T_hat, and the zero-noise BLUP projection.
"""

import numpy as np
import pytest

from mfda.core import CenteringMeans, Curve, CurveSet, Grid
from mfda.errors import (
    AsymmetricMatrixError,
    DegenerateSpectrumError,
    EmptyDataError,
    InsufficientDataError,
    InvalidParameterError,
)
from mfda.fpca import (
    MAX_BASIS,
    PENALTIES,
    EigenSystem,
    SplineBasis,
    bspline_design,
    eigendecompose,
    select_k,
)
from mfda.mfpca import FitConfig, blup_scores, fit_nested, measure_means, sigma_T_hat
from mfda.simkl import fourier_basis, generate

from .conftest import eigendecompose_on_grid, n2_spec, n3_spec


def independent_rows(values: np.ndarray, grid: Grid) -> CurveSet:
    codes = [(1, i + 1, 1) for i in range(values.shape[0])]
    return CurveSet(grid, codes, values)


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
        eig = eigendecompose_on_grid(S, uniform_grid)
        assert eig.eigenvalues[0] == pytest.approx(2.0, rel=0.10)
        assert eig.eigenvalues[1] == pytest.approx(1.0, rel=0.10)

    def test_insufficient_rows(self, small_grid):
        X = independent_rows(np.ones((1, small_grid.size)), small_grid)
        with pytest.raises(InsufficientDataError):
            empirical_covariance(X)


def grids():
    """Every kind of grid Grid accepts: uniform from two points up, and
    irregular ones with clustered points."""
    out = [Grid.uniform(m) for m in (2, 3, 4, 5, 6, 7, 8, 11, 12, 21, 50, 101, 401)]
    rng = np.random.default_rng(3)
    for m in (5, 17, 59, 200):
        out.append(Grid(np.sort(rng.uniform(0.0, 1.0, m))))
    out.append(Grid(np.r_[np.linspace(0.0, 0.05, 40), 0.5, 1.0]))
    return out


class TestSplineBasis:
    @pytest.mark.parametrize("grid", grids(), ids=lambda g: f"m{g.size}")
    def test_design_matches_scipy(self, grid):
        from scipy.interpolate import BSpline

        t = grid.points
        for degree in (1, 2, 3):
            for count in (2, 3, 7):
                # interior knots at grid quantiles, extended past both ends
                inner = np.interp(np.linspace(0, t.size - 1, count),
                                  np.arange(t.size), t)
                steps = np.arange(1, degree + 1)
                knots = np.r_[inner[0] - (inner[1] - inner[0]) * steps[::-1], inner,
                              inner[-1] + (inner[-1] - inner[-2]) * steps]
                ref = BSpline.design_matrix(t, knots, degree).toarray()
                np.testing.assert_allclose(bspline_design(t, knots, degree), ref,
                                           atol=1e-13)

    @pytest.mark.parametrize("grid", grids(), ids=lambda g: f"m{g.size}")
    def test_orthonormal_under_the_weights(self, grid):
        basis = SplineBasis.of(grid)
        F = basis.functions
        c = F.shape[1]
        assert 2 <= c <= min(MAX_BASIS, grid.size)
        np.testing.assert_allclose(F.T @ (grid.weights[:, None] * F), np.eye(c),
                                   atol=1e-9)
        # constants are never penalised, and on a uniform grid (equally
        # spaced knots) neither are straight lines
        uniform = np.allclose(np.diff(grid.points), grid.points[1] - grid.points[0])
        assert np.sum(basis.penalty < 1e-9) >= (2 if uniform else 1)
        line = np.c_[np.ones(grid.size), grid.points]
        coef = F.T @ (grid.weights[:, None] * line)
        np.testing.assert_allclose(F @ coef, line, atol=1e-9)

    def test_basis_size_does_not_grow_with_the_grid(self):
        sizes = {SplineBasis.of(Grid.uniform(m)).functions.shape[1]
                 for m in (90, 101, 401, 801, 2001)}
        assert sizes == {MAX_BASIS}

    def test_gcv_closed_form_matches_direct_residuals(self):
        grid = Grid.uniform(41)
        basis = SplineBasis.of(grid)
        rng = np.random.default_rng(8)
        t = grid.points
        A = rng.normal(0.0, 0.3, (41, 41))
        S = np.outer(np.sin(2 * np.pi * t), np.sin(2 * np.pi * t)) + A + A.T
        lam, C, noise = basis.smooth(S)
        F, w = basis.functions, grid.weights
        Fw = F * w[:, None]
        G = Fw.T @ S @ Fw
        scores = []
        for p in PENALTIES:
            s = 1.0 / (1.0 + p * basis.penalty)
            R = S - F @ (s[:, None] * G * s) @ F.T
            trace = np.sum(s) ** 2
            scores.append(float(w @ (R * R) @ w) / (1.0 - trace / grid.size**2) ** 2)
        assert lam == PENALTIES[int(np.argmin(scores))]
        s = 1.0 / (1.0 + lam * basis.penalty)
        np.testing.assert_allclose(C, s[:, None] * G * s, atol=1e-14)
        assert noise == 0.0



class TestSmoothCovariance:
    """SplineBasis.smooth: the sandwich smooth of one covariance surface."""

    def test_reproduces_constants(self, small_grid):
        S = np.full((small_grid.size, small_grid.size), 3.25)
        basis = SplineBasis.of(small_grid)
        F = basis.functions
        for nugget in (False, True):
            _, C, noise = basis.smooth(S, nugget=nugget)
            np.testing.assert_allclose(F @ C @ F.T, 3.25, rtol=1e-12)
            assert noise == pytest.approx(0.0, abs=1e-9)

    def test_reproduces_straight_lines(self):
        grid = Grid.uniform(31)
        t = grid.points
        S = 3.25 + np.add.outer(t, t)
        basis = SplineBasis.of(grid)
        _, C, noise = basis.smooth(S, nugget=True)
        F = basis.functions
        np.testing.assert_allclose(F @ C @ F.T, S, atol=1e-9)
        assert noise == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_preserved(self, small_grid):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(small_grid.size, small_grid.size))
        _, C, _ = SplineBasis.of(small_grid).smooth(A + A.T, nugget=True)
        np.testing.assert_allclose(C, C.T, atol=1e-12)

    def test_noise_reduction(self, uniform_grid):
        t = uniform_grid.points
        e = np.sqrt(2) * np.sin(2 * np.pi * t)
        truth = np.outer(e, e)
        basis = SplineBasis.of(uniform_grid)
        F = basis.functions
        off = 1.0 - np.eye(truth.shape[0])
        for rep in range(20):
            rng = np.random.default_rng(100 + rep)
            noise = rng.normal(0, 0.1, truth.shape)
            raw = truth + 0.5 * (noise + noise.T)
            _, C, _ = basis.smooth(raw)
            err_smooth = np.max(np.abs((F @ C @ F.T - truth) * off))
            assert err_smooth < np.max(np.abs((raw - truth) * off))

    def test_nugget_recovered_from_the_diagonal(self):
        grid = Grid.uniform(101)
        e = np.sqrt(2) * np.sin(2 * np.pi * grid.points)
        truth = 2.0 * np.outer(e, e)
        basis = SplineBasis.of(grid)
        _, C, noise = basis.smooth(truth + 0.5 * np.eye(101), nugget=True)
        assert noise == pytest.approx(0.5, rel=1e-3)
        F = basis.functions
        assert np.max(np.abs(F @ C @ F.T - truth)) < 1e-2

    @pytest.mark.parametrize("m", [3, 5, 11, 21, 101, 401])
    @pytest.mark.parametrize("penalty", [0.015, 0.05, 0.2])
    def test_matches_two_product_reference(self, m, penalty):
        # the coefficient-space smooth at a penalty against the literal
        # P-spline smoother H = B (B'WB + lam D'D)^-1 B'W applied on both
        # sides, with B from scipy and D the second-difference matrix
        from scipy.interpolate import BSpline

        grid = Grid.uniform(m)
        t, w = grid.points, grid.weights
        c = max(min(m, 4), min(MAX_BASIS, m // 3))
        degree = min(3, c - 1)
        h = 1.0 / (c - degree)
        knots = np.linspace(-degree * h, 1.0 + degree * h, c + degree + 1)
        B = BSpline.design_matrix(t, knots, degree).toarray()
        D = np.diff(np.eye(c), 2, axis=0)
        H = B @ np.linalg.solve(B.T @ (w[:, None] * B) + penalty * D.T @ D, B.T * w)
        rng = np.random.default_rng(m)
        A = rng.uniform(0.0, 1.0, (m, m))
        S = 2.0 + np.outer(t, t) + A + A.T
        basis = SplineBasis.of(grid)
        F = basis.functions
        s = 1.0 / (1.0 + penalty * basis.penalty)
        G = (F * w[:, None]).T @ S @ (F * w[:, None])
        np.testing.assert_allclose(F @ (s[:, None] * G * s) @ F.T, H @ S @ H.T,
                                   rtol=1e-9, atol=1e-9)


class TestEigendecompose:
    def test_coefficient_matrix_matches_dense_surface(self, uniform_grid):
        basis = SplineBasis.of(uniform_grid).functions
        rng = np.random.default_rng(4)
        A = rng.normal(size=(basis.shape[1], 3))
        C = A @ A.T - 0.1 * np.eye(basis.shape[1])  # three positive, rest negative
        small = eigendecompose(C, uniform_grid, basis)
        dense = eigendecompose_on_grid(basis @ C @ basis.T, uniform_grid)
        assert small.n_components == 3
        np.testing.assert_allclose(small.eigenvalues, dense.eigenvalues[:3], rtol=1e-10)
        np.testing.assert_allclose(small.functions, dense.functions[:, :3], atol=1e-8)

    def test_coefficient_matrix_shape_checked(self, small_grid):
        basis = SplineBasis.of(small_grid).functions
        with pytest.raises(AsymmetricMatrixError):
            eigendecompose(np.eye(small_grid.size), small_grid, basis)

    def test_scaled_identity_in_weighted_coordinates(self):
        grid = Grid.uniform(11)
        h = 0.1
        S = from_weighted(h * np.eye(grid.size), grid)
        eig = eigendecompose_on_grid(S, grid)
        np.testing.assert_allclose(eig.eigenvalues, h)
        gram = eig.functions.T @ (grid.weights[:, None] * eig.functions)
        np.testing.assert_allclose(gram, np.eye(grid.size), atol=1e-8)

    def test_negative_pair_trimmed(self):
        grid = Grid.uniform(2)
        S = from_weighted(np.diag([2.0, -1.0]), grid)
        eig = eigendecompose_on_grid(S, grid)
        assert eig.n_components == 1
        np.testing.assert_allclose(eig.eigenvalues, [2.0])

    def test_rank_one(self, small_grid):
        rng = np.random.default_rng(11)
        v = rng.normal(size=small_grid.size)
        S = np.outer(v, v)
        eig = eigendecompose_on_grid(S, small_grid)
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
            eigendecompose_on_grid(S, small_grid)

    def test_retained_plus_trimmed_is_m(self, small_grid):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(small_grid.size, small_grid.size))
        S = 0.5 * (A + A.T)  # indefinite
        eig = eigendecompose_on_grid(S, small_grid)
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
        eig = eigendecompose_on_grid(S, small_grid)
        rebuilt = (eig.functions * eig.eigenvalues) @ eig.functions.T
        assert np.linalg.norm(rebuilt - S) < 1e-6 * np.linalg.norm(S)

    def test_deterministic(self, small_grid):
        rng = np.random.default_rng(55)
        B = rng.normal(size=(small_grid.size, 3))
        S = B @ B.T
        a = eigendecompose_on_grid(S, small_grid)
        b = eigendecompose_on_grid(S, small_grid)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.functions, b.functions)

    def test_sign_convention(self, small_grid):
        v = -np.abs(np.linspace(1, 2, small_grid.size))  # all negative
        S = np.outer(v, v)
        eig = eigendecompose_on_grid(S, small_grid)
        peak = np.argmax(np.abs(eig.functions[:, 0]))
        assert eig.functions[peak, 0] > 0


class TestEigenSystem:
    @pytest.mark.parametrize("eigenvalues, functions, field", [
        ([2.0, np.nan], None, "eigenvalues"),
        ([np.inf, 1.0], None, "eigenvalues"),
        ([1.0, 2.0], None, "eigenvalues"),
        ([1.0, -1.0], None, "eigenvalues"),
        ([1.0], None, "eigenvalues"),
        ([2.0, 1.0], np.nan, "functions"),
        ([2.0, 1.0], "short", "functions"),
    ])
    def test_refusal_names_the_field_at_fault(self, small_grid, eigenvalues, functions, field):
        funcs = fourier_basis(small_grid, 2)
        if functions == "short":
            funcs = funcs[1:]
        elif functions is not None:
            funcs[3, 1] = functions
        with pytest.raises(ValueError) as err:
            EigenSystem(small_grid, np.array(eigenvalues), funcs)
        assert (err.value.field, err.value.level) == (field, None)

    def test_holds_read_only_copies_of_the_callers_arrays(self, small_grid):
        lam, funcs = np.array([2.0, 1.0]), fourier_basis(small_grid, 2)
        eig = EigenSystem(small_grid, lam, funcs)
        lam[0], funcs[0, 0] = 3.0, 7.0
        assert eig.eigenvalues.tolist() == [2.0, 1.0] and eig.functions[0, 0] != 7.0
        assert not (eig.eigenvalues.flags.writeable or eig.functions.flags.writeable)


class TestSelectK:
    def test_examples(self, small_grid):
        def eig_of(lam):
            lam = np.asarray(lam, dtype=float)
            funcs = fourier_basis(small_grid, lam.size)
            return EigenSystem(small_grid, lam, funcs)

        assert select_k(eig_of([9.0, 1.0]), 0.9) == 1
        assert select_k(eig_of([5.0, 3.0, 2.0]), 0.8) == 2
        assert select_k(eig_of([1.0, 1.0, 1.0, 1.0]), 0.95) == 4

    def test_degenerate(self, small_grid):
        eig = EigenSystem(small_grid, np.zeros(2), fourier_basis(small_grid, 2))
        with pytest.raises(DegenerateSpectrumError):
            select_k(eig, 0.9)

    def test_bad_threshold(self, small_grid):
        eig = EigenSystem(small_grid, np.ones(1), fourier_basis(small_grid, 1))
        with pytest.raises(InvalidParameterError):
            select_k(eig, 0.0)


class TestProjectScores:
    """blup_scores without noise: curves in the span get their coordinates."""

    @staticmethod
    def _eigs(grid, lam):
        lam = np.asarray(lam, dtype=float)
        basis = fourier_basis(grid, lam.size)
        empty = EigenSystem(grid, np.zeros(0), np.zeros((grid.size, 0)))
        return EigenSystem(grid, lam, basis), empty

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
        return EigenSystem(grid, lam, fourier_basis(grid, 2))

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
