"""Multilevel estimators against brute-force oracles and simulations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mfda.core import CenteringMeans, Curve, CurveSet, Grid
from mfda.errors import (
    GridMismatchError,
    InsufficientDataError,
    InvalidParameterError,
    MissingMeanError,
    SingularSystemError,
    UnbalancedDesignError,
)
import mfda.mfpca
from mfda.core import center_rows
from mfda.fpca import EigenSystem, SplineBasis
from mfda.ingest import write_fit
from mfda.mfpca import (
    FitConfig,
    blup_scores,
    canonical_design,
    fit_nested,
    measure_means,
    sigma_B_hat,
    sigma_T_hat,
    three_level_covariances,
)
from mfda.simkl import fourier_basis, generate

from .conftest import eigendecompose_on_grid, n2_spec, n3_spec, two_level_set


def zero_means(grid: Grid) -> CenteringMeans:
    return CenteringMeans(Curve(grid, np.zeros(grid.size)), {})


def three_level_set(values: np.ndarray, grid: Grid, J: int, K: int) -> CurveSet:
    n = values.shape[0] // (J * K)
    codes = [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(1, J + 1)
        for k in range(1, K + 1)
    ]
    return CurveSet(grid, codes, values)


def level_surfaces(cov) -> tuple[np.ndarray, ...]:
    """The smoothed level surfaces of a LevelCovariances on the grid."""
    F = cov.basis.functions
    return tuple(F @ C @ F.T for C in cov.coef)


# -- independent brute-force oracles (plain loops, no shared code paths) -----


def brute_sigma_T(rows: np.ndarray) -> np.ndarray:
    m = rows.shape[1]
    acc = np.zeros((m, m))
    for r in rows:
        acc += np.outer(r, r)
    return acc / rows.shape[0]


def brute_sigma_B(rows: np.ndarray, n: int, J: int) -> np.ndarray:
    m = rows.shape[1]
    acc = np.zeros((m, m))
    for i in range(n):
        for j in range(J):
            for jp in range(J):
                if jp == j:
                    continue
                acc += np.outer(rows[i * J + j], rows[i * J + jp])
    return acc / (n * J * (J - 1))


def brute_h_surfaces(rv: np.ndarray):
    n, J, K, m = rv.shape
    h1 = np.zeros((m, m))
    h2 = np.zeros((m, m))
    h3 = np.zeros((m, m))
    for i in range(n):
        for j in range(J):
            for k in range(K):
                h3 += np.outer(rv[i, j, k], rv[i, j, k])
                for kp in range(K):
                    if kp != k:
                        h2 += np.outer(rv[i, j, k], rv[i, j, kp])
                for jp in range(J):
                    if jp == j:
                        continue
                    for kp in range(K):
                        h1 += np.outer(rv[i, j, k], rv[i, jp, kp])
    h1 /= n * J * (J - 1) * K * K
    h2 /= n * J * K * (K - 1)
    h3 /= n * J * K
    return h1, h2, h3


def _reference_blup(X, means, level_eig, noise_variance):
    """The BLUP with an explicit joint basis B and one solve per subject."""
    levels = len(level_eig)
    rv, n, J, K_rep = canonical_design(center_rows(X, means), levels=levels)
    units = [1, J, J * K_rep][:levels]
    blocks = [
        np.tile(level_eig[0].functions, (J * K_rep, 1)),
        np.kron(np.eye(J), np.tile(level_eig[1].functions, (K_rep, 1))),
    ]
    if levels == 3:
        blocks.append(np.kron(np.eye(J * K_rep), level_eig[2].functions))
    B = np.hstack(blocks)
    lam = np.concatenate(
        [np.tile(level_eig[l].eigenvalues, units[l]) for l in range(levels)]
    )
    positive = lam > 0
    A = B[:, positive] * np.sqrt(lam[positive])
    q = A.shape[1]
    out = [
        np.zeros((n * units[l], level_eig[l].n_components)) for l in range(levels)
    ]
    if q == 0:
        return out
    if noise_variance == 0 and np.linalg.matrix_rank(A) < q:
        raise SingularSystemError("collinear score basis")
    for i in range(n):
        y = rv[i].reshape(-1)
        if noise_variance > 0:
            gram = A.T @ A + noise_variance * np.eye(q)
            coef = np.linalg.solve(gram, A.T @ y)
        else:
            coef = np.linalg.pinv(A) @ y
        s = np.zeros(lam.size)
        s[positive] = np.sqrt(lam[positive]) * coef
        start = 0
        for l in range(levels):
            k = level_eig[l].n_components
            stop = start + units[l] * k
            out[l][i * units[l] : (i + 1) * units[l]] = s[start:stop].reshape(
                units[l], k
            )
            start = stop
    return out


class TestMeasureMeans:
    def test_identical_rows(self, small_grid):
        X = two_level_set(np.ones((6, small_grid.size)), small_grid, J=2)
        means = measure_means(X)
        for eff in means.measure_effects.values():
            np.testing.assert_allclose(eff.values, 0.0, atol=1e-14)

    def test_symmetric_groups(self, small_grid):
        c = np.linspace(1, 2, small_grid.size)
        rows = np.array([c, -c, c, -c])  # measures 1, 2 per subject
        X = two_level_set(rows, small_grid, J=2)
        means = measure_means(X)
        np.testing.assert_allclose(means.measure_effects[1].values, c)
        np.testing.assert_allclose(means.measure_effects[2].values, -c)

    def test_weighted_effects_sum_to_zero(self, small_grid):
        rng = np.random.default_rng(8)
        X = two_level_set(rng.normal(size=(30, small_grid.size)), small_grid, J=3)
        means = measure_means(X)
        total = sum(eff.values for eff in means.measure_effects.values())
        np.testing.assert_allclose(total, 0.0, atol=1e-10)

    def test_monte_carlo_recovery(self):
        spec_dict = {
            "grid": {"m": 51},
            "design": {"subjects": 500, "measures": 2, "replicates": 1},
            "mean": "sin(2*pi*t)",
            "measure_means": ["0.8*cos(2*pi*t)", "-0.8*cos(2*pi*t)"],
            "levels": [
                {"eigenvalues": [1.0], "basis": "fourier"},
                {"eigenvalues": [0.5], "basis": "fourier"},
            ],
            "noise_variance": 0.5,
            "seed": 404,
        }
        from mfda.simkl import spec_from_dict

        spec = spec_from_dict(spec_dict)
        X, _ = generate(spec)
        means = measure_means(X)
        t = spec.grid.points
        for j, sign in ((1, 1.0), (2, -1.0)):
            err = np.max(
                np.abs(
                    means.measure_effects[j].values - sign * 0.8 * np.cos(2 * np.pi * t)
                )
            )
            assert err < 0.1


class TestSigmaEstimators:
    def test_sigma_T_zero_rows(self, small_grid):
        X = two_level_set(np.zeros((4, small_grid.size)), small_grid, J=2)
        S = sigma_T_hat(X, zero_means(small_grid))
        np.testing.assert_array_equal(S, 0.0)

    def test_sigma_T_single_subject_toy(self):
        grid = Grid.uniform(3)
        r = np.array([1.0, -0.5, 0.25])
        X = two_level_set(np.array([r, -r]), grid, J=2)
        S = sigma_T_hat(X, zero_means(grid))
        np.testing.assert_allclose(S, np.outer(r, r))

    def test_sigma_T_matches_brute_force(self, small_grid):
        spec = n2_spec(606, n=5, J=3, m=small_grid.size)
        X, _ = generate(spec)
        means = measure_means(X)
        S = sigma_T_hat(X, means)
        from mfda.core import center_rows

        centered = center_rows(X, means)
        oracle = brute_sigma_T(centered.values)
        assert np.max(np.abs(S - oracle)) < 1e-12

    def test_means_on_another_grid_rejected(self, small_grid):
        X, _ = generate(n2_spec(608, n=4, J=2, m=small_grid.size))
        other = Grid.uniform(small_grid.size + 1)
        with pytest.raises(GridMismatchError):
            sigma_T_hat(X, zero_means(other))

    def test_missing_measure_effect_rejected(self, small_grid):
        X, _ = generate(n2_spec(609, n=4, J=2, m=small_grid.size))
        zero = Curve(small_grid, np.zeros(small_grid.size))
        with pytest.raises(MissingMeanError, match="measure 2"):
            sigma_T_hat(X, CenteringMeans(zero, {1: zero}))

    def test_sigma_B_equals_sigma_T_when_no_within_variation(self, small_grid):
        # identical rows within subject, dyadic values so sums are exact
        rng = np.random.default_rng(2)
        base = rng.integers(-4, 5, size=(3, small_grid.size)) / 4.0
        rows = np.repeat(base, 2, axis=0)  # J = 2 identical rows per subject
        X = two_level_set(rows, small_grid, J=2)
        means = zero_means(small_grid)
        np.testing.assert_array_equal(
            sigma_B_hat(X, means), sigma_T_hat(X, means)
        )

    def test_sigma_B_matches_brute_force(self, small_grid):
        spec = n2_spec(607, n=5, J=3, m=small_grid.size)
        X, _ = generate(spec)
        means = measure_means(X)
        S = sigma_B_hat(X, means)
        from mfda.core import center_rows

        centered = center_rows(X, means)
        oracle = brute_sigma_B(centered.values, n=5, J=3)
        assert np.max(np.abs(S - oracle)) < 1e-12

    def test_sigma_B_null_monte_carlo(self):
        reps = []
        for rep in range(50):
            spec = n2_spec(
                700 + rep, n=400, J=2, m=11, lam1=(0.0,), lam2=(2.0, 1.0), noise=0.0
            )
            X, _ = generate(spec)
            reps.append(sigma_B_hat(X, measure_means(X)))
        reps = np.asarray(reps)
        mean_b = reps.mean(axis=0)
        sd = reps.std(axis=0, ddof=1)
        assert np.all(np.abs(mean_b) <= 3.0 * sd)

    def test_sigma_B_rank_one_recovery(self):
        spec = n2_spec(
            913, n=1000, J=2, m=21, lam1=(2.0,), lam2=(0.0,), noise=0.0
        )
        X, _ = generate(spec)
        S = sigma_B_hat(X, measure_means(X))
        e = spec.levels[0].functions[:, 0]
        truth = 2.0 * np.outer(e, e)
        rel = np.linalg.norm(S - truth) / np.linalg.norm(truth)
        assert rel < 0.10

    def test_sigma_B_insufficient_measures(self, small_grid):
        X = CurveSet(small_grid, [(1, 1, 1), (2, 1, 1)], np.zeros((2, small_grid.size)))
        with pytest.raises(InsufficientDataError):
            sigma_B_hat(X, zero_means(small_grid))

    def test_sigma_W_difference_and_trimming(self):
        # one subject, two measures: total diag(1, 1), between diag(1, -1)
        grid = Grid.uniform(2)
        X = two_level_set(np.array([[1.0, 1.0], [1.0, -1.0]]), grid, J=2)
        means = zero_means(grid)
        s_W = sigma_T_hat(X, means) - sigma_B_hat(X, means)
        np.testing.assert_array_equal(s_W, [[0.0, 0.0], [0.0, 2.0]])
        # eigendecomposition in pre-weighted coordinates keeps only (1, e2)
        inv_sqrt_w = 1.0 / np.sqrt(grid.weights)
        S = inv_sqrt_w[:, None] * np.diag([-1.0, 1.0]) * inv_sqrt_w[None, :]
        eig = eigendecompose_on_grid(S, grid)
        assert eig.n_components == 1
        np.testing.assert_allclose(eig.eigenvalues, [1.0])

    def test_sigma_W_eigenvalue_recovery(self):
        spec = n2_spec(41, n=500, J=4, m=41, noise=0.0)
        X, _ = generate(spec)
        means = measure_means(X)
        s_W = sigma_T_hat(X, means) - sigma_B_hat(X, means)
        eig = eigendecompose_on_grid(s_W, X.grid)
        np.testing.assert_allclose(eig.eigenvalues[0], 2.0, rtol=0.15)
        np.testing.assert_allclose(eig.eigenvalues[1], 1.0, rtol=0.15)

    def test_unbiasedness_desk_scale(self):
        reps = []
        n = 50
        for rep in range(200):
            spec = n2_spec(5000 + rep, n=n, J=2, m=21, noise=1.0)
            X, _ = generate(spec)
            reps.append(sigma_B_hat(X, measure_means(X)))
        reps = np.asarray(reps)
        mean_b = reps.mean(axis=0)
        mc_se = reps.std(axis=0, ddof=1) / np.sqrt(len(reps))
        spec = n2_spec(0, n=n, J=2, m=21)
        E = spec.levels[0].functions
        truth = (E * np.array([4.0, 2.0])) @ E.T
        # mean-centering deflates the exact sampling mean by (1 - 1/n);
        # 200 replicates resolve that factor, so compare against it
        expected = (1.0 - 1.0 / n) * truth
        assert np.all(np.abs(mean_b - expected) <= 3.0 * mc_se)


class TestSandwich:
    def test_total_design_equals_sigma_T_grand_mean_only(self, small_grid):
        spec = n2_spec(11, n=4, J=2, m=small_grid.size)
        X, _ = generate(spec)
        means = measure_means(X, center_measures=False)
        S = sigma_T_hat(X, means)
        # sandwich form X^T G X with the total design G = (I - 11^T/N)/N
        N = len(X)
        G = (np.eye(N) - np.full((N, N), 1.0 / N)) / N
        assert np.max(np.abs(S - X.values.T @ G @ X.values)) < 1e-12

    def test_symmetric_design_gives_symmetric_output(self, small_grid):
        # the between surface is the sandwich of a symmetric design, so it is
        # returned exactly symmetric, as eigendecompose requires
        rng = np.random.default_rng(7)
        X = two_level_set(rng.normal(size=(12, small_grid.size)), small_grid, J=3)
        S = sigma_B_hat(X, measure_means(X))
        np.testing.assert_array_equal(S, S.T)


class TestMomentSurfaces:
    @pytest.mark.parametrize("levels", [2, 3])
    def test_every_surface_equals_its_transpose_bit_for_bit(self, levels):
        # a Gram x'x is exactly symmetric, and so are the differences and
        # quotients the surfaces are formed from in place, which is why no
        # symmetrising copy is taken
        spec = (n2_spec(31, n=12, J=3, m=201) if levels == 2
                else n3_spec(31, n=6, J=3, K_rep=4, m=201))
        X, _ = generate(spec)
        rv = mfda.mfpca._centred_design(X, measure_means(X), levels)
        surfaces = mfda.mfpca._moment_surfaces(rv)
        assert len(surfaces) == levels
        for surface in surfaces:
            assert np.array_equal(surface, surface.T)

    def test_fit_holds_three_surfaces_and_two_copies_of_the_data(self):
        # tracemalloc counts numpy's allocations exactly: the H surfaces and
        # one K buffer, the canonical copy of the data and nothing grid-squared
        # beyond them; the untraced first fit pays the lazy imports
        m = 401
        X, _ = generate(n2_spec(5, n=30, J=4, m=m))
        fit_nested(X)
        tracemalloc.start()
        try:
            fit_nested(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * m * m * 8 + 2 * X.values.nbytes


class TestThreeLevelCovariances:
    def test_identical_rows_make_h_surfaces_equal(self, small_grid):
        rng = np.random.default_rng(12)
        base = rng.integers(-4, 5, size=(2, small_grid.size)) / 4.0
        rows = np.repeat(base, 4, axis=0)  # J=2, K=2 identical rows
        X = three_level_set(rows, small_grid, J=2, K=2)
        cov = three_level_covariances(X, zero_means(small_grid))
        np.testing.assert_array_equal(cov.h[0], cov.h[1])
        np.testing.assert_array_equal(cov.h[1], cov.h[2])

    def test_matches_brute_force(self, small_grid):
        spec = n3_spec(21, n=5, J=2, K_rep=3, m=small_grid.size)
        X, _ = generate(spec)
        means = measure_means(X)
        cov = three_level_covariances(X, means)
        from mfda.core import center_rows
        from mfda.mfpca import canonical_design

        rv, n, J, K = canonical_design(center_rows(X, means), levels=3)
        h1, h2, h3 = brute_h_surfaces(rv)
        assert np.max(np.abs(cov.h[0] - h1)) < 1e-12
        assert np.max(np.abs(cov.h[1] - h2)) < 1e-12
        assert np.max(np.abs(cov.h[2] - h3)) < 1e-12

    def test_k3_null_monte_carlo(self):
        reps = []
        for rep in range(50):
            spec = n3_spec(
                800 + rep,
                n=50,
                J=2,
                K_rep=3,
                m=11,
                lam1=(1.0,),
                lam2=(0.5,),
                lam3=(0.0,),
                noise=0.0,
            )
            X, _ = generate(spec)
            reps.append(level_surfaces(three_level_covariances(X, measure_means(X)))[2])
        reps = np.asarray(reps)
        mean_k3 = reps.mean(axis=0)
        sd = reps.std(axis=0, ddof=1)
        assert np.all(np.abs(mean_k3) <= 3.0 * np.maximum(sd, 1e-12))

    def test_full_simulation_top_eigenvalues(self):
        tops = {0: [], 1: [], 2: []}
        for seed in (31, 32, 33):
            spec = n3_spec(seed, n=200, J=2, K_rep=20, m=41)
            X, _ = generate(spec)
            cov = three_level_covariances(X, measure_means(X))
            for l, surface in enumerate(level_surfaces(cov)):
                tops[l].append(eigendecompose_on_grid(surface, X.grid).eigenvalues[0])
        for l, true_top in zip(range(3), (4.0, 2.0, 1.0)):
            assert np.mean(tops[l]) == pytest.approx(true_top, rel=0.20)

    def test_insufficient_replication(self, small_grid):
        rows = np.zeros((4, small_grid.size))
        X = three_level_set(rows, small_grid, J=2, K=1)
        with pytest.raises((InsufficientDataError, UnbalancedDesignError)):
            three_level_covariances(X, zero_means(small_grid))


class TestEstimateNoise:
    """The noise: the diagonal gap of the deepest surface's own smooth."""

    def test_equal_surfaces(self, small_grid):
        # a surface the basis reproduces carries no nugget
        S = np.outer(small_grid.points, small_grid.points) + 1.0
        assert SplineBasis.of(small_grid).smooth(S, nugget=True)[2] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_shifted_diagonal(self, small_grid):
        S = np.outer(np.ones(small_grid.size), np.ones(small_grid.size))
        noise = SplineBasis.of(small_grid).smooth(S + 2.0 * np.eye(small_grid.size), nugget=True)[2]
        assert noise == pytest.approx(2.0, rel=1e-9)

    def test_clamped_at_zero(self, small_grid):
        S = np.outer(np.ones(small_grid.size), np.ones(small_grid.size))
        basis = SplineBasis.of(small_grid)
        assert basis.smooth(S - np.eye(small_grid.size), nugget=True)[2] == 0.0

    def test_simulation_recovery(self):
        spec = n2_spec(3001, n=200, J=4, m=101, noise=1.0)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2))
        assert 0.7 <= fit.noise_variance <= 1.3


class TestBlupScores:
    def _single_level_inputs(self, uniform_grid, sigma2=0.0):
        basis = fourier_basis(uniform_grid, 2)
        lam1 = np.array([3.0, 1.5])
        eig1 = EigenSystem(uniform_grid, lam1, basis)
        eig2 = EigenSystem(uniform_grid, np.zeros(0), np.zeros((uniform_grid.size, 0)))
        rng = np.random.default_rng(77)
        c = rng.standard_normal((6, 2)) * np.sqrt(lam1)
        rows = np.repeat(c @ basis.T, 2, axis=0)  # J=2 identical rows
        X = two_level_set(rows, uniform_grid, J=2)
        return X, (eig1, eig2), c

    def test_reduces_to_projection_without_noise(self, uniform_grid):
        X, eigs, c_true = self._single_level_inputs(uniform_grid)
        scores = blup_scores(X, zero_means(uniform_grid), eigs, 0.0)
        np.testing.assert_allclose(scores[0], c_true, atol=1e-8)
        assert scores[1].shape == (12, 0)

    def test_shrinkage_limit(self, uniform_grid):
        X, eigs, _ = self._single_level_inputs(uniform_grid)
        small = blup_scores(X, zero_means(uniform_grid), eigs, 1e-6)
        large = blup_scores(X, zero_means(uniform_grid), eigs, 1e6)
        assert np.linalg.norm(large[0]) < 1e-3 * np.linalg.norm(small[0])

    def test_norm_nonincreasing_in_noise(self, uniform_grid):
        n, J = 20, 2
        spec = n2_spec(17, n=n, J=J, m=uniform_grid.size)
        X, _ = generate(spec)
        means = measure_means(X)
        eig1 = eigendecompose_on_grid(sigma_B_hat(X, means), uniform_grid).truncated(2)
        s_W = sigma_T_hat(X, means) - sigma_B_hat(X, means)
        eig2 = eigendecompose_on_grid(s_W, uniform_grid).truncated(2)
        prev = None
        for sigma2 in (1e-6, 0.01, 0.1, 1.0, 10.0, 100.0):
            scores = blup_scores(X, means, (eig1, eig2), sigma2)
            # each subject's full predicted score vector, all levels stacked
            per_subject = np.sqrt(
                np.sum(scores[0] ** 2, axis=1)
                + np.sum(
                    scores[1].reshape(n, J * scores[1].shape[1]) ** 2, axis=1
                )
            )
            if prev is not None:
                assert np.all(per_subject <= prev * (1 + 1e-9))
            prev = per_subject

    def test_recovers_true_scores_in_simulation(self):
        spec = n2_spec(2024, n=200, J=4, m=51, noise=0.25)
        X, truth = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=0.99))
        est = fit.scores[0][:, 0]
        ref = truth.scores[0][:, 0]
        corr = np.corrcoef(est, ref)[0, 1]
        assert abs(corr) > 0.9

    def test_singular_system_error(self, uniform_grid):
        basis = fourier_basis(uniform_grid, 1)
        lam = np.array([1.0, 1.0])
        duplicated = np.column_stack([basis[:, 0], basis[:, 0]])  # collinear
        eig1 = EigenSystem(uniform_grid, lam, duplicated)
        eig2 = EigenSystem(uniform_grid, np.zeros(0), np.zeros((uniform_grid.size, 0)))
        X = two_level_set(
            np.tile(basis[:, 0], (4, 1)), uniform_grid, J=2
        )
        with pytest.raises(SingularSystemError):
            blup_scores(X, zero_means(uniform_grid), (eig1, eig2), 0.0)

    def test_holds_at_most_three_copies_of_the_data(self):
        # tracemalloc counts numpy's allocations exactly: the canonical copy of
        # the data and the rows' projections onto the components, nothing the
        # size of the joint basis; the untraced first call pays the lazy imports
        X, _ = generate(n3_spec(5, n=20, J=2, K_rep=100, m=51))
        fit = fit_nested(X, FitConfig(levels=3))
        means = measure_means(X)
        blup_scores(X, means, fit.level_eig, fit.noise_variance)
        tracemalloc.start()
        try:
            blup_scores(X, means, fit.level_eig, fit.noise_variance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * X.values.nbytes, peak / X.values.nbytes


def _fourier_eig(grid: Grid, eigenvalues, first: int = 0) -> EigenSystem:
    lam = np.asarray(eigenvalues, dtype=float)
    return EigenSystem(grid, lam, fourier_basis(grid, first + lam.size)[:, first:])


class TestBlupMatchesReference:
    DESIGNS = {
        "N2": lambda: n2_spec(71, n=7, J=3, m=21),
        "N3": lambda: n3_spec(72, n=5, J=2, K_rep=3, m=21),
        "N3-K6": lambda: n3_spec(74, n=4, J=3, K_rep=6, m=21),
    }
    # (design, eigenvalues per level, noise variance, turn): with a turn, each
    # deeper level's functions are cos(turn) times the level above's plus
    # sin(turn) times its own Fourier block, so the levels share directions
    # (turn 0: the level above's functions themselves); without, the blocks
    # are disjoint
    CASES = {
        "two-level": ("N2", [(3.0, 1.5), (2.0, 1.0, 0.5)], 0.5, None),
        "two-level-zero-level": ("N2", [(3.0, 1.5), ()], 0.5, None),
        "two-level-zero-eigenvalue": ("N2", [(3.0, 0.0), (1.0,)], 0.25, None),
        "two-level-no-noise": ("N2", [(3.0, 1.5), (2.0,)], 0.0, None),
        "two-level-shared": ("N2", [(3.0, 1.5), (2.0, 1.0)], 0.5, np.pi / 6),
        "two-level-shared-no-noise": ("N2", [(3.0, 1.5), (2.0, 1.0)], 0.0, np.pi / 4),
        "two-level-same-functions": ("N2", [(3.0, 1.5), (2.0, 1.0)], 0.5, 0.0),
        "three-level": ("N3", [(4.0, 2.0), (2.0, 1.0), (1.0,)], 0.25, None),
        "three-level-zero-level": ("N3", [(4.0,), (), (1.0, 0.0)], 0.25, None),
        "three-level-no-noise": ("N3", [(4.0,), (2.0,), (1.0, 0.5)], 0.0, None),
        "three-level-shared": ("N3", [(4.0, 2.0), (2.0, 1.0), (1.0,)], 0.25, np.pi / 5),
        "three-level-shared-no-noise": ("N3", [(4.0, 2.0), (2.0, 1.0), (1.0,)], 0.0, np.pi / 3),
        "three-level-J3-K6": ("N3-K6", [(4.0, 2.0), (2.0, 1.0), (1.0, 0.5)], 0.25, None),
        "three-level-J3-K6-shared": ("N3-K6", [(4.0, 2.0), (2.0, 1.0), (1.0,)], 0.25, np.pi / 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_subject_solve(self, case):
        design, lams, noise, turn = self.CASES[case]
        X, _ = generate(self.DESIGNS[design]())
        means = measure_means(X)
        first = 0
        eigs = []
        for lam in lams:
            eig = _fourier_eig(X.grid, lam, first)
            if turn is not None and eigs:
                above = eigs[-1].functions[:, : len(lam)]
                functions = np.cos(turn) * above + np.sin(turn) * eig.functions
                eig = EigenSystem(X.grid, eig.eigenvalues, functions)
            eigs.append(eig)
            first += len(lam)
        got = blup_scores(X, means, tuple(eigs), noise)
        ref = _reference_blup(X, means, tuple(eigs), noise)
        assert len(got) == len(lams)
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            np.testing.assert_allclose(g, r, rtol=1e-10)

    @pytest.mark.parametrize("shared", ["within-level", "across-levels"])
    def test_singular_system_matches(self, small_grid, shared):
        # across levels, each level's own block is full rank and only the
        # joint basis is collinear
        basis = fourier_basis(small_grid, 2)
        if shared == "within-level":
            level1 = EigenSystem(small_grid, np.array([1.0, 1.0]), basis[:, [0, 0]])
            eigs = (level1, _fourier_eig(small_grid, (1.0,), first=1))
        else:
            eigs = (_fourier_eig(small_grid, (2.0, 1.0)),
                    EigenSystem(small_grid, np.array([1.0]), basis[:, [1]]))
        X, _ = generate(n2_spec(73, n=4, J=2, m=small_grid.size))
        means = measure_means(X)
        with pytest.raises(SingularSystemError):
            _reference_blup(X, means, eigs, 0.0)
        with pytest.raises(SingularSystemError):
            blup_scores(X, means, eigs, 0.0)


class TestFitNested:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scores_refused_naming_the_level(self, value):
        X, _ = generate(n2_spec(11, n=10, J=2, m=21))
        fit = fit_nested(X, FitConfig(levels=2))
        bad = fit.scores[1].copy()
        bad[3, 0] = value
        with pytest.raises(InvalidParameterError, match="level 2 has non-finite scores") as err:
            dataclasses.replace(fit, scores=(fit.scores[0], bad))
        assert (err.value.field, err.value.level) == ("scores", 2)

    def test_degenerate_level2_retains_zero(self, small_grid):
        spec = n2_spec(5, n=8, J=2, m=small_grid.size, lam2=(0.0,), noise=0.0)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=0.95))
        assert fit.retained[1] == 0
        assert fit.scores[1].shape == (16, 0)

    def test_eigenfunction_recovery_single_seed(self):
        spec = n2_spec(606)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=0.99))
        w = X.grid.weights
        for level in range(2):
            for a in range(2):
                ip = abs(
                    np.sum(
                        w
                        * spec.levels[level].functions[:, a]
                        * fit.level_eig[level].functions[:, a]
                    )
                )
                assert ip >= 0.9

    def test_unbalanced_rejected_with_counts(self, small_grid):
        codes = [(1, 1, 1), (1, 2, 1), (2, 1, 1)]
        X = CurveSet(small_grid, codes, np.zeros((3, small_grid.size)))
        with pytest.raises(UnbalancedDesignError) as err:
            fit_nested(X, FitConfig(levels=2))
        assert "subject" in str(err.value)

    def test_non_contiguous_indices_rejected_with_counts(self, small_grid):
        codes = [(i, j, 1) for i in (1, 3) for j in (1, 2)]
        X = CurveSet(small_grid, codes, np.zeros((4, small_grid.size)), ("a", "b", "c"))
        with pytest.raises(UnbalancedDesignError) as err:
            fit_nested(X, FitConfig(levels=2))
        assert str(err.value) == (
            "subject/measure indices must be contiguous from 1: "
            "subject 1 [measure 1: 1, measure 2: 1]; subject 3 [measure 1: 1, measure 2: 1]"
        )

    def test_missing_cell_rejected_as_unbalanced(self, small_grid):
        codes = [(1, 1, 1), (1, 2, 1), (2, 1, 1)]
        X = CurveSet(small_grid, codes, np.zeros((3, small_grid.size)))
        with pytest.raises(UnbalancedDesignError) as err:
            canonical_design(X, levels=2)
        assert str(err.value) == (
            "design is not balanced: "
            "subject 1 [measure 1: 1, measure 2: 1]; subject 2 [measure 1: 1]"
        )

    def test_unequal_replicates_rejected_as_unbalanced(self, small_grid):
        codes = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1), (2, 2, 2)]
        X = CurveSet(small_grid, codes, np.zeros((7, small_grid.size)))
        with pytest.raises(UnbalancedDesignError) as err:
            canonical_design(X, levels=3)
        assert str(err.value) == (
            "design is not balanced: "
            "subject 1 [measure 1: 2, measure 2: 2]; subject 2 [measure 1: 1, measure 2: 2]"
        )

    def test_design_checks_match_the_unique_based_rules(self, small_grid):
        # balance as the count of distinct subjects times distinct measures,
        # contiguity as the largest keys, each from np.unique, on random designs
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(300):
            n, J, K = rng.integers(1, 5, size=3)
            codes = [(i, j, r) for i in range(1, n + 1) for j in range(1, J + 1)
                     for r in range(1, K + 1) if rng.random() < 0.9]
            if not codes:
                continue
            codes = np.array(codes)
            codes[:, :2] *= 1 + (rng.random(2) < 0.25)  # gaps in the subject or measure keys
            X = CurveSet(small_grid, codes, np.zeros((len(codes), small_grid.size)))
            cells, counts = X.cells()
            subjects, measures = (np.unique(cells[:, i]).size for i in (0, 1))
            if np.unique(counts).size != 1 or len(cells) != subjects * measures:
                want = "design is not balanced: "
            elif np.prod(cells[-1]) != len(cells):
                want = "subject/measure indices must be contiguous from 1: "
            else:
                want = None
            try:
                canonical_design(X, levels=3 if counts[0] > 1 else 2)
                got = None
            except (UnbalancedDesignError, InsufficientDataError) as exc:
                got = str(exc) if str(exc).startswith(("design", "subject")) else None
            assert (got or "").startswith(want or "") and (got is None) == (want is None)
            outcomes.add(want)
        assert len(outcomes) == 3

    def test_design_is_checked_from_one_cells_call(self, monkeypatch):
        calls = []
        original = CurveSet.cells
        monkeypatch.setattr(CurveSet, "cells", lambda self: calls.append(1) or original(self))
        X, _ = generate(n3_spec(85, n=4, J=2, K_rep=3, m=21))
        assert canonical_design(X, levels=3)[1:] == (4, 2, 3)
        assert len(calls) == 1

    def test_canonical_design_is_a_read_only_view(self):
        X, _ = generate(n3_spec(86, n=4, J=2, K_rep=3, m=21))
        before = X.values.copy()
        rv, *_ = canonical_design(X, levels=3)
        assert np.shares_memory(rv, X.values) and not rv.flags.writeable
        fit_nested(X, FitConfig(levels=3))
        assert X.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("levels", [2, 3])
    def test_fit_does_not_depend_on_row_order(self, tmp_path, levels):
        if levels == 2:
            X, _ = generate(n2_spec(87, n=40, J=4, m=51))
        else:
            X, _ = generate(n3_spec(88, n=20, J=2, K_rep=4, m=51))
        order = np.random.default_rng(levels).permutation(len(X))
        shuffled = CurveSet(X.grid, X.codes[order], X.values[order])
        config = FitConfig(levels=levels)
        canonical = write_fit(fit_nested(X, config), tmp_path / "canonical")
        permuted = write_fit(fit_nested(shuffled, config), tmp_path / "shuffled")
        names = sorted(p.name for p in canonical.iterdir())
        assert names == sorted(p.name for p in permuted.iterdir())
        for name in names:
            assert (canonical / name).read_bytes() == (permuted / name).read_bytes(), name

    def test_levels_mismatch_rejected(self, small_grid):
        spec = n3_spec(7, n=3, J=2, K_rep=2, m=small_grid.size)
        X, _ = generate(spec)
        with pytest.raises(UnbalancedDesignError):
            fit_nested(X, FitConfig(levels=2))

    def test_mercer_consistency(self, small_grid):
        spec = n2_spec(51, n=60, J=2, m=small_grid.size)
        X, _ = generate(spec)
        means = measure_means(X)
        s_B = sigma_B_hat(X, means)
        eig = eigendecompose_on_grid(s_B, small_grid)
        rebuilt = (eig.functions * eig.eigenvalues) @ eig.functions.T
        # independent PSD-part oracle in the weighted coordinates
        sqrt_w = np.sqrt(small_grid.weights)
        A = sqrt_w[:, None] * s_B * sqrt_w[None, :]
        evals, evecs = np.linalg.eigh(0.5 * (A + A.T))
        clamped = (evecs * np.maximum(evals, 0.0)) @ evecs.T
        psd_part = clamped / sqrt_w[:, None] / sqrt_w[None, :]
        rel = np.linalg.norm(rebuilt - psd_part) / np.linalg.norm(psd_part)
        assert rel < 1e-6

    def test_trimming_guarantees_psd(self, small_grid):
        spec = n2_spec(3131, n=10, J=2, m=small_grid.size, noise=2.0)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=1.0))
        for eig in fit.level_eig:
            assert np.all(eig.eigenvalues >= 0.0)
            rebuilt = (eig.functions * eig.eigenvalues) @ eig.functions.T
            min_eig = np.linalg.eigvalsh(rebuilt).min()
            assert min_eig >= -1e-10

    def test_bitwise_deterministic(self):
        spec = n2_spec(52, n=20, J=2, m=31)
        X, _ = generate(spec)
        a = fit_nested(X, FitConfig(levels=2))
        b = fit_nested(X, FitConfig(levels=2))
        assert np.array_equal(a.scores[0], b.scores[0])
        assert np.array_equal(a.scores[1], b.scores[1])
        for ea, eb in zip(a.level_eig, b.level_eig):
            assert np.array_equal(ea.eigenvalues, eb.eigenvalues)
            assert np.array_equal(ea.functions, eb.functions)
        assert a.noise_variance == b.noise_variance

    def test_three_level_fit_shapes(self):
        spec = n3_spec(8, n=10, J=2, K_rep=4, m=21)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=3, pve=0.95))
        assert fit.levels == 3
        assert len(fit.level_eig) == 3
        assert fit.scores[0].shape[0] == 10
        assert fit.scores[1].shape[0] == 20
        assert fit.scores[2].shape[0] == 80
        assert fit.shape == (10, 2, 4)

    def test_variance_shares_sum_to_one(self):
        spec = n2_spec(53, n=30, J=2, m=21)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2))
        assert sum(fit.variance_shares().values()) == pytest.approx(1.0, abs=1e-9)

    def test_smoothed_fit_runs(self):
        # every fit is smoothed, at one GCV penalty per level
        spec = n2_spec(54, n=40, J=2, m=41)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2))
        assert fit.retained[0] >= 1
        assert fit.noise_variance >= 0.0
        assert len(fit.penalties) == 2
        assert all(lam > 0 for lam in fit.penalties)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
    def test_tiny_grids_fit(self, m):
        # a grid too small for a cubic basis gets fewer, lower-degree
        # functions; the fit still yields orthonormal eigenfunctions
        grid = Grid.uniform(m)
        rng = np.random.default_rng(m)
        X = two_level_set(rng.normal(size=(40, m)), grid, J=2)
        fit = fit_nested(X, FitConfig(levels=2))
        for eig in fit.level_eig:
            gram = eig.functions.T @ (grid.weights[:, None] * eig.functions)
            np.testing.assert_allclose(gram, np.eye(eig.n_components), atol=1e-9)
        assert fit.noise_variance >= 0.0

    def test_nonuniform_grid_recovery(self):
        # quadrature weighting is what makes eigenfunctions L2-orthonormal on
        # an irregular grid, so recovery must survive one
        rng = np.random.default_rng(321)
        points = np.sort(rng.uniform(0.0, 1.0, 59))
        points[0], points[-1] = 0.0, 1.0
        grid = Grid(points)
        raw = np.column_stack(
            [np.sin(2 * np.pi * points), np.cos(2 * np.pi * points), points]
        )
        w = grid.weights
        basis = np.zeros_like(raw)
        for a in range(3):  # Gram-Schmidt under the quadrature inner product
            v = raw[:, a].copy()
            for b in range(a):
                v -= np.sum(w * v * basis[:, b]) * basis[:, b]
            basis[:, a] = v / np.sqrt(np.sum(w * v * v))
        from mfda.simkl import spec_from_dict

        spec = spec_from_dict(
            {
                "grid": {"points": [float(p) for p in points]},
                "design": {"subjects": 300, "measures": 2, "replicates": 1},
                "mean": 0.0,
                "levels": [
                    {"eigenvalues": [3.0], "basis": [list(basis[:, 0])]},
                    {
                        "eigenvalues": [1.5, 0.75],
                        "basis": [list(basis[:, 1]), list(basis[:, 2])],
                    },
                ],
                "noise_variance": 0.25,
                "seed": 9,
            }
        )
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=0.99))
        assert fit.level_eig[0].eigenvalues[0] == pytest.approx(3.0, rel=0.25)
        ip = abs(
            np.sum(w * basis[:, 0] * fit.level_eig[0].functions[:, 0])
        )
        assert ip > 0.95
        gram = fit.level_eig[1].functions.T @ (
            w[:, None] * fit.level_eig[1].functions
        )
        np.testing.assert_allclose(
            gram, np.eye(fit.retained[1]), atol=1e-8
        )


class TestFitNestedStructure:
    @pytest.mark.parametrize("levels", [2, 3])
    def test_one_design_pass_and_one_basis(self, monkeypatch, levels):
        calls = {"canonical_design": 0, "eigendecompose": 0}

        def counting(name):
            original = getattr(mfda.mfpca, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(mfda.mfpca, name, wrapper)

        counting("canonical_design")
        counting("eigendecompose")
        bases = []
        original_of = SplineBasis.of.__func__
        monkeypatch.setattr(
            SplineBasis, "of",
            classmethod(lambda cls, grid: bases.append(original_of(cls, grid)) or bases[-1]),
        )
        if levels == 2:
            X, _ = generate(n2_spec(81, n=6, J=2, m=21))
        else:
            X, _ = generate(n3_spec(82, n=4, J=2, K_rep=3, m=21))
        fit_nested(X, FitConfig(levels=levels))
        assert calls["canonical_design"] == 1
        assert calls["eigendecompose"] == levels
        assert len(bases) == 1

    @pytest.mark.parametrize("levels", [2, 3])
    def test_coefficient_eigensystem_matches_dense(self, levels):
        # the c x c eigensolve against the dense one of the smoothed surface
        if levels == 2:
            X, _ = generate(n2_spec(83, n=30, J=2, m=31))
        else:
            X, _ = generate(n3_spec(83, n=30, J=2, K_rep=4, m=31))
        fit = fit_nested(X, FitConfig(levels=levels, pve=1.0))
        means = measure_means(X)
        rv, *_ = canonical_design(center_rows(X, means), levels=levels)
        cov = mfda.mfpca._level_covariances(rv, X.grid)
        assert cov.penalties == fit.penalties
        assert cov.noise_variance == fit.noise_variance
        for surface, eig in zip(level_surfaces(cov), fit.level_eig):
            dense = eigendecompose_on_grid(surface, X.grid)
            k = eig.n_components
            assert k >= 1
            np.testing.assert_allclose(
                eig.eigenvalues, dense.eigenvalues[:k], rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(eig.functions, dense.functions[:, :k], atol=1e-6)

    def test_noise_is_the_diagonal_gap_of_the_settled_smooth(self):
        X, _ = generate(n3_spec(84, n=30, J=2, K_rep=4, m=41))
        cov = three_level_covariances(X, measure_means(X))
        raw = np.diag(cov.h[2] - cov.h[1])
        smooth = np.diag(level_surfaces(cov)[2])
        assert cov.noise_variance == pytest.approx(np.mean(raw - smooth), rel=1e-9)
        # the settled diagonal is its own smooth: smoothing the surface with
        # that diagonal at the chosen penalty gives the same coefficients
        surface = cov.h[2] - cov.h[1]
        np.fill_diagonal(surface, smooth)
        basis = cov.basis
        s = 1.0 / (1.0 + cov.penalties[2] * basis.penalty)
        Fw = basis.functions * X.grid.weights[:, None]
        again = s[:, None] * (Fw.T @ surface @ Fw) * s
        np.testing.assert_allclose(again, cov.coef[2], atol=1e-9)
