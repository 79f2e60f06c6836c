"""Pointwise and global intraclass correlation."""

import numpy as np
import pytest

from mfda.core import Curve, CurveSet, Grid
from mfda.errors import UndefinedIccError
from mfda.fpca import EigenSystem
from mfda.icc import global_icc, icc_report, pointwise_icc
from mfda.mfpca import FitConfig, MultilevelFit, fit_nested
from mfda.simkl import fourier_basis, generate, spec_from_dict

from .conftest import n2_spec, n3_spec_dict


def eig_of(grid: Grid, lam, funcs) -> EigenSystem:
    return EigenSystem(grid, np.asarray(lam, dtype=float), funcs)


def handmade_fit(grid: Grid, level_eigs, noise: float) -> MultilevelFit:
    levels = len(level_eigs)
    return MultilevelFit(
        grid=grid,
        global_mean=Curve(grid, np.zeros(grid.size)),
        measure_effects=(),
        level_eig=tuple(level_eigs),
        scores=tuple(
            np.zeros((2 ** (l + 1), level_eigs[l].n_components))
            for l in range(levels)
        ),
        noise_variance=noise,
        subject_labels=("1", "2"),
        measure_labels=("1", "2"),
    )


class TestPointwise:
    def test_equal_levels_give_half(self, small_grid):
        ones = np.ones((small_grid.size, 1))
        fit = handmade_fit(
            small_grid,
            [eig_of(small_grid, [1.0], ones), eig_of(small_grid, [1.0], ones)],
            noise=0.0,
        )
        np.testing.assert_allclose(pointwise_icc(fit).values, 0.5)

    def test_no_within_variation_gives_one(self, small_grid):
        ones = np.ones((small_grid.size, 1))
        empty = eig_of(small_grid, np.zeros(0), np.zeros((small_grid.size, 0)))
        fit = handmade_fit(
            small_grid, [eig_of(small_grid, [2.0], ones), empty], noise=0.0
        )
        np.testing.assert_allclose(pointwise_icc(fit).values, 1.0)

    def test_matches_analytic_curve_of_generator(self):
        spec = n2_spec(1606)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=0.99))
        rho = pointwise_icc(fit).values
        v1 = (spec.levels[0].functions ** 2) @ spec.levels[0].eigenvalues
        v2 = (spec.levels[1].functions ** 2) @ spec.levels[1].eigenvalues
        analytic = v1 / (v1 + v2 + spec.noise_variance)
        assert np.max(np.abs(rho - analytic)) < 0.1

    def test_undefined_when_everything_zero(self, small_grid):
        empty = eig_of(small_grid, np.zeros(0), np.zeros((small_grid.size, 0)))
        fit = handmade_fit(small_grid, [empty, empty], noise=0.0)
        with pytest.raises(UndefinedIccError):
            pointwise_icc(fit)

    def test_undefined_message_prints_a_plain_float(self, small_grid):
        empty = eig_of(small_grid, np.zeros(0), np.zeros((small_grid.size, 0)))
        fit = handmade_fit(small_grid, [empty, empty], noise=0.0)
        with pytest.raises(UndefinedIccError) as err:
            pointwise_icc(fit)
        assert "np.float64(" not in str(err.value)
        assert f"at t={float(small_grid.points[0])!r}" in str(err.value)

    def test_values_clamped_to_unit_interval(self):
        spec = n2_spec(77, n=30, J=2, m=41)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2))
        rho = pointwise_icc(fit).values
        assert np.all(rho >= 0.0) and np.all(rho <= 1.0)


class TestGlobal:
    def test_two_level_plugin(self, small_grid):
        basis = fourier_basis(small_grid, 2)
        fit = handmade_fit(
            small_grid,
            [
                eig_of(small_grid, [4.0, 2.0], basis),
                eig_of(small_grid, [2.0, 1.0], basis),
            ],
            noise=1.0,
        )
        assert global_icc(fit) == pytest.approx(0.6)

    def test_three_level_plugin(self, small_grid):
        b1 = fourier_basis(small_grid, 1)
        fit = handmade_fit(
            small_grid,
            [
                eig_of(small_grid, [6.0], b1),
                eig_of(small_grid, [3.0], b1),
                eig_of(small_grid, [0.5], b1),
            ],
            noise=0.5,
        )
        assert global_icc(fit) == pytest.approx(0.6)

    def test_zero_denominator(self, small_grid):
        empty = eig_of(small_grid, np.zeros(0), np.zeros((small_grid.size, 0)))
        fit = handmade_fit(small_grid, [empty, empty], noise=0.0)
        with pytest.raises(UndefinedIccError):
            global_icc(fit)

    def test_three_level_pipeline_average(self):
        # lam sums 6 / 3 / 0.75 with noise 0.25 give analytic rho = 0.6
        iccs = []
        for seed in range(20):
            data = n3_spec_dict(
                8200 + seed, n=100, J=2, K_rep=10, m=41, lam3=(0.75,)
            )
            spec = spec_from_dict(data)
            X, truth = generate(spec)
            assert truth.analytic_icc == pytest.approx(0.6)
            fit = fit_nested(X, FitConfig(levels=3, pve=0.99))
            iccs.append(global_icc(fit))
        assert 0.55 <= np.mean(iccs) <= 0.65


class TestProperties:
    def test_scale_equivariance(self):
        spec = n2_spec(99, n=40, J=2, m=31)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2))
        scaled = CurveSet(
            X.grid, X.codes, 3.0 * X.values, X.subject_labels, X.measure_labels
        )
        fit_scaled = fit_nested(scaled, FitConfig(levels=2))
        assert global_icc(fit_scaled) == pytest.approx(global_icc(fit), rel=1e-6)

    def test_noise_monotonicity(self, small_grid):
        basis = fourier_basis(small_grid, 2)
        values = []
        for sigma2 in (0.0, 0.5, 1.0, 2.0):
            fit = handmade_fit(
                small_grid,
                [
                    eig_of(small_grid, [4.0, 2.0], basis),
                    eig_of(small_grid, [2.0, 1.0], basis),
                ],
                noise=sigma2,
            )
            values.append(global_icc(fit))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_integrated_pointwise_between_extremes(self):
        spec = n2_spec(3, n=40, J=2, m=31)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2))
        report = icc_report(fit)
        rho = report.pointwise.values
        integrated = float(np.sum(fit.grid.weights * rho))
        assert rho.min() <= integrated <= rho.max()
