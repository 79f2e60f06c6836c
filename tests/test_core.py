"""Grid, quadrature, and centering primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfda.core import (
    CenteringMeans,
    Curve,
    CurveSet,
    Grid,
    NestedIndex,
    center_rows,
    inner_product,
    same_grid,
    trapezoid_weights,
)
from mfda.errors import (
    DuplicateKeyError,
    GridMismatchError,
    InvalidGridError,
    MissingMeanError,
)
from mfda.mfpca import measure_means

from .conftest import two_level_set


class TestTrapezoidWeights:
    def test_uniform_three_points(self):
        np.testing.assert_allclose(
            trapezoid_weights([0.0, 0.5, 1.0]), [0.25, 0.5, 0.25]
        )

    def test_two_points(self):
        np.testing.assert_allclose(trapezoid_weights([0.0, 1.0]), [0.5, 0.5])

    def test_irregular(self):
        np.testing.assert_allclose(
            trapezoid_weights([0.0, 0.1, 1.0]), [0.05, 0.5, 0.45]
        )

    def test_non_increasing_rejected(self):
        with pytest.raises(InvalidGridError):
            trapezoid_weights([0.0, 0.5, 0.5])
        with pytest.raises(InvalidGridError):
            trapezoid_weights([0.5])

    def test_uniform_pattern(self):
        m = 11
        w = trapezoid_weights(np.linspace(0, 1, m))
        h = 1.0 / (m - 1)
        np.testing.assert_allclose(w[1:-1], h)
        np.testing.assert_allclose(w[[0, -1]], h / 2)

    @given(
        st.lists(
            st.floats(0.001, 0.999, allow_nan=False), min_size=2, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_to_range(self, raw):
        points = np.unique(np.asarray(raw))
        if points.size < 2:
            return
        w = trapezoid_weights(points)
        assert abs(w.sum() - (points[-1] - points[0])) < 1e-12


class TestGrid:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidGridError):
            Grid(np.array([0.0, 1.5]), np.array([0.75, 0.75]))
        with pytest.raises(InvalidGridError):
            Grid(np.array([0.0, 1.0]), np.array([0.9, 0.9]))  # wrong sum
        with pytest.raises(InvalidGridError):
            Grid(np.array([0.0, 1.0]), np.array([-0.5, 1.5]))

    def test_weight_sum_message_prints_plain_floats(self):
        with pytest.raises(InvalidGridError) as err:
            Grid(np.array([0.0, 1.0]), np.array([0.9, 0.9]))
        assert "np.float64(" not in str(err.value)
        assert "weights sum 1.8 != grid range 1.0" in str(err.value)

    def test_immutable(self, uniform_grid):
        with pytest.raises(ValueError):
            uniform_grid.points[0] = 0.5

    def test_same_grid_by_value(self):
        a = Grid.uniform(11)
        b = Grid.uniform(11)
        assert same_grid(a, b)
        assert not same_grid(a, Grid.uniform(12))


class TestInnerProduct:
    def test_constant_one(self, uniform_grid):
        one = Curve(uniform_grid, np.ones(uniform_grid.size))
        assert inner_product(one, one) == pytest.approx(1.0)

    def test_fourier_orthogonality(self, uniform_grid):
        t = uniform_grid.points
        f = Curve(uniform_grid, np.sin(2 * np.pi * t))
        g = Curve(uniform_grid, np.cos(2 * np.pi * t))
        assert abs(inner_product(f, g)) < 1e-3

    def test_normalized_fourier(self, uniform_grid):
        t = uniform_grid.points
        f = Curve(uniform_grid, np.sqrt(2) * np.sin(2 * np.pi * t))
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-3)

    def test_grid_mismatch(self):
        f = Curve(Grid.uniform(5), np.ones(5))
        g = Curve(Grid.uniform(6), np.ones(6))
        with pytest.raises(GridMismatchError):
            inner_product(f, g)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_bilinear_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.uniform(31)
        f = Curve(grid, rng.normal(size=31))
        g = Curve(grid, rng.normal(size=31))
        h = Curve(grid, rng.normal(size=31))
        a = float(rng.normal())
        assert inner_product(f, g) == pytest.approx(inner_product(g, f))
        fg = Curve(grid, a * f.values + g.values)
        assert inner_product(fg, h) == pytest.approx(
            a * inner_product(f, h) + inner_product(g, h), rel=1e-9, abs=1e-12
        )
        assert inner_product(f, f) >= 0.0


class TestCurveSet:
    def test_duplicate_index_rejected(self, small_grid):
        index = (NestedIndex(1, 1), NestedIndex(1, 1))
        with pytest.raises(DuplicateKeyError):
            CurveSet(small_grid, index, np.zeros((2, small_grid.size)))

    def test_balance_detection(self, small_grid):
        X = two_level_set(np.zeros((4, small_grid.size)), small_grid, J=2)
        assert X.is_balanced()
        index = (NestedIndex(1, 1), NestedIndex(1, 2), NestedIndex(2, 1))
        Y = CurveSet(small_grid, index, np.zeros((3, small_grid.size)))
        assert not Y.is_balanced()


class TestCenterRows:
    def test_identical_rows_give_zero(self, small_grid):
        mu = np.linspace(-1, 1, small_grid.size)
        X = two_level_set(np.tile(mu, (6, 1)), small_grid, J=2)
        centered = center_rows(X, measure_means(X))
        np.testing.assert_allclose(centered.values, 0.0, atol=1e-12)

    def test_single_curve_absorbed_by_measure_mean(self, small_grid):
        c = np.linspace(0, 2, small_grid.size)
        X = CurveSet(small_grid, (NestedIndex(1, 1),), c[None, :])
        means = CenteringMeans(
            Curve(small_grid, np.zeros(small_grid.size)),
            {1: Curve(small_grid, c)},
        )
        centered = center_rows(X, means)
        np.testing.assert_allclose(centered.values, 0.0)

    def test_recentered_group_means_vanish(self, small_grid):
        rng = np.random.default_rng(42)
        X = two_level_set(rng.normal(size=(30, small_grid.size)), small_grid, J=3)
        centered = center_rows(X, measure_means(X))
        for j in (1, 2, 3):
            rows = [r for r, ix in enumerate(centered.index) if ix.measure == j]
            np.testing.assert_allclose(
                centered.values[rows].mean(axis=0), 0.0, atol=1e-10
            )

    def test_idempotent_with_reestimated_means(self, small_grid):
        rng = np.random.default_rng(7)
        X = two_level_set(rng.normal(size=(20, small_grid.size)), small_grid, J=2)
        once = center_rows(X, measure_means(X))
        second_means = measure_means(once)
        assert np.max(np.abs(second_means.global_mean.values)) < 1e-10
        for eff in second_means.measure_effects.values():
            assert np.max(np.abs(eff.values)) < 1e-10

    def test_missing_mean_error(self, small_grid):
        X = two_level_set(np.ones((4, small_grid.size)), small_grid, J=2)
        means = CenteringMeans(
            Curve(small_grid, np.zeros(small_grid.size)),
            {1: Curve(small_grid, np.zeros(small_grid.size))},
        )
        with pytest.raises(MissingMeanError):
            center_rows(X, means)

    def test_row_order_preserved(self, small_grid):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, small_grid.size))
        index = (
            NestedIndex(2, 1),
            NestedIndex(1, 2),
            NestedIndex(1, 1),
            NestedIndex(2, 2),
        )
        X = CurveSet(small_grid, index, values)
        centered = center_rows(X, measure_means(X))
        assert centered.index == index
