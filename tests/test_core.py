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
    center_rows,
    same_grid,
    trapezoid_weights,
)
from mfda.errors import (
    DuplicateKeyError,
    EmptyDataError,
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
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_weights_sum_to_range(self, raw):
        points = np.unique(np.asarray(raw))
        if points.size < 2:
            return
        w = trapezoid_weights(points)
        assert abs(w.sum() - (points[-1] - points[0])) < 1e-12


class TestGrid:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidGridError, match="must lie in"):
            Grid(np.array([0.0, 1.5]))
        with pytest.raises(InvalidGridError, match="strictly increasing"):
            Grid(np.array([0.0, 0.5, 0.5]))

    def test_non_finite_refused(self):
        with pytest.raises(InvalidGridError, match="grid points must be finite"):
            Grid(np.array([0.0, np.nan, 1.0]))

    def test_weights_are_the_trapezoid_weights(self):
        grid = Grid([0.0, 0.1, 1.0])
        assert grid.weights.tobytes() == trapezoid_weights([0.0, 0.1, 1.0]).tobytes()
        with pytest.raises(ValueError):
            grid.weights[0] = 0.5

    def test_immutable(self, uniform_grid):
        with pytest.raises(ValueError):
            uniform_grid.points[0] = 0.5

    def test_same_grid_by_value(self):
        a = Grid.uniform(11)
        b = Grid.uniform(11)
        assert same_grid(a, b)
        assert not same_grid(a, Grid.uniform(12))


class TestCurveSet:
    def test_duplicate_index_rejected(self, small_grid):
        with pytest.raises(DuplicateKeyError):
            CurveSet(small_grid, [(1, 1, 1), (1, 1, 1)], np.zeros((2, small_grid.size)))

    @pytest.mark.parametrize("code", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_every_index_starts_at_1(self, small_grid, code):
        with pytest.raises(EmptyDataError):
            CurveSet(small_grid, [code], np.zeros((1, small_grid.size)))

    def test_balance_detection(self, small_grid):
        X = two_level_set(np.zeros((4, small_grid.size)), small_grid, J=2)
        cells, counts = X.cells()
        assert cells.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]] and counts.tolist() == [1] * 4
        codes = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2)]
        Y = CurveSet(small_grid, codes, np.zeros((4, small_grid.size)))
        cells, counts = Y.cells()
        assert cells.tolist() == [[1, 1], [1, 2], [2, 1]] and counts.tolist() == [1, 2, 1]


    def test_rows_held_in_canonical_order(self, small_grid):
        rng = np.random.default_rng(11)
        codes = np.array([(i, j, k) for i in (1, 2, 3) for j in (1, 2) for k in (1, 2)])
        values = rng.normal(size=(len(codes), small_grid.size))
        canonical = CurveSet(small_grid, codes, values)
        order = rng.permutation(len(codes))
        shuffled_codes, shuffled_values = codes[order], values[order]
        X = CurveSet(small_grid, shuffled_codes, shuffled_values)
        assert np.array_equal(X.codes, codes)
        assert X.values.tobytes() == canonical.values.tobytes()
        assert X.values.tobytes() == values.tobytes()
        shuffled_codes[:] = 1
        shuffled_values[:] = 0.0
        assert np.array_equal(X.codes, codes)
        assert X.values.tobytes() == values.tobytes()
        assert not (X.codes.flags.writeable or X.values.flags.writeable)


class TestCenterRows:
    def test_identical_rows_give_zero(self, small_grid):
        mu = np.linspace(-1, 1, small_grid.size)
        X = two_level_set(np.tile(mu, (6, 1)), small_grid, J=2)
        centered = center_rows(X, measure_means(X))
        np.testing.assert_allclose(centered.values, 0.0, atol=1e-12)

    def test_single_curve_absorbed_by_measure_mean(self, small_grid):
        c = np.linspace(0, 2, small_grid.size)
        X = CurveSet(small_grid, [(1, 1, 1)], c[None, :])
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
            rows = centered.codes[:, 1] == j
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
        codes = [(2, 1, 1), (1, 2, 1), (1, 1, 1), (2, 2, 1)]
        X = CurveSet(small_grid, codes, values)
        centered = center_rows(X, measure_means(X))
        assert centered.codes.tolist() == [list(c) for c in sorted(codes)]
