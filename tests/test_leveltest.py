"""Two-sample score tests, FDR adjustment, permutation engine, correlation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from mfda import leveltest
from mfda.errors import (
    ComponentMismatchError,
    InsufficientDataError,
    InvalidParameterError,
    UndefinedCorrelationError,
)
from mfda.leveltest import (
    METHODS,
    _batch_stats,
    _memberships,
    bh_adjust,
    cvm_statistic,
    energy_statistic,
    ks_statistic,
    permutation_pvalue,
    score_covariate_correlation,
    two_sample_score_test,
)


def dense_energy_units(a: np.ndarray, b: np.ndarray) -> int:
    """Energy distance times n_a^2 n_b^2 from all O(N^2) pairwise distances,
    exact for integer samples."""
    def pair_sum(x, y):
        return int(np.abs(x[:, None] - y[None, :]).sum())

    n_a, n_b = a.size, b.size
    return (
        2 * pair_sum(a, b) * n_a * n_b
        - pair_sum(a, a) * n_b**2
        - pair_sum(b, b) * n_a**2
    )


def reference_units(method: str, a: np.ndarray, b: np.ndarray) -> int:
    """Each statistic as an exact integer multiple of its unit, for integer
    samples: the ECDF gaps at every pooled point, times n_a n_b."""
    if method == "energy":
        return dense_energy_units(a, b)
    pooled = np.concatenate([a, b])
    gap = (
        b.size * (a[:, None] <= pooled).sum(0)
        - a.size * (b[:, None] <= pooled).sum(0)
    )
    return int(np.max(np.abs(gap)) if method == "ks" else np.sum(gap**2))


def reference_pvalue(
    method: str,
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int,
    seed: int,
    paired: bool,
) -> float:
    """A per-row loop over the membership rows a test with this seed draws,
    rebuilt here from one generator: each row takes the next uniforms, and
    relabels by their sort order or swaps the pairs whose uniform is below
    1/2. Every statistic is recomputed from its definition; integer samples
    and integer statistics make every tie exact."""
    pooled = np.concatenate([a, b])
    if np.ptp(pooled) == 0:
        return 1.0
    observed = reference_units(method, a, b)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    exceed = 0
    for _ in range(n_permutations):
        if paired:
            swap = rng.random(a.size) < 0.5
            a_perm, b_perm = np.where(swap, b, a), np.where(swap, a, b)
        else:
            row = np.argsort(rng.random(pooled.size))
            a_perm, b_perm = pooled[row[: a.size]], pooled[row[a.size :]]
        exceed += reference_units(method, a_perm, b_perm) >= observed
    return (1 + exceed) / (n_permutations + 1)


def membership_matrix(*args, **kwargs) -> np.ndarray:
    """The (1 + R, N) rows of `_memberships(*args, **kwargs)`, its batches joined."""
    return np.concatenate(list(_memberships(*args, **kwargs)))


def put_along_axis_memberships(
    n_a: int, N: int, n_draws: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Unpaired membership rows scattered with np.put_along_axis: the n_a
    smallest of each row's N uniforms, from one generator."""
    member = np.zeros((1 + n_draws, N), dtype=bool)
    member[0, :n_a] = True
    rng = np.random.default_rng(seed)
    first = np.argpartition(rng.random((n_draws, N)), n_a - 1, axis=1)
    np.put_along_axis(member[1:], first[:, :n_a], True, axis=1)
    return member


def bh_reference(p: np.ndarray) -> np.ndarray:
    """Literal step-up definition: adjusted_(k) = min_{j >= k} m p_(j) / j."""
    m = len(p)
    order = np.argsort(p, kind="mergesort")
    out = np.empty(m)
    for pos, idx in enumerate(order):
        candidates = [
            m * p[order[j]] / (j + 1) for j in range(pos, m)
        ]
        out[idx] = min(1.0, min(candidates))
    return out


class TestStatistics:
    def test_match_scipy_oracles(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=23)
        b = rng.normal(0.4, 1.3, size=31)
        assert ks_statistic(a, b) == pytest.approx(
            scipy_stats.ks_2samp(a, b).statistic, abs=1e-12
        )
        assert cvm_statistic(a, b) == pytest.approx(
            scipy_stats.cramervonmises_2samp(a, b).statistic, abs=1e-10
        )
        assert energy_statistic(a, b) == pytest.approx(
            scipy_stats.energy_distance(a, b) ** 2, abs=1e-10
        )

    def test_ks_with_ties_matches_scipy(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 2.0, 4.0])
        assert ks_statistic(a, b) == pytest.approx(
            scipy_stats.ks_2samp(a, b).statistic
        )

    def test_identical_samples_are_zero(self):
        a = np.array([0.3, -1.2, 0.8, 2.0, -0.5])
        assert ks_statistic(a, a) == 0.0
        assert cvm_statistic(a, a) == 0.0
        assert energy_statistic(a, a) == pytest.approx(0.0, abs=1e-14)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        b = rng.normal(size=15)
        fa, fb = np.exp(a), np.exp(b)  # strictly increasing transform
        assert ks_statistic(a, b) == pytest.approx(ks_statistic(fa, fb))
        assert cvm_statistic(a, b) == pytest.approx(cvm_statistic(fa, fb))


class TestBhAdjust:
    def test_worked_examples(self):
        np.testing.assert_allclose(
            bh_adjust([0.01, 0.02, 0.03]), [0.03, 0.03, 0.03]
        )
        np.testing.assert_allclose(bh_adjust([0.05]), [0.05])
        np.testing.assert_allclose(
            bh_adjust([0.01, 0.04, 0.03, 0.005]), [0.02, 0.04, 0.04, 0.02]
        )

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = rng.uniform(size=rng.integers(1, 12))
            np.testing.assert_allclose(
                bh_adjust(p), bh_reference(p), atol=1e-15
            )

    def test_invalid_entries_rejected(self):
        with pytest.raises(InvalidParameterError):
            bh_adjust([0.5, 1.2])
        with pytest.raises(InvalidParameterError):
            bh_adjust([-0.1])
        with pytest.raises(InvalidParameterError):
            bh_adjust([])

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_permutation_equivariance_and_bounds(self, p, seed):
        p = np.asarray(p)
        adjusted = bh_adjust(p)
        assert np.all(adjusted >= p - 1e-15)
        assert np.all(adjusted <= 1.0)
        perm = np.random.default_rng(seed).permutation(len(p))
        np.testing.assert_allclose(bh_adjust(p[perm]), adjusted[perm], atol=1e-15)

    def test_order_preserving(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=8)
        adjusted = bh_adjust(p)
        order = np.argsort(p, kind="mergesort")
        assert np.all(np.diff(adjusted[order]) >= -1e-15)


class TestPermutationPvalue:
    def test_formula_floor(self):
        calls = {"n": 0}

        def spiked(a, b):
            calls["n"] += 1
            return 1.0 if calls["n"] == 1 else 0.0

        a = np.arange(5.0)
        b = np.arange(5.0) + 10
        result = permutation_pvalue(spiked, a, b, n_permutations=99, seed=1)
        assert result.pvalue == pytest.approx(1.0 / 100.0)
        assert not result.degenerate

    def test_degenerate_constant(self):
        a = np.full(6, 2.0)
        result = permutation_pvalue(ks_statistic, a, a, n_permutations=99, seed=0)
        assert result.pvalue == 1.0
        assert result.degenerate

    def test_seed_stability(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=40)
        b = rng.normal(0.5, 1, size=40)
        p1 = permutation_pvalue(ks_statistic, a, b, 999, seed=1).pvalue
        p2 = permutation_pvalue(ks_statistic, a, b, 999, seed=2).pvalue
        assert abs(p1 - p2) < 0.05

    def test_deterministic_and_quantized(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        R = 199
        p1 = permutation_pvalue(cvm_statistic, a, b, R, seed=5).pvalue
        p2 = permutation_pvalue(cvm_statistic, a, b, R, seed=5).pvalue
        assert p1 == p2
        quantum = round(p1 * (R + 1))
        assert abs(p1 * (R + 1) - quantum) < 1e-9
        assert 1 <= quantum <= R + 1

    def test_reused_seed_sequence_gives_equal_pvalues(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=20)
        b = rng.normal(0.3, 1, size=20)
        seed = np.random.SeedSequence(5)
        first = permutation_pvalue(ks_statistic, a, b, 199, seed=seed).pvalue
        second = permutation_pvalue(ks_statistic, a, b, 199, seed=seed).pvalue
        assert first == second
        assert first == permutation_pvalue(ks_statistic, a, b, 199, seed=5).pvalue

    def test_too_few_permutations(self):
        with pytest.raises(InvalidParameterError):
            permutation_pvalue(ks_statistic, np.zeros(5), np.ones(5), 50, seed=0)


class TestTwoSampleScoreTest:
    def test_identical_matrices(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(20, 3))
        report = two_sample_score_test(A, A, method="ks", n_permutations=99, seed=0)
        for res in report.per_score:
            assert res.statistic == 0.0
            assert res.p_raw == 1.0
        assert report.global_p == 1.0

    @pytest.mark.parametrize("method", ["ks", "cvm", "energy"])
    def test_shift_detected(self, method):
        rng = np.random.default_rng(2026)
        A = rng.normal(size=(200, 3))
        B = rng.normal(size=(200, 3))
        B[:, 0] += 2.0  # two pooled standard deviations
        report = two_sample_score_test(
            A, B, method=method, n_permutations=999, seed=11
        )
        assert report.global_p < 0.01

    def test_matches_generic_permutation_backend(self):
        # one draw serves every component, so each column matches the generic
        # backend called with the test's own seed
        rng = np.random.default_rng(31)
        A = rng.normal(size=(15, 2))
        B = rng.normal(0.3, 1, size=(18, 2))
        for method, statistic_fn in zip(
            METHODS, (ks_statistic, cvm_statistic, energy_statistic)
        ):
            report = two_sample_score_test(
                A, B, method=method, n_permutations=199, seed=42
            )
            for k in range(2):
                reference = permutation_pvalue(
                    statistic_fn, A[:, k], B[:, k], 199, seed=42
                )
                assert report.per_score[k].p_raw == reference.pvalue

    def test_reused_seed_sequence_gives_equal_reports(self):
        rng = np.random.default_rng(32)
        A = rng.normal(size=(12, 3))
        B = rng.normal(0.4, 1, size=(12, 3))
        seed = np.random.SeedSequence(8)
        for paired in (False, True):
            first = two_sample_score_test(A, B, "cvm", 199, seed=seed, paired=paired)
            second = two_sample_score_test(A, B, "cvm", 199, seed=seed, paired=paired)
            assert first.per_score == second.per_score

    @given(
        st.integers(5, 30),
        st.booleans(),
        st.sampled_from(METHODS),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_duplicated_component_gets_identical_pvalue(
        self, n, paired, method, seed
    ):
        # the draw is shared: a column repeated in the score matrix sees the
        # same membership rows, so its p-values agree exactly
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, 2))
        B = rng.normal(0.2, 1, size=(n, 2))
        report = two_sample_score_test(
            A[:, [0, 1, 0]], B[:, [0, 1, 0]], method=method,
            n_permutations=99, seed=seed, paired=paired,
        )
        assert report.per_score[0].p_raw == report.per_score[2].p_raw
        assert report.per_score[0].statistic == report.per_score[2].statistic

    def test_reduced_null_calibration(self):
        rejections = 0
        runs = 200
        for rep in range(runs):
            rng = np.random.default_rng(9000 + rep)
            A = rng.normal(size=(40, 2))
            B = rng.normal(size=(40, 2))
            report = two_sample_score_test(
                A, B, method="cvm", n_permutations=199, seed=rep
            )
            rejections += report.global_p <= 0.05
        assert rejections / runs <= 0.08

    def test_global_p_monotone_when_adding_identical_component(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(30, 2))
        B = rng.normal(0.8, 1, size=(30, 2))
        shared = rng.normal(size=(30, 1))
        report_small = two_sample_score_test(
            A, B, method="ks", n_permutations=199, seed=3
        )
        report_big = two_sample_score_test(
            np.hstack([A, shared]),
            np.hstack([B, shared]),
            method="ks",
            n_permutations=199,
            seed=3,
        )
        assert report_big.global_p >= report_small.global_p - 1e-12

    def test_paired_variant_runs(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(20, 2))
        B = A + rng.normal(0, 0.1, size=(20, 2)) + 1.5
        report = two_sample_score_test(
            A, B, method="energy", n_permutations=199, seed=4, paired=True
        )
        assert report.global_p < 0.05

    @given(
        st.integers(5, 25),
        st.integers(5, 25),
        st.sampled_from([1, 2, 3, 8, 1000]),
        st.sampled_from([0.1, 0.37, 1.0, 3.0e5]),
        st.booleans(),
        st.sampled_from(METHODS),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_kernel_matches_reference_loop(
        self, n_a, n_b, levels, scale, paired, method, seed
    ):
        # integer samples times a scale that is inexact in binary: the kernel
        # sees rounded values and must still count every exact tie
        n_b = n_a if paired else n_b
        rng = np.random.default_rng(seed)
        ka = rng.integers(0, levels, n_a)
        kb = rng.integers(0, levels, n_b)
        report = two_sample_score_test(
            (ka * scale)[:, None],
            (kb * scale)[:, None],
            method=method,
            n_permutations=99,
            seed=seed,
            paired=paired,
        )
        assert report.per_score[0].p_raw == reference_pvalue(
            method, ka, kb, 99, seed, paired
        )
        if method == "energy":
            dense = scale * dense_energy_units(ka, kb) / (n_a * n_b) ** 2
            assert report.per_score[0].statistic == pytest.approx(
                dense, rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("method", ["ks", "cvm", "energy"])
    def test_paired_swaps_that_all_tie_give_one(self, method):
        # pair i lies inside [i, i + 1), so every swap gives the same
        # statistic; only rounding could make some of them smaller
        rng = np.random.default_rng(7)
        base = np.arange(30.0)
        lo = 0.1 * (base + rng.uniform(0.0, 0.5, 30))
        hi = 0.1 * (base + rng.uniform(0.5, 1.0, 30))
        report = two_sample_score_test(
            lo[:, None], hi[:, None], method=method, n_permutations=199,
            seed=3, paired=True,
        )
        assert report.per_score[0].p_raw == 1.0

    def test_error_cases(self):
        A = np.zeros((10, 2))
        with pytest.raises(ComponentMismatchError):
            two_sample_score_test(A, np.zeros((10, 3)))
        with pytest.raises(InsufficientDataError):
            two_sample_score_test(np.zeros((3, 2)), A)
        with pytest.raises(InvalidParameterError):
            two_sample_score_test(A, A, n_permutations=10)
        with pytest.raises(InvalidParameterError):
            two_sample_score_test(A, A, method="anova")
        with pytest.raises(InsufficientDataError):
            two_sample_score_test(np.zeros((10, 0)), np.zeros((10, 0)))
        for bad in (np.nan, np.inf, -np.inf):
            C = np.ones((10, 2))
            C[4, 1] = bad
            with pytest.raises(InvalidParameterError):
                two_sample_score_test(C, A)


class TestKernel:
    @pytest.mark.parametrize(
        "n_a, N, seed",
        [(5, 10, 0), (20, 33, 7), (400, 800, 1), (400, 800, 999), (100, 200, 999),
         (200, 400, 199), (3, 50, np.random.SeedSequence(4))],
    )
    def test_memberships_match_put_along_axis(self, n_a, N, seed):
        member = membership_matrix(n_a, N, 99, seed)
        np.testing.assert_array_equal(
            member, put_along_axis_memberships(n_a, N, 99, seed)
        )
        assert np.all(member.sum(axis=1) == n_a)

    @pytest.mark.parametrize("n_a, N", [(5, 10), (20, 50), (7, 400)])
    def test_tied_uniforms_still_mark_n_a_members(self, monkeypatch, n_a, N):
        # uniforms rounded to one decimal tie in almost every row, so the rows
        # go through the tie path, which must give argpartition's rows
        default_rng = np.random.default_rng

        class TiedGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, shape):
                return np.round(self.rng.random(shape), 1)

        monkeypatch.setattr(np.random, "default_rng", TiedGenerator)
        member = membership_matrix(n_a, N, 99, 3)
        np.testing.assert_array_equal(member, put_along_axis_memberships(n_a, N, 99, 3))
        assert np.all(member.sum(axis=1) == n_a)

    def test_a_draw_past_the_cell_budget_is_refused(self, monkeypatch):
        # the budget is lowered, so nothing large is allocated on any version
        monkeypatch.setattr(leveltest, "MAX_PERMUTATION_CELLS", 100 * 20)
        A, B = np.arange(10.0)[:, None], np.arange(10.0)[:, None] + 0.5
        assert two_sample_score_test(A, B, n_permutations=99).n_permutations == 99
        for draw in (lambda: two_sample_score_test(A, B, n_permutations=100),
                     lambda: two_sample_score_test(A, B, n_permutations=100, paired=True),
                     lambda: permutation_pvalue(ks_statistic, A[:, 0], B[:, 0], 100)):
            with pytest.raises(InvalidParameterError, match="100 permutations of 20 units "
                               "need 2020 cells, more than the 2000 a test may hold"):
                draw()

    @pytest.mark.parametrize("decimals", [None, 1])
    @pytest.mark.parametrize("rows", [1, 7, 100, 101, 1000])
    def test_batches_draw_the_matrix_of_one_call(self, monkeypatch, rows, decimals):
        # BATCH_CELLS is lowered to whole rows: one, seven, the matrix's 1 + R
        # = 100 and more, so the draws cross batch boundaries. Uniforms rounded
        # to one decimal tie in almost every row and take the tie path.
        n_a, N, R = 20, 50, 99
        paired = membership_matrix(n_a, 2 * n_a, R, 5, paired=True)
        if decimals is not None:
            default_rng = np.random.default_rng

            class RoundedGenerator:
                def __init__(self, seed):
                    self.rng = default_rng(seed)

                def random(self, shape):
                    return np.round(self.rng.random(shape), decimals)

            monkeypatch.setattr(np.random, "default_rng", RoundedGenerator)
        expected = put_along_axis_memberships(n_a, N, R, 5)
        monkeypatch.setattr(leveltest, "BATCH_CELLS", rows * N)
        batches = list(_memberships(n_a, N, R, 5))
        assert [len(batch) for batch in batches[:-1]] == [rows] * (len(batches) - 1)
        np.testing.assert_array_equal(np.concatenate(batches), expected)
        if decimals is None:
            monkeypatch.setattr(leveltest, "BATCH_CELLS", rows * 2 * n_a)
            np.testing.assert_array_equal(membership_matrix(n_a, 2 * n_a, R, 5, paired=True),
                                          paired)

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("rows", [1, 7, 100, 101, 1000])
    def test_batches_give_the_reports_of_one_batch(self, monkeypatch, rows, paired):
        # 1 + R = 100 rows of 40 or 50 cells are one batch by default; the
        # second component is tied, the third constant. Every p-value and the
        # KS and CvM statistics, integer numerators over one divisor, are
        # equal; BLAS may sum energy's spacings over a one-split batch in
        # another order, which moves a last digit
        rng = np.random.default_rng(8)
        A = rng.normal(size=(20, 3))
        B = rng.normal(0.4, 1.0, size=(20 if paired else 30, 3))
        A[:, 1], B[:, 1] = np.round(A[:, 1]), np.round(B[:, 1])
        A[:, 2] = B[:, 2] = 1.5
        for method in METHODS:
            expected = two_sample_score_test(A, B, method, 99, seed=6, paired=paired)
            with monkeypatch.context() as patch:
                patch.setattr(leveltest, "BATCH_CELLS", rows * (len(A) + len(B)))
                report = two_sample_score_test(A, B, method, 99, seed=6, paired=paired)
            assert report.global_p == expected.global_p
            assert [(r.p_raw, r.p_adjusted, r.degenerate) for r in report.per_score] == [
                (r.p_raw, r.p_adjusted, r.degenerate) for r in expected.per_score
            ]
            statistics = [r.statistic for r in report.per_score]
            one_batch = [r.statistic for r in expected.per_score]
            if method == "energy":
                np.testing.assert_allclose(statistics, one_batch, rtol=1e-12, atol=0.0)
            else:
                assert statistics == one_batch

    @pytest.mark.parametrize("R", [999, 9_999])
    @pytest.mark.parametrize("paired", [False, True])
    def test_working_memory_is_one_batch(self, paired, R):
        # tracemalloc counts numpy's allocations exactly. The test holds one
        # batch of splits at a time: its uniforms and their partition, or its
        # transpose, counts and numerators, within 24 bytes a cell of
        # BATCH_CELLS whatever R is; the (1 + R) x K statistics are small
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(400, 2)), rng.normal(0.1, 1.0, size=(400, 2))
        two_sample_score_test(A, B, "energy", R, seed=1, paired=paired)
        tracemalloc.start()
        try:
            two_sample_score_test(A, B, "energy", R, seed=1, paired=paired)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * leveltest.BATCH_CELLS, peak / leveltest.BATCH_CELLS

    @pytest.mark.parametrize("method", ["ks", "cvm"])
    def test_integer_numerators_are_exact(self, method):
        # tied integer samples at a scale that is inexact in binary: every
        # split's statistic is its integer numerator divided once by the
        # method's denominator, so splits that tie give equal floats
        rng = np.random.default_rng(21)
        n_a, n_b = 17, 23
        N = n_a + n_b
        pooled = rng.integers(0, 6, N)
        member = membership_matrix(n_a, N, 199, seed=5)
        stats = _batch_stats(method, 0.37 * pooled[:, None], n_a, 199, 5)[:, 0]
        units = np.array(
            [reference_units(method, pooled[row], pooled[~row]) for row in member]
        )
        denominator = n_a * n_b if method == "ks" else N**2 * n_a * n_b
        np.testing.assert_array_equal(stats, units / denominator)
        if method == "ks":
            np.testing.assert_array_equal(np.rint(stats * n_a * n_b), units)
            assert np.max(np.abs(stats * n_a * n_b - units)) < 1e-9

    def test_large_unpaired_sample_matches_scipy(self):
        # N^2 > 2^31 and N * n_a > 2^31, so an int32 product would overflow
        rng = np.random.default_rng(50)
        a = rng.normal(size=45_000)
        b = rng.normal(0.02, 1.1, size=5_000)
        R = 99
        expected = {
            "ks": scipy_stats.ks_2samp(a, b).statistic,
            "cvm": scipy_stats.cramervonmises_2samp(a, b).statistic,
            "energy": scipy_stats.energy_distance(a, b) ** 2,
        }
        for method in METHODS:
            report = two_sample_score_test(
                a[:, None], b[:, None], method=method, n_permutations=R, seed=3
            )
            result = report.per_score[0]
            assert result.statistic == pytest.approx(
                expected[method], rel=1e-9, abs=0.0
            )
            lattice = result.p_raw * (R + 1)
            assert abs(lattice - round(lattice)) < 1e-9
            assert 1 <= round(lattice) <= R + 1


class TestScoreCovariateCorrelation:
    def test_monotone_extremes(self):
        scores = np.arange(10.0)[:, None]
        up = score_covariate_correlation(scores, np.arange(10.0) ** 3)
        assert up[0].rho == pytest.approx(1.0)
        down = score_covariate_correlation(scores, -np.arange(10.0) ** 3)
        assert down[0].rho == pytest.approx(-1.0)

    def test_bivariate_gaussian_monte_carlo(self):
        # Pearson 0.5176 gives Spearman about 0.5 for a bivariate Gaussian
        rho_p = 2.0 * np.sin(np.pi * 0.5 / 6.0)
        rng = np.random.default_rng(2468)
        cov = np.array([[1.0, rho_p], [rho_p, 1.0]])
        draws = rng.multivariate_normal([0, 0], cov, size=500)
        result = score_covariate_correlation(draws[:, :1], draws[:, 1])
        assert 0.4 <= result[0].rho <= 0.6

    def test_matches_scipy(self):
        rng = np.random.default_rng(13)
        scores = rng.normal(size=(50, 3))
        covariate = rng.normal(size=50)
        results = score_covariate_correlation(scores, covariate)
        for k, res in enumerate(results):
            rho, p = scipy_stats.spearmanr(scores[:, k], covariate)
            assert res.rho == pytest.approx(rho)
            assert res.pvalue == pytest.approx(p)

    def test_matches_scipy_bit_for_bit_with_ties(self):
        # midranks of tied scores and of a tied covariate, and a perfect
        # correlation, whose t is infinite and p-value 0
        rng = np.random.default_rng(17)
        scores = np.column_stack([
            rng.integers(0, 4, size=40).astype(float),
            np.round(rng.normal(size=40), 1),
            np.arange(40.0),
        ])
        for covariate in (np.arange(40.0), np.repeat(np.arange(8.0), 5)):
            for k, res in enumerate(score_covariate_correlation(scores, covariate)):
                rho, p = scipy_stats.spearmanr(scores[:, k], covariate)
                assert (res.rho, res.pvalue) == (float(rho), float(p))

    def test_spearman_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(44)
        scores = rng.normal(size=(40, 1))
        covariate = rng.normal(size=40)
        base = score_covariate_correlation(scores, covariate)[0].rho
        transformed = score_covariate_correlation(np.exp(scores), covariate)[0].rho
        assert transformed == pytest.approx(base)

    def test_zero_variance_errors(self):
        with pytest.raises(UndefinedCorrelationError):
            score_covariate_correlation(np.ones((10, 1)), np.arange(10.0))
        with pytest.raises(UndefinedCorrelationError):
            score_covariate_correlation(
                np.arange(10.0)[:, None], np.ones(10)
            )
