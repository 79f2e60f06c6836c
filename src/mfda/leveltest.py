"""Score-distribution equality test between two groups of units.

Each retained component's scores are compared with a univariate two-sample
statistic (Kolmogorov-Smirnov, Cramer-von Mises, or energy distance),
calibrated by permutation; the per-component p-values are FDR-adjusted and
the minimum adjusted p-value is the global decision value.

One kernel computes every statistic for a batch of group splits, given as a
0/1 matrix marking group A. Per component it takes one stable sort of the
pooled sample and an int32 cumulative count c_j of group-A members along it.
At the j-th of the r_j sorted values the ECDF gap times n_a n_b is the
integer num_j = N c_j - n_a r_j = n_a n_b (F_a - F_b), held exactly in
float64. KS is max |num| / (n_a n_b) and CvM the multiplicity-weighted sum
of num^2 over N^2 n_a n_b (the rank form, Anderson 1962), so splits whose
statistics tie in exact arithmetic give equal floats: always for KS, and for
CvM while N (n_a n_b)^2 < 2^53. Energy distance in one dimension is
2 * integral (F_a - F_b)^2 dt (Szekely & Rizzo 2013), the squared numerators
times the spacings of the sorted values over (n_a n_b)^2, so R splits of N
values cost O(R N) after the sort, with no pairwise distances and no
cancellation. Each component is sorted once, then the splits are drawn and
counted in batches of BATCH_CELLS cells, so the working memory does not grow
with R. The unpaired design relabels freely and the paired design swaps labels
within each pair; the two differ only in how the membership rows are drawn.

Each test draws its membership matrix once, from one generator seeded by
SeedSequence(seed), and applies it to every component: a unit's whole score
vector moves with its label, so the dependence between the components is
kept (Westfall & Young 1993) and a seed gives the same p-values on every
call. A permuted statistic counts as reaching the observed one when it is at
least observed - TIE_RTOL * |observed|, so energy splits that tie
mathematically count whatever the rounding of their spacing-weighted sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ComponentMismatchError,
    InsufficientDataError,
    InvalidParameterError,
    UndefinedCorrelationError,
)

METHODS = ("ks", "cvm", "energy")

MIN_PERMUTATIONS = 99
MIN_GROUP_SIZE = 5
# Most cells (1 + permutations) x pooled units a test may draw. It bounds the
# one byte a cell of the membership matrix (50 MB), the K statistics of each
# permutation and the time, which grows with the cells.
MAX_PERMUTATION_CELLS = 5 * 10**7
# Cells in one batch of splits, about 2 MiB: 16 bytes a cell for its uniforms
# and their partition, 14 for its transpose, gathered rows, counts and numerators
BATCH_CELLS = 1 << 17
# far above the rounding of a sum over N terms (about N * 1e-16 relative) and
# far below the gap between distinct statistics of different splits
TIE_RTOL = 1e-12


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    return _observed("ks", a, b)


def cvm_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Cramer-von Mises criterion.

    (n_a n_b / N^2) sum over pooled distinct values of
    multiplicity * (F_a - F_b)^2, i.e. the integral of the squared ECDF gap
    against the pooled ECDF. Ties are handled by evaluating the ECDFs only
    at value boundaries.
    """
    return _observed("cvm", a, b)


def energy_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Energy distance statistic 2 E|a-b| - E|a-a'| - E|b-b'|.

    V-statistic means (denominators n^2, zero diagonal included), so two
    identical samples give exactly zero.
    """
    return _observed("energy", a, b)


def _observed(method: str, a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    member = _memberships(a.size, a.size + b.size)
    return float(_batch_stats(method, np.concatenate([a, b])[:, None], member)[0, 0])


def _memberships(
    n_a: int,
    N: int,
    n_draws: int = 0,
    seed: int | np.random.SeedSequence = 0,
    paired: bool = False,
) -> np.ndarray:
    """(1 + n_draws, N) boolean rows marking group A in the pooled sample.

    Row 0 is the observed split (the first n_a entries). The drawn rows come
    from one generator seeded by SeedSequence(seed), which only reads a
    SeedSequence seed. Unpaired rows mark the n_a smallest of N uniforms, the
    first n_a entries of a random permutation: each row's uniforms up to its
    n_a-th smallest, or, in a row where that value is tied, the n_a entries
    argpartition puts first. Paired rows move pair i from pooled entry i to
    n_a + i when its uniform is below 1/2. More than MAX_PERMUTATION_CELLS
    cells is an InvalidParameterError, raised before anything is allocated.
    """
    if (1 + n_draws) * N > MAX_PERMUTATION_CELLS:
        raise InvalidParameterError(
            f"{n_draws} permutations of {N} units need {(1 + n_draws) * N} cells, more than "
            f"the {MAX_PERMUTATION_CELLS} a test may hold"
        )
    member = np.zeros((1 + n_draws, N), dtype=bool)
    member[0, :n_a] = True
    rng = np.random.default_rng(seed) if n_draws else None
    # the generator fills row-major: batches draw the uniforms of one call
    step = max(1, BATCH_CELLS // max(N, 1))
    for lo in range(1, 1 + n_draws, step):
        rows = member[lo : lo + step]
        draw = rng.random((len(rows), n_a if paired else N))
        if paired:
            swap = draw < 0.5
            rows[:, :n_a], rows[:, n_a:] = ~swap, swap
        else:
            kth = np.partition(draw, n_a - 1, axis=1)[:, n_a - 1 : n_a].copy()
            np.less_equal(draw, kth, out=rows)
            tied = np.flatnonzero(np.count_nonzero(rows, axis=1) != n_a)
            first = np.argpartition(draw[tied], n_a - 1, axis=1)[:, :n_a]
            rows[tied] = False
            rows[tied[:, None], first] = True
    return member


def _batch_stats(method: str, pooled: np.ndarray, member: np.ndarray) -> np.ndarray:
    """(R, K) statistics of the K columns of pooled (N, K), one row for each
    row of the (R, N) boolean matrix marking group A."""
    N = pooled.shape[0]
    n_a = int(member[0].sum())
    n_ab = n_a * (N - n_a)
    # per component: the stable sort, the last position of each distinct value
    # (None if all are distinct) and its squared numerator's weight: the float
    # multiplicity for CvM, the spacing to the next value for energy (0 at the end)
    plans = []
    for column in pooled.T:
        order = np.argsort(column, kind="mergesort")
        z = column[order]
        boundary = np.r_[np.diff(z) != 0, True]
        weight = (np.diff(np.flatnonzero(boundary), prepend=-1).astype(float)
                  if method == "cvm" else np.diff(z[boundary], append=z[-1]))
        plans.append((order.astype(np.int32), None if boundary.all() else boundary,
                      None if method == "ks" else weight))
    shift = n_a * np.arange(1.0, N + 1)[:, None]
    scale = N**2 * n_ab if method == "cvm" else n_ab**2 / 2
    out = np.empty((pooled.shape[1], member.shape[0]))
    # split-major columns make the sort gather whole rows and the count a
    # running sum of rows; two buffers of one batch serve every component
    step = max(1, BATCH_CELLS // max(N, 1))
    count = np.empty(min(step, len(member)) * N, dtype=np.int32)
    buffer = np.empty(count.size)
    for lo in range(0, len(member), step):
        member_t = np.ascontiguousarray(member[lo : lo + step].T)
        c = count[: member_t.size].reshape(member_t.shape)
        full = buffer[: member_t.size].reshape(member_t.shape)
        for k, (order, boundary, weight) in enumerate(plans):
            c[...] = member_t[order]
            np.add.accumulate(c, axis=0, out=c)
            np.multiply(c, float(N), out=full)
            full -= shift
            num = full if boundary is None else full[boundary]
            if weight is None:
                out[k, lo : lo + c.shape[1]] = np.maximum(num.max(axis=0), -num.min(axis=0)) / n_ab
            else:
                num *= num
                out[k, lo : lo + c.shape[1]] = weight @ num / scale
    return out.T


def _pvalue(permuted: np.ndarray, observed: float) -> float:
    """(1 + #{permuted >= observed, ties within TIE_RTOL}) / (R + 1)."""
    exceed = np.count_nonzero(permuted >= observed - TIE_RTOL * abs(observed))
    return (1 + exceed) / (permuted.size + 1)


class PermutationResult(NamedTuple):
    pvalue: float
    degenerate: bool


def permutation_pvalue(
    statistic_fn: Callable[[np.ndarray, np.ndarray], float],
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int = 999,
    seed: int | np.random.SeedSequence = 0,
) -> PermutationResult:
    """Permutation p-value (1 + #{permuted >= observed}) / (R + 1), with the
    tie rule of the module docstring.

    A constant pooled sample is reported as degenerate with p = 1.
    """
    if n_permutations < MIN_PERMUTATIONS:
        raise InvalidParameterError(
            f"need at least {MIN_PERMUTATIONS} permutations"
        )
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    if np.ptp(pooled) == 0.0:
        return PermutationResult(1.0, True)
    observed = statistic_fn(a, b)
    member = _memberships(a.size, pooled.size, n_permutations, seed)[1:]
    permuted = np.array(
        [statistic_fn(pooled[row], pooled[~row]) for row in member]
    )
    return PermutationResult(_pvalue(permuted, observed), False)


def bh_adjust(p: Sequence[float] | np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values.

    Sort ascending, multiply by m/rank, enforce monotonicity by a cumulative
    minimum from the largest rank, clamp at 1, and map back to input order.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidParameterError("p must be a nonempty 1-D vector")
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise InvalidParameterError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="mergesort")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    out = np.empty(m)
    out[order] = adjusted
    return out


@dataclass(frozen=True)
class ScoreTestResult:
    """One component's statistic and p-values."""

    component: int
    statistic: float
    p_raw: float
    p_adjusted: float
    degenerate: bool = False


@dataclass(frozen=True)
class TestReport:
    """Per-component results plus the min-adjusted-p global decision value."""

    per_score: tuple[ScoreTestResult, ...]
    global_p: float
    method: str
    n_permutations: int
    seed: Optional[int] = None

    def raw_pvalues(self) -> np.ndarray:
        return np.array([r.p_raw for r in self.per_score])


def two_sample_score_test(
    A: np.ndarray,
    B: np.ndarray,
    method: str = "energy",
    n_permutations: int = 999,
    seed: int | np.random.SeedSequence = 0,
    paired: bool = False,
) -> TestReport:
    """Componentwise two-sample test of score-distribution equality.

    Columns of A and B must hold the same components in the same order, and
    every score must be finite. p-values come from permutation.
    paired=True swaps the two group labels within each row pair instead of
    permuting freely (an extension beyond the unpaired default; requires
    equal group sizes).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ComponentMismatchError(
            f"score matrices have {A.shape[1]} vs {B.shape[1]} components"
        )
    if A.shape[1] == 0:
        raise InsufficientDataError("no retained score components to test")
    if A.shape[0] < MIN_GROUP_SIZE or B.shape[0] < MIN_GROUP_SIZE:
        raise InsufficientDataError(
            f"both groups need at least {MIN_GROUP_SIZE} units"
        )
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise InvalidParameterError("scores must be finite")
    if method not in METHODS:
        raise InvalidParameterError(f"method must be one of {METHODS}")
    if n_permutations < MIN_PERMUTATIONS:
        raise InvalidParameterError(
            f"need at least {MIN_PERMUTATIONS} permutations"
        )
    if paired and A.shape[0] != B.shape[0]:
        raise InsufficientDataError("paired test requires equal group sizes")

    K = A.shape[1]
    pooled = np.vstack([A, B])
    member = _memberships(A.shape[0], pooled.shape[0], n_permutations, seed, paired)
    stats = _batch_stats(method, pooled, member)
    # a constant component's statistics are all 0; its p-value is 1
    degenerate = np.ptp(pooled, axis=0) == 0.0
    raw = np.array([
        1.0 if degenerate[k] else _pvalue(stats[1:, k], stats[0, k])
        for k in range(K)
    ])
    adjusted = bh_adjust(raw)
    per_score = tuple(
        ScoreTestResult(
            component=k + 1,
            statistic=float(stats[0, k]),
            p_raw=float(raw[k]),
            p_adjusted=float(adjusted[k]),
            degenerate=bool(degenerate[k]),
        )
        for k in range(K)
    )
    return TestReport(
        per_score=per_score,
        global_p=float(np.min(adjusted)),
        method=method,
        n_permutations=n_permutations,
        seed=seed,
    )


@dataclass(frozen=True)
class ScoreCorrelation:
    """Spearman correlation of one score component against a covariate."""

    component: int
    rho: float
    pvalue: float


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n, each group of ties at its mean rank."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def score_covariate_correlation(
    scores: np.ndarray, covariate: Sequence[float] | np.ndarray
) -> tuple[ScoreCorrelation, ...]:
    """Spearman rank correlation of every score column with the covariate:
    scipy.stats.spearmanr's floats (midranks, t-approximation p-value) without
    the import of scipy.stats, which costs more than the command itself."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    covariate = np.asarray(covariate, dtype=float)
    if covariate.ndim != 1 or covariate.size != scores.shape[0]:
        raise ComponentMismatchError(
            "covariate must have one value per score row"
        )
    if np.any(~np.isfinite(scores)) or np.any(~np.isfinite(covariate)):
        raise InvalidParameterError("scores and covariate must be finite")
    if scores.shape[0] < MIN_GROUP_SIZE:
        raise InsufficientDataError(
            f"need at least {MIN_GROUP_SIZE} observations"
        )
    if np.ptp(covariate) == 0.0:
        raise UndefinedCorrelationError("covariate has zero variance")
    from scipy.special import stdtr

    dof = scores.shape[0] - 2
    covariate_ranks = _midranks(covariate)
    out = []
    for k in range(scores.shape[1]):
        col = scores[:, k]
        if np.ptp(col) == 0.0:
            raise UndefinedCorrelationError(
                f"score component {k + 1} has zero variance"
            )
        rho = np.corrcoef(np.vstack((_midranks(col), covariate_ranks)))[1, 0]
        with np.errstate(divide="ignore"):  # rho = +-1 gives t = +-inf and p = 0
            t = rho * np.sqrt((dof / ((rho + 1.0) * (1.0 - rho))).clip(0))
        out.append(ScoreCorrelation(k + 1, float(rho), float(2 * stdtr(dof, -abs(t)))))
    return tuple(out)
