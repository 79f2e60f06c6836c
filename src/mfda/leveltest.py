"""Score-distribution equality test between two groups of units.

Each retained component's scores are compared with a univariate two-sample
statistic (Kolmogorov-Smirnov, Cramer-von Mises, or energy distance),
calibrated by permutation; the per-component p-values are FDR-adjusted and
the minimum adjusted p-value is the global decision value.

Permutation replicates draw from independently spawned substreams of the
seed, so p-values are reproducible regardless of evaluation order.
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


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(_batch_stats("ks", np.concatenate([a, b]), a.size, None))


def cvm_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Cramer-von Mises criterion.

    (n_a n_b / N^2) sum over pooled distinct values of
    multiplicity * (F_a - F_b)^2, i.e. the integral of the squared ECDF gap
    against the pooled ECDF. Ties are handled by evaluating the ECDFs only
    at value boundaries.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(_batch_stats("cvm", np.concatenate([a, b]), a.size, None))


def energy_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Energy distance statistic 2 E|a-b| - E|a-a'| - E|b-b'|.

    V-statistic means (denominators n^2, zero diagonal included), so two
    identical samples give exactly zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(_batch_stats("energy", np.concatenate([a, b]), a.size, None))


_STATISTIC_FNS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "ks": ks_statistic,
    "cvm": cvm_statistic,
    "energy": energy_statistic,
}


def _permutation_matrix(
    n: int, n_permutations: int, seed_seq: np.random.SeedSequence
) -> np.ndarray:
    """(R, n) index rows, one independently seeded substream per replicate."""
    children = seed_seq.spawn(n_permutations)
    out = np.empty((n_permutations, n), dtype=np.intp)
    for r, child in enumerate(children):
        out[r] = np.random.default_rng(child).permutation(n)
    return out


def _batch_stats(
    method: str, pooled: np.ndarray, n_a: int, perms: Optional[np.ndarray]
) -> np.ndarray | float:
    """Statistics for the observed split (perms=None) or each permutation row.

    Group A is the first n_a entries of each index row.
    """
    N = pooled.size
    n_b = N - n_a
    if perms is None:
        perms = np.arange(N, dtype=np.intp)[None, :]
        single = True
    else:
        single = False
    R = perms.shape[0]
    is_a = np.zeros((R, N))
    np.put_along_axis(is_a, perms[:, :n_a], 1.0, axis=1)

    if method == "energy":
        D = np.abs(pooled[:, None] - pooled[None, :])
        SA = is_a @ D
        sum_aa = np.einsum("rj,rj->r", SA, is_a)
        sum_ab = SA.sum(axis=1) - sum_aa
        sum_bb = D.sum() - 2.0 * sum_ab - sum_aa
        stats = (
            2.0 * sum_ab / (n_a * n_b)
            - sum_aa / (n_a * n_a)
            - sum_bb / (n_b * n_b)
        )
    else:
        order = np.argsort(pooled, kind="mergesort")
        z = pooled[order]
        boundary = np.r_[np.diff(z) != 0, True]
        cum_a = np.cumsum(is_a[:, order], axis=1)[:, boundary]
        ranks = np.flatnonzero(boundary) + 1
        f_a = cum_a / n_a
        f_b = (ranks[None, :] - cum_a) / n_b
        gap = f_a - f_b
        if method == "ks":
            stats = np.max(np.abs(gap), axis=1)
        elif method == "cvm":
            mult = np.diff(ranks, prepend=0)
            stats = (n_a * n_b / N**2) * (gap**2 @ mult)
        else:
            raise InvalidParameterError(f"unknown method {method!r}")
    return stats[0] if single else stats


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
    """Permutation p-value (1 + #{permuted >= observed}) / (R + 1).

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
    seed_seq = (
        seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    )
    observed = statistic_fn(a, b)
    perms = _permutation_matrix(pooled.size, n_permutations, seed_seq)
    n_a = a.size
    exceed = sum(
        1
        for row in perms
        if statistic_fn(pooled[row[:n_a]], pooled[row[n_a:]]) >= observed
    )
    return PermutationResult((1 + exceed) / (n_permutations + 1), False)


def _permutation_pvalue_batched(
    method: str,
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[float, PermutationResult]:
    """Observed statistic and p-value with the statistics batched over
    permutations; matches permutation_pvalue(statistic_fn=...) exactly."""
    pooled = np.concatenate([a, b])
    observed = float(_batch_stats(method, pooled, a.size, None))
    if np.ptp(pooled) == 0.0:
        return observed, PermutationResult(1.0, True)
    perms = _permutation_matrix(pooled.size, n_permutations, seed_seq)
    stats = _batch_stats(method, pooled, a.size, perms)
    pvalue = (1 + int(np.sum(stats >= observed))) / (n_permutations + 1)
    return observed, PermutationResult(pvalue, False)


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
    pvalue_method: str = "permutation"
    seed: Optional[int] = None

    def raw_pvalues(self) -> np.ndarray:
        return np.array([r.p_raw for r in self.per_score])

    def adjusted_pvalues(self) -> np.ndarray:
        return np.array([r.p_adjusted for r in self.per_score])


def two_sample_score_test(
    A: np.ndarray,
    B: np.ndarray,
    method: str = "energy",
    n_permutations: int = 999,
    seed: int = 0,
    pvalue_method: str = "permutation",
    paired: bool = False,
) -> TestReport:
    """Componentwise two-sample test of score-distribution equality.

    Columns of A and B must hold the same components in the same order.
    p-values come from permutation by default; the asymptotic formula is
    available for the KS statistic only. paired=True swaps the two group
    labels within each row pair instead of permuting freely (an extension
    beyond the unpaired default; requires equal group sizes).
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
    if method not in METHODS:
        raise InvalidParameterError(f"method must be one of {METHODS}")
    if pvalue_method not in ("permutation", "asymptotic"):
        raise InvalidParameterError(
            "pvalue_method must be 'permutation' or 'asymptotic'"
        )
    if pvalue_method == "asymptotic" and method != "ks":
        raise InvalidParameterError(
            f"asymptotic p-values are only available for ks, not {method}"
        )
    if pvalue_method == "permutation" and n_permutations < MIN_PERMUTATIONS:
        raise InvalidParameterError(
            f"need at least {MIN_PERMUTATIONS} permutations"
        )
    if paired and A.shape[0] != B.shape[0]:
        raise InsufficientDataError("paired test requires equal group sizes")

    K = A.shape[1]
    children = np.random.SeedSequence(seed).spawn(K)
    statistics = np.zeros(K)
    raw = np.ones(K)
    degenerate = np.zeros(K, dtype=bool)
    for k in range(K):
        a, b = A[:, k], B[:, k]
        if pvalue_method == "asymptotic":
            statistics[k] = ks_statistic(a, b)
            if np.ptp(np.concatenate([a, b])) == 0.0:
                degenerate[k] = True
                raw[k] = 1.0
            else:
                from scipy.special import kolmogorov

                en = a.size * b.size / (a.size + b.size)
                raw[k] = float(kolmogorov(statistics[k] * np.sqrt(en)))
        elif paired:
            statistics[k] = _STATISTIC_FNS[method](a, b)
            result = _paired_permutation_pvalue(
                method, a, b, n_permutations, children[k]
            )
            raw[k], degenerate[k] = result
        else:
            statistics[k], result = _permutation_pvalue_batched(
                method, a, b, n_permutations, children[k]
            )
            raw[k], degenerate[k] = result

    adjusted = bh_adjust(raw)
    per_score = tuple(
        ScoreTestResult(
            component=k + 1,
            statistic=float(statistics[k]),
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
        n_permutations=n_permutations if pvalue_method == "permutation" else 0,
        pvalue_method=pvalue_method,
        seed=seed,
    )


def _paired_permutation_pvalue(
    method: str,
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int,
    seed_seq: np.random.SeedSequence,
) -> PermutationResult:
    """Within-pair label swaps instead of free relabeling."""
    pooled = np.concatenate([a, b])
    if np.ptp(pooled) == 0.0:
        return PermutationResult(1.0, True)
    observed = _STATISTIC_FNS[method](a, b)
    children = seed_seq.spawn(n_permutations)
    exceed = 0
    for child in children:
        swap = np.random.default_rng(child).integers(0, 2, a.size).astype(bool)
        a_perm = np.where(swap, b, a)
        b_perm = np.where(swap, a, b)
        if _STATISTIC_FNS[method](a_perm, b_perm) >= observed:
            exceed += 1
    return PermutationResult((1 + exceed) / (n_permutations + 1), False)


@dataclass(frozen=True)
class ScoreCorrelation:
    """Spearman correlation of one score component against a covariate."""

    component: int
    rho: float
    pvalue: float


def score_covariate_correlation(
    scores: np.ndarray, covariate: Sequence[float] | np.ndarray
) -> tuple[ScoreCorrelation, ...]:
    """Spearman rank correlation of every score column with the covariate.

    Midrank tie handling with the t-approximation p-value (scipy backend).
    """
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
    from scipy import stats

    out = []
    for k in range(scores.shape[1]):
        col = scores[:, k]
        if np.ptp(col) == 0.0:
            raise UndefinedCorrelationError(
                f"score component {k + 1} has zero variance"
            )
        rho, pvalue = stats.spearmanr(col, covariate)
        out.append(ScoreCorrelation(k + 1, float(rho), float(pvalue)))
    return tuple(out)
