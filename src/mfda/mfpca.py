"""Nested multilevel functional model fitting (two- and three-level).

fit_nested validates the balanced design once, reshapes it into one
canonical (n, J, K_rep, m) tensor and centres it by broadcasting. A single
moment kernel then forms the nested sums of the centred rows r: the rows
themselves, the unit sums over replicates, and the subject sums. Each depth
gives one cross-product surface H, shallowest first:

* H_deepest: same-row products / (n J K_rep).
* every shallower H: products of rows in the same unit but in distinct
  child units, through the sum identity
  sum_{a != b} r_a r_b^T = S S^T - sum_a r_a r_a^T.

A two-level design is the case K_rep = 1, whose replicate depth is skipped,
so H1 is the between-subject surface and H2 the total. The level surfaces
are K_l = H_l - H_{l-1}, each smoothed in one spline basis and decomposed in
its coefficient space. Same-row products put the white-noise nugget on the
diagonal of the deepest K only, so that surface takes its diagonal from its
own smooth, and the diagonal gap estimates the noise. The BLUP projects
each row once onto every level's eigenfunctions and solves its nested
contrasts, depth by depth, in one small ridge Gram.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import CenteringMeans, Curve, CurveSet, Grid, same_grid, variance_shares
from .errors import (
    DegenerateSpectrumError,
    EmptyDataError,
    GridMismatchError,
    InsufficientDataError,
    MissingMeanError,
    SingularSystemError,
    UnbalancedDesignError,
    UndefinedIccError,
    field_error,
)
from .fpca import EigenSystem, SplineBasis, eigendecompose, select_k

# A level whose eigenvalue mass is below this fraction of the fit's total
# variance retains zero components instead of fitting noise dust.
DEGENERATE_LEVEL_FRACTION = 1e-10
DIAGNOSTICS = ("lambda",)  # the names of a fit's per-level numbers; lambda: the GCV penalty


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fit_nested.

    center_measures=False skips the per-measure means (one-way layout).
    """

    levels: int = 2
    pve: float = 0.99
    center_measures: bool = True

    def __post_init__(self) -> None:
        """Values are stored as the types write_fit writes; pve, a share of variance, must be
        in (0, 1], checked here so a fit that never reaches select_k refuses it (`field_error`)."""
        for name, kind in (("levels", operator.index), ("pve", float), ("center_measures", bool)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if not 0.0 < self.pve <= 1.0:
            raise field_error(f"pve threshold must be in (0, 1], got {self.pve!r}", "config")


@dataclass(frozen=True, eq=False)
class LevelCovariances:
    """Moment-estimated surfaces of one nested fit, one entry per level.

    h holds the cross-product surfaces H_l, shallowest first (two-level: H1
    between subjects, H2 total). coef holds the level surfaces
    K_l = H_l - H_{l-1}, smoothed at the GCV penalties `penalties`, as c x c
    coefficient matrices of `basis`; the deepest took its diagonal from its
    own smooth, and the gap is the noise variance.
    """

    h: tuple[np.ndarray, ...]
    basis: SplineBasis
    coef: tuple[np.ndarray, ...]
    penalties: tuple[float, ...]
    noise_variance: float


@dataclass(frozen=True, eq=False)
class MultilevelFit:
    """Fitted nested model: means, per-level eigensystems, scores, noise.

    The design is the full product of the n subject labels, the J measure
    labels and K_rep replicates (`shape`). scores[l] has one row per
    level-(l+1) unit, in the order of `unit_keys`, and one column per
    retained component. Each diagnostic has one finite value per level, or none.
    """

    grid: Grid
    global_mean: Curve
    measure_effects: tuple[Curve, ...]
    level_eig: tuple[EigenSystem, ...]
    scores: tuple[np.ndarray, ...]
    noise_variance: float
    subject_labels: tuple[str, ...]
    measure_labels: tuple[str, ...]
    pve: float = FitConfig.pve  # the pve threshold select_k applied to every level
    diagnostics: dict[str, tuple[float, ...]] = field(default_factory=dict)
    config = property(lambda self: FitConfig(self.levels, self.pve, bool(self.measure_effects)))

    def __post_init__(self) -> None:
        """pve (a float) is in (0, 1] (`FitConfig`), there is one score table per
        eigensystem, each level has one score row per unit of the full design, one
        score column per component and finite scores, there is one measure effect
        per measure or none, the noise variance (a float) is finite and >= 0, and each
        diagnostic is a name of `DIAGNOSTICS` with one finite value (a float) per level.
        If not, an InvalidParameterError marked (`field_error`) with the field at fault
        (the config for pve or a diagnostic) and, for the scores, the first level."""
        object.__setattr__(self, "pve", self.config.pve)
        if len(self.scores) != self.levels:
            raise field_error(f"{len(self.scores)} score tables, {self.levels} levels", "scores")
        n, J, K_rep = self.shape
        for level, (mat, eig) in enumerate(zip(self.scores, self.level_eig), start=1):
            units = (n, n * J, n * J * K_rep)[level - 1]
            if len(mat) != units:
                fault = f"{len(mat)} score rows, not one per unit of the full design ({units})"
            elif mat.shape[1] != eig.n_components:
                fault = f"{mat.shape[1]} score columns but {eig.n_components} components"
            elif not np.isfinite(mat).all():
                fault = "non-finite scores"
            else:
                continue
            raise field_error(f"level {level} has {fault}", "scores", level)
        if len(self.measure_effects) not in (0, J):
            raise field_error(f"{len(self.measure_effects)} measure effects for {J} measures; "
                              "need one per measure or none", "measure_effects")
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        if not 0 <= self.noise_variance < np.inf:
            raise field_error("noise variance must be finite and >= 0, got "
                              f"{self.noise_variance!r}", "noise_variance")
        diagnostics = {k: tuple(map(float, v)) for k, v in self.diagnostics.items()}
        object.__setattr__(self, "diagnostics", diagnostics)
        for k, v in diagnostics.items():
            if k not in DIAGNOSTICS or len(v) != self.levels or not np.isfinite(v).all():
                raise field_error(f"diagnostic {k} {v}; need one of {DIAGNOSTICS} with one "
                                  f"finite value per level ({self.levels})", "config")

    @property
    def levels(self) -> int:
        return len(self.level_eig)

    @property
    def shape(self) -> tuple[int, int, int]:
        """(n, J, K_rep): subjects, measures, and the replicates per (subject,
        measure), which the deepest score table's rows give (1 for two levels)."""
        n, J = len(self.subject_labels), len(self.measure_labels)
        return n, J, max(1, len(self.scores[-1]) // max(1, n * J))

    @property
    def retained(self) -> tuple[int, ...]:
        return tuple(eig.n_components for eig in self.level_eig)

    def level_variance_sums(self) -> tuple[float, ...]:
        return tuple(float(eig.eigenvalues.sum()) for eig in self.level_eig)

    def unit_keys(self, level: int) -> np.ndarray:
        """Level `level`'s score-row keys in canonical order: a (units, level) object
        array of each unit's subject, measure and replicate ("1".."K_rep") labels."""
        reps = [str(r) for r in range(1, self.shape[2] + 1)]
        index = np.indices(self.shape[:level]).reshape(level, -1)
        return np.column_stack([np.array(labels, dtype=object)[i] for labels, i
                                in zip((self.subject_labels, self.measure_labels, reps), index)])

    def variance_shares(self) -> dict[str, float]:
        """Share of the fitted variance per level and the noise (`core.variance_shares`);
        level1's is the global ICC. A zero total raises UndefinedIccError."""
        shares = variance_shares(self.level_variance_sums(), self.noise_variance)
        if shares is None:
            raise UndefinedIccError("total variance is zero; ICC undefined")
        return shares


def measure_means(X: CurveSet, center_measures: bool = True) -> CenteringMeans:
    """Grand mean plus per-measure deviations with sum_j n_j eta_j = 0.

    With center_measures=False only the grand mean is estimated and the
    measure effects are left empty (interchangeable measures).
    """
    if len(X) == 0:
        raise EmptyDataError("cannot estimate means from an empty curve set")
    grand = X.values.mean(axis=0)
    effects: dict[int, Curve] = {}
    if center_measures:
        order = np.argsort(X.codes[:, 1], kind="stable")  # each measure's rows, in row order
        measures, starts = np.unique(X.codes[order, 1], return_index=True)
        for j, rows in zip(measures.tolist(), np.split(order, starts[1:])):
            effects[j] = Curve(X.grid, X.values[rows].mean(axis=0) - grand)
    return CenteringMeans(Curve(X.grid, grand), effects)


def _balance_report(cells: np.ndarray, counts: np.ndarray) -> str:
    per: dict[int, list[str]] = {}
    for (i, j), count in zip(cells.tolist(), counts.tolist()):
        per.setdefault(i, []).append(f"measure {j}: {count}")
    return "; ".join(f"subject {i} [{', '.join(parts)}]" for i, parts in per.items())


def canonical_design(X: CurveSet, levels: int) -> tuple[np.ndarray, int, int, int]:
    """Validate a balanced nested design and view it canonically.

    Returns (values, n, J, K_rep) with values a read-only (n, J, K_rep, m)
    view of X.values, whose rows the CurveSet holds in canonical (subject,
    measure, replicate) order. levels=2 requires exactly one replicate per
    (subject, measure); levels=3 requires K_rep >= 2.
    """
    if levels not in (2, 3):
        raise InsufficientDataError("nested fits support levels 2 or 3")
    if not len(X):
        raise EmptyDataError("empty curve set")
    cells, counts = X.cells()
    n, J = (np.count_nonzero(np.bincount(c)) for c in cells.T)  # distinct subjects, measures
    if (counts != counts[0]).any() or len(cells) != n * J:
        raise UnbalancedDesignError("design is not balanced: " + _balance_report(cells, counts))
    if cells[-1].tolist() != [n, J]:  # where a full product of 1..n and 1..J ends
        raise UnbalancedDesignError("subject/measure indices must be contiguous from 1: "
                                    + _balance_report(cells, counts))
    K_rep = int(counts[0])
    if J < 2:
        raise InsufficientDataError("nested fits need at least two measures")
    if levels == 2 and K_rep != 1:
        raise UnbalancedDesignError(
            f"two-level fit requires one row per (subject, measure); "
            f"found {K_rep} replicates"
        )
    if levels == 3 and K_rep < 2:
        raise InsufficientDataError(
            "three-level fit needs at least two replicates per measure"
        )
    return X.values.reshape(n, J, K_rep, X.grid.size), n, J, K_rep


def _centre(rv: np.ndarray, grid: Grid, means: CenteringMeans) -> np.ndarray:
    """Subtract the global mean out of place, then each measure's effect in place."""
    curves = [means.global_mean, *means.measure_effects.values()]
    if not all(same_grid(c.grid, grid) for c in curves):
        raise GridMismatchError("means live on a different grid")
    rv = rv - means.global_mean.values
    if means.measure_effects:
        J = rv.shape[1]
        missing = set(range(1, J + 1)) - set(means.measure_effects)
        if missing:
            raise MissingMeanError(f"no mean supplied for measure {min(missing)}")
        effects = [means.measure_effects[j].values for j in range(1, J + 1)]
        rv -= np.asarray(effects)[:, None, :]
    return rv


def _centred_design(X: CurveSet, means: CenteringMeans, levels: int) -> np.ndarray:
    return _centre(canonical_design(X, levels)[0], X.grid, means)


def _moment_surfaces(rv: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cross-product surfaces H of a centred (n, J, K_rep, m) tensor.

    Sums the rows over replicates (skipped when K_rep = 1), then over
    measures; the Gram of each partial sum minus the Gram one depth down
    counts the products across distinct child units. Each Gram turns into its
    H in place, shallowest first, so one m x m array is held per depth. A Gram
    x'x is exactly symmetric, and so are its differences and quotients, so
    none is symmetrised. Returned shallowest first.
    """
    m = rv.shape[-1]
    part = rv[:, :, 0] if rv.shape[2] == 1 else rv
    rows = part.reshape(-1, m)
    grams, pairs, rows_per_child = [rows.T @ rows], [rows.shape[0]], 1
    for _ in range(part.ndim - 2):
        c = part.shape[-2]
        part = part.sum(axis=-2)
        sums = part.reshape(-1, m)
        grams.append(sums.T @ sums)
        pairs.append(sums.shape[0] * c * (c - 1) * rows_per_child**2)
        rows_per_child *= c
    for depth in range(len(grams) - 1, 0, -1):
        grams[depth] -= grams[depth - 1]
    for gram, count in zip(grams, pairs):
        gram /= count
    return tuple(reversed(grams))


def _level_covariances(rv: np.ndarray, grid: Grid) -> LevelCovariances:
    """H surfaces, and every K smoothed in one spline basis; the deepest K,
    which carries the nugget, also gives the noise. K1 is H1 itself, and each
    deeper K is formed in one reused buffer and smoothed before the next."""
    h = _moment_surfaces(rv)
    buffer = np.empty_like(h[0])
    k = chain(h[:1], (np.subtract(deep, shallow, out=buffer) for shallow, deep in zip(h, h[1:])))
    basis = SplineBasis.of(grid)
    smooths = [basis.smooth(s, nugget=l == len(h) - 1) for l, s in enumerate(k)]
    return LevelCovariances(
        h=h,
        basis=basis,
        coef=tuple(C for _, C, _ in smooths),
        penalties=tuple(lam for lam, _, _ in smooths),
        noise_variance=smooths[-1][2],
    )


def sigma_T_hat(X: CurveSet, means: CenteringMeans) -> np.ndarray:
    """Total covariance surface of centered rows with 1/(nJ) normalization."""
    return _moment_surfaces(_centred_design(X, means, levels=2))[1]


def sigma_B_hat(X: CurveSet, means: CenteringMeans) -> np.ndarray:
    """Between-subject surface from cross-products of distinct measures.

    The U-statistic with 1/(nJ(J-1)) normalization, computed through the
    subject-sum identity; unbiased for the subject-level surface.
    """
    return _moment_surfaces(_centred_design(X, means, levels=2))[0]


def three_level_covariances(X: CurveSet, means: CenteringMeans) -> LevelCovariances:
    """Cross-product surfaces H1/H2/H3 and smoothed level surfaces K1/K2/K3.

    H1 averages products across distinct measures within a subject, H2 across
    distinct replicates within a (subject, measure), H3 over same-row
    products. K1 = H1, K2 = H2 - H1, and K3 = H3 - H2, whose diagonal comes
    from its own smooth; the diagonal gap gives the noise variance.
    """
    return _level_covariances(_centred_design(X, means, levels=3), X.grid)


def _blup(
    rv: np.ndarray, level_eig: tuple[EigenSystem, ...], noise_variance: float
) -> tuple[np.ndarray, ...]:
    """blup_scores of a centred (n, J, K_rep, m) tensor, one depth at a time."""
    n, J, K_rep, m = rv.shape
    rows_per_unit = (J * K_rep, K_rep, 1)[: len(level_eig)]
    keep = [eig.eigenvalues > 0 for eig in level_eig]
    sqrt_lam = [np.sqrt(eig.eigenvalues[k]) for eig, k in zip(level_eig, keep)]
    A = np.hstack([eig.functions[:, k] * r for eig, k, r in zip(level_eig, keep, sqrt_lam)])
    q = A.shape[1]
    if noise_variance == 0 and np.linalg.matrix_rank(A) < q:
        raise SingularSystemError(
            "zero noise variance with a collinear score basis; the "
            "design is shared, so every subject's system is singular"
        )
    ridge = np.repeat(noise_variance / np.asarray(rows_per_unit), [r.size for r in sqrt_lam])
    G = A.T @ A + np.diag(ridge)
    p = (rv.reshape(-1, m) @ A).reshape(n, J, K_rep, q)
    means = (p.mean(axis=(1, 2), keepdims=True), p.mean(axis=2, keepdims=True), p)
    out, coef, shallower, start = [], 0, 0, 0
    for mean, eig, k, r in zip(means, level_eig, keep, sqrt_lam):
        units = int(np.prod(mean.shape[:-1]))  # also with no components (q = 0)
        contrast = (mean - shallower)[..., start:]
        solved = np.linalg.solve(G[start:, start:], contrast.reshape(units, q - start).T)
        coef = coef + solved.T.reshape(contrast.shape)  # its own depth's and the shallower ones
        scores = np.zeros((units, eig.n_components))
        scores[:, k] = coef[..., : r.size].reshape(units, r.size) * r
        out.append(scores)
        shallower, start, coef = mean, start + r.size, coef[..., r.size :]  # the deeper levels'
    return tuple(out)


def blup_scores(
    X: CurveSet,
    means: CenteringMeans,
    level_eig: tuple[EigenSystem, ...],
    noise_variance: float,
) -> tuple[np.ndarray, ...]:
    """Best linear unbiased predictions of the per-level scores.

    With score covariance diag(eigenvalues), the BLUP is the ridge fit of a
    subject's centred rows on its joint basis, each unit's eigenfunctions
    scaled by sqrt(eigenvalue) into A = [Phi_l sqrt(lam_l)] (positive
    eigenvalues only). Within a subject, the subject means, the (subject,
    measure) means less their subject mean and the rows less their (subject,
    measure) mean are orthogonal contrasts; the one at depth d involves only
    levels >= d, so it is fitted by the trailing block, from level d on, of
    G = A'A + diag(s2 / rows per level-l unit), with every unit as one
    right-hand side. A level's coefficients sum its own depth's solutions and
    the shallower ones. With s2 = 0 the same solve is used once A, and so
    every subject's joint basis, has full column rank; else it raises
    SingularSystemError.
    """
    levels = 2 if len(level_eig) == 2 else 3
    return _blup(_centred_design(X, means, levels), level_eig, noise_variance)


@np.errstate(over="raise", invalid="raise")
def fit_nested(X: CurveSet, config: FitConfig = FitConfig()) -> MultilevelFit:
    """Full nested fit: means, level surfaces, eigensystems, noise, scores.
    Data whose moment products overflow raise FloatingPointError."""
    rv, n = canonical_design(X, levels=config.levels)[:2]
    if n < 2:  # one subject's level cannot be told from the global mean
        raise InsufficientDataError("a nested fit needs at least two subjects")
    means = measure_means(X, center_measures=config.center_measures)
    rv = _centre(rv, X.grid, means)

    cov = _level_covariances(rv, X.grid)
    sigma2 = cov.noise_variance

    basis = cov.basis.functions
    full_eigs = [eigendecompose(C, X.grid, basis) for C in cov.coef]
    floor = DEGENERATE_LEVEL_FRACTION * (sum(e.eigenvalues.sum() for e in full_eigs) + sigma2)
    if floor == 0:
        raise DegenerateSpectrumError("the data have no variance: all eigenvalues and noise are 0")
    level_eigs = tuple(
        eig.truncated(select_k(eig, config.pve) if eig.eigenvalues.sum() > floor else 0)
        for eig in full_eigs
    )

    scores = _blup(rv, level_eigs, sigma2)

    measures = sorted(means.measure_effects)
    return MultilevelFit(
        grid=X.grid,
        global_mean=means.global_mean,
        measure_effects=tuple(means.measure_effects[j] for j in measures),
        level_eig=level_eigs,
        scores=scores,
        noise_variance=sigma2,
        subject_labels=X.subject_labels,
        measure_labels=X.measure_labels,
        pve=config.pve,
        diagnostics={"lambda": cov.penalties},
    )
