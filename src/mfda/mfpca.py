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
own smooth, and the diagonal gap estimates the noise. The eigensystem of
every K feeds one BLUP solve for all subjects' scores.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .core import CenteringMeans, Curve, CurveSet, Grid, same_grid
from .errors import (
    DegenerateSpectrumError,
    EmptyDataError,
    GridMismatchError,
    InsufficientDataError,
    MissingMeanError,
    SingularSystemError,
    UnbalancedDesignError,
    field_error,
)
from .fpca import EigenSystem, SplineBasis, eigendecompose, select_k

# A level whose eigenvalue mass is below this fraction of the fit's total
# variance retains zero components instead of fitting noise dust.
DEGENERATE_LEVEL_FRACTION = 1e-10


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

    h1 = property(lambda self: self.h[0])
    h2 = property(lambda self: self.h[1])
    h3 = property(lambda self: self.h[2])


@dataclass(frozen=True, eq=False)
class MultilevelFit:
    """Fitted nested model: means, per-level eigensystems, scores, noise.

    The design is the full product of the n subject labels, the J measure
    labels and K_rep replicates (`shape`). scores[l] has one row per
    level-(l+1) unit, subject, (subject, measure) or (subject, measure,
    replicate), in canonical order, and one column per retained component.
    """

    grid: Grid
    global_mean: Curve
    measure_effects: tuple[Curve, ...]
    level_eig: tuple[EigenSystem, ...]
    scores: tuple[np.ndarray, ...]
    noise_variance: float
    subject_labels: tuple[str, ...]
    measure_labels: tuple[str, ...]
    config: FitConfig = field(default_factory=FitConfig)
    penalties: tuple[float, ...] = ()  # GCV smoothing penalty per level

    def __post_init__(self) -> None:
        """There is one score table per eigensystem and config.levels counts
        them, each level has one score row per unit of the full design, one
        score column per component and finite scores, there is one measure
        effect per measure with config.center_measures and none without, the
        noise variance (a float) is finite and >= 0, and the penalties (floats)
        are none or one finite value per level. If not, an InvalidParameterError
        marked (`field_error`) with the field at fault (the config for a count,
        flag or penalties that disagree) and, for the scores, the first level."""
        if not len(self.scores) == self.config.levels == self.levels:
            raise field_error(f"{self.levels} eigensystems, {len(self.scores)} score tables "
                              f"and config levels {self.config.levels}", "config")
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
        if bool(self.measure_effects) != self.config.center_measures:
            raise field_error(f"config center_measures is {self.config.center_measures} but "
                              f"the fit has {len(self.measure_effects)} measure effects", "config")
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        object.__setattr__(self, "penalties", tuple(map(float, self.penalties)))
        if not 0 <= self.noise_variance < np.inf:
            raise field_error("noise variance must be finite and >= 0, got "
                              f"{self.noise_variance!r}", "noise_variance")
        if len(self.penalties) not in (0, self.levels) or not np.isfinite(self.penalties).all():
            raise field_error(f"penalties {self.penalties}; need none or one finite "
                              f"penalty per level ({self.levels})", "config")

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

    def variance_shares(self) -> dict[str, float]:
        """Fraction of total fitted variance per level plus the noise share."""
        sums = self.level_variance_sums()
        total = sum(sums) + self.noise_variance
        shares = {f"level{l + 1}": s / total for l, s in enumerate(sums)}
        shares["noise"] = self.noise_variance / total
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
    """Validate a balanced nested design and reshape it canonically.

    Returns (values, n, J, K_rep) with values of shape (n, J, K_rep, m) in
    sorted (subject, measure, replicate) order. levels=2 requires exactly one
    replicate per (subject, measure); levels=3 requires K_rep >= 2.
    """
    if levels not in (2, 3):
        raise InsufficientDataError("nested fits support levels 2 or 3")
    if not len(X):
        raise EmptyDataError("empty curve set")
    cells, counts = X.cells()
    if not X.is_balanced():
        raise UnbalancedDesignError("design is not balanced: " + _balance_report(cells, counts))
    n, J = cells[-1].tolist()  # the largest keys, which a full product of 1..n and 1..J ends at
    if len(cells) != n * J:
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
    values = X.values[np.lexsort(X.codes.T[::-1])]
    return values.reshape(n, J, K_rep, X.grid.size), n, J, K_rep


def _centre(rv: np.ndarray, grid: Grid, means: CenteringMeans) -> np.ndarray:
    """Subtract the global mean, then each measure's effect, in place."""
    curves = [means.global_mean, *means.measure_effects.values()]
    if not all(same_grid(c.grid, grid) for c in curves):
        raise GridMismatchError("means live on a different grid")
    rv -= means.global_mean.values
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
    counts the products across distinct child units. Returned shallowest
    first.
    """
    m = rv.shape[-1]
    part = rv[:, :, 0] if rv.shape[2] == 1 else rv
    rows = part.reshape(-1, m)
    gram = rows.T @ rows
    h = [gram / rows.shape[0]]
    rows_per_child = 1
    for _ in range(part.ndim - 2):
        c = part.shape[-2]
        part = part.sum(axis=-2)
        sums = part.reshape(-1, m)
        coarser = sums.T @ sums
        pairs = sums.shape[0] * c * (c - 1) * rows_per_child**2
        h.append((coarser - gram) / pairs)
        gram, rows_per_child = coarser, rows_per_child * c
    return tuple(0.5 * (s + s.T) for s in reversed(h))


def _level_covariances(rv: np.ndarray, grid: Grid) -> LevelCovariances:
    """H surfaces, and every K smoothed in one spline basis; the deepest K,
    which carries the nugget, also gives the noise."""
    h = _moment_surfaces(rv)
    k = (h[0],) + tuple(deep - shallow for shallow, deep in zip(h, h[1:]))
    basis = SplineBasis.of(grid)
    smooths = [basis.smooth(s, nugget=l == len(k) - 1) for l, s in enumerate(k)]
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
    n, J, K_rep, _ = rv.shape
    units = (1, J, J * K_rep)[: len(level_eig)]
    lam = np.concatenate(
        [np.tile(eig.eigenvalues, u) for u, eig in zip(units, level_eig)]
    )
    B = np.hstack(
        [
            np.kron(np.eye(u), np.tile(eig.functions, (J * K_rep // u, 1)))
            for u, eig in zip(units, level_eig)
        ]
    )
    positive = lam > 0
    sqrt_lam = np.sqrt(lam[positive])
    A = B[:, positive] * sqrt_lam
    q = A.shape[1]

    s = np.zeros((n, lam.size))
    if q:
        Y = rv.reshape(n, -1).T  # one column per subject
        if noise_variance > 0:
            gram = A.T @ A + noise_variance * np.eye(q)
            coef = np.linalg.solve(gram, A.T @ Y)
        else:
            if np.linalg.matrix_rank(A) < q:
                raise SingularSystemError(
                    "zero noise variance with a collinear score basis; the "
                    "design is shared, so every subject's system is singular"
                )
            coef = np.linalg.pinv(A) @ Y
        s[:, positive] = (sqrt_lam[:, None] * coef).T

    out = []
    start = 0
    for u, eig in zip(units, level_eig):
        stop = start + u * eig.n_components
        out.append(s[:, start:stop].reshape(n * u, eig.n_components))
        start = stop
    return tuple(out)


def blup_scores(
    X: CurveSet,
    means: CenteringMeans,
    level_eig: tuple[EigenSystem, ...],
    noise_variance: float,
) -> tuple[np.ndarray, ...]:
    """Best linear unbiased predictions of the per-level scores.

    Each subject's centered rows, stacked into one long vector y, are
    regressed on the joint basis B whose columns hold the level-1
    eigenfunctions (shared by all of the subject's rows) and the level-2/3
    eigenfunctions (placed per measure / per row). With score covariance
    L = diag(eigenvalues), the predictor L B^T (B L B^T + s2 I)^{-1} y is
    evaluated through its low-dimensional form; s2 = 0 takes the
    pseudo-inverse limit. The design is shared, so one solve serves every
    subject, each as one right-hand side.
    """
    levels = 2 if len(level_eig) == 2 else 3
    return _blup(_centred_design(X, means, levels), level_eig, noise_variance)


@np.errstate(over="raise", invalid="raise")
def fit_nested(X: CurveSet, config: FitConfig = FitConfig()) -> MultilevelFit:
    """Full nested fit: means, level surfaces, eigensystems, noise, scores.
    Data whose moment products overflow raise FloatingPointError."""
    rv = canonical_design(X, levels=config.levels)[0]
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
        config=config,
        penalties=cov.penalties,
    )
