"""Seedable Karhunen-Loeve synthetic-data generator for nested designs.

Builds curves as mean + measure effect + per-level component expansions plus
iid grid-point noise, and returns the hidden truth (scores, level curves,
noise realization, analytic ICC) next to the observable data so estimators
can be checked against a known generative model.

Per-subject draws come from spawned substreams of one seed, so output is
reproducible and independent of any parallel schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np
import yaml

from .core import CurveSet, Grid, NestedIndex
from .errors import InvalidBasisError, InvalidParameterError, ParseError

_EXPR_NAMESPACE = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pi": np.pi,
}

ORTHONORMALITY_TOL = 1e-6


def evaluate_expression(expr: str, t: np.ndarray) -> np.ndarray:
    """Evaluate a curve expression in t with a restricted numpy namespace."""
    try:
        code = compile(expr, "<curve expression>", "eval")
        value = eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "t": t})
    except Exception as exc:
        raise ParseError(f"cannot evaluate curve expression {expr!r}: {exc}") from None
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full_like(t, float(arr))
    if arr.shape != t.shape:
        raise ParseError(
            f"expression {expr!r} produced shape {arr.shape}, expected {t.shape}"
        )
    return arr


def fourier_basis(grid: Grid, count: int) -> np.ndarray:
    """First `count` functions of the orthonormal Fourier ladder, as columns.

    The ladder is sqrt(2) sin(2 pi t), sqrt(2) cos(2 pi t),
    sqrt(2) sin(4 pi t), sqrt(2) cos(4 pi t), ...
    """
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    t = grid.points
    cols = []
    for a in range(count):
        k = a // 2 + 1
        phase = 2.0 * np.pi * k * t
        cols.append(np.sqrt(2.0) * (np.sin(phase) if a % 2 == 0 else np.cos(phase)))
    return np.column_stack(cols)


def _check_orthonormal(functions: np.ndarray, grid: Grid, where: str) -> None:
    gram = functions.T @ (grid.weights[:, None] * functions)
    err = np.abs(gram - np.eye(functions.shape[1]))
    if np.max(err) > ORTHONORMALITY_TOL:
        bad = np.argwhere(err > ORTHONORMALITY_TOL)
        entries = ", ".join(
            f"({a + 1},{b + 1})={gram[a, b]:.3e}" for a, b in bad[:6]
        )
        raise InvalidBasisError(
            f"{where} basis is not orthonormal under the grid quadrature; "
            f"offending Gram entries: {entries}"
        )


@dataclass(frozen=True, eq=False)
class LevelSpec:
    """Eigenvalues and eigenfunctions generating one hierarchy level."""

    eigenvalues: np.ndarray
    functions: np.ndarray  # (m, K) columns, orthonormal under quadrature

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Complete recipe for one synthetic nested dataset.

    levels lists the hierarchy top-down: subject, subject-measure, replicate.
    level2_shift (J x K2) adds a per-measure mean shift to the level-2 scores,
    for power studies. score_df switches Gaussian scores to scaled Student t
    (an extension beyond the Gaussian working model).
    """

    grid: Grid
    n_subjects: int
    n_measures: int
    n_replicates: int
    mean: np.ndarray
    measure_means: Optional[np.ndarray]  # (J, m) or None
    levels: tuple[LevelSpec, ...]
    noise_variance: float
    score_df: Optional[float] = None
    level2_shift: Optional[np.ndarray] = None
    seed: int = 0
    raw: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.n_subjects < 1 or self.n_measures < 1 or self.n_replicates < 1:
            raise InvalidParameterError("design counts must be >= 1")
        if not 1 <= len(self.levels) <= 3:
            raise InvalidParameterError("between one and three levels supported")
        if len(self.levels) >= 2 and self.n_measures < 2:
            raise InvalidParameterError("two-level specs need measures >= 2")
        if len(self.levels) == 3 and self.n_replicates < 2:
            raise InvalidParameterError("three-level specs need replicates >= 2")
        if len(self.levels) < 3 and self.n_replicates != 1:
            raise InvalidParameterError("replicates > 1 requires three levels")
        if self.noise_variance < 0:
            raise InvalidParameterError("noise variance must be >= 0")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if self.score_df is not None and self.score_df <= 2:
            raise InvalidParameterError("score t distribution needs df > 2")
        m = self.grid.size
        if self.mean.shape != (m,):
            raise InvalidParameterError("mean must be tabulated on the grid")
        if self.measure_means is not None and self.measure_means.shape != (
            self.n_measures,
            m,
        ):
            raise InvalidParameterError(
                "measure means must be one curve per measure on the grid"
            )
        for lvl, spec in enumerate(self.levels, start=1):
            if np.any(spec.eigenvalues < 0):
                raise InvalidParameterError(f"level {lvl} eigenvalues must be >= 0")
            if spec.functions.shape != (m, spec.n_components):
                raise InvalidParameterError(
                    f"level {lvl} basis must be (m, K) on the grid"
                )
            _check_orthonormal(spec.functions, self.grid, f"level {lvl}")
        if self.level2_shift is not None:
            if len(self.levels) < 2:
                raise InvalidParameterError("level2_shift needs a second level")
            expected = (self.n_measures, self.levels[1].n_components)
            if self.level2_shift.shape != expected:
                raise InvalidParameterError(
                    f"level2_shift must have shape {expected}"
                )

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def analytic_icc(self) -> Optional[float]:
        """Closed-form global ICC implied by the spec, None for one level."""
        if self.n_levels < 2:
            return None
        sums = [float(spec.eigenvalues.sum()) for spec in self.levels]
        denom = sum(sums) + self.noise_variance
        if denom <= 0:
            return None
        return sums[0] / denom

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the spec (the raw input when available)."""
        if self.raw is not None:
            return dict(self.raw)
        d: dict[str, Any] = {
            "grid": {"points": [float(p) for p in self.grid.points]},
            "design": {
                "subjects": self.n_subjects,
                "measures": self.n_measures,
                "replicates": self.n_replicates,
            },
            "mean": [float(v) for v in self.mean],
            "levels": [
                {
                    "eigenvalues": [float(v) for v in spec.eigenvalues],
                    "basis": [[float(v) for v in col] for col in spec.functions.T],
                }
                for spec in self.levels
            ],
            "noise_variance": float(self.noise_variance),
            "seed": int(self.seed),
        }
        if self.measure_means is not None:
            d["measure_means"] = [[float(v) for v in row] for row in self.measure_means]
        if self.score_df is not None:
            d["score_distribution"] = {"kind": "student_t", "df": float(self.score_df)}
        if self.level2_shift is not None:
            d["level2_shift"] = {
                str(j + 1): [float(v) for v in row]
                for j, row in enumerate(self.level2_shift)
                if np.any(row != 0)
            }
        return d


def _tabulate(value: Any, grid: Grid, what: str) -> np.ndarray:
    if isinstance(value, str):
        return evaluate_expression(value, grid.points)
    if isinstance(value, (int, float)):
        return np.full(grid.size, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != grid.points.shape:
        raise ParseError(f"{what} must have one value per grid point")
    return arr


def spec_from_dict(data: Mapping[str, Any]) -> GeneratorSpec:
    """Build a GeneratorSpec from plain data (parsed YAML)."""
    if not isinstance(data, Mapping):
        raise ParseError("generator spec must be a mapping")
    try:
        grid_cfg = data["grid"]
        design = data["design"]
        level_cfgs = data["levels"]
    except KeyError as exc:
        raise ParseError(f"generator spec is missing section {exc.args[0]!r}") from None
    for name, kind in (("grid", Mapping), ("design", Mapping), ("levels", list),
                       ("measure_means", list), ("level2_shift", Mapping)):
        value = data.get(name)
        if value is not None and not isinstance(value, kind):
            raise ParseError(
                f"generator spec section {name!r} must be a "
                f"{'mapping' if kind is Mapping else 'list'}, got {type(value).__name__}"
            )
    if not all(isinstance(cfg, Mapping) for cfg in level_cfgs):
        raise ParseError("generator spec section 'levels' must list mappings")
    if "points" in grid_cfg:
        grid = Grid.from_points(np.asarray(grid_cfg["points"], dtype=float))
    elif "m" in grid_cfg:
        grid = Grid.uniform(int(grid_cfg["m"]))
    else:
        raise ParseError("grid section needs either 'm' or 'points'")

    n = int(design.get("subjects", 0))
    J = int(design.get("measures", 1))
    K_rep = int(design.get("replicates", 1))

    mean = _tabulate(data.get("mean", 0.0), grid, "mean")
    measure_means = None
    if data.get("measure_means") is not None:
        rows = [
            _tabulate(v, grid, f"measure mean {j + 1}")
            for j, v in enumerate(data["measure_means"])
        ]
        if len(rows) != J:
            raise ParseError(f"expected {J} measure means, got {len(rows)}")
        measure_means = np.asarray(rows)

    offset = 0
    levels = []
    for lvl, cfg in enumerate(level_cfgs, start=1):
        evals = np.asarray(cfg["eigenvalues"], dtype=float)
        basis_cfg = cfg.get("basis", "fourier")
        if isinstance(basis_cfg, str):
            if basis_cfg != "fourier":
                raise ParseError(f"unknown basis family {basis_cfg!r}")
            funcs = fourier_basis(grid, offset + evals.size)[:, offset:]
            offset += evals.size
        else:
            funcs = np.asarray(basis_cfg, dtype=float).T  # rows in file -> columns
            if funcs.shape != (grid.size, evals.size):
                raise ParseError(
                    f"level {lvl} tabulated basis must be {evals.size} rows "
                    f"of {grid.size} values"
                )
        levels.append(LevelSpec(eigenvalues=evals, functions=funcs))

    score_df = None
    dist = data.get("score_distribution", "gaussian")
    if isinstance(dist, Mapping):
        if dist.get("kind") != "student_t":
            raise ParseError(f"unknown score distribution {dist!r}")
        score_df = float(dist["df"])
    elif dist != "gaussian":
        raise ParseError(f"unknown score distribution {dist!r}")

    level2_shift = None
    if data.get("level2_shift"):
        if len(levels) < 2:
            raise ParseError("level2_shift needs a two- or three-level spec")
        K2 = levels[1].n_components
        level2_shift = np.zeros((J, K2))
        for key, row in data["level2_shift"].items():
            j = int(key)
            if not 1 <= j <= J:
                raise ParseError(f"level2_shift measure {key!r} outside 1..{J}")
            arr = np.asarray(row, dtype=float)
            if arr.shape != (K2,):
                raise ParseError(f"level2_shift rows must have {K2} entries")
            level2_shift[j - 1] = arr

    return GeneratorSpec(
        grid=grid,
        n_subjects=n,
        n_measures=J,
        n_replicates=K_rep,
        mean=mean,
        measure_means=measure_means,
        levels=tuple(levels),
        noise_variance=float(data.get("noise_variance", 0.0)),
        score_df=score_df,
        level2_shift=level2_shift,
        seed=int(data.get("seed", 0)),
        raw=dict(data),
    )


def load_spec(path: str, seed: Optional[int] = None) -> GeneratorSpec:
    """Read a generator spec from a YAML file; a given seed replaces the
    spec's own."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot parse spec file {path}: {exc}") from None
    if seed is not None and isinstance(data, Mapping):
        data = {**data, "seed": seed}
    return spec_from_dict(data)


def save_spec(spec: GeneratorSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(spec.to_dict(), fh, sort_keys=True)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Hidden state behind one generated dataset.

    scores and level_curves are ordered like the observable rows' units:
    level 1 by subject, level 2 by (subject, measure), level 3 by row.
    noiseless + noise reproduces the observed values bitwise.
    """

    spec: GeneratorSpec
    scores: tuple[np.ndarray, ...]
    level_curves: tuple[np.ndarray, ...]
    noiseless: np.ndarray
    noise: np.ndarray
    analytic_icc: Optional[float]


def _draw_scores(
    rng: np.random.Generator, eigenvalues: np.ndarray, size: int, df: Optional[float]
) -> np.ndarray:
    sd = np.sqrt(eigenvalues)
    if df is None:
        z = rng.standard_normal((size, eigenvalues.size))
    else:
        z = rng.standard_t(df, (size, eigenvalues.size)) * np.sqrt((df - 2.0) / df)
    return z * sd


def generate(spec: GeneratorSpec) -> tuple[CurveSet, GroundTruth]:
    """Draw one dataset plus its hidden truth, deterministically in the seed."""
    n, J, K_rep = spec.n_subjects, spec.n_measures, spec.n_replicates
    m = spec.grid.size
    n_levels = spec.n_levels
    rows_per_subject = J * K_rep

    children = np.random.SeedSequence(spec.seed).spawn(n)

    scores1 = np.zeros((n, spec.levels[0].n_components))
    scores2 = (
        np.zeros((n * J, spec.levels[1].n_components)) if n_levels >= 2 else None
    )
    scores3 = (
        np.zeros((n * rows_per_subject, spec.levels[2].n_components))
        if n_levels == 3
        else None
    )
    noiseless = np.zeros((n * rows_per_subject, m))
    noise = np.zeros_like(noiseless)

    base = spec.mean if spec.measure_means is None else spec.mean + spec.measure_means
    # base is (m,) without measure means, else (J, m); normalize to (J, m)
    if base.ndim == 1:
        base = np.broadcast_to(base, (J, m))

    values = np.zeros_like(noiseless)
    for i in range(n):
        rng = np.random.default_rng(children[i])
        c = _draw_scores(rng, spec.levels[0].eigenvalues, 1, spec.score_df)[0]
        scores1[i] = c
        z_curve = spec.levels[0].functions @ c
        for j in range(J):
            if n_levels >= 2:
                d = _draw_scores(rng, spec.levels[1].eigenvalues, 1, spec.score_df)[0]
                if spec.level2_shift is not None:
                    d = d + spec.level2_shift[j]
                scores2[i * J + j] = d
                w_curve = spec.levels[1].functions @ d
            else:
                w_curve = np.zeros(m)
            for k in range(K_rep):
                row = i * rows_per_subject + j * K_rep + k
                curve = base[j] + z_curve + w_curve
                if n_levels == 3:
                    u = _draw_scores(
                        rng, spec.levels[2].eigenvalues, 1, spec.score_df
                    )[0]
                    scores3[row] = u
                    curve = curve + spec.levels[2].functions @ u
                noiseless[row] = curve
        block = slice(i * rows_per_subject, (i + 1) * rows_per_subject)
        if spec.noise_variance > 0:
            eps = rng.normal(
                0.0, np.sqrt(spec.noise_variance), (rows_per_subject, m)
            )
            values[block] = noiseless[block] + eps
        else:
            values[block] = noiseless[block]
    # Stored as the recomputed residual so observed - noiseless == noise bitwise.
    noise = values - noiseless

    index = []
    for i in range(1, n + 1):
        for j in range(1, J + 1):
            if n_levels == 3:
                for k in range(1, K_rep + 1):
                    index.append(NestedIndex(i, j, k))
            else:
                index.append(NestedIndex(i, j))
    curves = CurveSet(spec.grid, tuple(index), values)

    level_curves = [scores1 @ spec.levels[0].functions.T]
    score_list = [scores1]
    if n_levels >= 2:
        level_curves.append(scores2 @ spec.levels[1].functions.T)
        score_list.append(scores2)
    if n_levels == 3:
        level_curves.append(scores3 @ spec.levels[2].functions.T)
        score_list.append(scores3)

    truth = GroundTruth(
        spec=spec,
        scores=tuple(score_list),
        level_curves=tuple(level_curves),
        noiseless=noiseless,
        noise=noise,
        analytic_icc=spec.analytic_icc(),
    )
    return curves, truth
