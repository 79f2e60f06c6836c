"""Seedable Karhunen-Loeve synthetic-data generator for nested designs.

Builds curves as mean + measure effect + per-level component expansions plus
iid grid-point noise, and returns the hidden truth (scores, level curves,
noiseless curves, analytic ICC) next to the observable data so estimators
can be checked against a known generative model.

Per-subject draws come from spawned substreams of one seed, so output is
reproducible and independent of any parallel schedule.
"""

from __future__ import annotations

import ast
import operator
import reprlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from .core import CurveSet, Grid, variance_shares
from .errors import InvalidBasisError, InvalidParameterError, ParseError

_EXPR_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_EXPR_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}

_SPEC_KEYS = ("grid", "design", "mean", "measure_means", "levels", "noise_variance",
              "score_distribution", "level2_shift", "seed")
ORTHONORMALITY_TOL = 1e-6
# Most values (subjects x measures x replicates x grid points) a generated
# dataset may hold; one float64 copy of them is 800 MB, and generate keeps a few.
MAX_VALUES = 10**8


def _evaluate_node(node: ast.AST, t: np.ndarray) -> Any:
    """Value of one node of a parsed curve expression, in float64."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return np.float64(node.value)
    if isinstance(node, ast.Name) and node.id == "t":
        return t
    if isinstance(node, ast.Name) and node.id == "pi":
        return np.float64(np.pi)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
        left, right = _evaluate_node(node.left, t), _evaluate_node(node.right, t)
        return _EXPR_OPERATORS[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPERATORS:
        return _EXPR_OPERATORS[type(node.op)](_evaluate_node(node.operand, t))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EXPR_FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        return _EXPR_FUNCTIONS[node.func.id](_evaluate_node(node.args[0], t))
    shown = getattr(node, "id", None) or type(getattr(node, "op", node)).__name__
    raise ValueError(f"{shown} is not allowed")


def evaluate_expression(expr: str, t: np.ndarray) -> np.ndarray:
    """Evaluate a curve expression in t: numbers, t, pi, + - * / **, unary
    signs and one-argument calls of sin, cos, tan, exp, log, sqrt and abs.

    Arithmetic is float64 throughout, so an overflow gives inf at once; a
    value that is not finite somewhere on the grid is rejected.
    """
    try:
        with np.errstate(all="ignore"):
            value = _evaluate_node(ast.parse(expr, mode="eval").body, t)
    except (SyntaxError, ValueError, RecursionError, OverflowError, MemoryError) as exc:
        raise ParseError(f"cannot evaluate curve expression {expr!r}: {exc}") from None
    if not np.all(np.isfinite(value)):
        raise ParseError(f"curve expression {expr!r} is not finite on the grid")
    return np.full(t.shape, value) if np.ndim(value) == 0 else value


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
    (an extension beyond the Gaussian working model). raw is the plain-data
    mapping the spec was read from.
    """

    grid: Grid
    n_subjects: int
    n_measures: int
    n_replicates: int
    mean: np.ndarray
    measure_means: Optional[np.ndarray]  # (J, m) or None
    levels: tuple[LevelSpec, ...]
    noise_variance: float
    raw: Mapping[str, Any]
    score_df: Optional[float] = None
    level2_shift: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self) -> None:
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
        if self.measure_means is not None and self.measure_means.shape != (self.n_measures, m):
            raise InvalidParameterError("measure means must be one curve per measure on the grid")
        for lvl, spec in enumerate(self.levels, start=1):
            if spec.n_components < 1 or np.any(spec.eigenvalues < 0):
                raise InvalidParameterError(f"level {lvl} needs eigenvalues, all >= 0")
            if spec.functions.shape != (m, spec.n_components):
                raise InvalidParameterError(
                    f"level {lvl} basis must be {spec.n_components} rows of {m} values"
                )
            _check_orthonormal(spec.functions, self.grid, f"level {lvl}")

    def analytic_icc(self) -> Optional[float]:
        """Closed-form global ICC implied by the spec (`core.variance_shares`), None
        for one level or a zero total, which truth.json writes as null."""
        shares = variance_shares([float(s.eigenvalues.sum()) for s in self.levels],
                                 self.noise_variance)
        return None if shares is None or len(self.levels) < 2 else shares["level1"]


def _bad_value(where: str, kind: str, value: Any) -> ParseError:
    return ParseError(
        f"generator spec section {where} must be {kind}, got {reprlib.repr(value)}"
    )


def _integer(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _bad_value(where, "an integer", value)
    return value


def _floats(value: Any, where: str, ndim: int) -> np.ndarray:
    """value as a finite float array of ndim dimensions."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError, RecursionError):
        arr = np.array(np.nan)
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        kind = ("a finite number", "a list of finite numbers", "rows of finite numbers")[ndim]
        raise _bad_value(where, kind, value)
    return arr


def _tabulate(value: Any, grid: Grid, where: str) -> np.ndarray:
    if isinstance(value, str):
        return evaluate_expression(value, grid.points)
    arr = _floats(value, where, 1 if isinstance(value, list) else 0)
    if arr.ndim == 0:
        return np.full(grid.size, float(arr))
    if arr.shape != grid.points.shape:
        raise ParseError(f"{where} must have one value per grid point")
    return arr


def spec_from_dict(data: Mapping[str, Any]) -> GeneratorSpec:
    """Build a GeneratorSpec from plain data (parsed YAML)."""
    if not isinstance(data, Mapping):
        raise ParseError("generator spec must be a mapping")
    try:
        grid_cfg, design, level_cfgs = data["grid"], data["design"], data["levels"]
    except KeyError as exc:
        raise ParseError(f"generator spec is missing section {exc.args[0]!r}") from None
    for name, kind in (("grid", Mapping), ("design", Mapping), ("levels", list),
                       ("measure_means", list), ("level2_shift", Mapping)):
        value = data.get(name)
        required = name in ("grid", "design", "levels")
        if not isinstance(value, kind) and (value is not None or required):
            raise ParseError(
                f"generator spec section {name!r} must be a "
                f"{'mapping' if kind is Mapping else 'list'}, got {type(value).__name__}"
            )
    if not all(isinstance(cfg, Mapping) for cfg in level_cfgs):
        raise ParseError("generator spec section 'levels' must list mappings")
    sections = [(data, "", _SPEC_KEYS), (grid_cfg, " section 'grid'", ("m", "points")),
                (design, " section 'design'", ("subjects", "measures", "replicates"))]
    sections += [(cfg, f" section 'levels' entry {lvl}", ("eigenvalues", "basis"))
                 for lvl, cfg in enumerate(level_cfgs, start=1)]
    if isinstance(data.get("score_distribution"), Mapping):
        sections.append((data["score_distribution"], " section 'score_distribution'",
                         ("kind", "df")))
    for mapping, where, known in sections:
        unknown = [key for key in mapping if key not in known]
        if unknown:
            raise ParseError(f"generator spec{where} has unknown key {unknown[0]!r}; "
                             f"known keys: {', '.join(known)}")
    if "points" in grid_cfg:
        grid = Grid(_floats(grid_cfg["points"], "'grid' key 'points'", 1))
    elif "m" in grid_cfg:
        m = _integer(grid_cfg["m"], "'grid' key 'm'")
        if m > MAX_VALUES:
            raise InvalidParameterError(f"grid of {m} points is more than the {MAX_VALUES} "
                                        "values a generated dataset may hold")
        grid = Grid.uniform(m)
    else:
        raise ParseError("grid section needs either 'm' or 'points'")

    n, J, K_rep = (
        _integer(design.get(key, default), f"'design' key {key!r}")
        for key, default in (("subjects", 0), ("measures", 1), ("replicates", 1))
    )
    if min(n, J, K_rep) < 1:
        raise InvalidParameterError("design counts must be >= 1")
    if n * J * K_rep * grid.size > MAX_VALUES:
        raise InvalidParameterError(
            f"design of {n} subjects x {J} measures x {K_rep} replicates x "
            f"{grid.size} grid points is {n * J * K_rep * grid.size} values, more "
            f"than the {MAX_VALUES} a generated dataset may hold"
        )

    mean = _tabulate(data.get("mean", 0.0), grid, "'mean'")
    measure_means = None
    if data.get("measure_means") is not None:
        measure_means = np.asarray([
            _tabulate(v, grid, f"'measure_means' entry {j + 1}")
            for j, v in enumerate(data["measure_means"])
        ])

    offset = 0
    levels = []
    for lvl, cfg in enumerate(level_cfgs, start=1):
        where = f"'levels' entry {lvl} key"
        evals = _floats(cfg.get("eigenvalues"), f"{where} 'eigenvalues'", 1)
        basis_cfg = cfg.get("basis", "fourier")
        if isinstance(basis_cfg, str):
            if basis_cfg != "fourier":
                raise ParseError(f"unknown basis family {basis_cfg!r}")
            # one function at least, so that a level 1 without eigenvalues meets the spec's check
            ladder = fourier_basis(grid, max(offset + evals.size, 1))
            funcs = ladder[:, offset : offset + evals.size]
            offset += evals.size
        else:
            funcs = _floats(basis_cfg, f"{where} 'basis'", 2).T  # rows -> columns
        levels.append(LevelSpec(eigenvalues=evals, functions=funcs))

    score_df = None
    dist = data.get("score_distribution", "gaussian")
    if isinstance(dist, Mapping) and dist.get("kind") == "student_t":
        score_df = float(_floats(dist.get("df"), "'score_distribution' key 'df'", 0))
    elif dist != "gaussian":
        raise ParseError(f"unknown score distribution {dist!r}")

    level2_shift = None
    if data.get("level2_shift"):
        if len(levels) < 2:
            raise ParseError("level2_shift needs a two- or three-level spec")
        K2 = levels[1].n_components
        level2_shift = np.zeros((J, K2))
        for key, row in data["level2_shift"].items():
            j = int(key) if str(key).isdecimal() else 0
            if not 1 <= j <= J:
                raise ParseError(f"level2_shift measure {key!r} outside 1..{J}")
            arr = _floats(row, f"'level2_shift' key {key!r}", 1)
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
        noise_variance=float(_floats(data.get("noise_variance", 0.0), "'noise_variance'", 0)),
        raw=dict(data),
        score_df=score_df,
        level2_shift=level2_shift,
        seed=_integer(data.get("seed", 0), "'seed'"),
    )


def load_spec(path: str, seed: Optional[int] = None) -> GeneratorSpec:
    """Read a generator spec from a YAML file; a given seed replaces the
    spec's own."""
    import yaml  # only simulate reads YAML; the import costs every command

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot parse spec file {path}: {exc}") from None
    if seed is not None and isinstance(data, Mapping):
        data = {**data, "seed": seed}
    return spec_from_dict(data)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Hidden state behind one generated dataset.

    scores and level_curves are ordered like the observable rows' units:
    level 1 by subject, level 2 by (subject, measure), level 3 by row.
    noiseless is mean + measure mean + the level curves, summed in that
    order; the noise is the observed values - noiseless, bit for bit.
    """

    spec: GeneratorSpec
    scores: tuple[np.ndarray, ...]
    level_curves: tuple[np.ndarray, ...]
    noiseless: np.ndarray

    analytic_icc = property(lambda self: self.spec.analytic_icc())


def generate(spec: GeneratorSpec) -> tuple[CurveSet, GroundTruth]:
    """Draw one dataset plus its hidden truth, deterministically in the seed.

    Each subject's substream draws its scores as one block: level 1, then
    for each measure its level-2 scores followed by its replicates' level-3
    scores. The subject's (J * K_rep, m) noise follows.
    """
    n, J, K_rep, m = spec.n_subjects, spec.n_measures, spec.n_replicates, spec.grid.size
    K1, K2, K3 = [lvl.n_components for lvl in spec.levels] + [0] * (3 - len(spec.levels))
    df, width = spec.score_df, K1 + J * (K2 + K_rep * K3)
    z = np.empty((n, width))
    eps = np.empty((n, J * K_rep, m)) if spec.noise_variance > 0 else None
    for i, child in enumerate(np.random.SeedSequence(spec.seed).spawn(n)):
        rng = np.random.default_rng(child)
        z[i] = rng.standard_normal(width) if df is None else rng.standard_t(df, width)
        if eps is not None:
            eps[i] = rng.normal(0.0, np.sqrt(spec.noise_variance), eps.shape[1:])
    if df is not None:
        z *= np.sqrt((df - 2.0) / df)

    per_measure = z[:, K1:].reshape(n * J, K2 + K_rep * K3)
    blocks = (z[:, :K1], per_measure[:, :K2], per_measure[:, K2:].reshape(n * J * K_rep, K3))
    scores = [b * np.sqrt(lvl.eigenvalues) for b, lvl in zip(blocks, spec.levels)]
    if spec.level2_shift is not None:
        scores[1] += np.tile(spec.level2_shift, (n, 1))
    level_curves = tuple(s @ lvl.functions.T for s, lvl in zip(scores, spec.levels))

    base = spec.mean if spec.measure_means is None else spec.mean + spec.measure_means
    noiseless = np.broadcast_to(base.reshape(-1, 1, m), (n, J, K_rep, m)).copy()
    shapes = ((n, 1, 1, m), (n, J, 1, m), (n, J, K_rep, m))
    for curves, shape in zip(level_curves, shapes):
        noiseless += curves.reshape(shape)
    noiseless = noiseless.reshape(-1, m)
    values = noiseless if eps is None else noiseless + eps.reshape(-1, m)

    codes = np.indices((n, J, K_rep)).reshape(3, -1).T + 1
    truth = GroundTruth(
        spec=spec,
        scores=tuple(scores),
        level_curves=level_curves,
        noiseless=noiseless,
    )
    return CurveSet(spec.grid, codes, values), truth
