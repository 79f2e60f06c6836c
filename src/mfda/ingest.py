"""Reading and writing curve datasets and fit artifacts.

One ingestion format: long (tidy) CSV with columns subject, measure,
replicate, t, value, channel; one channel is analyzed per fit. Fits are
written as a directory of CSV files plus JSON manifests. All writers emit
deterministic bytes: fixed column order, shortest round-trip float
formatting, LF newlines, sorted JSON keys.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Union

import numpy as np

from . import FORMAT_VERSION, __version__
from .core import Curve, CurveSet, Grid, NestedIndex
from .errors import (
    DuplicateKeyError,
    EmptyDataError,
    IncompleteCurveError,
    InvalidParameterError,
    ParseError,
)
from .fpca import EigenSystem, FpcaFit
from .mfpca import FitConfig, MultilevelFit

LONG_COLUMNS = ("subject", "measure", "replicate", "t", "value", "channel")

GRID_POLICIES = ("strict", "intersect")


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _label_key(label: str):
    """Numeric labels sort numerically, everything else lexicographically."""
    try:
        return (0, int(label), "")
    except ValueError:
        return (1, 0, label)


@dataclass(frozen=True)
class IngestReport:
    """What the reader saw: design counts, balance, and dropped grid points."""

    n_rows: int
    n_curves: int
    subjects: tuple[str, ...]
    measures: tuple[str, ...]
    counts: dict[str, dict[str, int]]  # subject label -> measure label -> reps
    balanced: bool
    dropped_points: tuple[float, ...] = ()


_CHUNK_ROWS = 10_000  # data rows whose label strings are held at once


def _load_columns(src, columns: list[int], dtype, skiprows: int, max_rows=None) -> np.ndarray:
    """Parse the given columns of the next data rows in one C-level pass."""
    with warnings.catch_warnings():
        # blank lines and a file without data rows are both fine here
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            src, dtype=dtype, delimiter=",", quotechar='"', comments=None,
            usecols=columns, skiprows=skiprows, ndmin=2, max_rows=max_rows,
        )


def _coded_labels(lines, columns: list[int], channel: str):
    """Codes of the subject, measure and replicate labels on the channel's
    rows, each column's labels by code, and which rows are the channel's.

    Reads _CHUNK_ROWS rows at a time from one line iterator and codes them at
    once, so memory does not grow with label length.
    """
    tables: list[dict[str, int]] = [{}, {}, {}]
    codes, ours = [], []
    while True:
        chunk = _load_columns(lines, columns, str, 0, _CHUNK_ROWS)
        if (chunk == "").any():
            raise ValueError("incomplete row")
        ours.append(chunk[:, 3] == channel)
        coded = []
        for table, col in zip(tables, chunk[ours[-1], :3].T):
            unique, inverse = np.unique(col, return_inverse=True)
            known = [table.setdefault(x, len(table)) for x in unique.tolist()]
            coded.append(np.array(known, dtype=np.int64)[inverse])
        codes.append(np.stack(coded, axis=1))
        if len(chunk) < _CHUNK_ROWS:
            return np.concatenate(codes), [list(t) for t in tables], np.concatenate(ours)


def _ranked(codes: np.ndarray, labels: list[str]) -> tuple[list[str], np.ndarray]:
    """The labels in `_label_key` order, and the rank of each coded label."""
    order = sorted(range(len(labels)), key=lambda i: _label_key(labels[i]))
    rank = np.empty(len(labels), dtype=np.int64)
    rank[order] = np.arange(len(labels))
    return [labels[i] for i in order], rank[codes]


def _to_float(text: str) -> float:
    """float() as strict as the bulk parser: ASCII digits, no '_' grouping."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _raise_row_error(path: Path, columns: dict[str, int], channel: str) -> None:
    """Raise the error of the first data row that breaks a row rule.

    Runs only after the bulk parse has found a fault. It walks the file with
    csv.reader, so the cited line is the physical one past blank lines and
    quoted newlines.
    """
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for record in filter(None, reader):
            line = reader.line_num
            row = {c: record[i] if i < len(record) else "" for c, i in columns.items()}
            if "" in row.values():
                raise ParseError(f"{path}:{line}: incomplete row")
            ours = row["channel"] == channel
            try:
                replicate = int(row["replicate"]) if ours else None
                t, value = _to_float(row["t"]), _to_float(row["value"])
            except ValueError as exc:
                raise ParseError(f"{path}:{line}: {exc}") from None
            if not ours:
                continue
            if not (np.isfinite(t) and np.isfinite(value)):
                raise ParseError(f"{path}:{line}: non-finite t or value")
            key = (row["subject"], row["measure"], replicate, t)
            if key in seen:
                raise DuplicateKeyError(
                    f"{path}:{line}: duplicate record for subject="
                    f"{key[0]!r} measure={key[1]!r} replicate={key[2]} t={t!r}"
                )
            seen.add(key)


def read_long_csv(
    path: Union[str, Path], channel: str, grid_policy: str = "strict"
) -> tuple[CurveSet, IngestReport]:
    """Group long-format records of one channel into a CurveSet.

    'strict' rejects any grid mismatch between curves; 'intersect' restricts
    every curve to the common grid and reports the dropped points. Every data
    row must be complete and have a numeric t and value, whatever its channel.
    """
    if grid_policy not in GRID_POLICIES:
        raise InvalidParameterError(f"grid_policy must be one of {GRID_POLICIES}")
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or set(header) != set(LONG_COLUMNS):
            raise ParseError(
                f"{path}: header must contain exactly the columns "
                f"{', '.join(LONG_COLUMNS)}"
            )
        columns = {name: i for i, name in enumerate(header)}
        try:
            codes, tables, ours = _coded_labels(
                fh, [columns[c] for c in ("subject", "measure", "replicate", "channel")], channel
            )
            subjects, s = _ranked(codes[:, 0], tables[0])
            measures, m = _ranked(codes[:, 1], tables[1])
            rep_ints = np.array([int(x) for x in tables[2]], dtype=object)
            replicates, r = np.unique(rep_ints, return_inverse=True)
            r = r[codes[:, 2]]
            del codes
            fh.seek(0)
            tv = _load_columns(fh, [columns["t"], columns["value"]], float, 1)[ours]
            if not np.isfinite(tv).all():
                raise ValueError("non-finite t or value")
            points, tc = np.unique(tv[:, 0], return_inverse=True)
            order = np.lexsort((tc, r, m, s))
            s, m, r, tc = s[order], m[order], r[order], tc[order]
            new = np.ones(order.size, dtype=bool)
            new[1:] = (s[1:] != s[:-1]) | (m[1:] != m[:-1]) | (r[1:] != r[:-1])
            if (~new[1:] & (tc[1:] == tc[:-1])).any():
                raise ValueError("duplicate record")
        except ValueError as exc:
            _raise_row_error(path, columns, channel)
            raise ParseError(f"{path}: {exc}") from None
    if not order.size:
        raise EmptyDataError(f"{path}: no records for channel {channel!r}")

    starts = np.flatnonzero(new)
    curve = np.cumsum(new) - 1
    sub = [subjects[i] for i in s[starts]]
    meas = [measures[j] for j in m[starts]]
    rep = replicates[r[starts]].tolist()
    # curves in the order of their first row in the file
    appearance = np.argsort(np.minimum.reduceat(order, starts))
    if grid_policy == "strict":
        first = appearance[0]
        keep = np.zeros(points.size, dtype=bool)
        keep[tc[curve == first]] = True
        per_curve = np.bincount(curve)
        off = (per_curve != per_curve[first]) | (np.bincount(curve, ~keep[tc]) > 0)
        if off.any():
            c = appearance[off[appearance]][0]
            raise IncompleteCurveError(
                f"subject={sub[c]!r} measure={meas[c]!r} replicate={rep[c]} "
                f"does not cover the shared grid"
            )
    else:
        keep = np.bincount(tc, minlength=points.size) == starts.size
        if keep.sum() < 2:
            raise IncompleteCurveError(
                "grid intersection across curves has fewer than two points"
            )

    grid = Grid.from_points(points[keep])
    values = tv[order, 1][keep[tc]].reshape(starts.size, grid.size)
    single_replicate = replicates.tolist() == [1]
    index = tuple(
        NestedIndex(int(a) + 1, int(b) + 1, None if single_replicate else k)
        for a, b, k in zip(s[starts], m[starts], rep)
    )
    curves = CurveSet(grid, index, values, tuple(subjects), tuple(measures))
    counts: dict[str, dict[str, int]] = {}
    for c in appearance:
        per = counts.setdefault(sub[c], {})
        per[meas[c]] = per.get(meas[c], 0) + 1
    report = IngestReport(
        n_rows=int(order.size),
        n_curves=int(starts.size),
        subjects=tuple(subjects),
        measures=tuple(measures),
        counts=counts,
        balanced=curves.is_balanced(),
        dropped_points=tuple(points[~keep].tolist()),
    )
    return curves, report


def _csv_fields(*fields) -> str:
    """The fields joined and quoted as csv.writer writes them, no line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def write_long_csv(X: CurveSet, path: Union[str, Path], channel: str) -> None:
    """Write a CurveSet as long-format CSV (rows sorted canonically)."""
    path = Path(path)
    ordered = X.sorted()
    points = [_fmt(t) for t in ordered.grid.points]
    tail = _csv_fields("", channel) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_fields(*LONG_COLUMNS) + "\n")
        for ix, row in ordered:
            head = _csv_fields(
                ordered.subject_labels[ix.subject - 1],
                ordered.measure_labels[ix.measure - 1],
                1 if ix.replicate is None else ix.replicate,
                "",
            )
            fh.write("".join(
                f"{head}{t},{v!r}{tail}" for t, v in zip(points, row.tolist())
            ))


def _write_table(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_json(path: Union[str, Path], payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def read_json(path: Union[str, Path]) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _eigen_rows(level: int, eig: EigenSystem):
    for a, lam in enumerate(eig.eigenvalues, start=1):
        yield [level, a, _fmt(lam)]


def _score_header(level: int, k: int) -> list[str]:
    keys = [["subject"], ["subject", "measure"], ["subject", "measure", "replicate"]]
    return keys[level - 1] + [f"score_{a}" for a in range(1, k + 1)]


def write_fit(
    fit: Union[MultilevelFit, FpcaFit],
    out_dir: Union[str, Path],
    extra_manifest: dict | None = None,
) -> Path:
    """Write a fit as a directory of CSV files plus manifest.json.

    Files: mean.csv (t, value, w), measure_means.csv (multilevel fits only),
    one eigenfunctions_level{l}.csv per level (header only when that level
    kept zero components), eigenvalues.csv, one scores_level{l}.csv per
    level, noise.json, manifest.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": FORMAT_VERSION, "library_version": __version__}
    if isinstance(fit, FpcaFit):
        mean, eigs, scores = fit.mean, (fit.eig,), (fit.scores,)
        subjects = [str(i + 1) for i in range(len(fit.scores))]
        units, measures = (tuple((i + 1,) for i in range(len(fit.scores))),), ()
        manifest["levels"] = 1
    else:
        mean, eigs, scores = fit.global_mean, fit.level_eig, fit.scores
        units, subjects, measures = fit.units, fit.subject_labels, fit.measure_labels
        manifest["levels"] = fit.levels
        manifest["config"] = asdict(fit.config)
        header = ["t"] + [f"m_{lab}" for lab in fit.measure_labels[: len(fit.measure_effects)]]
        effect_cols = [eff.values for eff in fit.measure_effects]
        _write_table(
            out / "measure_means.csv",
            header,
            (
                [_fmt(t)] + [_fmt(col[s]) for col in effect_cols]
                for s, t in enumerate(mean.grid.points)
            ),
        )

    grid = mean.grid
    _write_table(
        out / "mean.csv",
        ["t", "value", "w"],
        (
            [_fmt(t), _fmt(v), _fmt(w)]
            for t, v, w in zip(grid.points, mean.values, grid.weights)
        ),
    )
    eigen_rows = []
    for level, eig in enumerate(eigs, start=1):
        eigen_rows.extend(_eigen_rows(level, eig))
        k = eig.n_components
        ef_header = ["t"] + [f"ef_{a}" for a in range(1, k + 1)]
        rows = (
            (
                [_fmt(t)] + [_fmt(eig.functions[s, a]) for a in range(k)]
                for s, t in enumerate(grid.points)
            )
            if k
            else ()
        )
        _write_table(out / f"eigenfunctions_level{level}.csv", ef_header, rows)
    _write_table(out / "eigenvalues.csv", ["level", "component", "eigenvalue"], eigen_rows)

    for level, (level_units, mat) in enumerate(zip(units, scores), start=1):
        rows = []
        for unit, score_row in zip(level_units, mat):
            key = [subjects[unit[0] - 1]]
            if level >= 2:
                key.append(measures[unit[1] - 1])
            if level == 3:
                key.append(unit[2])
            rows.append(key + [_fmt(v) for v in score_row])
        _write_table(
            out / f"scores_level{level}.csv", _score_header(level, mat.shape[1]), rows
        )

    write_json(out / "noise.json", {"noise_variance": fit.noise_variance})
    if extra_manifest:
        manifest.update(extra_manifest)
    write_json(out / "manifest.json", manifest)
    return out


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise ParseError(f"missing fit file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        return header, [row for row in reader]


def read_fit(fit_dir: Union[str, Path]) -> Union[MultilevelFit, FpcaFit]:
    """Load a fit directory written by write_fit."""
    d = Path(fit_dir)
    manifest_path = d / "manifest.json"
    if not manifest_path.exists():
        raise ParseError(f"missing fit file: {manifest_path}")
    manifest = read_json(manifest_path)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ParseError(
            f"{d}: unsupported format version {manifest.get('format_version')!r}"
        )
    if "levels" not in manifest:
        raise ParseError(f"{d}: manifest has no 'levels' field; not a fit directory")
    levels = int(manifest["levels"])
    header, rows = _read_table(d / "mean.csv")
    if header != ["t", "value", "w"]:
        raise ParseError(f"{d}/mean.csv: unexpected header {header}")
    points = np.array([float(r[0]) for r in rows])
    mean_values = np.array([float(r[1]) for r in rows])
    weights = np.array([float(r[2]) for r in rows])
    grid = Grid(points, weights)
    noise = float(read_json(d / "noise.json")["noise_variance"])

    eig_header, eig_rows = _read_table(d / "eigenvalues.csv")
    eigenvalues: dict[int, list[float]] = {}
    for row in eig_rows:
        eigenvalues.setdefault(int(row[0]), []).append(float(row[2]))

    level_eigs = []
    for level in range(1, levels + 1):
        ef_header, ef_rows = _read_table(d / f"eigenfunctions_level{level}.csv")
        k = len(ef_header) - 1
        lam = np.array(eigenvalues.get(level, []), dtype=float)
        if lam.size != k:
            raise ParseError(
                f"{d}: level {level} has {lam.size} eigenvalues but "
                f"{k} eigenfunction columns"
            )
        if k:
            funcs = np.array(
                [[float(v) for v in row[1:]] for row in ef_rows], dtype=float
            )
        else:
            funcs = np.zeros((grid.size, 0))
        total = lam.sum()
        pve = np.cumsum(lam) / total if total > 0 else np.zeros_like(lam)
        level_eigs.append(EigenSystem(grid, lam, funcs, pve))

    scores = []
    units = []
    subject_labels: list[str] = []
    measure_labels: list[str] = []
    for level in range(1, levels + 1):
        s_header, s_rows = _read_table(d / f"scores_level{level}.csv")
        mat = np.array(
            [[float(v) for v in row[level:]] for row in s_rows], dtype=float
        ).reshape(len(s_rows), -1)
        scores.append(mat)
        if level == 1:
            subject_labels = [row[0] for row in s_rows]
            units.append(tuple((i + 1,) for i in range(len(s_rows))))
            continue
        if level == 2:
            measure_labels = list(dict.fromkeys(row[1] for row in s_rows))
        sub_of = {lab: i + 1 for i, lab in enumerate(subject_labels)}
        meas_of = {lab: j + 1 for j, lab in enumerate(measure_labels)}
        units.append(tuple(
            (sub_of[r[0]], meas_of[r[1]]) if level == 2
            else (sub_of[r[0]], meas_of[r[1]], int(r[2]))
            for r in s_rows
        ))
    if levels == 1:
        return FpcaFit(
            mean=Curve(grid, mean_values),
            eig=level_eigs[0],
            scores=scores[0],
            noise_variance=noise,
        )

    mm_header, mm_rows = _read_table(d / "measure_means.csv")
    effects = tuple(
        Curve(grid, np.array([float(row[j]) for row in mm_rows]))
        for j in range(1, len(mm_header))
    )
    defaults = asdict(FitConfig(levels=levels))
    stored = {**defaults, **manifest.get("config", {})}
    config = FitConfig(**{key: type(v)(stored[key]) for key, v in defaults.items()})
    return MultilevelFit(
        grid=grid,
        levels=levels,
        global_mean=Curve(grid, mean_values),
        measure_effects=effects,
        level_eig=tuple(level_eigs),
        scores=tuple(scores),
        units=tuple(units),
        noise_variance=noise,
        subject_labels=tuple(subject_labels),
        measure_labels=tuple(measure_labels),
        config=config,
    )
