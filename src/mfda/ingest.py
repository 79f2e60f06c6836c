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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain, zip_longest
from pathlib import Path
from types import SimpleNamespace
from typing import Union

import numpy as np

from . import FORMAT_VERSION, __version__
from .core import Curve, CurveSet, Grid
from .errors import (
    DuplicateKeyError,
    EmptyDataError,
    IncompleteCurveError,
    InvalidParameterError,
    ParseError,
)
from .fpca import EigenSystem
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
    """What the reader saw that the CurveSet does not hold: the channel's
    data rows, and the grid points the 'intersect' policy dropped."""

    n_rows: int
    dropped_points: tuple[float, ...] = ()


_CHUNK_ROWS = 10_000  # data rows parsed at once at the narrowest label width
_NARROWEST = 8  # characters in every label field, until a label fills them
_LABEL_COLUMNS = ("subject", "measure", "replicate", "channel")


def _load_columns(src, columns: list[int], dtype, skiprows: int, max_rows=None) -> np.ndarray:
    """Parse the given columns of the next data rows in one C-level pass."""
    with warnings.catch_warnings():
        # blank lines and a file without data rows are both fine here
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            src, dtype=dtype, delimiter=",", quotechar='"', comments=None,
            usecols=columns, skiprows=skiprows, ndmin=2, max_rows=max_rows,
        )


def _parsed_rows(fh, columns: dict[str, int], channel: str):
    """The channel's rows as runs of one (subject, measure, replicate)
    triple: each run's label codes and length, each label column's labels
    by code, and the rows' t and value.

    One np.loadtxt call per chunk of rows parses fixed-width label fields and
    float t and value, and ends the chunk after a whole record. A chunk with
    a label that fills its field is read again at twice the width in half the
    rows, so no label is cut and a parse holds about the same number of
    characters; the width halves after a chunk whose labels fit in half.
    """
    names = sorted(columns, key=columns.get)
    usecols = sorted(columns.values())
    width = _NARROWEST
    tables: list[dict[str, int]] = [{}, {}, {}]
    runs, run_lengths, tv = [], [], []
    while True:
        size = max(1, _CHUNK_ROWS * _NARROWEST // width)
        dtype = [(c, f"U{width}" if c in _LABEL_COLUMNS else "f8") for c in names]
        start = fh.tell()
        rows = _load_columns(iter(fh.readline, ""), usecols, dtype, 0, size)[:, 0]
        # each row's UCS-4 characters; a label's field is padded with 0 characters
        chars = rows.view(np.uint32).reshape(-1, rows.dtype.itemsize // 4)
        first = [rows.dtype.fields[c][1] // 4 for c in _LABEL_COLUMNS]
        if any(chars[:, f + width - 1].any() for f in first):  # a label may be cut
            width *= 2
            fh.seek(start)
            continue
        if width > _NARROWEST and not any(chars[:, f + width // 2 - 1].any() for f in first):
            width //= 2  # so one long label does not slow the rest of the file
        if not all(chars[:, f].all() for f in first):
            raise ValueError("incomplete row")
        mask = rows["channel"] == channel
        ours = rows if mask.all() else rows[mask]
        tv.append(np.column_stack([ours["t"], ours["value"]]))
        labels = [ours[c] for c in _LABEL_COLUMNS[:3]]
        head = np.arange(len(labels[0])) == 0
        for col in labels:
            head[1:] |= col[1:] != col[:-1]
        coded = [[table.setdefault(x, len(table)) for x in col[head].tolist()]
                 for table, col in zip(tables, labels)]
        runs.append(np.array(coded, dtype=np.int64).T)
        run_lengths.append(np.diff(np.flatnonzero(head), append=len(head)))
        if len(rows) < size:
            return (np.concatenate(runs), np.concatenate(run_lengths), [list(t) for t in tables],
                    np.concatenate(tv))


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


def _not_utf8(path: Path) -> ParseError:
    """The error of a text file that is not UTF-8, citing its first line
    that does not decode."""
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"{path}:{line}: not UTF-8 text ({exc.reason})")
    return ParseError(f"{path}: not UTF-8 text")


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
            if any("\0" in cell for cell in record):
                raise ParseError(f"{path}:{line}: NUL character")
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
    """Group long-format records of one channel into a CurveSet, returned
    with an IngestReport of the rows read and the grid points dropped.

    'strict' rejects any grid mismatch between curves; 'intersect' restricts
    every curve to the common grid and reports the dropped points. Every data
    row must be complete and have a numeric t and value, whatever its channel.
    """
    if grid_policy not in GRID_POLICIES:
        raise InvalidParameterError(f"grid_policy must be one of {GRID_POLICIES}")
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            # readline, unlike iterating fh, leaves fh.tell() usable for _parsed_rows
            header = next(csv.reader(iter(fh.readline, "")), None)
            if header is None or set(header) != set(LONG_COLUMNS):
                raise ParseError(
                    f"{path}: header must contain exactly the columns "
                    f"{', '.join(LONG_COLUMNS)}"
                )
            columns = {name: i for i, name in enumerate(header)}
            try:
                with open(path, "rb") as raw:  # a fixed-width field drops a trailing NUL
                    if any(b"\0" in block for block in iter(lambda: raw.read(1 << 20), b"")):
                        raise ValueError("NUL character")
                runs, run_lengths, tables, tv = _parsed_rows(fh, columns, channel)
                subjects, s = _ranked(runs[:, 0], tables[0])
                measures, m = _ranked(runs[:, 1], tables[1])
                rep_ints = np.array([int(x) for x in tables[2]], dtype=np.int64)
                replicates, r = np.unique(rep_ints, return_inverse=True)
                if not np.isfinite(tv).all():
                    raise ValueError("non-finite t or value")
                # each run's (subject, measure) unit and curve, numbered in canonical order
                units, unit = np.unique(s * len(measures) + m, return_inverse=True)
                keys, curve_first, curve = np.unique(
                    unit * len(replicates) + r[runs[:, 2]], return_index=True,
                    return_inverse=True)
                # code t by the first run's points, or by all points if one is missing there
                t = tv[:, 0]
                points = np.unique(t[: run_lengths[0] if run_lengths.size else 0])
                tc = np.searchsorted(points, t)
                if not (tc < points.size).all() or (points[tc] != t).any():
                    points, tc = np.unique(t, return_inverse=True)
                row_curve = np.repeat(curve, run_lengths)
                key = row_curve * points.size + tc
                order = np.argsort(key, kind="stable")  # linear on a file in canonical order
                if (np.diff(key[order]) == 0).any():
                    raise ValueError("duplicate record")
            except (ValueError, OverflowError) as exc:
                _raise_row_error(path, columns, channel)
                raise ParseError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except csv.Error as exc:  # a field past csv's size limit, say
        raise ParseError(f"{path}: {exc}") from None
    if not key.size:
        raise EmptyDataError(f"{path}: no records for channel {channel!r}")

    n_curves = keys.size
    sub, meas = np.divmod(units[keys // len(replicates)], len(measures))
    rep = replicates[keys % len(replicates)]
    if grid_policy == "strict":
        first = curve[0]  # the curve of the file's first row sets the grid
        keep = np.bincount(tc[row_curve == first], minlength=points.size) > 0
        per_curve = np.bincount(row_curve, minlength=n_curves)
        off = (per_curve != per_curve[first]) | (np.bincount(row_curve, ~keep[tc]) > 0)
        if off.any():
            c = next(c for c in np.argsort(curve_first) if off[c])  # first in the file
            raise IncompleteCurveError(
                f"subject={subjects[sub[c]]!r} measure={measures[meas[c]]!r} "
                f"replicate={rep[c]} does not cover the shared grid"
            )
    else:
        keep = np.bincount(tc, minlength=points.size) == n_curves
        if keep.sum() < 2:
            raise IncompleteCurveError(
                "grid intersection across curves has fewer than two points"
            )

    grid = Grid.from_points(points[keep])
    values = tv[order, 1][keep[tc[order]]].reshape(n_curves, grid.size)
    codes = np.column_stack([sub + 1, meas + 1, rep])
    curves = CurveSet(grid, codes, values, tuple(subjects), tuple(measures))
    return curves, IngestReport(int(key.size), tuple(points[~keep].tolist()))


def _csv_writer(fh):
    """A csv.writer to fh that ends rows with LF and quotes a field holding CR
    or LF, as it quotes those of its CRLF line end, replaced as rows are written."""
    return csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")),
                      lineterminator="\r\n")


def _csv_fields(*fields) -> str:
    """The fields joined and quoted as `_csv_writer` writes them, no line end."""
    buf = io.StringIO()
    _csv_writer(buf).writerow(fields)
    return buf.getvalue()[:-1]


def write_long_csv(X: CurveSet, path: Union[str, Path], channel: str) -> None:
    """Write a CurveSet as long-format CSV, curves in canonical order.

    Each curve's rows come from one `%` template of its label cells and the
    grid's t cells, filled with the reprs of its values.
    """
    cells = [f"{_fmt(t)},%r" for t in X.grid.points]
    tail = _csv_fields("", channel).replace("%", "%%") + "\n"
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_fields(*LONG_COLUMNS) + "\n")
        for row in np.lexsort(X.codes.T[::-1]).tolist():
            s, m, r = X.codes[row].tolist()
            head = _csv_fields(X.subject_labels[s - 1], X.measure_labels[m - 1], r, "")
            head = head.replace("%", "%%")
            fh.write((head + (tail + head).join(cells) + tail) % tuple(X.values[row].tolist()))


def _cells(keys: np.ndarray, values: np.ndarray) -> list[list[str]]:
    """Each row of a fit table as write_fit writes it: its key cells, then its
    values in shortest round-trip form."""
    return [[*key, *map(repr, row)] for key, row in zip(keys.tolist(), values.tolist())]


def write_json(path: Union[str, Path], payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path: Path) -> dict:
    if not path.exists():
        raise ParseError(f"missing fit file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _unkeyed(header: list[str], values: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A `_tables` entry of a table without key columns."""
    return header, np.empty((len(values), 0), dtype=object), values


def _tables(fit: MultilevelFit) -> dict[str, tuple[list[str], np.ndarray, np.ndarray]]:
    """The fit directory's CSV tables by file name: each one's header, (rows,
    keys) object array of key cells (no columns for a table without keys) and
    value matrix. A level's score keys are its units of the full design in
    canonical order; the score tables come first, as read_fit takes the
    design's labels from them."""
    grid, measures, t = fit.grid, fit.measure_labels, fit.grid.points[:, None]
    labels = [np.array(fit.subject_labels, dtype=object), np.array(measures, dtype=object),
              np.array([str(r) for r in range(1, fit.shape[2] + 1)], dtype=object)]
    tables, eigenvalue_keys = {}, []
    for level, (mat, eig) in enumerate(zip(fit.scores, fit.level_eig), start=1):
        components = [str(a) for a in range(1, eig.n_components + 1)]
        tables[f"scores_level{level}.csv"] = (
            ["subject", "measure", "replicate"][:level] + [f"score_{a}" for a in components],
            np.stack(np.meshgrid(*labels[:level], indexing="ij"), axis=-1).reshape(-1, level),
            mat)
        tables[f"eigenfunctions_level{level}.csv"] = _unkeyed(
            ["t"] + [f"ef_{a}" for a in components],
            np.hstack([t, eig.functions]) if components else np.zeros((0, 1)))
        eigenvalue_keys += [(str(level), a) for a in components]
    tables["eigenvalues.csv"] = (
        ["level", "component", "eigenvalue"],
        np.array(eigenvalue_keys, dtype=object).reshape(-1, 2),
        np.concatenate([eig.eigenvalues for eig in fit.level_eig])[:, None])
    tables["mean.csv"] = _unkeyed(
        ["t", "value", "w"], np.column_stack([grid.points, fit.global_mean.values, grid.weights]))
    tables["measure_means.csv"] = _unkeyed(
        ["t"] + [f"m_{lab}" for lab in measures[: len(fit.measure_effects)]],
        np.hstack([t, *(eff.values[:, None] for eff in fit.measure_effects)]))
    return tables


def _documents(fit: MultilevelFit) -> dict[str, dict]:
    """The fit directory's JSON by file name: noise.json, and the manifest keys that
    describe the fit; each level's smoothing penalty lambda is null without penalties."""
    penalties = fit.penalties or (None,) * fit.levels
    return {
        "noise.json": {"noise_variance": fit.noise_variance},
        "manifest.json": {
            "format_version": FORMAT_VERSION, "levels": fit.levels, "config": asdict(fit.config),
            "diagnostics": {"levels": [
                {"level": level, "lambda": lam, "retained": k}
                for level, (lam, k) in enumerate(zip(penalties, fit.retained), start=1)]},
        },
    }


def write_fit(fit: MultilevelFit, out_dir: Union[str, Path],
              extra_manifest: dict | None = None) -> Path:
    """Write a two- or three-level fit: the tables of `_tables` and the JSON of
    `_documents`, the manifest with the library version and `extra_manifest`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, keys, values) in _tables(fit).items():
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            _csv_writer(fh).writerows([header, *_cells(keys, values)])
    documents = _documents(fit)
    documents["manifest.json"].update({"library_version": __version__, **(extra_manifest or {})})
    for name, document in documents.items():
        write_json(out / name, document)
    return out


def _table_error(path: Path, n_keys: int, fault: str) -> ParseError:
    """The error of the first data row of a fit table that has other cells
    than its header or a value cell that does not parse, cited by its
    physical line; `fault` is what the bulk parse saw, for when no row does.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            width = len(next(reader, []))
            for record in filter(None, reader):
                if len(record) != width:
                    raise ValueError(f"{len(record)} cells, the header has {width}")
                for cell in record[n_keys:]:
                    _to_float(cell)
        except (ValueError, csv.Error) as exc:
            return ParseError(f"{path}:{reader.line_num}: {exc}")
    return ParseError(f"{path}: {fault}")


def _read_numeric(path: Path, n_keys: int = 0) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A fit table's header, its first n_keys columns as a (rows, n_keys)
    object array of label cells, and its other columns as one float matrix,
    all parsed in one pass.

    A missing or empty file, a row with more or fewer cells than the header,
    and a value cell that does not parse are each a ParseError naming the
    file, and the line where there is one.
    """
    if not path.exists():
        raise ParseError(f"missing fit file: {path}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                if not header or len(header) < n_keys:
                    raise ValueError(f"header {header} lacks the {n_keys} key columns"
                                     if header else "empty file")
                skip = reader.line_num  # a quoted label may span lines
                fh.seek(0)
                # the fields fix each row's width: the parse refuses more or fewer cells
                dtype = [("keys", object, (n_keys,)), ("values", float, (len(header) - n_keys,))]
                rows = _load_columns(fh, None, dtype, skip)[:, 0]
            except (ValueError, csv.Error) as exc:
                raise _table_error(path, n_keys, str(exc)) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return header, rows["keys"], rows["values"]


@contextmanager
def _naming(d: Path, name: str, **by_field: str):
    """Re-raise a ValueError raised while building part of a fit as a
    ParseError naming its fit file: by_field[f] for an error marked with field
    f (`field_error`), else `name`, with "{level}" the error's level."""
    try:
        yield
    except ValueError as exc:
        name = by_field.get(getattr(exc, "field", None), name)
        raise ParseError(f"{d / name.format(level=getattr(exc, 'level', None))}: {exc}") from None


def _lenient(read, fallback):
    """read(), or fallback where a stored value has another shape or does not
    convert; read_fit then refuses the value, as write_fit writes another."""
    try:
        return read()
    except (LookupError, TypeError, ValueError, OverflowError):
        return fallback


def read_fit(fit_dir: Union[str, Path]) -> MultilevelFit:
    """Load a fit directory written by write_fit.

    Every file is parsed in full, the JSON values as the types write_fit
    writes, and the fit is built through its containers. A fault in a file, a
    manifest whose levels is not 2 or 3, and a table or JSON value other than
    write_fit writes for the fit read are each a ParseError naming the file.
    Manifest and config keys that write_fit does not write are ignored; a
    config key or the diagnostics it lacks read as the default and no penalties."""
    d = Path(fit_dir)
    manifest_path = d / "manifest.json"
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"{manifest_path}: unsupported format version "
                         f"{manifest.get('format_version')!r}")
    if "levels" not in manifest:
        raise ParseError(f"{manifest_path}: no 'levels' field; not a fit directory")
    if manifest["levels"] not in (2, 3):
        raise ParseError(f"{manifest_path}: levels must be 2 or 3, got {manifest['levels']!r}")
    levels = int(manifest["levels"])
    n_keys = {"mean.csv": 0, "eigenvalues.csv": 2, "measure_means.csv": 0}
    for level in range(1, levels + 1):
        n_keys.update({f"eigenfunctions_level{level}.csv": 0, f"scores_level{level}.csv": level})
    tables = {name: _read_numeric(d / name, k) for name, k in n_keys.items()}
    documents = {"noise.json": read_json(d / "noise.json"), "manifest.json": manifest}
    noise = _lenient(lambda: float(documents["noise.json"]["noise_variance"]), None)
    if noise is None:
        raise ParseError(f"{d / 'noise.json'}: no numeric 'noise_variance'")
    config = manifest.get("config", {})
    defaults = asdict(FitConfig(levels=levels))
    typed = {key: _lenient(lambda: type(v)(config[key]), v) for key, v in defaults.items()}
    penalties = _lenient(lambda: tuple(
        float(manifest["diagnostics"]["levels"][i]["lambda"]) for i in range(levels)), ())
    with _naming(d, "mean.csv"):
        points, mean_values, weights = tables["mean.csv"][2].T
        grid = Grid(points, weights)
        global_mean = Curve(grid, mean_values)
    # each level takes the next eigenvalues, one per eigenfunction column; a missing or
    # extra eigenvalue column passes the slice and is refused by the count or the header
    eigenvalues, used, level_eigs = tables["eigenvalues.csv"][2][:, :1].ravel(), 0, []
    for level in range(1, levels + 1):
        name = f"eigenfunctions_level{level}.csv"
        k = len(tables[name][0]) - 1
        funcs = tables[name][2][:, 1:] if k else np.zeros((grid.size, 0))
        lam, used = eigenvalues[used : used + k], used + k
        with _naming(d, "eigenvalues.csv", functions=name):
            level_eigs.append(EigenSystem(grid, lam, funcs))
    with _naming(d, "measure_means.csv", scores="scores_level{level}.csv",
                 noise_variance="noise.json", config="manifest.json"):
        effects = tuple(Curve(grid, col) for col in tables["measure_means.csv"][2][:, 1:].T)
        fit = MultilevelFit(
            grid=grid,
            global_mean=global_mean,
            measure_effects=effects,
            level_eig=tuple(level_eigs),
            scores=tuple(tables[f"scores_level{level}.csv"][2] for level in range(1, levels + 1)),
            noise_variance=noise,
            subject_labels=tuple(dict.fromkeys(tables["scores_level1.csv"][1][:, 0].tolist())),
            measure_labels=tuple(dict.fromkeys(tables["scores_level2.csv"][1][:, 1].tolist())),
            config=FitConfig(**typed),
            penalties=penalties,
        )
    for name, (header, keys, values) in _tables(fit).items():
        got_header, got_keys, got_values = tables[name]
        if got_header != header:
            raise ParseError(f"{d / name}: header {got_header}, where the fit has {header}")
        if (np.array_equal(got_keys, keys)
                and np.array_equal(got_values.view(np.int64), values.view(np.int64))):
            continue  # the same bits in every value
        # the first cell that differs, row by row; a row one side lacks reads "nothing"
        cells = zip_longest(chain(*_cells(got_keys, got_values)), chain(*_cells(keys, values)),
                            fillvalue="nothing")
        at, (a, b) = next((at, pair) for at, pair in enumerate(cells) if pair[0] != pair[1])
        raise ParseError(f"{d / name}: row {at // len(header) + 1} has "
                         f"{header[at % len(header)]} {a}, where the fit has {b}")
    for name, document in _documents(fit).items():
        for key, want in document.items():
            got = documents[name].get(key, want)  # a key the file lacks reads as the fit's
            if key == "config" and isinstance(got, dict):
                got = {k: got.get(k, v) for k, v in want.items()}
            a, b = (json.dumps(v, sort_keys=True) for v in (got, want))
            if a != b:
                raise ParseError(f"{d / name}: {key} {a}, where the fit has {b}")
    return fit
