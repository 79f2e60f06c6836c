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
import math
import os
import pickle
import shutil
import tempfile
import warnings
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, count, zip_longest
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Union

import numpy as np

from . import FORMAT_VERSION, __version__, mfpca, simkl
from .core import Curve, CurveSet, Grid
from .errors import (
    DuplicateKeyError,
    EmptyDataError,
    IncompleteCurveError,
    InputError,
    InvalidParameterError,
    ParseError,
)
from .fpca import EigenSystem

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
_MIN_RANGE_BYTES = 2 << 20  # bytes of a parse range: at 1.5 MB a fork costs what it saves
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
    triple: each run's subject, measure and replicate labels, as three arrays
    in file order, each run's length, and the rows' t and value.

    One np.loadtxt call per chunk of rows parses fixed-width label fields and
    float t and value, and ends the chunk after a whole record. A chunk with
    a label that fills its field is read again at twice the width in half the
    rows, so no label is cut and a parse holds about the same number of
    characters; the width halves after a chunk whose labels fit in half.
    It stops past `simkl.MAX_VALUES` rows of the channel; a fault is a bare
    ValueError, cited by the caller's walk. t and value are returned as their
    chunks, for the caller to join.
    """
    names = sorted(columns, key=columns.get)
    usecols = sorted(columns.values())
    width = _NARROWEST
    runs, run_lengths, ts, values, n_rows = [], [], [], [], 0
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
        n_rows += len(ours)
        ts.append(ours["t"].copy())  # copies, so that no chunk's labels stay alive
        values.append(ours["value"].copy())
        labels = [ours[c] for c in _LABEL_COLUMNS[:3]]
        head = np.arange(len(labels[0])) == 0
        for col in labels:
            head[1:] |= col[1:] != col[:-1]
        runs.append([col[head] for col in labels])
        run_lengths.append(np.diff(np.flatnonzero(head), append=len(head)))
        if len(rows) < size or n_rows > simkl.MAX_VALUES:
            return [*map(np.concatenate, zip(*runs))], np.concatenate(run_lengths), ts, values


class _Range(io.FileIO):
    """A file read up to byte hi: each buffered read goes through readinto, which stops there."""

    def __init__(self, path: Path, hi: int):
        super().__init__(path, "rb")
        self.hi = hi

    def readinto(self, b):
        return super().readinto(memoryview(b)[: max(0, self.hi - self.tell())])


def _ranked(labels: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct labels in `_label_key` order, labels of one key in the order
    they first appear, and the rank of each label."""
    distinct = sorted(dict.fromkeys(labels), key=_label_key)
    rank = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(rank.__getitem__, labels), np.int64, len(labels))


def _to_float(text: str) -> float:
    """float() as strict as the bulk parser: ASCII digits, no '_' grouping."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _records(path: Path):
    """(line, record) of the header and of each non-blank data record of a CSV text file, line
    the physical one where it ends; a record csv cannot read or that holds bytes that are
    not UTF-8 (read as U+DC80-U+DCFF, so that lines still count) is a ParseError citing it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for record in chain([next(reader, [])], filter(None, reader)):
                # the cells' bytes, each followed by an ASCII byte as in the file
                ",".join([*record, ""]).encode("utf-8", "surrogateescape").decode("utf-8")
                yield reader.line_num, record
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{reader.line_num}: not UTF-8 text ({exc.reason})") from None


def _walk(path: Path, check) -> None:
    """Raise the first fault of a CSV text file in file order, citing the line of
    its record: a fault of `_records`, or what check(header, record) raises for a
    data record, a ValueError as a ParseError and an InputError as its own type.
    The readers call it once a bulk parse has found a fault, and raise that fault
    themselves when no record has one."""
    records = _records(path)
    header = next(records)[1]
    for line, record in records:
        try:
            check(header, record)
        except (ValueError, InputError) as exc:
            error = type(exc) if isinstance(exc, InputError) else ParseError
            raise error(f"{path}:{line}: {exc}") from None


def _long_csv_row(cells, channel: str, duplicate, ours, header, record) -> None:
    """`_walk`'s check of a long-CSV data row, its rules in order: a complete row, no
    NUL, numbers, and on the channel a replicate from 1, a finite t and value, a
    row number within `simkl.MAX_VALUES`, and a key no earlier row has. `cells`
    picks a row's cells in `LONG_COLUMNS` order; `ours` numbers the channel's rows
    from 0, and row `duplicate` of them is the first whose key an earlier row has."""
    subject, measure, replicate, t, value, row_channel = cells(record + [""] * len(header))
    if "" in (subject, measure, replicate, t, value, row_channel):
        raise ValueError("incomplete row")
    if "\0" in ",".join(record):
        raise ValueError("NUL character")
    t, value = _to_float(t), _to_float(value)
    if row_channel != channel:
        return
    replicate = int(replicate)
    if replicate < 1:
        raise ValueError(f"replicate {replicate} is below 1")
    if not (math.isfinite(t) and math.isfinite(value)):
        raise ValueError("non-finite t or value")
    n = next(ours)
    if n >= simkl.MAX_VALUES:
        raise InputError(f"channel {channel!r} has more than the {simkl.MAX_VALUES} "
                         "values a data set may hold")
    if n == duplicate:
        raise DuplicateKeyError(f"duplicate record for subject={subject!r} "
                                f"measure={measure!r} replicate={replicate} t={t!r}")


def read_long_csv(
    path: Union[str, Path], channel: str, grid_policy: str = "strict"
) -> tuple[CurveSet, IngestReport]:
    """Group long-format records of one channel into a CurveSet, returned
    with an IngestReport of the rows read and the grid points dropped.

    'strict' rejects any grid mismatch between curves; 'intersect' restricts
    every curve to the common grid and reports the dropped points. Every data
    row must be complete and have a numeric t and value, whatever its channel.

    The rows are parsed in byte ranges cut past a newline, one per CPU of the
    affinity mask and each of at least `_MIN_RANGE_BYTES`; forked children parse
    all but the first (`_forked`). A file holding '"' is one range, as a quoted
    label may hold a newline. The parse only detects a fault, the value cap's
    included; `_walk` then raises the first row fault in file order
    (`_long_csv_row`), else the first duplicate. Grid coverage is checked last.
    Neither the result nor the error depends on the number of ranges or chunks.
    """
    if grid_policy not in GRID_POLICIES:
        raise InvalidParameterError(f"grid_policy must be one of {GRID_POLICIES}")
    path = Path(path)
    header = next(_records(path))[1]
    if set(header) != set(LONG_COLUMNS):
        raise ParseError(f"{path}: header must contain exactly the columns "
                         f"{', '.join(LONG_COLUMNS)}")
    columns = {name: i for i, name in enumerate(header)}
    size = path.stat().st_size

    def parse(lo, hi):
        raw = _Range(path, hi) if hi < size else io.FileIO(path)  # a subclass slows readline
        raw.seek(lo)
        with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="") as text:
            if not lo:  # the header, one line as its names hold no newline
                text.readline()
            return _parsed_rows(text, columns, channel)

    duplicate = None  # the first channel row, from 0 in file order, whose key an earlier row has
    try:
        with open(path, "rb") as raw:  # a fixed-width field drops a trailing NUL
            block = bytearray(min(1 << 20, size) or 1 << 20)  # freed before the parse
            quoted = False
            while k := raw.readinto(block):
                if block.find(b"\0", 0, k) >= 0:
                    raise ValueError("NUL character")
                quoted = quoted or block.find(b'"', 0, k) >= 0
            del block
            parts = 1 if quoted else min(_cpu_count(), size // _MIN_RANGE_BYTES)
            # each cut just past the first newline from its share of the bytes on
            cuts = [0] + [raw.seek(size * i // parts) + len(raw.readline())
                          for i in range(1, parts)] + [size]
        child = lambda job, tmp: pickle.dump(parse(*job), tmp, protocol=5)  # noqa: E731
        with closing(_forked(list(zip(cuts, cuts[1:])), child)) as ranges:
            labels, run_lengths, ts, values = zip(
                *(pickle.load(tmp) if tmp else parse(*job) for job, tmp in ranges))
        run_lengths, values = np.concatenate(run_lengths), [*chain(*values)]
        if sum(map(len, values)) > simkl.MAX_VALUES:
            raise ValueError(f"more than {simkl.MAX_VALUES} values")
        t, ts = np.concatenate([*chain(*ts)]), None  # the t chunks go before the values join
        value, values = np.concatenate(values), None
        (subjects, s), (measures, m), (rep_labels, rep_rank) = (
            _ranked(np.concatenate(col).tolist()) for col in zip(*labels))
        rep_ints = np.array([int(x) for x in rep_labels], dtype=np.int64)  # not once per run
        if (rep_ints < 1).any():
            raise ValueError("replicate below 1")
        replicates, r = np.unique(rep_ints, return_inverse=True)
        if not (np.isfinite(t).all() and np.isfinite(value).all()):
            raise ValueError("non-finite t or value")
        # each run's (subject, measure) unit and curve, numbered in canonical order
        units, unit = np.unique(s * len(measures) + m, return_inverse=True)
        keys, curve_first, curve = np.unique(
            unit * len(replicates) + r[rep_rank], return_index=True,
            return_inverse=True)
        # code t by the first run's points, or by all points if one is missing there
        # (with an index, as a plain np.unique imports numpy.ma into a fresh process)
        points = np.unique(t[: run_lengths[:1].sum()], return_index=True)[0]
        key = np.searchsorted(points, t)
        if not (key < points.size).all() or (points[key] != t).any():
            points, key = np.unique(t, return_inverse=True)
        del t
        # each row's curve-major (curve, point) key, built in the point codes and
        # sorted with the values unless it increases, as write_long_csv writes it
        key += np.repeat(curve * points.size, run_lengths)
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key = key[order]
            value = value[order]
            repeats = key[1:] == key[:-1]
            if repeats.any():
                duplicate = int(order[1:][repeats].min())
                raise ValueError("duplicate record")
    except (ValueError, OverflowError) as exc:
        cells = itemgetter(*(columns[c] for c in LONG_COLUMNS))
        _walk(path, partial(_long_csv_row, cells, channel, duplicate, count()))
        raise ParseError(f"{path}: {exc}") from None
    if not key.size:
        raise EmptyDataError(f"{path}: no records for channel {channel!r}")

    n_curves, n_points = keys.size, points.size
    sub, meas = np.divmod(units[keys // len(replicates)], len(measures))
    rep = replicates[keys % len(replicates)]
    keep = np.bincount(key % n_points, minlength=n_points) == n_curves  # points on every curve
    if grid_policy == "strict" and not keep.all():
        first = curve[0]  # the curve of the file's first row sets the grid
        row_curve, tc = np.divmod(key, n_points)
        shared = np.bincount(tc[row_curve == first], minlength=n_points) > 0
        per_curve = np.bincount(row_curve, minlength=n_curves)
        off = (per_curve != per_curve[first]) | (np.bincount(row_curve, ~shared[tc]) > 0)
        c = next(c for c in np.argsort(curve_first) if off[c])  # first in the file
        raise IncompleteCurveError(
            f"subject={subjects[sub[c]]!r} measure={measures[meas[c]]!r} "
            f"replicate={rep[c]} does not cover the shared grid"
        )
    if grid_policy == "intersect" and keep.sum() < 2:
        raise IncompleteCurveError("grid intersection across curves has fewer than two points")

    grid = Grid(points[keep])
    if not keep.all():
        value = value[keep[key % n_points]]
    values = value.reshape(n_curves, grid.size)
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


def _cpu_count() -> int:
    """The CPUs of this process's affinity mask; 1 where it cannot fork or read the mask."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def write_long_csv(X: CurveSet, path: Union[str, Path], channel: str) -> None:
    """Write a CurveSet as long-format CSV, curves in canonical order.

    Each curve's rows come from one `%` template of its label cells and the
    grid's t cells, filled with the reprs of its values. The curves are split
    into contiguous ranges, one per CPU of the process's affinity mask and at
    most one per curve; forked children format all but the first (`_forked`),
    whose bytes are copied in order through a fixed buffer. A failed write
    removes the file. The bytes do not depend on the number of ranges.
    """
    cells = [f"{_fmt(t)},%r" for t in X.grid.points]
    tail = _csv_fields("", channel).replace("%", "%%") + "\n"

    def texts(lo: int, hi: int):
        for (s, m, r), row in zip(X.codes[lo:hi].tolist(), X.values[lo:hi]):
            head = _csv_fields(X.subject_labels[s - 1], X.measure_labels[m - 1], r, "")
            head = head.replace("%", "%%")
            yield (head + (tail + head).join(cells) + tail) % tuple(row.tolist())

    parts = max(1, min(_cpu_count(), len(X)))
    bounds = [len(X) * i // parts for i in range(parts + 1)]
    write = lambda job, out: out.writelines(text.encode() for text in texts(*job))  # noqa: E731
    fh = open(Path(path), "wb")
    try:
        with fh, closing(_forked(list(zip(bounds, bounds[1:])), write)) as ranges:
            fh.write(_csv_fields(*LONG_COLUMNS).encode() + b"\n")
            for job, tmp in ranges:
                write(job, fh) if tmp is None else shutil.copyfileobj(tmp, fh)
    except BaseException:
        os.unlink(path)  # no partial file is left
        raise


def _forked(jobs: list, child):
    """(job, file) for each job in order. For each job after the first, a forked
    child runs child(job, file) into an unlinked temporary file, yielded at its
    start once the child exits 0. The file is None for the first job and for a
    failed child's, which the caller then does, so a fault raises as in one
    process. Closing the generator waits for every child."""
    children = []  # (pid, temporary file, job) of each job after the first, in order
    try:
        for job in jobs[1:]:
            tmp = tempfile.TemporaryFile()
            with warnings.catch_warnings():
                # Python 3.12 warns on a fork while threads run, as numpy's BLAS pool does
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child leaves through os._exit: no buffer or exit handler runs
                try:
                    child(job, tmp)
                    tmp.flush()
                    os._exit(0)
                finally:
                    os._exit(1)  # on any failure
            children.append((pid, tmp, job))
        yield jobs[0], None
        while children:
            status = os.waitpid(children[0][0], 0)[1]
            _, tmp, job = children.pop(0)
            with tmp:
                tmp.seek(0)
                yield job, None if status else tmp
    finally:
        for pid, tmp, _ in children:  # after a failure, each child still running is waited for
            os.waitpid(pid, 0)
            tmp.close()


def _cells(keys: np.ndarray, values: np.ndarray) -> list[list[str]]:
    """Each row of a fit table as write_fit writes it: its key cells, then its
    values in shortest round-trip form."""
    return [[*key, *map(repr, row)] for key, row in zip(keys.tolist(), values.tolist())]


def _write_table(path: Path, header: list[str], keys: np.ndarray, values: np.ndarray) -> None:
    """Write a table of key cells and float values, as write_fit writes each
    of its tables."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _csv_writer(fh).writerows([header, *_cells(keys, values)])


def write_json(path: Union[str, Path], payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path: Path) -> dict:
    if not path.exists():
        raise ParseError(f"missing fit file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _unkeyed(header: list[str], values: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A `_tables` entry of a table without key columns."""
    return header, np.empty((len(values), 0), dtype=object), values


def _tables(fit: mfpca.MultilevelFit) -> dict[str, tuple[list[str], np.ndarray, np.ndarray]]:
    """The fit directory's CSV tables by file name: each one's header, (rows,
    keys) object array of key cells (no columns for a table without keys) and
    value matrix. A level's score keys are `MultilevelFit.unit_keys`; the score
    tables come first, as read_fit takes the design's labels from them."""
    grid, measures, t = fit.grid, fit.measure_labels, fit.grid.points[:, None]
    tables, eigenvalue_keys = {}, []
    for level, (mat, eig) in enumerate(zip(fit.scores, fit.level_eig), start=1):
        components = [str(a) for a in range(1, eig.n_components + 1)]
        tables[f"scores_level{level}.csv"] = (
            ["subject", "measure", "replicate"][:level] + [f"score_{a}" for a in components],
            fit.unit_keys(level), mat)
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


def _documents(fit: mfpca.MultilevelFit) -> dict[str, dict]:
    """The fit directory's JSON by file name: noise.json, and the manifest keys that describe
    the fit; each level's entry has every `mfpca.DIAGNOSTICS` name, null where the fit has none."""
    values = [fit.diagnostics.get(name, (None,) * fit.levels) for name in mfpca.DIAGNOSTICS]
    return {
        "noise.json": {"noise_variance": fit.noise_variance},
        "manifest.json": {
            "format_version": FORMAT_VERSION, "levels": fit.levels, "config": asdict(fit.config),
            "diagnostics": {"levels": [
                {"level": level, "retained": k, **dict(zip(mfpca.DIAGNOSTICS, row))}
                for level, (k, *row) in enumerate(zip(fit.retained, *values), start=1)]},
        },
    }


def write_fit(fit: mfpca.MultilevelFit, out_dir: Union[str, Path],
              extra_manifest: dict | None = None) -> Path:
    """Write a two- or three-level fit: the tables of `_tables` and the JSON of
    `_documents`, the manifest with the library version and `extra_manifest`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in _tables(fit).items():
        _write_table(out / name, *table)
    documents = _documents(fit)
    documents["manifest.json"].update({"library_version": __version__, **(extra_manifest or {})})
    for name, document in documents.items():
        write_json(out / name, document)
    return out


def _table_row(n_keys: int, header, record) -> None:
    """`_walk`'s check of a data row of a fit table or the covariate file: the
    header's cells, and value cells that parse."""
    if len(record) != len(header):
        raise ValueError(f"{len(record)} cells, the header has {len(header)}")
    for cell in record[n_keys:]:
        _to_float(cell)


def _read_numeric(path: Path, n_keys: int = 0) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A table's header, its first n_keys columns as a (rows, n_keys) object
    array of label cells, and its other columns as one float matrix, all
    parsed in one pass: each fit table, and the covariate file of correlate.

    A missing or empty file is a ParseError naming the file. The parse only
    detects any other fault; `_walk` then raises the first in file order,
    citing its line: bytes that are not UTF-8, a row with more or fewer cells
    than the header, or a value cell that does not parse (`_table_row`).
    """
    if not path.exists():
        raise ParseError(f"missing fit file: {path}")
    try:
        skip, header = next(_records(path))  # a quoted label may span lines
        if not header or len(header) < n_keys:
            raise ValueError(f"header {header} lacks the {n_keys} key columns"
                             if header else "empty file")
        # the fields fix each row's width: the parse refuses more or fewer cells
        dtype = [("keys", object, (n_keys,)), ("values", float, (len(header) - n_keys,))]
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = _load_columns(fh, None, dtype, skip)[:, 0]
    except ValueError as exc:
        _walk(path, partial(_table_row, n_keys))
        raise ParseError(f"{path}: {exc}") from None
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


def read_fit(fit_dir: Union[str, Path]) -> mfpca.MultilevelFit:
    """Load a fit directory written by write_fit.

    Every file is parsed in full, the JSON values as the types write_fit
    writes, and the fit is built through its containers. A fault in a file, a
    manifest whose levels is not 2 or 3, and a table or JSON value other than
    write_fit writes for the fit read are each a ParseError naming the file; a
    score table's subject or measure cell that differs from the fit's labels names
    the table they are read from, scores_level1.csv or scores_level2.csv, unless the
    table's own rows of that label disagree. Of the config only pve is read, and of
    the diagnostics each `mfpca.DIAGNOSTICS` name, as a number on every level or as
    none. Manifest and config keys that write_fit does not write are ignored; a
    config key or the diagnostics it lacks read as the fit's."""
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
    pve = _lenient(lambda: float(manifest["config"]["pve"]), mfpca.FitConfig.pve)
    diagnostics = {name: values for name in mfpca.DIAGNOSTICS if (values := _lenient(lambda: tuple(
        float(manifest["diagnostics"]["levels"][i][name]) for i in range(levels)), ()))}
    with _naming(d, "mean.csv"):
        points, mean_values = tables["mean.csv"][2].T[:2]  # w is checked with every value
        grid = Grid(points)
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
        fit = mfpca.MultilevelFit(
            grid=grid,
            global_mean=global_mean,
            measure_effects=effects,
            level_eig=tuple(level_eigs),
            scores=tuple(tables[f"scores_level{level}.csv"][2] for level in range(1, levels + 1)),
            noise_variance=noise,
            subject_labels=tuple(dict.fromkeys(tables["scores_level1.csv"][1][:, 0].tolist())),
            measure_labels=tuple(dict.fromkeys(tables["scores_level2.csv"][1][:, 1].tolist())),
            pve=pve,
            diagnostics=diagnostics,
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
        row, c = at // len(header) + 1, at % len(header)
        column = header[c]
        # the fit's subject and measure labels are those its first two score tables list
        source = {"subject": "scores_level1.csv", "measure": "scores_level2.csv"}.get(column, name)
        if source != name and len(set(got_keys[keys[:, c] == b, c])) > 1:  # its rows disagree
            source = name
        a, b = (x if x.isprintable() else repr(x)[1:-1] for x in (a, b))
        if source != name:
            raise ParseError(f"{d / source}: {column} {b}, where row {row} of {name} has {a}")
        raise ParseError(f"{d / name}: row {row} has {column} {a}, where the fit has {b}")
    for name, document in _documents(fit).items():
        for key, want in document.items():
            got = documents[name].get(key, want)  # a key the file lacks reads as the fit's
            if key == "config" and isinstance(got, dict):
                got = {k: got.get(k, v) for k, v in want.items()}
            a, b = (json.dumps(v, sort_keys=True) for v in (got, want))
            if a != b:
                raise ParseError(f"{d / name}: {key} {a}, where the fit has {b}")
    return fit
