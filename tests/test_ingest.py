"""Long CSV ingestion and fit-directory round trips."""

import copy
import csv
import dataclasses
import json
import math
import os
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfda
import mfda.ingest
from mfda.core import CurveSet, Grid
from mfda.fpca import select_k
from mfda.errors import (
    DuplicateKeyError,
    EmptyDataError,
    IncompleteCurveError,
    InputError,
    InvalidParameterError,
    MfdaError,
    ParseError,
)
from mfda.ingest import (
    GRID_POLICIES,
    LONG_COLUMNS,
    IngestReport,
    _documents,
    _label_key,
    read_fit,
    read_long_csv,
    write_fit,
    write_long_csv,
)
from mfda.mfpca import FitConfig, canonical_design, fit_nested
from mfda.simkl import generate

from .conftest import json_paths, n2_spec, n3_spec


def _reference_read_long_csv(path, channel, grid_policy="strict"):
    """The row-at-a-time csv.DictReader reader, kept as the oracle.

    It skips rows of other channels without parsing t and value; the reader
    under test rejects such a row when they are not numbers.
    """
    groups = {}
    n_rows = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != set(LONG_COLUMNS):
            raise ParseError(
                f"{path}: header must contain exactly the columns "
                f"{', '.join(LONG_COLUMNS)}"
            )
        for record in reader:
            line = reader.line_num
            if any(record.get(c) in (None, "") for c in LONG_COLUMNS):
                raise ParseError(f"{path}:{line}: incomplete row")
            if record["channel"] != channel:
                continue
            try:
                replicate = int(record["replicate"])
                t = float(record["t"])
                value = float(record["value"])
            except ValueError as exc:
                raise ParseError(f"{path}:{line}: {exc}") from None
            if replicate < 1:
                raise ParseError(f"{path}:{line}: replicate {replicate} is below 1")
            if not (np.isfinite(t) and np.isfinite(value)):
                raise ParseError(f"{path}:{line}: non-finite t or value")
            key = (record["subject"], record["measure"], replicate)
            curve = groups.setdefault(key, {})
            if t in curve:
                raise DuplicateKeyError(
                    f"{path}:{line}: duplicate record for subject="
                    f"{key[0]!r} measure={key[1]!r} replicate={key[2]} t={t!r}"
                )
            curve[t] = value
            n_rows += 1
    if not groups:
        raise EmptyDataError(f"{path}: no records for channel {channel!r}")

    grids = {key: tuple(sorted(ts)) for key, ts in groups.items()}
    shared = grids[next(iter(grids))]
    dropped = ()
    if grid_policy == "strict":
        for key, g in grids.items():
            if g != shared:
                raise IncompleteCurveError(
                    f"subject={key[0]!r} measure={key[1]!r} replicate={key[2]} "
                    f"does not cover the shared grid"
                )
    else:
        common = set(shared)
        for g in grids.values():
            common &= set(g)
        if len(common) < 2:
            raise IncompleteCurveError(
                "grid intersection across curves has fewer than two points"
            )
        union = set()
        for g in grids.values():
            union |= set(g)
        shared = tuple(sorted(common))
        dropped = tuple(sorted(union - common))

    grid = Grid(np.asarray(shared))
    subjects = sorted({k[0] for k in groups}, key=_label_key)
    measures = sorted({k[1] for k in groups}, key=_label_key)
    subject_of = {s: i + 1 for i, s in enumerate(subjects)}
    measure_of = {mlab: j + 1 for j, mlab in enumerate(measures)}
    codes = []
    values = np.empty((len(groups), grid.size))
    for row, key in enumerate(sorted(groups, key=lambda k: (
        subject_of[k[0]], measure_of[k[1]], k[2]
    ))):
        values[row] = [groups[key][t] for t in shared]
        codes.append((subject_of[key[0]], measure_of[key[1]], key[2]))
    curves = CurveSet(grid, codes, values, tuple(subjects), tuple(measures))
    return curves, IngestReport(n_rows=n_rows, dropped_points=dropped)


def assert_reads_like_reference(path, channel, grid_policy):
    """Same CurveSet and IngestReport, or the same error with the same text."""
    try:
        expected = _reference_read_long_csv(path, channel, grid_policy)
    except MfdaError as exc:
        with pytest.raises(MfdaError) as got:
            read_long_csv(path, channel, grid_policy)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    (curves, report), (ref_curves, ref_report) = read_long_csv(
        path, channel, grid_policy
    ), expected
    assert np.array_equal(curves.codes, ref_curves.codes)
    assert curves.values.tobytes() == ref_curves.values.tobytes()
    assert curves.grid.points.tobytes() == ref_curves.grid.points.tobytes()
    assert curves.grid.weights.tobytes() == ref_curves.grid.weights.tobytes()
    assert curves.subject_labels == ref_curves.subject_labels
    assert curves.measure_labels == ref_curves.measure_labels
    assert report == ref_report


TINY_CSV = """subject,measure,replicate,t,value,channel
s1,HIIT1,1,0.0,1.5,knee_x
s1,HIIT1,1,0.5,2.5,knee_x
s1,HIIT1,1,1.0,3.5,knee_x
s1,HIIT1,1,0.0,9.9,knee_y
s1,HIIT1,1,0.5,9.9,knee_y
s1,HIIT1,1,1.0,9.9,knee_y
"""


class TestReadLongCsv:
    def test_single_curve(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(TINY_CSV)
        curves, report = read_long_csv(path, channel="knee_x")
        assert len(curves) == 1
        np.testing.assert_array_equal(curves.values[0], [1.5, 2.5, 3.5])
        np.testing.assert_array_equal(curves.grid.points, [0.0, 0.5, 1.0])
        assert curves.codes.tolist() == [[1, 1, 1]]
        assert curves.subject_labels == ("s1",)
        assert curves.measure_labels == ("HIIT1",)
        assert report == IngestReport(n_rows=3, dropped_points=())

    def test_channel_filtering(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(TINY_CSV)
        curves, _ = read_long_csv(path, channel="knee_y")
        np.testing.assert_array_equal(curves.values[0], [9.9, 9.9, 9.9])

    def test_unknown_channel(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(TINY_CSV)
        with pytest.raises(EmptyDataError):
            read_long_csv(path, channel="hip_z")

    def test_duplicate_cites_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "subject,measure,replicate,t,value,channel\n"
            "a,m,1,0.0,1.0,c\n"
            "a,m,1,0.5,1.0,c\n"
            "a,m,1,0.0,2.0,c\n"
        )
        with pytest.raises(DuplicateKeyError) as err:
            read_long_csv(path, channel="c")
        assert ":4:" in str(err.value)

    def test_malformed_row_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject,measure,replicate,t,value,channel\n"
            "a,m,1,0.0,1.0,c\n"
            "a,m,1,oops,1.0,c\n"
        )
        with pytest.raises(ParseError) as err:
            read_long_csv(path, channel="c")
        assert ":3:" in str(err.value)

    @pytest.mark.parametrize("before", [1, 70_000])
    def test_nul_in_a_label_cites_its_line(self, tmp_path, before):
        # a fixed-width label field would read 'a\0' as 'a', a valid point of
        # curve a; after 70,000 rows the NUL lies past the scan's first 1 MiB read
        rows = "".join(f"a,m,1,{i}.0,1.0,c\n" for i in range(before))
        path = tmp_path / "nul.csv"
        path.write_text(HEADER + rows + f"a\0,m,1,{before}.0,1.0,c\n")
        with pytest.raises(ParseError) as err:
            read_long_csv(path, channel="c")
        assert str(err.value) == f"{path}:{before + 2}: NUL character"

    def test_field_past_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(HEADER + "x" * 150_000 + ",m,1,0.0,1.0,c\na,m,1,oops,1.0,c\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            read_long_csv(path, channel="c")
        assert str(err.value).startswith(f"{path}:2: ")  # the line csv cannot read

    def test_bad_header(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("subject,t,value\n")
        with pytest.raises(ParseError):
            read_long_csv(path, channel="c")

    def test_strict_rejects_grid_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.csv"
        path.write_text(
            "subject,measure,replicate,t,value,channel\n"
            "a,m,1,0.0,1.0,c\n"
            "a,m,1,1.0,1.0,c\n"
            "b,m,1,0.0,1.0,c\n"
            "b,m,1,0.5,1.0,c\n"
            "b,m,1,1.0,1.0,c\n"
        )
        with pytest.raises(IncompleteCurveError):
            read_long_csv(path, channel="c", grid_policy="strict")
        curves, report = read_long_csv(path, channel="c", grid_policy="intersect")
        np.testing.assert_array_equal(curves.grid.points, [0.0, 1.0])
        assert report.dropped_points == (0.5,)


# Long, non-ASCII and many-line labels make the reader widen its label
# fields: the many-line label is longer than any physical line of its file,
# and a channel named "c" plus 30 characters starts with the fitted channel.
LONG_LABEL = "L" * 40
MANY_LINES = "\n".join(["w" * 10] * 30)
SUBJECTS = ("1", "2", "10", "a,b", 'say "hi"', "two\nlines", " s ", LONG_LABEL,
            "é中", MANY_LINES)
MEASURES = ("1", "2", "pre", "post,1", LONG_LABEL + ",m", "é中", '"' + MANY_LINES)
OTHER_CHANNELS = ("d", "e,f", "c" + "x" * 30, LONG_LABEL, "é中")
POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
FAULTS = (
    "none", "incomplete", "short", "bad_float", "non_finite", "bad_replicate",
    "duplicate", "drop_row", "empty_channel",
)


HEADER = "subject,measure,replicate,t,value,channel\n"
# A quoted newline and a blank line come before the row under test, which
# therefore sits on physical line 7.
PREFIX = '"two\nlines",m,1,0.0,1.0,c\n\n"two\nlines",m,1,1.0,1.0,c\n'

ROW_FAULTS = [
    ("incomplete", "a,m,1,0.0,,c\n", "c", ParseError, 7),
    ("short", "a,m,1,0.0\n", "c", ParseError, 7),
    ("bad_float", "a,m,1,oops,1.0,c\n", "c", ParseError, 7),
    ("non_finite", "a,m,1,0.0,inf,c\n", "c", ParseError, 7),
    ("bad_replicate", "a,m,x,0.0,1.0,c\n", "c", ParseError, 7),
    ("replicate_below_1", "a,m,00,0.0,1.0,c\n", "c", ParseError, 7),
    # a record spanning lines 7-8 is cited by the line it ends on
    ("duplicate", '"two\nlines",m,01,0.0,2.0,c\n', "c", DuplicateKeyError, 8),
    ("grid_mismatch", "a,m,1,0.0,1.0,c\n", "c", IncompleteCurveError, None),
    ("empty_channel", "a,m,1,0.0,1.0,c\n", "zzz", EmptyDataError, None),
]


ORDERS = ("shuffled", "canonical", "reversed_curve", "split_curve")


def _ordered(rows, order, rng):
    """The rows shuffled, or in canonical order (channel, then subject,
    measure, replicate and t), with one curve's rows reversed or with the
    second half of one curve moved to the end of the file."""
    if order == "shuffled":
        return [rows[i] for i in rng.permutation(len(rows))]

    def curve(row):
        return row[5], _label_key(row[0]), _label_key(row[1]), int(row[2])

    rows = sorted(rows, key=lambda row: (*curve(row), float(row[3])))
    picked = curve(rows[int(rng.integers(len(rows)))])
    at = [j for j, row in enumerate(rows) if curve(row) == picked]
    part = [rows[j] for j in at]
    if order == "reversed_curve":
        for j, row in zip(at, reversed(part)):
            rows[j] = row
    elif order == "split_curve":
        moved = set(at[len(at) // 2:])
        rows = [row for j, row in enumerate(rows) if j not in moved] + part[len(at) // 2:]
    return rows


class TestReaderMatchesReference:
    @pytest.mark.parametrize(
        "row,channel,error,line",
        [case[1:] for case in ROW_FAULTS],
        ids=[case[0] for case in ROW_FAULTS],
    )
    def test_error_type_and_line(self, tmp_path, row, channel, error, line):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + PREFIX + row, newline="")
        with pytest.raises(error) as err:
            read_long_csv(path, channel=channel)
        if line is not None:
            assert str(err.value).startswith(f"{path}:{line}: ")
        assert_reads_like_reference(path, channel, "strict")

    def test_every_row_must_parse_whatever_its_channel(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text(HEADER + PREFIX + "a,m,1,oops,1.0,d\n", newline="")
        curves, _ = _reference_read_long_csv(path, "c")
        assert len(curves) == 1
        with pytest.raises(ParseError) as err:
            read_long_csv(path, channel="c")
        assert str(err.value) == (
            f"{path}:7: could not convert string to float: 'oops'"
        )

    @pytest.mark.parametrize("chunk_rows", [1, 3, 10_000])
    def test_quote_inside_an_unquoted_label(self, tmp_path, chunk_rows):
        # csv and loadtxt both read 'x"y' literally, so its odd quote count
        # must not shift where a chunk ends before the quoted newlines after it
        path = tmp_path / "stray.csv"
        path.write_text(HEADER + 'x"y,m,1,0.0,1.0,d\n' + PREFIX, newline="")
        with mock.patch.object(mfda.ingest, "_CHUNK_ROWS", chunk_rows):
            assert_reads_like_reference(path, "c", "strict")
            assert_reads_like_reference(path, "d", "intersect")

    @given(
        subjects=st.lists(st.sampled_from(SUBJECTS), min_size=1, max_size=3, unique=True),
        measures=st.lists(st.sampled_from(MEASURES), min_size=1, max_size=2, unique=True),
        replicates=st.integers(1, 3),
        points=st.lists(st.sampled_from(POINTS), min_size=2, max_size=5, unique=True),
        others=st.lists(st.sampled_from(OTHER_CHANNELS), max_size=2, unique=True),
        fault=st.sampled_from(FAULTS),
        order=st.sampled_from(ORDERS),
        grid_policy=st.sampled_from(GRID_POLICIES),
        newline=st.sampled_from(("\n", "\r\n", "\r")),
        chunk_rows=st.sampled_from((1, 3, 10_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    # an unquoted label holding LF written with CR line ends would read as two rows
    @example(subjects=["1", "two\nlines"], measures=["1"], replicates=1, points=[0.0, 0.25, 0.5],
             others=[], fault="duplicate", order="canonical", grid_policy="strict",
             newline="\r", chunk_rows=1, seed=1)
    def test_property(
        self, tmp_path_factory, subjects, measures, replicates, points, others,
        fault, order, grid_policy, newline, chunk_rows, seed,
    ):
        rng = np.random.default_rng(seed)
        rows = [
            [s, m, str(k) if rng.random() < 0.5 else f"{k:02d}", repr(t),
             repr(float(rng.normal())), ch]
            for ch in ["c", *others]
            for s in subjects
            for m in measures
            for k in range(1, replicates + 1)
            for t in points
        ]
        rows = _ordered(rows, order, rng)
        i = int(rng.integers(len(rows)))
        ours = [j for j, row in enumerate(rows) if row[5] == "c"]
        if fault == "incomplete":
            rows[i][int(rng.integers(6))] = ""
        elif fault == "short":
            rows[i] = rows[i][: int(rng.integers(1, 6))]
        elif fault == "bad_float":
            rows[ours[i % len(ours)]][int(rng.integers(3, 5))] = "oops"
        elif fault == "non_finite":
            rows[i][int(rng.integers(3, 5))] = str(rng.choice(["nan", "inf", "-inf"]))
        elif fault == "bad_replicate":
            rows[i][2] = "x"
        elif fault == "duplicate":
            rows.insert(int(rng.integers(len(rows) + 1)), rows[i][:4] + ["9.5", rows[i][5]])
        elif fault == "drop_row":
            del rows[i]
        columns = rng.permutation(6)
        path = tmp_path_factory.mktemp("oracle") / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            # csv quotes a field holding a character of its line end: written with
            # CRLF, each line end then replaced, every field holding CR or LF is quoted
            writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + newline)),
                                lineterminator="\r\n")
            writer.writerow([LONG_COLUMNS[c] for c in columns])
            for row in rows:
                if rng.random() < 0.1:
                    fh.write(newline)
                writer.writerow([row[c] for c in columns if c < len(row)])
        channel = "zzz" if fault == "empty_channel" else "c"
        # small chunks put chunk boundaries inside the file, quoted newlines included
        with mock.patch.object(mfda.ingest, "_CHUNK_ROWS", chunk_rows):
            assert_reads_like_reference(path, channel, grid_policy)


def _ranged_rows(order, rng):
    """Rows of channels c and d, labels without a quote: a long one, a non-ASCII
    one and numeric ones, two replicates and eleven points; in canonical order,
    shuffled, or one curve of 401 points alone, so that every cut falls inside it."""
    points = [repr(t / 10) for t in range(11)]
    if order == "one_curve":
        return [["s", "m", "1", repr(t / 400), repr(float(v)), "c"]
                for t, v in enumerate(rng.normal(size=401))]
    rows = [[s, m, r, t, repr(float(rng.normal())), ch]
            for ch in ("c", "d") for s in ("1", "2", "10", LONG_LABEL, "é中")
            for m in ("pre", "post") for r in ("1", "2") for t in points]
    return [rows[i] for i in rng.permutation(len(rows))] if order == "shuffled" else rows


def _write_rows(path, rows, newline="\n"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=newline).writerows([LONG_COLUMNS, *rows])


def _read_at(parts, monkeypatch, *args):
    """read_long_csv in up to `parts` ranges of any size, and the forks it made."""
    forks, fork = [], os.fork
    monkeypatch.setattr(mfda.ingest, "_cpu_count", lambda: parts)
    monkeypatch.setattr(mfda.ingest, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    try:
        X, report = read_long_csv(*args)
        return (X.values.tobytes(), X.codes.tobytes(), X.subject_labels, X.measure_labels,
                X.grid.points.tobytes(), report), len(forks)
    finally:
        monkeypatch.setattr(os, "fork", fork)


class TestReadRanges:
    @pytest.mark.parametrize("chunk_rows", [3, 10_000])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("order", ["canonical", "shuffled", "one_curve"])
    def test_every_part_count_reads_the_same(self, tmp_path, monkeypatch, order, newline,
                                             chunk_rows):
        # a cut past any newline falls inside a curve, and the ranges hold labels
        # and channels the others lack; 1-4 ranges give the same CurveSet and report
        path = tmp_path / "data.csv"
        _write_rows(path, _ranged_rows(order, np.random.default_rng(11)), newline)
        monkeypatch.setattr(mfda.ingest, "_CHUNK_ROWS", chunk_rows)
        got = [_read_at(parts, monkeypatch, path, "c") for parts in (1, 2, 3, 4)]
        assert [forks for _, forks in got] == [0, 1, 2, 3]
        assert all(read == got[0][0] for read, _ in got)
        assert_reads_like_reference(path, "c", "strict")
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_labels_of_one_key_keep_their_file_order(self, tmp_path, monkeypatch):
        # "001", "1", "0001" and "01" all sort as 1: they keep the order in which
        # they first appear in the file, also when they first appear in other ranges
        labels = ("001", "1", "0001", "01")
        path = tmp_path / "data.csv"
        _write_rows(path, [[s, "m", "1", repr(t / 10), "1.0", "c"]
                           for s in labels for t in range(11)])
        for parts in (1, 2, 3, 4):
            assert _read_at(parts, monkeypatch, path, "c")[0][2] == labels

    @pytest.mark.parametrize("before", [1, 70_000])
    def test_a_quoted_label_keeps_one_range(self, tmp_path, monkeypatch, before):
        # a quoted field may hold a newline, so a file holding '"' is not cut; after
        # 70,000 rows the quote lies past the scan's first 1 MiB read
        rows = [["a", "m", "1", repr(i / before), "1.0", "c"] for i in range(before + 1)]
        rows += [["two\nlines", "m", "1", "0.0", "1.0", "d"]]
        path = tmp_path / "quoted.csv"
        _write_rows(path, rows)
        assert b'"two\nlines"' in path.read_bytes()
        read, forks = _read_at(4, monkeypatch, path, "c")
        assert forks == 0
        assert read == _read_at(1, monkeypatch, path, "c")[0]

    @pytest.mark.parametrize("fault", ["bad_float", "not_utf8", "incomplete", "max_values",
                                       "max_values_in_sum"])
    def test_a_fault_in_a_child_range_raises_as_one_range(self, tmp_path, monkeypatch, fault):
        # the fault lies in the last of three ranges. A child that fails has its
        # range parsed again here, so the error is that of one range; past the
        # cap a range stops, and at "max_values_in_sum" no range alone passes it.
        # The cap cites the channel's row past it
        rows = _ranged_rows("canonical", np.random.default_rng(12))
        line = len(rows) + 1
        if fault == "bad_float":
            rows[-1][4] = "oops"
        elif fault == "incomplete":
            rows[-1][3] = ""
        elif fault.startswith("max_values"):
            ours = sum(row[5] == "c" for row in rows)
            monkeypatch.setattr(mfda.simkl, "MAX_VALUES", ours - 1 if "sum" in fault else 5)
            rows = rows[::-1]  # the channel's rows last
            line += 1 - ours + mfda.simkl.MAX_VALUES
        path = tmp_path / "bad.csv"
        _write_rows(path, rows)
        if fault == "not_utf8":
            path.write_bytes(path.read_bytes()[:-3] + b"\xff\n")
        errors = []
        for parts in (1, 3):
            with pytest.raises(MfdaError) as info:
                _read_at(parts, monkeypatch, path, "c")
            errors.append((type(info.value), str(info.value)))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert errors[0] == errors[1]
        assert errors[0][1].startswith(f"{path}:{line}: " + {
            "bad_float": "could not convert string to float: 'oops'",
            "not_utf8": "not UTF-8 text",
            "incomplete": "incomplete row",
        }.get(fault, f"channel 'c' has more than the {mfda.simkl.MAX_VALUES} values"))

    @pytest.mark.parametrize("chunk_rows", [8, 10_000])
    def test_the_first_fault_in_file_order_whatever_the_cut(self, tmp_path, monkeypatch,
                                                           chunk_rows):
        # the channel's 51st row, on line 52, passes a cap of 50 before the bad float
        # on line 231. In chunks of 8 rows one range stops at the cap and a cut
        # before line 231 fails on the float first; every cut cites the cap
        rows = [[str(s), m, "1", repr(t / 10), "1.0", "c"]
                for s in range(1, 21) for m in ("pre", "post") for t in range(11)]
        rows[229][4] = "abc"
        path = tmp_path / "f.csv"
        _write_rows(path, rows)
        monkeypatch.setattr(mfda.simkl, "MAX_VALUES", 50)
        monkeypatch.setattr(mfda.ingest, "_CHUNK_ROWS", chunk_rows)
        for parts in (1, 2, 3, 4):
            with pytest.raises(MfdaError) as info:
                _read_at(parts, monkeypatch, path, "c")
            assert type(info.value) is InputError
            assert str(info.value) == (
                f"{path}:52: channel 'c' has more than the 50 values a data set may hold")

    def test_a_child_that_cannot_return_its_range(self, tmp_path, monkeypatch):
        # each child's temporary file is read-only, so every child fails: this
        # process parses their ranges itself, and reads the same
        path = tmp_path / "data.csv"
        _write_rows(path, _ranged_rows("shuffled", np.random.default_rng(13)))
        expected = _read_at(1, monkeypatch, path, "c")[0]
        monkeypatch.setattr(mfda.ingest.tempfile, "TemporaryFile", lambda: open(os.devnull, "rb"))
        assert _read_at(3, monkeypatch, path, "c") == (expected, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _reference_write_long_csv(X, path, channel):
    """The row-at-a-time writer, kept as the byte oracle of write_long_csv."""
    points = [repr(float(t)) for t in X.grid.points]
    tail = mfda.ingest._csv_fields("", channel) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(mfda.ingest._csv_fields(*LONG_COLUMNS) + "\n")
        for (s, m, r), row in zip(X.codes.tolist(), X.values):
            head = mfda.ingest._csv_fields(
                X.subject_labels[s - 1], X.measure_labels[m - 1], r, ""
            )
            fh.write("".join(
                f"{head}{t},{v!r}{tail}" for t, v in zip(points, row.tolist())
            ))


class TestLongCsvRoundTrip:
    @pytest.mark.parametrize("parts", [1, 2, 3, 100])
    @pytest.mark.parametrize("replicates", [None, (3, 1), "generated"])
    def test_bytes_match_the_row_writer(self, tmp_path, monkeypatch, replicates, parts):
        # labels with %, a comma, a quote and a newline; rows out of order; or a
        # generated three-level set. The writer formats the curves in 1, 2 or 3
        # ranges, or one range per curve where there are fewer curves than parts
        rng = np.random.default_rng(5)
        if replicates == "generated":
            X, _ = generate(n3_spec(8, n=3, J=2, K_rep=3, m=11))
        else:
            codes = [(i, j, k) for i in (2, 1, 3) for j in (2, 1) for k in (replicates or (1,))]
            X = CurveSet(
                Grid.uniform(5), codes, rng.normal(size=(len(codes), 5)),
                ("a%s", 'b,"%d"', "c\n%%"), ("m%r", 'n,"1"\n'),
            )
        monkeypatch.setattr(mfda.ingest, "_cpu_count", lambda: parts)
        for channel in ("sim", 'k%,"x"'):
            got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
            write_long_csv(X, got, channel=channel)
            _reference_write_long_csv(X, expected, channel=channel)
            assert got.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("at", [0, -1], ids=["first_range", "last_range"])
    def test_a_failing_range_raises_as_one_part_does(self, tmp_path, monkeypatch, at):
        # a label UTF-8 cannot encode, on the first subject's curves (formatted by
        # the writing process) or the last subject's (formatted by a child, which
        # fails, and then by the writing process); no partial file is left
        X, _ = generate(n2_spec(3, n=4, J=2, m=11))
        labels = list(X.subject_labels)
        labels[at] = "\ud800"
        X = CurveSet(X.grid, X.codes, X.values, tuple(labels), X.measure_labels)
        errors = []
        for parts in (1, 3):
            monkeypatch.setattr(mfda.ingest, "_cpu_count", lambda: parts)
            with pytest.raises(UnicodeEncodeError) as info:
                write_long_csv(X, tmp_path / "data.csv", channel="sim")
            errors.append((type(info.value), str(info.value)))
            assert not (tmp_path / "data.csv").exists()
        assert errors[0] == errors[1]
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_cannot_write_its_range(self, tmp_path, monkeypatch):
        # each child's temporary file is read-only, so every child fails: the
        # writing process formats their ranges itself, and the bytes are the same
        X, _ = generate(n2_spec(3, n=4, J=2, m=11))
        monkeypatch.setattr(mfda.ingest, "_cpu_count", lambda: 3)
        monkeypatch.setattr(mfda.ingest.tempfile, "TemporaryFile", lambda: open(os.devnull, "rb"))
        write_long_csv(X, tmp_path / "data.csv", channel="sim")
        _reference_write_long_csv(X, tmp_path / "expected.csv", channel="sim")
        assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_two_level_values_and_index(self, tmp_path):
        X, _ = generate(n2_spec(7, n=4, J=2, m=21))
        path = tmp_path / "rt.csv"
        write_long_csv(X, path, channel="sim")
        back, report = read_long_csv(path, channel="sim")
        assert np.array_equal(back.codes, X.codes)
        assert np.max(np.abs(back.values - X.values)) < 1e-12
        assert np.max(np.abs(back.grid.points - X.grid.points)) < 1e-12
        assert canonical_design(back, levels=2)[1:] == (4, 2, 1)

    def test_three_level_round_trip(self, tmp_path):
        X, _ = generate(n3_spec(8, n=3, J=2, K_rep=3, m=11))
        path = tmp_path / "rt3.csv"
        write_long_csv(X, path, channel="sim")
        back, _ = read_long_csv(path, channel="sim")
        assert np.array_equal(back.codes, X.codes)
        assert np.max(np.abs(back.values - X.values)) < 1e-12

    def test_long_label_round_trip(self, tmp_path):
        X, _ = generate(n2_spec(10, n=3, J=2, m=7))
        label = "".join(chr(0x41 + i % 26) for i in range(199)) + "é"
        X = CurveSet(X.grid, X.codes, X.values, (label, "b", "c"), X.measure_labels)
        path = tmp_path / "long.csv"
        write_long_csv(X, path, channel="sim")
        back, _ = read_long_csv(path, channel="sim")
        assert back.subject_labels == (label, "b", "c")
        assert np.array_equal(back.codes, X.codes)
        assert back.values.tobytes() == X.values.tobytes()

    def test_file_level_round_trip(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        X, _ = generate(n2_spec(9, n=3, J=2, m=7))
        write_long_csv(X, first, channel="sim")
        back, _ = read_long_csv(first, channel="sim")
        write_long_csv(back, second, channel="sim")
        assert first.read_bytes() == second.read_bytes()

    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        codes = [(i, j, k) for i in (1, 2, 3) for j in (1, 2) for k in (1, 2)]
        X = CurveSet(
            Grid.uniform(4), codes, rng.normal(size=(12, 4)),
            ("a,b", 'say "hi"', "two\nlines"), ('p"o,st', "pre"),
        )
        channel = 'k,"x"'
        path = tmp_path / "quoted.csv"
        write_long_csv(X, path, channel=channel)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(LONG_COLUMNS)
            for (s, m, r), row in zip(X.codes.tolist(), X.values):
                for t, v in zip(X.grid.points, row):
                    writer.writerow([
                        X.subject_labels[s - 1], X.measure_labels[m - 1],
                        r, repr(float(t)), repr(float(v)), channel,
                    ])
        assert path.read_bytes() == expected.read_bytes()
        back, _ = read_long_csv(path, channel=channel)
        assert np.array_equal(back.codes, X.codes)
        assert back.values.tobytes() == X.values.tobytes()

    @pytest.mark.parametrize("n", [40, 60, 100, 250])
    def test_reader_holds_at_most_five_values_arrays(self, tmp_path, n):
        # tracemalloc counts numpy's allocations exactly. The parse chunk is a
        # fixed cost, made small so that a small file shows the arrays that
        # grow with it: t, the values, the point codes and the row keys. The
        # NUL scan's one buffer, of the file's size up to 1 MiB, is the other
        # fixed cost: at n=40 and 60 the file is 0.58 and 0.87 MB, and a 1 MiB
        # buffer would break the bound; at n=100 it is 1.5 MB and two 1 MiB
        # buffers would. The untraced first read pays numpy's lazy imports.
        X, _ = generate(n2_spec(4, n=n, J=4, m=101))
        path = tmp_path / "data.csv"
        write_long_csv(X, path, channel="sim")
        with mock.patch.object(mfda.ingest, "_CHUNK_ROWS", 500):
            read_long_csv(path, channel="sim")
            tracemalloc.start()
            try:
                back, _ = read_long_csv(path, channel="sim")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert back.values.tobytes() == X.values.tobytes()
        assert peak <= 5 * back.values.nbytes, peak / back.values.nbytes

    @pytest.mark.parametrize("n", [40, 60, 100])
    def test_a_fault_on_the_last_line_holds_at_most_five_values_arrays(self, tmp_path, n):
        # the files above but the largest, whose walk is slow to trace, with their
        # first data row repeated on the last line: the parse finds the duplicate
        # in its sorted keys, and the walk that cites its line keeps nothing per row
        X, _ = generate(n2_spec(4, n=n, J=4, m=101))
        path = tmp_path / "data.csv"
        write_long_csv(X, path, channel="sim")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(path.read_text().split("\n")[1] + "\n")
        with mock.patch.object(mfda.ingest, "_CHUNK_ROWS", 500):
            tracemalloc.start()
            try:
                with pytest.raises(DuplicateKeyError) as err:
                    read_long_csv(path, channel="sim")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert str(err.value).startswith(f"{path}:{X.values.size + 2}: duplicate record")
        assert peak <= 5 * X.values.nbytes, peak / X.values.nbytes

    def test_deterministic_bytes(self, tmp_path):
        X, _ = generate(n2_spec(10, n=3, J=2, m=7))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_long_csv(X, a, channel="sim")
        write_long_csv(X, b, channel="sim")
        assert a.read_bytes() == b.read_bytes()


def fits_equal(a, b) -> None:
    assert a.levels == b.levels
    assert a.noise_variance == pytest.approx(b.noise_variance, abs=1e-12)
    np.testing.assert_allclose(
        a.global_mean.values, b.global_mean.values, atol=1e-12
    )
    assert len(a.measure_effects) == len(b.measure_effects)
    for ea, eb in zip(a.measure_effects, b.measure_effects):
        np.testing.assert_allclose(ea.values, eb.values, atol=1e-12)
    for ea, eb in zip(a.level_eig, b.level_eig):
        np.testing.assert_allclose(ea.eigenvalues, eb.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(ea.functions, eb.functions, atol=1e-12)
    for sa, sb in zip(a.scores, b.scores):
        np.testing.assert_allclose(sa, sb, atol=1e-12)
    assert a.shape == b.shape
    assert a.subject_labels == b.subject_labels
    assert a.measure_labels == b.measure_labels


class TestFitRoundTrip:
    def test_two_level(self, tmp_path):
        X, _ = generate(n2_spec(11, n=10, J=2, m=21))
        fit = fit_nested(X, FitConfig(levels=2))
        out = tmp_path / "fit"
        write_fit(fit, out)
        back = read_fit(out)
        fits_equal(fit, back)
        assert back.config == fit.config

    def test_three_level(self, tmp_path):
        X, _ = generate(n3_spec(12, n=4, J=2, K_rep=3, m=11))
        fit = fit_nested(X, FitConfig(levels=3, pve=0.9))
        out = tmp_path / "fit3"
        write_fit(fit, out)
        fits_equal(fit, read_fit(out))

    @pytest.mark.parametrize("levels", [2, 3])
    def test_select_k_agrees_on_a_fit_and_its_read_back(self, tmp_path, levels):
        if levels == 2:
            X, _ = generate(n2_spec(11, n=10, J=2, m=21))
        else:
            X, _ = generate(n3_spec(12, n=6, J=2, K_rep=3, m=21))
        fit = fit_nested(X, FitConfig(levels=levels))
        back = read_fit(write_fit(fit, tmp_path / "fit"))
        for a, b in zip(fit.level_eig, back.level_eig):
            for threshold in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0):
                k = select_k(a, threshold)
                assert k == select_k(b, threshold) <= a.n_components, threshold

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("center_measures", [True, False])
    def test_rewriting_a_read_fit_reproduces_every_file(self, tmp_path, levels, center_measures):
        if levels == 2:
            X, _ = generate(n2_spec(19, n=5, J=2, m=11))
        else:
            X, _ = generate(n3_spec(19, n=4, J=2, K_rep=3, m=11))
        # labels holding a comma, a double quote and a newline, which csv quotes
        subjects = ('a,"b', "c\nd", *X.subject_labels[2:])
        X = CurveSet(X.grid, X.codes, X.values, subjects, ('x"\ny', "p,q"))
        fit = fit_nested(X, FitConfig(levels=levels, center_measures=center_measures))
        first = write_fit(fit, tmp_path / "first")
        second = write_fit(read_fit(first), tmp_path / "second")
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_fpca_fit(self, tmp_path):
        # a single-level (levels 1) fit directory is refused
        import json

        X, _ = generate(n2_spec(11, n=4, J=2, m=7))
        out = write_fit(fit_nested(X, FitConfig(levels=2)), tmp_path / "fit")
        manifest = json.loads((out / "manifest.json").read_text())
        (out / "manifest.json").write_text(json.dumps({**manifest, "levels": 1}))
        with pytest.raises(ParseError, match="levels must be 2 or 3, got 1"):
            read_fit(out)

    def test_zero_component_level_header_only(self, tmp_path):
        X, _ = generate(n2_spec(13, n=8, J=2, m=11, lam2=(0.0,), noise=0.0))
        fit = fit_nested(X, FitConfig(levels=2, pve=0.95))
        assert fit.retained[1] == 0
        out = tmp_path / "fit0"
        write_fit(fit, out)
        content = (out / "eigenfunctions_level2.csv").read_text()
        assert content == "t\n"
        back = read_fit(out)
        assert back.level_eig[1].n_components == 0
        assert back.scores[1].shape == (16, 0)

    def test_manifest_fields(self, tmp_path):
        X, _ = generate(n2_spec(14, n=4, J=2, m=7))
        fit = fit_nested(X, FitConfig(levels=2))
        out = tmp_path / "fit"
        write_fit(fit, out)
        import json

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format_version"] == "mfda-v1"
        assert manifest["library_version"] == mfda.__version__
        assert manifest["levels"] == 2

    def test_manifest_with_noise_bandwidth_still_loads(self, tmp_path):
        # fit directories written before the noise bandwidth became a
        # module constant store it under config; read_fit ignores the key
        import json

        X, _ = generate(n2_spec(14, n=4, J=2, m=7))
        fit = fit_nested(X, FitConfig(levels=2, pve=0.9))
        out = tmp_path / "fit"
        write_fit(fit, out)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert "noise_bandwidth" not in manifest["config"]
        manifest["config"]["noise_bandwidth"] = 0.015
        path.write_text(json.dumps(manifest))
        back = read_fit(out)
        assert back.config == fit.config
        fits_equal(fit, back)

    def test_manifest_with_smooth_and_bandwidth_still_loads(self, tmp_path):
        # fit directories written while --smooth existed store smooth and
        # bandwidth under config, and no diagnostics; read_fit ignores the
        # keys and reads no penalties
        import json

        X, _ = generate(n2_spec(14, n=4, J=2, m=7))
        fit = fit_nested(X, FitConfig(levels=2, pve=0.9))
        out = tmp_path / "fit"
        write_fit(fit, out)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert not {"smooth", "bandwidth"} & set(manifest["config"])
        manifest["config"].update(smooth=True, bandwidth=0.05)
        del manifest["diagnostics"]
        path.write_text(json.dumps(manifest))
        back = read_fit(out)
        assert back.config == fit.config
        assert back.penalties == ()
        fits_equal(fit, back)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_diagnostics_survive_the_round_trip(self, tmp_path, levels):
        import json

        if levels == 2:
            X, _ = generate(n2_spec(17, n=20, J=2, m=31))
        else:
            X, _ = generate(n3_spec(17, n=10, J=2, K_rep=3, m=31))
        fit = fit_nested(X, FitConfig(levels=levels))
        assert len(fit.penalties) == levels
        out = write_fit(fit, tmp_path / "fit")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["levels"] == [
            {"level": level, "lambda": lam, "retained": k}
            for level, (lam, k) in enumerate(zip(fit.penalties, fit.retained), 1)
        ]
        back = read_fit(out)
        assert back.penalties == fit.penalties
        assert back.retained == fit.retained

    @pytest.mark.parametrize("edit", [
        lambda levels: [],
        lambda levels: {"levels": [{"level": 1}]},
        lambda levels: {"levels": [{"lambda": "x"}]},
        lambda levels: {"levels": levels[:1]},  # one level without an entry
        lambda levels: {"levels": levels + levels[1:]},
        lambda levels: {"levels": levels[::-1]},
        lambda levels: {"levels": {"1": levels[0], "2": levels[1]}},
        lambda levels: {"level": levels},
        lambda levels: {"levels": [{**levels[0], "lambda": True}, levels[1]]},
        lambda levels: {"levels": [{**levels[0], "lambda": "2"}, levels[1]]},
        lambda levels: {"levels": [{**levels[0], "lambda": [1.0]}, levels[1]]},
        lambda levels: {"levels": [levels[0], {**levels[1], "lambda": None}]},  # mixed
        lambda levels: {"levels": [{"level": 1, "retained": levels[0]["retained"]}, levels[1]]},
        lambda levels: {"levels": [{**levels[0], "level": True}, levels[1]]},
        lambda levels: {"levels": [{**levels[0], "level": 1.0}, levels[1]]},
        lambda levels: {"levels": [levels[0], {**levels[1], "retained": levels[1]["retained"] + 1}]},
        lambda levels: {"levels": [levels[0], None]},
    ])
    def test_bad_diagnostics_are_parse_errors(self, tmp_path, edit):
        import json

        X, _ = generate(n2_spec(18, n=4, J=2, m=11))
        out = write_fit(fit_nested(X, FitConfig(levels=2)), tmp_path / "fit")
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert [type(e["lambda"]) for e in manifest["diagnostics"]["levels"]] == [float, float]
        manifest["diagnostics"] = edit(manifest["diagnostics"]["levels"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=f"^{path}: diagnostics "):
            read_fit(out)

    def test_null_lambdas_read_as_no_penalties(self, tmp_path):
        import json

        X, _ = generate(n2_spec(18, n=4, J=2, m=11))
        out = write_fit(fit_nested(X, FitConfig(levels=2)), tmp_path / "fit")
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["diagnostics"]["levels"]:
            entry["lambda"] = None
        path.write_text(json.dumps(manifest))
        assert read_fit(out).penalties == ()

    @pytest.mark.parametrize("edit, fault", [
        (lambda row: row + ",0.5", "scores_level3.csv:4: {plus} cells, the header has {width}"),
        (lambda row: row.rsplit(",", 1)[0],
         "scores_level3.csv:4: {minus} cells, the header has {width}"),
        # the fit's subjects and measures are read from the first two score tables
        (lambda row: "9" + row,
         "scores_level1.csv: subject 1, where row 3 of scores_level3.csv has 91\n"),
        (lambda row: row.replace(",1,", ",2,", 1),
         "scores_level2.csv: measure 1, where row 3 of scores_level3.csv has 2\n"),
        (lambda row: row.replace(",3,", ",03,", 1),
         "scores_level3.csv: row 3 has replicate 03, where the fit has 3\n"),
    ])
    def test_a_faulty_score_row_is_cited(self, tmp_path, edit, fault):
        X, _ = generate(n3_spec(12, n=6, J=2, K_rep=3, m=21))
        out = write_fit(fit_nested(X, FitConfig(levels=3)), tmp_path / "fit")
        path = out / "scores_level3.csv"
        lines = path.read_text().split("\n")
        width = len(lines[0].split(","))
        assert lines[3].startswith("1,1,3,")
        lines[3] = edit(lines[3])
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError) as err:
            read_fit(out)
        fault = fault.format(plus=width + 1, minus=width - 1, width=width)
        assert f"{err.value}\n".startswith(f"{out / fault}")

    def test_deterministic_bytes(self, tmp_path):
        X, _ = generate(n2_spec(15, n=4, J=2, m=7))
        fit = fit_nested(X, FitConfig(levels=2))
        write_fit(fit, tmp_path / "a")
        write_fit(fit, tmp_path / "b")
        for name in (
            "mean.csv",
            "measure_means.csv",
            "eigenvalues.csv",
            "eigenfunctions_level1.csv",
            "eigenfunctions_level2.csv",
            "scores_level1.csv",
            "scores_level2.csv",
            "noise.json",
            "manifest.json",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_missing_file_is_parse_error(self, tmp_path):
        X, _ = generate(n2_spec(16, n=4, J=2, m=7))
        fit = fit_nested(X, FitConfig(levels=2))
        out = tmp_path / "fit"
        write_fit(fit, out)
        (out / "eigenvalues.csv").unlink()
        with pytest.raises(ParseError):
            read_fit(out)


def _rendered_fit(levels: int, penalties: bool):
    if levels == 2:
        X, _ = generate(n2_spec(18, n=4, J=2, m=11))
    else:
        X, _ = generate(n3_spec(12, n=4, J=2, K_rep=3, m=11))
    fit = fit_nested(X, FitConfig(levels=levels))
    assert len(fit.penalties) == levels
    return fit if penalties else dataclasses.replace(fit, penalties=())


# one value of each JSON type: null, boolean, integer, number, string, array, object
_JSON_TYPES = [None, True, 1, 1.5, "1", [1], {"x": 1}]


class TestFitDocuments:
    """read_fit reads noise.json and manifest.json as `_documents` renders them."""

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("penalties", [True, False])
    def test_a_value_of_another_json_type_is_refused(self, tmp_path, levels, penalties):
        fit = _rendered_fit(levels, penalties)
        out = write_fit(fit, tmp_path / "fit")
        for name, document in _documents(fit).items():
            path = out / name
            written = json.loads(path.read_text())
            for keys in json_paths(document):
                value = document
                for key in keys:
                    value = value[key]
                for other in _JSON_TYPES:
                    if type(other) is type(value):
                        continue
                    edited = other
                    if keys:
                        edited = copy.deepcopy(written)
                        parent = edited
                        for key in keys[:-1]:
                            parent = parent[key]
                        parent[keys[-1]] = other
                    path.write_text(json.dumps(edited))
                    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
                        read_fit(out)
            path.write_text(json.dumps(written))
        read_fit(out)

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("penalties", [True, False])
    def test_the_written_json_reads_back_with_extra_keys(self, tmp_path, levels, penalties):
        fit = _rendered_fit(levels, penalties)
        out = write_fit(fit, tmp_path / "fit", extra_manifest={"command": "fit"})
        for name in ("noise.json", "manifest.json"):
            path = out / name
            path.write_text(json.dumps(json.loads(path.read_text())))
        fits_equal(fit, read_fit(out))
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["x"] = [1, {"y": None}]
        manifest["config"].update(smooth=True, bandwidth=0.05, noise_bandwidth=0.015)
        path.write_text(json.dumps(manifest))
        back = read_fit(out)
        fits_equal(fit, back)
        assert (back.config, back.penalties) == (fit.config, fit.penalties)

    def test_values_round_trip_as_the_types_write_fit_writes(self, tmp_path):
        config = FitConfig(levels=np.int64(2), pve=1, center_measures=1)
        assert [type(v) for v in dataclasses.astuple(config)] == [int, float, bool]
        with pytest.raises(TypeError):
            FitConfig(levels=2.0)
        fit = dataclasses.replace(_rendered_fit(2, True), pve=1, noise_variance=1,
                                  penalties=(1, 2))
        assert fit.config == config
        assert (fit.pve, fit.noise_variance, fit.penalties) == (1.0, 1.0, (1.0, 2.0))
        assert all(type(v) is float for v in (fit.pve, fit.noise_variance, *fit.penalties))
        out = write_fit(fit, tmp_path / "fit")
        assert json.loads((out / "noise.json").read_text()) == {"noise_variance": 1.0}
        assert '"pve": 1.0' in (out / "manifest.json").read_text()
        back = read_fit(out)
        assert (back.config, back.noise_variance, back.penalties) == (
            fit.config, 1.0, (1.0, 2.0))

    @pytest.mark.parametrize("penalties", [(1.0,), (1.0, 2.0, 3.0), (1.0, math.nan),
                                           (math.inf, 1.0)])
    def test_penalties_other_than_one_finite_per_level_are_refused(self, penalties):
        fit = _rendered_fit(2, True)
        with pytest.raises(InvalidParameterError, match="penalties") as err:
            dataclasses.replace(fit, penalties=penalties)
        assert err.value.field == "config"

    @pytest.mark.parametrize("name", ["noise.json", "manifest.json"])
    def test_a_missing_json_file_is_a_parse_error(self, tmp_path, name):
        out = write_fit(_rendered_fit(2, True), tmp_path / "fit")
        (out / name).unlink()
        with pytest.raises(ParseError, match=f"^missing fit file: {re.escape(str(out / name))}$"):
            read_fit(out)

    def test_labels_holding_a_carriage_return_round_trip(self, tmp_path):
        X, _ = generate(n2_spec(19, n=5, J=2, m=11))
        # in `_label_key` order, so read_long_csv keeps the codes
        subjects, measures = (*X.subject_labels[:4], "x\ry"), ("\rn", "m\r")
        X = CurveSet(X.grid, X.codes, X.values, subjects, measures)
        path = tmp_path / "cr.csv"
        write_long_csv(X, path, channel="sim")
        back, _ = read_long_csv(path, channel="sim")
        assert (back.subject_labels, back.measure_labels) == (subjects, measures)
        assert np.array_equal(back.codes, X.codes)
        assert back.values.tobytes() == X.values.tobytes()
        fit = fit_nested(back, FitConfig(levels=2))
        read = read_fit(write_fit(fit, tmp_path / "fit"))
        assert (read.subject_labels, read.measure_labels) == (subjects, measures)
        fits_equal(fit, read)
