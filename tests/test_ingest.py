"""Long CSV ingestion and fit-directory round trips."""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfda
import mfda.ingest
from mfda.core import CurveSet, Grid, NestedIndex
from mfda.errors import (
    DuplicateKeyError,
    EmptyDataError,
    IncompleteCurveError,
    MfdaError,
    ParseError,
)
from mfda.fpca import fit_fpca
from mfda.ingest import (
    GRID_POLICIES,
    LONG_COLUMNS,
    IngestReport,
    _label_key,
    read_fit,
    read_long_csv,
    write_fit,
    write_long_csv,
)
from mfda.mfpca import FitConfig, fit_nested
from mfda.simkl import generate

from .conftest import n2_spec, n3_spec


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

    grid = Grid.from_points(np.asarray(shared))
    subjects = sorted({k[0] for k in groups}, key=_label_key)
    measures = sorted({k[1] for k in groups}, key=_label_key)
    subject_of = {s: i + 1 for i, s in enumerate(subjects)}
    measure_of = {mlab: j + 1 for j, mlab in enumerate(measures)}
    single_replicate = all(
        key[2] == 1 for key in groups
    ) and len({(k[0], k[1]) for k in groups}) == len(groups)
    index = []
    values = np.empty((len(groups), grid.size))
    for row, key in enumerate(sorted(groups, key=lambda k: (
        subject_of[k[0]], measure_of[k[1]], k[2]
    ))):
        values[row] = [groups[key][t] for t in shared]
        index.append(NestedIndex(
            subject_of[key[0]], measure_of[key[1]],
            None if single_replicate else key[2],
        ))
    curves = CurveSet(grid, tuple(index), values, tuple(subjects), tuple(measures))
    counts = {}
    for key in groups:
        counts.setdefault(key[0], {}).setdefault(key[1], 0)
        counts[key[0]][key[1]] += 1
    report = IngestReport(
        n_rows=n_rows,
        n_curves=len(groups),
        subjects=tuple(subjects),
        measures=tuple(measures),
        counts=counts,
        balanced=curves.is_balanced(),
        dropped_points=dropped,
    )
    return curves, report


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
    assert curves.index == ref_curves.index
    assert curves.values.tobytes() == ref_curves.values.tobytes()
    assert curves.grid.points.tobytes() == ref_curves.grid.points.tobytes()
    assert curves.grid.weights.tobytes() == ref_curves.grid.weights.tobytes()
    assert curves.subject_labels == ref_curves.subject_labels
    assert curves.measure_labels == ref_curves.measure_labels
    assert report == ref_report
    assert list(report.counts) == list(ref_report.counts)


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
        assert report.n_curves == 1
        assert report.subjects == ("s1",)
        assert report.measures == ("HIIT1",)

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


SUBJECTS = ("1", "2", "10", "a,b", 'say "hi"', "two\nlines", " s ")
MEASURES = ("1", "2", "pre", "post,1")
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
    # a record spanning lines 7-8 is cited by the line it ends on
    ("duplicate", '"two\nlines",m,01,0.0,2.0,c\n', "c", DuplicateKeyError, 8),
    ("grid_mismatch", "a,m,1,0.0,1.0,c\n", "c", IncompleteCurveError, None),
    ("empty_channel", "a,m,1,0.0,1.0,c\n", "zzz", EmptyDataError, None),
]


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

    @given(
        subjects=st.lists(st.sampled_from(SUBJECTS), min_size=1, max_size=3, unique=True),
        measures=st.lists(st.sampled_from(MEASURES), min_size=1, max_size=2, unique=True),
        replicates=st.integers(1, 3),
        points=st.lists(st.sampled_from(POINTS), min_size=2, max_size=5, unique=True),
        others=st.lists(st.sampled_from(("d", "e,f")), max_size=2, unique=True),
        fault=st.sampled_from(FAULTS),
        grid_policy=st.sampled_from(GRID_POLICIES),
        newline=st.sampled_from(("\n", "\r\n", "\r")),
        chunk_rows=st.sampled_from((1, 3, 10_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(
        self, tmp_path_factory, subjects, measures, replicates, points, others,
        fault, grid_policy, newline, chunk_rows, seed,
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
        rows = [rows[i] for i in rng.permutation(len(rows))]
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
            writer = csv.writer(fh, lineterminator=newline)
            writer.writerow([LONG_COLUMNS[c] for c in columns])
            for row in rows:
                if rng.random() < 0.1:
                    fh.write(newline)
                writer.writerow([row[c] for c in columns if c < len(row)])
        channel = "zzz" if fault == "empty_channel" else "c"
        # small chunks put chunk boundaries inside the file, quoted newlines included
        with mock.patch.object(mfda.ingest, "_CHUNK_ROWS", chunk_rows):
            assert_reads_like_reference(path, channel, grid_policy)


class TestLongCsvRoundTrip:
    def test_two_level_values_and_index(self, tmp_path):
        X, _ = generate(n2_spec(7, n=4, J=2, m=21))
        path = tmp_path / "rt.csv"
        write_long_csv(X, path, channel="sim")
        back, report = read_long_csv(path, channel="sim")
        assert back.index == X.index
        assert np.max(np.abs(back.values - X.values)) < 1e-12
        assert np.max(np.abs(back.grid.points - X.grid.points)) < 1e-12
        assert report.balanced

    def test_three_level_round_trip(self, tmp_path):
        X, _ = generate(n3_spec(8, n=3, J=2, K_rep=3, m=11))
        path = tmp_path / "rt3.csv"
        write_long_csv(X, path, channel="sim")
        back, _ = read_long_csv(path, channel="sim")
        assert back.index == X.index
        assert np.max(np.abs(back.values - X.values)) < 1e-12

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
        index = tuple(
            NestedIndex(i, j, k) for i in (1, 2, 3) for j in (1, 2) for k in (1, 2)
        )
        X = CurveSet(
            Grid.uniform(4), index, rng.normal(size=(12, 4)),
            ("a,b", 'say "hi"', "two\nlines"), ('p"o,st', "pre"),
        )
        channel = 'k,"x"'
        path = tmp_path / "quoted.csv"
        write_long_csv(X, path, channel=channel)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(LONG_COLUMNS)
            for ix, row in X.sorted():
                for t, v in zip(X.grid.points, row):
                    writer.writerow([
                        X.subject_labels[ix.subject - 1],
                        X.measure_labels[ix.measure - 1],
                        ix.replicate, repr(float(t)), repr(float(v)), channel,
                    ])
        assert path.read_bytes() == expected.read_bytes()
        back, _ = read_long_csv(path, channel=channel)
        assert back.index == X.sorted().index
        assert back.values.tobytes() == X.sorted().values.tobytes()

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
    assert a.units == b.units
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

    def test_fpca_fit(self, tmp_path):
        from mfda.core import Grid, NestedIndex

        rng = np.random.default_rng(5)
        grid = Grid.uniform(21)
        index = tuple(NestedIndex(i + 1, 1) for i in range(20))
        X = CurveSet(grid, index, rng.normal(size=(20, 21)))
        fit = fit_fpca(X, pve=0.9)
        out = tmp_path / "fpca"
        write_fit(fit, out)
        back = read_fit(out)
        np.testing.assert_allclose(back.mean.values, fit.mean.values, atol=1e-12)
        np.testing.assert_allclose(
            back.eig.eigenvalues, fit.eig.eigenvalues, atol=1e-12
        )
        np.testing.assert_allclose(back.scores, fit.scores, atol=1e-12)

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
