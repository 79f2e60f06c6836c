"""Command-line workflows: exit codes, outputs, determinism."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mfda
import mfda.cli
import mfda.ingest
import mfda.leveltest
import mfda.simkl
from mfda import errors
from mfda.cli import main
from mfda.core import Curve, Grid
from mfda.fpca import EigenSystem
from mfda.icc import icc_report
from mfda.ingest import read_fit, write_fit
from mfda.leveltest import METHODS, two_sample_score_test
from mfda.mfpca import MultilevelFit
from mfda.simkl import MAX_VALUES, evaluate_expression, fourier_basis

from .conftest import json_paths, n2_spec_dict, n3_spec_dict


def write_spec(tmp_path: Path, data: dict, name: str = "spec.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


# A small three-level spec that uses every section, and the places where the
# fuzz test below puts a mutated value (or deletes the key, for _DELETE).
_FUZZ_BASE = {
    "grid": {"m": 11},
    "design": {"subjects": 3, "measures": 2, "replicates": 2},
    "mean": "sin(2*pi*t)",
    "measure_means": ["0.5*t", "-0.5*t"],
    "levels": [
        {"eigenvalues": [1.0, 0.5], "basis": "fourier"},
        {"eigenvalues": [0.5]},
        {"eigenvalues": [0.25]},
    ],
    "noise_variance": 0.1,
    "score_distribution": {"kind": "student_t", "df": 5},
    "level2_shift": {"2": [1.0]},
    "seed": 1,
}
_FUZZ_PATHS = [
    ("grid",), ("grid", "m"), ("grid", "points"), ("design",),
    ("design", "subjects"), ("design", "measures"), ("design", "replicates"),
    ("mean",), ("measure_means",), ("measure_means", 1), ("levels",),
    ("levels", 0), ("levels", 0, "eigenvalues"), ("levels", 1, "basis"),
    ("levels", 2, "eigenvalues"), ("noise_variance",), ("score_distribution",),
    ("score_distribution", "df"), ("level2_shift",), ("level2_shift", "2"),
    ("seed",),
]
_DELETE = object()
_LEVEL = {"eigenvalues": [1.0], "basis": "fourier"}  # one level of a spec
_ODD_EXPRESSIONS = [
    "9**9**9", "t**1e308", "(" * 300 + "t" + ")" * 300, "-" * 100000 + "1",
    "+".join(["t"] * 20000), "().__class__.__base__.__subclasses__()",
    "__import__('os').getcwd()", "sin(t, t)", "log(t)", "1/0", "1" + "0" * 400,
    "t if t else 0", "lambda: 0", "", "\x00",
]
_expressions = st.recursive(
    st.sampled_from(["t", "pi", "2", "0.5", "1e308", "nope"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda x: f"({x[0]}{x[1]}{x[2]})"
        ),
        st.tuples(st.sampled_from(["sin", "exp", "log", "sqrt", "abs"]), inner).map(
            lambda x: f"{x[0]}({x[1]})"
        ),
        inner.map(lambda e: f"{e}**9**9"),
    ),
    max_leaves=8,
)
_numbers = st.one_of(
    st.integers(-2, 6),
    st.floats(-10, 10),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 2.5]),
)
_fuzz_values = st.one_of(
    st.just(_DELETE),
    st.none(),
    st.booleans(),
    _numbers,
    st.text(max_size=4),
    st.sampled_from(_ODD_EXPRESSIONS),
    _expressions,
    st.lists(_numbers, max_size=12),
    st.lists(st.lists(st.floats(-2, 2), min_size=11, max_size=11), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "m", "2", "df"]), _numbers, max_size=2),
    st.integers(1, 600).map(lambda depth: f"NESTED{depth}"),
)


def _spec_text(spec: dict) -> str:
    """YAML of spec, with each NESTED<depth> placeholder written as a list
    nested depth deep (deeper than yaml.safe_dump itself can write)."""
    return re.sub(
        r"NESTED(\d+)",
        lambda match: "[" * int(match[1]) + "1" + "]" * int(match[1]),
        yaml.safe_dump(spec),
    )


@st.composite
def _mutated_specs(draw):
    spec = copy.deepcopy(_FUZZ_BASE)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(_FUZZ_PATHS))
        value = draw(_fuzz_values)
        try:
            target = spec
            for step in parents:
                target = target[step]
            if value is _DELETE:
                del target[key]
            else:
                target[key] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced the container
    return spec


# A small long CSV that fits cleanly (5 subjects, 2 measures, 9 grid points,
# a second channel), and the byte-level faults the data fuzz test puts in it.
_DATA_ROWS = [
    [str(s).encode(), m, b"1", repr(k / 8).encode(),
     repr(round(math.sin(1.3 * s + k) + (m == b"b") * math.cos(0.7 * s * k), 6)).encode(),
     channel]
    for channel in (b"sim", b"aux") for s in range(1, 6) for m in (b"a", b"b")
    for k in range(9)
]
_ODD_NUMBERS = [b"1e308", b"-1e400", b"nan", b"inf", b"-inf", b"9" * 400, b"0x10",
                b"1_0", b"", b" ", b"1e-400"]
_ODD_BYTES = [b'"', b'""', b"\x00", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\r", b"\n", b","]
_LONG_LABELS = [b"x" * 9, b"x" * 40, "\u00e9\u4e2d".encode() * 20, b"y" * 5000,
                b'"' + b"z" * 70 + b'"', b'"two\nlines"']


@st.composite
def _mutated_data(draw):
    """The long CSV's bytes after one to four faults, with one line ending."""
    rows = [list(row) for row in _DATA_ROWS]
    blank = []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        cell = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else 0
        kind = draw(st.sampled_from(["drop_cell", "double_cell", "drop_row", "double_row",
                                     "byte", "number", "label", "blank"]))
        if kind == "drop_cell" and rows[i]:
            del rows[i][cell]
        elif kind == "double_cell" and rows[i]:
            rows[i].insert(cell, rows[i][cell])
        elif kind == "drop_row" and len(rows) > 1:
            del rows[i]
        elif kind == "double_row":
            rows.insert(i, list(rows[i]))
        elif kind == "byte":
            text = b",".join(rows[i])
            at = draw(st.integers(0, len(text)))
            rows[i] = (text[:at] + draw(st.sampled_from(_ODD_BYTES)) + text[at:]).split(b",")
        elif kind == "number" and len(rows[i]) > 4:
            rows[i][draw(st.sampled_from([3, 4]))] = draw(st.sampled_from(_ODD_NUMBERS))
        elif kind == "label" and len(rows[i]) > 5:
            rows[i][draw(st.sampled_from([0, 1, 5]))] = draw(st.sampled_from(_LONG_LABELS))
        elif kind == "blank":
            blank.append(i)
    lines = [b"subject,measure,replicate,t,value,channel"] + [b",".join(r) for r in rows]
    for i in blank:
        lines.insert(i, b"")
    return draw(st.sampled_from([b"\n", b"\r\n", b"\r"])).join(lines) + b"\n"


# The fit-directory tables the fit fuzz test below edits, the texts it writes
# into a table cell, the first four of which are not a finite number, and the
# values it writes into the JSON files.
_FIT_TABLES = ["mean.csv", "measure_means.csv", "eigenvalues.csv",
               *(f"{stem}_level{level}.csv" for stem in ("eigenfunctions", "scores")
                 for level in (1, 2, 3))]
_CELL_TEXTS = ["zz", "", "x,y", "nan", "01", "1", "2", "-1e308"]
_JSON_VALUES = [None, True, False, 0, -0.0, 3, -5, 2.5, 0.99, 1e308, -1e-300, math.nan,
                math.inf, "x", "3", [], [3], {}, {"levels": 3}]
_DELETED = object()


def _json_edit_refused(name: str, path: tuple, value) -> bool:
    """Whether read_fit must refuse the three-level fit whose JSON file `name`
    has `value` at `path` (none there if _DELETED): any value other than the
    one write_fit writes for a fit, of another JSON type say. A value the
    reader does not use, such as the library version, need not be refused.
    The fit keeps two components on every level and has no smoothing
    penalties."""
    if not path or name == "noise.json":
        return not (path and type(value) is float and math.isfinite(value) and value >= 0)
    if path[0] == "config":
        if value is _DELETED or len(path) == 1:  # the fit's values fill a gap
            return not (value is _DELETED or isinstance(value, dict))
        return {"levels": not (type(value) is int and value == 3),
                "pve": not (type(value) is float and 0 < value <= 1),
                "center_measures": value is not True}[path[1]]
    if path[0] == "diagnostics":  # none at all reads as no penalties
        if len(path) < 4:
            return value is not _DELETED or len(path) > 1
        want = {"level": path[2] + 1, "retained": 2, "lambda": None}[path[3]]
        return not (type(value) is type(want) and value == want)
    if path == ("levels",):
        return not (type(value) is int and value == 3)
    return path == ("format_version",)


def _same_number(a: str, b: str) -> bool:
    try:
        return float(a) == float(b)
    except ValueError:
        return False


@st.composite
def _mutated_fit_file(draw):
    """One edit of one file of a written three-level fit: the file's name, and
    a function that maps the file's text to the edited text (None to delete
    the file) and to whether the edit breaks the directory's layout or an
    invariant of the fit.

    A deleted file breaks the fit; a JSON value breaks it as
    `_json_edit_refused` says. Every table's rows differ in their keys or
    their t, so deleting, adding or moving a row breaks the layout, as does
    any header edit, any added or dropped column, and any key or t cell that
    reads as another label or number; a value cell breaks the fit when it is
    not a finite number."""
    name = draw(st.sampled_from(_FIT_TABLES) | st.sampled_from(["noise.json", "manifest.json"]))
    i, j, cell = (draw(st.integers(0, 1000)) for _ in range(3))
    if draw(st.integers(0, 9)) == 5:  # the file is deleted
        return name, lambda text: (None, True)
    if name.endswith(".json"):
        value = draw(st.sampled_from([*_JSON_VALUES, _DELETED]))

        def edit_json(text):
            doc = json.loads(text)
            paths = list(json_paths(doc))
            path = paths[i % len(paths)]
            if not path:
                return "" if value is _DELETED else json.dumps(value), True
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            return json.dumps(doc, indent=2), _json_edit_refused(name, path, value)

        return name, edit_json
    n_keys = {"eigenvalues.csv": 2, **{f"scores_level{l}.csv": l for l in (1, 2, 3)}}.get(name, 0)
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "cell", "header", "add_column",
                                 "drop_column"]))
    new = draw(st.sampled_from(_CELL_TEXTS))

    def edit(text):
        header, *rows = text.splitlines()
        a, b = i % len(rows), j % len(rows)
        breaks = True
        if kind == "delete":
            del rows[a]
        elif kind == "duplicate":
            rows.insert(a, rows[a])
        elif kind == "swap":
            rows[a], rows[b] = rows[b], rows[a]
            breaks = a != b
        elif kind == "add_column":
            header, rows = header + ",9", [row + ",0.5" for row in rows]
        elif kind == "drop_column":
            header, *rows = (line.rsplit(",", 1)[0] for line in [header, *rows])
        else:  # a header cell, or a key or value cell of a row, gets another text
            cells = (header if kind == "header" else rows[a]).split(",")
            at = cell % len(cells)
            old, cells[at] = cells[at], new if cells[at] != new else new + "0"
            if kind == "header":
                header = ",".join(cells)
            else:
                rows[a] = ",".join(cells)
                t_cell = header.split(",")[at] == "t"
                breaks = at < n_keys or not _same_number(old, cells[at]) and (
                    t_cell or new in _CELL_TEXTS[:4])
        return "\n".join([header, *rows]) + "\n", breaks

    return name, edit


# Texts the flag fuzz test below passes as flag values; every one that int()
# reads is at most 99, so no --perms it accepts draws more than 999 permutations.
_FLAG_TEXTS = ["", "x", "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "0.5", "1e-300", "99",
               " 99", "+99", "0x63", "99.0", "1e2", "\u0669\u0669", "1_0"]


def _parses(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        return None


_FLAG_VALUES = {
    "--pve": st.sampled_from(_FLAG_TEXTS) | st.floats().map(repr),
    "--levels": st.sampled_from(["2", "3", "1", "4", "2.0", "x", ""]),
    "--perms": st.sampled_from(_FLAG_TEXTS) | st.integers(-2, 999).map(str),
    "--seed": st.sampled_from(_FLAG_TEXTS) | st.integers(-3, 2**70).map(str),
    "--method": st.sampled_from(["ks", "cvm", "energy", "KS", "anova", ""]),
    "--group-a": st.lists(st.sampled_from(["HIIT1", "HIIT2", "HIIT3", "", "-x"]), max_size=3),
}
_FLAG_VALUES["--group-b"] = _FLAG_VALUES["--group-a"]


@st.composite
def _fuzzed_flags(draw):
    """The flags of one `fit` of the small long CSV of `_DATA_ROWS` (two
    levels) or one `test` of a two-level `handmade_fit_dir`, one to three of
    them with a fuzzed value, and whether the values must exit 2."""
    command = draw(st.sampled_from(["fit", "test"]))
    flags = ({"--pve": "0.99", "--levels": "2"} if command == "fit" else
             {"--perms": "99", "--seed": "0", "--method": "energy",
              "--group-a": ["HIIT1"], "--group-b": ["HIIT2"]})
    for name in draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3)):
        flags[name] = draw(_FLAG_VALUES[name])
    if command == "fit":
        pve = _parses(float, flags["--pve"])
        refused = flags["--levels"] not in ("2", "3") or pve is None or not 0 < pve <= 1
    else:
        a, b = flags["--group-a"], flags["--group-b"]
        perms, seed = (_parses(int, flags[name]) for name in ("--perms", "--seed"))
        refused = (perms is None or perms < 99 or seed is None or seed < 0
                   or flags["--method"] not in mfda.leveltest.METHODS
                   or not (a and b) or bool(set(a) & set(b))
                   or not {"HIIT1", "HIIT2"} >= {*a, *b})
    argv = [command]
    for name, value in flags.items():
        argv += [name, *value] if isinstance(value, list) else [name, value]
    return argv, refused


@pytest.fixture
def sim_dir(tmp_path):
    spec_path = write_spec(tmp_path, n2_spec_dict(21, n=12, J=4, m=21))
    out = tmp_path / "data"
    assert main(["simulate", str(spec_path), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_dataset_files(self, sim_dir):
        assert (sim_dir / "data.csv").exists()
        assert (sim_dir / "truth.json").exists()
        assert (sim_dir / "manifest.json").exists()
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["format_version"] == "mfda-v1"

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["simulate", str(missing), "--out", str(tmp_path / "o")]) == 2
        assert "nope.yaml" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = write_spec(tmp_path, {"grid": {"m": 21}}, "bad.yaml")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_byte_identical_reruns(self, tmp_path):
        spec_path = write_spec(tmp_path, n2_spec_dict(5, n=4, J=2, m=11))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", str(spec_path), "--out", str(out1)]) == 0
        assert main(["simulate", str(spec_path), "--out", str(out2)]) == 0
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec_path = write_spec(tmp_path, n2_spec_dict(5, n=4, J=2, m=11))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", str(spec_path), "--out", str(out1), "--seed", "99"])
        main(["simulate", str(spec_path), "--out", str(out2)])
        assert (out1 / "data.csv").read_bytes() != (out2 / "data.csv").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 99

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_flag_exits_2(self, tmp_path, capsys, seed):
        spec_path = write_spec(tmp_path, n2_spec_dict(5, n=4, J=2, m=11))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(spec_path), "--out", str(tmp_path / "o"),
                  "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["", "- 1\n- 2\n", "just a string\n"])
    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
    def test_non_mapping_spec_exits_2(self, tmp_path, capsys, text, seed):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(text)
        argv = ["simulate", str(spec_path), "--out", str(tmp_path / "o"), *seed]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: generator spec must be a mapping\n"

    def test_undecodable_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_bytes(b"\xff\xfe grid")
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse spec file {spec_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "section, value",
        [("grid", 5), ("grid", [1, 2]), ("design", 3), ("design", "big"),
         ("levels", {"eigenvalues": [1.0]}), ("levels", [5]), ("levels", "fourier"),
         ("design", {"subjects": "abc", "measures": 2}),
         ("levels", [{"eigenvalues": 5}, {"eigenvalues": [1.0]}]),
         ("seed", "xyz"), ("noise_variance", [1])],
    )
    def test_section_of_the_wrong_type_exits_2(self, tmp_path, capsys, section, value):
        spec = {**n2_spec_dict(5, n=4, J=2, m=11), section: value}
        spec_path = write_spec(tmp_path, spec)
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: generator spec section ") and section in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "section, value, key",
        [("design", {"subjects": "abc", "measures": 2}, "'subjects'"),
         ("levels", [{"eigenvalues": 5}, {"eigenvalues": [1.0]}], "'eigenvalues'"),
         ("grid", {"m": 2.5}, "'m'"), ("grid", {"points": [0, "x"]}, "'points'"),
         ("design", {"subjects": 3, "measures": True}, "'measures'"),
         ("score_distribution", {"kind": "student_t", "df": "six"}, "'df'"),
         ("level2_shift", {"2": [1.0, float("nan")]}, "'2'")],
    )
    def test_value_of_the_wrong_type_names_its_key(
        self, tmp_path, capsys, section, value, key
    ):
        spec = {**n2_spec_dict(5, n=4, J=2, m=11), section: value}
        spec_path = write_spec(tmp_path, spec)
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: generator spec section '{section}'")
        assert key in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "path, key, where",
        [((), "noise_varaince", "generator spec has"),
         (("design",), "replicate", "generator spec section 'design' has"),
         (("grid",), "point", "generator spec section 'grid' has"),
         (("levels", 1), "eigenvalue", "generator spec section 'levels' entry 2 has"),
         (("score_distribution",), "dof",
          "generator spec section 'score_distribution' has")],
    )
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, path, key, where):
        spec = copy.deepcopy(_FUZZ_BASE)
        target = spec
        for step in path:
            target = target[step]
        target[key] = 20
        spec_path = write_spec(tmp_path, spec)
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where} unknown key {key!r}")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "expr", ["9**9**9", "().__class__.__base__.__subclasses__().__len__()"]
    )
    def test_unsafe_expression_exits_2(self, tmp_path, capsys, expr):
        spec = {**n2_spec_dict(5, n=4, J=2, m=11), "mean": expr}
        spec_path = write_spec(tmp_path, spec)
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert expr in err and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_wrongly_typed_sections_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text("grid: 5\ndesign: {}\nlevels: []\n")
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: generator spec section 'grid' must be a mapping, got int\n"
        )

    @pytest.mark.parametrize("change, message", [
        ({"levels": []}, "between one and three levels supported"),
        ({"levels": [_LEVEL] * 4}, "between one and three levels supported"),
        ({"design": {"subjects": 4, "measures": 1}}, "two-level specs need measures >= 2"),
        ({"levels": [_LEVEL] * 3}, "three-level specs need replicates >= 2"),
        ({"design": {"subjects": 4, "measures": 2, "replicates": 2}},
         "replicates > 1 requires three levels"),
        ({"noise_variance": -1.0}, "noise variance must be >= 0"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"score_distribution": {"kind": "student_t", "df": 2}}, "score t distribution needs df > 2"),
        ({"levels": [{"eigenvalues": [1.0, -0.5]}, _LEVEL]}, "level 1 needs eigenvalues, all >= 0"),
        ({"levels": [{"eigenvalues": []}, _LEVEL]}, "level 1 needs eigenvalues, all >= 0"),
        ({"levels": [{"eigenvalues": [1.0], "basis": [[0.0] * 5]}, _LEVEL]},
         "level 1 basis must be 1 rows of 11 values"),
        ({"levels": [{"eigenvalues": [1.0], "basis": "bspline"}, _LEVEL]},
         "unknown basis family 'bspline'"),
        ({"levels": [_LEVEL], "level2_shift": {"1": [1.0]}},
         "level2_shift needs a two- or three-level spec"),
        ({"level2_shift": {"3": [1.0, 0.0]}}, "level2_shift measure '3' outside 1..2"),
        ({"level2_shift": {"1": [1.0]}}, "level2_shift rows must have 2 entries"),
        ({"measure_means": ["t"]}, "measure means must be one curve per measure on the grid"),
        ({"mean": [0.0] * 10}, "'mean' must have one value per grid point"),
        ({"grid": {"m": 21.0}},
         "generator spec section 'grid' key 'm' must be an integer, got 21.0"),
    ], ids=["no_levels", "four_levels", "one_measure", "three_levels_one_replicate",
            "replicates_on_two_levels", "negative_noise", "negative_seed", "t_df_2",
            "negative_eigenvalue", "no_level1_eigenvalues", "basis_shape", "bspline_basis",
            "shift_on_one_level", "shift_measure_out_of_range", "shift_row_length",
            "measure_means_count", "mean_length", "float_grid_size"])
    def test_spec_rule_exits_2_with_its_message(self, tmp_path, capsys, change, message):
        spec_path = write_spec(tmp_path, {**n2_spec_dict(5, n=4, J=2, m=11), **change})
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_listed_curves_simulate_as_their_expressions(self, tmp_path):
        t = Grid.uniform(11).points
        expressions = {**n2_spec_dict(5, n=4, J=2, m=11), "measure_means": ["t", "-0.5*t"]}
        listed = {**expressions, "mean": evaluate_expression(expressions["mean"], t).tolist(),
                  "measure_means": [t.tolist(), (-0.5 * t).tolist()]}
        for name, spec in (("expressions", expressions), ("listed", listed)):
            spec_path = write_spec(tmp_path, spec, f"{name}.yaml")
            assert main(["simulate", str(spec_path), "--out", str(tmp_path / name)]) == 0
        for name in ("data.csv", "truth.json"):
            assert (tmp_path / "listed" / name).read_bytes() == (
                tmp_path / "expressions" / name).read_bytes()

    @pytest.mark.parametrize(
        "grid,design,needle",
        [({"m": 11}, {"subjects": 10**30, "measures": 2},
          f"design of {10**30} subjects x 2 measures x 1 replicates x 11 grid points"),
         ({"m": 10**30}, {"subjects": 4, "measures": 2}, f"grid of {10**30} points"),
         ({"m": 11}, {"subjects": 100000, "measures": 100000},
          "design of 100000 subjects x 100000 measures x 1 replicates x 11 grid points")],
        ids=["subjects", "grid", "subjects_x_measures"],
    )
    def test_oversized_design_exits_2(self, tmp_path, capsys, grid, design, needle):
        spec = {**n2_spec_dict(5), "grid": grid, "design": design}
        spec_path = write_spec(tmp_path, spec)
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {needle}") and err.count("\n") == 1
        assert f"more than the {MAX_VALUES}" in err
        assert not (tmp_path / "o").exists()

    @given(spec=_mutated_specs())
    @settings(max_examples=150, deadline=2000, derandomize=True, database=None)
    def test_fuzzed_spec_exits_cleanly(self, tmp_path_factory, spec):
        work = tmp_path_factory.mktemp("fuzz")
        spec_path = work / "spec.yaml"
        spec_path.write_text(_spec_text(spec))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["simulate", str(spec_path), "--out", str(work / "out")])
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
        assert not caught, [str(w.message) for w in caught]


class TestFit:
    def test_fit_summary_and_files(self, sim_dir, tmp_path, capsys):
        fit_dir = tmp_path / "fit"
        code = main(
            [
                "fit",
                str(sim_dir / "data.csv"),
                "--channel",
                "sim",
                "--levels",
                "2",
                "--out",
                str(fit_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(
            line.split(": ") for line in out.strip().splitlines()
        )
        assert lines["levels"] == "2"
        assert "retained_level1" in lines and "retained_level2" in lines
        shares = [
            float(v) for k, v in lines.items() if k.startswith("variance_share_")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        assert (fit_dir / "manifest.json").exists()
        # the printed shares must be reproducible from the output files
        eig_rows = (fit_dir / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        sums = {1: 0.0, 2: 0.0}
        for row in eig_rows:
            level, _, lam = row.split(",")
            sums[int(level)] += float(lam)
        noise = json.loads((fit_dir / "noise.json").read_text())["noise_variance"]
        total = sums[1] + sums[2] + noise
        assert float(lines["variance_share_level1"]) == pytest.approx(
            sums[1] / total, abs=1e-12
        )
        assert float(lines["variance_share_noise"]) == pytest.approx(
            noise / total, abs=1e-12
        )

    def test_data_past_the_value_cap_exits_2(self, sim_dir, tmp_path, capsys, monkeypatch):
        # 1008 rows of the channel, read in chunks of 16 against a cap of 50: the
        # fourth chunk passes the cap, and the reader stops before a fifth; the
        # error cites the channel's 51st row
        data = sim_dir / "data.csv"
        chunks = []
        load = mfda.ingest._load_columns
        monkeypatch.setattr(mfda.simkl, "MAX_VALUES", 50)
        monkeypatch.setattr(mfda.ingest, "_CHUNK_ROWS", 16)
        monkeypatch.setattr(mfda.ingest, "_load_columns",
                            lambda *a, **k: chunks.append(k) or load(*a, **k))
        fit_dir = tmp_path / "fit"
        assert main(["fit", str(data), "--channel", "sim", "--out", str(fit_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data}:52: channel 'sim' has more than the 50 values a data set may hold\n")
        assert len(chunks) == 4
        assert not fit_dir.exists()

    def test_intersect_fits_the_points_every_curve_has(self, sim_dir, tmp_path, capsys):
        header, *rows = (sim_dir / "data.csv").read_text().splitlines()
        lacking = rows[5].split(",")[3]  # the first curve's sixth point
        (tmp_path / "one.csv").write_text("\n".join([header, *rows[:5], *rows[6:]]) + "\n")
        (tmp_path / "all.csv").write_text("\n".join(
            [header, *(r for r in rows if r.split(",")[3] != lacking)]) + "\n")
        for name, policy in (("one", "intersect"), ("all", "strict")):
            assert main(["fit", str(tmp_path / f"{name}.csv"), "--channel", "sim",
                         "--grid-policy", policy, "--out", str(tmp_path / f"f_{name}")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "grid_points: 20" in out and out.count("dropped_grid_points: 1") == 1
        one, every = ({k: v for k, v in dir_bytes(tmp_path / f"f_{name}").items()
                       if k != "manifest.json"} for name in ("one", "all"))
        assert one == every  # the manifests differ in their data path and policy

    @pytest.mark.parametrize("flags", [[], ["--no-measure-means"]])
    def test_one_subject_exits_3(self, tmp_path, capsys, flags):
        spec_path = write_spec(tmp_path, n2_spec_dict(3, n=1, J=2, m=11))
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "d")]) == 0
        fit_dir = tmp_path / "fit"
        assert main(["fit", str(tmp_path / "d" / "data.csv"), "--channel", "sim",
                     "--out", str(fit_dir), *flags]) == 3
        assert capsys.readouterr().err == "error: a nested fit needs at least two subjects\n"
        assert not fit_dir.exists()

    @pytest.mark.parametrize("flags", [[], ["--no-measure-means"]])
    def test_fit_that_keeps_no_component(self, tmp_path, capsys, flags):
        # iid N(0, 1) values, n=19, J=2, m=14, whose levels each hold at most
        # DEGENERATE_LEVEL_FRACTION of the variance: every score table has key
        # columns alone, the fit reads back, its ICC is 0 and there is nothing to test
        seed = 142 if flags else 43
        values = np.random.default_rng(seed).normal(size=(38, 14))
        data = tmp_path / "noise.csv"
        data.write_text("subject,measure,replicate,t,value,channel\n" + "".join(
            f"{i // 2 + 1},{i % 2 + 1},1,{t / 13!r},{v!r},sim\n"
            for i, row in enumerate(values) for t, v in enumerate(row.tolist())))
        fit_dir = tmp_path / "fit"
        assert main(["fit", str(data), "--channel", "sim", "--out", str(fit_dir), *flags]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "retained_level1: 0" in out and "retained_level2: 0" in out
        lines = (fit_dir / "scores_level2.csv").read_text().splitlines()
        assert lines[0] == "subject,measure" and len(lines) == 39
        fit = read_fit(fit_dir)
        assert fit.retained == (0, 0) and [s.shape for s in fit.scores] == [(19, 0), (38, 0)]
        write_fit(fit, tmp_path / "again", extra_manifest=json.loads(
            (fit_dir / "manifest.json").read_text()))
        assert dir_bytes(tmp_path / "again") == dir_bytes(fit_dir)
        assert main(["icc", str(fit_dir)]) == 0
        assert capsys.readouterr().out == "0.00\n"
        assert json.loads((fit_dir / "icc.json").read_text())["global_icc"] == 0.0
        assert main(["test", str(fit_dir), "--group-a", "1", "--group-b", "2"]) == 3
        assert capsys.readouterr().err == "error: no retained score components to test\n"

    def test_constant_data_exits_4_before_writing(self, tmp_path, capsys):
        # 5 subjects, 2 measures, 9 grid points, every value 1.5: no variance at all
        data = tmp_path / "constant.csv"
        data.write_text("subject,measure,replicate,t,value,channel\n" + "".join(
            f"{s},{j},1,{t / 8!r},1.5,sim\n" for s in range(1, 6) for j in (1, 2)
            for t in range(9)))
        fit_dir = tmp_path / "fit"
        assert main(["fit", str(data), "--channel", "sim", "--out", str(fit_dir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not fit_dir.exists()

    def test_three_levels_on_two_level_data_exits_3(self, sim_dir, tmp_path, capsys):
        code = main(
            [
                "fit",
                str(sim_dir / "data.csv"),
                "--channel",
                "sim",
                "--levels",
                "3",
                "--out",
                str(tmp_path / "f3"),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_unbalanced_exits_3_with_counts(self, sim_dir, tmp_path, capsys):
        data = (sim_dir / "data.csv").read_text().splitlines()
        # drop one curve (21 grid rows) of the last subject
        trimmed = "\n".join(data[:-21]) + "\n"
        broken = tmp_path / "broken.csv"
        broken.write_text(trimmed)
        code = main(
            [
                "fit",
                str(broken),
                "--channel",
                "sim",
                "--out",
                str(tmp_path / "fb"),
            ]
        )
        assert code == 3
        assert "subject" in capsys.readouterr().err

    def test_missing_data_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "fit",
                str(tmp_path / "nothing.csv"),
                "--channel",
                "sim",
                "--out",
                str(tmp_path / "f"),
            ]
        )
        assert code == 2

    def test_directory_as_data_exits_2(self, tmp_path, capsys):
        code = main(
            ["fit", str(tmp_path), "--channel", "sim", "--out", str(tmp_path / "f")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_smooth_flag(self, sim_dir, tmp_path, capsys):
        # every fit is the spline-smoothed fit, so --smooth is gone
        argv = ["fit", str(sim_dir / "data.csv"), "--channel", "sim",
                "--smooth", "0.08", "--out", str(tmp_path / "fs")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --smooth" in capsys.readouterr().err
        assert not (tmp_path / "fs").exists()

    def test_non_utf8_data_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"subject,measure,replicate,t,value,channel\n"
                         b"1,1,1,0.0,1.5,sim\n1,1,1,1.0,\xff,sim\n")
        argv = ["fit", str(data), "--channel", "sim", "--out", str(tmp_path / "f")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:3: not UTF-8 text")
        assert err.count("\n") == 1
        assert not (tmp_path / "f").exists()

    def test_non_utf8_byte_past_the_first_chunk_exits_2(self, sim_dir, tmp_path, capsys):
        text = (sim_dir / "data.csv").read_bytes()
        lines = text.splitlines(keepends=True)
        lines[500] = lines[500].replace(b",sim", b",s\xe9m")
        data = tmp_path / "data.csv"
        data.write_bytes(b"".join(lines))
        argv = ["fit", str(data), "--channel", "sim", "--out", str(tmp_path / "f")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}:501: not UTF-8 text")

    def test_values_too_large_for_the_moments_exit_4(self, tmp_path):
        rows = [list(row) for row in _DATA_ROWS]
        rows[7][4] = b"1e200"
        data = tmp_path / "data.csv"
        data.write_bytes(b"subject,measure,replicate,t,value,channel\n"
                         + b"".join(b",".join(row) + b"\n" for row in rows))
        argv = ["fit", str(data), "--channel", "sim", "--out", str(tmp_path / "f")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            assert main(argv) == 4
        assert err.getvalue() == "error: overflow encountered in matmul\n"
        assert not caught and not (tmp_path / "f").exists()

    @given(data=_mutated_data())
    @settings(max_examples=150, deadline=2000, derandomize=True, database=None)
    def test_fuzzed_data_exits_cleanly(self, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("fuzz")
        (work / "data.csv").write_bytes(data)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["fit", str(work / "data.csv"), "--channel", "sim",
                         "--levels", "2", "--out", str(work / "fit")])
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
        assert not caught, [str(w.message) for w in caught]


def edit_line(text: str, line: int, edit) -> str:
    """text with its 1-based physical line replaced by edit(line)."""
    lines = text.split("\n")
    lines[line - 1] = edit(lines[line - 1])
    return "\n".join(lines)


def handmade_fit_dir(tmp_path: Path, levels: int = 2) -> Path:
    """A written fit of 6 subjects, measures HIIT1 and HIIT2, and, for three
    levels, 2 replicates; every level keeps two components."""
    grid = Grid.uniform(21)
    basis = fourier_basis(grid, 2)

    def eig(lams):
        return EigenSystem(grid, np.asarray(lams, dtype=float), basis)

    n, J, K_rep = 6, 2, 2
    fit = MultilevelFit(
        grid=grid,
        global_mean=Curve(grid, np.zeros(grid.size)),
        measure_effects=(
            Curve(grid, np.zeros(grid.size)),
            Curve(grid, np.zeros(grid.size)),
        ),
        level_eig=(eig([4.0, 2.0]), eig([2.0, 1.0]), eig([1.0, 0.5]))[:levels],
        scores=tuple(
            np.linspace(-1, 1, units * 2).reshape(units, 2)
            for units in (n, n * J, n * J * K_rep)[:levels]
        ),
        noise_variance=1.0,
        subject_labels=tuple(str(i) for i in range(1, n + 1)),
        measure_labels=("HIIT1", "HIIT2"),
    )
    out = tmp_path / "handmade_fit"
    write_fit(fit, out)
    return out


def hand_rendered_reports(fit_dir: Path, group_a: list, group_b: list, method: str,
                          perms: int, seed: int) -> dict[str, bytes]:
    """icc.json, pointwise_icc.csv and test_report.json of `mfda icc` and
    `mfda test` on a fit directory, with every field written out by hand and
    the CSV through its own csv.writer: the rendering the CLI used before it
    wrote the reports from their result records."""
    fit = read_fit(fit_dir)
    icc = icc_report(fit)
    measure = np.tile(fit.measure_labels, len(fit.subject_labels))
    scores = fit.scores[1]
    report = two_sample_score_test(
        scores[np.isin(measure, group_a)], scores[np.isin(measure, group_b)],
        method=method, n_permutations=perms, seed=seed,
    )
    documents = {
        "icc.json": {
            "global_icc": icc.global_icc,
            "level_variances": list(icc.level_variances),
            "noise_variance": icc.noise_variance,
        },
        "test_report.json": {
            "method": report.method,
            "n_permutations": report.n_permutations,
            "pvalue_method": "permutation",
            "seed": report.seed,
            "group_a": group_a,
            "group_b": group_b,
            "global_p": report.global_p,
            "per_score": [
                {
                    "component": r.component,
                    "statistic": r.statistic,
                    "p_raw": r.p_raw,
                    "p_adjusted": r.p_adjusted,
                    "degenerate": r.degenerate,
                }
                for r in report.per_score
            ],
        },
    }
    files = {name: (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
             for name, doc in documents.items()}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "icc"])
    for t, v in zip(fit.grid.points, icc.pointwise.values):
        writer.writerow([repr(float(t)), repr(float(v))])
    files["pointwise_icc.csv"] = buf.getvalue().encode()
    return files


class TestReportFiles:
    """The report files `mfda icc` and `mfda test` render from their result
    records hold the bytes of the hand-written rendering above."""

    @staticmethod
    def assert_reports_match(fit_dir: Path, group_a: list, group_b: list, method: str):
        want = hand_rendered_reports(fit_dir, group_a, group_b, method, 99, 5)
        assert main(["icc", str(fit_dir)]) == 0
        assert main(["test", str(fit_dir), "--group-a", *group_a, "--group-b", *group_b,
                     "--method", method, "--perms", "99", "--seed", "5"]) == 0
        assert {name: (fit_dir / name).read_bytes() for name in want} == want

    @pytest.mark.parametrize("method", METHODS)
    def test_two_level_fit_with_a_constant_score(self, tmp_path, method):
        fit_dir = handmade_fit_dir(tmp_path)
        fit = read_fit(fit_dir)
        scores = fit.scores[1].copy()
        scores[:, 1] = 0.25
        write_fit(dataclasses.replace(fit, scores=(fit.scores[0], scores)), fit_dir)
        want = hand_rendered_reports(fit_dir, ["HIIT1"], ["HIIT2"], method, 99, 5)
        assert [r["degenerate"] for r in json.loads(want["test_report.json"])["per_score"]] == [
            False, True]
        self.assert_reports_match(fit_dir, ["HIIT1"], ["HIIT2"], method)

    @pytest.mark.parametrize("method", METHODS)
    def test_three_level_fit(self, tmp_path, method):
        spec_path = write_spec(tmp_path, n3_spec_dict(23, n=6, J=3, K_rep=2, m=21))
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "d")]) == 0
        fit_dir = tmp_path / "f"
        assert main(["fit", str(tmp_path / "d" / "data.csv"), "--channel", "sim",
                     "--levels", "3", "--out", str(fit_dir)]) == 0
        self.assert_reports_match(fit_dir, ["1", "3"], ["2"], method)


class TestIcc:
    def test_plugin_value_printed(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        assert main(["icc", str(fit_dir)]) == 0
        assert capsys.readouterr().out.strip() == "0.60"
        icc = json.loads((fit_dir / "icc.json").read_text())
        assert icc["global_icc"] == pytest.approx(0.6)

    def test_pointwise_in_unit_interval(self, tmp_path):
        fit_dir = handmade_fit_dir(tmp_path)
        main(["icc", str(fit_dir)])
        rows = (fit_dir / "pointwise_icc.csv").read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("name", ["noise.json", "manifest.json"])
    def test_json_that_is_not_utf8_exits_2(self, tmp_path, capsys, name):
        fit_dir = handmade_fit_dir(tmp_path)
        path = fit_dir / name
        path.write_bytes(path.read_bytes().replace(b"{", b"{\xff", 1))
        assert main(["icc", str(fit_dir)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("name, old, new, text", [
        ("scores_level1.csv", "\n1,", "\n\0,",
         "subject \\x00, where row 1 of scores_level2.csv has 1"),
        ("scores_level2.csv", ",HIIT1,", ",\0,",
         "measure \\x00, where row 1 of scores_level3.csv has HIIT1"),
    ])
    def test_a_label_differing_from_its_table_names_that_table(self, tmp_path, capsys, name,
                                                               old, new, text):
        # the fit's subjects and measures are read from the first two score tables,
        # and a cell that is not printable is shown escaped
        fit_dir = handmade_fit_dir(tmp_path, levels=3)
        path = fit_dir / name
        path.write_text(path.read_text().replace(old, new))
        assert main(["icc", str(fit_dir)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {text}\n"

    def test_missing_eigenvalues_exits_2(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        (fit_dir / "eigenvalues.csv").unlink()
        assert main(["icc", str(fit_dir)]) == 2

    @pytest.mark.parametrize(
        "name, edit, needle",
        [
            ("mean.csv", lambda text: text.replace("0.0", "abc", 1), "mean.csv"),
            ("noise.json", lambda text: text[: len(text) // 2], "noise.json"),
            ("noise.json", lambda text: "[]", "noise.json"),
            ("eigenvalues.csv", lambda text: text.replace("4.0", "x", 1),
             "eigenvalues.csv"),
            ("eigenfunctions_level1.csv", lambda text: text.replace(",", "\n", 1),
             "eigenfunctions_level1.csv"),
            ("scores_level2.csv", lambda text: text.replace("\n1,", "\n99,", 1),
             "scores_level2.csv"),
            ("measure_means.csv", lambda text: text.replace("0.0", "1_0", 1),
             "measure_means.csv"),
            ("manifest.json", lambda text: text[:-3], "manifest.json"),
            ("manifest.json",
             lambda text: text.replace('"pve": 0.99', '"pve": "most"'),
             "manifest.json"),
            # the JSON is read as written: a value other than the one write_fit
            # writes for the fit read, of another JSON type say, is refused
            ("manifest.json",
             lambda text: text.replace('"center_measures": true', '"center_measures": "no"'),
             'manifest.json: config {"center_measures": "no", "levels": 2, "pve": 0.99}, where '
             'the fit has {"center_measures": true, "levels": 2, "pve": 0.99}\n'),
            ("manifest.json",
             lambda text: text.replace('"center_measures": true', '"center_measures": 1'),
             'manifest.json: config {"center_measures": 1, "levels": 2, "pve": 0.99}, where '
             'the fit has {"center_measures": true, "levels": 2, "pve": 0.99}\n'),
            ("manifest.json",
             lambda text: text.replace('"levels": 2,\n    "pve"', '"levels": 2.5,\n    "pve"'),
             'manifest.json: config {"center_measures": true, "levels": 2.5, "pve": 0.99}, where '
             'the fit has {"center_measures": true, "levels": 2, "pve": 0.99}\n'),
            ("manifest.json",
             lambda text: text.replace('"levels": 2,\n    "pve"', '"levels": true,\n    "pve"'),
             'manifest.json: config {"center_measures": true, "levels": true, "pve": 0.99}, where '
             'the fit has {"center_measures": true, "levels": 2, "pve": 0.99}\n'),
            ("manifest.json", lambda text: text.replace('"pve": 0.99', '"pve": false'),
             "manifest.json: pve threshold must be in (0, 1], got 0.0\n"),
            ("manifest.json",
             lambda text: text.replace('"levels": 2,\n    "pve"', '"levels": 3,\n    "pve"'),
             'manifest.json: config {"center_measures": true, "levels": 3, "pve": 0.99}, where '
             'the fit has {"center_measures": true, "levels": 2, "pve": 0.99}\n'),
            ("manifest.json",
             lambda text: text.replace('"center_measures": true', '"center_measures": false'),
             'manifest.json: config {"center_measures": false, "levels": 2, "pve": 0.99}, where '
             'the fit has {"center_measures": true, "levels": 2, "pve": 0.99}\n'),
            ("measure_means.csv",
             lambda text: "\n".join(row.split(",", 1)[0] for row in text.split("\n")),
             'manifest.json: config {"center_measures": true, "levels": 2, "pve": 0.99}, where '
             'the fit has {"center_measures": false, "levels": 2, "pve": 0.99}\n'),
            ("manifest.json",
             lambda text: text.replace('"levels": 2,\n  "lib', '"levels": "2",\n  "lib'),
             "manifest.json: levels must be 2 or 3, got '2'\n"),
            ("noise.json", lambda text: text.replace("1.0", '"1.0"'),
             'noise.json: noise_variance "1.0", where the fit has 1.0\n'),
            ("noise.json", lambda text: text.replace("1.0", "true"),
             "noise.json: noise_variance true, where the fit has 1.0\n"),
            ("noise.json", lambda text: text.replace("1.0", "1"),
             "noise.json: noise_variance 1, where the fit has 1.0\n"),
            ("noise.json", lambda text: text.replace("1.0", '{"x": 1}'),
             "noise.json: no numeric 'noise_variance'\n"),
            # the diagnostics are read as written: one entry per level, in order,
            # each with its level, its retained count and its lambda, null here
            ("manifest.json", lambda text: text.replace('"lambda": null', '"lambda": true', 1),
             'manifest.json: diagnostics {"levels": [{"lambda": true, "level": 1, "retained": 2}, '
             '{"lambda": null, "level": 2, "retained": 2}]}, where the fit has {"levels": '
             '[{"lambda": null, "level": 1, "retained": 2}, {"lambda": null, "level": 2, '
             '"retained": 2}]}\n'),
            ("manifest.json", lambda text: text.replace('"lambda": null', '"lambda": "2"', 1),
             'manifest.json: diagnostics {"levels": [{"lambda": "2", "level": 1, '),
            ("manifest.json", lambda text: text.replace('"lambda": null', '"lambda": 0.5', 1),
             'manifest.json: diagnostics {"levels": [{"lambda": 0.5, "level": 1, '),
            ("manifest.json", lambda text: text.replace('"retained": 2', '"retained": 3', 1),
             'manifest.json: diagnostics {"levels": [{"lambda": null, "level": 1, "retained": 3}'),
            ("manifest.json", lambda text: text.replace('"level": 2', '"level": 1', 1),
             'manifest.json: diagnostics {"levels": [{"lambda": null, "level": 1, "retained": 2}, '
             '{"lambda": null, "level": 1, '),
            ("manifest.json", lambda text: text.replace('"level": 1', '"level": 1.0', 1),
             'manifest.json: diagnostics {"levels": [{"lambda": null, "level": 1.0, '),
            ("manifest.json", lambda text: text.replace('"lambda": null,', "", 1),
             'manifest.json: diagnostics {"levels": [{"level": 1, "retained": 2}, '),
            ("manifest.json",
             lambda text: text.replace('"retained": 2', '"retained": 2, "x": 0', 1),
             'manifest.json: diagnostics {"levels": [{"lambda": null, "level": 1, "retained": 2, '
             '"x": 0}, '),
            ("manifest.json",
             lambda text: json.dumps({**json.loads(text), "diagnostics": {"levels": []}}),
             'manifest.json: diagnostics {"levels": []}, where the fit has {"levels": '),
            ("manifest.json", lambda text: text.replace('"pve": 0.99', '"pve": 1.5'),
             "manifest.json: pve threshold must be in (0, 1], got 1.5\n"),
            ("manifest.json", lambda text: text.replace('"levels": 2', '"levels": 1'),
             "levels must be 2 or 3, got 1"),
            ("manifest.json", lambda text: text.replace('"levels": 2', '"levels": 4'),
             "levels must be 2 or 3, got 4"),
            ("mean.csv", lambda text: edit_line(text, 4, lambda row: row + ",7.5"),
             "mean.csv:4: 4 cells, the header has 3"),
            ("mean.csv", lambda text: edit_line(text, 4, lambda row: "abc" + row[3:]),
             "mean.csv:4: could not convert"),
            ("mean.csv", lambda text: text.replace("\n", ",0\n").replace(",0\n", "\n", 1),
             "mean.csv:2: 4 cells, the header has 3"),
            ("scores_level2.csv", lambda text: edit_line(text, 3, lambda row: row + ",9"),
             "scores_level2.csv:3: 5 cells, the header has 4"),
            ("scores_level1.csv",
             lambda text: edit_line(text, 2, lambda row: row.rsplit(",", 1)[0]),
             "scores_level1.csv:2: 2 cells, the header has 3"),
            ("scores_level2.csv", lambda text: text.replace("\n", ",9\n"),
             "scores_level2.csv: level 2 has 3 score columns but 2 components"),
            ("measure_means.csv",
             lambda text: "\n".join(row.rsplit(",", 1)[0] for row in text.split("\n")),
             "measure_means.csv: 1 measure effects for 2 measures"),
            ("noise.json", lambda text: text.replace("1.0", "NaN"),
             "noise.json: noise variance must be finite and >= 0, got nan"),
            ("noise.json", lambda text: text.replace("1.0", "-5"),
             "noise.json: noise variance must be finite and >= 0, got -5.0"),
            ("measure_means.csv", lambda text: text.replace("m_HIIT1", "m_FOO"),
             "measure_means.csv: header ['t', 'm_FOO', 'm_HIIT2'], where the fit has "
             "['t', 'm_HIIT1', 'm_HIIT2']"),
            ("eigenfunctions_level1.csv", lambda text: text.replace("ef_1", "ef_7"),
             "eigenfunctions_level1.csv: header ['t', 'ef_7', 'ef_2']"),
            ("scores_level1.csv", lambda text: text.replace("score_1", "score_7"),
             "scores_level1.csv: header ['subject', 'score_7', 'score_2']"),
            ("measure_means.csv", lambda text: edit_line(text, 3, lambda row: "0.06" + row[4:]),
             "measure_means.csv: row 2 has t 0.06, where the fit has 0.05\n"),
            ("eigenfunctions_level1.csv",
             lambda text: edit_line(text, 3, lambda row: "0.06" + row[4:]),
             "eigenfunctions_level1.csv: row 2 has t 0.06, where the fit has 0.05\n"),
            ("eigenvalues.csv", lambda text: text.replace("\n1,1,", "\n1,7,"),
             "eigenvalues.csv: row 1 has component 7, where the fit has 1\n"),
            ("eigenvalues.csv", lambda text: text.replace("\n2,1,", "\n7,1,"),
             "eigenvalues.csv: row 3 has level 7, where the fit has 2\n"),
            ("eigenvalues.csv", lambda text: text.replace("1,1,4.0", "1,1,1.0"),
             "eigenvalues.csv: need one eigenvalue per eigenfunction, finite, nonincreasing"),
            ("eigenvalues.csv", lambda text: text.replace("1,2,2.0", "1,2,nan"),
             "eigenvalues.csv: need one eigenvalue per eigenfunction, finite, nonincreasing"),
            # every level-2 row with the other measure: the scores then list the
            # measures as HIIT2, HIIT1, and the effects' header disagrees
            ("scores_level2.csv",
             lambda text: text.replace("HIIT1", "HIIT0").replace("HIIT2", "HIIT1")
             .replace("HIIT0", "HIIT2"),
             "measure_means.csv: header ['t', 'm_HIIT1', 'm_HIIT2'], where the fit has "
             "['t', 'm_HIIT2', 'm_HIIT1']"),
            ("measure_means.csv", lambda text: edit_line(text, 4, lambda row: ""),
             "measure_means.csv: curve values must match the grid length"),
            ("eigenfunctions_level1.csv", lambda text: edit_line(text, 4, lambda row: ""),
             "eigenfunctions_level1.csv: eigenfunctions must be finite, (m, K) on the grid"),
            ("eigenfunctions_level1.csv",
             lambda text: edit_line(text, 4, lambda row: row.rsplit(",", 1)[0] + ",nan"),
             "eigenfunctions_level1.csv: eigenfunctions must be finite"),
            ("scores_level2.csv",
             lambda text: edit_line(text, 4, lambda row: row.rsplit(",", 1)[0] + ",nan"),
             "scores_level2.csv: level 2 has non-finite scores"),
            ("mean.csv", lambda text: edit_line(text, 4, lambda row: "0.0" + row[3:]),
             "mean.csv: grid points must be strictly increasing"),
            ("mean.csv", lambda text: edit_line(text, 22, lambda row: "1.5" + row[3:]),
             "mean.csv: grid points must lie in [0, 1]"),
            ("mean.csv",
             lambda text: edit_line(text, 4, lambda row: row.rsplit(",", 1)[0] + ",0.07"),
             "mean.csv: row 3 has w 0.07, where the fit has 0.05000000000000001\n"),
            ("mean.csv", lambda text: edit_line(text, 4, lambda row: "nan" + row[3:]),
             "mean.csv: grid points must be finite"),
            ("mean.csv",
             lambda text: edit_line(text, 4, lambda row: row.rsplit(",", 1)[0] + ",nan"),
             "mean.csv: row 3 has w nan, where the fit has 0.05000000000000001\n"),
        ],
    )
    def test_hand_edited_fit_file_exits_2(self, tmp_path, capsys, name, edit, needle):
        fit_dir = handmade_fit_dir(tmp_path)
        path = fit_dir / name
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
        for argv in (["icc", str(fit_dir)],
                     ["test", str(fit_dir), "--group-a", "HIIT1", "--group-b", "HIIT2"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert needle in err

    @pytest.mark.parametrize("edit", ["delete", "duplicate", "relabel", "swap", "replicate"])
    def test_score_rows_must_list_the_full_design(self, tmp_path, capsys, edit):
        fault = {"delete": "level 2 has 11 score rows", "duplicate": "level 2 has 13 score rows",
                 "relabel": "level 2 has 12 score rows",
                 "swap": "row 3 has measure HIIT1, where the fit has HIIT2\n",
                 "replicate": "row 3 has replicate 01, where the fit has 1\n"}[edit]
        levels = 3 if edit == "replicate" else 2
        fit_dir = handmade_fit_dir(tmp_path, levels)
        path = fit_dir / f"scores_level{levels}.csv"
        lines = path.read_text().splitlines(keepends=True)
        if edit == "delete":
            del lines[3]
        elif edit == "duplicate":
            lines.insert(3, lines[3])
        elif edit == "relabel":  # a measure label no other row has: a third measure
            subject, _, scores = lines[3].split(",", 2)
            lines[3] = f"{subject},99,{scores}"
        elif edit == "swap":  # the measure cells of subject 1's two rows
            (s1, m1, rest1), (s2, m2, rest2) = (line.split(",", 2) for line in lines[1:3])
            lines[1:3] = [f"{s1},{m2},{rest1}", f"{s2},{m1},{rest2}"]
        else:  # replicate 1 written as 01, which int() reads as 1
            subject, measure, _, scores = lines[3].split(",", 3)
            lines[3] = f"{subject},{measure},01,{scores}"
        path.write_text("".join(lines))
        for argv in (["icc", str(fit_dir)],
                     ["test", str(fit_dir), "--group-a", "HIIT1", "--group-b", "HIIT2"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {fault}") and err.count("\n") == 1

    @given(mutation=_mutated_fit_file())
    @settings(max_examples=150, deadline=2000, derandomize=True, database=None)
    def test_fuzzed_fit_dir_exits_cleanly(self, tmp_path_factory, mutation):
        name, edit = mutation
        fit_dir = handmade_fit_dir(tmp_path_factory.mktemp("fuzz"), levels=3)
        path = fit_dir / name
        text, breaks = edit(path.read_text())
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        for argv in (["icc", str(fit_dir)],
                     ["test", str(fit_dir), "--group-a", "HIIT1", "--group-b", "HIIT2",
                      "--perms", "99"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4)
            lines = err.getvalue().splitlines()
            assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
            assert code == 2 or not breaks, (argv[0], text)

    @given(flags=_fuzzed_flags())
    @settings(max_examples=150, deadline=2000, derandomize=True, database=None)
    def test_fuzzed_flag_values_exit_cleanly(self, tmp_path_factory, flags):
        (command, *flag_args), refused = flags
        work = tmp_path_factory.mktemp("flags")
        if command == "fit":
            data = work / "data.csv"
            data.write_bytes(b"subject,measure,replicate,t,value,channel\n"
                             + b"".join(b",".join(row) + b"\n" for row in _DATA_ROWS))
            argv = ["fit", str(data), "--channel", "sim", "--out", str(work / "fit")]
        else:
            argv = ["test", str(handmade_fit_dir(work))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, *flag_args])
            except SystemExit as exc:  # the argument parser refused a value
                code = exc.code
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), flag_args
        assert code == 2 or not refused, flag_args

    def test_dataset_dir_is_not_a_fit_dir(self, sim_dir, capsys):
        # a simulate output dir has its own manifest.json without 'levels'
        assert main(["icc", str(sim_dir)]) == 2
        assert "not a fit directory" in capsys.readouterr().err


class TestLevelTest:
    def test_null_groups_rarely_reject(self, tmp_path):
        high_p = 0
        runs = 20
        for rep in range(runs):
            spec_path = write_spec(
                tmp_path, n2_spec_dict(400 + rep, n=30, J=4, m=21), f"s{rep}.yaml"
            )
            data_dir = tmp_path / f"d{rep}"
            main(["simulate", str(spec_path), "--out", str(data_dir)])
            fit_dir = tmp_path / f"f{rep}"
            main(
                [
                    "fit",
                    str(data_dir / "data.csv"),
                    "--channel",
                    "sim",
                    "--out",
                    str(fit_dir),
                ]
            )
            report_path = fit_dir / "test_report.json"
            code = main(
                [
                    "test",
                    str(fit_dir),
                    "--group-a",
                    "1",
                    "2",
                    "--group-b",
                    "3",
                    "4",
                    "--method",
                    "ks",
                    "--perms",
                    "199",
                    "--seed",
                    str(rep),
                ]
            )
            assert code == 0
            report = json.loads(report_path.read_text())
            high_p += report["global_p"] > 0.05
        assert high_p >= 0.9 * runs

    def test_injected_shift_detected(self, tmp_path, capsys):
        data = n2_spec_dict(606, n=60, J=2, m=21)
        data["level2_shift"] = {"2": [4.0, 0.0]}
        spec_path = write_spec(tmp_path, data)
        data_dir = tmp_path / "power_data"
        main(["simulate", str(spec_path), "--out", str(data_dir)])
        fit_dir = tmp_path / "power_fit"
        main(
            [
                "fit",
                str(data_dir / "data.csv"),
                "--channel",
                "sim",
                "--no-measure-means",
                "--out",
                str(fit_dir),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "test",
                str(fit_dir),
                "--group-a",
                "1",
                "--group-b",
                "2",
                "--method",
                "energy",
                "--perms",
                "999",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed < 0.01

    def test_overlapping_groups_exit_2(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        code = main(
            [
                "test",
                str(fit_dir),
                "--group-a",
                "HIIT1",
                "--group-b",
                "HIIT1",
            ]
        )
        assert code == 2
        assert "overlap" in capsys.readouterr().err

    def test_non_finite_score_exits_2(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        path = fit_dir / "scores_level2.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["test", str(fit_dir), "--group-a", "HIIT1", "--group-b", "HIIT2",
             "--perms", "99"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: level 2 has non-finite scores\n"

    def test_perms_past_the_cell_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # the budget is lowered, so nothing large is allocated on any version
        monkeypatch.setattr(mfda.leveltest, "MAX_PERMUTATION_CELLS", 999 * 12)
        fit_dir = handmade_fit_dir(tmp_path)
        argv = ["test", str(fit_dir), "--group-a", "HIIT1", "--group-b", "HIIT2"]
        assert main([*argv, "--perms", "998"]) == 0
        capsys.readouterr()
        assert main([*argv, "--perms", "999"]) == 2
        assert capsys.readouterr().err == ("error: 999 permutations of 12 units need 12000 "
                                           "cells, more than the 11988 a test may hold\n")

    def test_unknown_measure_lists_known(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        code = main(
            [
                "test",
                str(fit_dir),
                "--group-a",
                "HIIT1",
                "--group-b",
                "CTR9",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "CTR9" in err and "HIIT1" in err and "HIIT2" in err


class TestMultiChannel:
    def test_channels_fit_independently(self, tmp_path, capsys):
        # one file holding two channels; each channel is its own analysis
        from mfda.ingest import write_long_csv, read_long_csv
        from mfda.simkl import generate, spec_from_dict

        merged = tmp_path / "channels.csv"
        parts = []
        for channel, seed in (("knee_x", 1), ("knee_y", 2)):
            X, _ = generate(spec_from_dict(n2_spec_dict(seed, n=10, J=2, m=21)))
            single = tmp_path / f"{channel}.csv"
            write_long_csv(X, single, channel)
            parts.append(single.read_text())
        header, *rest = parts[0].splitlines()
        merged.write_text(
            header + "\n" + "\n".join(rest) + "\n"
            + "\n".join(parts[1].splitlines()[1:]) + "\n"
        )
        iccs = {}
        for channel in ("knee_x", "knee_y"):
            fit_dir = tmp_path / f"fit_{channel}"
            assert (
                main(
                    [
                        "fit",
                        str(merged),
                        "--channel",
                        channel,
                        "--out",
                        str(fit_dir),
                    ]
                )
                == 0
            )
            assert main(["icc", str(fit_dir)]) == 0
            iccs[channel] = capsys.readouterr().out.strip().splitlines()[-1]
        assert iccs["knee_x"] != iccs["knee_y"]  # different draws, different fits


class TestImport:
    def test_cli_import_leaves_scipy_stats_and_special_unloaded(self):
        # Every command pays the import; only correlate needs scipy.special
        # and only simulate reads YAML.
        src = str(Path(mfda.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        code = (
            "import sys, mfda.cli; "
            "print([m for m in ('scipy.stats', 'scipy.special', 'yaml') "
            "if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"


    def test_correlate_leaves_scipy_stats_unloaded(self, tmp_path):
        # Spearman's rho and its p-value need only numpy and scipy.special;
        # scipy.stats would cost correlate more than a second of imports
        src = str(Path(mfda.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        fit_dir = handmade_fit_dir(tmp_path)
        cov = tmp_path / "cov.csv"
        cov.write_text("subject,value\n" + "".join(f"{i},{i % 4}\n" for i in range(1, 7)))
        code = (
            "import sys; from mfda.cli import main; "
            f"assert main(['correlate', {str(fit_dir)!r}, '--covariate', {str(cov)!r}]) == 0; "
            "print([m for m in sys.modules if m.startswith('scipy.stats')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"

    def test_fit_leaves_scipy_interpolate_unloaded(self, tmp_path):
        # the spline basis is built in numpy; importing scipy.interpolate
        # would cost every fit more than the fit itself on small data
        src = str(Path(mfda.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        spec_path = write_spec(tmp_path, n2_spec_dict(3, n=6, J=2, m=41))
        code = (
            "import sys; from mfda.cli import main; "
            f"assert main(['simulate', {str(spec_path)!r}, '--out', {str(tmp_path / 'd')!r}]) == 0; "
            f"assert main(['fit', {str(tmp_path / 'd' / 'data.csv')!r}, '--channel', 'sim', "
            f"'--out', {str(tmp_path / 'f')!r}]) == 0; "
            "print([m for m in sys.modules if m.startswith('scipy.interpolate')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"


    def test_fresh_fit_leaves_numpy_ma_unloaded(self, tmp_path):
        # a plain np.unique imports numpy.ma (numpy 2.4), 10-29 ms of a fresh fit
        src = str(Path(mfda.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        for levels, spec in ((2, n2_spec_dict(3, n=6, J=2, m=41)),
                             (3, n3_spec_dict(3, n=4, J=2, K_rep=2, m=21))):
            data = tmp_path / f"d{levels}"
            assert main(["simulate", str(write_spec(tmp_path, spec)), "--out", str(data)]) == 0
            code = (
                "import sys; from mfda.cli import main; "
                f"assert main(['fit', {str(data / 'data.csv')!r}, '--channel', 'sim', "
                f"'--levels', '{levels}', '--out', {str(tmp_path / f'f{levels}')!r}]) == 0; "
                "print('numpy.ma' in sys.modules)"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            )
            assert out.stdout.strip().splitlines()[-1] == "False"


# a covariate row for each subject of handmade_fit_dir, values 1..6
_COV_ROWS = b"".join(b"%d,%d\n" % (i, i) for i in range(1, 7))


class TestCorrelate:
    def test_basic_run(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        cov = tmp_path / "cov.csv"
        cov.write_text(
            "subject,value\n" + "".join(f"{i},{i * 1.5}\n" for i in range(1, 7))
        )
        code = main(
            ["correlate", str(fit_dir), "--covariate", str(cov), "--level", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "component,spearman_rho,p_value"
        assert len(out) == 3  # header + 2 components
        # scores were built strictly increasing in the subject id
        assert float(out[1].split(",")[1]) == pytest.approx(1.0)
        assert (fit_dir / "score_correlation.csv").exists()

    @pytest.mark.parametrize("content, fault", [
        (b"subject,value\n1,2.0\n", "covariate file lacks subjects: ['2', '3', '4', '5', '6']"),
        (None, "covariate file not found: {cov}"),
        (b"subject,score\n1,2.0\n", "{cov}: header must be subject,value"),
        (b"subject,value\n1,2.0\n2,abc\n", "{cov}:3: could not convert string to float: 'abc'"),
        (b"subject,value\n1,2.0\n2,\xe9\n", "{cov}:3: not UTF-8 text (invalid continuation byte)"),
        (b"subject,value\n1," + b"9" * 200_000 + b"\n" + _COV_ROWS[1:],
         "scores and covariate must be finite"),
        (b"subject,value\n" + _COV_ROWS + b"1,100\n", "{cov}: subject '1' is listed twice"),
        (b"subject,value\n" + _COV_ROWS.replace(b"\n", b",junk\n"),
         "{cov}:2: 3 cells, the header has 2"),
        (b"subject,value\n" + _COV_ROWS[:-3] + b"\n", "{cov}:7: 1 cells, the header has 2"),
        (b"value,subject\n" + _COV_ROWS, "{cov}: header must be subject,value"),
    ], ids=["missing_subjects", "missing_file", "header", "not_a_number", "not_utf8",
            "field_too_large", "subject_twice", "extra_cell", "short_row", "columns_swapped"])
    def test_covariate_file_fault_exits_2(self, tmp_path, capsys, content, fault):
        fit_dir = handmade_fit_dir(tmp_path)
        cov = tmp_path / "cov.csv"
        if content is not None:
            cov.write_bytes(content)
        assert main(["correlate", str(fit_dir), "--covariate", str(cov)]) == 2
        assert capsys.readouterr().err == f"error: {fault.format(cov=cov)}\n"


ERROR_CATEGORIES = {
    errors.InputError: 2,
    errors.PreconditionError: 3,
    errors.NumericalError: 4,
}
ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type)
    and issubclass(cls, errors.MfdaError)
    and cls not in (errors.MfdaError, *ERROR_CATEGORIES)
]


def icc_exit_code(cls, monkeypatch) -> int:
    def fail(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(mfda.cli, "read_fit", fail)
    return main(["icc", "unused"])


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_exits_with_its_category_code(cls, monkeypatch, capsys):
    (code,) = [c for base, c in ERROR_CATEGORIES.items() if issubclass(cls, base)]
    assert icc_exit_code(cls, monkeypatch) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "boom" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "cls", [errors.EmptyDataError, errors.ComponentMismatchError]
)
def test_empty_data_and_component_mismatch_are_input_errors(cls, monkeypatch):
    assert icc_exit_code(cls, monkeypatch) == 2


@pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 GiB for an array"])
@pytest.mark.parametrize("command, name", [("fit", "read_long_csv"), ("simulate", "generate")])
def test_memory_error_exits_2(command, name, message, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MemoryError(*[message][: bool(message)])

    monkeypatch.setattr(mfda.cli, name, fail)
    data = tmp_path / "data.csv"
    data.write_text("")
    argv = {
        "fit": ["fit", str(data), "--channel", "sim", "--out", str(tmp_path / "f")],
        "simulate": ["simulate", str(write_spec(tmp_path, n2_spec_dict(1, n=6, J=2, m=11))),
                     "--out", str(tmp_path / "d")],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message or 'MemoryError'}\n"


# The cells the mutation sweep below writes: not finite, out of range, a quote,
# a NUL, a carriage return, a non-ASCII digit and an empty cell.
_SWEEP_CELLS = [b"nan", b"1e400", b'"', b"\x00", b"\r", "١".encode(), b""]


def _mutated(text: bytes, rng: np.random.Generator) -> bytes:
    """text after one seeded edit: a line deleted, duplicated or swapped with the
    next; a cell replaced by one of _SWEEP_CELLS, one of them added, or a cell
    dropped; the text truncated; or a byte that is not UTF-8 appended."""
    lines = text.split(b"\n")
    i = int(rng.integers(len(lines)))
    cells = lines[i].split(b",")
    j = int(rng.integers(len(cells)))
    cell = _SWEEP_CELLS[int(rng.integers(len(_SWEEP_CELLS)))]
    kind = int(rng.integers(8))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        lines[i:i + 2] = lines[i:i + 2][::-1]
    elif kind == 3:
        cells[j] = cell
    elif kind == 4:
        cells.insert(j, cell)
    elif kind == 5:
        del cells[j]
    elif kind == 6:
        return text[: int(rng.integers(len(text)))]
    else:
        return text + b"\xff"
    if kind in (3, 4, 5):
        lines[i] = b",".join(cells)
    return b"\n".join(lines)


def test_mutated_inputs_exit_cleanly(tmp_path):
    # 300 seeded edits, a third each of the long CSV (read by fit), of a file of
    # its fit (read by icc) and of a covariate file (read by correlate): every
    # one ends in an exit code and at most one error line, never in a traceback
    spec = write_spec(tmp_path, n2_spec_dict(31, n=6, J=2, m=11))
    assert main(["simulate", str(spec), "--out", str(tmp_path / "sim")]) == 0
    data, fit_dir, cov = tmp_path / "sim" / "data.csv", tmp_path / "fit", tmp_path / "cov.csv"
    assert main(["fit", str(data), "--channel", "sim", "--out", str(fit_dir)]) == 0
    cov.write_bytes(b"subject,value\n" + _COV_ROWS)
    fit_files = sorted(fit_dir.iterdir())
    rng = np.random.default_rng(20)
    for at in range(300):
        path, argv = [
            (data, ["fit", str(data), "--channel", "sim", "--out", str(tmp_path / "refit")]),
            (fit_files[int(rng.integers(len(fit_files)))], ["icc", str(fit_dir)]),
            (cov, ["correlate", str(fit_dir), "--covariate", str(cov)]),
        ][at % 3]
        original = path.read_bytes()
        path.write_bytes(_mutated(original, rng))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        mutated = path.read_bytes()
        path.write_bytes(original)
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4), (path.name, mutated)
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines
