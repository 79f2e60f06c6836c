"""Command-line workflows: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mfda
from mfda.cli import main
from mfda.core import Curve
from mfda.fpca import EigenSystem
from mfda.ingest import write_fit
from mfda.mfpca import FitConfig, MultilevelFit
from mfda.simkl import fourier_basis

from .conftest import n2_spec_dict


def write_spec(tmp_path: Path, data: dict, name: str = "spec.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


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

    def test_smooth_flag(self, sim_dir, tmp_path):
        code = main(
            [
                "fit",
                str(sim_dir / "data.csv"),
                "--channel",
                "sim",
                "--smooth",
                "0.08",
                "--out",
                str(tmp_path / "fs"),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "fs" / "manifest.json").read_text())
        assert manifest["config"]["smooth"] is True
        assert manifest["config"]["bandwidth"] == 0.08


def handmade_fit_dir(tmp_path: Path) -> Path:
    from mfda.core import Grid

    grid = Grid.uniform(21)
    basis = fourier_basis(grid, 2)

    def eig(lams):
        lams = np.asarray(lams, dtype=float)
        return EigenSystem(grid, lams, basis, np.cumsum(lams) / lams.sum())

    n, J = 6, 2
    fit = MultilevelFit(
        grid=grid,
        levels=2,
        global_mean=Curve(grid, np.zeros(grid.size)),
        measure_effects=(
            Curve(grid, np.zeros(grid.size)),
            Curve(grid, np.zeros(grid.size)),
        ),
        level_eig=(eig([4.0, 2.0]), eig([2.0, 1.0])),
        scores=(
            np.linspace(-1, 1, n * 2).reshape(n, 2),
            np.linspace(-1, 1, n * J * 2).reshape(n * J, 2),
        ),
        units=(
            tuple((i,) for i in range(1, n + 1)),
            tuple((i, j) for i in range(1, n + 1) for j in range(1, J + 1)),
        ),
        noise_variance=1.0,
        subject_labels=tuple(str(i) for i in range(1, n + 1)),
        measure_labels=("HIIT1", "HIIT2"),
        config=FitConfig(levels=2),
    )
    out = tmp_path / "handmade_fit"
    write_fit(fit, out)
    return out


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

    def test_missing_eigenvalues_exits_2(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        (fit_dir / "eigenvalues.csv").unlink()
        assert main(["icc", str(fit_dir)]) == 2

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
        # Every command pays the import; only correlate and the asymptotic
        # KS p-value need scipy.stats / scipy.special.
        src = str(Path(mfda.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        code = (
            "import sys, mfda.cli; "
            "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"


class TestThreadCap:
    def test_env_var_accepted(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("MFDA_THREADS", "1")
        spec_path = write_spec(tmp_path, n2_spec_dict(5, n=4, J=2, m=11))
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 0

    def test_garbage_env_var_ignored(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MFDA_THREADS", "lots")
        spec_path = write_spec(tmp_path, n2_spec_dict(5, n=4, J=2, m=11))
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 0


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

    def test_missing_subject_exits_2(self, tmp_path, capsys):
        fit_dir = handmade_fit_dir(tmp_path)
        cov = tmp_path / "cov.csv"
        cov.write_text("subject,value\n1,2.0\n")
        code = main(
            ["correlate", str(fit_dir), "--covariate", str(cov)]
        )
        assert code == 2
        assert "lacks subjects" in capsys.readouterr().err
