#!/usr/bin/env python3
"""Shows that every output check of the benchmark passes on the program's
real output and fails on a corrupted copy of it.

    python3 bench/check_selftest.py

It runs simulate -> fit -> icc -> test (all three methods, 99 permutations)
-> correlate once on the session-test workload, checks the clean outputs,
then corrupts one output at a time and expects the named check to fail.
Exits 0 when every corruption is caught. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import sys

import run

SEED = 7


def main() -> int:
    run.use_program(1)
    import chain
    import numpy as np
    from checks import (CheckFailed, check_correlate, check_fit, check_icc,
                        check_identical, check_test, digest, read_fit_files)
    from mfda.cli import main as cli_main
    from workloads import WORKLOADS

    work = run.BENCH / "_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def cli(*argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(list(argv))
        if rc != 0:
            raise SystemExit(f"mfda {' '.join(argv)} exited {rc}")
        return out.getvalue()

    failures = []

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, emitted in (("end_to_end", chain.END_TO_END), ("per_layer", chain.PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != emitted:
            failures.append(f"BENCHMARK.json {key} differs from the metrics chain.py emits")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")

    def expect(check: str, fn) -> None:
        try:
            fn()
        except CheckFailed as exc:
            if exc.check == check:
                print(f"caught   {exc}")
                return
            failures.append(f"{check}: a different check failed first: {exc}")
            return
        failures.append(f"{check}: the corrupted output passed")

    try:
        w = dataclasses.replace(WORKLOADS["session-test"], perms=99)
        spec = chain.write_spec(w, work / "spec.yaml", SEED)
        data = work / "data"
        cli(*w.simulate_argv(str(spec), str(data), SEED))
        truth = json.loads((data / "truth.json").read_text())
        covariate = chain.write_covariate(truth, work / "covariate.csv")
        fit_dir = work / "fit"
        cli(*w.fit_argv(str(data / "data.csv"), str(fit_dir)))
        fit = read_fit_files(fit_dir, w.levels)

        # clean outputs pass every check
        check_fit(w, fit, truth)
        icc_out = cli("icc", str(fit_dir))
        icc_json = json.loads((fit_dir / "icc.json").read_text())
        check_icc(fit, icc_out, icc_json)
        reports = {}
        for method in ("energy", "ks", "cvm"):
            wm = dataclasses.replace(w, method=method)
            out = cli(*wm.test_argv(str(fit_dir), SEED))
            reports[method] = (wm, json.loads((fit_dir / "test_report.json").read_text()), out)
            check_test(wm, fit, reports[method][1], out)
        corr_out = cli(*w.correlate_argv(str(fit_dir), str(work / "covariate.csv")))
        corr_csv = (fit_dir / "score_correlation.csv").read_text()
        check_correlate(fit, covariate, corr_out, corr_csv, 2)
        print("clean outputs pass every check")

        def corrupted_fit(name: str, edit) -> None:
            """Copy the fit directory, rewrite one file, re-read and check it."""
            bad = work / "bad_fit"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(fit_dir, bad)
            path = bad / name
            path.write_text(edit(path.read_text()))
            check_fit(w, read_fit_files(bad, w.levels), truth)

        def scale_column(col: int, factor: float, rows=slice(1, None)):
            def edit(text: str) -> str:
                lines = text.splitlines()
                for i in range(len(lines))[rows]:
                    cells = lines[i].split(",")
                    cells[col] = repr(float(cells[col]) * factor)
                    lines[i] = ",".join(cells)
                return "\n".join(lines) + "\n"
            return edit

        def swap_in_fourier(text: str) -> str:
            """Level-1 eigenfunction 1 replaced by sqrt2 sin(8 pi t)."""
            lines = text.splitlines()
            for i in range(1, len(lines)):
                cells = lines[i].split(",")
                cells[1] = repr(float(np.sqrt(2) * np.sin(8 * np.pi * float(cells[0]))))
                lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"

        def shuffle_scores(text: str) -> str:
            lines = text.splitlines()
            body = [line.split(",") for line in lines[1:]]
            col = [cells[2] for cells in body]
            col = col[1:] + col[:1]
            for cells, v in zip(body, col):
                cells[2] = v
            return "\n".join([lines[0]] + [",".join(c) for c in body]) + "\n"

        expect("eigenvalues_vs_truth",
               lambda: corrupted_fit("eigenvalues.csv", scale_column(2, 2.0)))
        expect("eigenfunctions_fourier",
               lambda: corrupted_fit("eigenfunctions_level1.csv", swap_in_fourier))
        expect("eigenfunctions_orthonormal",
               lambda: corrupted_fit("eigenfunctions_level2.csv", scale_column(1, 1.01)))
        expect("eigenfunctions_orthonormal",
               lambda: corrupted_fit("mean.csv", scale_column(2, 1.001, slice(1, 3))))
        expect("noise_near_spec", lambda: corrupted_fit(
            "noise.json", lambda t: json.dumps({"noise_variance": 3 * fit.noise})))
        expect("level2_scores_track_truth",
               lambda: corrupted_fit("scores_level2.csv", shuffle_scores))

        expect("icc_printed", lambda: check_icc(fit, "0.99\n", icc_json))
        expect("icc_printed", lambda: check_icc(
            fit, icc_out, {"global_icc": icc_json["global_icc"] * (1 + 1e-9)}))

        for method, (wm, report, out) in reports.items():
            def edited(field: str, fn, report=report):
                bad = copy.deepcopy(report)
                bad["per_score"][0][field] = fn(bad["per_score"][0][field])
                return bad
            R = report["n_permutations"]
            expect("test_statistics_independent", lambda: check_test(
                wm, fit, edited("statistic", lambda s: s * 1.001), out))
            expect("test_pvalues", lambda: check_test(
                wm, fit, edited("p_raw", lambda p: p + 0.5 / (R + 1)), out))
        wm, report, out = reports["energy"]
        bad = copy.deepcopy(report)
        bad["per_score"][-1]["p_adjusted"] = bad["per_score"][-1]["p_adjusted"] * 0.9
        expect("test_pvalues", lambda: check_test(wm, fit, bad, out))
        expect("test_pvalues", lambda: check_test(wm, fit, report, "0.0001\n"))

        lines = corr_out.splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        bad_corr = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
        expect("spearman_ranks", lambda: check_correlate(fit, covariate, bad_corr, bad_corr, 2))
        rng = np.random.default_rng(SEED)
        noise_cov = rng.standard_normal(covariate.size)
        (work / "noise_cov.csv").write_text("subject,value\n" + "".join(
            f"{i},{float(v)!r}\n" for i, v in enumerate(noise_cov, start=1)))
        out = cli(*w.correlate_argv(str(fit_dir), str(work / "noise_cov.csv")))
        expect("level1_rho_vs_truth", lambda: check_correlate(
            fit, noise_cov, out, (fit_dir / "score_correlation.csv").read_text(), 2))

        files = [p for p in fit_dir.iterdir() if p.suffix == ".csv"]
        first = digest(files)
        (fit_dir / "mean.csv").write_text((fit_dir / "mean.csv").read_text() + "\n")
        expect("fit_bytes_identical",
               lambda: check_identical("fit_bytes_identical", digest(files), first))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for f in failures:
        print(f"MISSED   {f}")
    print("all corruptions caught" if not failures else f"{len(failures)} missed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
