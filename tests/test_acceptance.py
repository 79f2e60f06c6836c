"""Acceptance gate: one test per release criterion, each printing a verdict.

Every criterion runs at its stated tolerance; the verdict lines go to the
real stdout so they are visible regardless of pytest capture settings.
"""

import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import yaml

from mfda.cli import main as cli_main
from mfda.icc import global_icc
from mfda.ingest import read_fit, read_long_csv, write_fit, write_long_csv
from mfda.leveltest import bh_adjust, two_sample_score_test
from mfda.mfpca import (
    FitConfig,
    fit_nested,
    measure_means,
    sigma_B_hat,
    sigma_T_hat,
    three_level_covariances,
)
from mfda.simkl import generate

from .conftest import n2_spec, n2_spec_dict, n3_spec
from .test_leveltest import bh_reference
from .test_mfpca import brute_h_surfaces, brute_sigma_B, brute_sigma_T

N_SEEDS = 20
TRUE_LAMBDAS = {(0, 0): 4.0, (0, 1): 2.0, (1, 0): 2.0, (1, 1): 1.0}


def verdict(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@lru_cache(maxsize=1)
def n2_fits():
    """The 20-seed N2 batch shared by criteria 1 and 2, with its runtime."""
    start = time.perf_counter()
    rows = []
    for seed in range(N_SEEDS):
        spec = n2_spec(1000 + seed)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=0.99))
        rows.append((spec, X, fit))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_c01_eigenstructure_recovery_n2(capsys):
    rows, elapsed = n2_fits()
    inner_products = {key: [] for key in TRUE_LAMBDAS}
    lambdas = {key: [] for key in TRUE_LAMBDAS}
    for spec, X, fit in rows:
        w = X.grid.weights
        for level, comp in TRUE_LAMBDAS:
            e_true = spec.levels[level].functions[:, comp]
            e_hat = fit.level_eig[level].functions[:, comp]
            inner_products[(level, comp)].append(abs(np.sum(w * e_true * e_hat)))
            lambdas[(level, comp)].append(fit.level_eig[level].eigenvalues[comp])
    min_ip = min(np.mean(v) for v in inner_products.values())
    max_lambda_err = max(
        abs(np.mean(lambdas[key]) - true) / true
        for key, true in TRUE_LAMBDAS.items()
    )
    ok = min_ip >= 0.90 and max_lambda_err <= 0.25 and elapsed <= 60.0
    verdict(
        capsys,
        ok,
        "criterion 1 (N2 eigenstructure recovery)",
        f"min mean |<e_hat, e>| = {min_ip:.3f} (>= 0.90), "
        f"max mean eigenvalue error = {100 * max_lambda_err:.1f}% (<= 25%), "
        f"runtime = {elapsed:.1f}s (<= 60s)",
    )


def test_c02_global_icc_recovery_n2(capsys):
    rows, _ = n2_fits()
    iccs = [global_icc(fit) for _, _, fit in rows]
    mean_icc = float(np.mean(iccs))
    ok = 0.55 <= mean_icc <= 0.65
    verdict(
        capsys,
        ok,
        "criterion 2 (global ICC recovery)",
        f"mean ICC over {N_SEEDS} seeds = {mean_icc:.3f} (target 0.60 +/- 0.05)",
    )


def test_c03_three_level_pipeline(capsys):
    iccs = []
    tops = {0: [], 1: [], 2: []}
    analytic = None
    for seed in range(10):
        spec = n3_spec(4000 + seed)
        X, truth = generate(spec)
        analytic = truth.analytic_icc
        fit = fit_nested(X, FitConfig(levels=3, pve=0.99))
        iccs.append(global_icc(fit))
        for level in range(3):
            tops[level].append(fit.level_eig[level].eigenvalues[0])
    mean_icc = float(np.mean(iccs))
    icc_ok = abs(mean_icc - analytic) <= 0.07
    top_errs = [
        abs(np.mean(tops[level]) - true) / true
        for level, true in zip(range(3), (4.0, 2.0, 1.0))
    ]
    lambda_ok = max(top_errs) <= 0.25
    verdict(
        capsys,
        icc_ok and lambda_ok,
        "criterion 3 (three-level pipeline)",
        f"mean ICC = {mean_icc:.3f} vs analytic {analytic:.3f} (+/- 0.07), "
        f"top-eigenvalue errors = {[f'{100 * e:.1f}%' for e in top_errs]} (<= 25%)",
    )


@pytest.mark.parametrize("method", ["ks", "cvm", "energy"])
def test_c04_null_calibration(capsys, method):
    replicates = 500
    rejections = 0
    lam2 = np.array([2.0, 1.0])
    for rep in range(replicates):
        rng = np.random.default_rng(60_000 + rep)
        A = rng.standard_normal((40, 2)) * np.sqrt(lam2)
        B = rng.standard_normal((40, 2)) * np.sqrt(lam2)
        report = two_sample_score_test(
            A, B, method=method, n_permutations=199, seed=rep
        )
        rejections += report.global_p <= 0.05
    rate = rejections / replicates
    ok = rate <= 0.07
    verdict(
        capsys,
        ok,
        f"criterion 4 (null calibration, {method})",
        f"rejection rate at alpha=0.05 over {replicates} replicates = "
        f"{rate:.3f} (<= 0.07)",
    )


def test_c05_power_under_shift(capsys):
    replicates = 50
    lam2 = np.array([2.0, 1.0])
    shift = 1.5 * np.sqrt(lam2[0])
    rejections = 0
    for rep in range(replicates):
        rng = np.random.default_rng(70_000 + rep)
        A = rng.standard_normal((100, 2)) * np.sqrt(lam2)
        B = rng.standard_normal((100, 2)) * np.sqrt(lam2)
        B[:, 0] += shift
        report = two_sample_score_test(
            A, B, method="energy", n_permutations=999, seed=rep
        )
        rejections += report.global_p <= 0.05
    rate = rejections / replicates
    ok = rate >= 0.80
    verdict(
        capsys,
        ok,
        "criterion 5 (power under level-2 shift)",
        f"rejection rate = {rate:.2f} over {replicates} replicates (>= 0.80), "
        f"shift = 1.5 sqrt(lambda_1) = {shift:.3f}",
    )


def test_c06_estimator_oracle_equivalence(capsys):
    from mfda.core import center_rows
    from mfda.mfpca import canonical_design

    spec2 = n2_spec(555, n=5, J=3, m=21)
    X2, _ = generate(spec2)
    means2 = measure_means(X2)
    centered2 = center_rows(X2, means2)
    err_t = np.max(
        np.abs(sigma_T_hat(X2, means2) - brute_sigma_T(centered2.values))
    )
    err_b = np.max(
        np.abs(sigma_B_hat(X2, means2) - brute_sigma_B(centered2.values, 5, 3))
    )

    spec3 = n3_spec(556, n=5, J=2, K_rep=3, m=21)
    X3, _ = generate(spec3)
    means3 = measure_means(X3)
    cov = three_level_covariances(X3, means3)
    rv, _, _, _ = canonical_design(center_rows(X3, means3), levels=3)
    h1, h2, h3 = brute_h_surfaces(rv)
    err_h = max(
        np.max(np.abs(cov.h[0] - h1)),
        np.max(np.abs(cov.h[1] - h2)),
        np.max(np.abs(cov.h[2] - h3)),
    )
    worst = max(err_t, err_b, err_h)
    ok = worst < 1e-12
    verdict(
        capsys,
        ok,
        "criterion 6 (estimator oracle equivalence)",
        f"max abs deviation from brute-force loops = {worst:.2e} (< 1e-12)",
    )


def test_c07_psd_guarantee(capsys):
    worst = 0.0
    for seed in range(80):
        spec = n2_spec(7700 + seed, n=8, J=2, m=21, noise=1.5)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=2, pve=1.0))
        for eig in fit.level_eig:
            rebuilt = (eig.functions * eig.eigenvalues) @ eig.functions.T
            worst = min(worst, float(np.linalg.eigvalsh(rebuilt).min()))
    for seed in range(20):
        spec = n3_spec(8800 + seed, n=6, J=2, K_rep=3, m=21)
        X, _ = generate(spec)
        fit = fit_nested(X, FitConfig(levels=3, pve=1.0))
        for eig in fit.level_eig:
            rebuilt = (eig.functions * eig.eigenvalues) @ eig.functions.T
            worst = min(worst, float(np.linalg.eigvalsh(rebuilt).min()))
    ok = worst >= -1e-10
    verdict(
        capsys,
        ok,
        "criterion 7 (PSD after trimming)",
        f"min eigenvalue of any reconstructed level surface over 100 seeds = "
        f"{worst:.2e} (>= -1e-10)",
    )


def test_c08_bh_correctness(capsys):
    hand_ok = np.allclose(
        bh_adjust([0.01, 0.02, 0.03]), [0.03, 0.03, 0.03], atol=0
    ) and np.allclose(bh_adjust([0.05]), [0.05], atol=0) and np.allclose(
        bh_adjust([0.01, 0.04, 0.03, 0.005]), [0.02, 0.04, 0.04, 0.02], atol=1e-15
    )
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(size=rng.integers(1, 16))
        worst = max(worst, np.max(np.abs(bh_adjust(p) - bh_reference(p))))
    ok = hand_ok and worst <= 1e-15
    verdict(
        capsys,
        ok,
        "criterion 8 (Benjamini-Hochberg correctness)",
        f"hand-worked vectors exact = {hand_ok}, max deviation from step-up "
        f"oracle over 1000 random vectors = {worst:.2e} (<= 1e-15)",
    )


def _run_workflow(base: Path) -> dict:
    """One simulate -> fit -> icc -> test chain on fixed paths under base."""
    spec_data = n2_spec_dict(90_210, n=12, J=4, m=31)
    spec_path = base / "spec.yaml"
    spec_path.write_text(yaml.safe_dump(spec_data))
    data_dir = base / "data"
    fit_dir = base / "fit"
    assert cli_main(["simulate", str(spec_path), "--out", str(data_dir)]) == 0
    assert (
        cli_main(
            [
                "fit",
                str(data_dir / "data.csv"),
                "--channel",
                "sim",
                "--out",
                str(fit_dir),
            ]
        )
        == 0
    )
    assert cli_main(["icc", str(fit_dir)]) == 0
    assert (
        cli_main(
            [
                "test",
                str(fit_dir),
                "--group-a",
                "1",
                "2",
                "--group-b",
                "3",
                "4",
                "--perms",
                "199",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    out = {}
    for directory in (data_dir, fit_dir):
        for path in sorted(directory.iterdir()):
            out[f"{directory.name}/{path.name}"] = path.read_bytes()
    return out


def test_c09_workflow_determinism(tmp_path, capsys):
    import shutil

    first = _run_workflow(tmp_path)
    shutil.rmtree(tmp_path / "data")
    shutil.rmtree(tmp_path / "fit")
    second = _run_workflow(tmp_path)
    same_names = set(first) == set(second)
    diffs = [name for name in first if first[name] != second.get(name)]
    ok = same_names and not diffs
    verdict(
        capsys,
        ok,
        "criterion 9 (workflow determinism)",
        f"{len(first)} output files byte-identical across identical reruns"
        + ("" if ok else f"; differing: {diffs}"),
    )


def test_c10_round_trips(tmp_path, capsys):
    X, _ = generate(n3_spec(42, n=4, J=2, K_rep=3, m=21))
    csv_path = tmp_path / "data.csv"
    write_long_csv(X, csv_path, channel="sim")
    back, _ = read_long_csv(csv_path, channel="sim")
    csv_err = max(
        float(np.max(np.abs(back.values - X.values))),
        float(np.max(np.abs(back.grid.points - X.grid.points))),
    )

    X2, _ = generate(n2_spec(43, n=10, J=2, m=21))
    fit = fit_nested(X2, FitConfig(levels=2))
    fit_dir = tmp_path / "fit"
    write_fit(fit, fit_dir)
    loaded = read_fit(fit_dir)
    fit_err = 0.0
    fit_err = max(
        fit_err,
        float(np.max(np.abs(loaded.global_mean.values - fit.global_mean.values))),
        abs(loaded.noise_variance - fit.noise_variance),
    )
    for ea, eb in zip(loaded.level_eig, fit.level_eig):
        if eb.n_components:
            fit_err = max(
                fit_err,
                float(np.max(np.abs(ea.eigenvalues - eb.eigenvalues))),
                float(np.max(np.abs(ea.functions - eb.functions))),
            )
    for sa, sb in zip(loaded.scores, fit.scores):
        if sb.size:
            fit_err = max(fit_err, float(np.max(np.abs(sa - sb))))
    for ea, eb in zip(loaded.measure_effects, fit.measure_effects):
        fit_err = max(fit_err, float(np.max(np.abs(ea.values - eb.values))))
    ok = csv_err <= 1e-12 and fit_err <= 1e-12
    verdict(
        capsys,
        ok,
        "criterion 10 (round-trip losslessness)",
        f"CSV max error = {csv_err:.2e}, fit-directory max error = "
        f"{fit_err:.2e} (both <= 1e-12)",
    )


def test_c11_rank_and_noise_do_not_depend_on_the_grid(capsys):
    # one seed each of the N2 design and the stride-ingest design (the
    # benchmark's three-level workload), fitted on grids of 51 to 801 points
    designs = {
        "N2": (lambda m: n2_spec(1234, n=100, J=4, m=m), 2, (2, 2), 1.0),
        "stride-ingest": (lambda m: n3_spec(1, m=m), 3, (2, 2, 1), 0.25),
    }
    ok, details = True, []
    for name, (spec_of, levels, true_k, noise) in designs.items():
        ranks, worst_eig, worst_noise = set(), 0.0, 0.0
        for m in (51, 101, 201, 401, 801):
            X, truth = generate(spec_of(m))
            fit = fit_nested(X, FitConfig(levels=levels))
            ranks.add(fit.retained)
            ok &= all(k <= t + 1 for k, t in zip(fit.retained, true_k))
            for level, k in enumerate(true_k):
                realised = np.sort(np.var(truth.scores[level], axis=0, ddof=1))[::-1]
                lam = fit.level_eig[level].eigenvalues[:k]
                ok &= lam.size == k
                worst_eig = max(worst_eig, float(np.max(np.abs(lam / realised - 1.0))))
            worst_noise = max(worst_noise, abs(fit.noise_variance / noise - 1.0))
        ok &= len(ranks) == 1 and worst_eig <= 0.25 and worst_noise <= 0.10
        details.append(
            f"{name}: retained {sorted(ranks)}, top-eigenvalue error "
            f"{100 * worst_eig:.1f}% (<= 25%), noise error {100 * worst_noise:.1f}% (<= 10%)"
        )
    verdict(
        capsys,
        ok,
        "criterion 11 (rank and noise independent of the grid, m = 51..801)",
        "; ".join(details),
    )
