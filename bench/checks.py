"""Output checks for every command of the benchmark chain.

Each check compares what the program wrote or printed against a computation
made here, apart from the program (trapezoid weights, a Fourier basis,
scipy's two-sample statistics, Benjamini-Hochberg, midranks), or against a
property the method must have. None compares against a saved copy of
earlier output. A failed check raises CheckFailed naming the check.

The statistical tolerances (EIG_RTOL, FOURIER_MIN_COS, NOISE_RTOL,
LEVEL2_MIN_CORR, RHO1_MIN) were set from the measured quantities over many
seeds of every workload; bench/README.md gives the figures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from workloads import Workload

# Largest relative gap between a fitted top eigenvalue and the sample
# variance of the generator's realised scores for that component.
EIG_RTOL = 0.5
# Smallest cosine of the principal angles between the leading fitted
# eigenfunctions of a level and that level's Fourier block.
FOURIER_MIN_COS = 0.9
ORTHONORMAL_ATOL = 1e-9
# The diagonal-gap noise estimate is biased upwards (see README); this
# bound still catches a lost or rescaled noise.json.
NOISE_RTOL = 0.6
LEVEL2_MIN_CORR = 0.9
RHO1_MIN = 0.8
STAT_RTOL = 1e-9
STAT_ATOL = 1e-12
BH_ATOL = 1e-12


class CheckFailed(AssertionError):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


def digest(paths) -> str:
    """sha256 over the names and bytes of the given files, in name order."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def check_identical(check: str, got: str, first: str) -> None:
    _require(got == first, check, "output bytes differ from the first run's")


def trapezoid_weights(t: np.ndarray) -> np.ndarray:
    dt = np.diff(t)
    w = np.zeros_like(t)
    w[:-1] += dt / 2.0
    w[1:] += dt / 2.0
    return w


def fourier_block(t: np.ndarray, start: int, count: int) -> np.ndarray:
    """Columns start..start+count-1 of the ladder sqrt2 sin(2 pi t),
    sqrt2 cos(2 pi t), sqrt2 sin(4 pi t), ..."""
    cols = []
    for a in range(start, start + count):
        phase = 2.0 * np.pi * (a // 2 + 1) * t
        cols.append(np.sqrt(2.0) * (np.sin(phase) if a % 2 == 0 else np.cos(phase)))
    return np.column_stack(cols)


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, body.reshape(-1, len(header))


@dataclass(frozen=True)
class FitFiles:
    """The numeric content of a fit directory, parsed here with numpy."""

    t: np.ndarray
    w: np.ndarray
    eigenvalues: tuple[np.ndarray, ...]
    functions: tuple[np.ndarray, ...]
    score_keys: tuple[np.ndarray, ...]
    scores: tuple[np.ndarray, ...]
    noise: float


def read_fit_files(fit_dir: Path, levels: int) -> FitFiles:
    _, mean = _table(fit_dir / "mean.csv")
    _, ev = _table(fit_dir / "eigenvalues.csv")
    functions, keys, scores, eigenvalues = [], [], [], []
    for level in range(1, levels + 1):
        eigenvalues.append(ev[ev[:, 0] == level, 2])
        _, ef = _table(fit_dir / f"eigenfunctions_level{level}.csv")
        functions.append(ef[:, 1:])
        _, sc = _table(fit_dir / f"scores_level{level}.csv")
        keys.append(sc[:, :level].astype(int))
        scores.append(sc[:, level:])
    with open(fit_dir / "noise.json", encoding="utf-8") as fh:
        noise = float(json.load(fh)["noise_variance"])
    return FitFiles(mean[:, 0], mean[:, 2], tuple(eigenvalues), tuple(functions),
                    tuple(keys), tuple(scores), noise)


def fit_measures(w: Workload, fit: FitFiles, truth: dict) -> dict[str, float]:
    """The quantities the fit checks bound, for every level."""
    weights = trapezoid_weights(fit.t)
    eig_err, min_cos, ortho_err = 0.0, 1.0, 0.0
    start = 0
    for level, lam_true in enumerate(w.eigenvalues):
        k = len(lam_true)
        realised = np.sort(np.var(np.asarray(truth["scores"][level]), axis=0, ddof=1))[::-1]
        lam, E = fit.eigenvalues[level], fit.functions[level]
        _require(lam.size >= k, "eigenvalues_vs_truth",
                 f"level {level + 1} kept {lam.size} components, the truth has {k}")
        eig_err = max(eig_err, float(np.max(np.abs(lam[:k] / realised - 1.0))))
        M = (E[:, :k] * weights[:, None]).T @ fourier_block(fit.t, start, k)
        min_cos = min(min_cos, float(np.linalg.svd(M, compute_uv=False).min()))
        gram = (E * weights[:, None]).T @ E
        ortho_err = max(ortho_err, float(np.max(np.abs(gram - np.eye(E.shape[1])), initial=0.0)))
        start += k
    # truth rows are (subject, measure) in subject-major order. When a level's
    # eigenvalues come out close, its components rotate within the level, so
    # level-2 score 1 is compared with all of that level's true scores
    # (multiple correlation), not with true score 1 alone.
    row = (fit.score_keys[1][:, 0] - 1) * w.measures + fit.score_keys[1][:, 1] - 1
    X = np.column_stack([np.ones(row.size), np.asarray(truth["scores"][1])[row]])
    s1 = fit.scores[1][:, 0]
    level2_corr = float(np.corrcoef(X @ np.linalg.lstsq(X, s1, rcond=None)[0], s1)[0, 1])
    return {
        "eig_rel_err": eig_err,
        "fourier_min_cos": min_cos,
        "orthonormal_err": ortho_err,
        "weights_err": float(np.max(np.abs(fit.w - weights))),
        "noise_rel_err": abs(fit.noise / w.noise_variance - 1.0),
        "level2_corr": level2_corr,
    }


def check_fit(w: Workload, fit: FitFiles, truth: dict) -> None:
    q = fit_measures(w, fit, truth)
    _require(q["eig_rel_err"] <= EIG_RTOL, "eigenvalues_vs_truth",
             f"relative error {q['eig_rel_err']:.3g} > {EIG_RTOL}")
    _require(q["fourier_min_cos"] >= FOURIER_MIN_COS, "eigenfunctions_fourier",
             f"principal-angle cosine {q['fourier_min_cos']:.4f} < {FOURIER_MIN_COS}")
    _require(q["weights_err"] <= 1e-12, "eigenfunctions_orthonormal",
             f"mean.csv weights differ from trapezoid weights by {q['weights_err']:.3g}")
    _require(q["orthonormal_err"] <= ORTHONORMAL_ATOL, "eigenfunctions_orthonormal",
             f"|E'WE - I| = {q['orthonormal_err']:.3g}")
    _require(q["noise_rel_err"] <= NOISE_RTOL, "noise_near_spec",
             f"noise {fit.noise:.4g} vs spec {w.noise_variance}")
    _require(q["level2_corr"] >= LEVEL2_MIN_CORR, "level2_scores_track_truth",
             f"multiple correlation {q['level2_corr']:.4f} < {LEVEL2_MIN_CORR}")


def check_icc(fit: FitFiles, printed: str, icc_json: dict) -> None:
    sums = [float(lam.sum()) for lam in fit.eigenvalues]
    icc = sums[0] / (sum(sums) + fit.noise)
    _require(printed.strip() == f"{icc:.2f}", "icc_printed",
             f"printed {printed.strip()!r}, recomputed {icc:.6f}")
    _require(abs(icc_json["global_icc"] - icc) <= 1e-12, "icc_printed",
             f"icc.json {icc_json['global_icc']!r} vs recomputed {icc!r}")


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """V-statistic 2 E|a-b| - E|a-a'| - E|b-b'| from all pairwise gaps."""
    return float(2.0 * np.abs(a[:, None] - b[None, :]).mean()
                 - np.abs(a[:, None] - a[None, :]).mean()
                 - np.abs(b[:, None] - b[None, :]).mean())


def independent_statistic(method: str, a: np.ndarray, b: np.ndarray) -> float:
    if method == "energy":
        return energy_distance(a, b)
    if method == "ks":
        return float(stats.ks_2samp(a, b).statistic)
    return float(stats.cramervonmises_2samp(a, b).statistic)


def bh_adjust(p: np.ndarray) -> np.ndarray:
    m = p.size
    order = np.argsort(p, kind="stable")
    adj = np.empty(m)
    running = 1.0
    for rank in range(m, 0, -1):
        running = min(running, p[order[rank - 1]] * m / rank)
        adj[order[rank - 1]] = running
    return adj


def check_test(w: Workload, fit: FitFiles, report: dict, printed: str) -> None:
    per = report["per_score"]
    R = report["n_permutations"]
    _require(report["method"] == w.method and R == w.perms, "test_pvalues",
             f"report says method {report['method']!r}, {R} permutations")
    scores = fit.scores[1]
    _require(len(per) == scores.shape[1], "test_pvalues",
             f"{len(per)} components tested, {scores.shape[1]} retained")
    measure = fit.score_keys[1][:, 1]
    in_a = np.isin(measure, [int(g) for g in w.group_a])
    in_b = np.isin(measure, [int(g) for g in w.group_b])
    for k, r in enumerate(per):
        ref = independent_statistic(w.method, scores[in_a, k], scores[in_b, k])
        _require(abs(r["statistic"] - ref) <= STAT_RTOL * abs(ref) + STAT_ATOL,
                 "test_statistics_independent",
                 f"component {k + 1}: {r['statistic']!r} vs {ref!r}")
    raw = np.array([r["p_raw"] for r in per])
    counts = raw * (R + 1)
    _require(bool(np.all(np.abs(counts - np.round(counts)) <= 1e-9)
                  and np.all((counts > 0.5) & (counts < R + 1.5))),
             "test_pvalues", f"p-values off the 1/(R+1) lattice: {raw[:5]}")
    adjusted = np.array([r["p_adjusted"] for r in per])
    err = float(np.max(np.abs(adjusted - bh_adjust(raw))))
    _require(err <= BH_ATOL, "test_pvalues", f"BH adjustment off by {err:.3g}")
    _require(report["global_p"] == adjusted.min()
             and printed.strip() == f"{report['global_p']:.4f}",
             "test_pvalues", f"global p {report['global_p']!r}, printed {printed.strip()!r}")


def midranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def check_correlate(fit: FitFiles, covariate: np.ndarray, printed: str,
                    csv_text: str, level1_components: int) -> None:
    """covariate is the true level-1 score 1; the level has
    `level1_components` true components."""
    _require(printed.strip() == csv_text.strip(), "spearman_ranks",
             "stdout differs from score_correlation.csv")
    rows = list(csv.reader(io.StringIO(csv_text)))
    _require(rows[0] == ["component", "spearman_rho", "p_value"], "spearman_ranks",
             f"header {rows[0]}")
    scores = fit.scores[0]
    _require(len(rows) - 1 == scores.shape[1], "spearman_ranks",
             f"{len(rows) - 1} rows for {scores.shape[1]} components")
    order = fit.score_keys[0][:, 0] - 1
    rc = midranks(covariate[order])
    n = rc.size
    for k, row in enumerate(rows[1:]):
        rho, p = float(row[1]), float(row[2])
        ref = float(np.corrcoef(midranks(scores[:, k]), rc)[0, 1])
        _require(int(row[0]) == k + 1 and abs(rho - ref) <= 1e-9, "spearman_ranks",
                 f"component {k + 1}: rho {rho!r} vs ranks {ref!r}")
        t_stat = ref * np.sqrt((n - 2) / max(1e-300, 1.0 - ref * ref))
        p_ref = float(2.0 * stats.t.sf(abs(t_stat), n - 2))
        _require(abs(p - p_ref) <= 1e-9 + 1e-6 * p_ref, "spearman_ranks",
                 f"component {k + 1}: p {p!r} vs t-approximation {p_ref!r}")
    # the leading components may rotate within the level (see fit_measures),
    # so their rho are combined: sqrt(rho_1^2 + rho_2^2) stays near 1
    rho = np.array([float(row[1]) for row in rows[1 : 1 + level1_components]])
    combined = float(np.sqrt(np.sum(rho**2)))
    _require(combined >= RHO1_MIN, "level1_rho_vs_truth",
             f"rho of the leading level-1 components vs the true score 1 is "
             f"{combined:.3f} < {RHO1_MIN}")
