"""One benchmark run: the command chain in rounds, its checks and metrics.

Imported by run.py only after the BLAS pool size and PYTHONPATH are set,
because numpy reads the pool size when it is first imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import mfda.cli
import mfda.mfpca
import numpy as np
import yaml
from mfda.leveltest import two_sample_score_test

from checks import (CheckFailed, check_correlate, check_fit, check_icc,
                    check_identical, check_test, digest, read_fit_files)
from tracing import Tracer
from workloads import WORKLOADS, Workload, warmup_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PAIRED_COMPONENTS = 2
PAIRED_PERMS = 199
SUBPROCESS_TIMEOUT = 120

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "test_s": "s",
    "cli_icc_s": "s",
    "peak_rss_mb": "MiB",
}

# spans whose self time, summed over one round, is reported as <name>_s
ROUND_LAYERS = (
    "simkl.generate",
    "ingest.write_long_csv",
    "ingest.read_long_csv",
    "ingest.write_fit",
    "ingest.read_fit",
    "core.center_rows",
    "mfpca.canonical_design",
    "mfpca.covariances",
    "fpca.smooth_covariance",
    "fpca.eigendecompose",
    "mfpca.blup_scores",
    "mfpca.fit_nested",
    "leveltest.two_sample_score_test",
    "icc.icc_report",
    "leveltest.score_covariate_correlation",
)

PER_LAYER = {
    "cli.import_s": "s",
    **{f"{name}_s": "s" for name in ROUND_LAYERS},
    "leveltest.paired_s": "s",
    "ingest.rows_per_s": "rows/s",
    "ingest.fit_dir_bytes": "bytes",
    "fpca.retained_level1": "count",
    "fpca.retained_level2": "count",
    "fpca.retained_level3": "count",
    "leveltest.permutation_stats_per_s": "1/s",
    "traced.fit_s": "s",
    "traced.test_s": "s",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mfda.cli; "
    "print(time.perf_counter() - t)"
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def write_spec(w: Workload, path: Path, seed: int) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(w.spec(seed)), encoding="utf-8")
    return path


def write_covariate(truth: dict, path: Path) -> np.ndarray:
    """subject,value with value = the subject's true level-1 score 1."""
    values = np.asarray(truth["scores"][0])[:, 0]
    lines = ["subject,value"] + [f"{i},{float(v)!r}" for i, v in enumerate(values, start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return values


class Chain:
    """Runs and checks the commands of one workload; counts operations."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 tracer: Optional[Tracer] = None):
        self.w = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.data_dir = work / "data"
        self.fit_dir = work / "fit"
        self.covariate_csv = work / "covariate.csv"
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: dict[str, list[float]] = {}
        self.truth: dict = {}
        self.covariate = None
        self.fit_files = None
        self.spec_path = write_spec(workload, work / "spec.yaml", seed)
        self._data_digest = ""
        self._fit_digest = ""

    # -- one operation ------------------------------------------------------

    def run_cli(self, kind: str, argv: list[str], check=None, record=True):
        """One in-process command, timed, then its output checks (untimed)."""
        self.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = mfda.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed command, not a crash
            log(traceback.format_exc())
            rc = 1
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            log(f"FAILED {kind} (exit {rc}): {' '.join(argv)}")
            return None
        if record:
            self.times.setdefault(kind, []).append(elapsed)
        if check is not None:
            try:
                check(out.getvalue())
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                # an output that cannot be read back is as wrong as a bad value
                self.correct = False
                log(f"CHECK {kind}: {exc!r}")
        return out.getvalue()

    def run_fresh(self, kind: str, args: list[str], check):
        """One command as a fresh interpreter process, timed from outside."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], capture_output=True,
                                  text=True, timeout=SUBPROCESS_TIMEOUT, cwd=ROOT)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            self.failed += 1
            log(f"FAILED {kind}: no exit within {SUBPROCESS_TIMEOUT} s")
            return None
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            log(f"FAILED {kind} (exit {proc.returncode}): {proc.stderr.strip()}")
            return None
        self.times.setdefault(kind, []).append(elapsed)
        try:
            ok = check(proc.stdout)
        except ValueError:
            ok = False
        if not ok:
            self.correct = False
            log(f"CHECK {kind}: unexpected output {proc.stdout!r}")
        return proc.stdout

    # -- phases -------------------------------------------------------------

    def warm_up(self) -> None:
        tiny = warmup_workload(self.w)
        d = self.work / "warmup"
        spec = write_spec(tiny, d / "spec.yaml", 0)
        self.run_cli("warmup", tiny.simulate_argv(str(spec), str(d / "data"), 0),
                     record=False)
        cov = d / "covariate.csv"
        write_covariate(json.loads((d / "data" / "truth.json").read_text()), cov)
        fit = str(d / "fit")
        for argv in (tiny.fit_argv(str(d / "data" / "data.csv"), fit), ["icc", fit],
                     tiny.test_argv(fit, 0), tiny.correlate_argv(fit, str(cov))):
            self.run_cli("warmup", argv, record=False)

    def chain_round(self) -> None:
        """simulate -> fit -> icc -> test -> correlate in this process, then
        one command as a fresh process; every output checked."""
        if self.run_cli("simulate", self.w.simulate_argv(
                str(self.spec_path), str(self.data_dir), self.seed),
                check=self._check_data) is None:
            return
        if self.covariate is None:
            self.truth = json.loads((self.data_dir / "truth.json").read_text())
            self.covariate = write_covariate(self.truth, self.covariate_csv)
        shutil.rmtree(self.fit_dir, ignore_errors=True)
        fit = str(self.fit_dir)
        self.fit_files = None
        if self.run_cli("fit", self.w.fit_argv(str(self.data_dir / "data.csv"), fit),
                        check=self._check_fit) is None or self.fit_files is None:
            return
        icc = self.run_cli("icc", ["icc", fit], check=lambda out: check_icc(
            self.fit_files, out, json.loads((self.fit_dir / "icc.json").read_text())))
        self.run_cli("test", self.w.test_argv(fit, self.seed), check=lambda out: check_test(
            self.w, self.fit_files, json.loads((self.fit_dir / "test_report.json").read_text()),
            out))
        self.run_cli("correlate", self.w.correlate_argv(fit, str(self.covariate_csv)),
                     check=lambda out: check_correlate(
                         self.fit_files, self.covariate, out,
                         (self.fit_dir / "score_correlation.csv").read_text(),
                         len(self.w.eigenvalues[0])))
        if self.tracer is None:
            expected = (icc or "").strip()
            self.run_fresh("cli_icc", ["-m", "mfda.cli", "icc", fit],
                           check=lambda out: out.strip() == expected != "")
        else:
            text = self.run_fresh("cli_import", ["-c", IMPORT_PROBE],
                                  check=lambda out: float(out) > 0.0)
            if text is not None:
                self.times.setdefault("import", []).append(float(text))

    def set_round(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.round = label

    def paired_slice(self) -> None:
        """paired=True on the first level-2 components of the two groups; the
        CLI cannot reach this design, so it is called as a library function."""
        self.attempted += 1
        if self.fit_files is None:
            self.failed += 1
            return
        scores = self.fit_files.scores[1][:, :PAIRED_COMPONENTS]
        measure = self.fit_files.score_keys[1][:, 1]
        a = scores[np.isin(measure, [int(g) for g in self.w.group_a])]
        b = scores[np.isin(measure, [int(g) for g in self.w.group_b])]
        n = min(len(a), len(b))
        self.set_round("paired")
        span = self.tracer.open("leveltest.paired")
        try:
            report = two_sample_score_test(a[:n], b[:n], method=self.w.method,
                                           n_permutations=PAIRED_PERMS,
                                           seed=self.seed, paired=True)
        finally:
            self.tracer.close(span)
        counts = report.raw_pvalues() * (PAIRED_PERMS + 1)
        if not np.allclose(counts, np.round(counts), rtol=0, atol=1e-9):
            self.correct = False
            log(f"CHECK paired: p-values off the lattice {report.raw_pvalues()}")

    # -- checks and inputs -------------------------------------------------

    def _check_data(self, _out: str) -> None:
        d = digest([self.data_dir / "data.csv", self.data_dir / "truth.json"])
        self._data_digest = self._data_digest or d
        check_identical("simulate_bytes_identical", d, self._data_digest)

    def _check_fit(self, _out: str) -> None:
        d = digest(p for p in self.fit_dir.iterdir() if p.is_file())
        self._fit_digest = self._fit_digest or d
        check_identical("fit_bytes_identical", d, self._fit_digest)
        self.fit_files = read_fit_files(self.fit_dir, self.w.levels)
        check_fit(self.w, self.fit_files, self.truth)


def _median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end_metrics(chain: Chain) -> dict:
    values = {
        "setup_s": _median(chain.times["simulate"]),
        "fit_s": _median(chain.times["fit"]),
        "test_s": _median(chain.times["test"]),
        "cli_icc_s": _median(chain.times["cli_icc"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(chain: Chain, tracer: Tracer, rounds: list[str]) -> dict:
    """Medians over rounds of each layer's per-round self time and counts;
    a layer the round never entered reads 0."""
    self_time = tracer.self_times()

    def per_round(name: str) -> list[float]:
        return [self_time.get((r, name), 0.0) for r in rounds]

    def count_per_round(name: str, key: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for r, c in tracer.counts(name, key):
            out[r] = out.get(r, 0.0) + c
        return out

    values = {"cli.import_s": _median(chain.times["import"])}
    for name in ROUND_LAYERS:
        values[f"{name}_s"] = _median(per_round(name))
    values["leveltest.paired_s"] = self_time.get(("paired", "leveltest.paired"), 0.0)
    rows = count_per_round("ingest.read_long_csv", "rows")
    values["ingest.rows_per_s"] = _median(
        [rows[r] / t for r, t in zip(rounds, per_round("ingest.read_long_csv"))])
    values["ingest.fit_dir_bytes"] = _median(
        count_per_round("ingest.write_fit", "bytes").values())
    for level in (1, 2, 3):
        got = count_per_round("mfpca.fit_nested", f"retained_level{level}")
        values[f"fpca.retained_level{level}"] = _median(got.values()) if got else 0.0
    stats_done = count_per_round("leveltest.two_sample_score_test", "stats")
    values["leveltest.permutation_stats_per_s"] = _median(
        [stats_done[r] / t for r, t in
         zip(rounds, per_round("leveltest.two_sample_score_test"))])
    values["traced.fit_s"] = _median(chain.times["fit"])
    values["traced.test_s"] = _median(chain.times["test"])
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    chain = Chain(w, args.seed, work, tracer)

    try:
        chain.warm_up()
        if tracer is not None:
            tracer.install({"mfda.cli": mfda.cli, "mfda.mfpca": mfda.mfpca})
        rounds: list[str] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(f"r{len(rounds) + 1}")
            chain.set_round(rounds[-1])
            chain.chain_round()
        if tracer is None:
            metrics = end_to_end_metrics(chain)
        else:
            chain.paired_slice()
            tracer.uninstall()
            metrics = per_layer_metrics(chain, tracer, rounds)
            tracer.dump(BENCH / "_results" / f"trace-{w.name}-seed{args.seed}.json")
        log(f"{w.name} seed {args.seed}: {len(rounds)} rounds, "
            f"{chain.attempted} operations, {chain.failed} failed")
        for kind, ts in chain.times.items():
            log(f"  {kind}: " + " ".join(f"{t:.3f}" for t in ts))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return {"correct": chain.correct, "attempted": chain.attempted,
            "failed": chain.failed, "metrics": metrics}


