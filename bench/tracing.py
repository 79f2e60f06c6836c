"""Timing spans around the program's layer functions, installed from outside.

The traced pass replaces each listed function with a wrapper on the module
that calls it (``mfda.cli.read_long_csv``, ``mfda.mfpca.blup_scores``, ...),
so the program itself is unchanged. Every call records a span with its name,
start, end, parent span and the round it ran in, plus counts taken from the
call's arguments or result after the span has closed. Spans stay in memory
until the pass writes them out. A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    round: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _rows(args, kwargs, result) -> dict:
    return {"rows": result[1].n_rows}


def _retained(args, kwargs, result) -> dict:
    return {f"retained_level{l}": k for l, k in enumerate(result.retained, start=1)}


def _fit_bytes(args, kwargs, result) -> dict:
    return {"bytes": _dir_bytes(result)}


def _stats(args, kwargs, result) -> dict:
    return {"stats": result.n_permutations * len(result.per_score)}


# (module, attribute, span name, counts taken from the call)
LAYERS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("mfda.cli", "generate", "simkl.generate", None),
    ("mfda.cli", "write_long_csv", "ingest.write_long_csv", None),
    ("mfda.cli", "read_long_csv", "ingest.read_long_csv", _rows),
    ("mfda.cli", "fit_nested", "mfpca.fit_nested", _retained),
    ("mfda.cli", "write_fit", "ingest.write_fit", _fit_bytes),
    ("mfda.cli", "read_fit", "ingest.read_fit", None),
    ("mfda.cli", "icc_report", "icc.icc_report", None),
    ("mfda.cli", "two_sample_score_test", "leveltest.two_sample_score_test", _stats),
    ("mfda.cli", "score_covariate_correlation",
     "leveltest.score_covariate_correlation", None),
    ("mfda.mfpca", "center_rows", "core.center_rows", None),
    ("mfda.mfpca", "canonical_design", "mfpca.canonical_design", None),
    ("mfda.mfpca", "two_level_covariances", "mfpca.covariances", None),
    ("mfda.mfpca", "three_level_covariances", "mfpca.covariances", None),
    ("mfda.mfpca", "smooth_covariance", "fpca.smooth_covariance", None),
    ("mfda.mfpca", "eigendecompose", "fpca.eigendecompose", None),
    ("mfda.mfpca", "blup_scores", "mfpca.blup_scores", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = "setup"
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self._t0 = time.perf_counter()

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every layer function the given modules still expose."""
        for mod_name, attr, name, counts in LAYERS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self._wrap(original, name, counts))
                self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, name: str, counts: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result

        return traced

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.round,
                    time.perf_counter() - self._t0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        self._stack.pop()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time summed per (round, span name)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[tuple[str, str], float] = {}
        for s in self.spans:
            key = (s.round, s.name)
            out[key] = out.get(key, 0.0) + (s.end - s.start) - child_time[s.id]
        return out

    def counts(self, name: str, key: str) -> list[tuple[str, float]]:
        """(round, count) for every span of this name that recorded `key`."""
        return [(s.round, s.counts[key]) for s in self.spans
                if s.name == name and key in s.counts]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
