#!/usr/bin/env python3
"""Benchmark of the mfda command chain simulate -> fit -> icc -> test -> correlate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One run:

1. warm-up: the whole chain once on a tiny dataset, untimed;
2. whole rounds until ``--seconds`` have passed. A round runs
   ``simulate``, ``fit``, ``icc``, ``test`` and ``correlate`` through
   ``mfda.cli.main(argv)`` in this warm process, then ``mfda icc`` as a
   fresh ``python -m mfda.cli`` process. Every command is timed alone and
   its output checked after the timer stops. ``setup_s`` (simulate),
   ``fit_s``, ``test_s`` and ``cli_icc_s`` are medians over the rounds;
   spreading each metric's samples over the whole run averages out the
   seconds-long speed swings of a shared machine;
3. ``peak_rss_mb`` is this process's peak resident set.

With ``--trace 1`` the layer functions are wrapped (see tracing.py) and the
run reports per-layer metrics instead; spans are written to
``bench/_results/``. BLAS pools are pinned to one thread, the plain
single-threaded baseline; ``--blas-threads 0`` leaves the library default.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An operation is one command together with its
output checks; a command that errors counts as failed, an output that fails
a check makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed loop; whole rounds run until it has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS/OpenMP pool size for the program (0: library default)")
    return p.parse_args(argv)


def use_program(blas_threads: int) -> None:
    """Point this process and its children at src/ and size the BLAS pool;
    must run before numpy is first imported."""
    if blas_threads > 0:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(blas_threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfda" / "cli.py").is_file():
        print(f"error: no program sources at {SRC / 'mfda'}", file=sys.stderr)
        return 2
    use_program(args.blas_threads)
    import chain

    print(json.dumps(chain.run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
