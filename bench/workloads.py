"""The benchmark's three workloads and the CLI arguments each one drives.

Every workload is a dataset drawn by the program's own Karhunen-Loeve
generator from a spec that the benchmark writes, with the generator seed
taken from the benchmark's ``--seed``. The truth per level is the Fourier
ladder the README of the package documents: level 1 holds sin/cos(2 pi t)
with eigenvalues (4, 2), level 2 sin/cos(4 pi t) with (2, 1), and the
three-level workload adds sin(6 pi t) with eigenvalue 1 at level 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

CHANNEL = "sim"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subjects: int
    measures: int
    replicates: int
    grid_points: int
    eigenvalues: tuple[tuple[float, ...], ...]
    noise_variance: float
    mean: str
    method: str
    group_a: tuple[str, ...]
    group_b: tuple[str, ...]
    perms: int

    @property
    def levels(self) -> int:
        return len(self.eigenvalues)

    def spec(self, seed: int) -> dict:
        return {
            "grid": {"m": self.grid_points},
            "design": {
                "subjects": self.subjects,
                "measures": self.measures,
                "replicates": self.replicates,
            },
            "mean": self.mean,
            "levels": [
                {"eigenvalues": list(lam), "basis": "fourier"}
                for lam in self.eigenvalues
            ],
            "noise_variance": self.noise_variance,
            "seed": seed,
        }

    def simulate_argv(self, spec_path: str, out_dir: str, seed: int) -> list[str]:
        return ["simulate", spec_path, "--out", out_dir, "--seed", str(seed),
                "--channel", CHANNEL]

    def fit_argv(self, data_csv: str, fit_dir: str) -> list[str]:
        return ["fit", data_csv, "--channel", CHANNEL,
                "--levels", str(self.levels), "--out", fit_dir]

    def test_argv(self, fit_dir: str, seed: int) -> list[str]:
        return ["test", fit_dir, "--group-a", *self.group_a,
                "--group-b", *self.group_b, "--method", self.method,
                "--perms", str(self.perms), "--seed", str(seed)]

    def correlate_argv(self, fit_dir: str, covariate_csv: str) -> list[str]:
        return ["correlate", fit_dir, "--covariate", covariate_csv, "--level", "1"]


_LEVEL1 = (4.0, 2.0)
_LEVEL2 = (2.0, 1.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="session-test",
            why="two-level n=200 J=4 m=101; the dense energy permutation test "
            "over 800 level-2 rows dominates, CSV parse is most of fit",
            subjects=200, measures=4, replicates=1, grid_points=101,
            eigenvalues=(_LEVEL1, _LEVEL2), noise_variance=1.0,
            mean="10*sin(2*pi*t)", method="energy",
            group_a=("1", "2"), group_b=("3", "4"), perms=999,
        ),
        Workload(
            name="stride-ingest",
            why="three-level n=100 J=2 K_rep=20 m=101, 404k CSV rows; CSV write "
            "and parse dominate, model and test stages are small",
            subjects=100, measures=2, replicates=20, grid_points=101,
            eigenvalues=(_LEVEL1, _LEVEL2, (1.0,)), noise_variance=0.25,
            mean="5*cos(2*pi*t)", method="cvm",
            group_a=("1",), group_b=("2",), perms=999,
        ),
        Workload(
            name="wide-grid",
            why="two-level n=100 J=4 m=801; O(m^2)/O(m^3) moments, smooth and "
            "eigensolve, ~170-component BLUP and ks test, largest fit and memory",
            subjects=100, measures=4, replicates=1, grid_points=801,
            eigenvalues=(_LEVEL1, _LEVEL2), noise_variance=1.0,
            mean="10*sin(2*pi*t)", method="ks",
            group_a=("1", "2"), group_b=("3", "4"), perms=199,
        ),
    )
}


def warmup_workload(w: Workload) -> Workload:
    """A tiny dataset of the same shape family, run once before timing so
    that lazy imports and first-call costs are paid outside the timed
    commands."""
    return replace(w, name=f"{w.name}-warmup", subjects=10,
                   replicates=min(w.replicates, 3), grid_points=21, perms=99)
