"""Synthetic-data generator: determinism, model identities, basis checks."""

import numpy as np
import pytest
import yaml

from mfda.core import Grid
from mfda.errors import InvalidBasisError, InvalidParameterError, ParseError
from mfda.simkl import (
    evaluate_expression,
    fourier_basis,
    generate,
    load_spec,
    spec_from_dict,
)

from .conftest import n2_spec, n2_spec_dict, n3_spec, n3_spec_dict


def _draw_scores(rng, eigenvalues, size, df):
    sd = np.sqrt(eigenvalues)
    if df is None:
        z = rng.standard_normal((size, eigenvalues.size))
    else:
        z = rng.standard_t(df, (size, eigenvalues.size)) * np.sqrt((df - 2.0) / df)
    return z * sd


def _reference_generate(spec):
    """The generator as a plain loop over subject, measure and replicate: one
    score draw per unit and one curve product per row, in the documented
    draw order. Returns (codes, scores, level_curves, values)."""
    n, J, K_rep = spec.n_subjects, spec.n_measures, spec.n_replicates
    m, n_levels = spec.grid.size, len(spec.levels)
    base = spec.mean if spec.measure_means is None else spec.mean + spec.measure_means
    base = np.broadcast_to(base, (J, m))
    scores = [[] for _ in spec.levels]
    values, codes = [], []
    for child in np.random.SeedSequence(spec.seed).spawn(n):
        rng = np.random.default_rng(child)
        rows = []
        c = _draw_scores(rng, spec.levels[0].eigenvalues, 1, spec.score_df)[0]
        scores[0].append(c)
        z_curve = spec.levels[0].functions @ c
        for j in range(J):
            w_curve = np.zeros(m)
            if n_levels >= 2:
                d = _draw_scores(rng, spec.levels[1].eigenvalues, 1, spec.score_df)[0]
                if spec.level2_shift is not None:
                    d = d + spec.level2_shift[j]
                scores[1].append(d)
                w_curve = spec.levels[1].functions @ d
            for _ in range(K_rep):
                curve = base[j] + z_curve + w_curve
                if n_levels == 3:
                    u = _draw_scores(rng, spec.levels[2].eigenvalues, 1, spec.score_df)[0]
                    scores[2].append(u)
                    curve = curve + spec.levels[2].functions @ u
                rows.append(curve)
        rows = np.array(rows)
        if spec.noise_variance > 0:
            rows = rows + rng.normal(0.0, np.sqrt(spec.noise_variance), rows.shape)
        values.append(rows)
    for i in range(1, n + 1):
        for j in range(1, J + 1):
            for k in range(1, K_rep + 1):
                codes.append((i, j, k))
    scores = [np.array(s) for s in scores]
    curves = [s @ lvl.functions.T for s, lvl in zip(scores, spec.levels)]
    return np.array(codes), scores, curves, np.concatenate(values)


ORACLE_SPECS = {
    "n2": n2_spec_dict(3, n=6, J=3, m=21),
    "n3": n3_spec_dict(4, n=4, J=2, K_rep=3, m=21),
    "student_t": {
        **n2_spec_dict(5, n=6, J=2, m=21),
        "score_distribution": {"kind": "student_t", "df": 5},
    },
    "level2_shift": {**n2_spec_dict(6, n=6, J=3, m=21), "level2_shift": {"2": [1.5, -0.5]}},
    "noise_free_measure_means": {
        **n2_spec_dict(7, n=5, J=2, m=21, noise=0.0),
        "measure_means": ["0.5*cos(2*pi*t)", "-0.5*cos(2*pi*t)"],
    },
    "one_level": {
        **n2_spec_dict(8, n=5, J=3, m=21),
        "levels": [{"eigenvalues": [4.0, 2.0], "basis": "fourier"}],
    },
}


class TestFourierBasis:
    def test_first_function_normalized(self, uniform_grid):
        basis = fourier_basis(uniform_grid, 1)
        norm = np.sum(uniform_grid.weights * basis[:, 0] ** 2)
        assert norm == pytest.approx(1.0, abs=1e-3)

    def test_cross_orthogonality(self, uniform_grid):
        basis = fourier_basis(uniform_grid, 2)
        ip = np.sum(uniform_grid.weights * basis[:, 0] * basis[:, 1])
        assert abs(ip) < 1e-3

    def test_gram_near_identity(self, uniform_grid):
        basis = fourier_basis(uniform_grid, 4)
        gram = basis.T @ (uniform_grid.weights[:, None] * basis)
        assert np.linalg.norm(gram - np.eye(4)) < 5e-3

    def test_count_validation(self, uniform_grid):
        with pytest.raises(InvalidParameterError):
            fourier_basis(uniform_grid, 0)


class TestExpressions:
    def test_scalar_broadcast(self, small_grid):
        out = evaluate_expression("1.5", small_grid.points)
        np.testing.assert_array_equal(out, 1.5)

    def test_trig(self, small_grid):
        out = evaluate_expression("sin(2*pi*t)", small_grid.points)
        np.testing.assert_allclose(out, np.sin(2 * np.pi * small_grid.points))

    def test_bad_expression(self, small_grid):
        with pytest.raises(ParseError):
            evaluate_expression("nope(t)", small_grid.points)
        with pytest.raises(ParseError):
            evaluate_expression("import os", small_grid.points)

    def test_grammar(self, small_grid):
        t = small_grid.points
        out = evaluate_expression("-2**2 + abs(-t)/4 - exp(t)*sqrt(t) + +pi", t)
        np.testing.assert_allclose(out, -4 + t / 4 - np.exp(t) * np.sqrt(t) + np.pi)
        np.testing.assert_array_equal(evaluate_expression("10**2", t), 100.0)

    @pytest.mark.parametrize(
        "expr",
        [
            "9**9**9",
            "().__class__.__base__.__subclasses__().__len__()",
            "__import__('os').getcwd()",
            "t.__class__",
            "sin.__self__",
            "sin(t, t)",
            "sin(x=t)",
            "sin(*t)",
            "t % 2",
            "t if t else 0",
            "True",
            "'text'",
            "1j",
            "log(t)",
            "sqrt(t - 2)",
            "1/0",
            "1" + "0" * 400,
            "(" * 300 + "t" + ")" * 300,
            "-" * 100000 + "1",
            "+".join(["t"] * 20000),
        ],
    )
    def test_rejected(self, small_grid, expr):
        with pytest.raises(ParseError):
            evaluate_expression(expr, small_grid.points)


class TestGenerate:
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_matches_reference_loop(self, name):
        spec = spec_from_dict(ORACLE_SPECS[name])
        X, truth = generate(spec)
        codes, scores, curves, values = _reference_generate(spec)
        assert len(truth.scores) == len(scores) == len(spec.levels)
        for got, want in zip(truth.scores, scores):
            assert np.array_equal(got, want)
        for got, want in zip(truth.level_curves, curves):
            assert np.array_equal(got, want)
        assert np.array_equal(X.codes, codes)
        np.testing.assert_allclose(X.values, values, rtol=0, atol=1e-13)
        if spec.noise_variance == 0:
            assert np.array_equal(X.values, truth.noiseless)

    def test_zero_variance_returns_means_exactly(self):
        spec = spec_from_dict(
            {
                "grid": {"m": 21},
                "design": {"subjects": 3, "measures": 2, "replicates": 1},
                "mean": "2*sin(2*pi*t)",
                "measure_means": ["0.5*cos(2*pi*t)", "-0.5*cos(2*pi*t)"],
                "levels": [
                    {"eigenvalues": [0.0], "basis": "fourier"},
                    {"eigenvalues": [0.0], "basis": "fourier"},
                ],
                "noise_variance": 0.0,
                "seed": 4,
            }
        )
        X, truth = generate(spec)
        t = spec.grid.points
        mu = 2 * np.sin(2 * np.pi * t)
        nus = [0.5 * np.cos(2 * np.pi * t), -0.5 * np.cos(2 * np.pi * t)]
        for j, row in zip(X.codes[:, 1].tolist(), X.values):
            np.testing.assert_array_equal(row, mu + nus[j - 1])

    def test_score_variance_law_of_large_numbers(self):
        spec = n2_spec(808, n=2000, J=2, m=51)
        _, truth = generate(spec)
        var = truth.scores[0].var(axis=0)
        np.testing.assert_allclose(var, [4.0, 2.0], rtol=0.10)

    def test_analytic_icc_plugin(self):
        spec = n2_spec(1, lam1=(4.0, 2.0), lam2=(2.0, 1.0), noise=1.0)
        assert spec.analytic_icc() == pytest.approx(0.6)
        spec3 = n3_spec(1, lam1=(6.0,), lam2=(3.0,), lam3=(0.5,), noise=0.5)
        assert spec3.analytic_icc() == pytest.approx(0.6)

    def test_bitwise_reproducible(self):
        a, _ = generate(n2_spec(99, n=5, J=2, m=21))
        b, _ = generate(n2_spec(99, n=5, J=2, m=21))
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a, _ = generate(n2_spec(1, n=5, J=2, m=21))
        b, _ = generate(n2_spec(2, n=5, J=2, m=21))
        assert not np.array_equal(a.values, b.values)

    def test_model_identity_exact(self):
        spec = n3_spec(31, n=4, J=2, K_rep=3, m=21)
        X, truth = generate(spec)
        # the noiseless part decomposes into the stored level curves
        J, K = spec.n_measures, spec.n_replicates
        for row, (i, j, k) in enumerate(X.codes.tolist()):
            assembled = (
                spec.mean
                + truth.level_curves[0][i - 1]
                + truth.level_curves[1][(i - 1) * J + (j - 1)]
                + truth.level_curves[2][row]
            )
            assert np.array_equal(assembled, truth.noiseless[row])

    def test_level2_shift_moves_scores(self):
        data = n2_spec_dict(77, n=400, J=2, m=21)
        data["level2_shift"] = {"2": [3.0, 0.0]}
        spec = spec_from_dict(data)
        _, truth = generate(spec)
        d = truth.scores[1]
        measure = np.tile([1, 2], 400)
        m1 = d[measure == 1, 0].mean()
        m2 = d[measure == 2, 0].mean()
        assert m2 - m1 == pytest.approx(3.0, abs=0.3)

    def test_student_t_scores_match_variance(self):
        data = n2_spec_dict(55, n=3000, J=2, m=21)
        data["score_distribution"] = {"kind": "student_t", "df": 6}
        spec = spec_from_dict(data)
        _, truth = generate(spec)
        np.testing.assert_allclose(
            truth.scores[0].var(axis=0), [4.0, 2.0], rtol=0.15
        )

    def test_non_orthonormal_basis_rejected(self):
        grid = Grid.uniform(21)
        bad = np.ones((21, 1))  # norm 1 in L2 but paired with itself twice
        data = {
            "grid": {"m": 21},
            "design": {"subjects": 2, "measures": 2, "replicates": 1},
            "mean": 0.0,
            "levels": [
                {
                    "eigenvalues": [1.0, 1.0],
                    "basis": [list(np.ones(21)), list(np.ones(21) * 1.0)],
                },
                {"eigenvalues": [1.0], "basis": "fourier"},
            ],
            "noise_variance": 0.0,
            "seed": 1,
        }
        with pytest.raises(InvalidBasisError) as err:
            spec_from_dict(data)
        assert "Gram" in str(err.value)

    def test_design_validation(self):
        bad = n3_spec_dict(1, K_rep=1)
        with pytest.raises(InvalidParameterError):
            spec_from_dict(bad)


class TestSpecFiles:
    def test_yaml_round_trip(self, tmp_path):
        spec = n2_spec(13, n=4, J=2, m=21)
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(dict(spec.raw), sort_keys=True))
        loaded = load_spec(path)
        assert loaded.seed == spec.seed
        assert loaded.n_subjects == spec.n_subjects
        np.testing.assert_array_equal(loaded.mean, spec.mean)
        for a, b in zip(loaded.levels, spec.levels):
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.functions, b.functions)
        a_curves, _ = generate(spec)
        b_curves, _ = generate(loaded)
        assert np.array_equal(a_curves.values, b_curves.values)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"grid": {"m": 21}}))
        with pytest.raises(ParseError):
            load_spec(path)
