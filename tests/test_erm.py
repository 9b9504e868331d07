import re

import numpy as np
import pytest

from wdlearn.cylinder import grid_gradients
from wdlearn.erm import (
    CylinderSubspace,
    as_weight_matrix,
    add_noise,
    assemble,
    bound_rhs,
    c_delta,
    chernoff_deviation_bound,
    condition_check,
    _probes_do_not_descend,
    double_orthogonalize,
    solve_regularized,
    truncate_values,
)
from wdlearn.errors import RankDeficient
from wdlearn.measures import DiscreteMeasure, GroundSpace

from .helpers import assert_close_at_scale, grid_population, smooth_feature_subspace


def pairings_by_hand(fields, W, weights):
    """``sum_j w_j sum_x mu_j(x) <g_i(x), g_h(x)>`` by explicit loops over
    the basis fields ``g`` and the sample measures."""
    n = len(fields)
    out = np.zeros((n, n))
    for i in range(n):
        for h in range(n):
            dots = (fields[i] * fields[h]).sum(axis=1)
            out[i, h] = sum(wj * np.dot(mu, dots) for wj, mu in zip(weights, W))
    return out


@pytest.fixture(scope="module")
def population():
    ground, pop = grid_population(shape=(6,), size=120, seed=3)
    return ground, pop


@pytest.fixture(scope="module")
def ortho(population):
    ground, pop = population
    raw = smooth_feature_subspace(ground, 3, seed=5)
    return double_orthogonalize(raw, pop)


class TestDoubleOrthogonalize:
    def test_n1_is_l2_normalization(self, population):
        ground, pop = population
        raw = CylinderSubspace(ground, ground.points[:, 0][None, :] / 5.0)
        ortho = double_orthogonalize(raw, pop)
        vals = ortho.evaluate(pop)
        assert np.mean(vals[:, 0] ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_gram_conditions(self, population, ortho):
        _, pop = population
        A = ortho.l2_gram(pop)
        B = ortho.energy_gram(pop)
        np.testing.assert_allclose(A, np.eye(3), atol=1e-8)
        off = B - np.diag(np.diag(B))
        assert np.abs(off).max() < 1e-8

    def test_already_orthogonal_stays_orthogonal(self, population, ortho):
        _, pop = population
        again = double_orthogonalize(ortho, pop)
        np.testing.assert_allclose(again.l2_gram(pop), np.eye(3), atol=1e-8)

    def test_grams_verified_by_generic_quadratures(self, population, ortho):
        # independent slow path: each basis function evaluated measure by
        # measure, and each field on its own, paired by explicit loops,
        # must reproduce the fast Grams
        ground, pop = population
        feats = ortho.features
        n = len(feats)
        fields = [grid_gradients(ground, f) for f in feats]
        W = as_weight_matrix(pop)
        energy = pairings_by_hand(fields, W, np.full(len(pop), 1.0 / len(pop)))
        values = np.array([[f @ mu.weights for f in feats] for mu in pop])
        for i in range(n):
            for j in range(n):
                l2 = float(np.mean(values[:, i] * values[:, j]))
                expected = 1.0 if i == j else 0.0
                assert l2 == pytest.approx(expected, abs=1e-8)
                if i != j:
                    assert energy[i, j] == pytest.approx(0.0, abs=1e-8)

    def test_rank_deficient_raises(self, population):
        ground, pop = population
        f = ground.points[:, 0][None, :]
        raw = CylinderSubspace(ground, np.vstack([f, 2.0 * f]))
        with pytest.raises(RankDeficient) as exc:
            double_orthogonalize(raw, pop)
        assert exc.value.rank == 1

    def test_a_nan_quadrature_weight_is_named(self):
        # NaN < 0 is false: a NaN weight once reached the Grams and read as
        # a rank-0 basis, or as NaN energies without an error
        ground = GroundSpace.grid((5,))
        rng = np.random.default_rng(8)
        raw = CylinderSubspace(ground, rng.standard_normal((2, 5)))
        sample = [DiscreteMeasure(ground, rng.dirichlet(np.ones(5))) for _ in range(20)]
        w = np.full(20, 1.0 / 20)
        w[7] = np.nan
        for solve in (double_orthogonalize, CylinderSubspace.energies):
            with pytest.raises(ValueError, match="^quadrature weights must be nonnegative") as exc:
                solve(raw, sample, w)
            assert not isinstance(exc.value, RankDeficient)


class TestEnergyPairings:
    """The energy Gram and the energies pair the basis fields through
    ``field_pairing``; both are checked against a quadrature written out by
    hand, with non-uniform weights, on a raw basis (non-zero off-diagonals)."""

    @pytest.fixture(scope="class")
    def raw(self, population):
        return smooth_feature_subspace(population[0], 3, seed=5)

    @pytest.fixture(scope="class")
    def weights(self, population):
        return np.random.default_rng(21).uniform(0.1, 2.0, size=len(population[1]))

    @pytest.fixture(scope="class")
    def by_hand(self, population, raw, weights):
        return pairings_by_hand(raw.basis_fields(), as_weight_matrix(population[1]), weights)

    def test_energy_gram_against_hand_quadrature(self, population, raw, weights, by_hand):
        assert_close_at_scale(raw.energy_gram(population[1], weights), by_hand)

    def test_energies_are_the_gram_diagonal(self, population, raw, weights, by_hand):
        energies = raw.energies(population[1], weights)
        np.testing.assert_allclose(
            energies, np.diag(raw.energy_gram(population[1], weights)), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(energies, np.diag(by_hand), rtol=1e-12)


class TestAssemble:
    def test_zero_values_zero_rhs(self, population, ortho):
        _, pop = population
        sys = assemble(ortho, pop, np.zeros(len(pop)), lam=0.1)
        np.testing.assert_allclose(sys.yF, 0.0)

    def test_constant_basis_mean_rhs(self):
        ground = GroundSpace.grid((4,))
        sub = CylinderSubspace(ground, np.ones((1, 4)))
        mus = [
            DiscreteMeasure(ground, [0.25, 0.25, 0.25, 0.25]),
            DiscreteMeasure(ground, [0.7, 0.1, 0.1, 0.1]),
        ]
        sys = assemble(sub, mus, np.array([3.0, 5.0]), lam=0.0)
        np.testing.assert_allclose(sys.yF, [(3.0 + 5.0) / 2.0])

    @pytest.mark.parametrize(
        "lam, n_values, message",
        [
            (-1.0, None, "lambda must be finite and nonnegative, got -1.0"),
            (np.nan, None, "lambda must be finite and nonnegative, got nan"),
            (np.inf, None, "lambda must be finite and nonnegative, got inf"),
            (0.1, -1, "one target value per sample measure is required"),
        ],
        ids=["negative", "nan", "inf", "short-values"],
    )
    def test_rejects_a_bad_lambda_or_value_count(self, population, ortho, lam, n_values, message):
        _, pop = population
        with pytest.raises(ValueError, match=re.escape(message)):
            assemble(ortho, pop, np.zeros(len(pop))[:n_values], lam=lam)

    def test_rank_checked_at_fit_time(self, population):
        ground, pop = population
        f = ground.points[:, 0][None, :]
        dependent = CylinderSubspace(ground, np.vstack([f, 2.0 * f]))
        with pytest.raises(RankDeficient):
            assemble(dependent, pop, np.zeros(len(pop)), lam=0.0)

    def test_a_near_dependent_basis_is_refused_as_in_double_orthogonalize(self):
        # a third feature 1e-9 off the first, so the evaluations' singular
        # values span 4e-10: both steps of a fit read one rank and refuse it
        ground = GroundSpace.grid((4, 4))
        rng = np.random.default_rng(0)
        sample = [DiscreteMeasure(ground, w) for w in rng.dirichlet(np.ones(16), size=40)]
        f = rng.standard_normal((2, 16))
        basis = CylinderSubspace(ground, np.vstack([f, f[0] + 1e-9 * rng.standard_normal(16)]))
        for check in (
            lambda: double_orthogonalize(basis, sample),
            lambda: assemble(basis, sample, np.zeros(40), lam=0.0),
        ):
            with pytest.raises(RankDeficient) as exc:
                check()
            assert exc.value.rank == 2

    def test_expected_gram_is_identity(self, population, ortho):
        # resampling Monte Carlo for the mean of L^T L
        _, pop = population
        rng = np.random.default_rng(11)
        W = np.array([mu.weights for mu in pop])
        N, reps = 40, 200
        grams = []
        for _ in range(reps):
            idx = rng.integers(0, len(pop), size=N)
            E = ortho.evaluate(W[idx])
            grams.append(E.T @ E / N)
        grams = np.array(grams)
        mean = grams.mean(axis=0)
        se = grams.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(mean - np.eye(3)) <= 3.0 * se + 1e-12)


class TestSolve:
    def test_identity_gram_returns_rhs(self, population, ortho):
        _, pop = population
        vals = np.linspace(-1.0, 1.0, len(pop))
        sys = assemble(ortho, pop, vals, lam=0.0)
        # on the orthogonalizing sample itself, L^T L is exactly I
        fit = solve_regularized(ortho, sys)
        np.testing.assert_allclose(fit.coefficients, sys.yF, atol=1e-10)

    def test_scalar_arithmetic_case(self):
        from wdlearn.erm import GramSystem

        sys = GramSystem(
            L=np.array([[1.0]]),
            D=np.array([[1.0]]),
            lam=1.0,
            yF=np.array([2.0]),
            values_sq_mean=4.0,
        )
        ground = GroundSpace.grid((2,))
        sub = CylinderSubspace(ground, np.ones((1, 2)))
        fit = solve_regularized(sub, sys)
        np.testing.assert_allclose(fit.coefficients, [1.0])

    def test_singular_system_is_solved_with_jitter(self):
        from wdlearn.erm import GramSystem

        # L^T L = [[1, 1], [1, 1]] has an exact zero pivot; the jitter
        # 1e-12 * trace / n = 1e-12 gives the minimum-norm solution
        sys = GramSystem(L=np.ones((1, 2)), D=np.zeros((2, 2)), lam=0.0, yF=np.ones(2))
        fit = solve_regularized(CylinderSubspace(GroundSpace.grid((2,)), np.eye(2)), sys)
        assert fit.diagnostics["jitter"] == 1e-12
        np.testing.assert_allclose(fit.coefficients, [0.5, 0.5], rtol=1e-10)

    def test_in_span_recovery(self, population, ortho):
        _, pop = population
        w_true = np.array([0.4, -0.9, 0.25])
        vals = ortho.evaluate(pop) @ w_true
        fit = solve_regularized(ortho, assemble(ortho, pop, vals, lam=0.0))
        assert np.abs(fit.predict(pop) - vals).max() < 1e-8

    def test_residual_invariant_and_diagnostics(self, population, ortho):
        _, pop = population
        rng = np.random.default_rng(2)
        vals = rng.normal(size=len(pop))
        fit = solve_regularized(ortho, assemble(ortho, pop, vals, lam=0.01))
        assert fit.diagnostics["residual"] <= 1e-10 * (
            1.0 + np.linalg.norm(fit.system.yF)
        )
        assert fit.diagnostics["local_optimum"]

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-1])
    def test_local_optimum_verdict_matches_probe_loop(self, population, ortho, lam):
        _, pop = population
        vals = np.random.default_rng(6).normal(size=len(pop))
        system = assemble(ortho, pop, vals, lam=lam)
        fit = solve_regularized(ortho, system)
        M = system.normal_matrix

        def probe_loop(w):
            # reference: 2n objective evaluations at coordinate steps
            obj = system.objective(w)
            for i in range(len(w)):
                for step in (1e-4, -1e-4):
                    e = np.zeros(len(w))
                    e[i] = step
                    if system.objective(w + e) < obj - 1e-12 * (1.0 + abs(obj)):
                        return False
            return True

        w = fit.coefficients
        e0 = np.eye(len(w))[0]
        # a step of 1e-4 back from w + 1e-4 e0 descends; from w + 2e-5 e0
        # it overshoots, which only the curvature term shows
        cases = [(w, True), (w + 2e-5 * e0, True), (w + 1e-4 * e0, False), (w + 0.1, False)]
        for point, expected in cases:
            verdict = _probes_do_not_descend(
                2.0 * (M @ point - system.yF), np.diag(M), system.objective(point)
            )
            assert verdict is expected and probe_loop(point) is expected
        assert fit.diagnostics["local_optimum"] is True

    def test_shrinkage_componentwise(self, population, ortho):
        _, pop = population
        rng = np.random.default_rng(4)
        vals = rng.normal(size=len(pop))
        lams = [0.0, 0.01, 0.1, 1.0]
        sols = [
            np.abs(
                solve_regularized(ortho, assemble(ortho, pop, vals, lam=lam)).coefficients
            )
            for lam in lams
        ]
        for a, b in zip(sols, sols[1:]):
            assert np.all(b <= a + 1e-12)

    def test_lambda_to_zero_limit(self, population, ortho):
        _, pop = population
        rng = np.random.default_rng(6)
        vals = rng.normal(size=len(pop))
        w0 = solve_regularized(ortho, assemble(ortho, pop, vals, lam=0.0)).coefficients
        gaps = [
            np.linalg.norm(
                solve_regularized(ortho, assemble(ortho, pop, vals, lam=lam)).coefficients
                - w0
            )
            for lam in (1e-2, 1e-4, 1e-6)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5


class TestTruncate:
    def test_zero_fixed(self):
        assert truncate_values([0.0, 0.0], 1.0).tolist() == [0.0, 0.0]

    def test_clamps(self):
        assert truncate_values([3.0], 1.0)[0] == 1.0

    def test_never_increases_l2_error(self, population, ortho):
        _, pop = population
        rng = np.random.default_rng(8)
        for _ in range(10):
            M = rng.uniform(0.2, 2.0)
            target = rng.uniform(-M, M, size=len(pop))
            vals = rng.normal(scale=2.0, size=len(pop))
            err_raw = np.mean((vals - target) ** 2)
            err_clamped = np.mean((truncate_values(vals, M) - target) ** 2)
            assert err_clamped <= err_raw + 1e-15

    @pytest.mark.parametrize("M", [0.0, -1.0, float("nan")])
    def test_rejects_a_level_that_is_not_positive(self, M):
        with pytest.raises(ValueError, match="truncation level must be positive"):
            truncate_values([1.0], M)


class TestConditionAndBound:
    def test_c_delta_values(self):
        assert c_delta(0.0) == 0.0
        assert c_delta(0.5) == pytest.approx(1.5 * np.log(1.5) - 0.5)

    @pytest.mark.parametrize("r", [np.nan, np.inf, 0.0, -5.0], ids=["nan", "inf", "zero", "negative"])
    def test_condition_check_takes_only_a_finite_positive_r(self, population, ortho, r):
        with pytest.raises(ValueError, match="r must be finite and positive"):
            condition_check(ortho, population[1], lam=0.01, r=r)

    def test_K_at_least_n_flag(self, population, ortho):
        _, pop = population
        rep = condition_check(ortho, pop, lam=0.01, r=1.0)
        assert rep.K_at_least_n
        assert rep.K >= 3.0

    @pytest.mark.parametrize("r", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_bound_takes_only_a_finite_positive_r(self, r):
        # r = -1 once divided by 1 + r = 0 and returned NaN
        with pytest.raises(ValueError, match="r must be finite and positive"):
            bound_rhs(e=0.0, lam=0.0, gamma=[1.0], sigma=0.0, M=1.0, N=100, n=3, r=r)

    def test_bound_collapse(self):
        # sigma = 0, lam = 0, e = 0 leaves only the truncation tail
        val = bound_rhs(e=0.0, lam=0.0, gamma=[1.0], sigma=0.0, M=2.0, N=100, n=3, r=1.0)
        assert val == pytest.approx(2.0 * 4.0 / 100.0)

    def test_doubling_N_halves_tail(self):
        a = bound_rhs(e=0.0, lam=0.0, gamma=[1.0], sigma=0.0, M=1.0, N=100, n=3, r=1.0)
        b = bound_rhs(e=0.0, lam=0.0, gamma=[1.0], sigma=0.0, M=1.0, N=200, n=3, r=1.0)
        assert b <= a / 2.0 + 1e-15

    def test_chernoff_bound_formula(self):
        assert chernoff_deviation_bound(3, 100, 10.0) == pytest.approx(
            6.0 * np.exp(-100 * c_delta(0.5) / 10.0)
        )


class TestNoise:
    def test_zero_sigma_identity(self):
        vals = np.array([1.0, 2.0])
        np.testing.assert_array_equal(add_noise(vals, 0.0, 1), vals)

    def test_rejects_a_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative, got -1.0"):
            add_noise(np.zeros(2), -1.0, 1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_rejects_a_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match=f"sigma must be finite and nonnegative, got {sigma}"):
            add_noise(np.array([1.0, 2.0]), sigma, 0)

    def test_seeded_determinism(self):
        vals = np.zeros(10)
        np.testing.assert_array_equal(add_noise(vals, 1.0, 5), add_noise(vals, 1.0, 5))

    def test_variance(self):
        draws = add_noise(np.zeros(100_000), 0.7, 9)
        assert np.var(draws) == pytest.approx(0.49, rel=0.02)
