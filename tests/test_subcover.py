import re

import numpy as np
import pytest

from wdlearn import ot, subcover
from wdlearn.errors import CertificateViolation, EmptyCover
from wdlearn.measures import DiscreteMeasure, GroundSpace
from wdlearn.subcover import (
    MetricSample,
    covering_number_bound,
    empirical_subcover_measure,
    expected_min_distance_penalty,
    nested_wasserstein,
    p_eps_k_closed,
    p_eps_k_monte_carlo,
    subcover_distance_bound,
)

from .oracles import min_cover_size


@pytest.fixture(scope="module")
def measure_sample():
    rng = np.random.default_rng(10)
    ground = GroundSpace.grid((2, 2))
    elems = [DiscreteMeasure(ground, rng.dirichlet(np.ones(4))) for _ in range(10)]
    return MetricSample(elements=elems)


@pytest.fixture
def two_atoms():
    return MetricSample(distance_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestMetricSample:
    def test_wasserstein_matrix_is_a_metric(self, measure_sample):
        measure_sample.check_metric(seed=1)

    @pytest.mark.parametrize(
        "D, what",
        [
            ([[0.0, 1.0, 2.0], [1.1, 0.0, 1.0], [2.0, 1.0, 0.0]], "asymmetric"),
            ([[0.5, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], "diagonal"),
            ([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]], "triangle"),
        ],
    )
    def test_check_metric_rejects(self, D, what):
        with pytest.raises(CertificateViolation, match=what):
            MetricSample(distance_matrix=np.array(D)).check_metric(seed=0)

    @pytest.mark.parametrize(
        "D, message",
        [
            ([[0.0, np.nan, 1.0], [np.nan, 0.0, 1.0], [1.0, 1.0, 0.0]], "distances must be finite"),
            ([[0.0, -1.0], [-1.0, 0.0]], "distances must be finite and nonnegative"),
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], r"shape \(2, 2\), got \(2, 3\)"),
            ([0.0, 1.0], r"shape \(2, 2\), got \(2,\)"),
        ],
        ids=["nan", "negative", "not-square", "one-d"],
    )
    def test_bad_distance_matrices_are_rejected(self, D, message):
        with pytest.raises(ValueError, match=message):
            MetricSample(distance_matrix=D)

    def test_a_distance_matrix_needs_one_row_per_element(self, measure_sample):
        with pytest.raises(ValueError, match=r"shape \(3, 3\), got \(2, 2\)"):
            MetricSample(elements=measure_sample.elements[:3], distance_matrix=np.eye(2))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan]], ids=["first", "second"])
    def test_non_finite_weights_are_rejected(self, weights):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="weights must be finite"):
            MetricSample(distance_matrix=D, weights=weights)

    @pytest.mark.parametrize(
        "sample", [{"elements": []}, {"distance_matrix": np.zeros((0, 0))}], ids=["elements", "distance-matrix"]
    )
    def test_an_empty_sample_is_rejected(self, sample):
        with pytest.raises(ValueError, match="^a metric sample needs at least one point$"):
            MetricSample(**sample)

    def test_a_scalar_distance_matrix_is_rejected(self):
        with pytest.raises(ValueError, match=r"^the distance matrix must have shape \(n, n\), got \(\)$"):
            MetricSample(distance_matrix=1.0)

    def test_scalar_weights_are_rejected(self, measure_sample):
        with pytest.raises(ValueError, match=r"probability vector over the sample, of shape \(2,\), got \(\)$"):
            MetricSample(elements=measure_sample.elements[:2], weights=0.5)

    def test_needs_elements_or_a_distance_matrix(self):
        with pytest.raises(ValueError, match="provide elements or a distance matrix"):
            MetricSample()

    @pytest.mark.parametrize(
        "weights", [[1.0], [1.5, -0.5], [0.3, 0.3]], ids=["short", "negative", "sum"]
    )
    def test_weights_must_be_a_probability_vector(self, weights):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="weights must be a probability vector over the sample"):
            MetricSample(distance_matrix=D, weights=weights)

    def test_ball_masses_use_open_balls(self, two_atoms):
        # at eps exactly 1 the other atom is excluded
        np.testing.assert_allclose(two_atoms.ball_masses(1.0), [0.5, 0.5])
        np.testing.assert_allclose(two_atoms.ball_masses(1.0 + 1e-12), [1.0, 1.0])


class TestClosedForm:
    def test_k_zero_is_zero(self, two_atoms, measure_sample):
        assert p_eps_k_closed(two_atoms, 0.5, 0) == 0.0
        assert p_eps_k_closed(measure_sample, 0.1, 0) == 0.0

    def test_support_in_one_ball(self, two_atoms):
        for k in (1, 2, 5):
            assert p_eps_k_closed(two_atoms, 2.0, k) == pytest.approx(1.0)

    def test_two_separated_atoms_k1(self, two_atoms):
        # by hand: 1 - sum_x w(x) (1 - w(x)) = 1 - 0.5 = 0.5
        assert p_eps_k_closed(two_atoms, 0.5, 1) == pytest.approx(0.5)

    def test_mismatched_forms_raise(self):
        # weights that do not sum to 1 split ball and complement unevenly
        sample = MetricSample(distance_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
        sample.weights = np.array([0.3, 0.3])
        with pytest.raises(CertificateViolation, match="closed forms"):
            p_eps_k_closed(sample, 0.5, 2)

    def test_monotone_in_k_and_eps(self, measure_sample):
        eps_grid = [0.05, 0.1, 0.2, 0.4]
        for eps in eps_grid:
            vals = [p_eps_k_closed(measure_sample, eps, k) for k in range(6)]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        for k in (1, 3):
            vals = [p_eps_k_closed(measure_sample, eps, k) for eps in eps_grid]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_exponential_rate(self, measure_sample):
        eps = 0.2
        pbar = measure_sample.min_ball_mass(eps)
        assert pbar > 0
        for k in range(1, 12):
            pek = p_eps_k_closed(measure_sample, eps, k)
            assert pek >= 1.0 - (1.0 - pbar) ** k - 1e-12


class TestMonteCarlo:
    def test_matches_closed_form(self, measure_sample):
        for eps, k in [(0.1, 2), (0.2, 3), (0.3, 1)]:
            closed = p_eps_k_closed(measure_sample, eps, k)
            est, se = p_eps_k_monte_carlo(measure_sample, eps, k, trials=4000, seed=5)
            assert abs(est - closed) <= 3.0 * max(se, 1e-12)

    def test_eps_beyond_diameter(self, measure_sample):
        est, se = p_eps_k_monte_carlo(
            measure_sample, measure_sample.diameter + 1.0, 1, trials=200, seed=0
        )
        assert est == 1.0 and se == 0.0

    def test_no_centers_cover_nothing(self, measure_sample):
        # p(eps, 0) = 0 even where one center would cover every point
        eps = measure_sample.diameter + 1.0
        assert p_eps_k_monte_carlo(measure_sample, eps, 0, trials=200, seed=0) == (0.0, 0.0)
        assert p_eps_k_closed(measure_sample, eps, 0) == 0.0

    def test_deterministic_given_seed(self, measure_sample):
        a = p_eps_k_monte_carlo(measure_sample, 0.2, 2, trials=500, seed=9)
        b = p_eps_k_monte_carlo(measure_sample, 0.2, 2, trials=500, seed=9)
        assert a == b


@pytest.mark.parametrize("eps", [np.nan, -0.1, 0.0])
def test_both_probabilities_reject_an_eps_that_is_not_positive(two_atoms, eps):
    with pytest.raises(ValueError, match=f"eps must be positive, got {eps}"):
        p_eps_k_closed(two_atoms, eps, 1)
    with pytest.raises(ValueError, match=f"eps must be positive, got {eps}"):
        p_eps_k_monte_carlo(two_atoms, eps, 1, trials=10, seed=0)


def test_both_probabilities_reject_a_negative_k(two_atoms):
    with pytest.raises(ValueError, match="k must be nonnegative"):
        p_eps_k_closed(two_atoms, 0.5, -1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        p_eps_k_monte_carlo(two_atoms, 0.5, -1, trials=10, seed=0)


def test_monte_carlo_needs_a_trial(two_atoms):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        p_eps_k_monte_carlo(two_atoms, 0.5, 1, trials=0, seed=0)


class TestCoveringBound:
    @pytest.mark.parametrize("delta", [0.0, 1.0, np.nan])
    def test_rejects_a_delta_outside_the_unit_interval(self, two_atoms, delta):
        with pytest.raises(ValueError, match=re.escape("delta must lie in (0, 1)")):
            covering_number_bound(two_atoms, 0.5, delta)

    def test_single_atom(self):
        s = MetricSample(distance_matrix=np.zeros((1, 1)))
        rep = covering_number_bound(s, 0.5, 0.1)
        assert rep.bound == 1
        assert rep.unbounded  # the single ball swallows everything
        assert rep.exact_min_k == 1

    def test_delta_near_one(self, two_atoms):
        rep = covering_number_bound(two_atoms, 0.5, 1.0 - 1e-12)
        assert rep.bound <= 1
        assert rep.exact_min_k <= 1

    def test_exact_search_matches_oracle(self, measure_sample):
        for eps, delta in [(0.15, 0.2), (0.25, 0.1)]:
            rep = covering_number_bound(measure_sample, eps, delta)
            oracle = min_cover_size(
                lambda k: p_eps_k_closed(measure_sample, eps, k), 1.0 - delta
            )
            assert rep.exact_min_k == oracle

    def test_exact_search_reaches_millions_of_centers(self):
        # a light atom far from a heavy one needs k = 6,907,752: the search
        # bisects below the worst-case bound instead of stepping through k
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = MetricSample(distance_matrix=D, weights=np.array([1 - 1e-6, 1e-6]))
        k = covering_number_bound(s, 0.5, 1e-9).exact_min_k
        assert k == 6_907_752
        assert p_eps_k_closed(s, 0.5, k) >= 1 - 1e-9 > p_eps_k_closed(s, 0.5, k - 1)

    def test_a_probability_short_at_the_worst_case_bound_raises(self, two_atoms, monkeypatch):
        # uniform two atoms: min ball mass 1/2, so the bound for delta = 0.05 is 5
        ks = []
        monkeypatch.setattr(subcover, "p_eps_k_closed", lambda sample, eps, k: ks.append(k) or 0.0)
        with pytest.raises(CertificateViolation, match="^p\\(eps, k\\) misses 1 - delta at the worst-case bound k = 5$"):
            covering_number_bound(two_atoms, 0.5, 0.05)
        assert ks == [1, 2, 4, 5]

    @pytest.mark.parametrize(
        "D, eps", [([[1.0]], 0.5), ([[0.0, 1.0], [1.0, 0.0]], 0.0), ([[0.0]], -0.1), ([[0.0]], np.nan)]
    )
    def test_an_atom_outside_its_own_ball_is_rejected(self, D, eps):
        # a diagonal distance of at least eps, or an eps that is not
        # positive: no number of centers provably covers the sample
        message = f"^eps = {eps} leaves an atom of the support outside its own open ball$"
        with pytest.raises(ValueError, match=message):
            covering_number_bound(MetricSample(distance_matrix=np.array(D)), eps, 0.1)

    def test_homogeneous_instance_bound_is_tight(self):
        # equidistant atoms with uniform weights: the log-mean formula
        # coincides with the exhaustive minimum
        m = 4
        D = np.ones((m, m)) - np.eye(m)
        s = MetricSample(distance_matrix=D)
        rep = covering_number_bound(s, 0.5, 0.05)
        assert rep.bound == rep.exact_min_k

    def test_inhomogeneous_instance_underestimates(self):
        # lopsided weights: the Jensen step makes the formula a lower
        # bound on the exhaustive minimum, not an upper one
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = MetricSample(distance_matrix=D, weights=np.array([0.9, 0.1]))
        rep = covering_number_bound(s, 0.5, 0.05)
        assert rep.bound < rep.exact_min_k


class TestEmpiricalSubcoverMeasure:
    def test_single_center_covers_all(self, measure_sample):
        w = empirical_subcover_measure(
            measure_sample, [3], measure_sample.diameter + 1.0
        )
        expected = np.zeros(measure_sample.size)
        expected[3] = 1.0
        np.testing.assert_allclose(w, expected)

    def test_isolated_atoms_weights(self, two_atoms):
        w = empirical_subcover_measure(two_atoms, [0, 1], 0.5)
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_first_come_disjointification(self):
        # three colinear atoms, centers 0 and 1 with overlapping balls:
        # the middle atom belongs to center 0's cell
        D = np.array([[0.0, 0.4, 0.8], [0.4, 0.0, 0.4], [0.8, 0.4, 0.0]])
        s = MetricSample(distance_matrix=D)
        w = empirical_subcover_measure(s, [0, 1], 0.5)
        np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0, 0.0])

    def test_empty_cover_raises(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = MetricSample(distance_matrix=D, weights=np.array([0.0, 1.0]))
        with pytest.raises(EmptyCover):
            empirical_subcover_measure(s, [0], 0.5)


class TestNestedBound:
    def test_mean_nested_distance_below_bound(self, measure_sample):
        rng = np.random.default_rng(77)
        eps, k = 0.25, 4
        bound = subcover_distance_bound(measure_sample, eps, k, p=2.0)
        dists = []
        for _ in range(50):
            centers = rng.choice(
                measure_sample.size, size=k, p=measure_sample.weights
            )
            try:
                w = empirical_subcover_measure(measure_sample, centers, eps)
            except EmptyCover:
                continue
            dists.append(
                nested_wasserstein(measure_sample, measure_sample.weights, w, p=2.0)
            )
        assert np.mean(dists) <= bound

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, 1.0, np.nan, np.inf])
    def test_outer_order_is_checked_before_any_lp(self, p, monkeypatch):
        line = MetricSample(distance_matrix=np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        ground = GroundSpace.line([0.0, 1.0])
        lazy = MetricSample(elements=[DiscreteMeasure.dirac(ground, i) for i in (0, 1)])
        assert nested_wasserstein(line, [1, 0, 0], [0, 0, 1], 2.0) == pytest.approx(2.0)
        monkeypatch.setattr(ot, "linprog", lambda *args, **kwargs: pytest.fail("an LP ran"))
        message = re.escape(f"metric order p must be finite and exceed 1, got {p}")
        with pytest.raises(ValueError, match=message):
            nested_wasserstein(line, [1, 0, 0], [0, 0, 1], p)
        with pytest.raises(ValueError, match=message):
            subcover_distance_bound(lazy, 0.5, 2, p)

    def test_expected_penalty_bound(self):
        # capped-distance bound with L(r) = min(r, 1): the expectation is at
        # most delta * p_ek + (1 - p_ek) whenever delta >= eps
        D = np.array(
            [
                [0.0, 0.3, 0.9, 1.2],
                [0.3, 0.0, 0.7, 1.0],
                [0.9, 0.7, 0.0, 0.5],
                [1.2, 1.0, 0.5, 0.0],
            ]
        )
        s = MetricSample(distance_matrix=D)
        for eps, k in [(0.4, 1), (0.4, 2), (0.8, 2)]:
            pek = p_eps_k_closed(s, eps, k)
            expectation = expected_min_distance_penalty(s, k)
            delta = eps
            assert expectation <= delta * pek + (1.0 - pek) + 1e-12
