import logging
import re
import sys
import threading

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from wdlearn import ot
from wdlearn.errors import NotConverged, SolverFailure
from wdlearn.experiments import make_synthetic_dataset
from wdlearn.measures import DiscreteMeasure, GroundSpace
from wdlearn.ot import (
    c_transform,
    exact_ot,
    pairwise_wasserstein,
    sinkhorn,
    solve_transport_lp,
    wasserstein,
)
from wdlearn.subcover import MetricSample, nested_wasserstein

from .oracles import sinkhorn_reference, transport_cost_by_vertex_enumeration


@pytest.fixture
def line01():
    return GroundSpace.line([0.0, 1.0])


def random_measure(ground, rng, sparse=False):
    w = rng.dirichlet(np.ones(ground.size))
    if sparse:
        keep = rng.random(ground.size) < 0.6
        keep[rng.integers(ground.size)] = True
        w = np.where(keep, w, 0.0)
        w = w / w.sum()
    return DiscreteMeasure(ground, w)


class TestExactOT:
    def test_identity_pair(self):
        g = GroundSpace.line([0.0, 1.0, 2.0])
        mu = DiscreteMeasure(g, [0.2, 0.3, 0.5])
        plan, pot, wpp = exact_ot(mu, mu)
        assert wpp == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(plan.matrix, np.diag(mu.weights), atol=1e-12)

    def test_single_pairing(self, line01):
        mu = DiscreteMeasure.dirac(line01, 0)
        nu = DiscreteMeasure.dirac(line01, 1)
        _, _, wpp = exact_ot(mu, nu)
        assert wpp == pytest.approx(1.0)

    def test_two_by_two_vertex(self, line01):
        # enumerate the two vertices of the transport polytope by hand:
        # moving 0.5 mass from atom 1 to atom 0 costs 0.5 * 1^2
        mu = DiscreteMeasure(line01, [0.5, 0.5])
        nu = DiscreteMeasure(line01, [1.0, 0.0])
        _, _, wpp = exact_ot(mu, nu)
        assert wpp == pytest.approx(0.5)

    def test_duality_and_feasibility(self):
        rng = np.random.default_rng(7)
        g = GroundSpace(rng.normal(size=(12, 2)))
        cost = g.cost_matrix()
        for _ in range(20):
            mu = random_measure(g, rng, sparse=True)
            nu = random_measure(g, rng, sparse=True)
            plan, pot, wpp = exact_ot(mu, nu)
            dual = pot.phi @ nu.weights + pot.psi @ mu.weights
            assert abs(dual - wpp) <= 1e-9 * (1.0 + wpp)
            assert (pot.phi[None, :] + pot.psi[:, None] - cost).max() <= 1e-9
            assert pot.psi[0] == 0.0

    def test_matches_vertex_enumeration_3x3(self):
        rng = np.random.default_rng(11)
        g = GroundSpace(rng.normal(size=(3, 2)))
        cost = g.cost_matrix()
        for _ in range(25):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(3))
            _, _, value = solve_transport_lp(cost, a, b)
            oracle = transport_cost_by_vertex_enumeration(cost, a, b)
            assert value == pytest.approx(oracle, abs=1e-12)

    def test_matches_vertex_enumeration_4x4(self):
        # heavier enumeration (11440 candidate trees per instance)
        rng = np.random.default_rng(17)
        g = GroundSpace(rng.normal(size=(4, 2)))
        cost = g.cost_matrix()
        for _ in range(4):
            a = rng.dirichlet(np.ones(4))
            b = rng.dirichlet(np.ones(4))
            _, _, value = solve_transport_lp(cost, a, b)
            oracle = transport_cost_by_vertex_enumeration(cost, a, b)
            assert value == pytest.approx(oracle, abs=1e-11)

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(3)
        g = GroundSpace(rng.normal(size=(8, 2)))
        ms = [random_measure(g, rng) for _ in range(6)]
        for _ in range(100):
            i, j, k = rng.integers(0, len(ms), size=3)
            dij = wasserstein(ms[i], ms[j])
            dji = wasserstein(ms[j], ms[i])
            assert dij == pytest.approx(dji, abs=1e-8)
            dik = wasserstein(ms[i], ms[k])
            dkj = wasserstein(ms[k], ms[j])
            assert dij <= dik + dkj + 1e-8

    def test_extended_potentials_are_lipschitz(self):
        # c-transform representatives satisfy |phi(x) - phi(y)| <=
        # p * dmax^(p-1) * d(x, y); the cover-based guarantees lean on it
        rng = np.random.default_rng(13)
        g = GroundSpace(rng.normal(size=(10, 2)))
        D = np.sqrt(g.cost_matrix())
        C = 2.0 * D.max()  # p = 2
        for _ in range(10):
            mu = random_measure(g, rng, sparse=True)
            nu = random_measure(g, rng, sparse=True)
            _, pot, _ = exact_ot(mu, nu)
            for f in (pot.phi, pot.psi):
                gaps = np.abs(f[:, None] - f[None, :])
                mask = D > 0
                assert (gaps[mask] <= C * D[mask] + 1e-9).all()

    def test_pairwise_matrix(self):
        rng = np.random.default_rng(5)
        g = GroundSpace(rng.normal(size=(5, 1)))
        ms = [random_measure(g, rng) for _ in range(4)]
        D = pairwise_wasserstein(ms)
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0.0)


def dense_lp(mu, nu):
    """``exact_ot`` through the dense LP on any ground space: the
    reference for the grid flow."""
    return solve_transport_lp(mu.ground.cost_matrix(), mu.weights, nu.weights)


def presolved(solve, mu, nu):
    """``solve`` with HiGHS presolve switched on: the reference for the
    solves without it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(ot._LP_OPTIONS, "presolve", True)
        return solve(mu, nu)


def assert_matches_presolved(mu, nu, potentials=True, solve=exact_ot):
    plan, pot, wpp = solve(mu, nu)
    _, ref_pot, ref_wpp = presolved(solve, mu, nu)
    assert abs(wpp - ref_wpp) <= 1e-12
    if potentials:
        np.testing.assert_allclose(pot.phi, ref_pot.phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pot.psi, ref_pot.psi, rtol=0, atol=1e-12)
    return plan


class PresolveSweeps:
    """Solves without presolve match the presolved ones; ``solve`` picks
    the LP form under test."""

    solve = staticmethod(exact_ot)

    def test_dirichlet_sweep_against_uniform(self):
        ds = make_synthetic_dataset(8, 8, n_train=40, n_test=0, seed=21)
        theta = DiscreteMeasure(ds.ground, np.full(64, 1.0 / 64))
        for mu in ds.train:
            assert_matches_presolved(theta, mu, solve=self.solve)

    def test_blurred_blobs_pairs(self):
        ds = make_synthetic_dataset(6, 6, n_train=8, n_test=0, generator="blurred-blobs", seed=5)
        for i in range(len(ds.train)):
            for j in range(i + 1, len(ds.train)):
                assert_matches_presolved(ds.train[i], ds.train[j], solve=self.solve)

    def test_sparse_supports_and_diracs(self):
        # the optimal potentials of such pairs are not unique, so only
        # the values are compared
        rng = np.random.default_rng(4)
        g = GroundSpace.grid((5, 5))
        cost = g.cost_matrix()

        def check(mu, nu):
            return assert_matches_presolved(mu, nu, potentials=False, solve=self.solve)

        for _ in range(10):
            mu = random_measure(g, rng, sparse=True)
            nu = random_measure(g, rng, sparse=True)
            plan = check(mu, nu)
            np.testing.assert_array_equal(plan.matrix[mu.weights == 0.0], 0.0)
            np.testing.assert_array_equal(plan.matrix[:, nu.weights == 0.0], 0.0)
        for i, j in [(0, 24), (7, 7), (3, 12)]:
            di, dj = DiscreteMeasure.dirac(g, i), DiscreteMeasure.dirac(g, j)
            plan = check(di, dj)
            assert plan.cost == pytest.approx(cost[i, j], abs=1e-12)
            assert plan.matrix[i, j] == pytest.approx(1.0, abs=1e-12)
            mu = random_measure(g, rng, sparse=True)
            check(di, mu)
            check(mu, dj)


class TestWithoutPresolve(PresolveSweeps):
    def test_presolve_is_off(self):
        assert ot._LP_OPTIONS["presolve"] is False


class TestDenseWithoutPresolve(PresolveSweeps):
    # on these grids exact_ot poses the flow, so the dense LP is called
    # with the cost matrix directly
    solve = staticmethod(dense_lp)


class TestGridFlow:
    """On a rank-2 grid with ``p = 2`` ``exact_ot`` solves the tripartite
    flow; it must give the dense LP's value, dual value and a coupling of
    that cost."""

    @staticmethod
    def assert_matches_dense(mu, nu, potentials=True):
        plan, pot, wpp = exact_ot(mu, nu)
        _, ref_pot, ref_wpp = dense_lp(mu, nu)
        assert abs(wpp - ref_wpp) <= 1e-12
        assert abs(pot.dual_value - ref_pot.dual_value) <= 1e-12
        assert abs(np.vdot(mu.ground.cost_matrix(), plan.matrix) - wpp) <= 1e-12
        np.testing.assert_array_equal(plan.matrix[mu.weights == 0.0], 0.0)
        np.testing.assert_array_equal(plan.matrix[:, nu.weights == 0.0], 0.0)
        if potentials:
            np.testing.assert_allclose(pot.phi, ref_pot.phi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(pot.psi, ref_pot.psi, rtol=0, atol=1e-12)
        return plan

    def test_dirichlet_sweep_against_uniform(self):
        ds = make_synthetic_dataset(8, 8, n_train=40, n_test=0, seed=21)
        theta = DiscreteMeasure(ds.ground, np.full(64, 1.0 / 64))
        for mu in ds.train:
            self.assert_matches_dense(theta, mu)

    def test_blurred_blobs_pairs(self):
        ds = make_synthetic_dataset(6, 6, n_train=8, n_test=0, generator="blurred-blobs", seed=5)
        for i in range(len(ds.train)):
            for j in range(i + 1, len(ds.train)):
                self.assert_matches_dense(ds.train[i], ds.train[j])

    def test_sparse_supports_and_diracs(self):
        rng = np.random.default_rng(8)
        g = GroundSpace.grid((5, 5))
        for _ in range(10):
            mu = random_measure(g, rng, sparse=True)
            self.assert_matches_dense(mu, random_measure(g, rng, sparse=True), potentials=False)
        for i, j in [(0, 24), (7, 7), (3, 12), (20, 4)]:
            di, dj = DiscreteMeasure.dirac(g, i), DiscreteMeasure.dirac(g, j)
            plan = self.assert_matches_dense(di, dj, potentials=False)
            assert plan.matrix[i, j] == 1.0
            mu = random_measure(g, rng, sparse=True)
            self.assert_matches_dense(di, mu, potentials=False)
            self.assert_matches_dense(mu, dj, potentials=False)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (1, 7), (7, 1), (2, 2)])
    def test_rectangular_and_line_grids(self, shape):
        rng = np.random.default_rng(sum(shape))
        g = GroundSpace.grid(shape)
        for sparse in (False, True):
            for _ in range(4):
                mu = random_measure(g, rng, sparse=sparse)
                self.assert_matches_dense(mu, random_measure(g, rng, sparse=sparse), potentials=False)

    @pytest.mark.parametrize(
        "ground, p, form",
        [
            (GroundSpace.grid((4, 4)), None, "grid-flow"),
            (GroundSpace.grid((4, 4), p=1.5), None, "dense"),
            (GroundSpace.grid((4, 4)), 1.5, "dense"),
            (GroundSpace.grid((4, 4), p=1.5), 2.0, "grid-flow"),
            (GroundSpace.line(np.arange(6.0)), None, "dense"),
            (GroundSpace.grid((6,)), None, "dense"),
            (GroundSpace.grid((2, 2, 3)), None, "dense"),
        ],
    )
    def test_lp_form_follows_ground_and_p(self, caplog, ground, p, form):
        if p is not None:  # the same points re-grounded at p, as `wdlearn ot --p` does
            ground = GroundSpace(ground.points, p, ground.grid_shape)
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(2)
        mu, nu = random_measure(ground, rng), random_measure(ground, rng)
        _, _, wpp = exact_ot(mu, nu)
        (record,) = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert record.lp_form == form
        _, _, ref = solve_transport_lp(ground.cost_matrix(), mu.weights, nu.weights)
        assert abs(wpp - ref) <= 1e-12

    def test_rejects_a_grid_shape_that_does_not_fit(self):
        cost = GroundSpace.grid((3, 3)).cost_matrix()
        w = np.full(9, 1.0 / 9)
        for shape in [(3, 4), (9,), (1, 3, 3)]:
            with pytest.raises(ValueError, match="not a rank-2 grid of 9 points"):
                solve_transport_lp(cost, w, w, grid_shape=shape)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_cost_that_is_not_finite(self, monkeypatch, bad):
        # scipy's linprog refused such a cost; HiGHS's own model takes it,
        # so it is refused before any LP on either path
        cost = GroundSpace.grid((3, 3)).cost_matrix().copy()
        cost[4, 0] = bad
        w = np.full(9, 1.0 / 9)
        monkeypatch.setattr(ot, "linprog", lambda *args, **kwargs: pytest.fail("an LP ran"))
        with pytest.raises(ValueError, match="^cost must be finite$"):
            solve_transport_lp(cost, w, w)


class TestTelemetry:
    def test_silent_by_default(self):
        handlers = logging.getLogger("wdlearn").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_one_record_per_lp(self, caplog, monkeypatch):
        iters = []

        def counted_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            iters.append(res.nit)
            return res

        linprog = ot.linprog
        monkeypatch.setattr(ot, "linprog", counted_linprog)
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(12)
        g = GroundSpace.grid((6, 6))
        for _ in range(3):
            exact_ot(random_measure(g, rng), random_measure(g, rng))
        g3 = GroundSpace.grid((6, 6), p=3.0)
        mu = random_measure(g3, rng, sparse=True)
        exact_ot(mu, random_measure(g3, rng))
        records = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert [r.simplex_iters for r in records] == iters and len(iters) == 4
        assert min(iters) > 0
        for r in records:
            assert r.levelno == logging.DEBUG
            assert "Optimal" in r.lp_status and r.ns > 0
            assert f"simplex_iters={r.simplex_iters}" in r.getMessage()
            assert r.lp_path == ("linprog" if ot._highs_core is None else "highs")
            assert f" lp_path={r.lp_path} " in r.getMessage()
        n_supp = int(np.count_nonzero(mu.weights))
        assert records[-1].getMessage().startswith(f"transport LP {n_supp}x36:")
        assert (records[-1].lp_form, records[-1].lp_cols) == ("dense", n_supp * 36)
        assert f"lp_form=dense lp_cols={n_supp * 36} " in records[-1].getMessage()

    def test_record_names_the_lp_form(self, caplog):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(14)
        g = GroundSpace.grid((8, 8))
        exact_ot(random_measure(g, rng), random_measure(g, rng))
        (record,) = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert (record.lp_form, record.lp_cols) == ("grid-flow", 1024)
        assert record.getMessage().startswith("transport LP 64x64: lp_form=grid-flow lp_cols=1024 ")

    def test_no_record_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="wdlearn.ot")
        rng = np.random.default_rng(13)
        g = GroundSpace.grid((4, 4))
        exact_ot(random_measure(g, rng), random_measure(g, rng))
        assert not [r for r in caplog.records if r.name == "wdlearn.ot"]

    @pytest.mark.parametrize("p", [2.0, 1.5], ids=["grid-flow", "dense"])
    def test_record_carries_the_certificate_values(self, caplog, p):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(15)
        g = GroundSpace.grid((5, 5), p=p)
        mu, nu = random_measure(g, rng, sparse=True), random_measure(g, rng)
        plan, pot, wpp = exact_ot(mu, nu)
        (record,) = [r for r in caplog.records if r.name == "wdlearn.ot"]
        cost = g.cost_matrix()
        gap = abs(pot.dual_value - wpp)
        feas = (pot.phi[None, :] + pot.psi[:, None] - cost).max()
        marginal = max(
            np.abs(plan.matrix.sum(axis=1) - mu.weights).max(),
            np.abs(plan.matrix.sum(axis=0) - nu.weights).max(),
        )
        values = (record.gap, record.dual_infeasibility, record.marginal_error)
        assert values == (gap, feas, marginal) and max(values) <= 1e-9
        assert (
            f" gap={gap:.3e} dual_infeasibility={feas:.3e} marginal_error={marginal:.3e} ns="
            in record.getMessage()
        )

    def test_a_failing_certificate_leaves_its_record(self, caplog, monkeypatch):
        # the flow carries 1e-6 too much: the record is written, with the
        # violation the error names, before the certificate raises
        def scaled_plan_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.x = res.x * (1.0 + 1e-6)
            return res

        linprog = ot.linprog
        monkeypatch.setattr(ot, "linprog", scaled_plan_linprog)
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(16)
        g = GroundSpace.grid((3, 3))
        with pytest.raises(SolverFailure, match="plan marginals violated by") as failure:
            exact_ot(random_measure(g, rng), random_measure(g, rng))
        (record,) = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert record.marginal_error > 1e-9 and record.gap <= 1e-9
        assert str(failure.value) == f"plan marginals violated by {record.marginal_error:.3e}"
        assert "Optimal" in record.lp_status and record.ns > 0

    @pytest.mark.parametrize("shape", [None, (3, 3)], ids=["dense", "grid-flow"])
    def test_an_lp_without_an_optimum_logs_nan_certificates(self, caplog, shape):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        cost = GroundSpace.grid((3, 3)).cost_matrix()
        with pytest.raises(SolverFailure, match="transport LP failed: .*infeasible"):
            solve_transport_lp(cost, np.full(9, 1.0 / 9), np.full(9, 0.5 / 9), grid_shape=shape)
        (record,) = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert "infeasible" in record.lp_status
        assert np.isnan([record.gap, record.dual_infeasibility, record.marginal_error]).all()
        assert "gap=nan dual_infeasibility=nan marginal_error=nan" in record.getMessage()


class TestCertificates:
    @pytest.mark.parametrize("solve", ["exact_ot", "nested_wasserstein"])
    def test_wrong_duals_are_rejected(self, monkeypatch, solve):
        # zeroed LP duals still extend to a feasible pair, but one with a
        # gap against generic weights; every exact solve, over a ground
        # space or a metric sample, must catch it
        def zero_dual_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.eqlin.marginals[:] = 0.0
            return res

        linprog = ot.linprog
        ds = make_synthetic_dataset(4, 4, 10, 0, generator="blurred-blobs", seed=3)
        sample = MetricSample(distance_matrix=pairwise_wasserstein(ds.train))
        w = np.random.default_rng(4).dirichlet(np.ones(sample.size))
        monkeypatch.setattr(ot, "linprog", zero_dual_linprog)
        with pytest.raises(SolverFailure, match="primal-dual gap"):
            if solve == "exact_ot":
                exact_ot(ds.train[0], ds.train[1])
            else:
                nested_wasserstein(sample, sample.weights, w, p=2.0)

    @pytest.mark.parametrize("shape", [None, (3, 3)], ids=["dense", "grid-flow"])
    def test_an_lp_that_is_not_optimal_is_rejected(self, shape):
        # marginals of unequal mass: HiGHS reports the LP infeasible
        cost = GroundSpace.grid((3, 3)).cost_matrix()
        with pytest.raises(SolverFailure, match="transport LP failed: .*infeasible"):
            solve_transport_lp(cost, np.full(9, 1.0 / 9), np.full(9, 0.5 / 9), grid_shape=shape)

    def test_infeasible_potentials_are_rejected(self, monkeypatch):
        # phi raised where nu has no mass: the dual value and the gap stay,
        # but phi(y) + psi(x) exceeds cost[x, y] there by 1
        g = GroundSpace.grid((3, 3))
        rng = np.random.default_rng(6)
        mu = random_measure(g, rng)
        nu = DiscreteMeasure(g, np.r_[0.0, rng.dirichlet(np.ones(8))])
        calls = []

        def raised_phi(f, cost):
            calls.append(f)
            out = c_transform(f, cost)
            return out + (nu.weights == 0.0) if len(calls) == 2 else out

        monkeypatch.setattr(ot, "c_transform", raised_phi)
        with pytest.raises(SolverFailure, match="dual feasibility violated by 1.000e\\+00"):
            exact_ot(mu, nu)

    @pytest.mark.parametrize("p", [2.0, 1.5], ids=["grid-flow", "dense"])
    def test_a_plan_off_its_marginals_is_rejected(self, monkeypatch, p):
        # the LP's value and duals stay, but its flow carries 1e-6 too much
        def scaled_plan_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.x = res.x * (1.0 + 1e-6)
            return res

        linprog = ot.linprog
        g = GroundSpace.grid((3, 3), p=p)
        rng = np.random.default_rng(7)
        mu, nu = random_measure(g, rng), random_measure(g, rng)
        monkeypatch.setattr(ot, "linprog", scaled_plan_linprog)
        with pytest.raises(SolverFailure, match="plan marginals violated by"):
            exact_ot(mu, nu)


class TestMarginalsAreChecked:
    """``a`` and ``b`` are checked before any LP, on both paths into
    ``solve_transport_lp``."""

    line = MetricSample(distance_matrix=np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]))

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([np.nan, 0.5, 0.5], [0.5, 0.5, 0], "a must be finite and nonnegative"),
            ([0.5, 0.5], [0.5, 0.5, 0], "a of shape (2,) is not a vector over 3 points"),
            ([0.5, 0.5, 0], [np.inf, 0, 0], "b must be finite and nonnegative"),
            ([0.5, 0.5, 0], [-0.1, 1.1, 0], "b must be finite and nonnegative"),
            ([0.5, 0.5, 0], [[0.5], [0.5], [0]], "b of shape (3, 1) is not a vector over 3 points"),
            ([0.0, 0.0, 0.0], [0.5, 0.5, 0], "a has no mass"),
        ],
        ids=["nan-a", "short-a", "inf-b", "negative-b", "column-b", "empty-a"],
    )
    @pytest.mark.parametrize("path", ["solve_transport_lp", "nested_wasserstein"])
    def test_bad_marginal_is_named_before_any_lp(self, monkeypatch, path, a, b, message):
        monkeypatch.setattr(ot, "linprog", lambda *args, **kwargs: pytest.fail("an LP ran"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if path == "solve_transport_lp":
                solve_transport_lp(self.line.distance_matrix**2, a, b)
            else:
                nested_wasserstein(self.line, a, b, p=2.0)


class TestSolvePath:
    """Every exact solve makes its own ``linprog`` call, the name the
    benchmark's tracer wraps; only the grid flow's structure is reused."""

    @pytest.fixture
    def calls(self, monkeypatch):
        iters = []
        linprog = ot.linprog

        def counted_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            iters.append(res.nit)
            return res

        monkeypatch.setattr(ot, "linprog", counted_linprog)
        return iters

    @pytest.mark.parametrize("p", [2.0, 1.5], ids=["grid-flow", "dense"])
    def test_each_solve_of_a_repeated_pair_calls_linprog(self, calls, p):
        rng = np.random.default_rng(31)
        g = GroundSpace.grid((4, 4), p=p)
        mu, nu = random_measure(g, rng), random_measure(g, rng)
        first = exact_ot(mu, nu)
        for _ in range(4):
            plan, pot, wpp = exact_ot(mu, nu)
            assert wpp == first[2]
            np.testing.assert_array_equal(plan.matrix, first[0].matrix)
            np.testing.assert_array_equal(pot.phi, first[1].phi)
        assert len(calls) == 5 and min(calls) > 0

    def test_reused_structure_is_a_fresh_one(self):
        rng = np.random.default_rng(32)
        g = GroundSpace.grid((5, 4))
        mu, nu = random_measure(g, rng, sparse=True), random_measure(g, rng, sparse=True)
        ia, ib = np.flatnonzero(mu.weights), np.flatnonzero(nu.weights)
        exact_ot(mu, nu)
        held = ot._reused_grid_flow((5, 4), ia, ib)
        exact_ot(mu, nu)
        assert ot._reused_grid_flow((5, 4), ia, ib) is held
        c, A_eq, n_transit, _ = held
        fresh_c, fresh_A, fresh_transit, _ = ot._grid_flow((5, 4), ia, ib)
        assert n_transit == fresh_transit
        for mine, theirs in [
            (c, fresh_c),
            (A_eq.indptr, fresh_A.indptr),
            (A_eq.indices, fresh_A.indices),
            (A_eq.data, fresh_A.data),
        ]:
            assert mine.dtype == theirs.dtype and not mine.flags.writeable
            np.testing.assert_array_equal(mine, theirs)

    def test_alternating_supports_match_a_cold_slot(self, monkeypatch):
        rng = np.random.default_rng(33)
        g = GroundSpace.grid((5, 5))
        pairs = []
        for _ in range(2):
            # supports of one size, so only their atoms tell them apart
            w = np.zeros(g.size)
            w[rng.choice(g.size, 15, replace=False)] = rng.dirichlet(np.ones(15))
            pairs.append((DiscreteMeasure(g, w), random_measure(g, rng)))
        assert not np.array_equal(pairs[0][0].support, pairs[1][0].support)
        # each support pattern twice in a row, so the warm run both hits
        # and replaces the slot
        sequence = [pairs[i // 2 % 2] for i in range(8)]
        warm = [exact_ot(mu, nu) for mu, nu in sequence]
        cold = []
        for mu, nu in sequence:
            monkeypatch.setattr(ot, "_flow_slot", None)
            cold.append(exact_ot(mu, nu))
        for (plan, pot, wpp), (cplan, cpot, cwpp) in zip(warm, cold):
            assert wpp == cwpp
            np.testing.assert_array_equal(plan.matrix, cplan.matrix)
            np.testing.assert_array_equal(pot.phi, cpot.phi)
            np.testing.assert_array_equal(pot.psi, cpot.psi)


def lp_pair(name):
    """A measure pair whose exact solve runs the named LP."""
    if name == "blobs-6x6":
        return make_synthetic_dataset(6, 6, 2, 0, generator="blurred-blobs", seed=41).train
    g = GroundSpace.grid((8, 8), p=1.5 if name == "dense-p1.5" else 2.0)
    rng = np.random.default_rng(42)
    return random_measure(g, rng), random_measure(g, rng)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestLpPaths:
    """The LP step builds HiGHS's own model where scipy's private bindings
    import and calls scipy's ``linprog`` where they do not: the two give
    the same solve bitwise, and each solve's record names its path."""

    lps = ["flow-8x8", "blobs-6x6", "dense-p1.5"]

    @staticmethod
    def captured_lp(monkeypatch, name):
        seen = []
        linprog = ot.linprog
        with monkeypatch.context() as mp:
            mp.setattr(ot, "linprog", lambda *args: seen.append(args) or linprog(*args))
            exact_ot(*lp_pair(name))
        ((c, A_eq, b_eq),) = seen
        return c, A_eq, b_eq

    @pytest.mark.parametrize("name", lps)
    def test_the_direct_model_is_linprog_bitwise(self, monkeypatch, name):
        if ot._highs_core is None:
            pytest.skip("scipy's private HiGHS bindings did not import")
        c, A_eq, b_eq = self.captured_lp(monkeypatch, name)
        mine = ot.linprog(c, A_eq, b_eq)
        ref = scipy.optimize.linprog(
            c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds", options=ot._LP_OPTIONS
        )
        assert mine.status == ref.status == 0
        assert mine.nit == ref.nit > 0
        assert mine.fun == ref.fun
        assert same_bits(mine.x, ref.x)
        assert same_bits(mine.eqlin.marginals, ref.eqlin.marginals)

    @pytest.mark.parametrize(
        "setting", [("presolve", True), ("simplex_dual_edge_weight_strategy", "steepest")]
    )
    @pytest.mark.parametrize("name", lps)
    def test_the_direct_model_follows_the_settings(self, monkeypatch, name, setting):
        # the direct model reads its settings from _LP_OPTIONS at each
        # solve, so a changed setting changes its run as it changes linprog's
        if ot._highs_core is None:
            pytest.skip("scipy's private HiGHS bindings did not import")
        c, A_eq, b_eq = self.captured_lp(monkeypatch, name)
        default = ot.linprog(c, A_eq, b_eq)
        monkeypatch.setitem(ot._LP_OPTIONS, *setting)
        mine = ot.linprog(c, A_eq, b_eq)
        ref = scipy.optimize.linprog(
            c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds", options=ot._LP_OPTIONS
        )
        assert mine.nit == ref.nit != default.nit
        assert same_bits(mine.x, ref.x)
        assert same_bits(mine.eqlin.marginals, ref.eqlin.marginals)

    @pytest.mark.parametrize("name", lps)
    def test_both_paths_give_the_same_solve(self, monkeypatch, caplog, name):
        if ot._highs_core is None:
            pytest.skip("scipy's private HiGHS bindings did not import")
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        mu, nu = lp_pair(name)
        first = exact_ot(mu, nu)
        monkeypatch.setattr(ot, "_highs_core", None)
        second = exact_ot(mu, nu)
        records = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert [r.lp_path for r in records] == ["highs", "linprog"]
        assert [f"lp_path={r.lp_path} " in r.getMessage() for r in records] == [True, True]
        assert records[0].simplex_iters == records[1].simplex_iters
        (plan, pot, wpp), (plan2, pot2, wpp2) = first, second
        assert wpp == wpp2 and plan.cost == plan2.cost and pot.dual_value == pot2.dual_value
        for x, y in [(plan.matrix, plan2.matrix), (pot.phi, pot2.phi), (pot.psi, pot2.psi)]:
            assert same_bits(x, y)

    @pytest.mark.parametrize("shape", [None, (3, 3)], ids=["dense", "grid-flow"])
    def test_an_lp_that_is_not_optimal_is_rejected_through_linprog(self, monkeypatch, shape):
        # TestCertificates runs the same LP through the direct model
        monkeypatch.setattr(ot, "_highs_core", None)
        cost = GroundSpace.grid((3, 3)).cost_matrix()
        with pytest.raises(SolverFailure, match="transport LP failed: .*infeasible"):
            solve_transport_lp(cost, np.full(9, 1.0 / 9), np.full(9, 0.5 / 9), grid_shape=shape)

    def test_a_rejected_option_fails_the_solve(self, monkeypatch):
        if ot._highs_core is None:
            pytest.skip("scipy's private HiGHS bindings did not import")
        monkeypatch.setitem(ot._LP_OPTIONS, "no_such_option", 1)
        with pytest.raises(SolverFailure, match="^HiGHS rejected the option no_such_option=1$"):
            exact_ot(*lp_pair("flow-8x8"))

    def test_a_rejected_model_fails_the_solve(self, monkeypatch):
        if ot._highs_core is None:
            pytest.skip("scipy's private HiGHS bindings did not import")

        class Rejecting(ot._Highs):
            def passModel(self, *model):
                return ot._HIGHS_ERROR

        monkeypatch.setattr(ot, "_Highs", Rejecting)
        cost = GroundSpace.grid((3, 3)).cost_matrix()
        with pytest.raises(SolverFailure, match=r"^transport LP failed: HiGHS rejected the model\.$"):
            solve_transport_lp(cost, np.full(9, 1.0 / 9), np.full(9, 1.0 / 9))


def held_highs():
    """This thread's kept HiGHS instance, or None."""
    held = vars(ot._thread_highs).get("held")
    return None if held is None else held[1]


@pytest.mark.skipif(ot._highs_core is None, reason="scipy's private HiGHS bindings did not import")
class TestSolverReuse:
    """Each thread keeps one HiGHS instance across solves; every solve on
    it runs cold, bitwise as on a new instance, and a solve that does not
    end optimal drops it."""

    def test_reuse_carries_nothing_between_solves(self, monkeypatch):
        rng = np.random.default_rng(51)
        g = GroundSpace.grid((8, 8))
        cost3 = GroundSpace.grid((3, 3)).cost_matrix()
        lps, instances = [], []
        linprog = ot.linprog

        def recorded_linprog(*args):
            res = linprog(*args)
            lps.append((args, res))
            return res

        def infeasible():
            # the LP of TestCertificates: marginals of unequal mass
            with pytest.raises(SolverFailure, match="infeasible"):
                solve_transport_lp(cost3, np.full(9, 1 / 9), np.full(9, 0.5 / 9), grid_shape=(3, 3))

        def rejected_option():
            with monkeypatch.context() as mp:
                mp.setitem(ot._LP_OPTIONS, "no_such_option", 1)
                with pytest.raises(SolverFailure, match="rejected the option"):
                    exact_ot(*lp_pair("flow-8x8"))

        steps = [
            lambda: exact_ot(*lp_pair("flow-8x8")),
            lambda: exact_ot(*lp_pair("blobs-6x6")),
            lambda: exact_ot(*lp_pair("dense-p1.5")),
            # a support of its own rebuilds the flow slot
            lambda: exact_ot(random_measure(g, rng, sparse=True), random_measure(g, rng)),
            infeasible,
            lambda: exact_ot(*lp_pair("blobs-6x6")),
            rejected_option,
            lambda: exact_ot(*lp_pair("dense-p1.5")),
            lambda: exact_ot(*lp_pair("flow-8x8")),
        ]
        monkeypatch.setattr(ot, "linprog", recorded_linprog)
        for step in steps:
            step()
            instances.append(held_highs())
        monkeypatch.setattr(ot, "linprog", linprog)
        # kept across optimal solves, dropped by each failure and replaced
        # by the next solve
        assert instances[1] is instances[0] and instances[3] is instances[0]
        assert instances[4] is None and instances[6] is None
        assert instances[5] is not None and instances[5] is not instances[0]
        assert instances[7] is not None and instances[7] is not instances[5]
        assert instances[8] is instances[7]
        optimal = [(args, res) for args, res in lps if res.status == 0]
        assert len(optimal) == 7 and len(lps) == 8
        for args, res in optimal:
            vars(ot._thread_highs).pop("held", None)
            new = ot.linprog(*args)
            assert res.nit == new.nit > 0 and res.fun == new.fun
            assert same_bits(res.x, new.x)
            assert same_bits(res.eqlin.marginals, new.eqlin.marginals)

    def test_threads_solve_at_once_on_instances_of_their_own(self):
        rng = np.random.default_rng(52)
        g, g3 = GroundSpace.grid((6, 6)), GroundSpace.grid((6, 6), p=1.5)
        lists = [
            [(random_measure(g, rng, sparse=True), random_measure(g, rng)) for _ in range(8)],
            [(random_measure(g3, rng), random_measure(g3, rng)) for _ in range(8)],
        ]
        serial = [[exact_ot(mu, nu) for mu, nu in pairs] for pairs in lists]
        results, instances, errors = [None, None], [None, None], []
        start = threading.Barrier(2, timeout=30)

        def solve(k):
            try:
                start.wait()
                results[k] = [exact_ot(mu, nu) for mu, nu in lists[k]]
                instances[k] = held_highs()
            except Exception as exc:  # read in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert None not in instances and instances[0] is not instances[1]
        for mine, theirs in zip(results, serial):
            for (plan, pot, wpp), (splan, spot, swpp) in zip(mine, theirs, strict=True):
                assert wpp == swpp
                for x, y in [(plan.matrix, splan.matrix), (pot.phi, spot.phi), (pot.psi, spot.psi)]:
                    assert same_bits(x, y)


def sinkhorn_records(caplog):
    return [
        r for r in caplog.records if r.name == "wdlearn.ot" and hasattr(r, "sinkhorn_iters")
    ]


class TestSinkhornTelemetry:
    def test_one_record_per_solve(self, caplog):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(14)
        g = GroundSpace.grid((4, 4))
        pairs = [(random_measure(g, rng), random_measure(g, rng, sparse=True)) for _ in range(3)]
        updates = []
        for mu, nu in pairs:
            updates.append(sinkhorn_reference(mu, nu, reg=0.3, tol=1e-8)[2])
            sinkhorn(mu, nu, reg=0.3, tol=1e-8)
        records = sinkhorn_records(caplog)
        assert [r.sinkhorn_iters for r in records] == updates
        for r, (_, nu) in zip(records, pairs):
            assert r.levelno == logging.DEBUG
            assert 0.0 <= r.violation < 1e-8 and r.ns > 0
            n_supp = int(np.count_nonzero(nu.weights))
            assert 1 <= r.log_iters <= r.sinkhorn_iters
            assert r.getMessage().startswith(
                f"sinkhorn 16x{n_supp}: iters={r.sinkhorn_iters} log_iters={r.log_iters} "
            )

    def test_record_before_not_converged(self, caplog, line01):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        mu = DiscreteMeasure(line01, [0.5, 0.5])
        nu = DiscreteMeasure(line01, [0.9, 0.1])
        with pytest.raises(NotConverged) as exc:
            sinkhorn(mu, nu, reg=0.05, tol=1e-14, max_iter=3)
        # only iteration 1 ran in the log domain: the solve stopped in a
        # scaling iteration and reports that iteration's violation
        (record,) = sinkhorn_records(caplog)
        assert (record.sinkhorn_iters, record.log_iters) == (3, 1)
        assert record.violation == exc.value.violation

    def test_no_record_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="wdlearn.ot")
        rng = np.random.default_rng(15)
        g = GroundSpace.grid((3, 3))
        sinkhorn(random_measure(g, rng), random_measure(g, rng), reg=0.3)
        assert not [r for r in caplog.records if r.name == "wdlearn.ot"]


def absorbing_input(case):
    """A measure pair and solver arguments on which the Sinkhorn scalings
    leave [1e-30, 1e30], or a product of them goes non-finite, mid-solve."""
    if case == "dirichlet-0.05":
        # weights down to 4e-46: the scalings leave the range twice
        g = GroundSpace.grid((8, 8))
        rng = np.random.default_rng(1)
        a, b = rng.dirichlet(np.full(64, 0.05), size=2)
        return DiscreteMeasure(g, a), DiscreteMeasure(g, b), {"reg": 0.1, "tol": 1e-9}
    if case == "corners":
        # opposite corners of the 8x8 grid, at costs up to 19,600 reg
        g = GroundSpace.grid((8, 8))
        rng = np.random.default_rng(7)
        a, b = np.zeros(64), np.zeros(64)
        a[:8] = rng.dirichlet(np.ones(8))
        b[-8:] = rng.dirichlet(np.ones(8))
        return DiscreteMeasure(g, a), DiscreteMeasure(g, b), {"reg": 0.005, "tol": 1e-6}
    # a subnormal weight: a product goes non-finite at iteration 253,
    # between two range checks, and the scalings never leave the range
    g = GroundSpace.grid((4, 4))
    rng = np.random.default_rng(1)
    a, b = rng.dirichlet(np.ones(16), size=2)
    b[9] = 1e-318
    return DiscreteMeasure(g, a), DiscreteMeasure(g, b / b.sum()), {"reg": 0.1, "tol": 1e-9}


def assert_matches_reference(caplog, mu, nu, **kwargs):
    """Same update count as the reference loop; plan and cost within 1e-12."""
    caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
    gamma, cost, n_updates = sinkhorn_reference(mu, nu, **kwargs)
    caplog.clear()
    plan, wpp = sinkhorn(mu, nu, **kwargs)
    (record,) = sinkhorn_records(caplog)
    assert record.sinkhorn_iters == n_updates
    np.testing.assert_allclose(plan.matrix, gamma, rtol=0.0, atol=1e-12)
    assert wpp == plan.cost == pytest.approx(cost, rel=1e-12, abs=1e-12)
    return plan


class TestSinkhorn:
    def test_same_dirac(self, line01):
        mu = DiscreteMeasure.dirac(line01, 0)
        _, wpp = sinkhorn(mu, mu, reg=0.3)
        assert wpp == pytest.approx(0.0, abs=1e-12)

    def test_forced_plan(self, line01):
        mu = DiscreteMeasure.dirac(line01, 0)
        nu = DiscreteMeasure.dirac(line01, 1)
        _, wpp = sinkhorn(mu, nu, reg=0.1)
        assert wpp == pytest.approx(1.0)

    def test_reg_sweep_approaches_exact(self):
        rng = np.random.default_rng(9)
        g = GroundSpace(rng.normal(size=(6, 1)))
        mu = random_measure(g, rng)
        nu = random_measure(g, rng)
        _, _, exact = exact_ot(mu, nu)
        gaps = []
        for reg in [0.5, 0.2, 0.08, 0.03, 0.01]:
            _, approx = sinkhorn(mu, nu, reg=reg, tol=1e-10, max_iter=200_000)
            gaps.append(abs(approx - exact))
        # entropic bias shrinks monotonically (within a small slack) as reg drops
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-6
        assert gaps[-1] < 1e-3

    def test_not_converged_carries_violation(self, line01):
        mu = DiscreteMeasure(line01, [0.5, 0.5])
        nu = DiscreteMeasure(line01, [0.9, 0.1])
        with pytest.raises(NotConverged) as exc:
            sinkhorn(mu, nu, reg=0.05, tol=1e-14, max_iter=2)
        assert exc.value.violation > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reg": float("nan")},
            {"reg": float("inf")},
            {"reg": 0.0},
            {"reg": -0.1},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": 0.0},
            {"tol": -1e-3},
            {"max_iter": 0},
            {"max_iter": -5},
        ],
    )
    def test_rejects_bad_arguments(self, line01, kwargs):
        mu = DiscreteMeasure(line01, [0.5, 0.5])
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            sinkhorn(mu, mu, **kwargs)

    def test_matches_reference_against_uniform(self, caplog):
        # the benchmark's setting: 8x8 Dirichlet measures, reg 0.1, tol 1e-3
        ds = make_synthetic_dataset(8, 8, n_train=0, n_test=3, seed=5)
        theta = DiscreteMeasure(ds.ground, np.full(64, 1 / 64))
        for mu in ds.test:
            assert_matches_reference(caplog, theta, mu, reg=0.1, tol=1e-3)

    def test_matches_reference_on_sparse_supports(self, caplog):
        rng = np.random.default_rng(4)
        g = GroundSpace.grid((5, 5))
        for _ in range(3):
            mu = random_measure(g, rng, sparse=True)
            nu = random_measure(g, rng, sparse=True)
            plan = assert_matches_reference(caplog, mu, nu, reg=0.5, tol=1e-9)
            np.testing.assert_array_equal(plan.matrix[mu.weights == 0.0], 0.0)
            np.testing.assert_array_equal(plan.matrix[:, nu.weights == 0.0], 0.0)

    def test_stays_in_log_domain(self, caplog):
        # opposite corners of the unnormalised 8x8 pixel grid: costs reach
        # 98, where the Gibbs kernel exp(-C / reg) underflows to 0 but the
        # plan does not
        mu, nu, _ = absorbing_input("corners")
        a, b = mu.weights, nu.weights
        C = mu.ground.cost_matrix()[:8, -8:]
        underflow = np.exp(-C / 0.1) == 0.0
        assert C.max() == 98.0 and underflow.any()
        plan = assert_matches_reference(caplog, mu, nu, reg=0.1, tol=1e-6)
        assert np.isfinite(plan.matrix).all()
        assert (plan.matrix[:8, -8:][underflow] > 0.0).all()
        np.testing.assert_allclose(plan.matrix.sum(axis=0), b, atol=1e-12)
        np.testing.assert_allclose(plan.matrix.sum(axis=1), a, atol=1e-6)

    @pytest.mark.parametrize("case", ["dirichlet-0.05", "corners", "subnormal"])
    def test_matches_reference_through_log_steps(self, caplog, case):
        mu, nu, kwargs = absorbing_input(case)
        plan = assert_matches_reference(caplog, mu, nu, **kwargs)
        (record,) = sinkhorn_records(caplog)
        assert record.log_iters > 1
        assert np.isfinite(plan.matrix).all()

    def test_two_logsumexp_calls_per_log_iteration(self, caplog, monkeypatch):
        # a log-domain iteration is one row and one column pass; a scaling
        # iteration calls no logsumexp
        calls = []

        def counted(x, axis):
            calls.append(x.shape)
            return logsumexp(x, axis)

        logsumexp = ot.logsumexp
        monkeypatch.setattr(ot, "logsumexp", counted)
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(16)
        g = GroundSpace.grid((4, 4))
        inputs = [(random_measure(g, rng), random_measure(g, rng), {"reg": 0.2, "tol": 1e-6})
                  for _ in range(3)]
        for mu, nu, kwargs in inputs + [absorbing_input("dirichlet-0.05")]:
            calls.clear()
            caplog.clear()
            sinkhorn(mu, nu, **kwargs)
            (record,) = sinkhorn_records(caplog)
            assert 1 <= record.log_iters <= record.sinkhorn_iters
            assert len(calls) == 2 * record.log_iters
        assert record.log_iters > 1

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as scipy_logsumexp

        rng = np.random.default_rng(17)
        x = rng.normal(scale=300.0, size=(5, 7))
        x[2] = -np.inf
        before = x.copy()
        for axis in (0, 1):
            want = scipy_logsumexp(x, axis=axis)
            with np.errstate(divide="ignore"):
                got = ot.logsumexp(x, axis)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(x, before)  # the argument is left as it was


class TestCTransform:
    def test_zero_is_fixed(self):
        g = GroundSpace.line([0.0, 1.0, 2.5])
        np.testing.assert_allclose(c_transform(np.zeros(3), g.cost_matrix()), 0.0)

    def test_two_point_by_hand(self, line01):
        # p=2: f^c(x) = min(d(x,0)^2 - 0, d(x,1)^2 - 0.4), d being 0 or 1
        fc = c_transform(np.array([0.0, 0.4]), line01.cost_matrix())
        np.testing.assert_allclose(fc, [0.0, -0.4])

    def test_rectangular_cost_and_its_transpose(self):
        # a potential over the columns of a sub-block, then one over its rows
        C = GroundSpace.grid((3, 3)).cost_matrix()[:4, [0, 5, 8]]
        v = np.array([0.5, -1.0, 2.0])
        psi = c_transform(v, C)
        assert psi.tolist() == [min(C[x, y] - v[y] for y in range(3)) for x in range(4)]
        phi = c_transform(psi, C.T)
        assert phi.tolist() == [min(C[x, y] - psi[x] for x in range(4)) for y in range(3)]
        with pytest.raises(ValueError, match=r"f of shape \(4,\) is not a vector over 3 columns"):
            c_transform(psi, C)

    @settings(max_examples=30, deadline=None)
    @given(
        vals=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=7
        )
    )
    def test_triple_transform_idempotent(self, vals):
        g = GroundSpace.line(np.arange(len(vals), dtype=float))
        f = np.asarray(vals)
        cost = g.cost_matrix()
        fc = c_transform(f, cost)
        fccc = c_transform(c_transform(fc, cost), cost)
        np.testing.assert_allclose(fccc, fc, atol=1e-12)
