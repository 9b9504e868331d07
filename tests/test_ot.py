import logging
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
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
    """``solve`` through scipy's ``linprog`` with HiGHS presolve switched
    on: the reference for the solves without it, which run the network
    simplex where it was built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ot, "_kernel", None)
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
        # scipy's linprog refuses such a cost and the kernel would take it,
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
            assert r.lp_status.startswith("Optimization terminated successfully.") and r.ns > 0
            assert f"simplex_iters={r.simplex_iters}" in r.getMessage()
            assert r.lp_path == ("linprog" if ot._kernel is None else "network-simplex")
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
        assert record.lp_status.startswith("Optimization terminated successfully.") and record.ns > 0

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
            res.pi[:] = 0.0
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
        # marginals of unequal mass: artificial arcs keep flow, and the LP
        # is reported infeasible
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
        # the benchmark's test that exact counts repeat relies on equal nit
        assert len(calls) == 5 and min(calls) > 0 and len(set(calls)) == 1

    def test_reused_structure_is_a_fresh_one(self):
        rng = np.random.default_rng(32)
        g = GroundSpace.grid((5, 4))
        mu, nu = random_measure(g, rng, sparse=True), random_measure(g, rng, sparse=True)
        ia, ib = np.flatnonzero(mu.weights), np.flatnonzero(nu.weights)
        exact_ot(mu, nu)
        held = ot._reused_grid_flow((5, 4), ia, ib)
        exact_ot(mu, nu)
        assert ot._reused_grid_flow((5, 4), ia, ib) is held
        c, ends, n_transit, _ = held
        fresh_c, fresh_ends, fresh_transit, _ = ot._grid_flow((5, 4), ia, ib)
        assert n_transit == fresh_transit
        for mine, theirs in [(c, fresh_c), (ends, fresh_ends)]:
            assert mine.dtype == theirs.dtype and not mine.flags.writeable
            np.testing.assert_array_equal(mine, theirs)
        # the kernel reads the ends by address, so linprog takes them as they are
        assert ends.dtype == np.intc and ends.flags.c_contiguous and ends.shape == (len(c), 2)

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


def kernel_cases(name):
    """The measure pairs of one case of the kernel's comparison with HiGHS."""
    rng = np.random.default_rng(61)
    g5 = GroundSpace.grid((5, 5))
    if name == "flow-8x8":
        ds = make_synthetic_dataset(8, 8, n_train=12, n_test=0, seed=61)
        theta = DiscreteMeasure(ds.ground, np.full(64, 1.0 / 64))
        return [(theta, mu) for mu in ds.train]
    if name == "blobs-6x6":
        ds = make_synthetic_dataset(6, 6, n_train=5, n_test=0, generator="blurred-blobs", seed=61)
        return [(mu, nu) for i, mu in enumerate(ds.train) for nu in ds.train[i + 1:]]
    if name == "dense-p1.5":
        g = GroundSpace.grid((8, 8), p=1.5)
        return [(random_measure(g, rng), random_measure(g, rng)) for _ in range(6)]
    if name == "sparse-flow":
        # a support pair of its own each time: the flow slot is rebuilt
        return [(random_measure(g5, rng, True), random_measure(g5, rng, True)) for _ in range(8)]
    if name == "one-atom":
        mu = random_measure(g5, rng)
        dirac = [DiscreteMeasure.dirac(g5, i) for i in (0, 12, 24)]
        return [(dirac[0], mu), (mu, dirac[1]), (dirac[0], dirac[2]), (dirac[1], dirac[1])]
    if name == "identical":
        mu, g3 = random_measure(g5, rng, sparse=True), GroundSpace.grid((6, 6), p=1.5)
        nu = random_measure(g3, rng)
        return [(mu, mu), (nu, nu)]
    line = GroundSpace.line(np.sort(rng.random(12)))
    return [(random_measure(line, rng), random_measure(line, rng)) for _ in range(6)]


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


needs_kernel = pytest.mark.skipif(ot._kernel is None, reason="the network simplex was not built")


class TestLpPaths:
    """The LP step runs the compiled network simplex where it was built and
    scipy's ``linprog`` where it was not: the two give the same optimum,
    and each solve's record names its path."""

    lps = ["flow-8x8", "blobs-6x6", "dense-p1.5"]

    @needs_kernel
    @pytest.mark.parametrize("name", lps + ["sparse-flow", "one-atom", "identical", "line"])
    def test_the_kernel_matches_highs_ds(self, monkeypatch, name):
        seen = []
        linprog = ot.linprog
        monkeypatch.setattr(ot, "linprog", lambda *args: seen.append(args) or linprog(*args))
        for mu, nu in kernel_cases(name):
            seen.clear()
            _, _, wpp = exact_ot(mu, nu)
            ((ends, c, supply),) = seen
            # the flow's node-arc incidence LP: +1 at each arc's tail, -1 at its head
            arcs = np.arange(len(c))
            A_eq = scipy.sparse.csc_matrix(
                (np.r_[np.ones(len(c)), -np.ones(len(c))], (np.r_[ends[:, 0], ends[:, 1]], np.r_[arcs, arcs])),
                shape=(len(supply), len(c)),
            )
            ref = scipy.optimize.linprog(
                c, A_eq=A_eq, b_eq=supply, bounds=(0, None), method="highs-ds", options=ot._LP_OPTIONS
            )
            assert ref.status == 0 and abs(wpp - ref.fun) <= 1e-12 * (1.0 + abs(ref.fun))
            if mu is nu:
                assert abs(wpp) <= 1e-12

    @needs_kernel
    @pytest.mark.parametrize("name", lps)
    def test_both_paths_give_the_same_solve(self, monkeypatch, caplog, name):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        mu, nu = lp_pair(name)
        first = exact_ot(mu, nu)
        monkeypatch.setattr(ot, "_kernel", None)
        second = exact_ot(mu, nu)
        records = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert [r.lp_path for r in records] == ["network-simplex", "linprog"]
        assert [f"lp_path={r.lp_path} " in r.getMessage() for r in records] == [True, True]
        # a grid's ties leave the optimal plan open, so plans are compared
        # by cost; the potentials of these pairs are unique
        (plan, pot, wpp), (plan2, pot2, wpp2) = first, second
        for x, y in [(wpp, wpp2), (plan.cost, plan2.cost), (pot.dual_value, pot2.dual_value)]:
            assert abs(x - y) <= 1e-12 * (1.0 + abs(y))
        for x, y in [(pot.phi, pot2.phi), (pot.psi, pot2.psi)]:
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [None, (3, 3)], ids=["dense", "grid-flow"])
    def test_an_lp_that_is_not_optimal_is_rejected_through_linprog(self, monkeypatch, shape):
        # TestCertificates runs the same LP through the kernel
        monkeypatch.setattr(ot, "_kernel", None)
        cost = GroundSpace.grid((3, 3)).cost_matrix()
        with pytest.raises(SolverFailure, match="transport LP failed: .*infeasible"):
            solve_transport_lp(cost, np.full(9, 1.0 / 9), np.full(9, 0.5 / 9), grid_shape=shape)

    @needs_kernel
    def test_a_rejected_model_fails_the_solve(self, monkeypatch):
        # an arc whose end lies outside the nodes: the kernel checks every
        # arc before it reads a node's state
        def out_of_range(ends, c, supply):
            ends = ends.copy()
            ends[-1, 0] = len(supply)  # the last arc's tail
            return linprog(ends, c, supply)

        linprog = ot.linprog
        monkeypatch.setattr(ot, "linprog", out_of_range)
        cost = GroundSpace.grid((3, 3)).cost_matrix()
        with pytest.raises(SolverFailure, match=r"^transport LP failed: The network simplex failed\.$"):
            solve_transport_lp(cost, np.full(9, 1.0 / 9), np.full(9, 1.0 / 9))

    @pytest.mark.parametrize(
        "cut",
        [
            lambda ends, c, supply: (ends[:-1], c, supply),
            lambda ends, c, supply: (ends, c[:-1], supply),
            lambda ends, c, supply: (ends.ravel(), c, supply),
            lambda ends, c, supply: (ends, c, supply[:, None]),
        ],
        ids=["short-ends", "short-c", "flat-ends", "column-supply"],
    )
    def test_mismatched_arrays_are_refused_before_the_kernel(self, monkeypatch, cut):
        # the kernel reads its arrays by address, so only arrays of matching
        # shapes reach it; an end outside supply's nodes is its own check
        ends = np.array([[0, 2], [0, 3], [1, 2], [1, 3]])
        c, supply = np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.5, 0.5, -0.5, -0.5])
        assert ot.linprog(ends, c, supply).fun == 0.0
        monkeypatch.setattr(ot, "_kernel", lambda *args: pytest.fail("the kernel ran"))
        with pytest.raises(ValueError, match="^linprog takes ends of shape"):
            ot.linprog(*cut(ends, c, supply))

    @needs_kernel
    def test_a_pivot_cap_too_small_fails_the_solve(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        monkeypatch.setattr(ot, "_PIVOT_CAP", 10)
        message = r"^transport LP failed: The network simplex reached its cap of 10 pivots\.$"
        with pytest.raises(SolverFailure, match=message):
            exact_ot(*lp_pair("flow-8x8"))
        (record,) = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert record.simplex_iters == 10 and np.isnan(record.gap)


@needs_kernel
class TestPivotCounts:
    """The kernel's pivots on three fixed solves: a change to pricing or
    to the pivot rule that moves the pivot sequence changes a count."""

    @pytest.mark.parametrize(
        "name, pivots", [("uniform-8x8", 341), ("blobs-6x6", 248), ("dense-p1.5", 362)]
    )
    def test_pivots_are_pinned(self, monkeypatch, name, pivots):
        if name == "uniform-8x8":
            ds = make_synthetic_dataset(8, 8, 1, 0, seed=61)
            mu, nu = DiscreteMeasure(ds.ground, np.full(64, 1.0 / 64)), ds.train[0]
        else:
            mu, nu = lp_pair(name)
        seen = []
        linprog = ot.linprog
        monkeypatch.setattr(ot, "linprog", lambda *args: seen.append(linprog(*args)) or seen[-1])
        exact_ot(mu, nu)
        assert [res.nit for res in seen] == [pivots]


class TestKernelForm:
    """The flow's arcs, in the form the kernel reads, are built once per
    flow structure and kept in the flow slot."""

    def test_built_once_per_support(self, monkeypatch):
        built = []
        grid_flow = ot._grid_flow

        def counted_grid_flow(*args):
            built.append(grid_flow(*args))
            return built[-1]

        monkeypatch.setattr(ot, "_grid_flow", counted_grid_flow)
        monkeypatch.setattr(ot, "_flow_slot", None)
        ds = make_synthetic_dataset(6, 6, 5, 0, seed=3)
        theta = DiscreteMeasure(ds.ground, np.full(36, 1.0 / 36))
        for mu in ds.train:
            exact_ot(theta, mu)
        assert len(built) == 1 and ot._flow_slot[1] is built[0]
        sparse_mu = random_measure(ds.ground, np.random.default_rng(3), sparse=True)
        exact_ot(theta, sparse_mu)
        exact_ot(theta, sparse_mu)
        exact_ot(theta, ds.train[0])
        assert len(built) == 3 and ot._flow_slot[1] is built[2]


@needs_kernel
class TestSolverReuse:
    """One compiled kernel serves every solve and thread; a solve carries
    nothing from the solves before it, failed ones included."""

    def test_reuse_carries_nothing_between_solves(self, monkeypatch):
        rng = np.random.default_rng(51)
        g = GroundSpace.grid((8, 8))
        cost3 = GroundSpace.grid((3, 3)).cost_matrix()
        lps = []
        linprog = ot.linprog

        def recorded_linprog(*args):
            res = linprog(*args)
            lps.append((args, res))
            return res

        def infeasible():
            # the LP of TestCertificates: marginals of unequal mass
            with pytest.raises(SolverFailure, match="infeasible"):
                solve_transport_lp(cost3, np.full(9, 1 / 9), np.full(9, 0.5 / 9), grid_shape=(3, 3))

        def capped():
            with monkeypatch.context() as mp:
                mp.setattr(ot, "_PIVOT_CAP", 10)
                with pytest.raises(SolverFailure, match="cap of 10 pivots"):
                    exact_ot(*lp_pair("flow-8x8"))

        steps = [
            lambda: exact_ot(*lp_pair("flow-8x8")),
            lambda: exact_ot(*lp_pair("blobs-6x6")),
            lambda: exact_ot(*lp_pair("dense-p1.5")),
            # a support of its own rebuilds the flow slot
            lambda: exact_ot(random_measure(g, rng, sparse=True), random_measure(g, rng)),
            infeasible,
            lambda: exact_ot(*lp_pair("blobs-6x6")),
            capped,
            lambda: exact_ot(*lp_pair("dense-p1.5")),
            lambda: exact_ot(*lp_pair("flow-8x8")),
        ]
        monkeypatch.setattr(ot, "linprog", recorded_linprog)
        for step in steps:
            step()
        monkeypatch.setattr(ot, "linprog", linprog)
        optimal = [(args, res) for args, res in lps if res.status == 0]
        assert len(optimal) == 7 and len(lps) == 9
        for args, res in optimal:
            new = ot.linprog(*args)
            assert res.nit == new.nit > 0 and res.fun == new.fun
            assert same_bits(res.x, new.x)
            assert same_bits(res.pi, new.pi)

    def test_threads_solve_at_once_on_memory_of_their_own(self):
        # ctypes releases the GIL for each kernel call, so the two threads'
        # pivots overlap
        rng = np.random.default_rng(52)
        g, g3 = GroundSpace.grid((6, 6)), GroundSpace.grid((6, 6), p=1.5)
        lists = [
            [(random_measure(g, rng, sparse=True), random_measure(g, rng)) for _ in range(8)],
            [(random_measure(g3, rng), random_measure(g3, rng)) for _ in range(8)],
        ]
        serial = [[exact_ot(mu, nu) for mu, nu in pairs] for pairs in lists]
        results, errors = [None, None], []
        start = threading.Barrier(2, timeout=30)

        def solve(k):
            try:
                start.wait()
                results[k] = [exact_ot(mu, nu) for mu, nu in lists[k]]
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
        for mine, theirs in zip(results, serial):
            for (plan, pot, wpp), (splan, spot, swpp) in zip(mine, theirs, strict=True):
                assert wpp == swpp
                for x, y in [(plan.matrix, splan.matrix), (pot.phi, spot.phi), (pot.psi, spot.psi)]:
                    assert same_bits(x, y)


def c_compiler():
    """Python's C compiler as a command, or None where it does not run here."""
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc and shutil.which(shlex.split(cc)[0]) else None


needs_compiler = pytest.mark.skipif(c_compiler() is None, reason="no C compiler")


class TestKernelBuild:
    """``ot`` compiles ``_network_simplex.c`` once per source and command
    into a cache it alone may write, and sends every solve to scipy's
    ``linprog`` where no library can be built."""

    @needs_compiler
    def test_the_source_compiles_without_warnings(self, tmp_path):
        source = Path(ot.__file__).with_name("_network_simplex.c")
        flags = ["-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror"]
        run = subprocess.run(
            [*c_compiler(), *flags, "-o", str(tmp_path / "ns.so"), str(source)],
            capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr

    @needs_compiler
    def test_a_second_load_reuses_the_cached_library(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert ot._load_kernel() is not None
        (lib,) = (tmp_path / "wdlearn").iterdir()
        assert lib.suffix == ".so" and len(lib.stem) == 64
        monkeypatch.setattr(ot.subprocess, "run", lambda *args, **kwargs: pytest.fail("compiled"))
        kernel = ot._load_kernel()
        assert kernel is not None and list((tmp_path / "wdlearn").iterdir()) == [lib]
        monkeypatch.setattr(ot, "_kernel", kernel)
        assert exact_ot(*lp_pair("blobs-6x6"))[2] > 0.0

    @needs_compiler
    @pytest.mark.parametrize("unusable", ["not-a-directory", "world-writable"])
    def test_an_unusable_cache_gives_way_to_a_private_directory(self, monkeypatch, tmp_path, unusable):
        cache = tmp_path / "cache"
        if unusable == "not-a-directory":
            cache.write_text("")
        else:
            (cache / "wdlearn").mkdir(parents=True)
            (cache / "wdlearn").chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        made, mkdtemp = [], tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "mkdtemp", lambda **kw: made.append(mkdtemp(dir=tmp_path, **kw)) or made[-1])
        assert ot._load_kernel() is not None
        (private,) = made
        assert stat.S_IMODE(os.stat(private).st_mode) == 0o700
        assert [path.suffix for path in Path(private).iterdir()] == [".so"]
        if unusable == "world-writable":
            assert not any((cache / "wdlearn").iterdir())

    @pytest.mark.parametrize("cc", [None, "/nonexistent/cc", "false"], ids=["unset", "missing", "failing"])
    def test_without_a_compiler_every_solve_runs_linprog(self, monkeypatch, caplog, tmp_path, cc):
        expected = [exact_ot(*lp_pair(name))[2] for name in TestLpPaths.lps]
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        get = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: cc if name == "CC" else get(name))
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        assert ot._load_kernel() is None
        (warning,) = caplog.records
        assert (warning.name, warning.levelno) == ("wdlearn.ot", logging.WARNING)
        assert warning.getMessage().endswith("exact solves run scipy's linprog")
        caplog.clear()
        monkeypatch.setattr(ot, "_kernel", None)
        for name, value in zip(TestLpPaths.lps, expected):
            assert abs(exact_ot(*lp_pair(name))[2] - value) <= 1e-12 * (1.0 + abs(value))
        assert [r.lp_path for r in caplog.records] == ["linprog"] * 3


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
                f"sinkhorn 16x{n_supp}: sinkhorn_iters={r.sinkhorn_iters} log_iters={r.log_iters} "
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


# the attributes every log record has, and those a formatter adds to it
_PLAIN_RECORD = set(vars(logging.makeLogRecord({}))) | {"message", "asctime"}


class TestRecordMessages:
    """A record's message is its prefix and then ``name=value`` for
    exactly the attributes the record carries, in order, ``ns`` last:
    floats as ``%.3e``, anything else as ``str``."""

    def assert_message_lists_the_attributes(self, record, prefix):
        fields = {k: v for k, v in vars(record).items() if k not in _PLAIN_RECORD}
        head, sep, rest = record.getMessage().partition(": ")
        assert (head, sep) == (prefix, ": ")
        # a value may hold spaces (lp_status does), never " name="
        pairs = re.findall(r"(\w+)=(.*?)(?= \w+=|$)", rest)
        assert [name for name, _ in pairs] == list(fields) and list(fields)[-1] == "ns"
        for name, text in pairs:
            value = fields[name]
            assert text == (f"{value:.3e}" if isinstance(value, float) else str(value)), name

    @pytest.mark.parametrize("path", [pytest.param("kernel", marks=needs_kernel), "fallback"])
    @pytest.mark.parametrize("p", [2.0, 1.5], ids=["grid-flow", "dense"])
    def test_lp_records(self, monkeypatch, caplog, path, p):
        if path == "fallback":
            monkeypatch.setattr(ot, "_kernel", None)
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        rng = np.random.default_rng(17)
        g = GroundSpace.grid((4, 4), p=p)
        mu, nu = random_measure(g, rng, sparse=True), random_measure(g, rng)
        exact_ot(mu, nu)
        # an infeasible LP: its record's certificates read NaN
        with pytest.raises(SolverFailure, match="infeasible"):
            solve_transport_lp(
                g.cost_matrix(), np.full(16, 1.0 / 16), np.full(16, 0.5 / 16),
                grid_shape=(4, 4) if p == 2.0 else None,
            )
        solved, failed = [r for r in caplog.records if r.name == "wdlearn.ot"]
        assert np.isnan(failed.gap) and solved.lp_form == ("grid-flow" if p == 2.0 else "dense")
        assert solved.lp_path == ("linprog" if path == "fallback" else "network-simplex")
        n_supp = int(np.count_nonzero(mu.weights))
        self.assert_message_lists_the_attributes(solved, f"transport LP {n_supp}x16")
        self.assert_message_lists_the_attributes(failed, "transport LP 16x16")

    def test_sinkhorn_records(self, caplog, line01):
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        mu = DiscreteMeasure(line01, [0.5, 0.5])
        sinkhorn(mu, DiscreteMeasure(line01, [0.9, 0.1]), reg=0.3)
        with pytest.raises(NotConverged):
            sinkhorn(mu, DiscreteMeasure(line01, [0.9, 0.1]), reg=0.05, tol=1e-14, max_iter=3)
        converged, stopped = sinkhorn_records(caplog)
        assert stopped.sinkhorn_iters == 3
        for record in (converged, stopped):
            self.assert_message_lists_the_attributes(record, "sinkhorn 2x2")


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
