import numpy as np
import pytest

from wdlearn.cylinder import (
    CylinderFunction,
    affine_outer,
    grid_gradients,
    gradient_operators,
    identity_outer,
    poly_outer,
    pre_cheeger,
    pre_cheeger_inner,
)
from wdlearn.errors import NoSpatialGradient
from wdlearn.measures import DiscreteMeasure, GroundSpace

from .helpers import assert_close_at_scale


@pytest.fixture
def line():
    # 1-d grid {0, 1}
    return GroundSpace.grid((2,))


@pytest.fixture
def line5():
    return GroundSpace.grid((5,))


class TestGridGradients:
    def test_linear_profile_has_unit_gradient(self, line5):
        f = line5.points[:, 0]
        g = grid_gradients(line5, f)
        np.testing.assert_allclose(g[:, 0], 1.0)

    def test_matches_numpy_gradient_on_2d(self):
        rng = np.random.default_rng(0)
        ground = GroundSpace.grid((3, 4))
        f = rng.normal(size=12)
        g = grid_gradients(ground, f)
        expected = np.gradient(f.reshape(3, 4))
        np.testing.assert_allclose(g[:, 0], expected[0].ravel())
        np.testing.assert_allclose(g[:, 1], expected[1].ravel())

    def test_singleton_axis_is_zero(self):
        ground = GroundSpace.grid((1, 3))
        f = np.array([0.0, 1.0, 4.0])
        g = grid_gradients(ground, f)
        np.testing.assert_allclose(g[:, 0], 0.0)
        np.testing.assert_allclose(g[:, 1], np.gradient(f))

    @pytest.mark.parametrize("shape", [(8, 8), (3, 4), (1, 3), (5,), (4, 3, 2)])
    def test_batched_rows_equal_per_row_calls(self, shape):
        ground = GroundSpace.grid(shape)
        F = np.random.default_rng(2).normal(size=(6, ground.size))
        batched = grid_gradients(ground, F)
        assert batched.shape == (6, ground.size, len(shape))
        np.testing.assert_array_equal(batched, np.stack([grid_gradients(ground, f) for f in F]))
        # reference: each operator applied to each row on its own
        ops = gradient_operators(ground)
        reference = np.stack([np.stack([op @ f for op in ops], axis=-1) for f in F])
        np.testing.assert_array_equal(batched, reference)

    def test_adjointness(self):
        # dense operators make the adjoint exact: <Gf, h> == <f, G^T h>
        rng = np.random.default_rng(1)
        ground = GroundSpace.grid((4, 3))
        G = gradient_operators(ground)[1]
        f, h = rng.normal(size=12), rng.normal(size=12)
        assert np.dot(G @ f, h) == pytest.approx(np.dot(f, G.T @ h))

    def test_requires_grid(self):
        ground = GroundSpace([[0.0], [2.0]])
        with pytest.raises(NoSpatialGradient):
            grid_gradients(ground, np.zeros(2))


class TestEval:
    def test_constant_feature(self, line):
        F = CylinderFunction(line, np.full((1, 2), 3.7), identity_outer())
        for w in ([1, 0], [0.5, 0.5], [0.2, 0.8]):
            assert F(DiscreteMeasure(line, w)) == pytest.approx(3.7)

    def test_indicator_reads_weight(self, line5):
        ind = np.zeros((1, 5))
        ind[0, 2] = 1.0
        F = CylinderFunction(line5, ind, identity_outer())
        mu = DiscreteMeasure(line5, [0.1, 0.2, 0.4, 0.2, 0.1])
        assert F(mu) == pytest.approx(0.4)

    def test_square_of_mean(self, line):
        # psi(v) = v^2, phi(x) = x on {0,1}: (0.5)^2
        F = CylinderFunction(line, line.points[:, 0][None, :], poly_outer([0, 0, 1]))
        mu = DiscreteMeasure(line, [0.5, 0.5])
        assert F(mu) == pytest.approx(0.25)

    def test_partials_against_finite_differences(self, line5):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(3, 5))
        F = CylinderFunction(line5, feats, affine_outer([0.3, -1.2, 0.5], 0.1))
        assert F.check_partials(rng=3) < 1e-5
        G = CylinderFunction(line5, feats[:1], poly_outer([0.0, 1.0, 2.0, -0.5]))
        assert G.check_partials(rng=4) < 1e-5


class TestGradField:
    def test_constant_feature_zero_field(self, line5):
        F = CylinderFunction(line5, np.ones((1, 5)), identity_outer())
        mu = DiscreteMeasure(line5, np.full(5, 0.2))
        np.testing.assert_allclose(F.grad_field(mu), 0.0, atol=1e-14)

    def test_linear_feature_unit_field(self, line5):
        F = CylinderFunction(line5, line5.points[:, 0][None, :], identity_outer())
        mu = DiscreteMeasure(line5, np.full(5, 0.2))
        np.testing.assert_allclose(F.grad_field(mu)[:, 0], 1.0)

    def test_first_order_prediction_of_mass_shift(self, line5):
        # moving delta mass from atom 2 to atom 3 changes eval by
        # delta * dpsi * (phi(3) - phi(2)) + O(delta^2)
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(1, 5))
        F = CylinderFunction(line5, feats, poly_outer([0.0, 0.0, 1.0]))
        w = np.full(5, 0.2)
        mu = DiscreteMeasure(line5, w)
        delta = 1e-5
        w2 = w.copy()
        w2[2] -= delta
        w2[3] += delta
        actual = F(DiscreteMeasure(line5, w2)) - F(mu)
        dpsi = F.outer.partials(F.linear_part(mu))[0]
        predicted = delta * dpsi * (feats[0, 3] - feats[0, 2])
        assert actual == pytest.approx(predicted, abs=10 * delta**2)

    @pytest.mark.parametrize(
        "n, outer",
        [(3, affine_outer([0.3, -1.2, 0.5], 0.1)), (1, poly_outer([0.5, -1.0, 2.0, 0.7]))],
        ids=["affine", "poly"],
    )
    def test_potential_gradient_matches_feature_gradients(self, n, outer):
        # reference: the partials contracted against each feature's gradient
        rng = np.random.default_rng(9)
        ground = GroundSpace.grid((4, 3))
        F = CylinderFunction(ground, rng.normal(size=(n, ground.size)), outer)
        for _ in range(5):
            mu = DiscreteMeasure(ground, rng.dirichlet(np.ones(ground.size)))
            parts = F.outer.partials(F.linear_part(mu))
            expected = np.einsum("n,nmd->md", parts, grid_gradients(ground, F.features))
            assert_close_at_scale(F.grad_field(mu), expected)

    def test_no_grid_raises(self):
        ground = GroundSpace([[0.0], [3.0]])
        F = CylinderFunction(ground, np.ones((1, 2)), identity_outer())
        with pytest.raises(NoSpatialGradient):
            F.grad_field(DiscreteMeasure(ground, [0.5, 0.5]))


class TestPreCheeger:
    def test_constant_function_zero_energy(self, line5):
        F = CylinderFunction(line5, np.full((1, 5), 2.0), identity_outer())
        data = [DiscreteMeasure(line5, np.full(5, 0.2)) for _ in range(3)]
        assert pre_cheeger(F, data) == pytest.approx(0.0, abs=1e-14)

    def test_linear_feature_counts_mass(self, line5):
        # |grad phi| = 1 everywhere, so the energy is the total weight
        F = CylinderFunction(line5, line5.points[:, 0][None, :], identity_outer())
        rng = np.random.default_rng(6)
        data = [DiscreteMeasure(line5, rng.dirichlet(np.ones(5))) for _ in range(4)]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        assert pre_cheeger(F, data, w) == pytest.approx(w.sum())

    def test_hand_quadrature(self, line):
        # psi(v)=v^2, phi(x)=x on {0,1}, mu uniform: DF = 2*0.5*1 = 1
        F = CylinderFunction(line, line.points[:, 0][None, :], poly_outer([0, 0, 1]))
        mu = DiscreteMeasure(line, [0.5, 0.5])
        assert pre_cheeger(F, [mu], [1.0]) == pytest.approx(1.0)

    def test_inner_matches_energy_and_is_bilinear(self, line5):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(2, 5))
        data = [DiscreteMeasure(line5, rng.dirichlet(np.ones(5))) for _ in range(3)]
        a, b = 0.7, -1.3
        F = CylinderFunction(line5, feats, affine_outer([1.0, 0.5]))
        G = CylinderFunction(line5, feats, affine_outer([-0.2, 1.0]))
        H = CylinderFunction(line5, feats, affine_outer([0.4, -0.9]))
        comb = CylinderFunction(
            line5, feats, affine_outer([a * 1.0 + b * -0.2, a * 0.5 + b * 1.0])
        )
        assert pre_cheeger_inner(F, F, data) == pytest.approx(pre_cheeger(F, data))
        lhs = pre_cheeger_inner(comb, H, data)
        rhs = a * pre_cheeger_inner(F, H, data) + b * pre_cheeger_inner(G, H, data)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert pre_cheeger_inner(F, H, data) == pytest.approx(
            pre_cheeger_inner(H, F, data)
        )

    def test_inner_against_hand_quadrature(self):
        # sum_j w_j sum_x mu_j(x) <DF(mu_j, x), DG(mu_j, x)>, written out
        rng = np.random.default_rng(10)
        ground = GroundSpace.grid((3, 4))
        feats = rng.normal(size=(2, ground.size))
        F = CylinderFunction(ground, feats[:1], poly_outer([0.0, 1.0, -1.5]))
        G = CylinderFunction(ground, feats, affine_outer([0.8, -0.4]))
        data = [DiscreteMeasure(ground, rng.dirichlet(np.ones(ground.size))) for _ in range(6)]
        w = rng.uniform(0.1, 2.0, size=len(data))
        expected = 0.0
        for wj, mu in zip(w, data):
            df, dg = F.grad_field(mu), G.grad_field(mu)
            expected += wj * sum(
                mu.weights[x] * np.dot(df[x], dg[x]) for x in range(ground.size)
            )
        assert pre_cheeger_inner(F, G, data, w) == pytest.approx(expected, rel=1e-12)
