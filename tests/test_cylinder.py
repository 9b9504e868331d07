import numpy as np
import pytest

from wdlearn.cylinder import field_pairing, grid_gradients, gradient_operators
from wdlearn.errors import NoSpatialGradient
from wdlearn.measures import GroundSpace


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


class TestPreCheeger:
    """The pre-Cheeger pairing ``field_pairing`` of grid-gradient fields."""

    def test_constant_function_zero_energy(self, line5):
        field = grid_gradients(line5, np.full(5, 2.0))
        W = np.full((3, 5), 0.2)
        np.testing.assert_allclose(field_pairing(field, field, W), 0.0, atol=1e-14)

    def test_linear_feature_counts_mass(self, line5):
        # |grad phi| = 1 everywhere, so the energy is the total weight
        field = grid_gradients(line5, line5.points[:, 0])
        W = np.random.default_rng(6).dirichlet(np.ones(5), size=4)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        assert w @ field_pairing(field, field, W) == pytest.approx(w.sum())

    def test_hand_quadrature(self, line):
        # F(mu) = <phi, mu>^2, phi(x) = x on {0,1}, mu uniform: the field is
        # the gradient of 2 <phi, mu> phi, which is 1
        phi, mu = line.points[:, 0], np.array([0.5, 0.5])
        field = grid_gradients(line, 2.0 * (phi @ mu) * phi)
        assert field_pairing(field, field, mu) == pytest.approx(1.0)

    def test_inner_matches_energy_and_is_bilinear(self, line5):
        rng = np.random.default_rng(8)
        potentials = rng.normal(size=(3, 5))
        W = rng.dirichlet(np.ones(5), size=3)
        a, b = 0.7, -1.3
        F, G, H = grid_gradients(line5, potentials)
        comb = grid_gradients(line5, a * potentials[0] + b * potentials[1])
        np.testing.assert_allclose(field_pairing(F, F, W), W @ (F**2).sum(axis=1))
        lhs = field_pairing(comb, H, W)
        rhs = a * field_pairing(F, H, W) + b * field_pairing(G, H, W)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)
        np.testing.assert_allclose(field_pairing(F, H, W), field_pairing(H, F, W))

    def test_inner_against_hand_quadrature(self):
        # sum_j w_j sum_x mu_j(x) <F_j(x), G_j(x)>, written out, with one
        # field per measure as a measure-dependent potential gives
        rng = np.random.default_rng(10)
        ground = GroundSpace.grid((3, 4))
        W = rng.dirichlet(np.ones(ground.size), size=6)
        F = grid_gradients(ground, rng.normal(size=(6, ground.size)))
        G = grid_gradients(ground, rng.normal(size=(6, ground.size)))
        w = rng.uniform(0.1, 2.0, size=6)
        expected = 0.0
        for wj, mu, f, g in zip(w, W, F, G):
            expected += wj * sum(mu[x] * np.dot(f[x], g[x]) for x in range(ground.size))
        assert w @ field_pairing(F, G, W) == pytest.approx(expected, rel=1e-12)
