"""Shared builders for synthetic populations used across test modules."""

import numpy as np

from wdlearn.erm import CylinderSubspace
from wdlearn.measures import DiscreteMeasure, GroundSpace
from wdlearn.nets import init_from_bank, random_head_network

# grids of the gradient-field reference checks: square, rectangular, 1-d,
# one axis of extent 1 (a zero operator), and 3-d
FIELD_GRIDS = [(8, 8), (3, 4), (5,), (1, 3), (4, 3, 2)]
FIELD_NETS = ["bank_init", "all_trainable", "first_frozen"]


def dirichlet_population(ground, size, seed, alpha=1.0):
    rng = np.random.default_rng(seed)
    alphas = np.full(ground.size, alpha)
    return [DiscreteMeasure(ground, rng.dirichlet(alphas)) for _ in range(size)]


def smooth_feature_subspace(ground, n_features, seed, include_constant=True):
    """Raw subspace spanned by bounded smooth profiles of the coordinates."""
    rng = np.random.default_rng(seed)
    x = ground.points
    scale = max(np.abs(x).max(), 1.0)
    feats = []
    if include_constant:
        feats.append(np.ones(ground.size))
    for _ in range(n_features - len(feats)):
        freq = rng.uniform(0.5, 2.0, size=ground.dim)
        phase = rng.uniform(0, 2 * np.pi)
        feats.append(np.sin((x / scale) @ freq * np.pi + phase))
    return CylinderSubspace(ground, np.array(feats))


def grid_population(shape=(6,), size=200, seed=0, alpha=0.8):
    ground = GroundSpace.grid(shape)
    return ground, dirichlet_population(ground, size, seed, alpha)


def field_net(kind, m, seed, k=3):
    """A max network on ``m`` inputs whose trainable layers are: the first
    only (``bank_init``, frozen tree), all (``all_trainable``), or all but
    the first (``first_frozen``)."""
    if kind == "bank_init":
        rng = np.random.default_rng(seed)
        return init_from_bank(rng.normal(size=(2**k, m)), rng.normal(size=2**k), k)
    net = random_head_network(m, k, seed).set_all_trainable(True)
    if kind == "first_frozen":
        net.layers[0].trainable = False
    return net


def assert_close_at_scale(actual, expected, rtol=1e-12, floor=0.0):
    """Same shape, and within ``rtol`` of the largest magnitude of
    ``expected`` (or of ``floor``, if that is larger)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    err = np.abs(actual - expected).max()
    assert err <= rtol * max(np.abs(expected).max(), floor), f"max error {err:.3e}"


def assert_grads_close_at_scale(actual, expected, rtol=1e-12):
    """Each gradient array as :func:`assert_close_at_scale`, at a scale of
    at least 1e-4 of the largest entry of any array: an array that is zero
    in exact arithmetic (the output weights under a loss of degree zero in
    the output scale) holds only rounding noise of the larger ones."""
    assert set(actual) == set(expected)
    floor = 1e-4 * max(np.abs(g).max() for g in expected.values())
    for key in expected:
        assert_close_at_scale(actual[key], expected[key], rtol, floor)


class FakeClock:
    """Stands in for the ``time`` module: ``perf_counter_ns`` moves only
    when a call wrapped by :meth:`ticking` runs."""

    def __init__(self):
        self.ns = 0

    def perf_counter_ns(self):
        return self.ns

    def ticking(self, fn, seconds):
        def wrapped(*args, **kwargs):
            self.ns += seconds * 10**9
            return fn(*args, **kwargs)

        return wrapped
