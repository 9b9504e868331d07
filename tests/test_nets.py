import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdlearn import nets
from wdlearn.adversarial import AdversarialConfig, SaddleState, run_algorithm1
from wdlearn.cylinder import field_pairing, grid_gradients
from wdlearn.errors import Diverged, TooManyRows
from wdlearn.measures import GroundSpace
from wdlearn.nets import (
    Adam,
    Layer,
    ReluNetwork,
    TrainConfig,
    backward,
    build_max_network,
    cylinder_field_batch,
    init_from_bank,
    load_model,
    max_tree_matrices,
    mean_relative_error,
    random_head_network,
    save_model,
    train,
    _mae_loss_and_grads,
    _regularized_loss_and_grads,
    _sensitivities,
)

from .helpers import (
    FIELD_GRIDS,
    FIELD_NETS,
    FakeClock,
    assert_close_at_scale,
    assert_grads_close_at_scale,
    field_net,
)
from .oracles import (
    adam_step_reference,
    backward_reference,
    backward_with_pairing_reference,
    cylinder_field_batch_reference,
    max_head_forward_cached,
)


def dyadic_vectors(rng, n, dim, scale=8.0):
    """Random inputs whose max-tree arithmetic is exact in binary."""
    return rng.integers(-1024, 1025, size=(n, dim)).astype(float) * (scale / 1024.0)


class TestMaxNetwork:
    def test_k1_by_hand(self):
        net = build_max_network(1)
        # max{x1-x2,0} + max{x2,0} - max{-x2,0}
        assert net.forward(np.array([[3.0, 1.0]]))[0] == 3.0
        assert net.forward(np.array([[-2.0, -5.0]]))[0] == -2.0

    def test_k2_example(self):
        net = build_max_network(2)
        assert net.forward(np.array([[1.0, 4.0, 2.0, 3.0]]))[0] == 4.0

    def test_layer_widths(self):
        for k in range(1, 7):
            net = build_max_network(k)
            assert net.hidden_widths == [3 * 2 ** (k - i) for i in range(1, k + 1)]

    def test_rejects_an_empty_layer_list(self):
        with pytest.raises(ValueError, match="at least one layer"):
            ReluNetwork([])

    def test_rejects_a_last_layer_wider_than_one(self):
        # a second output would be dropped by the pass and its weight row
        # would take the first row's gradient
        with pytest.raises(ValueError, match="last layer must have width 1, got 2"):
            ReluNetwork([Layer(np.eye(2), np.zeros(2), "none")])

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Layer(np.eye(2), np.zeros(2), "tanh"), "unknown activation 'tanh'"),
            (lambda: Layer(np.eye(2), np.zeros(3)), "bias length must match the output width"),
            (
                lambda: ReluNetwork([Layer(np.eye(2), np.zeros(2)), Layer(np.ones((1, 3)), np.zeros(1))]),
                "adjacent layer dimensions are incompatible",
            ),
        ],
        ids=["activation", "bias", "adjacent"],
    )
    def test_rejects_malformed_layers(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_block_shapes_match_construction(self):
        # B_{l+1} is 3*2^l x 2^(l+1); the merged D_l is 3*2^(l-1) x 3*2^l
        for k in (2, 3, 4):
            mats = max_tree_matrices(k)
            assert mats[0].shape == (3 * 2 ** (k - 1), 2**k)
            for pos, ell in enumerate(range(k - 1, 0, -1), start=1):
                assert mats[pos].shape == (3 * 2 ** (ell - 1), 3 * 2**ell)
            assert mats[-1].shape == (1, 3)

    def test_exact_on_random_dyadics(self):
        rng = np.random.default_rng(0)
        for k in range(1, 7):
            net = build_max_network(k)
            X = dyadic_vectors(rng, 200, 2**k)
            # include exact ties
            X[:20, 1] = X[:20, 0]
            out = net.forward(X)
            np.testing.assert_array_equal(out, X.max(axis=1))

    @settings(max_examples=30, deadline=None)
    @given(
        vals=st.lists(
            st.integers(min_value=-4096, max_value=4096), min_size=8, max_size=8
        )
    )
    def test_exact_max_property(self, vals):
        net = build_max_network(3)
        x = np.array(vals, dtype=float) / 512.0
        assert net.forward(x[None, :])[0] == x.max()

    def test_permutation_invariance_of_tree(self):
        rng = np.random.default_rng(3)
        net = build_max_network(3)
        X = rng.normal(size=(50, 8))
        out = net.forward(X)
        perm = rng.permutation(8)
        np.testing.assert_allclose(net.forward(X[:, perm]), out, atol=1e-12)


def _dense(net):
    """The same network with every layer run as its matrix (layers that
    train never run structurally)."""
    return net.copy().set_all_trainable(True)


def _dense_layers(net):
    return [i for i, lay in enumerate(net.layers) if lay.tree_block() is None]


def _after_identity(k):
    """The max tree of ``2^k`` inputs after an identity layer, so that it runs
    as ``max`` and ``argmax`` on the inputs themselves."""
    eye = Layer(np.eye(2**k), np.zeros(2**k), "none")
    return ReluNetwork([eye] + build_max_network(k).layers)


def _one_hot(winners, width):
    d = np.zeros((len(winners), width))
    d[np.arange(len(winners)), winners] = 1.0
    return d


def _off_the_kinks(x):
    """The rows of the tree input ``x`` where no ReLU of the dense tree sits
    at its kink: no two entries equal and none zero."""
    s = np.sort(x, axis=1)
    return (s[:, 1:] != s[:, :-1]).all(axis=1) & (x != 0.0).all(axis=1)


def _assert_paths_agree(net, dense, X, exact=False, scale=None):
    """The training pass of ``net``, its tree run as ``max`` and ``argmax``,
    against its dense ``kron`` copy: outputs bitwise the row maxima of the
    tree input, and within 1e-15 of ``scale`` (default: the largest output)
    of the dense ones, or bitwise when ``exact``; on every row, the tree
    input's sensitivity the one-hot of the first maximizer.  On the rows
    off the dense tree's kinks (:func:`_off_the_kinks`), the sensitivities
    of the layers before the tree, the gradients with value and
    first-pre-activation seeds, and the gradient fields are bitwise the
    dense copy's."""
    ys, cs = net.forward_cached(X)
    yd, cd = dense.forward_cached(X)
    start = net._tree_start()
    assert "winners" not in cd and len(cd["z"]) == len(net.layers)
    assert len(cs["z"]) == start and net.layers[start - 1].activation == "none"
    x = cs["a"][-1]  # the tree input
    np.testing.assert_array_equal(ys, np.max(x, axis=1))
    tol = 0.0 if exact else 1e-15 * (np.abs(yd).max() if scale is None else scale)
    assert np.abs(ys - yd).max() <= tol
    one_hot = _one_hot(np.argmax(x, axis=1), x.shape[1])
    np.testing.assert_array_equal(_sensitivities(net, cs)[-1], one_hot)

    X = X[_off_the_kinks(x)]
    cs, cd = net.forward_cached(X)[1], dense.forward_cached(X)[1]
    hat = _sensitivities(net, cs)
    assert len(hat) == start
    for hs, hd in zip(hat, _sensitivities(dense, cd)):
        np.testing.assert_array_equal(hs, hd)
    rng = np.random.default_rng(len(X))
    seeds = (rng.normal(size=len(X)), rng.normal(size=hat[0].shape))
    grads, grads_dense = backward(net, cs, *seeds), backward(dense, cd, *seeds)
    assert list(grads) == net.trainable()
    for key, g in grads.items():
        np.testing.assert_array_equal(g, grads_dense[key])
    ground = GroundSpace.grid((X.shape[1],))
    np.testing.assert_array_equal(
        cylinder_field_batch(net, ground, X)[3], cylinder_field_batch(dense, ground, X)[3]
    )


class TestStructuralTree:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_dense_path(self, k):
        rng = np.random.default_rng(100 + k)
        tree = _after_identity(k)
        # two layers before the tree: first-pre-activation seeds reach the
        # second one's weights through the first one's cached mask
        first = Layer(rng.normal(size=(12, 16)), rng.normal(size=12), "relu")
        head = ReluNetwork([first] + random_head_network(12, k, seed=k).layers)
        assert _dense_layers(tree) == [0] and _dense_layers(head) == [0, 1]
        X = rng.normal(size=(64, 2**k))
        H = rng.normal(size=(64, 16))
        # exact ties and zeros, whole rows of zeros among them
        T = rng.integers(-2, 3, size=(64, 2**k)).astype(float)
        T[:8] = 0.0
        # every run of B consecutive rows, each held to the forward bound of
        # all 64; at B = 1 the dense copy's products run on gemv
        dtree, dhead = _dense(tree), _dense(head)
        x_scale = np.abs(dtree.forward(X)).max()
        h_scale = np.abs(dhead.forward(H)).max()
        for B in (1, 2, 3, 17, 64):
            for s in range(0, 64 - B + 1, B):
                rows = slice(s, s + B)
                _assert_paths_agree(tree, dtree, X[rows], scale=x_scale)
                _assert_paths_agree(head, dhead, H[rows], scale=h_scale)
                _assert_paths_agree(tree, dtree, T[rows], exact=True)

    @pytest.mark.parametrize(
        "case", ["tree_layer_trains", "trained_then_frozen", "replaced_W", "bias_set", "scaled_output"]
    )
    def test_fallbacks_run_dense(self, case):
        rng = np.random.default_rng(31)
        X = rng.dirichlet(np.ones(6), size=40)
        net = random_head_network(6, 3, seed=5)
        if case == "tree_layer_trains":
            net.layers[2].trainable = True
            expected = [0, 2]
        elif case == "trained_then_frozen":
            net.set_all_trainable(True)
            train(net, X, X.max(axis=1) + 1.0, TrainConfig(epochs=3, batch_size=8, lr=1e-2))
            for lay in net.layers[1:]:
                lay.trainable = False
            expected = [0, 1, 2, 3, 4]
        elif case == "replaced_W":
            W = net.layers[2].W.copy()
            W[0, 0] = 0.5
            net.layers[2].W = W
            net.layers[3].W = net.layers[3].W.copy()  # a new but canonical array
            expected = [0, 2]
        elif case == "bias_set":
            net.layers[1].b = np.full(net.layers[1].b.shape, 1e-3)
            expected = [0, 1]
        else:
            net.scale_output(2.0)
            expected = [0, 4]
        assert _dense_layers(net) == expected
        dense = _dense(net)
        y, cache = net.forward_cached(X)
        y_dense, cache_dense = dense.forward_cached(X)
        np.testing.assert_allclose(y, y_dense, rtol=1e-14)
        for h, h_dense in zip(_sensitivities(net, cache), _sensitivities(dense, cache_dense)):
            np.testing.assert_allclose(h, h_dense, rtol=1e-14, atol=1e-15)

    def test_copy_and_model_file_keep_the_structural_path(self, tmp_path):
        rng = np.random.default_rng(37)
        net = random_head_network(6, 4, seed=3)
        X = rng.dirichlet(np.ones(6), size=20)
        path = tmp_path / "model.bin"
        save_model(path, net)
        for other in (net.copy(), load_model(path)[0]):
            assert _dense_layers(other) == [0]
            np.testing.assert_array_equal(other.forward(X), net.forward(X))

    def test_verdict_is_computed_once_per_array(self, monkeypatch):
        calls = []
        compare = nets._repeats
        monkeypatch.setattr(
            nets, "_repeats", lambda W, block: calls.append(W.shape) or compare(W, block)
        )
        net = build_max_network(3)
        X = np.random.default_rng(41).normal(size=(10, 8))
        _, cache = net.forward_cached(X)
        _sensitivities(net, cache)
        first = len(calls)
        assert first >= len(net.layers)
        net.forward(X)
        assert len(calls) == first
        net.layers[1].W = net.layers[1].W.copy()
        net.forward(X)
        assert len(calls) > first

    def test_recognised_arrays_are_read_only(self):
        net = build_max_network(2)
        net.forward(np.zeros((1, 4)))
        with pytest.raises(ValueError, match="read-only"):
            net.layers[1].W[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            net.layers[0].b[0] = 1.0


def _forward_spy(monkeypatch):
    """The number of layers of each call of the dense layer loop."""
    calls = []
    loop = nets._layer_loop
    monkeypatch.setattr(
        nets, "_layer_loop", lambda layers, X: calls.append(len(layers)) or loop(layers, X)
    )
    return calls


def _recorded(f, X):
    """``f(X)`` and the messages of the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        y = f(X)
    return y, [str(w.message) for w in caught]


class TestInference:
    """``forward`` runs a frozen, canonical tree after at least one layer as
    the row maximum of its input, bitwise equal to the plain oracle's
    ``np.max`` and to ``forward_cached(X)[0]``."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_recursion_equals_layer_loop(self, k, monkeypatch):
        rng = np.random.default_rng(200 + k)
        bank_rows = max(1, 2**k - 3)
        A, b = rng.normal(size=(bank_rows, 9)), rng.normal(size=bank_rows)
        cases = [
            (_after_identity(k), 2**k),
            (random_head_network(16, k, seed=k), 16),
            (init_from_bank(A, b, k), 9),
        ]
        inputs = [
            (net, rng.normal(size=(B, d)) * scale)
            for net, d in cases
            for B in (0, 1, 2, 3, 17, 64, 320)
            for scale in 10.0 ** np.arange(-3, 4)
        ]
        # exact ties and zeros, whole rows of zeros among them, and one lone row
        T = rng.integers(-2, 3, size=(64, 2**k)).astype(float)
        T[:8] = 0.0
        tree = cases[0][0]
        inputs += [(tree, T), (tree, T[9])]
        calls = _forward_spy(monkeypatch)
        for net, X in inputs:
            y = net.forward(X)
            assert calls == [1]  # the layer before the tree
            np.testing.assert_array_equal(y, max_head_forward_cached(net, X)[0])
            np.testing.assert_array_equal(y, net.forward_cached(X)[0])
            calls.clear()
        np.testing.assert_array_equal(tree.forward(T), T.max(axis=1))

    @pytest.mark.parametrize(
        "case", ["bare_tree", "trainable_tree", "scaled_output", "replaced_W", "no_tree"]
    )
    def test_other_networks_take_the_layer_loop(self, case, monkeypatch):
        rng = np.random.default_rng(43)
        net = random_head_network(6, 3, seed=5)
        if case == "bare_tree":
            net = build_max_network(3)
        elif case == "trainable_tree":
            net.layers[3].trainable = True
        elif case == "scaled_output":
            net.scale_output(2.0)
        elif case == "replaced_W":
            W = net.layers[1].W.copy()
            W[0, 0] = 0.5
            net.layers[1].W = W
        else:
            net = ReluNetwork(net.layers[:1] + [Layer(np.ones((1, 8)), np.zeros(1), "none")])
        X = rng.dirichlet(np.ones(net.input_dim), size=40)
        y_loop = net.forward_cached(X)[0]
        calls = _forward_spy(monkeypatch)
        np.testing.assert_array_equal(net.forward(X), y_loop)
        assert calls == [len(net.layers)]

    @pytest.mark.parametrize(
        "pair, messages",
        [
            ((np.inf, 1.0), ["invalid value encountered in matmul"]),
            ((1.0, -np.inf), ["invalid value encountered in matmul"]),
            ((np.nan, 1.0), []),
            (
                (1e308, -1e308),
                ["overflow encountered in matmul"] + 2 * ["invalid value encountered in matmul"],
            ),
            ((-1e308, 1e308), ["overflow encountered in matmul"]),
        ],
        ids=["inf", "minus-inf", "nan", "overflow-to-nan", "overflow-then-relu"],
    )
    def test_non_finite_batches_run_as_max(self, pair, messages, monkeypatch):
        X = np.arange(24.0).reshape(3, 8)
        X[1, 2:4] = pair
        calls = _forward_spy(monkeypatch)
        # alone, the tree takes the layer loop, with its values and warnings
        tree = build_max_network(3)
        y_loop, loop_messages = _recorded(
            lambda X: nets._layer_loop(tree.layers, X)["a"][-1][:, 0], X
        )
        assert loop_messages == messages
        calls.clear()
        y, got = _recorded(tree.forward, X)
        np.testing.assert_array_equal(y, y_loop)
        assert got == messages and calls == [len(tree.layers)]
        # after a layer, every batch runs the head once and takes the row max
        # of the tree input, with only the head's warnings
        net = _after_identity(3)
        x, head_messages = _recorded(lambda X: nets._layer_loop(net.layers[:1], X)["a"][-1], X)
        calls.clear()
        y, got = _recorded(net.forward, X)
        np.testing.assert_array_equal(y, np.max(x, axis=1))
        assert got == head_messages and calls == [1]


class TestWinnerOneHot:
    """The training pass keeps each row's winner, the first maximizer of the
    tree input, and that input's sensitivity is their one-hot, a
    subgradient of ``max``: bitwise the dense copy's reverse sweep off the
    dense tree's kinks, and unlike it at a tie or a zero, where the sweep's
    rows need not sum to 1."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_equals_the_sweep(self, k):
        rng = np.random.default_rng(300 + k)
        rows = max(1, 2**k - 3)  # a short bank: the pad rows tie
        cases = [
            init_from_bank(rng.normal(size=(2**k, 9)), rng.normal(size=2**k), k),
            init_from_bank(rng.normal(size=(rows, 9)), rng.normal(size=rows), k),
            random_head_network(9, k, seed=k),
        ]
        for net in cases:
            dense = _dense(net)
            for B in (0, 1, 2, 17, 64, 320):
                X = rng.dirichlet(np.ones(9), size=B)
                cache = net.forward_cached(X)[1]
                winners = cache["winners"]
                assert winners.shape == (B,) and ((0 <= winners) & (winners < 2**k)).all()
                one_hot = _one_hot(winners, 2**k)
                # the first layer has no ReLU: its sensitivity is the tree input's
                hat = _sensitivities(net, cache)
                dense_hat = _sensitivities(dense, dense.forward_cached(X)[1])
                np.testing.assert_array_equal(dense_hat[0], one_hot)
                np.testing.assert_array_equal(hat[0], one_hot)

    @pytest.mark.parametrize(
        "X, expected",
        [
            ([[0.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]]),
            ([[-1.0, 0.0, 0.0, -2.0]], [[0.0, 0.0, 0.0, 0.0]]),
            ([[3.0, 0.0, 1.0, 2.0]], [[1.0, -1.0, 0.0, 0.0]]),
            ([[3.0, 1.0, 2.0, 0.0], [3.0, 0.0, 1.0, 2.0]], [[1.0, 0, 0, 0], [1.0, -1.0, 0, 0]]),
            ([[3.0, 1.0, 2.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]]),
            ([[1.0, 1.0, 1.0, 1.0]], [[0.0, 0.0, 0.0, 1.0]]),
        ],
        ids=[
            "zero-row",
            "tie-at-0",
            "zero-b-under-winner",
            "one-row-of-two",
            "zero-b-off-path",
            "tie",
        ],
    )
    def test_zero_carried_b_on_a_winner_path_takes_the_sweep(self, X, expected):
        # expected: the dense copy's sweep, which is not the first maximizer's
        # one-hot at a tie or a zero on the winner's path
        net, X = _after_identity(2), np.array(X)
        dense = _dense(net)
        cache = net.forward_cached(X)[1]
        hat = _sensitivities(net, cache)[0]
        assert len(cache["z"]) == 1
        np.testing.assert_array_equal(cache["winners"], np.argmax(X, axis=1))
        np.testing.assert_array_equal(hat, _one_hot(np.argmax(X, axis=1), 4))
        np.testing.assert_array_equal(hat.sum(axis=1), 1.0)
        np.testing.assert_array_equal(_sensitivities(dense, dense.forward_cached(X)[1])[0], expected)
        _assert_paths_agree(net, dense, X, exact=True)


class TestFrozenTreeStep:
    """Training takes the winners' one-hot with traces and weights bitwise
    those of the plain oracle (the first layer by matrix product,
    ``np.max``, the one-hot of ``np.argmax``), and within
    ``1e-12 * max(1, |value|)`` of a run whose Adam step is the one first
    written, which rounds the parameter step differently."""

    @staticmethod
    def _reference_path(monkeypatch):
        monkeypatch.setattr(ReluNetwork, "forward_cached", max_head_forward_cached)
        monkeypatch.setattr(
            ReluNetwork, "forward", lambda net, X: max_head_forward_cached(net, X)[0]
        )

    @staticmethod
    def _reference_adam(monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(Adam, "step", adam_step_reference)

    @staticmethod
    def _problem():
        rng = np.random.default_rng(61)
        X = rng.dirichlet(np.ones(9), size=40)
        A, b = rng.normal(size=(6, 9)), rng.normal(size=6)
        y = (X @ A.T + b).max(axis=1) + 0.1 * rng.random(40)
        return GroundSpace.grid((3, 3)), X, y, lambda: init_from_bank(A, b, 3)

    @staticmethod
    def _assert_same_run(trace, expected, *net_pairs, tol=0.0):
        """The records but ``epoch_s`` and the weights of each ``(net, ref)``
        bitwise equal, or with ``tol`` within ``tol * max(1, |value|)``."""

        def check(actual, desired):
            actual, desired = np.asarray(actual, dtype=float), np.asarray(desired, dtype=float)
            if tol == 0.0:
                np.testing.assert_array_equal(actual, desired)
            else:
                scale = np.maximum(1.0, np.abs(desired))
                np.testing.assert_allclose(actual / scale, desired / scale, rtol=0, atol=tol)

        for r, e in zip(trace, expected, strict=True):
            r = {k: v for k, v in r.items() if k != "epoch_s"}
            e = {k: v for k, v in e.items() if k != "epoch_s"}
            assert list(r) == list(e)
            check(list(r.values()), list(e.values()))
        for net, ref in net_pairs:
            for lay, ref_lay in zip(net.layers, ref.layers, strict=True):
                check(lay.W, ref_lay.W)
                check(lay.b, ref_lay.b)

    @staticmethod
    def _counting_winners(monkeypatch):
        """Whether each training pass ran the tree as ``max`` and ``argmax``."""
        kept, forward_cached = [], ReluNetwork.forward_cached

        def counted(net, X):
            y, cache = forward_cached(net, X)
            kept.append("winners" in cache)
            return y, cache

        monkeypatch.setattr(ReluNetwork, "forward_cached", counted)
        return kept

    @pytest.mark.parametrize("loss", ["mae", "regularized"])
    def test_train(self, loss, monkeypatch):
        ground, X, y, make = self._problem()
        lam = 0.1 if loss == "regularized" else 0.0
        cfg = TrainConfig(epochs=4, batch_size=8, lr=1e-2, seed=3, loss=loss, reg_lambda=lam)
        kept = self._counting_winners(monkeypatch)
        net = make()
        trace = train(net, X[:32], y[:32], cfg, ground, X[32:], y[32:])
        assert len(kept) == 4 * 4 and all(kept)
        for reference, tol in [(self._reference_path, 0.0), (self._reference_adam, 1e-12)]:
            reference(monkeypatch)
            ref = make()
            expected = train(ref, X[:32], y[:32], cfg, ground, X[32:], y[32:])
            self._assert_same_run(trace, expected, (net, ref), tol=tol)

    @pytest.mark.parametrize("frozen_trees", [True, False])
    def test_run_algorithm1(self, frozen_trees, monkeypatch):
        ground, X, y, make = self._problem()
        cfg = AdversarialConfig(epochs=3, lr=1e-2, lr_xi=3e-2, batch_size=16, seed=5)

        def state():
            f_net, h_net = make(), random_head_network(9, 3, seed=4)
            if not frozen_trees:
                f_net.set_all_trainable(True), h_net.set_all_trainable(True)
            return SaddleState(f_net, h_net, lam=0.1, n_xi=2)

        kept = self._counting_winners(monkeypatch)
        ran = state()
        trace = run_algorithm1(ran, X[:32], y[:32], ground, cfg, X[32:], y[32:])
        assert kept and set(kept) == {frozen_trees}
        # without frozen trees the plain oracle is the library's own path
        references = [(self._reference_path, 0.0)] if frozen_trees else []
        for reference, tol in references + [(self._reference_adam, 1e-12)]:
            reference(monkeypatch)
            ref = state()
            expected = run_algorithm1(ref, X[:32], y[:32], ground, cfg, X[32:], y[32:])
            self._assert_same_run(
                trace, expected, (ran.f_net, ref.f_net), (ran.h_net, ref.h_net), tol=tol
            )

    def test_adam_never_writes_into_a_layers_arrays(self):
        net = random_head_network(4, 2, seed=7)
        X = np.random.default_rng(8).dirichlet(np.ones(4), size=6)
        net.forward(X)  # the tree's arrays are recognised, and read-only
        net.set_all_trainable(True)
        opt = Adam(net, lr=1e-2)
        moments = [(opt.m[key], opt.v[key]) for key in net.trainable()]
        for _ in range(3):
            old = [(lay.W, lay.W.copy(), lay.b, lay.b.copy()) for lay in net.layers]
            opt.step(backward(net, net.forward_cached(X)[1], np.ones(len(X))))
            for lay, (W, W_copy, b, b_copy) in zip(net.layers, old):
                assert lay.W is not W and lay.b is not b
                np.testing.assert_array_equal(W, W_copy)
                np.testing.assert_array_equal(b, b_copy)
        # the moments are updated in place
        assert moments == [(opt.m[key], opt.v[key]) for key in net.trainable()]


class TestFlatAdam:
    """One Adam update over the flat vector of every trainable array, fed
    the gradients of the update as first written (one array at a time, in
    :func:`adam_step_reference`), keeps its moments bitwise, and each
    parameter within ``sum_t (16 u |step_t| + 2 spacing(theta_t))`` of the
    reference's, ``u = 2**-53``.

    The bound: let ``c1 = fl(1 - b1**t)`` and ``c2 = fl(1 - b2**t)``, the
    same floats on both sides, and ``s = lr * (m / c1) / (sqrt(v / c2) + eps)``
    the exact step.  The reference rounds ``m / c1``, ``lr * .``, ``v / c2``,
    the square root (which halves the relative error of its argument), the
    sum with ``eps`` (of two positive terms, so no cancellation) and the
    quotient: within ``5.5 u |s|`` to first order.  The efficient form
    ``lr sqrt(c2) / c1 * m / (sqrt(v) + eps sqrt(c2))`` rounds ``sqrt(c2)``,
    ``lr * .`` and ``/ c1`` in ``alpha_t``, ``eps * .`` in ``eps_hat``, then
    ``sqrt(v)``, the sum, the quotient and the product: within ``8 u |s|``.
    So the two steps lie within ``13.5 u |s|``, below ``16 u |step_t|``
    with the higher orders.  Each side then rounds ``theta - step`` by at
    most half an ulp of its result, and the two results lie in the same or
    a neighbouring binade of ``theta_t``: at most ``2 spacing(theta_t)``
    together.  The errors of the steps add up over the steps, since the
    moments stay equal and a parameter's error passes on unchanged.
    """

    U = 2.0**-53

    @staticmethod
    def _mixed_net(seed):
        # trainable head, frozen first tree layer, trainable rest: arrays of
        # five shapes, with a frozen layer between two that train
        net = random_head_network(6, 3, seed).set_all_trainable(True)
        net.layers[1].trainable = False
        return net

    @staticmethod
    def _reference_step(ref, key):
        """The parameter step of :func:`adam_step_reference` that ran last."""
        b1, b2, t = ref.beta1, ref.beta2, ref.t
        mhat, vhat = ref.m[key] / (1 - b1**t), ref.v[key] / (1 - b2**t)
        return ref.lr * mhat / (np.sqrt(vhat) + ref.eps)

    def _run(self, steps, lr, scale, seed, output_scale=None):
        """``steps`` updates of both, the gradients ``scale`` times those of
        random seeds; ``output_scale`` reassigns the output layer's arrays
        of both nets after each step.  Returns the largest error over bound."""
        rng = np.random.default_rng(seed)
        X = rng.dirichlet(np.ones(6), size=20)
        opt, ref = Adam(self._mixed_net(seed), lr=lr), Adam(self._mixed_net(seed), lr=lr)
        moments = [(opt.m[key], opt.v[key]) for key in opt.m]
        bound = {key: 0.0 for key in opt.m}
        worst = 0.0
        for _ in range(steps):
            cache = opt.net.forward_cached(X)[1]
            grads = backward(opt.net, cache, scale * rng.normal(size=len(X)))
            opt.step(grads)
            adam_step_reference(ref, grads)
            assert list(opt.m) == list(ref.m) == opt.net.trainable()
            for i, name in ref.m:
                assert opt.m[i, name].tobytes() == ref.m[i, name].tobytes()
                assert opt.v[i, name].tobytes() == ref.v[i, name].tobytes()
                theta = getattr(ref.net.layers[i], name)
                bound[i, name] = bound[i, name] + (
                    16 * self.U * np.abs(self._reference_step(ref, (i, name)))
                    + 2 * np.abs(np.spacing(theta))
                )
                err = np.abs(getattr(opt.net.layers[i], name) - theta)
                assert (err <= bound[i, name]).all()
                worst = max(worst, float((err / bound[i, name]).max()))
            if output_scale is not None:
                # both sides round their own product: the error grows by
                # |c| and each rounding adds at most 2 spacing of the result
                opt.net.scale_output(output_scale), ref.net.scale_output(output_scale)
                top = len(ref.net.layers) - 1
                for name in ("W", "b"):
                    theta = getattr(ref.net.layers[top], name)
                    bound[top, name] = (
                        abs(output_scale) * bound[top, name] + 2 * np.abs(np.spacing(theta))
                    )
        # the moments are views that keep their identity
        assert all(
            opt.m[key] is m and opt.v[key] is v for key, (m, v) in zip(opt.m, moments)
        )
        return worst

    def test_equals_the_update_per_array(self):
        worst = max(
            self._run(29, lr, scale, seed)
            for seed in (4, 5)
            for lr in (1e-3, 3e-2, 1.0)
            for scale in (1e-6, 1.0, 1e2)
        )
        # the rounding does differ, and stays within the bound
        assert 0.0 < worst <= 1.0

    def test_honours_an_array_reassigned_between_steps(self):
        for lr in (1e-3, 3e-2):
            self._run(6, lr, 1.0, seed=4, output_scale=-1.5)

    def test_a_net_with_no_trainable_array_steps(self):
        net = random_head_network(4, 2, seed=3).set_all_trainable(False)
        before = [(lay.W, lay.b) for lay in net.layers]
        opt = Adam(net)
        opt.step({})
        opt.step({})
        assert opt.t == 2 and opt.m == {} and opt.v == {}
        assert all(lay.W is W and lay.b is b for lay, (W, b) in zip(net.layers, before))


class TestBankInit:
    def test_exact_bank_realization(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        net = init_from_bank(A, b, k=2)
        X = rng.dirichlet(np.ones(6), size=40)
        np.testing.assert_allclose(
            net.forward(X), (X @ A.T + b).max(axis=1), atol=1e-12
        )

    def test_padding_never_wins(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        X = rng.dirichlet(np.ones(6), size=30)
        net = init_from_bank(A, b, k=2)
        np.testing.assert_allclose(
            net.forward(X), (X @ A.T + b).max(axis=1), atol=1e-12
        )

    @pytest.mark.parametrize("rows", range(1, 8))
    def test_short_bank_equals_G_on_every_measure(self, rows):
        # rows far below their biases: a pad bias of b.min() - 1 or -10
        # would win on every measure
        rng = np.random.default_rng(30 + rows)
        A = rng.normal(size=(rows, 6)) - 100.0
        b = rng.normal(size=rows)
        X = np.vstack([rng.dirichlet(np.ones(6), size=40), np.eye(6)])
        g = (X @ A.T + b).max(axis=1)
        assert (g < b.min() - 10.0).all()
        net = init_from_bank(A, b, k=3)
        np.testing.assert_allclose(net.forward(X), g, rtol=1e-12, atol=1e-12)

    def test_too_many_rows(self):
        with pytest.raises(TooManyRows):
            init_from_bank(np.zeros((5, 3)), np.zeros(5), k=2)

    @pytest.mark.parametrize(
        "shape, n_biases, message",
        [
            ((0, 3), 0, "A of shape (0, 3) and b of length 0"),
            ((3, 0), 3, "A of shape (3, 0) and b of length 3"),
            ((3, 3), 2, "A of shape (3, 3) and b of length 2"),
            ((3, 3), 4, "A of shape (3, 3) and b of length 4"),
        ],
        ids=["no-rows", "no-columns", "short-b", "long-b"],
    )
    def test_malformed_bank(self, shape, n_biases, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            init_from_bank(np.zeros(shape), np.zeros(n_biases), k=2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        for make in (
            lambda: init_from_bank(np.zeros((1, 3)), np.zeros(1), k),
            lambda: random_head_network(3, k, seed=0),
        ):
            with pytest.raises(ValueError, match="k must be at least 1"):
                make()

    def test_duality_consistency_before_training(self):
        # bank init realizes the lower approximant, so the forward pass
        # never exceeds the exact transport cost before any training
        from wdlearn.bank import build_bank, export_affine
        from wdlearn.measures import DiscreteMeasure, GroundSpace, MeasureDataset
        from wdlearn.ot import exact_ot

        rng = np.random.default_rng(77)
        ground = GroundSpace.grid((3, 3))
        train = [DiscreteMeasure(ground, rng.dirichlet(np.ones(9))) for _ in range(10)]
        ds = MeasureDataset(ground, train, [])
        theta = DiscreteMeasure(ground, np.full(9, 1.0 / 9.0))
        bank = build_bank(ds, theta, range(6))
        A, b = export_affine(bank)
        net = init_from_bank(A, b, k=3)
        preds = net.forward(ds.train_matrix)
        for mu, pred in zip(ds.train, preds):
            _, _, wpp = exact_ot(theta, mu)
            assert pred <= wpp + 1e-8

    def test_random_head_shapes_and_determinism(self):
        net1 = random_head_network(d=6, k=3, seed=9)
        net2 = random_head_network(d=6, k=3, seed=9)
        assert net1.layers[0].W.shape == (8, 6)
        np.testing.assert_array_equal(net1.layers[0].W, net2.layers[0].W)
        bound = 1.0 / np.sqrt(6)
        assert np.abs(net1.layers[0].W).max() <= bound


def _fd_check(net, X, loss_fn, n_probes, rng, rel_tol=1e-5, h=1e-6):
    """Central finite differences on random trainable coordinates."""
    loss0, grads = loss_fn()
    checked = 0
    attempts = 0
    while checked < n_probes and attempts < 20 * n_probes:
        attempts += 1
        li, name = net.trainable()[rng.integers(len(net.trainable()))]
        arr = getattr(net.layers[li], name)
        idx = tuple(rng.integers(s) for s in arr.shape)
        # skip probes that sit too close to a ReLU kink
        _, cache = net.forward_cached(X)
        margins = [
            np.abs(z).min()
            for z, lay in zip(cache["z"], net.layers)
            if lay.activation == "relu"
        ]
        if margins and min(margins) < 1e-6:
            raise AssertionError("test setup placed a probe on a kink")
        old = arr[idx]
        arr[idx] = old + h
        lp, _ = loss_fn()
        arr[idx] = old - h
        lm, _ = loss_fn()
        arr[idx] = old
        fd = (lp - lm) / (2 * h)
        an = grads[(li, name)][idx]
        if abs(fd) < 1e-10 and abs(an) < 1e-10:
            continue
        assert an == pytest.approx(fd, rel=rel_tol, abs=1e-8)
        checked += 1
    assert checked == n_probes


class TestBackward:
    def test_one_layer_chain_rule(self):
        # single affine layer, squared loss: gradient by hand
        net = ReluNetwork([Layer(np.array([[2.0, -1.0]]), np.array([0.5]), "none")])
        X = np.array([[1.0, 3.0]])
        y, cache = net.forward_cached(X)
        target = 4.0
        seeds = 2 * (y - target)
        grads = backward(net, cache, seeds)
        resid = y[0] - target  # y = 2*1 - 3 + 0.5 = -0.5
        np.testing.assert_allclose(grads[(0, "W")], 2 * resid * X)
        np.testing.assert_allclose(grads[(0, "b")], [2 * resid])

    def test_mae_gradients_match_fd(self):
        rng = np.random.default_rng(11)
        net = random_head_network(d=5, k=2, seed=4).set_all_trainable(True)
        X = rng.dirichlet(np.ones(5), size=8)
        y = rng.normal(size=8) + 3.0
        _fd_check(
            net, X, lambda: _mae_loss_and_grads(net, X, y), n_probes=12, rng=rng
        )

    def test_sensitivity_seed_gradients_match_fd(self):
        # loss = sum_j <c_j, s_j> exercises the second-order path alone
        rng = np.random.default_rng(13)
        net = random_head_network(d=4, k=2, seed=6).set_all_trainable(True)
        X = rng.dirichlet(np.ones(4), size=6)
        C = rng.normal(size=(6, 4))

        def loss_fn():
            _, cache = net.forward_cached(X)
            grads = backward(net, cache, np.zeros(6), sgrad_seeds=C)
            return float((C * _sensitivities(net, cache)[0]).sum()), grads

        _fd_check(net, X, loss_fn, n_probes=12, rng=rng)

    def test_regularized_loss_gradients_match_fd(self):
        rng = np.random.default_rng(17)
        ground = GroundSpace.grid((2, 3))
        net = random_head_network(d=6, k=2, seed=8).set_all_trainable(True)
        X = rng.dirichlet(np.ones(6), size=7)
        y = rng.normal(size=7) + 2.0

        def loss_fn():
            return _regularized_loss_and_grads(net, ground, X, y, lam=0.05)

        _fd_check(net, X, loss_fn, n_probes=12, rng=rng)

    @pytest.mark.parametrize("case", ["bank_init", "all_trainable", "sgrad_seeded"])
    def test_gradients_cover_exactly_the_trainable_layers(self, case):
        rng = np.random.default_rng(53)
        if case == "bank_init":
            # the max tree is frozen: only the first layer trains
            net = init_from_bank(rng.normal(size=(4, 5)), rng.normal(size=4), k=2)
            assert net.trainable() == [(0, "W"), (0, "b")]
        else:
            net = random_head_network(d=5, k=2, seed=12).set_all_trainable(True)
        X = rng.dirichlet(np.ones(5), size=6)
        _, cache = net.forward_cached(X)
        C = rng.normal(size=(6, 4)) if case == "sgrad_seeded" else None
        grads = backward(net, cache, rng.normal(size=6), sgrad_seeds=C)
        assert set(grads) == set(net.trainable())
        for (i, name), g in grads.items():
            assert g.shape == getattr(net.layers[i], name).shape

    def test_sensitivities_match_fd_of_first_preactivation(self):
        rng = np.random.default_rng(19)
        net = random_head_network(d=5, k=2, seed=10)
        X = rng.dirichlet(np.ones(5), size=3)
        S = _sensitivities(net, net.forward_cached(X)[1])[0]
        W0, b0 = net.layers[0].W, net.layers[0].b
        tail = ReluNetwork(net.layers[1:])
        h = 1e-6
        V = X @ W0.T + b0
        for j in range(3):
            for i in range(4):
                vp, vm = V[j].copy(), V[j].copy()
                vp[i] += h
                vm[i] -= h
                fd = (tail.forward(vp[None, :])[0] - tail.forward(vm[None, :])[0]) / (
                    2 * h
                )
                assert S[j, i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestSeededRows:
    """``backward`` leaves the rows with a value seed of exactly 0 out of
    the value-seeded products of a layer with more than one row and column.
    A batch that fits BLAS's block along the rows gives bitwise the
    gradients over all rows; a longer one is split into blocks whose sums
    group its terms otherwise, and agrees within the dot-product bound."""

    KINDS = ["dense", "frozen-tree", "short-bank"]

    @staticmethod
    def _case(kind, B, zeros, seed):
        rng = np.random.default_rng(seed)
        d = 64
        if kind == "dense":
            net = random_head_network(d, 4, seed).set_all_trainable(True)
        elif kind == "frozen-tree":
            net = random_head_network(d, 4, seed)
        else:
            net = init_from_bank(rng.normal(size=(5, d)), rng.normal(size=5), 4)
        X = rng.dirichlet(np.ones(d), size=B)
        seeds = rng.normal(size=B)
        seeds[rng.permutation(B)[: round(zeros * B)]] = 0.0
        return net, X, seeds, rng.normal(size=(B, 16))

    @pytest.mark.parametrize("B", [1, 17, 64, 320])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bitwise_the_products_over_all_rows(self, kind, B):
        for zeros in (0.0, 0.3, 0.66, 1.0):
            for seed in range(3):
                net, X, seeds, C = self._case(kind, B, zeros, seed)
                cache = net.forward_cached(X)[1]
                for sgrad in (None, C):
                    got = backward(net, cache, seeds, sgrad)
                    expected = backward_reference(net, cache, seeds, sgrad)
                    assert list(got) == list(expected) == net.trainable()
                    for key in expected:
                        assert got[key].tobytes() == expected[key].tobytes(), (zeros, seed, key)

    @pytest.mark.parametrize("B", [512, 2000])
    @pytest.mark.parametrize("kind", KINDS)
    def test_within_the_dot_product_bound(self, kind, B):
        # each entry is a sum of B products; summed in any order it is within
        # gamma_B * sum |terms| of the exact sum, gamma_B = B u / (1 - B u),
        # so two orders differ by at most twice that
        u = np.finfo(float).eps / 2
        gamma = B * u / (1 - B * u)
        for zeros in (0.3, 0.66):
            net, X, seeds, _ = self._case(kind, B, zeros, 1)
            cache = net.forward_cached(X)[1]
            hat = _sensitivities(net, cache)
            got, expected = backward(net, cache, seeds), backward_reference(net, cache, seeds)
            for i, name in net.trainable():
                prev = cache["input"] if i == 0 else cache["a"][i - 1]
                terms = np.abs(seeds[:, None] * hat[i])
                size = terms.T @ np.abs(prev) if name == "W" else terms.sum(axis=0)
                assert np.all(np.abs(got[i, name] - expected[i, name]) <= 2 * gamma * size)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_seeded_row_gives_zero_gradients(self, kind):
        for B in (0, 7):
            net, X, _, _ = self._case(kind, B, 1.0, 2)
            grads = backward(net, net.forward_cached(X)[1], np.zeros(B))
            assert list(grads) == net.trainable()
            for (i, name), g in grads.items():
                assert g.shape == getattr(net.layers[i], name).shape and not g.any()

    def test_a_zero_seeded_row_with_infinite_activations_adds_nothing(self):
        net, X, seeds, _ = self._case("frozen-tree", 9, 0.0, 5)
        X[4, 2], seeds[4] = np.inf, 0.0
        with np.errstate(invalid="ignore"):  # the head's inf - inf
            cache = net.forward_cached(X)[1]
        assert not np.isfinite(cache["a"][0][4]).any()
        grads = backward(net, cache, seeds)
        with np.errstate(invalid="ignore"):  # 0 * inf over all rows
            assert np.isnan(backward_reference(net, cache, seeds)[0, "W"]).any()
        keep = np.arange(len(X)) != 4
        expected = backward(net, net.forward_cached(X[keep])[1], seeds[keep])
        for key in expected:
            np.testing.assert_array_equal(grads[key], expected[key])


class TestCylinderField:
    def test_linear_row_field(self):
        # single-row head on a 1-d grid: field equals the row's gradient
        ground = GroundSpace.grid((4,))
        W = np.array([[0.0, 1.0, 2.0, 3.0]])
        net = ReluNetwork([Layer(W, np.zeros(1), "none")])
        X = np.full((2, 4), 0.25)
        _, _, S, field = cylinder_field_batch(net, ground, X)
        np.testing.assert_allclose(S, 1.0)
        np.testing.assert_allclose(field[:, :, 0], 1.0)

    def test_energy_matches_quadrature(self):
        rng = np.random.default_rng(23)
        ground = GroundSpace.grid((3, 3))
        net = random_head_network(d=9, k=2, seed=3)
        X = rng.dirichlet(np.ones(9), size=5)
        field = cylinder_field_batch(net, ground, X)[3]
        en = field_pairing(field, field, X)
        manual = [
            sum(X[j, x] * field[j, x] @ field[j, x] for x in range(9)) for j in range(5)
        ]
        np.testing.assert_allclose(en, manual, atol=1e-12)


class TestFieldPotential:
    """The potential ``S @ W0`` whose gradients are the field: gathered from
    the winners' rows where the frozen tree follows the first layer, and
    the product everywhere else, with the product's values."""

    @staticmethod
    def assert_field_of_product(net, ground, X):
        _, cache, S, field = cylinder_field_batch(net, ground, X)
        np.testing.assert_array_equal(field, grid_gradients(ground, S @ net.layers[0].W))
        return cache

    @pytest.mark.parametrize("kind", FIELD_NETS)
    @pytest.mark.parametrize("shape, k", [((8, 8), 8), ((3, 4), 3), ((4, 3, 2), 2)])
    def test_field_is_that_of_the_product(self, shape, k, kind):
        ground = GroundSpace.grid(shape)
        X = np.random.default_rng(k).dirichlet(np.ones(ground.size), size=64)
        cache = self.assert_field_of_product(field_net(kind, ground.size, seed=k, k=k), ground, X)
        # only the frozen tree of a bank init has winners
        assert ("winners" in cache) == (kind == "bank_init")

    def test_a_relu_first_layer_scales_by_its_mask(self):
        # a row whose pre-activations are all negative has a winner of
        # sensitivity 0
        ground = GroundSpace.grid((3, 3))
        rng = np.random.default_rng(7)
        W, b = rng.normal(size=(8, 9)), rng.normal(size=8) - 2.0
        net = ReluNetwork([Layer(W, b, "relu")] + build_max_network(3).layers)
        X = rng.normal(size=(32, 9))
        cache = self.assert_field_of_product(net, ground, X)
        z = cache["z"][0][np.arange(32), cache["winners"]]
        assert (z > 0).any() and (z <= 0).any()

    def test_a_layer_before_the_tree_keeps_the_product(self):
        ground = GroundSpace.grid((2, 3))
        head = random_head_network(6, 2, seed=4)
        net = ReluNetwork([Layer(np.eye(6), np.zeros(6), "relu")] + head.layers)
        cache = self.assert_field_of_product(net, ground, np.random.default_rng(4).random((16, 6)))
        assert len(cache["z"]) == 2 and "winners" in cache


class TestFieldAgainstReference:
    """The potential-gradient field and its adjoint against the einsum
    contractions over per-row spatial gradients (``tests/oracles.py``)."""

    @staticmethod
    def _problem(shape, kind):
        ground = GroundSpace.grid(shape)
        m = ground.size
        rng = np.random.default_rng(len(shape) * 100 + m)
        X = rng.dirichlet(np.ones(m), size=9)
        y = rng.normal(size=9) + 2.0
        return ground, field_net(kind, m, seed=m), X, y

    @pytest.mark.parametrize("kind", FIELD_NETS)
    @pytest.mark.parametrize("shape", FIELD_GRIDS)
    def test_field_and_energy(self, shape, kind):
        ground, net, X, _ = self._problem(shape, kind)
        y, _, S, field = cylinder_field_batch(net, ground, X)
        ry, _, rS, rfield = cylinder_field_batch_reference(net, ground, X)
        np.testing.assert_array_equal(y, ry)
        np.testing.assert_array_equal(S, rS)
        assert field.shape == (9, ground.size, len(shape))
        assert_close_at_scale(field, rfield)
        assert_close_at_scale(field_pairing(field, field, X), field_pairing(rfield, rfield, X))

    @pytest.mark.parametrize("kind", FIELD_NETS)
    @pytest.mark.parametrize("shape", FIELD_GRIDS)
    def test_regularized_loss_and_grads(self, shape, kind, monkeypatch):
        ground, net, X, y = self._problem(shape, kind)
        loss, grads = _regularized_loss_and_grads(net, ground, X, y, lam=0.3)
        assert set(grads) == set(net.trainable())
        monkeypatch.setattr(nets, "cylinder_field_batch", cylinder_field_batch_reference)
        monkeypatch.setattr(nets, "backward_with_pairing", backward_with_pairing_reference)
        ref_loss, ref_grads = _regularized_loss_and_grads(net, ground, X, y, lam=0.3)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_grads_close_at_scale(grads, ref_grads)

    @pytest.mark.parametrize("kind", FIELD_NETS)
    def test_sensitivity_seeds_only_for_a_later_trained_layer(self, kind, monkeypatch):
        # no layer but a trained one after the first reads Q @ W0.T
        ground, net, X, y = self._problem((3, 4), kind)
        seen = []

        def spy(net, cache, value_seeds, sgrad_seeds=None):
            seen.append(sgrad_seeds)
            return backward(net, cache, value_seeds, sgrad_seeds)

        monkeypatch.setattr(nets, "backward", spy)
        _regularized_loss_and_grads(net, ground, X, y, lam=0.3)
        assert [s is None for s in seen] == [kind == "bank_init"]


class TestTraining:
    def test_zero_epochs_initial_record_only(self):
        rng = np.random.default_rng(29)
        net = random_head_network(d=4, k=1, seed=0)
        X = rng.dirichlet(np.ones(4), size=10)
        y = np.ones(10)
        trace = train(net, X, y, TrainConfig(epochs=0, seed=1))
        assert len(trace) == 1 and trace[0]["epoch"] == 0

    def test_bank_init_already_minimizing(self):
        # targets equal to the initial network's outputs: with a tiny lr
        # the first-epoch loss cannot rise above the initial optimum
        rng = np.random.default_rng(31)
        A = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        net = init_from_bank(A, b, k=2)
        X = rng.dirichlet(np.ones(5), size=16)
        y = net.forward(X)
        trace = train(net, X, y.copy(), TrainConfig(epochs=1, lr=1e-12, seed=2))
        assert trace[1]["loss"] <= 1e-9

    def test_mae_run_from_a_bank_ignores_a_one_ulp_nudge(self, monkeypatch):
        # at its bank anchors a bank-initialized network's residual is 0 up
        # to rounding; a one-ulp nudge of every training output, in a
        # seeded random direction, must leave the MAE run bitwise unchanged
        from wdlearn.bank import build_bank, export_affine
        from wdlearn.experiments import make_synthetic_dataset, wpp_to_reference
        from wdlearn.measures import DiscreteMeasure

        ds = make_synthetic_dataset(4, 4, n_train=48, n_test=0, seed=9)
        theta = DiscreteMeasure(ds.ground, np.full(16, 1.0 / 16))
        A, b = export_affine(build_bank(ds, theta, range(16)))
        X, y = ds.train_matrix, wpp_to_reference(ds.train, theta)
        resid = init_from_bank(A, b, k=4).forward(X) - y
        assert np.count_nonzero(np.abs(resid) <= nets._MAE_ZONE * np.maximum(1.0, y)) >= 16
        cfg = TrainConfig(epochs=3, batch_size=16, lr=1e-3, seed=1)
        forward_cached = ReluNetwork.forward_cached

        def run(nudge):
            rng = np.random.default_rng(3)

            def nudged(net, X):
                pred, cache = forward_cached(net, X)
                return np.nextafter(pred, rng.choice([-np.inf, np.inf], size=pred.shape)), cache

            with monkeypatch.context() as mp:
                if nudge:
                    mp.setattr(ReluNetwork, "forward_cached", nudged)
                net = init_from_bank(A, b, k=4)
                trace = train(net, X, y, cfg)
            # the loss column averages the nudged outputs themselves
            return [[r["train_rel_err"] for r in trace], net.layers[0].W, net.layers[0].b]

        for got, want in zip(run(nudge=True), run(nudge=False)):
            np.testing.assert_array_equal(got, want)
        # the nudge does reach the seeds without the zone
        monkeypatch.setattr(nets, "_MAE_ZONE", 0.0)
        assert not np.array_equal(run(nudge=True)[1], run(nudge=False)[1])

    def test_learns_linear_target(self):
        rng = np.random.default_rng(37)
        ground = GroundSpace.grid((4,))
        phi = np.array([0.0, 1.0, 2.0, 3.0])
        X = rng.dirichlet(np.ones(4), size=500)
        y = X @ phi
        net = random_head_network(d=4, k=1, seed=5)
        trace = train(
            net, X, y, TrainConfig(epochs=200, batch_size=64, lr=3e-3, seed=5)
        )
        assert trace[-1]["train_rel_err"] < 0.05

    def test_bit_reproducible(self):
        rng = np.random.default_rng(41)
        X = rng.dirichlet(np.ones(4), size=30)
        y = rng.random(30) + 1.0
        runs = []
        for _ in range(2):
            net = random_head_network(d=4, k=1, seed=7)
            train(net, X, y, TrainConfig(epochs=3, seed=7))
            runs.append([lay.W.copy() for lay in net.layers])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("loss", ["mae", "regularized"])
    def test_epoch_time_counts_the_steps_only(self, loss, monkeypatch):
        # a fake clock that the steps advance by 1 s and the record's own
        # evaluation by 100 s: each epoch of 3 batches reads exactly 3 s
        rng = np.random.default_rng(41)
        ground = GroundSpace.grid((2, 2))
        X = rng.dirichlet(np.ones(4), size=30)
        y = rng.random(30) + 1.0
        lam = 0.01 if loss == "regularized" else 0.0
        cfg = TrainConfig(epochs=3, batch_size=10, seed=7, loss=loss, reg_lambda=lam)
        real = train(random_head_network(d=4, k=1, seed=7), X, y, cfg, ground, X, y)

        clock = FakeClock()
        monkeypatch.setattr(nets, "time", clock)
        step = "_mae_loss_and_grads" if loss == "mae" else "_regularized_loss_and_grads"
        monkeypatch.setattr(nets, step, clock.ticking(getattr(nets, step), 1))
        monkeypatch.setattr(nets, "mean_relative_error", clock.ticking(mean_relative_error, 100))
        faked = train(random_head_network(d=4, k=1, seed=7), X, y, cfg, ground, X, y)

        assert [r["epoch_s"] for r in faked] == [0.0, 3.0, 3.0, 3.0]
        assert real[0]["epoch_s"] == 0.0
        assert all(r["epoch_s"] > 0.0 for r in real[1:])
        keys = ["epoch", "loss", "train_rel_err", "test_rel_err", "epoch_s"]
        for r, f in zip(real, faked):
            assert list(r) == list(f) == keys
            np.testing.assert_array_equal([r[k] for k in keys[:-1]], [f[k] for k in keys[:-1]])

    def test_divergence_detected(self):
        rng = np.random.default_rng(43)
        X = rng.dirichlet(np.ones(4), size=10)
        y = np.ones(10)
        net = random_head_network(d=4, k=1, seed=3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Diverged):
            train(
                net,
                X,
                y,
                TrainConfig(epochs=5, lr=1e200, loss="regularized", reg_lambda=1.0),
                ground=GroundSpace.grid((4,)),
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"reg_lambda": -5.0},
            {"reg_lambda": np.nan},
            {"reg_lambda": np.inf},
            {"lr": np.nan},
            {"lr": np.inf},
            {"loss": "l1"},
        ],
    )
    def test_config_rejects_invalid_lambda_and_lr(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**{"loss": "regularized", **bad})

    def test_config_rejects_a_lambda_with_the_mae_loss(self):
        # MAE training reads no lambda, so one run would carry two hashes
        with pytest.raises(ValueError, match="reg_lambda 0.5 applies only to the regularized loss, not 'mae'"):
            TrainConfig(loss="mae", reg_lambda=0.5)

    def test_config_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize(
        "n_y, n_test, message",
        [
            (12, {"X_test": 4}, "X_test was given without y_test"),
            (12, {"y_test": 4}, "y_test was given without X_test"),
            (11, {}, "y_train must hold one target per row of X_train: got shape (11,) for 12 rows"),
            (12, {"X_test": 4, "y_test": 3}, "y_test must hold one target per row of X_test: got shape (3,) for 4 rows"),
        ],
    )
    def test_rejects_a_split_before_any_step(self, n_y, n_test, message, monkeypatch):
        rng = np.random.default_rng(5)
        X, y = rng.dirichlet(np.ones(4), size=12), rng.random(12)
        test = {"X_test": X, "y_test": y}
        split = {key: test[key][:n] for key, n in n_test.items()}
        monkeypatch.setattr(Adam, "step", lambda opt, grads: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=re.escape(message)):
            train(random_head_network(4, 2, seed=1), X, y[:n_y], TrainConfig(epochs=2), **split)

    def test_regularized_loss_needs_the_ground(self, monkeypatch):
        rng = np.random.default_rng(5)
        X, y = rng.dirichlet(np.ones(4), size=12), rng.random(12)
        monkeypatch.setattr(Adam, "step", lambda opt, grads: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="regularized loss requires the ground space"):
            train(random_head_network(4, 2, seed=1), X, y, TrainConfig(epochs=2, loss="regularized"))

    def test_regularized_training_runs(self):
        rng = np.random.default_rng(47)
        ground = GroundSpace.grid((2, 2))
        X = rng.dirichlet(np.ones(4), size=40)
        y = X @ np.array([0.0, 1.0, 1.0, 2.0])
        net = random_head_network(d=4, k=1, seed=9)
        trace = train(
            net,
            X,
            y,
            TrainConfig(epochs=30, lr=3e-3, loss="regularized", reg_lambda=1e-3, seed=9),
            ground=ground,
        )
        assert trace[-1]["loss"] < trace[1]["loss"]


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        net = random_head_network(d=5, k=2, seed=1)
        cfg = TrainConfig(epochs=5, seed=1)
        path = tmp_path / "model.bin"
        save_model(path, net, cfg.hash())
        back, h = load_model(path)
        assert h == cfg.hash()
        rng = np.random.default_rng(0)
        X = rng.dirichlet(np.ones(5), size=10)
        np.testing.assert_array_equal(back.forward(X), net.forward(X))
        assert [l.activation for l in back.layers] == [
            l.activation for l in net.layers
        ]
        assert [l.trainable for l in back.layers] == [l.trainable for l in net.layers]

    def test_rejects_a_multi_output_network(self, tmp_path):
        path = tmp_path / "model.bin"
        with open(path, "wb") as fh:
            np.savez(
                fh,
                n_layers=np.array(1),
                config_hash=np.array(""),
                W0=np.eye(2),
                b0=np.zeros(2),
                meta0=np.array([0, 1], dtype=np.int8),
            )
        with pytest.raises(ValueError, match="last layer must have width 1, got 2"):
            load_model(path)

    def test_rejects_meta_of_other_length(self, tmp_path):
        # an older container kept separate W and b flags per layer
        net = random_head_network(d=3, k=1, seed=1)
        path = tmp_path / "model.bin"
        save_model(path, net)
        with np.load(path) as data:
            payload = dict(data)
        payload["meta1"] = np.array([1, 0, 0], dtype=np.int8)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match="layer 1"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"n_layers": 0}, "n_layers must be at least 1, got 0"),
            ({"n_layers": -1}, "n_layers must be at least 1, got -1"),
            ({"n_layers": 4}, "layer 3: no array W3"),
            ({"W1": None}, "layer 1: no array W1"),
            ({"b2": None}, "layer 2: no array b2"),
            ({"meta0": None}, "layer 0: no array meta0"),
        ],
        ids=["no-layers", "negative", "more-than-stored", "no-W", "no-b", "no-meta"],
    )
    def test_rejects_a_missing_layer(self, tmp_path, edit, match):
        net = random_head_network(d=3, k=1, seed=1)  # three layers
        path = tmp_path / "model.bin"
        save_model(path, net)
        with np.load(path) as data:
            payload = dict(data)
        for key, value in edit.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = np.array(value)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=match):
            load_model(path)


class TestMisc:
    def test_mean_relative_error(self):
        assert mean_relative_error([1.0, 3.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_all_zero_targets_give_nan_without_warnings(self):
        # numpy's "Mean of empty slice" warning would fail the test
        assert np.isnan(mean_relative_error([1.0, 2.0], [0.0, 0.0]))
        assert np.isnan(mean_relative_error([], []))
        X = np.random.default_rng(9).dirichlet(np.ones(4), size=8)
        trace = train(
            random_head_network(4, 2, seed=1),
            X,
            np.zeros(8),
            TrainConfig(epochs=2, batch_size=4),
            X_test=X[:3],
            y_test=np.zeros(3),
        )
        assert all(np.isnan([r["train_rel_err"], r["test_rel_err"]]).all() for r in trace)
        state = SaddleState(random_head_network(4, 2, seed=1), random_head_network(4, 2, seed=2))
        ground, cfg = GroundSpace.grid((2, 2)), AdversarialConfig(epochs=2)
        trace = run_algorithm1(state, X, np.zeros(8), ground, cfg, X[:3], np.zeros(3))
        assert all(np.isnan([r["train_rel_err"], r["test_rel_err"]]).all() for r in trace)

    def test_adam_moves_toward_minimum(self):
        net = ReluNetwork([Layer(np.array([[1.0]]), np.array([0.0]), "none")])
        opt = Adam(net, lr=0.05)
        X = np.array([[1.0]])
        for _ in range(300):
            y, cache = net.forward_cached(X)
            grads = backward(net, cache, 2 * (y - 5.0))
            opt.step(grads)
        assert net.forward(X)[0] == pytest.approx(5.0, abs=1e-2)
