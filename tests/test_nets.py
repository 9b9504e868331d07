import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdlearn import nets
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
    network_energy,
    output_input_sensitivity,
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
from .oracles import backward_with_pairing_reference, cylinder_field_batch_reference


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
            assert net.output_dim == 1

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


def _row_sums_in_order(a, W):
    """``a @ W.T`` with every dot product summed left to right."""
    acc = np.zeros((len(a), W.shape[0]))
    for j in range(W.shape[1]):
        acc = acc + a[:, j : j + 1] * W[:, j]
    return acc


def _assert_paths_agree(net, dense, X, exact=False, scale=None):
    """Forward within 1e-15 of ``scale`` (default: the largest output), or
    bitwise when ``exact``; pre-activations of the same shapes, those of the
    tree rounded as its dense rows summed in order; sensitivities bitwise."""
    ys, cs = net.forward_cached(X)
    yd, cd = dense.forward_cached(X)
    tol = 0.0 if exact else 1e-15 * (np.abs(yd).max() if scale is None else scale)
    assert np.abs(ys - yd).max() <= tol
    for zs, zd in zip(cs["z"], cd["z"], strict=True):
        assert zs.shape == zd.shape
        np.testing.assert_allclose(zs, zd, rtol=0, atol=1e-15 * np.abs(X).max())
    for i, lay in enumerate(net.layers):
        if lay.tree_block() is not None:
            prev = X if i == 0 else cs["a"][i - 1]
            np.testing.assert_array_equal(cs["z"][i], _row_sums_in_order(prev, lay.W))
    for hs, hd in zip(_sensitivities(net, cs), _sensitivities(dense, cd), strict=True):
        np.testing.assert_array_equal(hs, hd)


class TestStructuralTree:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_dense_path(self, k):
        rng = np.random.default_rng(100 + k)
        tree = build_max_network(k)
        head = random_head_network(16, k, seed=k)
        assert _dense_layers(tree) == [] and _dense_layers(head) == [0]
        X = rng.normal(size=(64, 2**k))
        H = rng.normal(size=(64, 16))
        # exact ties and zeros, whole rows of zeros among them
        T = rng.integers(-2, 3, size=(64, 2**k)).astype(float)
        T[:8] = 0.0
        # every run of B consecutive rows, each held to the forward bound of
        # all 64; at B = 1 the top layers (n = 1) reshape to a lone row, which
        # runs on gemv unless _apply stacks it
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
        g_min = (X @ A.T + b).max(axis=1).min()
        net = init_from_bank(A, b, k=2, pad_bias=g_min - 1.0)
        np.testing.assert_allclose(
            net.forward(X), (X @ A.T + b).max(axis=1), atol=1e-12
        )

    def test_too_many_rows(self):
        with pytest.raises(TooManyRows):
            init_from_bank(np.zeros((5, 3)), np.zeros(5), k=2)

    def test_missing_pad_bias(self):
        with pytest.raises(ValueError):
            init_from_bank(np.zeros((3, 3)), np.zeros(3), k=2)

    def test_duality_consistency_before_training(self):
        # bank init realizes the lower approximant, so the forward pass
        # never exceeds the exact transport cost before any training
        from wdlearn.bank import build_bank, eval_G_many, export_affine
        from wdlearn.measures import DiscreteMeasure, GroundSpace, MeasureDataset
        from wdlearn.ot import exact_ot

        rng = np.random.default_rng(77)
        ground = GroundSpace.grid((3, 3))
        train = [DiscreteMeasure(ground, rng.dirichlet(np.ones(9))) for _ in range(10)]
        ds = MeasureDataset(ground, train, [])
        theta = DiscreteMeasure(ground, np.full(9, 1.0 / 9.0))
        bank = build_bank(ds, theta, range(6))
        A, b = export_affine(bank)
        pad = float(eval_G_many(bank, ds.train_matrix).min()) - 1.0
        net = init_from_bank(A, b, k=3, pad_bias=pad)
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
            return float((C * output_input_sensitivity(net, X)).sum()), grads

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
        S = output_input_sensitivity(net, X)
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
        en = network_energy(net, ground, X)
        field = cylinder_field_batch(net, ground, X)[3]
        manual = [
            sum(X[j, x] * field[j, x] @ field[j, x] for x in range(9)) for j in range(5)
        ]
        np.testing.assert_allclose(en, manual, atol=1e-12)


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
    def test_field_and_energy(self, shape, kind, monkeypatch):
        ground, net, X, _ = self._problem(shape, kind)
        y, _, S, field = cylinder_field_batch(net, ground, X)
        ry, _, rS, rfield = cylinder_field_batch_reference(net, ground, X)
        np.testing.assert_array_equal(y, ry)
        np.testing.assert_array_equal(S, rS)
        assert field.shape == (9, ground.size, len(shape))
        assert_close_at_scale(field, rfield)
        energy = network_energy(net, ground, X)
        monkeypatch.setattr(nets, "cylinder_field_batch", cylinder_field_batch_reference)
        assert_close_at_scale(energy, network_energy(net, ground, X))

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
        cfg = TrainConfig(epochs=3, batch_size=10, seed=7, loss=loss, reg_lambda=0.01)
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
        ],
    )
    def test_config_rejects_invalid_lambda_and_lr(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(loss="regularized", **bad)

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


class TestMisc:
    def test_mean_relative_error(self):
        assert mean_relative_error([1.0, 3.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_adam_moves_toward_minimum(self):
        net = ReluNetwork([Layer(np.array([[1.0]]), np.array([0.0]), "none")])
        opt = Adam(net, lr=0.05)
        X = np.array([[1.0]])
        for _ in range(300):
            y, cache = net.forward_cached(X)
            grads = backward(net, cache, 2 * (y - 5.0))
            opt.step(grads)
        assert net.forward(X)[0] == pytest.approx(5.0, abs=1e-2)
