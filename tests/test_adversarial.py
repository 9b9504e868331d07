import re

import numpy as np
import pytest

from wdlearn import adversarial
from wdlearn.adversarial import (
    AdversarialConfig,
    SaddleState,
    adversary_step_grads,
    loss_adversary,
    loss_solution,
    run_algorithm1,
    solution_step_grads,
    _ratio,
)
from wdlearn.errors import DegenerateAdversary, Diverged
from wdlearn.experiments import make_synthetic_dataset, wpp_to_reference
from wdlearn.measures import DiscreteMeasure, GroundSpace
from wdlearn.nets import Adam, Layer, ReluNetwork, random_head_network

from .helpers import (
    FIELD_GRIDS,
    FIELD_NETS,
    FakeClock,
    assert_grads_close_at_scale,
    field_net,
)
from .oracles import (
    algorithm1_reference,
    backward_with_pairing_reference,
    cylinder_field_batch_reference,
)


@pytest.fixture
def setup():
    rng = np.random.default_rng(0)
    ground = GroundSpace.grid((2, 2))
    X = rng.dirichlet(np.ones(4), size=12)
    y = rng.random(12) + 0.5
    f_net = random_head_network(d=4, k=2, seed=1).set_all_trainable(True)
    h_net = random_head_network(d=4, k=2, seed=2).set_all_trainable(True)
    return ground, X, y, f_net, h_net


def _batch_terms(state, ground, X):
    """Both nets' batch terms ``(F, H)``, through the module's builder."""
    return [adversarial.cylinder_field_batch(net, ground, X) for net in (state.f_net, state.h_net)]


class TestStateValidation:
    def test_rejects_zero_inner_steps(self, setup):
        ground, X, y, f_net, h_net = setup
        with pytest.raises(ValueError):
            SaddleState(f_net, h_net, n_xi=1, n_theta=0)

    def test_rejects_mismatched_inputs(self, setup):
        ground, X, y, f_net, _ = setup
        other = random_head_network(d=5, k=2, seed=3)
        with pytest.raises(ValueError):
            SaddleState(f_net, other)

    def test_rejects_an_unknown_norm(self, setup):
        ground, X, y, f_net, h_net = setup
        with pytest.raises(ValueError, match="unknown norm mode 'h1'"):
            SaddleState(f_net, h_net, norm="h1")

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_rejects_invalid_lam(self, setup, lam):
        ground, X, y, f_net, h_net = setup
        with pytest.raises(ValueError, match="lam"):
            SaddleState(f_net, h_net, lam=lam)

    @pytest.mark.parametrize(
        "rates", [{"lr": np.nan}, {"lr": np.inf}, {"lr_xi": np.nan}, {"lr_xi": -1e-3}]
    )
    def test_config_rejects_invalid_learning_rates(self, rates):
        with pytest.raises(ValueError, match="learning rates"):
            AdversarialConfig(**rates)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_config_rejects_a_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match=f"batch size must be at least 1, got {batch_size}"):
            AdversarialConfig(batch_size=batch_size)
        assert AdversarialConfig(batch_size=None).batch_size is None

    def test_config_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            AdversarialConfig(seed=-1)

    @pytest.mark.parametrize(
        "n_y, n_test, message",
        [
            (12, {"X_test": 4}, "X_test was given without y_test"),
            (12, {"y_test": 4}, "y_test was given without X_test"),
            (11, {}, "y must hold one target per row of X: got shape (11,) for 12 rows"),
            (12, {"X_test": 4, "y_test": 3}, "y_test must hold one target per row of X_test: got shape (3,) for 4 rows"),
        ],
    )
    def test_run_algorithm1_rejects_a_split_before_any_step(
        self, setup, n_y, n_test, message, monkeypatch
    ):
        ground, X, y, f_net, h_net = setup
        test = {"X_test": X, "y_test": y}
        split = {key: test[key][:n] for key, n in n_test.items()}
        monkeypatch.setattr(Adam, "step", lambda opt, grads: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_algorithm1(
                SaddleState(f_net, h_net), X, y[:n_y], ground, AdversarialConfig(epochs=2), **split
            )


class TestLosses:
    def test_zero_residual_zero_loss(self, setup):
        ground, X, _, f_net, h_net = setup
        y = f_net.forward(X)  # F == targets on the batch
        state = SaddleState(f_net, h_net, lam=0.0)
        assert loss_adversary(state, ground, X, y) == pytest.approx(0.0, abs=1e-12)
        assert loss_solution(state, ground, X, y) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("norm", ["h12", "l2"])
    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_degree_zero_homogeneity(self, setup, norm, lam):
        ground, X, y, f_net, h_net = setup
        state = SaddleState(f_net, h_net, lam=lam, norm=norm)
        before = loss_adversary(state, ground, X, y)
        before_sol = loss_solution(state, ground, X, y)
        h_net.scale_output(3.0)
        assert loss_adversary(state, ground, X, y) == pytest.approx(before, abs=1e-9)
        assert loss_solution(state, ground, X, y) == pytest.approx(before_sol, abs=1e-9)
        h_net.scale_output(1.0 / 3.0)

    def test_solution_is_negated_adversary(self, setup):
        ground, X, y, f_net, h_net = setup
        state = SaddleState(f_net, h_net, lam=0.005)
        assert loss_solution(state, ground, X, y) == pytest.approx(
            -loss_adversary(state, ground, X, y)
        )

    def test_modes_coincide_for_flat_adversary(self, setup):
        # adversary with constant rows has zero field, so the h12 and l2
        # denominators agree
        ground, X, y, f_net, _ = setup
        W = np.tile(np.array([[0.3, 0.3, 0.3, 0.3]]), (4, 1))
        flat = ReluNetwork(
            [Layer(W, np.arange(4.0), "none")]
            + random_head_network(d=4, k=2, seed=5).layers[1:]
        )
        s_h12 = SaddleState(f_net, flat, lam=0.0, norm="h12")
        s_l2 = SaddleState(f_net, flat, lam=0.0, norm="l2")
        assert loss_adversary(s_h12, ground, X, y) == pytest.approx(
            loss_adversary(s_l2, ground, X, y), abs=1e-12
        )

    def test_hand_computed_two_sample_instance(self):
        # single-feature nets on a 1-d two-point grid; everything by hand
        ground = GroundSpace.grid((2,))
        f_net = ReluNetwork([Layer(np.array([[0.0, 1.0]]), np.array([0.0]), "none")])
        h_net = ReluNetwork([Layer(np.array([[0.0, 2.0]]), np.array([0.0]), "none")])
        X = np.array([[0.5, 0.5], [0.25, 0.75]])
        y = np.array([0.25, 0.5])
        # F values: 0.5, 0.75; H values: 1.0, 1.5
        # num_data = ((0.25)(1.0) + (0.25)(1.5)) / 2 = 0.3125
        # fields: DF = 1, DH = 2 everywhere; pce = (1*2 + 1*2)/2 = 2
        # q_h12 = (1 + |DH|^2) terms: (1.0^2 + 4) + (1.5^2 + 4) over 2 = 5.625
        lam = 0.1
        state = SaddleState(f_net, h_net, lam=lam, norm="h12")
        expected = -(0.3125 + lam * 2.0) / np.sqrt(5.625)
        assert loss_adversary(state, ground, X, y) == pytest.approx(expected)
        state_l2 = SaddleState(f_net, h_net, lam=lam, norm="l2")
        q_l2 = (1.0 + 1.5**2) / 2
        expected_l2 = -(0.3125 + lam * 2.0) / np.sqrt(q_l2)
        assert loss_adversary(state_l2, ground, X, y) == pytest.approx(expected_l2)

    def test_degenerate_adversary_raises(self, setup):
        ground, X, y, f_net, _ = setup
        zero_h = ReluNetwork([Layer(np.zeros((1, 4)), np.zeros(1), "none")])
        state = SaddleState(f_net, zero_h)
        with pytest.raises(DegenerateAdversary):
            loss_adversary(state, ground, X, y)


def _fd_params(net, loss_fn, grads, rng, n_probes=10, h=1e-6, rel=2e-4):
    for _ in range(n_probes):
        li, name = net.trainable()[rng.integers(len(net.trainable()))]
        arr = getattr(net.layers[li], name)
        idx = tuple(rng.integers(s) for s in arr.shape)
        old = arr[idx]
        arr[idx] = old + h
        lp = loss_fn()
        arr[idx] = old - h
        lm = loss_fn()
        arr[idx] = old
        fd = (lp - lm) / (2 * h)
        an = grads[(li, name)][idx]
        if abs(fd) < 1e-9 and abs(an) < 1e-9:
            continue
        assert an == pytest.approx(fd, rel=rel, abs=1e-7)


class TestGradients:
    @pytest.mark.parametrize("norm", ["h12", "l2"])
    def test_adversary_grads_match_fd(self, setup, norm):
        ground, X, y, f_net, h_net = setup
        state = SaddleState(f_net, h_net, lam=0.02, norm=norm)
        grads, _ = adversary_step_grads(state, ground, X, y, *_batch_terms(state, ground, X))
        rng = np.random.default_rng(31)
        _fd_params(
            h_net, lambda: loss_adversary(state, ground, X, y), grads, rng
        )

    def test_solution_grads_match_fd(self, setup):
        ground, X, y, f_net, h_net = setup
        state = SaddleState(f_net, h_net, lam=0.02, norm="h12")
        grads, _ = solution_step_grads(state, ground, X, y, *_batch_terms(state, ground, X))
        rng = np.random.default_rng(37)
        _fd_params(
            f_net, lambda: loss_solution(state, ground, X, y), grads, rng
        )


class TestGradientsAgainstReference:
    """Both step gradients against the einsum contractions over per-row
    spatial gradients (``tests/oracles.py``)."""

    @pytest.mark.parametrize("norm", ["h12", "l2"])
    @pytest.mark.parametrize("kind", FIELD_NETS)
    @pytest.mark.parametrize("shape", FIELD_GRIDS)
    def test_step_grads(self, shape, kind, norm, monkeypatch):
        ground = GroundSpace.grid(shape)
        m = ground.size
        rng = np.random.default_rng(m)
        X = rng.dirichlet(np.ones(m), size=10)
        y = rng.random(10) + 0.5
        state = SaddleState(
            field_net(kind, m, seed=m), field_net(kind, m, seed=m + 1), lam=0.3, norm=norm
        )
        steps = (adversary_step_grads, solution_step_grads)
        results = [step(state, ground, X, y, *_batch_terms(state, ground, X)) for step in steps]
        monkeypatch.setattr(adversarial, "cylinder_field_batch", cylinder_field_batch_reference)
        monkeypatch.setattr(adversarial, "backward_with_pairing", backward_with_pairing_reference)
        for step, net, (grads, loss) in zip(steps, (state.h_net, state.f_net), results):
            # the reference terms come from the patched builder
            ref_grads, ref_loss = step(state, ground, X, y, *_batch_terms(state, ground, X))
            assert set(grads) == set(net.trainable())
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            assert_grads_close_at_scale(grads, ref_grads)


class TestRayleighOracle:
    def test_gradient_ascent_below_closed_form(self, setup):
        # linear-in-parameters adversary: the inner max is a generalized
        # Rayleigh quotient with closed-form optimum sqrt(a^T Q^-1 a)
        ground, X, y, f_net, _ = setup
        m = X.shape[1]
        h_net = ReluNetwork([Layer(np.zeros((1, m)), np.zeros(1), "none")])
        state = SaddleState(f_net, h_net, lam=0.05, norm="h12")

        dim = m + 1

        def set_params(c):
            h_net.layers[0].W = c[:m][None, :].copy()
            h_net.layers[0].b = np.array([c[m]])

        def num_q(c):
            set_params(c)
            num, den = _ratio(state, X, y, *_batch_terms(state, ground, X))
            return num, den**2

        # numerator is linear and the norm-square quadratic in the params
        alpha = np.array([num_q(e)[0] for e in np.eye(dim)])
        Q = np.empty((dim, dim))
        qs = [num_q(e)[1] for e in np.eye(dim)]
        for i in range(dim):
            for j in range(dim):
                qij = num_q(np.eye(dim)[i] + np.eye(dim)[j])[1]
                Q[i, j] = 0.5 * (qij - qs[i] - qs[j])
        closed = float(np.sqrt(alpha @ np.linalg.solve(Q, alpha)))

        # gradient ascent on the ratio from a seeded start
        rng = np.random.default_rng(3)
        set_params(rng.normal(size=dim))
        opt = Adam(h_net, lr=5e-3)
        best = -np.inf
        for _ in range(400):
            grads, loss = adversary_step_grads(state, ground, X, y, *_batch_terms(state, ground, X))
            best = max(best, -loss)
            opt.step(grads)
        assert best <= closed + 1e-9
        assert best >= 0.5 * closed  # ascent actually made progress


class TestAlgorithm1:
    def test_trace_and_trend_on_toy(self, setup):
        # teacher-initialized solution net against shifted targets, with
        # the adversary started on the constant residual direction
        rng = np.random.default_rng(5)
        ground = GroundSpace.grid((2, 2))
        X = rng.dirichlet(np.ones(4), size=20)
        teacher = random_head_network(d=4, k=1, seed=11)
        y = teacher.forward(X) - 2.0
        f_net = teacher.copy().set_all_trainable(True)
        hrng = np.random.default_rng(13)
        h_net = ReluNetwork(
            [
                Layer(
                    hrng.normal(scale=1e-3, size=(2, 4)),
                    1.0 + hrng.normal(scale=1e-3, size=2),
                    "none",
                )
            ]
            + random_head_network(d=4, k=1, seed=0).layers[1:]
        ).set_all_trainable(True)
        state = SaddleState(f_net, h_net, lam=1e-3, n_xi=1, n_theta=2)
        trace = run_algorithm1(
            state, X, y, ground, AdversarialConfig(epochs=40, lr=1e-3, lr_xi=3e-3, seed=7)
        )
        assert len(trace) == 41
        first = np.mean([abs(r["solution_loss"]) for r in trace[1:11]])
        last = np.mean([abs(r["solution_loss"]) for r in trace[31:41]])
        assert last < first

    @pytest.mark.parametrize(
        "rates, n_theta, message",
        [
            ({"lr": 1e-3, "lr_xi": 1e200}, 1, "adversary loss non-finite at epoch 1"),
            ({"lr": 1e200, "lr_xi": 1e-3}, 2, "solution loss non-finite at epoch 1"),
        ],
        ids=["adversary", "solution"],
    )
    def test_divergence_detected(self, setup, rates, n_theta, message):
        ground, X, y, f_net, h_net = setup
        state = SaddleState(f_net, h_net, n_xi=2, n_theta=n_theta)
        config = AdversarialConfig(epochs=5, seed=0, **rates)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Diverged, match=message):
            run_algorithm1(state, X, y, ground, config)

    def test_epoch_time_counts_the_steps_only(self, setup, monkeypatch):
        # a fake clock that the steps advance by 1 s, each field build by
        # 10 s and the record's error evaluations by 100 s: each epoch of 2
        # batches with 3 steps and 4 builds per batch reads exactly 86 s,
        # without the record's own 2 builds and 2 error evaluations
        ground, X, y, _, _ = setup

        def run():
            f_net = random_head_network(d=4, k=2, seed=21).set_all_trainable(True)
            h_net = random_head_network(d=4, k=2, seed=22).set_all_trainable(True)
            state = SaddleState(f_net, h_net, lam=0.01, n_xi=2, n_theta=1)
            cfg = AdversarialConfig(epochs=3, lr=1e-3, batch_size=6, seed=9)
            return run_algorithm1(state, X, y, ground, cfg, X, y)

        real = run()
        clock = FakeClock()
        monkeypatch.setattr(adversarial, "time", clock)
        for name, seconds in [
            ("adversary_step_grads", 1),
            ("solution_step_grads", 1),
            ("cylinder_field_batch", 10),
            ("mean_relative_error", 100),
        ]:
            monkeypatch.setattr(adversarial, name, clock.ticking(getattr(adversarial, name), seconds))
        faked = run()

        assert [r["epoch_s"] for r in faked] == [0.0, 86.0, 86.0, 86.0]
        assert real[0]["epoch_s"] == 0.0
        assert all(r["epoch_s"] > 0.0 for r in real[1:])
        keys = [
            "epoch",
            "solution_loss",
            "adversary_loss",
            "train_rel_err",
            "skipped_steps",
            "test_rel_err",
            "epoch_s",
        ]
        for r, f in zip(real, faked):
            assert list(r) == list(f) == keys
            np.testing.assert_array_equal([r[k] for k in keys[:-1]], [f[k] for k in keys[:-1]])

    def test_solution_net_does_not_run_off_against_a_negative_adversary(self):
        # a max-network adversary is not closed under negation, so its best
        # signed residual can be negative; minimizing the signed ratio then
        # drove this run's test error from 0.264 at epoch 6 to 1,750.7
        ds = make_synthetic_dataset(8, 8, n_train=320, n_test=64, seed=2)
        theta = DiscreteMeasure(ds.ground, np.full(64, 1 / 64))
        y, y_test = (wpp_to_reference(ms, theta) for ms in (ds.train, ds.test))
        f_net = random_head_network(64, 5, seed=2).set_all_trainable(True)
        h_net = random_head_network(64, 5, seed=3).set_all_trainable(True)
        state = SaddleState(f_net, h_net, lam=1e-3, n_xi=2, norm="h12")
        cfg = AdversarialConfig(epochs=30, lr=1e-3, batch_size=64, seed=2)
        trace = run_algorithm1(state, ds.train_matrix, y, ds.ground, cfg, ds.test_matrix, y_test)
        errors = [r["test_rel_err"] for r in trace]
        assert errors[-1] <= 2 * min(errors)
        assert min(r["solution_loss"] for r in trace) >= 0.0

    def test_seeded_reproducibility(self, setup):
        ground, X, y, _, _ = setup
        finals = []
        for _ in range(2):
            f_net = random_head_network(d=4, k=2, seed=21).set_all_trainable(True)
            h_net = random_head_network(d=4, k=2, seed=22).set_all_trainable(True)
            state = SaddleState(f_net, h_net, lam=0.0, n_xi=2, n_theta=1)
            trace = run_algorithm1(
                state, X, y, ground, AdversarialConfig(epochs=5, lr=1e-3, seed=9)
            )
            finals.append(trace[-1]["solution_loss"])
        assert finals[0] == finals[1]


class TestAlgorithm1AgainstReference:
    """``run_algorithm1`` builds a net's terms only after it changes; the
    oracle rebuilds both nets' terms before every step."""

    @staticmethod
    def _state(n_xi, n_theta, norm, zero_adversary):
        f_net = random_head_network(d=4, k=2, seed=21).set_all_trainable(True)
        if zero_adversary:  # every step is skipped
            h_net = ReluNetwork([Layer(np.zeros((1, 4)), np.zeros(1), "none")])
        else:
            h_net = random_head_network(d=4, k=2, seed=22)
        h_net.set_all_trainable(True)
        return SaddleState(f_net, h_net, lam=0.01, n_xi=n_xi, n_theta=n_theta, norm=norm)

    @pytest.mark.parametrize(
        "n_xi, n_theta, batch_size, norm, zero_adversary",
        [
            (2, 1, 5, "h12", False),
            (1, 2, None, "h12", False),
            (2, 2, 7, "l2", False),
            (1, 2, 5, "h12", True),
        ],
        ids=["short-last-batch", "two-solution-steps", "two-each-l2", "skipped-adversary"],
    )
    def test_trace_and_parameters_bitwise(self, setup, n_xi, n_theta, batch_size, norm, zero_adversary):
        ground, X, y, _, _ = setup
        cfg = AdversarialConfig(epochs=4, lr=1e-2, lr_xi=3e-2, batch_size=batch_size, seed=9)
        X_test, y_test = X[:5], y[:5]
        ran = self._state(n_xi, n_theta, norm, zero_adversary)
        trace = run_algorithm1(ran, X, y, ground, cfg, X_test, y_test)
        ref = self._state(n_xi, n_theta, norm, zero_adversary)
        expected = algorithm1_reference(ref, X, y, ground, cfg, X_test, y_test)

        assert (sum(r["skipped_steps"] for r in trace) > 0) == zero_adversary
        for r, e in zip(trace, expected, strict=True):
            assert list(r) == list(e) + ["epoch_s"]
            np.testing.assert_array_equal([r[k] for k in e], list(e.values()))
        for net, ref_net in ((ran.f_net, ref.f_net), (ran.h_net, ref.h_net)):
            for lay, ref_lay in zip(net.layers, ref_net.layers, strict=True):
                np.testing.assert_array_equal(lay.W, ref_lay.W)
                np.testing.assert_array_equal(lay.b, ref_lay.b)

    def test_field_builds_per_batch(self, setup, monkeypatch):
        # per batch: the solution net once before the adversary steps, the
        # adversary before each of its steps and once before the solution
        # steps, the solution net before each later solution step; per
        # record: both nets on the train split
        ground, X, y, _, _ = setup
        builds = []
        build = adversarial.cylinder_field_batch

        def counting(net, ground, X):
            builds.append(len(X))
            return build(net, ground, X)

        monkeypatch.setattr(adversarial, "cylinder_field_batch", counting)
        n_xi, n_theta, epochs = 3, 2, 2
        state = self._state(n_xi, n_theta, "h12", False)
        run_algorithm1(state, X, y, ground, AdversarialConfig(epochs=epochs, batch_size=5, seed=9))
        batches = 3  # 12 rows: 5, 5, 2
        assert len(builds) == epochs * batches * (n_xi + n_theta + 1) + 2 * (epochs + 1)
        assert builds.count(len(X)) == 2 * (epochs + 1)
