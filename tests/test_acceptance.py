"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -rA`` or
``-s``).  Shared heavy artifacts (datasets, banks, distance matrices)
are built once per module.
"""

import time

import numpy as np
import pytest

from wdlearn.adversarial import (
    AdversarialConfig,
    SaddleState,
    loss_adversary,
    loss_solution,
    run_algorithm1,
)
from wdlearn.bank import (
    build_bank,
    eval_G_many,
    export_affine,
    nested_random_schedule,
    random_indices,
)
from wdlearn.erm import (
    CylinderSubspace,
    add_noise,
    assemble,
    bound_rhs,
    chernoff_deviation_bound,
    condition_check,
    double_orthogonalize,
    solve_regularized,
    truncate_values,
)
from wdlearn.errors import EmptyCover
from wdlearn.experiments import (
    make_synthetic_dataset,
    relative_errors,
    run_speed_table,
    wpp_to_reference,
)
from wdlearn.measures import DiscreteMeasure, GroundSpace
from wdlearn.nets import (
    Layer,
    ReluNetwork,
    TrainConfig,
    backward,
    build_max_network,
    init_from_bank,
    random_head_network,
    train,
)
from wdlearn.ot import exact_ot, solve_transport_lp
from wdlearn.subcover import (
    MetricSample,
    covering_number_bound,
    empirical_subcover_measure,
    nested_wasserstein,
    p_eps_k_closed,
    p_eps_k_monte_carlo,
    subcover_distance_bound,
)

from .oracles import transport_cost_by_vertex_enumeration


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_world():
    """6x6 grid, 64 train / 936 test; full train bank; exact distances;
    train-by-train Wasserstein matrix."""
    ds = make_synthetic_dataset(6, 6, n_train=64, n_test=936, seed=20)
    theta = DiscreteMeasure(ds.ground, np.full(36, 1.0 / 36.0))
    bank = build_bank(ds, theta, range(64))
    train_wpp = np.array([e.wpp for e in bank.entries])
    test_wpp = wpp_to_reference(ds.test, theta)
    from wdlearn.ot import pairwise_wasserstein

    D = pairwise_wasserstein(ds.train)
    return {
        "ds": ds,
        "theta": theta,
        "bank": bank,
        "train_wpp": train_wpp,
        "test_wpp": test_wpp,
        "D": D,
    }


@pytest.fixture(scope="module")
def large_world():
    """8x8 grid, 2000 train / 500 test (criterion 11 scale)."""
    ds = make_synthetic_dataset(8, 8, n_train=2000, n_test=500, seed=21)
    theta = DiscreteMeasure(ds.ground, np.full(64, 1.0 / 64.0))
    bank = build_bank(ds, theta, range(2000))
    train_wpp = np.array([e.wpp for e in bank.entries])
    test_wpp = wpp_to_reference(ds.test, theta)
    return {
        "ds": ds,
        "theta": theta,
        "bank": bank,
        "train_wpp": train_wpp,
        "test_wpp": test_wpp,
    }


@pytest.fixture(scope="module")
def metric_sample(small_world):
    """24 training measures as a metric-probability sample."""
    D = small_world["D"][:24, :24]
    return MetricSample(elements=small_world["ds"].train[:24], distance_matrix=D)


@pytest.fixture(scope="module")
def erm_population():
    """Finite population on a 1-d grid with an exactly double-orthogonal
    3-dimensional subspace and exact population quantities."""
    rng = np.random.default_rng(100)
    ground = GroundSpace.grid((8,))
    pop_w = rng.dirichlet(np.full(8, 0.8), size=256)
    pop_weights = np.full(256, 1.0 / 256.0)
    x = np.arange(8.0)
    feats = np.array(
        [np.ones(8), np.sin(np.pi * x / 7.0), np.cos(2 * np.pi * x / 7.0)]
    )
    ortho = double_orthogonalize(CylinderSubspace(ground, feats), pop_w, pop_weights)
    gamma = ortho.energies(pop_w, pop_weights)
    return {
        "ground": ground,
        "pop_w": pop_w,
        "pop_weights": pop_weights,
        "ortho": ortho,
        "gamma": gamma,
    }


@pytest.fixture(scope="module")
def trained_run(large_world):
    """Criterion 11 training run: random-256 bank baseline vs the trained
    bank-initialized max network (k = 8)."""
    lw = large_world
    schedule = nested_random_schedule(2000, [256], seed=2)
    pos = {k: i for i, k in enumerate(lw["bank"].indices)}
    sub = lw["bank"].subset([pos[k] for k in schedule[256]])
    baseline = relative_errors(
        lw["test_wpp"], eval_G_many(sub, lw["ds"].test_matrix)
    ).mean()
    A, b = export_affine(sub)
    net = init_from_bank(A, b, k=8)
    t0 = time.perf_counter_ns()
    trace = train(
        net,
        lw["ds"].train_matrix,
        lw["train_wpp"],
        TrainConfig(epochs=100, batch_size=64, lr=1e-3, seed=3),
        X_test=lw["ds"].test_matrix,
        y_test=lw["test_wpp"],
    )
    train_ns = time.perf_counter_ns() - t0
    return {
        "net": net,
        "trace": trace,
        "baseline": float(baseline),
        "sub_bank": sub,
        "train_ns": train_ns,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_ot_correctness():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst_gap, worst_marginal = 0.0, 0.0
    for _ in range(500):
        m = int(rng.integers(4, 65))
        ground = GroundSpace(rng.random((m, 2)) * 3.0)
        mu = DiscreteMeasure(ground, rng.dirichlet(np.ones(m)))
        nu = DiscreteMeasure(ground, rng.dirichlet(np.ones(m)))
        plan, pot, wpp = exact_ot(mu, nu)
        dual = pot.phi @ nu.weights + pot.psi @ mu.weights
        worst_gap = max(worst_gap, abs(dual - wpp) / (1.0 + abs(wpp)))
        worst_marginal = max(
            worst_marginal,
            np.abs(plan.matrix.sum(axis=1) - mu.weights).max(),
            np.abs(plan.matrix.sum(axis=0) - nu.weights).max(),
        )
    elapsed = time.monotonic() - t0

    worst_oracle = 0.0
    for _ in range(100):
        ground = GroundSpace(rng.random((3, 2)))
        cost = ground.cost_matrix()
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        _, _, value = solve_transport_lp(cost, a, b)
        oracle = transport_cost_by_vertex_enumeration(cost, a, b)
        worst_oracle = max(worst_oracle, abs(value - oracle) / (1.0 + abs(oracle)))

    ok = (
        worst_gap <= 1e-9
        and worst_marginal <= 1e-10
        and worst_oracle <= 1e-12
        and elapsed < 30.0
    )
    _report(
        1,
        ok,
        f"500 pairs: gap={worst_gap:.2e} marginals={worst_marginal:.2e} "
        f"3x3 oracle={worst_oracle:.2e} runtime={elapsed:.1f}s",
    )


def test_c02_bank_weak_duality(small_world):
    sw = small_world
    all_wpp = np.concatenate([sw["train_wpp"], sw["test_wpp"]])
    all_W = np.vstack([sw["ds"].train_matrix, sw["ds"].test_matrix])
    banks = {
        "full": sw["bank"],
        "random16": sw["bank"].subset(random_indices(64, 16, seed=5)),
        "random32": sw["bank"].subset(random_indices(64, 32, seed=6)),
    }
    worst_violation = -np.inf
    worst_anchor = 0.0
    for bank in banks.values():
        g = eval_G_many(bank, all_W)
        worst_violation = max(worst_violation, float((g - all_wpp).max()))
        for e in bank.entries:
            g_anchor = eval_G_many(bank, sw["ds"].train_matrix[[e.source_index]])[0]
            worst_anchor = max(worst_anchor, abs(g_anchor - e.wpp))
    ok = worst_violation <= 1e-8 and worst_anchor <= 1e-8
    _report(
        2,
        ok,
        f"1000 measures x {len(banks)} banks: max duality violation "
        f"{worst_violation:.2e}, max anchor gap {worst_anchor:.2e}",
    )


def test_c03_cover_theorem_and_monotonicity(small_world):
    sw = small_world
    D, W = sw["D"], sw["ds"].train_matrix
    iu = np.triu_indices(64, 1)
    # empirical Lipschitz constants over every train pair:
    # the distance function itself, and each stored potential
    C_F = float(
        np.max(np.abs(sw["train_wpp"][:, None] - sw["train_wpp"][None, :])[iu] / D[iu])
    )
    A, _ = export_affine(sw["bank"])
    vals = W @ A.T
    C_G = float(np.max(np.abs(vals[:, None, :] - vals[None, :, :])[iu] / D[iu][:, None]))
    analytic = 2.0 * np.sqrt(sw["ds"].ground.cost_matrix().max())  # p * dmax^(p-1), p=2
    assert max(C_F, C_G) <= analytic

    details = []
    ok = True
    # 3.0 exercises a proper cover (its delta exceeds the minimum pairwise
    # distance, 0.73); 0.1 and 0.01 are the required tolerances
    for eps in (3.0, 0.1, 0.01):
        delta = eps / (C_F + C_G)
        centers = []
        for i in range(64):
            if not any(D[i, c] <= delta for c in centers):
                centers.append(i)
        sub = sw["bank"].subset(centers)
        max_err = float((sw["train_wpp"] - eval_G_many(sub, W)).max())
        ok = ok and max_err <= eps
        details.append(f"eps={eps}: |I|={len(centers)} err={max_err:.2e}")

    sizes = [4, 8, 16, 32, 64]
    schedule = nested_random_schedule(64, sizes, seed=1)
    means = []
    for j in sizes:
        sub = sw["bank"].subset(schedule[j])
        means.append(
            relative_errors(sw["test_wpp"], eval_G_many(sub, sw["ds"].test_matrix)).mean()
        )
    monotone = all(b <= a for a, b in zip(means, means[1:]))
    ok = ok and monotone
    _report(
        3,
        ok,
        "; ".join(details) + f"; nested test means {np.round(means, 4).tolist()} "
        f"nonincreasing={monotone}",
    )


def test_c04_subcovering_probabilities(metric_sample):
    s = metric_sample
    pos = s.distance_matrix[np.triu_indices(s.size, 1)]
    ok = p_eps_k_closed(s, float(np.quantile(pos, 0.4)), 0) == 0.0

    checked = 0
    for q in (0.3, 0.6):
        eps = float(np.quantile(pos, q))
        for k in (1, 2, 4, 8):
            closed = p_eps_k_closed(s, eps, k)
            est, se = p_eps_k_monte_carlo(s, eps, k, trials=4000, seed=900 + k)
            ok = ok and abs(est - closed) <= 3.0 * max(se, 1e-12)
            checked += 1

    eps = float(np.quantile(pos, 0.5))
    pbar = s.min_ball_mass(eps)
    with np.errstate(divide="ignore"):
        for k in range(1, 13):
            lhs = np.log(1.0 - p_eps_k_closed(s, eps, k))
            ok = ok and lhs <= k * np.log(1.0 - pbar) + 1e-12
    _report(4, ok, f"{checked} (eps,k) cells within 3 stderr; p(eps,0)=0; rate slope ok")


def test_c04_covering_number_bound(metric_sample):
    # With c_i the complement mass of atom i's ball, 1 - p(eps,k) =
    # sum_i w_i c_i^k.  Jensen gives sum_i w_i c_i^k >= exp(k sum_i w_i
    # log c_i), so the log-mean formula is a lower bound on the
    # exhaustive minimum (equality only for constant complement mass).
    # The bound that dominates it comes from sum_i w_i c_i^k <= (1 -
    # pbar)^k, the rate checked above.  The ball masses of this sample
    # vary, so at least one cell must show the strict gap.
    s = metric_sample
    pos = s.distance_matrix[np.triu_indices(s.size, 1)]
    rows = []
    ok = True
    strict = 0
    for q in (0.3, 0.45, 0.6):
        eps = float(np.quantile(pos, q))
        worst_base = np.log(1.0 - s.min_ball_mass(eps))
        for delta in (0.2, 0.1, 0.05):
            rep = covering_number_bound(s, eps, delta)
            worst = int(np.ceil(np.log(delta) / worst_base))
            ok = ok and rep.bound <= rep.exact_min_k <= worst
            strict += rep.bound < rep.exact_min_k
            rows.append(
                f"(q={q},d={delta}): log-mean={rep.bound} exact={rep.exact_min_k} "
                f"worst-case={worst}"
            )
    ok = ok and strict >= 1
    _report(
        4,
        ok,
        f"log-mean <= exhaustive minimum <= worst-case bound, {strict}/9 strict "
        "below: " + "; ".join(rows),
    )


def test_c05_subcover_measure_bound(metric_sample):
    s = metric_sample
    pos = s.distance_matrix[np.triu_indices(s.size, 1)]
    rng = np.random.default_rng(77)
    details = []
    ok = True
    for q, k in ((0.4, 2), (0.55, 3), (0.7, 5)):
        eps = float(np.quantile(pos, q))
        bound = subcover_distance_bound(s, eps, k, p=2.0)
        dists = []
        for _ in range(50):
            centers = rng.choice(s.size, size=k, p=s.weights)
            try:
                w = empirical_subcover_measure(s, centers, eps)
            except EmptyCover:
                continue
            dists.append(nested_wasserstein(s, s.weights, w, p=2.0))
        mean = float(np.mean(dists))
        ok = ok and mean <= bound
        details.append(f"(eps~q{int(q*100)},k={k}): mean={mean:.3f} bound={bound:.3f}")
    _report(5, ok, "; ".join(details))


def test_c06_erm_exactness(erm_population):
    pop = erm_population
    ortho, W, qw = pop["ortho"], pop["pop_w"], pop["pop_weights"]
    A = ortho.l2_gram(W, qw)
    B = ortho.energy_gram(W, qw)
    gram_ok = (
        np.abs(A - np.eye(3)).max() <= 1e-8
        and np.abs(B - np.diag(np.diag(B))).max() <= 1e-8
    )

    rng = np.random.default_rng(7)
    idx = rng.integers(0, 256, size=200)
    sample = W[idx]
    w_true = np.array([0.4, -0.9, 0.25])
    target = ortho.evaluate(sample) @ w_true
    fit0 = solve_regularized(ortho, assemble(ortho, sample, target, lam=0.0))
    recovery = float(np.abs(fit0.predict(sample) - target).max())

    noisy = add_noise(target, 0.1, seed=5)
    residual_ok = True
    gaps = []
    w_ls = solve_regularized(ortho, assemble(ortho, sample, noisy, lam=0.0)).coefficients
    for lam in (1e-2, 1e-4, 1e-6):
        fit = solve_regularized(ortho, assemble(ortho, sample, noisy, lam=lam))
        residual_ok = residual_ok and fit.diagnostics["residual"] <= 1e-10 * (
            1.0 + np.linalg.norm(fit.system.yF)
        )
        gaps.append(float(np.linalg.norm(fit.coefficients - w_ls)))
    monotone = gaps[0] > gaps[1] > gaps[2]

    ok = gram_ok and recovery < 1e-8 and residual_ok and monotone
    _report(
        6,
        ok,
        f"grams ok={gram_ok}, recovery={recovery:.2e}, residuals<=1e-10, "
        f"lambda->0 gaps {np.format_float_scientific(gaps[0],2)}>"
        f"{np.format_float_scientific(gaps[1],2)}>{np.format_float_scientific(gaps[2],2)}",
    )


def test_c07_generalization_bound(erm_population):
    pop = erm_population
    ortho, W, qw, gamma = pop["ortho"], pop["pop_w"], pop["pop_weights"], pop["gamma"]
    E = ortho.evaluate(W)
    x = np.arange(8.0)
    F_vals = E @ np.array([0.5, -0.3, 0.2]) + 0.05 * (
        W @ np.sin(3 * np.pi * x / 7.0 + 0.3)
    )
    G = E.T @ (qw[:, None] * E)
    z = np.linalg.solve(G, E.T @ (qw * F_vals))
    e_exact = float(qw @ (F_vals - E @ z) ** 2)
    proj_energy = float(np.sum(z**2 * gamma))
    M = float(np.abs(F_vals).max())

    lam, r, sigma = 1e-3, 1.0, 0.1
    rep = condition_check(ortho, W, lam=lam, r=r, gamma=gamma, weights=qw)
    N = 2
    while N / np.log(N) < rep.required:
        N += 1
    N = int(np.ceil(N / 100.0)) * 100
    assert condition_check(ortho, W, lam=lam, r=r, gamma=gamma, weights=qw).required <= N / np.log(N)

    bound = bound_rhs(e_exact, lam, gamma, sigma, M, N, 3, r, proj_energy=proj_energy)
    errs = []
    for seed in range(100):
        srng = np.random.default_rng(1000 + seed)
        idx = srng.integers(0, 256, size=N)
        noisy = add_noise(F_vals[idx], sigma, 2000 + seed)
        fit = solve_regularized(ortho, assemble(ortho, W[idx], noisy, lam=lam))
        pred = truncate_values(E @ fit.coefficients, M)
        errs.append(float(qw @ (F_vals - pred) ** 2))
    mc = float(np.mean(errs))
    ok = mc <= bound
    _report(7, ok, f"N={N}, MC mean {mc:.3e} <= bound {bound:.3e}")


def test_c08_chernoff_sanity(erm_population):
    pop = erm_population
    ortho, W, qw, gamma = pop["ortho"], pop["pop_w"], pop["pop_weights"], pop["gamma"]
    K0 = condition_check(ortho, W, lam=0.0, r=1.0, gamma=gamma, weights=qw).K
    N = 250
    bound = chernoff_deviation_bound(3, N, K0)
    assert bound < 1.0  # keep the check non-vacuous
    freq = 0
    for s in range(500):
        srng = np.random.default_rng(3000 + s)
        idx = srng.integers(0, 256, size=N)
        L = ortho.evaluate(W[idx]) / np.sqrt(N)
        freq += np.linalg.norm(L.T @ L - np.eye(3), 2) > 0.5
    freq = freq / 500.0
    ok = freq <= bound
    _report(8, ok, f"N={N}: frequency {freq:.3f} <= chernoff bound {bound:.3f}")


def test_c09_max_network_exactness():
    rng = np.random.default_rng(9)
    ok = True
    for k in range(1, 7):
        net = build_max_network(k)
        widths_ok = net.hidden_widths == [3 * 2 ** (k - i) for i in range(1, k + 1)]
        X = rng.integers(-4096, 4097, size=(1000, 2**k)).astype(float) / 256.0
        X[:50, 1] = X[:50, 0]  # exact ties
        exact = np.array_equal(net.forward(X), X.max(axis=1))
        ok = ok and widths_ok and exact
    _report(9, ok, "k=1..6: widths 3*2^(k-i), bitwise max on 1000 dyadic vectors each")


def _gradient_probe_errors(net, X, y, rng, n_probes=20):
    """Relative backprop-vs-FD errors on random trainable coordinates,
    resampling any probe within 1e-6 of a ReLU kink or an MAE kink."""
    errors = []
    attempts = 0
    h = 1e-6
    while len(errors) < n_probes and attempts < 50 * n_probes:
        attempts += 1
        pred, cache = net.forward_cached(X)
        margins = [
            np.abs(z).min()
            for z, lay in zip(cache["z"], net.layers)
            if lay.activation == "relu"
        ]
        if min(margins) < 1e-6 or np.abs(pred - y).min() < 1e-6:
            X = X + rng.normal(scale=1e-4, size=X.shape)
            X = np.abs(X)
            X = X / X.sum(axis=1, keepdims=True)
            continue
        resid = pred - y
        grads = backward(net, cache, np.sign(resid) / len(y))
        li, name = net.trainable()[rng.integers(len(net.trainable()))]
        arr = getattr(net.layers[li], name)
        idx = tuple(rng.integers(s) for s in arr.shape)
        old = arr[idx]

        def mae():
            return float(np.mean(np.abs(net.forward(X) - y)))

        arr[idx] = old + h
        lp = mae()
        arr[idx] = old - h
        lm = mae()
        arr[idx] = old
        fd = (lp - lm) / (2 * h)
        an = grads[(li, name)][idx]
        if abs(fd) < 1e-9 and abs(an) < 1e-9:
            continue
        errors.append(abs(an - fd) / max(abs(fd), 1e-9))
    assert len(errors) == n_probes, "could not place enough probes away from kinks"
    return errors


def test_c10_backprop_finite_differences(small_world):
    rng = np.random.default_rng(10)
    X = rng.dirichlet(np.ones(36), size=10)
    y = rng.random(10) + 1.0

    rand_net = random_head_network(d=36, k=3, seed=2).set_all_trainable(True)
    errs_rand = _gradient_probe_errors(rand_net, X.copy(), y, rng)

    A, b = export_affine(small_world["bank"].subset(range(8)))
    bank_net = init_from_bank(A, b, k=3).set_all_trainable(True)
    errs_bank = _gradient_probe_errors(bank_net, X.copy(), y, rng)

    worst = max(max(errs_rand), max(errs_bank))
    ok = worst < 1e-5
    _report(10, ok, f"20 probes per architecture, worst relative error {worst:.2e}")


def test_c11_training_beats_bank_baseline(trained_run):
    errs = [r["test_rel_err"] for r in trained_run["trace"]]
    best = min(errs)
    baseline = trained_run["baseline"]
    ok = best < baseline
    _report(
        11,
        ok,
        f"bank-256 baseline {baseline:.4f}; trained best test error {best:.4f} "
        f"(epoch {int(np.argmin(errs))}/100, start {errs[0]:.4f})",
    )


def test_c12_algorithm1(small_world):
    # degree-0 homogeneity at 1e-9
    rng = np.random.default_rng(12)
    ground = GroundSpace.grid((2, 2))
    X = rng.dirichlet(np.ones(4), size=16)
    y = rng.random(16) + 0.5
    f_net = random_head_network(d=4, k=2, seed=1).set_all_trainable(True)
    h_net = random_head_network(d=4, k=2, seed=2).set_all_trainable(True)
    state = SaddleState(f_net, h_net, lam=1e-3, norm="h12")
    la0 = loss_adversary(state, ground, X, y)
    ls0 = loss_solution(state, ground, X, y)
    h_net.scale_output(3.0)
    homog = abs(loss_adversary(state, ground, X, y) - la0) <= 1e-9 and abs(
        loss_solution(state, ground, X, y) - ls0
    ) <= 1e-9

    # windowed solution-loss decay on the noiseless realizable toy
    def toy(n_xi, n_theta):
        trng = np.random.default_rng(5)
        Xt = trng.dirichlet(np.ones(4), size=20)
        teacher = random_head_network(d=4, k=1, seed=11)
        yt = teacher.forward(Xt) - 2.0
        f = teacher.copy().set_all_trainable(True)
        hrng = np.random.default_rng(13)
        h = ReluNetwork(
            [
                Layer(
                    hrng.normal(scale=1e-3, size=(2, 4)),
                    1.0 + hrng.normal(scale=1e-3, size=2),
                    "none",
                )
            ]
            + build_max_network(1).layers
        ).set_all_trainable(True)
        st = SaddleState(f, h, lam=1e-3, n_xi=n_xi, n_theta=n_theta, norm="h12")
        tr = run_algorithm1(
            st, Xt, yt, ground, AdversarialConfig(epochs=100, lr=1e-3, lr_xi=3e-3, seed=7)
        )
        w = [
            float(np.mean([abs(r["solution_loss"]) for r in tr[1 + 10 * i : 11 + 10 * i]]))
            for i in range(10)
        ]
        return w, all(b <= a for a, b in zip(w, w[1:]))

    w12, mono12 = toy(1, 2)
    w21, mono21 = toy(2, 1)
    ok = homog and mono12 and mono21
    _report(
        12,
        ok,
        f"homogeneity<=1e-9: {homog}; windows (1,2) {w12[0]:.3f}->{w12[-1]:.3f} "
        f"mono={mono12}; (2,1) {w21[0]:.3f}->{w21[-1]:.3f} mono={mono21}",
    )


def test_c13_speed_story(large_world, trained_run):
    table = run_speed_table(
        large_world["ds"],
        large_world["theta"],
        trained_run["net"].forward,
        n_eval=60,
        train_ns=trained_run["train_ns"],
    )
    ok = table["exact"] > 10.0
    _report(
        13,
        ok,
        f"per-element: exact {table['exact']:.0f}x forward, "
        f"sinkhorn {table['sinkhorn']:.0f}x forward (n={table['n_eval']}); "
        f"sinkhorn total / (train + evaluate) = {table['sinkhorn_over_pipeline']:.2f} "
        f"(trend only)",
    )
