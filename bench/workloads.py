"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
identical rounds of its measured phase: every round repeats the same
calls on the same inputs, so a round's wall time, its exact counts and
its deterministic outputs can be compared across rounds, and latencies
are summarized per input over rounds (see ``harness.position_medians``).
Every time is scaled to a nominal machine speed by the clock readings
around it (``harness.ReferenceClock``); ``raw`` gets the measured times.
All calls go through module attributes (``ot.sinkhorn``, not a name
imported here), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from harness import latency_summary, position_medians
from wdlearn import adversarial, bank, erm, experiments, measures, nets, ot, subcover

# Sizes of the benchmark proper.  TINY_SIZES exist for the harness's own
# smoke test; they keep the shapes and shrink the counts.
SIZES = {
    "ref-targets-8x8": {
        "grid": 8,
        "n_anchors": 16,
        "n_test": 48,
        "n_sinkhorn": 6,
        "n_erm": 16,
    },
    "pairwise-6x6-blobs": {
        "grid": 6,
        "n_measures": 24,
        "eps_quantiles": [0.3, 0.6],
        "k_max": 12,
        "mc_ks": [1, 2, 4, 8],
        "mc_trials": 4000,
    },
    "train-maxnet-8x8": {
        "grid": 8,
        "n_train": 320,
        "n_test": 64,
        "bank": 256,
        "mae_epochs": 20,
        "reg_epochs": 2,
        "adv_epochs": 3,
        "adv_k": 5,
        "eval_repeats": 120,
    },
}

TINY_SIZES = {
    "ref-targets-8x8": {
        "grid": 8,
        "n_anchors": 6,
        "n_test": 12,
        "n_sinkhorn": 2,
        "n_erm": 4,
    },
    "pairwise-6x6-blobs": {
        "grid": 6,
        "n_measures": 6,
        "eps_quantiles": [0.3, 0.6],
        "k_max": 4,
        "mc_ks": [1, 2],
        "mc_trials": 500,
    },
    "train-maxnet-8x8": {
        "grid": 8,
        "n_train": 24,
        "n_test": 12,
        "bank": 16,
        "mae_epochs": 3,
        "reg_epochs": 1,
        "adv_epochs": 1,
        "adv_k": 2,
        "eval_repeats": 12,
    },
}

SINKHORN_REG = 0.1  # the speed-table settings
SINKHORN_TOL = 1e-3
ERM_LAM = 1e-3
ERM_RESIDUAL_TOL = 1e-10  # erm._RESIDUAL_TOL
DUALITY_TOL = 1e-8  # weak duality of the bank, as in criterion 2
BATCH = 64
LR = 1e-3
TRAIN_SEED = 3  # the criterion-11 training config
REG_LAMBDA = 1e-3
ADV_LAM = 1e-3
ADV_N_XI = 2

# About the time of each reference kernel (``harness.ReferenceClock``) on the
# machine the benchmark was tuned on, a 2-vCPU KVM guest on an Intel Xeon
# (model 143), in its fast state.  Reported times are scaled to this speed.
# Forward passes are timed in chunks of EVAL_CHUNK between clock readings.
REFERENCE_MS = {"lp8": 25.0, "lp6": 10.0, "net": 20.0}
EVAL_CHUNK = 10


class TransportReference:
    """A fixed transport LP on a ``grid x grid`` grid, solved by HiGHS dual
    simplex with the tolerances ``wdlearn.ot`` uses.

    It is built from numpy and scipy alone, so no change to ``wdlearn``
    moves its time; only the machine's speed does.
    """

    def __init__(self, grid):
        rng = np.random.default_rng(0)
        pts = np.stack(np.meshgrid(np.arange(grid), np.arange(grid)), -1).reshape(-1, 2)
        m = len(pts)
        self.cost = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1).ravel() / (grid - 1) ** 2
        rows = np.concatenate([np.repeat(np.arange(m), m), m + np.tile(np.arange(m), m)])
        cols = np.tile(np.arange(m * m), 2)
        self.A_eq = sparse.csr_matrix((np.ones(2 * m * m), (rows, cols)), shape=(2 * m, m * m))
        self.b_eq = np.concatenate([np.full(m, 1.0 / m), rng.dirichlet(np.ones(m))])

    def __call__(self):
        linprog(
            self.cost,
            A_eq=self.A_eq,
            b_eq=self.b_eq,
            bounds=(0, None),
            method="highs-ds",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )


class NetworkReference:
    """Network-training-like work in numpy alone: one epoch of a fixed ReLU
    network shaped like the ``k=8`` max network (64 inputs, widths 256,
    384, 192, ..., 3, 1), forward, backward and an Adam-style update of the
    first layer per batch of 64; then small elementwise operations on 64 x
    64 arrays (products, ReLU, masks, sums).

    Training spends much of its time in such small operations, so matrix
    products alone track its speed less well.
    """

    def __init__(self, n=320, d=64, k=8):
        rng = np.random.default_rng(0)
        widths = [d, 2**k] + [3 * 2 ** (k - i) for i in range(1, k + 1)] + [1]
        self.W = [rng.standard_normal((o, i)) / np.sqrt(i) for i, o in zip(widths, widths[1:])]
        self.X = rng.random((n, d))
        self.y = rng.random(n)
        self.small = rng.random((2, 64, 64))

    def __call__(self):
        W0, m, v = self.W[0].copy(), 0.0, 0.0
        for t, start in enumerate(range(0, len(self.y), BATCH), 1):
            xb, yb = self.X[start : start + BATCH], self.y[start : start + BATCH]
            acts = [xb @ W0.T]
            for W in self.W[1:]:
                acts.append(np.maximum(acts[-1], 0.0) @ W.T)
            g = np.sign(acts[-1][:, 0] - yb)[:, None] / len(yb)
            for W, a in zip(self.W[:0:-1], acts[-2::-1]):
                g = (g @ W) * (a > 0.0)
            grad = g.T @ xb
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            W0 -= LR * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        a, b = self.small
        for _ in range(600):
            z = a * b
            np.maximum(z, 0.0).sum(axis=0)
            (z > 0.5).astype(float)


def _uniform(ground, tracer):
    m = ground.size
    return tracer.call(
        "measures.DiscreteMeasure", measures.DiscreteMeasure, ground, np.full(m, 1.0 / m)
    )


def _median(rounds, key):
    values = [r[key] for r in rounds if key in r]
    return statistics.median(values) if values else float("nan")


def _first(rounds, key):
    for r in rounds:
        if key in r:
            return r[key]
    return float("nan")


def _latency_metrics(prefix, series):
    """``<prefix>.p50`` and ``<prefix>.tail`` in ms, the tail's details,
    and the per-input median times."""
    per_input = position_medians(series)
    s = latency_summary(per_input)
    detail = {
        f"{prefix}.tail": {"percentile": round(s["tail_percentile"], 2), "samples": s["samples"]}
    }
    return (
        {f"{prefix}.p50": (s["p50"], "ms"), f"{prefix}.tail": (s["tail"], "ms")},
        detail,
        per_input,
    )


def _above_dual_bound(result, pot):
    """Sinkhorn cost is at least the exact dual value at its own marginals.

    The plan meets its marginals only to ``tol``, so its cost may fall
    below ``W_p^p``; but it couples its own row and column sums, and any
    feasible potential pair bounds such a coupling's cost from below.
    """
    plan, cost = result
    bound = pot.psi @ plan.matrix.sum(axis=1) + pot.phi @ plan.matrix.sum(axis=0)
    return cost >= bound - DUALITY_TOL


def _flops_per_sample(net):
    """Flops of one forward pass, counted as ``sum 2 in out`` over the layers."""
    return sum(2 * lay.W.shape[0] * lay.W.shape[1] for lay in net.layers)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else float("nan")


class _Workload:
    """Inputs come from ``seed``; ``sizes`` holds the counts."""

    name: str
    setup_reps: int
    # gated end-to-end metric -> metric of this workload; the set-up, round
    # time and memory map to themselves on every workload
    gated = {"setup_s": "setup_s", "run_s": "run_s", "peak_rss_mb": "peak_rss_mb"}

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes

    # library calls after which an untraced round reads the clock (exact
    # solves already do, through ``harness.SolveTimer``)
    clock_points = ()

    def setup_reference(self):
        """Clock kernel and nominal ms of the set-up, which solves exact
        transport on the workload's grid."""
        grid = self.sizes["grid"]
        return TransportReference(grid), REFERENCE_MS[f"lp{grid}"]

    def reference(self):
        """Clock kernel and nominal ms of the measured phase."""
        return self.setup_reference()


class RefTargets(_Workload):
    """8x8 random-Dirichlet measures against the uniform reference.

    ``ot`` does most of the work, and only one marginal changes between
    solves, which is what a warm-started dual simplex exploits.
    """

    name = "ref-targets-8x8"
    setup_reps = 9
    gated = {
        **_Workload.gated,
        "throughput_per_s": "exact_solves_per_s",
        "latency_ms.p50": "exact_solve_ms.p50",
        "latency_ms.tail": "exact_solve_ms.tail",
    }

    def setup(self, tracer):
        s = self.sizes
        ds = experiments.make_synthetic_dataset(
            s["grid"], s["grid"], n_train=s["n_anchors"], n_test=s["n_test"], seed=self.seed
        )
        theta = _uniform(ds.ground, tracer)
        _ = ds.train_matrix, ds.test_matrix  # stacked once, cached on the dataset
        # exact potentials of the Sinkhorn slice, for its check; the first
        # HiGHS and Sinkhorn calls also pay one-off initialization here
        potentials = [ot.exact_ot(theta, mu)[1] for mu in ds.test[: s["n_sinkhorn"]]]
        ot.sinkhorn(theta, ds.test[0], reg=SINKHORN_REG, tol=SINKHORN_TOL)
        return {"ds": ds, "theta": theta, "potentials": potentials}

    def round(self, st, ledger, tracer, clock, raw):
        s = self.sizes
        ds, theta = st["ds"], st["theta"]
        rec = {}
        wpp = ledger.run(
            "wpp_to_reference",
            experiments.wpp_to_reference,
            ds.test,
            theta,
            check=lambda v: bool(np.all(np.isfinite(v)) and np.all(v >= -1e-12)),
        )

        def duality(b):
            b.check_duality(ds)  # raises AssertionError on a violation
            return len(b) == s["n_anchors"]

        bk = ledger.run(
            "build_bank", bank.build_bank, ds, theta, range(s["n_anchors"]), check=duality
        )
        if wpp is None or bk is None:
            return rec

        g = ledger.run(
            "eval_G_many",
            bank.eval_G_many,
            bk,
            ds.test_matrix,
            check=lambda g: bool(np.all(g <= wpp + DUALITY_TOL)),
        )
        if g is not None:
            rec["bank_rel_err"] = float(experiments.relative_errors(wpp, g).mean())

        sk_ms, raw_sk_ms = [], []
        for mu, pot in zip(ds.test, st["potentials"]):
            t0 = time.perf_counter_ns()
            ledger.run(
                "sinkhorn",
                ot.sinkhorn,
                theta,
                mu,
                reg=SINKHORN_REG,
                tol=SINKHORN_TOL,
                check=lambda r, pot=pot: _above_dual_bound(r, pot),
            )
            raw_sk_ms.append((time.perf_counter_ns() - t0) / 1e6)
            sk_ms.append(raw_sk_ms[-1] * clock.read())
        rec["sinkhorn_ms"], raw["sinkhorn_ms"] = sk_ms, raw_sk_ms

        features, _ = bank.export_affine(bk)
        subspace = erm.CylinderSubspace(ds.ground, features[: s["n_erm"]])
        ortho = ledger.run(
            "double_orthogonalize", erm.double_orthogonalize, subspace, ds.test_matrix
        )
        if ortho is None:
            return rec
        system = ledger.run("assemble", erm.assemble, ortho, ds.test_matrix, wpp, ERM_LAM)
        if system is None:
            return rec

        def fit_ok(fit):
            d = fit.diagnostics
            bound = ERM_RESIDUAL_TOL * (1.0 + np.linalg.norm(system.yF))
            return bool(d["local_optimum"]) and d["residual"] <= bound

        ledger.run("solve_regularized", erm.solve_regularized, ortho, system, check=fit_ok)
        return rec

    def metrics(self, rounds):
        m, detail, per_input = _latency_metrics("exact_solve_ms", [r["exact_ms"] for r in rounds])
        m["exact_solves_per_s"] = (_rate(len(per_input), sum(per_input) / 1e3), "1/s")
        sk = position_medians([r.get("sinkhorn_ms", []) for r in rounds])
        m["sinkhorn_solves_per_s"] = (_rate(len(sk), sum(sk) / 1e3), "1/s")
        m["bank_rel_err"] = (_first(rounds, "bank_rel_err"), "1")
        return m, detail


class PairwiseBlobs(_Workload):
    """6x6 blurred-blobs measures: a pairwise matrix and the subcover
    diagnostics on it.

    Both marginals change on every solve, so a fixed-reference shortcut
    is bypassed; the inputs are smooth two-cluster measures on a smaller
    grid.
    """

    name = "pairwise-6x6-blobs"
    setup_reps = 15
    gated = RefTargets.gated

    def setup(self, tracer):
        s = self.sizes
        ds = experiments.make_synthetic_dataset(
            s["grid"],
            s["grid"],
            n_train=s["n_measures"],
            n_test=0,
            generator="blurred-blobs",
            seed=self.seed,
        )
        theta = _uniform(ds.ground, tracer)
        ds.ground.cost_matrix()  # caches the ground distance matrix
        ot.wasserstein(ds.train[0], ds.train[1])  # one-off HiGHS initialization
        return {"ds": ds, "theta": theta}

    def round(self, st, ledger, tracer, clock, raw):
        s = self.sizes
        ds, theta = st["ds"], st["theta"]
        rec = {}
        sample = tracer.call("subcover.MetricSample", subcover.MetricSample, elements=ds.train)

        def metric_ok(D):
            sample.check_metric(seed=self.seed)  # raises AssertionError on a violation
            return D.shape == (len(ds.train),) * 2

        D = ledger.run(
            "distance_matrix",
            tracer.call,
            "subcover.MetricSample.distance_matrix",
            lambda: sample.distance_matrix,
            check=metric_ok,
        )
        if D is None:
            return rec
        off_diag = D[np.triu_indices(len(D), 1)]
        eps_list = [float(np.quantile(off_diag, q)) for q in s["eps_quantiles"]]

        for e, eps in enumerate(eps_list):
            closed = []
            for k in range(s["k_max"] + 1):
                p = ledger.run(
                    "p_eps_k_closed",
                    subcover.p_eps_k_closed,
                    sample,
                    eps,
                    k,
                    check=lambda p: 0.0 <= p <= 1.0,
                )
                closed.append(np.nan if p is None else p)
            ledger.check(
                "p_eps_k_closed nondecreasing in k",
                all(b >= a for a, b in zip(closed, closed[1:])),
            )
            for k in s["mc_ks"]:
                p = closed[k]
                trials = s["mc_trials"]

                def within(r, p=p, trials=trials):
                    est, se = r
                    se_closed = np.sqrt(p * (1.0 - p) / trials)
                    return abs(est - p) <= 4.0 * max(se, se_closed) + 1e-12

                ledger.run(
                    "p_eps_k_monte_carlo",
                    subcover.p_eps_k_monte_carlo,
                    sample,
                    eps,
                    k,
                    trials=trials,
                    seed=1000 * self.seed + 10 * e + k,
                    check=within,
                )
            ledger.run(
                "covering_number_bound",
                subcover.covering_number_bound,
                sample,
                eps,
                0.1,
                check=lambda r: r.bound >= 1 and r.exact_min_k >= 0,
            )

        eps = eps_list[0]
        centers = ledger.run(
            "select_cover_indices",
            bank.select_cover_indices,
            ds,
            theta,
            eps,
            distance_matrix=D,
            check=lambda c: bool(np.all(D[:, c].min(axis=1) <= eps)),
        )
        if centers is None:
            return rec
        w = ledger.run(
            "empirical_subcover_measure",
            subcover.empirical_subcover_measure,
            sample,
            centers,
            eps,
            check=lambda w: bool(np.all(w >= 0.0)) and abs(w.sum() - 1.0) <= 1e-12,
        )
        if w is None:
            return rec
        dist = ledger.run(
            "nested_wasserstein",
            subcover.nested_wasserstein,
            sample,
            sample.weights,
            w,
            check=lambda v: 0.0 <= v <= sample.diameter,
        )
        if dist is not None:
            rec["subcover_rel_err"] = dist / sample.diameter
        return rec

    def metrics(self, rounds):
        m, detail, per_input = _latency_metrics("exact_solve_ms", [r["exact_ms"] for r in rounds])
        m["exact_solves_per_s"] = (_rate(len(per_input), sum(per_input) / 1e3), "1/s")
        m["subcover_rel_err"] = (_first(rounds, "subcover_rel_err"), "1")
        return m, detail


class TrainMaxnet(_Workload):
    """Bank-initialized max network on 8x8 data (the criterion-11 run).

    ``nets`` and ``adversarial`` do most of the work and ``ot`` none in
    the measured phase; training (forward, backward, Adam) runs beside
    inference-only ``forward``.
    """

    name = "train-maxnet-8x8"
    setup_reps = 3
    gated = {
        **_Workload.gated,
        "throughput_per_s": "train_samples_per_s",
        "latency_ms.p50": "eval_ms.p50",
        "latency_ms.tail": "eval_ms.tail",
    }

    clock_points = (("wdlearn.nets", "Adam.step"),)

    def reference(self):
        return NetworkReference(self.sizes["n_train"]), REFERENCE_MS["net"]

    def setup(self, tracer):
        s = self.sizes
        n = s["n_train"]
        ds = experiments.make_synthetic_dataset(
            s["grid"], s["grid"], n_train=n, n_test=s["n_test"], seed=self.seed
        )
        theta = _uniform(ds.ground, tracer)
        anchors = bank.random_indices(n, s["bank"], seed=self.seed)
        bk = bank.build_bank(ds, theta, anchors)
        # the bank's solves already give the anchors' exact targets
        y = np.empty(n)
        y[anchors] = [e.wpp for e in bk.entries]
        others = sorted(set(range(n)) - set(anchors))
        y[others] = experiments.wpp_to_reference([ds.train[i] for i in others], theta)
        y_test = experiments.wpp_to_reference(ds.test, theta)
        A, b = bank.export_affine(bk)
        baseline = experiments.relative_errors(y_test, bank.eval_G_many(bk, ds.test_matrix))
        return {
            "ds": ds,
            "bank": bk,
            "A": A,
            "b": b,
            "X": ds.train_matrix,
            "y": y,
            "X_test": ds.test_matrix,
            "y_test": y_test,
            "baseline": float(baseline.mean()),
            "k": int(np.log2(s["bank"])),
        }

    def round(self, st, ledger, tracer, clock, raw):
        s = self.sizes
        X, y, X_test, y_test = st["X"], st["y"], st["X_test"], st["y_test"]
        rec = {}
        net = nets.init_from_bank(st["A"], st["b"], k=st["k"])

        def init_matches(out):
            g = bank.eval_G_many(st["bank"], X)
            return bool(np.all(np.abs(out - g) <= 1e-9 * (1.0 + np.abs(g))))

        ledger.run("forward at init", net.forward, X, check=init_matches)

        def finite(trace):
            return all(np.isfinite(r["loss"]) for r in trace[1:])

        cfg = nets.TrainConfig(
            epochs=s["mae_epochs"], batch_size=BATCH, lr=LR, seed=TRAIN_SEED
        )
        with clock.span() as took:
            mae = ledger.run(
                "train mae", nets.train, net, X, y, cfg, X_test=X_test, y_test=y_test, check=finite
            )
        rec["mae_s"], raw["mae_s"] = took["s"], took["raw_s"]

        cfg = nets.TrainConfig(
            epochs=s["reg_epochs"],
            batch_size=BATCH,
            lr=LR,
            seed=TRAIN_SEED,
            loss="regularized",
            reg_lambda=REG_LAMBDA,
        )
        with clock.span() as took:
            reg = ledger.run(
                "train regularized",
                nets.train,
                net,
                X,
                y,
                cfg,
                ground=st["ds"].ground,
                X_test=X_test,
                y_test=y_test,
                check=finite,
            )
        rec["reg_s"], raw["reg_s"] = took["s"], took["raw_s"]

        if mae is not None and reg is not None:
            best = min(r["test_rel_err"] for r in mae + reg)
            if ledger.check("best test error beats the bank baseline", best < st["baseline"]):
                rec["test_rel_err"] = best

        d = X.shape[1]
        f_net = nets.random_head_network(d, s["adv_k"], seed=self.seed).set_all_trainable(True)
        h_net = nets.random_head_network(d, s["adv_k"], seed=self.seed + 1).set_all_trainable(True)
        state = adversarial.SaddleState(f_net, h_net, lam=ADV_LAM, n_xi=ADV_N_XI, norm="h12")
        acfg = adversarial.AdversarialConfig(
            epochs=s["adv_epochs"], lr=LR, batch_size=BATCH, seed=self.seed
        )
        with clock.span() as took:
            trace = ledger.run(
                "run_algorithm1",
                adversarial.run_algorithm1,
                state,
                X,
                y,
                st["ds"].ground,
                acfg,
                check=lambda tr: all(np.isfinite(r["solution_loss"]) for r in tr),
            )
        rec["adv_s"], raw["adv_s"] = took["s"], took["raw_s"]
        batches = -(-len(y) // BATCH)
        steps = s["adv_epochs"] * batches * (ADV_N_XI + state.n_theta)
        rec["adv_steps"] = steps
        if trace is not None:
            skipped = sum(int(r["skipped_steps"]) for r in trace)
            ledger.add("adversarial steps", steps, skipped)

        tracer.note("nets.forward.flops_per_sample", _flops_per_sample(net))
        expected = reg[-1]["test_rel_err"] if reg is not None else None
        ledger.run(
            "forward over the test split",
            net.forward,
            X_test,
            check=lambda out: nets.mean_relative_error(out, y_test) == expected,
        )
        # a forward pass takes a small share of the clock's kernel, so the
        # clock is read after every EVAL_CHUNK of them
        eval_ms, raw_eval_ms = [], []
        clock.read()
        for done in range(0, s["eval_repeats"], EVAL_CHUNK):
            net.forward(X_test)  # untimed: warms the caches the kernel used
            times = []
            for _ in range(min(EVAL_CHUNK, s["eval_repeats"] - done)):
                t0 = time.perf_counter_ns()
                net.forward(X_test)
                times.append((time.perf_counter_ns() - t0) / 1e6)
            scale = clock.read()
            raw_eval_ms += times
            eval_ms += [t * scale for t in times]
        rec["eval_ms"], raw["eval_ms"] = eval_ms, raw_eval_ms
        return rec

    def metrics(self, rounds):
        s = self.sizes
        n = s["n_train"]
        m, detail, _ = _latency_metrics("eval_ms", [r["eval_ms"] for r in rounds])
        m["train_samples_per_s"] = (_rate(s["mae_epochs"] * n, _median(rounds, "mae_s")), "1/s")
        m["reg_train_samples_per_s"] = (
            _rate(s["reg_epochs"] * n, _median(rounds, "reg_s")),
            "1/s",
        )
        m["adv_steps_per_s"] = (_rate(_first(rounds, "adv_steps"), _median(rounds, "adv_s")), "1/s")
        m["eval_measures_per_s"] = (_rate(s["n_test"], m["eval_ms.p50"][0] / 1e3), "1/s")
        m["test_rel_err"] = (_first(rounds, "test_rel_err"), "1")
        return m, detail


WORKLOADS = {w.name: w for w in (RefTargets, PairwiseBlobs, TrainMaxnet)}
