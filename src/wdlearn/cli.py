"""Command-line interface.

Subcommands: ``dataset make``, ``ot``, ``bank build``, ``bank eval``,
``subcover``, ``erm fit``, ``maxnet train``, ``adversarial train``, and
``exp run``.  Run ``wdlearn <subcommand> -h`` for the flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from .adversarial import AdversarialConfig, SaddleState, run_algorithm1
from .bank import (
    build_bank,
    eval_G_many,
    export_affine,
    random_indices,
    read_bank,
    select_cover_indices,
    write_bank,
)
from .erm import (
    CylinderSubspace,
    add_noise,
    assemble,
    condition_check,
    double_orthogonalize,
    solve_regularized,
)
from .errors import WdlearnError
from .experiments import (
    _resolve_reference,
    make_synthetic_dataset,
    run_experiment,
    wpp_to_reference,
    write_csv,
)
from .measures import DiscreteMeasure, GroundSpace, MeasureDataset, read_dataset, relative_errors
from .nets import (
    TrainConfig,
    init_from_bank,
    random_head_network,
    save_model,
    train,
)
from .ot import exact_ot, sinkhorn
from .subcover import MetricSample, p_eps_k_closed, p_eps_k_monte_carlo


def _cmd_dataset_make(args):
    make_synthetic_dataset(
        rows=args.rows,
        cols=args.cols,
        n_train=args.n_train,
        n_test=args.n_test,
        generator=args.generator,
        seed=args.seed,
        p=args.p,
        path=args.out,
    )
    print(f"wrote {args.out}")


def _cmd_ot(args):
    if args.method != "sinkhorn":
        for flag, value in (("--reg", args.reg), ("--tol", args.tol)):
            if value is not None:
                raise ValueError(f"{flag} applies only to --method sinkhorn")
    reg = 0.1 if args.reg is None else args.reg
    tol = 1e-9 if args.tol is None else args.tol
    for flag, value in (("--reg", reg), ("--tol", tol)):
        if not 0 < value < np.inf:
            raise ValueError(f"{flag} must be finite and positive")
    dataset = read_dataset(args.dataset)
    if args.p is not None:
        ground = GroundSpace(dataset.ground.points, args.p, dataset.ground.grid_shape)
        splits = [[DiscreteMeasure(ground, mu.weights) for mu in ms] for ms in (dataset.train, dataset.test)]
        dataset = MeasureDataset(ground, *splits)
    theta = _resolve_reference(dataset, args.ref)
    measures, _ = dataset.split(args.split)
    records = []
    for i, mu in enumerate(measures):
        t0 = time.perf_counter_ns()
        if args.method == "exact":
            _, _, wpp = exact_ot(theta, mu)
        else:
            _, wpp = sinkhorn(theta, mu, reg=reg, tol=tol)
        records.append(
            {"index": i, "wpp": wpp, "runtime_ns": time.perf_counter_ns() - t0}
        )
    write_csv(args.out, records)
    print(f"wrote {args.out} ({len(records)} rows)")


_INDEX_SPECS = "random:<j>[:<seed>] | cover:<delta> | all"


def _parse_indices(spec, dataset, theta):
    kind, _, rest = spec.partition(":")
    j, _, seed = rest.partition(":")
    try:
        if kind == "random":
            j, seed = int(j), int(seed or 0)
        elif kind == "cover":
            delta = float(rest)
        elif spec != "all":
            raise ValueError
    except ValueError:
        raise ValueError(f"invalid index spec {spec!r}: expected {_INDEX_SPECS}") from None
    if kind == "random":
        return random_indices(len(dataset.train), j, seed)
    if kind == "cover":
        return select_cover_indices(dataset, theta, delta)
    return list(range(len(dataset.train)))


def _cmd_bank_build(args):
    dataset = read_dataset(args.dataset)
    theta = _resolve_reference(dataset, args.ref)
    indices = _parse_indices(args.indices, dataset, theta)
    bank = build_bank(dataset, theta, indices)
    write_bank(args.out, bank)
    print(f"wrote {args.out} (|I|={len(bank)})")


def _cmd_bank_eval(args):
    dataset = read_dataset(args.dataset)
    theta = _resolve_reference(dataset, args.ref)
    bank = read_bank(args.bank, theta)
    measures, W = dataset.split(args.split)
    g = eval_G_many(bank, W)
    wpp = wpp_to_reference(measures, theta)
    errs = relative_errors(wpp, g)
    records = [
        {"index": i, "true_wpp": wpp[i], "G": g[i], "rel_err": errs[i]}
        for i in range(len(measures))
    ]
    write_csv(args.out, records)
    print(f"wrote {args.out} ({len(records)} rows)")


def _cmd_subcover(args):
    dataset = read_dataset(args.dataset)
    sample = MetricSample(elements=dataset.train)
    match = re.fullmatch(r"(\d+):(\d+)", args.k_range)
    ks = range(int(match[1]), int(match[2]) + 1) if match else range(0)
    if not ks:
        raise ValueError("--k-range must be lo:hi with 0 <= lo <= hi")
    records = []
    for k in ks:
        closed = p_eps_k_closed(sample, args.eps, k)
        est, se = p_eps_k_monte_carlo(
            sample, args.eps, k, trials=args.trials, seed=args.seed + k
        )
        records.append(
            {"k": k, "closed": closed, "monte_carlo": est, "stderr": se}
        )
    write_csv(args.out, records)
    print(f"wrote {args.out} ({len(records)} rows)")


def _load_features(spec, dataset, theta, n):
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    kind, _, path = spec.partition(":")
    if kind == "bank":
        bank = read_bank(path, theta)
        A, _ = export_affine(bank)
        feats = A[:n]
    elif kind == "features":
        m = dataset.ground.size
        rows = []
        for no, line in enumerate(Path(path).read_text().splitlines(), start=1):
            words = line.split()
            if not words:
                continue
            if len(words) != m:
                raise ValueError(
                    f"features file, line {no}: {len(words)} entries, the ground has {m} points"
                )
            try:
                rows.append([float(w) for w in words])
            except ValueError as exc:
                raise ValueError(f"features file, line {no}: {exc}") from None
        feats = np.array(rows).reshape(-1, m)[:n]
    else:
        raise ValueError(f"unknown basis spec {spec!r}")
    if feats.shape[0] < n:
        raise ValueError(f"basis source provides {feats.shape[0]} < n={n} features")
    return feats


def _cmd_erm_fit(args):
    dataset = read_dataset(args.dataset)
    kind, _, ref = args.target.partition(":")
    if kind != "wpp":
        raise ValueError(f"unknown target spec {args.target!r}")
    theta = _resolve_reference(dataset, ref)
    values = wpp_to_reference(dataset.train, theta)
    noisy = add_noise(values, args.noise, args.seed)

    feats = _load_features(args.basis, dataset, theta, args.n)
    raw = CylinderSubspace(dataset.ground, feats)
    ortho = double_orthogonalize(raw, dataset.train_matrix)
    system = assemble(ortho, dataset.train_matrix, noisy, lam=args.lam)
    fit = solve_regularized(ortho, system)
    report = condition_check(ortho, dataset.train_matrix, lam=args.lam, r=args.r)

    out = {
        "coefficients": fit.coefficients.tolist(),
        "diagnostics": fit.diagnostics,
        "condition_check": {
            k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
            for k, v in report.__dict__.items()
        },
        "lambda": args.lam,
        "noise_sigma": args.noise,
        "seed": args.seed,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
    print(f"wrote {args.out}")


def _parse_loss(spec):
    if spec == "mae":
        return {"loss": "mae"}
    kind, _, lam = spec.partition(":")
    try:
        value = float(lam) if kind == "reg" else np.nan
    except ValueError:
        value = np.nan
    if not 0 <= value < np.inf:
        raise ValueError(
            f"invalid loss spec {spec!r}: expected mae | reg:<lambda>, lambda finite and >= 0"
        )
    return {"loss": "regularized", "reg_lambda": value}


def _read_targets(path, n):
    """The first ``n`` values of the ``wpp`` column of a CSV file, as
    ``wdlearn ot`` writes it."""
    vals = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if "wpp" not in (reader.fieldnames or ()):
            raise ValueError("targets file, line 1: the header has no 'wpp' column")
        for row in reader:
            try:
                value = float(row["wpp"])
            except (TypeError, ValueError):  # TypeError: the row ends before the column
                raise ValueError(
                    f"targets file, line {reader.line_num}: wpp {row['wpp']!r} is not a number"
                ) from None
            if not np.isfinite(value):
                raise ValueError(
                    f"targets file, line {reader.line_num}: wpp {row['wpp']!r} is not finite"
                )
            vals.append(value)
    if len(vals) < n:
        raise ValueError(f"targets file has {len(vals)} rows, need {n}")
    return np.array(vals[:n])


def _write_model_and_trace(out, net, config_hash, trace):
    """Save ``net`` and its training trace to ``--out model[,trace]``; the
    trace defaults to ``<model>.trace.csv``."""
    model_path, _, trace_path = out.partition(",")
    trace_path = trace_path or model_path + ".trace.csv"
    save_model(model_path, net, config_hash)
    write_csv(trace_path, trace)
    print(f"wrote {model_path} and {trace_path}")


def _cmd_maxnet_train(args):
    dataset = read_dataset(args.dataset)
    X = dataset.train_matrix
    y = _read_targets(args.targets, X.shape[0])
    kind, _, rest = args.init.partition(":")
    if kind == "bank":
        theta = _resolve_reference(dataset, "0" if args.ref is None else args.ref)
        bank = read_bank(rest, theta)
        net = init_from_bank(*export_affine(bank), k=args.k)
    elif kind == "random":
        if args.ref is not None:
            raise ValueError("--ref applies only to --init bank:<file>")
        # an explicit init seed wins; otherwise the training seed fixes
        # initialization and batch shuffling together
        net = random_head_network(X.shape[1], args.k, int(rest) if rest else args.seed)
    else:
        raise ValueError(f"unknown init spec {args.init!r}")
    if args.trainable_tree:
        net.set_all_trainable(True)

    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        **_parse_loss(args.loss),
    )
    trace = train(net, X, y, cfg, ground=dataset.ground)
    _write_model_and_trace(args.out, net, cfg.hash(), trace)


def _cmd_adversarial_train(args):
    dataset = read_dataset(args.dataset)
    X = dataset.train_matrix
    y = _read_targets(args.targets, X.shape[0])
    f_net = random_head_network(X.shape[1], args.k, args.seed).set_all_trainable(True)
    h_net = random_head_network(X.shape[1], args.k, args.seed + 1).set_all_trainable(True)
    state = SaddleState(
        f_net, h_net, lam=args.lam, n_xi=args.nxi, n_theta=args.ntheta, norm=args.norm
    )
    cfg = AdversarialConfig(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch_size, seed=args.seed
    )
    trace = run_algorithm1(state, X, y, dataset.ground, cfg)
    _write_model_and_trace(args.out, f_net, "", trace)


def _cmd_exp_run(args):
    with open(args.config) as fh:
        config = json.load(fh)
    result = run_experiment(config, args.out_dir)
    print(json.dumps(result, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wdlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="synthetic dataset utilities")
    ds_sub = ds.add_subparsers(dest="subcommand", required=True)
    mk = ds_sub.add_parser("make", help="generate a synthetic dataset file")
    mk.add_argument("--out", required=True)
    mk.add_argument("--rows", type=int, required=True)
    mk.add_argument("--cols", type=int, required=True)
    mk.add_argument("--n-train", type=int, required=True)
    mk.add_argument("--n-test", type=int, required=True)
    mk.add_argument(
        "--generator",
        default="random-dirichlet",
        choices=["random-dirichlet", "blurred-blobs"],
    )
    mk.add_argument("--seed", type=int, default=0)
    mk.add_argument("--p", type=float, default=2.0)
    mk.set_defaults(func=_cmd_dataset_make)

    ot_p = sub.add_parser("ot", help="distances of a split to a reference")
    ot_p.add_argument("--dataset", required=True)
    ot_p.add_argument("--ref", required=True, help="train index or measure file")
    ot_p.add_argument("--p", type=float, default=None, help="re-ground the dataset at this metric order")
    ot_p.add_argument("--method", default="exact", choices=["exact", "sinkhorn"])
    ot_p.add_argument("--reg", type=float, default=None, help="sinkhorn only (default 0.1)")
    ot_p.add_argument("--tol", type=float, default=None, help="sinkhorn only (default 1e-9)")
    ot_p.add_argument("--split", default="train", choices=["train", "test", "all"])
    ot_p.add_argument("--out", required=True)
    ot_p.set_defaults(func=_cmd_ot)

    bank_p = sub.add_parser("bank", help="potential bank build/eval")
    bank_sub = bank_p.add_subparsers(dest="subcommand", required=True)
    bb = bank_sub.add_parser("build")
    bb.add_argument("--dataset", required=True)
    bb.add_argument("--ref", required=True)
    bb.add_argument("--indices", required=True, help=_INDEX_SPECS)
    bb.add_argument("--out", required=True)
    bb.set_defaults(func=_cmd_bank_build)
    be = bank_sub.add_parser("eval")
    be.add_argument("--dataset", required=True)
    be.add_argument("--ref", required=True)
    be.add_argument("--bank", required=True)
    be.add_argument("--split", default="test", choices=["train", "test", "all"])
    be.add_argument("--out", required=True)
    be.set_defaults(func=_cmd_bank_eval)

    sc = sub.add_parser(
        "subcover",
        help="subcovering probabilities over a k-range (the train split is "
        "the metric sample)",
    )
    sc.add_argument("--dataset", required=True)
    sc.add_argument("--eps", type=float, required=True)
    sc.add_argument("--k-range", default="1:64")
    sc.add_argument("--trials", type=int, default=2000)
    sc.add_argument("--seed", type=int, default=7)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=_cmd_subcover)

    erm_p = sub.add_parser("erm", help="regularized least squares fit")
    erm_sub = erm_p.add_subparsers(dest="subcommand", required=True)
    ef = erm_sub.add_parser("fit")
    ef.add_argument("--dataset", required=True)
    ef.add_argument("--target", required=True, help="wpp:<ref>")
    ef.add_argument("--basis", required=True, help="bank:<file> | features:<file>")
    ef.add_argument("--n", type=int, default=32)
    ef.add_argument("--lambda", dest="lam", type=float, default=0.001)
    ef.add_argument("--noise", type=float, default=0.0)
    ef.add_argument("--seed", type=int, default=3)
    ef.add_argument("--r", type=float, default=1.0)
    ef.add_argument("--out", required=True)
    ef.set_defaults(func=_cmd_erm_fit)

    mn = sub.add_parser("maxnet", help="max-network training")
    mn_sub = mn.add_subparsers(dest="subcommand", required=True)
    mt = mn_sub.add_parser("train")
    mt.add_argument("--dataset", required=True)
    mt.add_argument("--targets", required=True, help="distances.csv from `ot`")
    mt.add_argument("--init", required=True, help="bank:<file> | random:<seed>")
    mt.add_argument("--ref", help="reference for bank init (default 0)")
    mt.add_argument("--k", type=int, required=True)
    mt.add_argument("--loss", default="mae", help="mae | reg:<lambda>")
    mt.add_argument("--epochs", type=int, default=100)
    mt.add_argument("--batch-size", type=int, default=64)
    mt.add_argument("--lr", type=float, default=1e-3)
    mt.add_argument("--seed", type=int, default=0)
    mt.add_argument("--trainable-tree", action="store_true")
    mt.add_argument("--out", required=True, help="model path[,trace path]")
    mt.set_defaults(func=_cmd_maxnet_train)

    adv = sub.add_parser("adversarial", help="saddle-point training")
    adv_sub = adv.add_subparsers(dest="subcommand", required=True)
    at = adv_sub.add_parser("train")
    at.add_argument("--dataset", required=True)
    at.add_argument("--targets", required=True)
    at.add_argument("--lambda", dest="lam", type=float, default=0.001)
    at.add_argument("--nxi", type=int, default=1)
    at.add_argument("--ntheta", type=int, default=1)
    at.add_argument("--norm", default="h12", choices=["h12", "l2"])
    at.add_argument("--k", type=int, default=4)
    at.add_argument("--epochs", type=int, default=100)
    at.add_argument("--batch-size", type=int, default=None)
    at.add_argument("--lr", type=float, default=1e-3)
    at.add_argument("--seed", type=int, default=5)
    at.add_argument("--out", required=True, help="model path[,trace path]")
    at.set_defaults(func=_cmd_adversarial_train)

    exp = sub.add_parser("exp", help="experiment orchestration")
    exp_sub = exp.add_subparsers(dest="subcommand", required=True)
    er = exp_sub.add_parser("run")
    er.add_argument("--config", required=True)
    er.add_argument("--out-dir", default=".")
    er.set_defaults(func=_cmd_exp_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (WdlearnError, ValueError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    return 0


if __name__ == "__main__":
    sys.exit(main())
