"""Command-line interface.

Subcommands: ``dataset make``, ``ot``, ``bank build``, ``bank eval``,
``subcover``, ``erm fit``, ``maxnet train``, ``adversarial train``, and
``exp run``.  Run ``wdlearn <subcommand> -h`` for the flags.
"""

from __future__ import annotations

import argparse
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
    read_targets,
    run_experiment,
    write_csv,
    write_targets,
)
from .measures import read_dataset, relative_errors
from .nets import (
    TrainConfig,
    init_from_bank,
    random_head_network,
    save_model,
    settings_hash,
    train,
)
from .ot import exact_ot
from .subcover import MetricSample, p_eps_k_closed, p_eps_k_monte_carlo


def _seed(text):
    """The argparse type of every ``--seed``: a nonnegative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return seed


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
    dataset = read_dataset(args.dataset)
    theta = _resolve_reference(dataset, args.ref)
    measures = dataset.split(args.split)[0]
    if not measures:
        raise ValueError(f"the {args.split} split of {args.dataset} holds no measures")
    rows = []
    for mu in measures:
        t0 = time.perf_counter_ns()
        rows.append((exact_ot(theta, mu)[2], time.perf_counter_ns() - t0))
    write_targets(args.out, rows, args.split, theta)
    print(f"wrote {args.out} ({len(rows)} rows)")


# The forms of each kind:arg flag, which are also its help.  A field
# <file> takes the rest of the text, colons included; <seed> is a
# nonnegative integer, <j>, <lo> and <hi> integers and any other field a
# float.  The library checks their ranges.
_SPECS = {
    "indices": "random:<j>[:<seed>] | cover:<delta> | all",
    "basis": "bank:<file> | features:<file>",
    "loss": "mae | reg:<lambda>",
    "init": "bank:<file> | random[:<seed>]",
    "k-range": "<lo>:<hi>",
}
_FIELD_TYPES = {"<file>": str, "<seed>": _seed, "<j>": int, "<lo>": int, "<hi>": int}


def _spec(flag, text):
    """``(kind, *fields)`` of ``text`` given to ``--<flag>``, by the form of
    ``_SPECS[flag]`` it matches; an optional field left out is ``None``."""
    forms = _SPECS[flag]
    for form in forms.split(" | "):
        pattern = form.replace("[", "(?:").replace("]", ")?")
        pattern = re.sub(r"<\w+>", lambda m: "(.+)" if m[0] == "<file>" else "([^:]+)", pattern)
        match = re.fullmatch(pattern, text)
        if match:
            names = re.findall(r"<\w+>", form)
            try:
                return (re.match(r"\w*", form)[0],) + tuple(
                    None if value is None else _FIELD_TYPES.get(name, float)(value)
                    for name, value in zip(names, match.groups())
                )
            except (ValueError, argparse.ArgumentTypeError):
                break
    raise ValueError(f"invalid --{flag} spec {text!r}: expected {forms}")


def _cmd_bank_build(args):
    kind, *fields = _spec("indices", args.indices)
    dataset = read_dataset(args.dataset)
    theta = _resolve_reference(dataset, args.ref)
    if kind == "random":
        j, seed = fields
        indices = random_indices(len(dataset.train), j, seed or 0)
    elif kind == "cover":
        indices = select_cover_indices(dataset, theta, *fields)
    else:
        indices = list(range(len(dataset.train)))
    bank = build_bank(dataset, theta, indices)
    write_bank(args.out, bank)
    print(f"wrote {args.out} (|I|={len(bank)})")


def _cmd_bank_eval(args):
    dataset = read_dataset(args.dataset)
    theta = _resolve_reference(dataset, args.ref)
    bank = read_bank(args.bank, theta)
    split, wpp = read_targets(args.targets, dataset, None, theta)
    g = eval_G_many(bank, dataset.split(split)[1])
    errs = relative_errors(wpp, g)
    records = [{"index": i, "true_wpp": w, "G": gi, "rel_err": e} for i, (w, gi, e) in enumerate(zip(wpp, g, errs))]
    write_csv(args.out, records)
    print(f"wrote {args.out} ({len(records)} rows)")


def _cmd_subcover(args):
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    _, lo, hi = _spec("k-range", args.k_range)
    if not 0 <= lo <= hi:
        raise ValueError(f"--k-range needs 0 <= lo <= hi, got {args.k_range}")
    dataset = read_dataset(args.dataset)
    sample = MetricSample(elements=dataset.train)
    records = []
    for k in range(lo, hi + 1):
        closed = p_eps_k_closed(sample, args.eps, k)
        est, se = p_eps_k_monte_carlo(sample, args.eps, k, trials=args.trials, seed=args.seed + k)
        records.append({"k": k, "closed": closed, "monte_carlo": est, "stderr": se})
    write_csv(args.out, records)
    print(f"wrote {args.out} ({len(records)} rows)")


def _load_features(kind, path, dataset, theta, n):
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if kind == "bank":
        feats = export_affine(read_bank(path, theta))[0][:n]
    else:
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
                row = [float(w) for w in words]
            except ValueError as exc:
                raise ValueError(f"features file, line {no}: {exc}") from None
            if not np.isfinite(row).all():
                raise ValueError(f"features file, line {no}: entries must be finite")
            rows.append(row)
        feats = np.array(rows).reshape(-1, m)[:n]
    if feats.shape[0] < n:
        raise ValueError(f"basis source provides {feats.shape[0]} < n={n} features")
    return feats


def _cmd_erm_fit(args):
    if not 0 <= args.lam < np.inf:
        raise ValueError(f"--lambda must be finite and nonnegative, got {args.lam}")
    if not 0 <= args.noise < np.inf:
        raise ValueError(f"--noise must be finite and nonnegative, got {args.noise}")
    if not 0 < args.r < np.inf:
        raise ValueError(f"--r must be finite and positive, got {args.r}")
    basis = _spec("basis", args.basis)
    dataset = read_dataset(args.dataset)
    theta = _resolve_reference(dataset, args.ref)
    feats = _load_features(*basis, dataset, theta, args.n)
    noisy = add_noise(read_targets(args.targets, dataset, "train", theta)[1], args.noise, args.seed)

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


def _write_model_and_trace(out, net, config_hash, trace):
    """Save ``net`` and its training trace to ``--out model[,trace]``; the
    trace defaults to ``<model>.trace.csv``."""
    model_path, _, trace_path = out.partition(",")
    trace_path = trace_path or model_path + ".trace.csv"
    save_model(model_path, net, config_hash)
    write_csv(trace_path, trace)
    print(f"wrote {model_path} and {trace_path}")


def _cmd_maxnet_train(args):
    kind, *lam = _spec("loss", args.loss)
    loss = {"loss": "regularized", "reg_lambda": lam[0]} if kind == "reg" else {"loss": "mae"}
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr, seed=args.seed, **loss)
    init, source = _spec("init", args.init)
    if init == "random" and args.ref is not None:
        raise ValueError("--ref applies only to --init bank:<file>")

    dataset = read_dataset(args.dataset)
    X = dataset.train_matrix
    if init == "bank":
        theta = _resolve_reference(dataset, "0" if args.ref is None else args.ref)
        net = init_from_bank(*export_affine(read_bank(source, theta)), k=args.k)
    else:
        # the network learns whichever reference the targets hold; an
        # explicit init seed wins, otherwise the training seed fixes
        # initialization and batch shuffling together
        theta = None
        net = random_head_network(X.shape[1], args.k, args.seed if source is None else source)
    if args.trainable_tree:
        net.set_all_trainable(True)
    y = read_targets(args.targets, dataset, "train", theta)[1]
    trace = train(net, X, y, cfg, ground=dataset.ground)
    _write_model_and_trace(args.out, net, cfg.hash(), trace)


def _cmd_adversarial_train(args):
    cfg = AdversarialConfig(epochs=args.epochs, lr=args.lr, batch_size=args.batch_size, seed=args.seed)
    saddle = {"lam": args.lam, "n_xi": args.nxi, "n_theta": args.ntheta, "norm": args.norm}
    dataset = read_dataset(args.dataset)
    X = dataset.train_matrix
    y = read_targets(args.targets, dataset, "train", None)[1]
    f_net = random_head_network(X.shape[1], args.k, args.seed).set_all_trainable(True)
    h_net = random_head_network(X.shape[1], args.k, args.seed + 1).set_all_trainable(True)
    trace = run_algorithm1(SaddleState(f_net, h_net, **saddle), X, y, dataset.ground, cfg)
    _write_model_and_trace(args.out, f_net, settings_hash(dict(cfg.__dict__, **saddle, k=args.k)), trace)


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
    mk.add_argument("--seed", type=_seed, default=0)
    mk.add_argument("--p", type=float, default=2.0)
    mk.set_defaults(func=_cmd_dataset_make)

    ot_p = sub.add_parser("ot", help="exact W_p^p of a split to a reference, at the dataset's p")
    ot_p.add_argument("--dataset", required=True)
    ot_p.add_argument("--ref", required=True, help="train index or measure file")
    ot_p.add_argument("--split", default="train", choices=["train", "test", "all"])
    ot_p.add_argument("--out", required=True)
    ot_p.set_defaults(func=_cmd_ot)

    bank_p = sub.add_parser("bank", help="potential bank build/eval")
    bank_sub = bank_p.add_subparsers(dest="subcommand", required=True)
    bb = bank_sub.add_parser("build")
    bb.add_argument("--dataset", required=True)
    bb.add_argument("--ref", required=True)
    bb.add_argument("--indices", required=True, help=_SPECS["indices"])
    bb.add_argument("--out", required=True)
    bb.set_defaults(func=_cmd_bank_build)
    be = bank_sub.add_parser("eval")
    be.add_argument("--dataset", required=True)
    be.add_argument("--ref", required=True)
    be.add_argument("--bank", required=True)
    be.add_argument("--targets", required=True, help="`ot` output; its split is evaluated")
    be.add_argument("--out", required=True)
    be.set_defaults(func=_cmd_bank_eval)

    sc = sub.add_parser(
        "subcover",
        help="subcovering probabilities over a k-range (the train split is "
        "the metric sample)",
    )
    sc.add_argument("--dataset", required=True)
    sc.add_argument("--eps", type=float, required=True)
    # argparse takes "-1:3" after a space for an option, not a value
    k_help = f"{_SPECS['k-range']}; a bound starting with - needs the form --k-range=<lo>:<hi>"
    sc.add_argument("--k-range", default="1:64", help=k_help)
    sc.add_argument("--trials", type=int, default=2000)
    sc.add_argument("--seed", type=_seed, default=7)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=_cmd_subcover)

    erm_p = sub.add_parser("erm", help="regularized least squares fit")
    erm_sub = erm_p.add_subparsers(dest="subcommand", required=True)
    ef = erm_sub.add_parser("fit")
    ef.add_argument("--dataset", required=True)
    ef.add_argument("--ref", required=True, help="train index or measure file")
    ef.add_argument("--basis", required=True, help=_SPECS["basis"])
    ef.add_argument("--targets", required=True, help="`ot --split train` output")
    ef.add_argument("--n", type=int, default=32)
    ef.add_argument("--lambda", dest="lam", type=float, default=0.001)
    ef.add_argument("--noise", type=float, default=0.0)
    ef.add_argument("--seed", type=_seed, default=3)
    ef.add_argument("--r", type=float, default=1.0)
    ef.add_argument("--out", required=True)
    ef.set_defaults(func=_cmd_erm_fit)

    mn = sub.add_parser("maxnet", help="max-network training")
    mn_sub = mn.add_subparsers(dest="subcommand", required=True)
    mt = mn_sub.add_parser("train")
    mt.add_argument("--dataset", required=True)
    mt.add_argument("--targets", required=True, help="`ot --split train` output")
    mt.add_argument("--init", required=True, help=_SPECS["init"])
    mt.add_argument("--ref", help="reference for bank init (default 0)")
    mt.add_argument("--k", type=int, required=True)
    mt.add_argument("--loss", default="mae", help=_SPECS["loss"])
    mt.add_argument("--epochs", type=int, default=100)
    mt.add_argument("--batch-size", type=int, default=64)
    mt.add_argument("--lr", type=float, default=1e-3)
    mt.add_argument("--seed", type=_seed, default=0)
    mt.add_argument("--trainable-tree", action="store_true")
    mt.add_argument("--out", required=True, help="model path[,trace path]")
    mt.set_defaults(func=_cmd_maxnet_train)

    adv = sub.add_parser("adversarial", help="saddle-point training")
    adv_sub = adv.add_subparsers(dest="subcommand", required=True)
    at = adv_sub.add_parser("train")
    at.add_argument("--dataset", required=True)
    at.add_argument("--targets", required=True, help="`ot --split train` output")
    at.add_argument("--lambda", dest="lam", type=float, default=0.001)
    at.add_argument("--nxi", type=int, default=1)
    at.add_argument("--ntheta", type=int, default=1)
    at.add_argument("--norm", default="h12", choices=["h12", "l2"])
    at.add_argument("--k", type=int, default=4)
    at.add_argument("--epochs", type=int, default=100)
    at.add_argument("--batch-size", type=int, default=None)
    at.add_argument("--lr", type=float, default=1e-3)
    at.add_argument("--seed", type=_seed, default=5)
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
