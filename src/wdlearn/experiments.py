"""Synthetic datasets, experiment orchestration, and report emission.

Experiments run at desk scale on generated data; every run writes a
manifest (config hash, seeds, library version) sufficient to reproduce
it bit-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bank import build_bank, eval_G_many, export_affine, nested_random_schedule
from .measures import (
    DiscreteMeasure,
    GroundSpace,
    MeasureDataset,
    normalize_to_measure,
    read_dataset,
    relative_errors,
    write_dataset,
)
from .nets import init_from_bank
from .ot import exact_ot, sinkhorn

_MAX_GRID = 16


def make_synthetic_dataset(
    rows: int,
    cols: int,
    n_train: int,
    n_test: int,
    generator: str = "random-dirichlet",
    seed: int = 0,
    p: float = 2.0,
    path=None,
) -> MeasureDataset:
    """Deterministic desk-scale dataset; optionally written to ``path``.

    Generators: ``random-dirichlet`` draws flat Dirichlet weights;
    ``blurred-blobs`` sums Gaussian bumps whose centers live in the left
    (label 0) or right (label 1) half of the grid.
    """
    if rows > _MAX_GRID or cols > _MAX_GRID:
        raise ValueError(f"desk-scale grids are capped at {_MAX_GRID}x{_MAX_GRID}")
    ground = GroundSpace.grid((rows, cols), p=p)
    rng = np.random.default_rng(seed)
    total = n_train + n_test

    if generator == "random-dirichlet":
        weights = rng.dirichlet(np.ones(rows * cols), size=total)
        labels = np.zeros(total, dtype=int)
        measures = [DiscreteMeasure(ground, w) for w in weights]
    elif generator == "blurred-blobs":
        measures, labels = [], []
        pts = ground.points
        for i in range(total):
            label = int(rng.integers(2))
            lo, hi = (0.0, cols / 2.0) if label == 0 else (cols / 2.0, float(cols))
            field = np.zeros(rows * cols)
            for _ in range(int(rng.integers(1, 4))):
                center = np.array(
                    [rng.uniform(0, rows), rng.uniform(lo, hi)]
                )
                width = rng.uniform(0.7, 1.5)
                sq = ((pts - center) ** 2).sum(axis=1)
                field += np.exp(-sq / (2.0 * width**2))
            field += 1e-6
            measures.append(normalize_to_measure(ground, field))
            labels.append(label)
        labels = np.array(labels)
    else:
        raise ValueError(f"unknown generator {generator!r}")

    ds = MeasureDataset(
        ground,
        measures[:n_train],
        measures[n_train:],
        train_labels=labels[:n_train],
        test_labels=labels[n_train:],
    )
    if path is not None:
        write_dataset(path, ds)
    return ds


def wpp_to_reference(
    measures: Sequence[DiscreteMeasure], theta: DiscreteMeasure
) -> np.ndarray:
    """Exact ``W_p^p`` of every measure to the reference."""
    return np.array([exact_ot(theta, mu)[2] for mu in measures])


def run_baseline_decay(
    dataset: MeasureDataset,
    theta: DiscreteMeasure,
    sizes: Sequence[int],
    seeds: Sequence[int],
    split: str = "test",
    true_wpp: Optional[np.ndarray] = None,
) -> list:
    """Mean relative error of the bank approximant over a nested schedule.

    For every seed a nested family of random index sets is drawn; for every
    size the bank restricted to that set is evaluated on the chosen split.
    Returns one record per (seed, size); the mean and max skip a zero
    target's undefined error (see :func:`relative_errors`), NaN if all are 0.
    """
    sizes = sorted(int(j) for j in sizes)
    eval_measures, W = dataset.split(split)
    if true_wpp is None:
        true_wpp = wpp_to_reference(eval_measures, theta)

    records = []
    for seed in seeds:
        schedule = nested_random_schedule(len(dataset.train), sizes, seed)
        full_bank = build_bank(dataset, theta, schedule[sizes[-1]])
        pos_of = {k: i for i, k in enumerate(full_bank.indices)}
        for j in sizes:
            sub = full_bank.subset([pos_of[k] for k in schedule[j]])
            errs = relative_errors(true_wpp, eval_G_many(sub, W))
            errs = errs[~np.isnan(errs)]
            records.append(
                {
                    "seed": int(seed),
                    "size": int(j),
                    "mean_rel_err": float(errs.mean()) if errs.size else np.nan,
                    "max_rel_err": float(errs.max()) if errs.size else np.nan,
                }
            )
    return records


def run_speed_table(
    dataset: MeasureDataset,
    theta: DiscreteMeasure,
    forward,
    reg: float = 0.1,
    n_eval: Optional[int] = None,
    train_ns: Optional[int] = None,
) -> dict:
    """Wall-times of the trained forward pass vs the two solvers,
    normalized to the forward pass on the same elements.

    When the training wall time ``train_ns`` is supplied, the table also
    reports the whole-pipeline comparison (train once, then evaluate the
    split by forward passes) against running the entropic solver over
    the same split.
    """
    measures = dataset.test[:n_eval] if n_eval else dataset.test
    W = dataset.test_matrix[: len(measures)]

    t0 = time.perf_counter_ns()
    forward(W)
    t_forward = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    for mu in measures:
        exact_ot(theta, mu)
    t_exact = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    for mu in measures:
        sinkhorn(theta, mu, reg=reg, tol=1e-3, max_iter=10_000)
    t_sink = time.perf_counter_ns() - t0

    table = {
        "n_eval": len(measures),
        "forward": 1.0,
        "exact": t_exact / t_forward,
        "sinkhorn": t_sink / t_forward,
        "forward_ns_per_element": t_forward / len(measures),
    }
    if train_ns is not None:
        table["sinkhorn_over_pipeline"] = t_sink / (train_ns + t_forward)
    return table


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def write_manifest(path, config: dict, seeds, outputs: Sequence[str]) -> None:
    manifest = {
        "config": config,
        "config_hash": config_hash(config),
        "seeds": list(np.asarray(seeds).tolist()) if seeds is not None else [],
        "version": __version__,
        "outputs": list(outputs),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def write_csv(path, records: Sequence[dict]) -> None:
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
        writer.writeheader()
        writer.writerows(records)


def _resolve_reference(dataset: MeasureDataset, ref) -> DiscreteMeasure:
    """The train measure at index ``ref`` (an ``int`` or a string of
    digits), or the measure in the file named by any other non-empty string."""
    if isinstance(ref, str) and ref and not ref.removeprefix("-").isdecimal():
        weights = np.array(Path(ref).read_text().split(), dtype=float)
        return DiscreteMeasure(dataset.ground, weights)
    if isinstance(ref, bool) or not isinstance(ref, (int, str)) or ref == "":
        raise ValueError(f"reference {ref!r} is neither a train index nor a file path")
    index = int(ref)
    n = len(dataset.train)
    if not 0 <= index < n:
        raise ValueError(f"reference index {index} is outside the train indices 0 .. {n - 1}")
    return dataset.train[index]


def run_experiment(config: dict, out_dir) -> dict:
    """Dispatch a config document and emit trace.csv + manifest.json.

    ``out_dir`` is created at the first write, so a config rejected
    before that leaves no directory behind.
    """
    out_dir = Path(out_dir)

    def out(name):
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / name

    kind = config["experiment"]
    outputs = []

    if kind == "make-dataset":
        path = out(config.get("out", "dataset.txt"))
        make_synthetic_dataset(
            rows=config["rows"],
            cols=config["cols"],
            n_train=config["n_train"],
            n_test=config["n_test"],
            generator=config.get("generator", "random-dirichlet"),
            seed=config.get("seed", 0),
            p=config.get("p", 2.0),
            path=path,
        )
        outputs.append(str(path))
        seeds = [config.get("seed", 0)]
    elif kind == "baseline-decay":
        schedule = [int(j) for j in config["schedule"]]
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        dataset = read_dataset(config["dataset"])
        theta = _resolve_reference(dataset, config.get("ref", 0))
        seeds = config.get("seeds", [0])
        records = run_baseline_decay(
            dataset,
            theta,
            sizes=config["schedule"],
            seeds=seeds,
            split=config.get("split", "test"),
        )
        trace = out("trace.csv")
        write_csv(trace, records)
        outputs.append(str(trace))
    elif kind == "speed-table":
        dataset = read_dataset(config["dataset"])
        theta = _resolve_reference(dataset, config.get("ref", 0))
        seeds = [config.get("seed", 0)]
        size = int(config.get("bank_size", 16))
        if not 1 <= size <= len(dataset.train):
            raise ValueError(
                f"bank_size {size} must lie between 1 and the {len(dataset.train)} train measures"
            )
        bank = build_bank(dataset, theta, range(size))
        k = int(np.ceil(np.log2(max(size, 2))))
        net = init_from_bank(*export_affine(bank), k=k)
        table = run_speed_table(
            dataset, theta, net.forward, reg=config.get("reg", 0.1)
        )
        trace = out("trace.csv")
        write_csv(trace, [table])
        outputs.append(str(trace))
    else:
        raise ValueError(f"unknown experiment {kind!r}")

    manifest = out("manifest.json")
    write_manifest(manifest, config, seeds, outputs)
    return {"outputs": outputs, "manifest": str(manifest)}
