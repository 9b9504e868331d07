"""Synthetic datasets, experiment orchestration, and report emission.

Experiments run at desk scale on generated data; every run writes a
manifest (config hash, seeds, library version) sufficient to reproduce
it bit-identically.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bank import build_bank, eval_G_many, export_affine, nested_random_schedule, reference_hash
from .measures import (
    DiscreteMeasure,
    GroundSpace,
    MeasureDataset,
    normalize_to_measure,
    read_dataset,
    relative_errors,
    write_dataset,
)
from .nets import init_from_bank, mean_relative_error
from .ot import exact_ot, sinkhorn

_MAX_GRID = 16
# the speed table's forward time is the fastest of this many calls, so a
# host stall during one call does not set it
_FORWARD_CALLS = 5


def _check_int(value, name: str, low: int):
    """``value`` if it is an integer (not a ``bool``) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
    return value


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
    (label 0) or right (label 1) half of the grid.  The sizes and the seed
    must be integers, ``rows`` and ``cols`` at least 1, the rest at least 0.
    """
    _check_int(rows, "rows", 1), _check_int(cols, "cols", 1), _check_int(seed, "seed", 0)
    _check_int(n_train, "n_train", 0), _check_int(n_test, "n_test", 0)
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
    split: str,
    true_wpp: np.ndarray,
) -> list:
    """Mean relative error of the bank approximant over a nested schedule.

    For every seed a nested family of random index sets is drawn; for every
    size the bank restricted to that set is evaluated on the chosen split
    against ``true_wpp``, one value per measure of the split as
    :func:`read_targets` reads them; the bank's anchors are the only solves.
    Returns one record per (seed, size); the mean and max skip a zero
    target's undefined error (see :func:`relative_errors`), NaN if all are 0.
    An empty split or a ``true_wpp`` of another shape raises ``ValueError``.
    """
    sizes = sorted(int(j) for j in sizes)
    eval_measures, W = dataset.split(split)
    if not eval_measures:
        raise ValueError(f"baseline decay needs a nonempty {split} split")
    n = len(eval_measures)
    if np.shape(true_wpp) != (n,):
        raise ValueError(f"true_wpp has shape {np.shape(true_wpp)} where the {n} {split} measures need ({n},)")

    # one bank over every seed's largest index set: each anchor is solved
    # once, and each sub-bank keeps its sorted index order
    schedules = [nested_random_schedule(len(dataset.train), sizes, seed) for seed in seeds]
    union = sorted(set().union(*(schedule[sizes[-1]] for schedule in schedules)))
    full_bank = build_bank(dataset, theta, union)
    pos_of = {k: i for i, k in enumerate(full_bank.indices)}
    records = []
    for seed, schedule in zip(seeds, schedules):
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
    normalized to the forward pass on the same elements, and the mean
    relative errors of one more forward pass and of the entropic solver
    against the exact solver.  The forward time is the fastest of a fixed
    number of calls; each solver runs once per element.

    When the training wall time ``train_ns`` is supplied, the table also
    reports the whole-pipeline comparison (train once, then evaluate the
    split by forward passes) against running the entropic solver over
    the same split.  An empty test split raises ``ValueError`` before any
    timing.
    """
    measures = dataset.test[:n_eval] if n_eval else dataset.test
    if not measures:
        raise ValueError("the speed table needs a nonempty test split")
    W = dataset.test_matrix[: len(measures)]

    def forward_ns():
        t0 = time.perf_counter_ns()
        forward(W)
        return time.perf_counter_ns() - t0

    t_forward = min(forward_ns() for _ in range(_FORWARD_CALLS))

    t0 = time.perf_counter_ns()
    exact = [exact_ot(theta, mu)[2] for mu in measures]
    t_exact = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    entropic = [sinkhorn(theta, mu, reg=reg, tol=1e-3)[1] for mu in measures]
    t_sink = time.perf_counter_ns() - t0

    table = {
        "n_eval": len(measures),
        "forward": 1.0,
        "exact": t_exact / t_forward,
        "sinkhorn": t_sink / t_forward,
        "forward_ns_per_element": t_forward / len(measures),
        "forward_rel_err": mean_relative_error(forward(W), exact),
        "sinkhorn_rel_err": mean_relative_error(entropic, exact),
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


_TARGETS_COLUMNS = ("index", "wpp", "runtime_ns", "method", "split", "ref_hash")


def write_targets(path, rows: Sequence, split: str, theta: DiscreteMeasure) -> None:
    """The targets file of ``wdlearn ot``: a CSV row ``index, wpp,
    runtime_ns, exact, split, ref_hash`` for each exact ``(wpp, runtime_ns)``
    of ``rows``, ``ref_hash`` being the :func:`bank.reference_hash` of ``theta``."""
    meta = ("exact", split, reference_hash(theta))
    write_csv(path, [dict(zip(_TARGETS_COLUMNS, (i, *row, *meta))) for i, row in enumerate(rows)])


def read_targets(path, dataset: MeasureDataset, split: Optional[str], theta: Optional[DiscreteMeasure]):
    """``(split, wpp)`` of a targets file as :func:`write_targets` writes it.

    The file must hold one row per measure of ``split`` (``None``: the
    split its first row names), row ``i`` holding index ``i``, each with
    method ``exact``, that split, the ``ref_hash`` of ``theta`` (``None``:
    unchecked) and a finite ``wpp``.  Anything else raises ``ValueError``
    naming the file, the line and the field.
    """
    want = {"method": "exact", "split": split, "ref_hash": None if theta is None else reference_hash(theta)}
    values, n = [], None
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in _TARGETS_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"targets file {path}, line 1: the header has no {column!r} column")
        for row in reader:
            where = f"targets file {path}, line {reader.line_num}"
            want["split"] = want["split"] or row["split"]
            for field, value in want.items():
                if value is not None and row[field] != value:
                    raise ValueError(f"{where}: {field} {row[field]!r} where {value!r} belongs")
            try:
                n = len(dataset.split(want["split"])[0]) if n is None else n
            except ValueError as exc:
                raise ValueError(f"{where}: split: {exc}") from None
            if len(values) == n:
                raise ValueError(f"{where}: a row beyond the {n} {want['split']} measures")
            if row["index"] != str(len(values)):
                raise ValueError(f"{where}: index {row['index']!r} where {len(values)} belongs")
            try:
                value = float(row["wpp"])
            except (TypeError, ValueError):  # TypeError: the row ends before the column
                value = np.nan
            if not np.isfinite(value):
                raise ValueError(f"{where}: wpp {row['wpp']!r} is not a finite number")
            values.append(value)
        end = f"targets file {path}, line {reader.line_num + 1}: the file ends after {len(values)} rows"
        if n is None:
            raise ValueError(end)
        if len(values) < n:
            raise ValueError(f"{end}, one per {want['split']} measure needs {n}")
    return want["split"], np.array(values)


def _resolve_reference(dataset: MeasureDataset, ref) -> DiscreteMeasure:
    """The train measure at index ``ref`` (an ``int`` or a string of
    digits), or the measure in the file named by any other non-empty string:
    its weights separated by any whitespace, a malformed one naming the file."""
    if isinstance(ref, str) and ref and not ref.removeprefix("-").isdecimal():
        try:
            return DiscreteMeasure(dataset.ground, np.array(Path(ref).read_text().split(), dtype=float))
        except ValueError as exc:
            raise ValueError(f"reference file {ref}: {exc}") from None
    if isinstance(ref, bool) or not isinstance(ref, (int, str)) or ref == "":
        raise ValueError(f"reference {ref!r} is neither a train index nor a file path")
    index = int(ref)
    n = len(dataset.train)
    if not 0 <= index < n:
        where = f"the train indices 0 .. {n - 1}" if n else "the train split, which is empty"
        raise ValueError(f"reference index {index} is outside {where}")
    return dataset.train[index]


def _check_path(value, name: str) -> str:
    if not isinstance(value, str) or not value:  # 0 would open standard input
        raise ValueError(f"{name} must be a path string, got {value!r}")
    return value


def _baseline_decay(dataset, targets, schedule, seeds=(0,), ref=0):
    for key, value in (("seeds", seeds), ("schedule", schedule)):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {value!r}")
        if not value:
            raise ValueError(f"{key} must not be empty")
    seeds = [_check_int(seed, "each of seeds", 0) for seed in seeds]
    schedule = [_check_int(j, "each of schedule", 1) for j in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    targets = _check_path(targets, "targets")
    dataset = read_dataset(_check_path(dataset, "dataset"))
    theta = _resolve_reference(dataset, ref)
    split, true_wpp = read_targets(targets, dataset, None, theta)
    return seeds, run_baseline_decay(dataset, theta, schedule, seeds, split, true_wpp)


def _speed_table(dataset, ref=0, reg=0.1, bank_size=16):
    if isinstance(reg, bool) or not isinstance(reg, (int, float)) or not 0 < reg < np.inf:
        raise ValueError(f"reg must be a finite positive number, got {reg!r}")
    if isinstance(bank_size, bool) or not isinstance(bank_size, int):
        raise ValueError(f"bank_size must be an integer, got {bank_size!r}")
    dataset = read_dataset(_check_path(dataset, "dataset"))
    theta = _resolve_reference(dataset, ref)
    if not 1 <= bank_size <= len(dataset.train):
        raise ValueError(f"bank_size {bank_size} must lie between 1 and the {len(dataset.train)} train measures")
    if not dataset.test:
        raise ValueError("the speed table needs a nonempty test split")
    bank = build_bank(dataset, theta, range(bank_size))
    k = int(np.ceil(np.log2(max(bank_size, 2))))
    net = init_from_bank(*export_affine(bank), k=k)
    return [], [run_speed_table(dataset, theta, net.forward, reg=reg)]


_EXPERIMENTS = {"baseline-decay": _baseline_decay, "speed-table": _speed_table}


def run_experiment(config: dict, out_dir) -> dict:
    """Run the experiment a config document names; write its records to
    trace.csv and a manifest.json into ``out_dir``.

    Each experiment is a function above whose keyword parameters are its
    config keys, those without a default needed, and which returns its
    seeds and records.  A config that is not a JSON object, names no known
    ``experiment``, lacks a needed key or holds any other is rejected before
    anything is computed, and each function checks its values before its
    first solve.  ``out_dir`` is created once the records are computed, so
    a rejected config leaves no directory behind.
    """
    if not isinstance(config, dict):
        raise ValueError(f"an experiment config must be a JSON object, got {type(config).__name__}")
    if "experiment" not in config:
        raise ValueError("the config names no 'experiment'")
    kind = config["experiment"]
    if not isinstance(kind, str) or kind not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {kind!r}")
    experiment = _EXPERIMENTS[kind]
    params = inspect.signature(experiment).parameters.values()
    args = {key: value for key, value in config.items() if key != "experiment"}
    for param in params:
        if param.default is param.empty and param.name not in args:
            raise ValueError(f"experiment {kind!r} needs the key {param.name!r}")
    for key in args:
        if key not in {param.name for param in params}:
            raise ValueError(f"experiment {kind!r} takes no key {key!r}")
    seeds, records = experiment(**args)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace, manifest = out_dir / "trace.csv", out_dir / "manifest.json"
    write_csv(trace, records)
    write_manifest(manifest, config, seeds, [str(trace)])
    return {"outputs": [str(trace)], "manifest": str(manifest)}
