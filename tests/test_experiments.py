import json
import re

import numpy as np
import pytest

from wdlearn import ot
from wdlearn.bank import build_bank, eval_G_many, nested_random_schedule
from wdlearn.experiments import (
    config_hash,
    make_synthetic_dataset,
    relative_errors,
    run_baseline_decay,
    run_experiment,
    run_speed_table,
    wpp_to_reference,
    write_csv,
    write_manifest,
    write_targets,
)
from wdlearn.measures import read_dataset
from wdlearn.ot import pairwise_wasserstein


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_synthetic_dataset(3, 3, n_train=10, n_test=6, seed=4)


class TestSyntheticData:
    def test_byte_identical_given_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        make_synthetic_dataset(3, 4, 5, 3, seed=11, path=p1)
        make_synthetic_dataset(3, 4, 5, 3, seed=11, path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_are_valid_measures(self, tmp_path):
        path = tmp_path / "ds.txt"
        make_synthetic_dataset(4, 4, 8, 4, generator="blurred-blobs", seed=2, path=path)
        ds = read_dataset(path)  # constructor re-validates every row
        assert len(ds.train) == 8 and len(ds.test) == 4

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", -1, "seed must be an integer of at least 0, got -1"),
            ("seed", 1.5, "seed must be an integer of at least 0, got 1.5"),
            ("seed", True, "seed must be an integer of at least 0, got True"),
            ("n_train", -1, "n_train must be an integer of at least 0, got -1"),
            ("rows", "3", "rows must be an integer of at least 1, got '3'"),
            ("p", [2], "metric order p must be finite and exceed 1, got [2]"),
        ],
        ids=["seed-negative", "seed-float", "seed-bool", "n_train-negative", "rows-string", "p-list"],
    )
    def test_arguments_are_checked(self, key, value, message):
        sizes = {"rows": 3, "cols": 3, "n_train": 4, "n_test": 2, "seed": 0}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_synthetic_dataset(**dict(sizes, **{key: value}))

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(17, 4, 2, 2)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator 'stripes'"):
            make_synthetic_dataset(3, 3, 2, 2, generator="stripes")

    def test_blob_classes_are_separated(self):
        ds = make_synthetic_dataset(
            6, 6, n_train=14, n_test=0, generator="blurred-blobs", seed=8
        )
        D = pairwise_wasserstein(ds.train)
        labels = ds.train_labels
        same = D[np.ix_(labels == 0, labels == 0)]
        cross = D[np.ix_(labels == 0, labels == 1)]
        within = same[np.triu_indices_from(same, 1)].mean()
        assert cross.mean() > within


@pytest.fixture(scope="module")
def tiny_test_wpp(tiny_dataset):
    return wpp_to_reference(tiny_dataset.test, tiny_dataset.train[0])


class TestBaselineDecay:
    def test_full_bank_zero_train_error(self, tiny_dataset):
        theta = tiny_dataset.train[0]
        n = len(tiny_dataset.train)
        true_wpp = wpp_to_reference(tiny_dataset.train, theta)
        records = run_baseline_decay(tiny_dataset, theta, [n], [1], "train", true_wpp)
        assert records[0]["max_rel_err"] <= 1e-8

    def test_mean_test_error_nonincreasing(self, tiny_dataset, tiny_test_wpp):
        theta = tiny_dataset.train[0]
        records = run_baseline_decay(tiny_dataset, theta, [2, 5, 10], [0, 1], "test", tiny_test_wpp)
        for seed in (0, 1):
            errs = [r["mean_rel_err"] for r in records if r["seed"] == seed]
            assert errs[0] >= errs[1] >= errs[2]

    def test_matches_direct_bank_evaluation(self, tiny_dataset, tiny_test_wpp):
        theta = tiny_dataset.train[0]
        records = run_baseline_decay(tiny_dataset, theta, [10], [3], "test", tiny_test_wpp)
        bank = build_bank(tiny_dataset, theta, range(10))
        expected = relative_errors(
            tiny_test_wpp, eval_G_many(bank, tiny_dataset.test_matrix)
        ).mean()
        assert records[0]["mean_rel_err"] == pytest.approx(expected)

    def test_one_bank_serves_every_seed(self, tiny_dataset, tiny_test_wpp, monkeypatch):
        # each anchor is solved once however many seeds share it, the true
        # values are read and never solved, and every seed's records equal
        # those of a bank built for that seed alone
        theta = tiny_dataset.train[0]
        sizes, seeds = [2, 4], [0, 1, 2]
        expected = []
        for seed in seeds:
            schedule = nested_random_schedule(len(tiny_dataset.train), sizes, seed)
            for j in sizes:
                errs = relative_errors(
                    tiny_test_wpp, eval_G_many(build_bank(tiny_dataset, theta, schedule[j]), tiny_dataset.test_matrix)
                )
                expected.append({"seed": seed, "size": j, "mean_rel_err": errs.mean(), "max_rel_err": errs.max()})
        union = set().union(*(nested_random_schedule(10, sizes, seed)[4] for seed in seeds))
        assert len(union) < len(seeds) * 4

        solves = []
        solve = ot.solve_transport_lp
        monkeypatch.setattr(ot, "solve_transport_lp", lambda *a, **kw: solves.append(a) or solve(*a, **kw))
        records = run_baseline_decay(tiny_dataset, theta, sizes, seeds, "test", tiny_test_wpp)
        assert len(solves) == len(union)
        assert records == expected

    @pytest.mark.parametrize(
        "true_wpp", [np.array([1.0]), np.ones(7), np.ones((6, 1)), 1.0], ids=["one", "seven", "column", "scalar"]
    )
    def test_true_values_must_be_one_per_measure_of_the_split(self, tiny_dataset, monkeypatch, true_wpp):
        # checked before the bank's first solve
        solves = []
        monkeypatch.setattr(ot, "solve_transport_lp", lambda *a, **kw: solves.append(a))
        shape = re.escape(str(np.shape(true_wpp)))
        with pytest.raises(ValueError, match=f"^true_wpp has shape {shape} where the 6 test measures need \\(6,\\)$"):
            run_baseline_decay(tiny_dataset, tiny_dataset.train[0], [2], [0], "test", true_wpp)
        assert solves == []

    def test_all_zero_targets_give_nan(self):
        # every error is undefined: NaN quietly, under filterwarnings = error
        dataset = make_synthetic_dataset(2, 2, n_train=3, n_test=3, seed=5)
        records = run_baseline_decay(dataset, dataset.train[0], [1, 3], [0], "test", np.zeros(3))
        assert [r["size"] for r in records] == [1, 3]
        for r in records:
            assert np.isnan(r["mean_rel_err"]) and np.isnan(r["max_rel_err"])

    def test_an_empty_split_is_rejected(self):
        ds = make_synthetic_dataset(3, 3, n_train=4, n_test=0, seed=4)
        with pytest.raises(ValueError, match="^baseline decay needs a nonempty test split$"):
            run_baseline_decay(ds, ds.train[0], [1, 2], [0], "test", np.zeros(0))


class TestSpeedTable:
    def test_normalization_and_ordering(self, tiny_dataset):
        theta = tiny_dataset.train[0]
        bank = build_bank(tiny_dataset, theta, range(4))
        from wdlearn.bank import export_affine
        from wdlearn.nets import init_from_bank

        A, b = export_affine(bank)
        net = init_from_bank(A, b, k=2)
        table = run_speed_table(tiny_dataset, theta, net.forward, n_eval=4)
        assert table["forward"] == 1.0
        assert table["exact"] > 1.0 and table["sinkhorn"] > 1.0

    def test_an_empty_test_split_is_rejected_before_any_timing(self):
        ds = make_synthetic_dataset(3, 3, n_train=4, n_test=0, seed=4)
        calls = []
        with pytest.raises(ValueError, match="^the speed table needs a nonempty test split$"):
            run_speed_table(ds, ds.train[0], calls.append)
        assert calls == []


class TestManifest:
    def test_hash_stable_and_sensitive(self):
        a = {"experiment": "x", "seed": 1}
        assert config_hash(a) == config_hash({"seed": 1, "experiment": "x"})
        assert config_hash(a) != config_hash({"experiment": "x", "seed": 2})

    def test_write_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"experiment": "x"}, [1, 2], ["trace.csv"])
        data = json.loads(path.read_text())
        assert data["seeds"] == [1, 2]
        assert data["outputs"] == ["trace.csv"]
        assert "version" in data and "config_hash" in data


def test_write_csv_needs_a_record(tmp_path):
    with pytest.raises(ValueError, match="no records to write"):
        write_csv(tmp_path / "out.csv", [])
    assert not (tmp_path / "out.csv").exists()


class TestRunExperiment:
    def test_make_dataset_experiment(self, tmp_path):
        # `dataset make` writes datasets: an exp run config for one is
        # rejected before any directory is made
        cfg = {"experiment": "make-dataset", "rows": 3, "cols": 3, "n_train": 4, "n_test": 2}
        with pytest.raises(ValueError, match="^unknown experiment 'make-dataset'$"):
            run_experiment(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_baseline_decay_experiment(self, tmp_path):
        ds = make_synthetic_dataset(3, 3, 8, 4, seed=1, path=tmp_path / "ds.txt")
        true_wpp = wpp_to_reference(ds.test, ds.train[0])
        write_targets(tmp_path / "targets.csv", [(w, 0) for w in true_wpp], "exact", "test", ds.train[0])
        cfg = {
            "experiment": "baseline-decay",
            "dataset": str(tmp_path / "ds.txt"),
            "targets": str(tmp_path / "targets.csv"),
            "ref": 0,
            "schedule": [2, 4],
            "seeds": [0],
        }
        run_experiment(cfg, tmp_path)
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "seed,size,mean_rel_err,max_rel_err"
        assert trace[1:] == [
            f"{r['seed']},{r['size']},{r['mean_rel_err']!r},{r['max_rel_err']!r}"
            for r in run_baseline_decay(ds, ds.train[0], [2, 4], [0], "test", true_wpp)
        ]

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment({"experiment": "nope"}, tmp_path)

    def test_schedule_must_increase(self, tmp_path):
        cfg = {
            "experiment": "baseline-decay",
            "dataset": str(tmp_path / "ds.txt"),
            "targets": str(tmp_path / "targets.csv"),
            "schedule": [4, 4],
        }
        # checked before either file is read
        with pytest.raises(ValueError, match="^schedule must be strictly increasing$"):
            run_experiment(cfg, tmp_path)
