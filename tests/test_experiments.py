import json

import numpy as np
import pytest

from wdlearn.bank import build_bank, eval_G_many
from wdlearn.experiments import (
    config_hash,
    make_synthetic_dataset,
    relative_errors,
    run_baseline_decay,
    run_experiment,
    run_speed_table,
    wpp_to_reference,
    write_manifest,
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

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(17, 4, 2, 2)

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


class TestBaselineDecay:
    def test_full_bank_zero_train_error(self, tiny_dataset):
        theta = tiny_dataset.train[0]
        n = len(tiny_dataset.train)
        records = run_baseline_decay(
            tiny_dataset, theta, sizes=[n], seeds=[1], split="train"
        )
        assert records[0]["max_rel_err"] <= 1e-8

    def test_mean_test_error_nonincreasing(self, tiny_dataset):
        theta = tiny_dataset.train[0]
        records = run_baseline_decay(
            tiny_dataset, theta, sizes=[2, 5, 10], seeds=[0, 1], split="test"
        )
        for seed in (0, 1):
            errs = [r["mean_rel_err"] for r in records if r["seed"] == seed]
            assert errs[0] >= errs[1] >= errs[2]

    def test_matches_direct_bank_evaluation(self, tiny_dataset):
        theta = tiny_dataset.train[0]
        true_wpp = wpp_to_reference(tiny_dataset.test, theta)
        records = run_baseline_decay(
            tiny_dataset, theta, sizes=[10], seeds=[3], split="test", true_wpp=true_wpp
        )
        bank = build_bank(tiny_dataset, theta, range(10))
        expected = relative_errors(
            true_wpp, eval_G_many(bank, tiny_dataset.test_matrix)
        ).mean()
        assert records[0]["mean_rel_err"] == pytest.approx(expected)

    def test_all_zero_targets_give_nan(self):
        # every error is undefined: NaN quietly, under filterwarnings = error
        dataset = make_synthetic_dataset(2, 2, n_train=3, n_test=3, seed=5)
        records = run_baseline_decay(
            dataset, dataset.train[0], sizes=[1, 3], seeds=[0], true_wpp=np.zeros(3)
        )
        assert [r["size"] for r in records] == [1, 3]
        for r in records:
            assert np.isnan(r["mean_rel_err"]) and np.isnan(r["max_rel_err"])


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


class TestRunExperiment:
    def test_make_dataset_experiment(self, tmp_path):
        cfg = {
            "experiment": "make-dataset",
            "rows": 3,
            "cols": 3,
            "n_train": 4,
            "n_test": 2,
            "seed": 5,
            "out": "ds.txt",
        }
        result = run_experiment(cfg, tmp_path)
        ds = read_dataset(tmp_path / "ds.txt")
        assert len(ds.train) == 4
        assert (tmp_path / "manifest.json").exists()

    def test_baseline_decay_experiment(self, tmp_path):
        make_synthetic_dataset(3, 3, 8, 4, seed=1, path=tmp_path / "ds.txt")
        cfg = {
            "experiment": "baseline-decay",
            "dataset": str(tmp_path / "ds.txt"),
            "ref": 0,
            "schedule": [2, 4],
            "seeds": [0],
        }
        result = run_experiment(cfg, tmp_path)
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "seed,size,mean_rel_err,max_rel_err"
        assert len(trace) == 3

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment({"experiment": "nope"}, tmp_path)

    def test_schedule_must_increase(self, tmp_path):
        make_synthetic_dataset(3, 3, 6, 2, seed=1, path=tmp_path / "ds.txt")
        cfg = {
            "experiment": "baseline-decay",
            "dataset": str(tmp_path / "ds.txt"),
            "schedule": [4, 4],
        }
        with pytest.raises(ValueError):
            run_experiment(cfg, tmp_path)
