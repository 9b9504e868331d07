import csv
import json
import logging
import re

import numpy as np
import pytest

from wdlearn import cli, experiments, measures, ot
from wdlearn.bank import build_bank, eval_G_many, export_affine, read_bank, reference_hash
from wdlearn.erm import CylinderSubspace, assemble, double_orthogonalize, solve_regularized
from wdlearn.cli import main
from wdlearn.measures import DiscreteMeasure, GroundSpace, read_dataset
from wdlearn.nets import load_model, mean_relative_error
from wdlearn.ot import exact_ot


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset plus train and test distances and a bank, produced through
    the CLI."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds.txt"
    main(
        "dataset make --out".split()
        + [str(ds)]
        + "--rows 3 --cols 3 --n-train 12 --n-test 5 --seed 3".split()
    )
    for split, name in (("train", "distances.csv"), ("test", "test_distances.csv")):
        main(["ot", "--dataset", str(ds), "--ref", "0", "--split", split, "--out", str(root / name)])
    main(
        [
            "bank",
            "build",
            "--dataset",
            str(ds),
            "--ref",
            "0",
            "--indices",
            "random:4:1",
            "--out",
            str(root / "bank.txt"),
        ]
    )
    return root


@pytest.fixture(scope="module")
def mismatch_sources(workdir):
    """ot's output for each set of flags ``_MISMATCHES`` edits, by those flags."""
    ds, sources = str(workdir / "ds.txt"), {(): workdir / "distances.csv"}
    sources[("--split", "test")] = workdir / "test_distances.csv"
    for flags in (("--ref", "3"), ("--method", "sinkhorn", "--reg", "0.5")):
        out = workdir / f"mismatch{len(sources)}.csv"
        main(["ot", "--dataset", ds, "--ref", "0", *flags, "--out", str(out)])
        sources[flags] = out
    return sources


# each case: the ot flags of the file it edits, the edit of its lines (the
# header first) and the error; the consumers want exact train rows for
# reference 0
_MISMATCHES = {
    "other-reference": (["--ref", "3"], None, "line 2: ref_hash '{h3}' where '{h0}' belongs"),
    "test-split": (["--split", "test"], None, "line 2: split 'test' where 'train' belongs"),
    "test-split-same-size": (
        [],
        lambda lines: [line.replace(",train,", ",test,") for line in lines],
        "line 2: split 'test' where 'train' belongs",
    ),
    "sinkhorn": (["--method", "sinkhorn", "--reg", "0.5"], None, "line 2: method 'sinkhorn' where 'exact' belongs"),
    "short": ([], lambda lines: lines[:6], "line 7: the file ends after 5 rows, one per train measure needs 12"),
    "long": (
        [],
        lambda lines: lines + [lines[-1].replace("11,", "12,", 1)],
        "line 14: a row beyond the 12 train measures",
    ),
    "duplicate": ([], lambda lines: lines[:3] + lines[2:], "line 4: index '1' where 2 belongs"),
    "missing": ([], lambda lines: lines[:2] + lines[3:], "line 3: index '2' where 1 belongs"),
    "out-of-order": ([], lambda lines: [lines[0], lines[2], lines[1]] + lines[3:], "line 2: index '1' where 0 belongs"),
    "before-provenance": (
        [],
        lambda lines: [",".join(line.split(",")[:3]).rstrip("\n") + "\n" for line in lines],
        "line 1: the header has no 'method' column",
    ),
}
_TARGETS_HEADER = "index,wpp,runtime_ns,method,split,ref_hash\n"
_BAD_INDEX_SPEC = "invalid --indices spec '{}': expected random:<j>[:<seed>] | cover:<delta> | all"


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestCli:
    def test_dataset_make(self, workdir):
        ds = read_dataset(workdir / "ds.txt")
        assert len(ds.train) == 12 and len(ds.test) == 5

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--rows", "0", "rows must be an integer of at least 1, got 0"),
            ("--n-train", "-4", "n_train must be an integer of at least 0, got -4"),
        ],
    )
    def test_dataset_make_rejects_a_size(self, tmp_path, flag, value, message):
        sizes = {"--rows": "3", "--cols": "3", "--n-train": "4", "--n-test": "2", flag: value}
        out = tmp_path / "ds.txt"
        with pytest.raises(SystemExit) as exc:
            main(["dataset", "make", "--out", str(out)] + [a for kv in sizes.items() for a in kv])
        assert str(exc.value) == f"error: {message}"
        assert not out.exists()

    def test_ot_distances(self, workdir):
        rows = _read_csv(workdir / "distances.csv")
        assert list(rows[0].keys()) == ["index", "wpp", "runtime_ns", "method", "split", "ref_hash"]
        assert len(rows) == 12
        assert float(rows[0]["wpp"]) == pytest.approx(0.0, abs=1e-12)  # ref is train[0]
        ds = read_dataset(workdir / "ds.txt")
        assert {(r["method"], r["split"], r["ref_hash"]) for r in rows} == {
            ("exact", "train", reference_hash(ds.train[0]))
        }
        # the values read back are bitwise the solver's
        split, wpp = experiments.read_targets(workdir / "distances.csv", ds, "train", ds.train[0])
        assert split == "train" and wpp.tolist() == [exact_ot(ds.train[0], mu)[2] for mu in ds.train]

    def test_ot_p_regrounds_the_dataset(self, workdir, tmp_path):
        out = tmp_path / "d3.csv"
        main(["ot", "--dataset", str(workdir / "ds.txt"), "--ref", "1", "--p", "3", "--split", "test", "--out", str(out)])
        got = [float(row["wpp"]) for row in _read_csv(out)]
        dataset = read_dataset(workdir / "ds.txt")
        ground = GroundSpace.grid((3, 3), p=3.0)
        theta = DiscreteMeasure(ground, dataset.train[1].weights)
        want = [exact_ot(theta, DiscreteMeasure(ground, mu.weights))[2] for mu in dataset.test]
        assert got == want
        assert not np.allclose(got, [exact_ot(dataset.train[1], mu)[2] for mu in dataset.test])

    def test_ot_sinkhorn_method(self, workdir, tmp_path):
        out = tmp_path / "sink.csv"
        main(
            [
                "ot",
                "--dataset",
                str(workdir / "ds.txt"),
                "--ref",
                "1",
                "--method",
                "sinkhorn",
                "--reg",
                "0.5",
                "--tol",
                "1e-6",
                "--split",
                "test",
                "--out",
                str(out),
            ]
        )
        assert len(_read_csv(out)) == 5

    @pytest.mark.parametrize("flag", ["--reg", "--tol"])
    def test_ot_rejects_sinkhorn_flags_for_exact(self, workdir, tmp_path, flag):
        out = tmp_path / "d.csv"
        args = ["ot", "--dataset", str(workdir / "ds.txt"), "--ref", "1", flag, "0.5"]
        with pytest.raises(SystemExit, match=f"{flag} applies only to --method sinkhorn"):
            main(args + ["--out", str(out)])
        with pytest.raises(SystemExit, match=flag):
            main(args + ["--method", "exact", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--reg", "nan"), ("--reg", "0"), ("--reg", "-1"), ("--reg", "inf")]
        + [("--tol", "0"), ("--tol", "nan"), ("--tol", "-1e-9"), ("--tol", "inf")],
    )
    def test_ot_rejects_invalid_sinkhorn_values(self, workdir, tmp_path, flag, value):
        # sinkhorn checks its own options before its first iteration
        out = tmp_path / "sink.csv"
        args = ["ot", "--dataset", str(workdir / "ds.txt"), "--ref", "1", "--method", "sinkhorn"]
        with pytest.raises(SystemExit) as exc:
            main(args + [f"{flag}={value}", "--out", str(out)])
        assert str(exc.value) == f"error: {flag[2:]} must be finite and positive, got {float(value)!r}"
        assert not out.exists()

    def test_ot_sinkhorn_defaults(self, workdir, tmp_path, monkeypatch):
        # the options not given are left to sinkhorn's defaults
        seen = []

        def recording_sinkhorn(mu, nu, **options):
            seen.append(options)
            return ot.sinkhorn(mu, nu, **options)

        monkeypatch.setattr(cli, "sinkhorn", recording_sinkhorn)
        out = tmp_path / "sink.csv"
        args = ["ot", "--dataset", str(workdir / "ds.txt"), "--ref", "1", "--method", "sinkhorn"]
        main(args + ["--split", "test", "--out", str(out)])
        assert seen == [{}] * 5
        ds = read_dataset(workdir / "ds.txt")
        want = [ot.sinkhorn(ds.train[1], mu)[1] for mu in ds.test]
        assert [float(row["wpp"]) for row in _read_csv(out)] == want
        main(args + ["--tol", "1e-6", "--split", "test", "--out", str(out)])
        assert seen[5:] == [{"tol": 1e-6}] * 5

    def test_bank_build_and_eval(self, workdir, tmp_path):
        out = tmp_path / "errors.csv"
        main(
            [
                "bank",
                "eval",
                "--dataset",
                str(workdir / "ds.txt"),
                "--ref",
                "0",
                "--bank",
                str(workdir / "bank.txt"),
                "--targets",
                str(workdir / "test_distances.csv"),
                "--out",
                str(out),
            ]
        )
        rows = _read_csv(out)
        assert list(rows[0].keys()) == ["index", "true_wpp", "G", "rel_err"]
        assert [r["true_wpp"] for r in rows] == [r["wpp"] for r in _read_csv(workdir / "test_distances.csv")]
        for r in rows:
            assert float(r["G"]) <= float(r["true_wpp"]) + 1e-8

    def test_bank_eval_rejects_a_non_finite_potential(self, workdir, tmp_path):
        # a nan in one phi line would otherwise make every row's G nan
        lines = (workdir / "bank.txt").read_text().split("\n")
        lines[2] = " ".join(["nan"] + lines[2].split()[1:])
        bank = tmp_path / "nan_bank.txt"
        bank.write_text("\n".join(lines))
        out = tmp_path / "errors.csv"
        args = ["bank", "eval", "--dataset", str(workdir / "ds.txt"), "--ref", "0"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--bank", str(bank), "--targets", str(workdir / "test_distances.csv"), "--out", str(out)])
        assert str(exc.value) == "error: bank file, line 3: entry 1 of 4: phi must be finite"
        assert not out.exists()

    def test_ot_reference_from_file(self, workdir, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text(" ".join(["0.1111111111111111"] * 9))
        out = tmp_path / "d.csv"
        main(
            [
                "ot",
                "--dataset",
                str(workdir / "ds.txt"),
                "--ref",
                str(ref),
                "--split",
                "test",
                "--out",
                str(out),
            ]
        )
        assert len(_read_csv(out)) == 5

    def test_ot_reference_file_takes_any_whitespace(self, workdir, tmp_path):
        # tabs, newlines and runs of blanks between weights, no final newline
        wpp = []
        for sep in [" ", "\t\n  ", "\r\n"]:
            ref = tmp_path / "ref.txt"
            ref.write_text(sep.join(["0.1111111111111111"] * 9))
            main(["ot", "--dataset", str(workdir / "ds.txt"), "--ref", str(ref), "--out", str(tmp_path / "d.csv")])
            wpp.append([row["wpp"] for row in _read_csv(tmp_path / "d.csv")])
        assert wpp[0] == wpp[1] == wpp[2] and len(wpp[0]) == 12

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5 x", "could not convert string to float: 'x'"),
            ("0.5 0.5", "weight vector length does not match the ground space"),
        ],
        ids=["not-a-number", "short"],
    )
    def test_ot_reference_file_errors_name_the_file(self, workdir, tmp_path, text, message):
        ref = tmp_path / "ref.txt"
        ref.write_text(text)
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ot", "--dataset", str(workdir / "ds.txt"), "--ref", str(ref), "--out", str(out)])
        assert str(exc.value) == f"error: reference file {ref}: {message}"
        assert not out.exists()

    def test_bank_build_cover_indices(self, workdir, tmp_path):
        out = tmp_path / "cover_bank.txt"
        main(
            [
                "bank",
                "build",
                "--dataset",
                str(workdir / "ds.txt"),
                "--ref",
                "0",
                "--indices",
                "cover:1000.0",
                "--out",
                str(out),
            ]
        )
        header = out.read_text().splitlines()[0].split()
        assert header[0] == "1"  # one center covers everything at huge delta

    def test_bank_build_all_indices(self, workdir, tmp_path):
        ds = read_dataset(workdir / "ds.txt")
        out = tmp_path / "all_bank.txt"
        args = ["bank", "build", "--dataset", str(workdir / "ds.txt"), "--ref", "0"]
        main(args + ["--indices", "all", "--out", str(out)])
        bank = read_bank(out, ds.train[0])
        assert [e.source_index for e in bank.entries] == list(range(12))
        want = build_bank(ds, ds.train[0], range(12))
        np.testing.assert_array_equal(eval_G_many(bank, ds.test_matrix), eval_G_many(want, ds.test_matrix))

    def test_ot_split_all_is_train_then_test(self, workdir, tmp_path):
        rows = {}
        for split in ("all", "test"):
            out = tmp_path / f"{split}.csv"
            main(["ot", "--dataset", str(workdir / "ds.txt"), "--ref", "0", "--split", split, "--out", str(out)])
            rows[split] = [r["wpp"] for r in _read_csv(out)]
        train = [r["wpp"] for r in _read_csv(workdir / "distances.csv")]
        assert rows["all"] == train + rows["test"] and len(rows["all"]) == 17

    def test_an_empty_test_split_exits_with_an_error(self, tmp_path):
        ds = tmp_path / "no_test.txt"
        main(["dataset", "make", "--out", str(ds), "--rows", "3", "--cols", "3", "--n-train", "4", "--n-test", "0"])
        bank = str(tmp_path / "bank.txt")
        main(["bank", "build", "--dataset", str(ds), "--ref", "0", "--indices", "all", "--out", bank])
        # ot writes no file for an empty split, so the test targets are
        # its train rows relabelled
        targets = tmp_path / "test_targets.csv"
        main(["ot", "--dataset", str(ds), "--ref", "0", "--out", str(targets)])
        targets.write_text(targets.read_text().replace(",train,", ",test,"))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "speed-table", "dataset": str(ds), "bank_size": 2}))
        for argv, message in [
            (["ot", "--ref", "0", "--split", "test"], "no records to write"),
            (
                ["bank", "eval", "--ref", "0", "--bank", bank, "--targets", str(targets)],
                f"targets file {targets}, line 2: a row beyond the 0 test measures",
            ),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--dataset", str(ds), "--out", str(tmp_path / "out.csv")])
            assert str(exc.value) == f"error: {message}"
        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert str(exc.value) == "error: the speed table needs a nonempty test split"
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out").exists()

    def test_subcover(self, workdir, tmp_path):
        out = tmp_path / "pek.csv"
        main(
            [
                "subcover",
                "--dataset",
                str(workdir / "ds.txt"),
                "--eps",
                "0.3",
                "--k-range",
                "1:4",
                "--trials",
                "300",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        rows = _read_csv(out)
        assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
        closed = [float(r["closed"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(closed, closed[1:]))

    def test_erm_fit(self, workdir, tmp_path):
        out = tmp_path / "fit.json"
        main(
            [
                "erm",
                "fit",
                "--dataset",
                str(workdir / "ds.txt"),
                "--ref",
                "0",
                "--basis",
                f"bank:{workdir / 'bank.txt'}",
                "--targets",
                str(workdir / "distances.csv"),
                "--n",
                "3",
                "--lambda",
                "0.001",
                "--noise",
                "0.01",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        fit = json.loads(out.read_text())
        assert len(fit["coefficients"]) == 3
        assert "condition_check" in fit and "satisfied" in fit["condition_check"]

    def test_erm_fit_features_file(self, workdir, tmp_path):
        # four feature rows, of which --n 3 takes the first three
        F = np.random.default_rng(5).normal(size=(4, 9))
        feats = tmp_path / "feats.txt"
        feats.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in F))
        out = tmp_path / "fit.json"
        args = ["erm", "fit", "--dataset", str(workdir / "ds.txt"), "--ref", "0"]
        args += ["--targets", str(workdir / "distances.csv")]
        main(args + ["--basis", f"features:{feats}", "--n", "3", "--lambda", "0.001", "--out", str(out)])
        ds = read_dataset(workdir / "ds.txt")
        values = experiments.wpp_to_reference(ds.train, ds.train[0])
        ortho = double_orthogonalize(CylinderSubspace(ds.ground, F[:3]), ds.train_matrix)
        want = solve_regularized(ortho, assemble(ortho, ds.train_matrix, values, lam=0.001))
        assert json.loads(out.read_text())["coefficients"] == want.coefficients.tolist()

    def test_maxnet_train_from_bank(self, workdir, tmp_path):
        model = tmp_path / "model.bin"
        trace = tmp_path / "trace.csv"
        main(
            [
                "maxnet",
                "train",
                "--dataset",
                str(workdir / "ds.txt"),
                "--targets",
                str(workdir / "distances.csv"),
                "--init",
                f"bank:{workdir / 'bank.txt'}",
                "--ref",
                "0",
                "--k",
                "2",
                "--epochs",
                "2",
                "--out",
                f"{model},{trace}",
            ]
        )
        net, _ = load_model(model)
        assert net.input_dim == 9
        rows = _read_csv(trace)
        assert len(rows) == 3  # initial record + 2 epochs
        assert list(rows[0]) == ["epoch", "loss", "train_rel_err", "epoch_s"]
        assert [float(r["epoch_s"]) > 0.0 for r in rows] == [False, True, True]

    def test_maxnet_train_random_reg_loss(self, workdir, tmp_path):
        model = tmp_path / "model.bin"
        main(
            [
                "maxnet",
                "train",
                "--dataset",
                str(workdir / "ds.txt"),
                "--targets",
                str(workdir / "distances.csv"),
                "--init",
                "random:5",
                "--k",
                "2",
                "--loss",
                "reg:0.001",
                "--epochs",
                "1",
                "--out",
                str(model),
            ]
        )
        net, _ = load_model(model)
        assert net.layers[0].W.shape == (4, 9)

    def test_maxnet_train_trainable_tree(self, workdir, tmp_path):
        model = tmp_path / "model.bin"
        args = ["maxnet", "train", "--dataset", str(workdir / "ds.txt")]
        args += ["--targets", str(workdir / "distances.csv"), "--init", "random:5", "--k", "2"]
        main(args + ["--epochs", "1", "--trainable-tree", "--out", str(model)])
        net, _ = load_model(model)
        assert len(net.layers) == 4 and all(lay.trainable for lay in net.layers)

    @pytest.mark.parametrize("command", ["maxnet", "adversarial"])
    def test_train_names_the_default_trace_path(self, workdir, tmp_path, capsys, command):
        model = tmp_path / "model.bin"
        args = [
            command,
            "train",
            "--dataset",
            str(workdir / "ds.txt"),
            "--targets",
            str(workdir / "distances.csv"),
            "--k",
            "2",
            "--epochs",
            "1",
            "--out",
            str(model),
        ]
        if command == "maxnet":
            args += ["--init", "random:5"]
        main(args)
        trace = f"{model}.trace.csv"
        assert capsys.readouterr().out.strip() == f"wrote {model} and {trace}"
        assert len(_read_csv(trace)) == 2  # initial record + 1 epoch

    @pytest.mark.parametrize(
        "spec", ["reg:", "reg:x", "reg:0.001:2.0", "reg:-5", "reg:nan", "reg:inf"]
    )
    def test_maxnet_train_rejects_malformed_loss(self, workdir, tmp_path, spec):
        # a malformed spec fails in the parser, a lambda out of range in
        # TrainConfig
        args = [
            "maxnet",
            "train",
            "--dataset",
            str(workdir / "ds.txt"),
            "--targets",
            str(workdir / "distances.csv"),
            "--init",
            "random:5",
            "--k",
            "2",
            "--loss",
            spec,
            "--out",
            str(tmp_path / "model.bin"),
        ]
        message = {
            "reg:-5": "reg_lambda must be finite and nonnegative, got -5.0",
            "reg:nan": "reg_lambda must be finite and nonnegative, got nan",
            "reg:inf": "reg_lambda must be finite and nonnegative, got inf",
        }.get(spec, f"invalid --loss spec {spec!r}: expected mae | reg:<lambda>")
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert str(exc.value) == f"error: {message}"
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["maxnet", "train", "--init", "random:5", "--batch-size", "0"], "batch size"),
            (["adversarial", "train", "--nxi", "0"], "inner step counts"),
            (["adversarial", "train", "--epochs", "-1"], "epochs"),
            (["adversarial", "train", "--batch-size", "-1"], "batch size must be at least 1, got -1"),
            (["adversarial", "train", "--batch-size", "0"], "batch size must be at least 1, got 0"),
            (["subcover", "--eps", "nan"], "eps must be positive, got nan"),
            (["erm", "fit", "--n", "-1"], "--n must be at least 1, got -1"),
            (["erm", "fit", "--n", "0"], "--n must be at least 1, got 0"),
            (["dataset", "make", "--rows", "20", "--cols", "3", "--n-train", "2", "--n-test", "1"], "16x16"),
            (["ot", "--ref", "nofile.txt"], "No such file or directory: 'nofile.txt'"),
            (["ot", "--ref", "0", "--p", "0.5"], "metric order p must be finite and exceed 1, got 0.5"),
            (["ot", "--ref", "0", "--p", "nan"], "metric order p must be finite and exceed 1, got nan"),
            (
                ["dataset", "make", "--rows", "3", "--cols", "3", "--n-train", "2", "--n-test", "1", "--p", "nan"],
                "metric order p must be finite and exceed 1, got nan",
            ),
            (["maxnet", "train", "--init", "random:5", "--k", "-1"], "k must be at least 1"),
            (["maxnet", "train", "--init", "bank", "--k", "-1"], "k must be at least 1"),
            (["adversarial", "train", "--k", "-1"], "k must be at least 1"),
            (["erm", "fit", "--lambda", "-1"], "lambda must be finite and nonnegative, got -1.0"),
            (["erm", "fit", "--lambda", "nan"], "lambda must be finite and nonnegative, got nan"),
            (["ot", "--ref", "0", "--reg", "0.5"], "--reg applies only to --method sinkhorn"),
            (["ot", "--ref", "0", "--method", "sinkhorn", "--tol", "0"], "tol must be finite and positive, got 0.0"),
            (["erm", "fit", "--basis", "weights:w.txt"], "invalid --basis spec 'weights:w.txt'"),
            (["erm", "fit", "--n", "5"], "basis source provides 4 < n=5 features"),
            (["maxnet", "train", "--init", "random:5", "--loss", "l2"], "invalid --loss spec 'l2'"),
            (
                ["maxnet", "train", "--init", "random:5", "--targets", "short"],
                "line 3: the file ends after 1 rows, one per train measure needs 12",
            ),
            (["maxnet", "train", "--init", "zeros"], "invalid --init spec 'zeros'"),
            (["maxnet", "train", "--init", "random:5", "--ref", "0"], "--ref applies only to --init bank:<file>"),
        ],
        ids=[
            "maxnet-batch-size",
            "adversarial-nxi",
            "adversarial-epochs",
            "adversarial-batch-size-negative",
            "adversarial-batch-size-zero",
            "subcover-eps-nan",
            "erm-n-negative",
            "erm-n-zero",
            "dataset-rows",
            "ot-ref-file",
            "ot-p-half",
            "ot-p-nan",
            "dataset-p-nan",
            "maxnet-random-k",
            "maxnet-bank-k",
            "adversarial-k",
            "erm-lambda-negative",
            "erm-lambda-nan",
            "ot-reg-for-exact",
            "ot-tol-zero",
            "erm-basis-spec",
            "erm-basis-too-short",
            "maxnet-loss-spec",
            "maxnet-targets-too-short",
            "maxnet-init-spec",
            "maxnet-ref-with-random-init",
        ],
    )
    def test_invalid_inputs_exit_with_an_error(self, workdir, tmp_path, args, message):
        out = tmp_path / "out"
        short = tmp_path / "short.csv"
        short.write_text("".join((workdir / "distances.csv").read_text().splitlines(keepends=True)[:2]))
        files = {"bank": f"bank:{workdir / 'bank.txt'}", "short": str(short)}
        args = [files.get(a, a) for a in args]
        inputs = ["--dataset", str(workdir / "ds.txt")]

        def default(flag, *value):
            return [] if flag in args else [flag, *value]

        if args[0] in ("maxnet", "adversarial"):
            inputs += default("--targets", str(workdir / "distances.csv")) + default("--k", "2")
        if args[0] == "erm":
            inputs += default("--ref", "0") + default("--basis", files["bank"])
            inputs += default("--targets", str(workdir / "distances.csv"))
            inputs += default("--n", "2")
        if args[0] == "dataset":
            inputs = []
        with pytest.raises(SystemExit) as exc:
            main(args + inputs + ["--out", str(out)])
        assert str(exc.value).startswith("error: ") and message in str(exc.value)
        assert not out.exists()

    @pytest.mark.parametrize(
        "basis, message",
        [
            ("weights:w.txt", "invalid --basis spec 'weights:w.txt': expected bank:<file> | features:<file>"),
            ("features:nofile.txt", "[Errno 2] No such file or directory: 'nofile.txt'"),
            ("bank", "basis source provides 4 < n=5 features"),
        ],
        ids=["unknown", "no-file", "too-short"],
    )
    def test_erm_fit_checks_the_basis_before_any_solve(self, workdir, tmp_path, monkeypatch, basis, message):
        # erm fit solves nothing: the basis is checked before the targets are read
        calls = []
        monkeypatch.setattr(cli, "read_targets", lambda *args: calls.append(args))
        basis = {"bank": f"bank:{workdir / 'bank.txt'}"}.get(basis, basis)
        args = ["erm", "fit", "--dataset", str(workdir / "ds.txt"), "--ref", "0", "--targets", "t"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--basis", basis, "--n", "5", "--out", str(tmp_path / "fit.json")])
        assert str(exc.value) == f"error: {message}" and calls == []

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lambda", "-1", "--lambda must be finite and nonnegative, got -1.0"),
            ("--lambda", "inf", "--lambda must be finite and nonnegative, got inf"),
            ("--noise", "-1", "--noise must be finite and nonnegative, got -1.0"),
            ("--noise", "nan", "--noise must be finite and nonnegative, got nan"),
            ("--r", "nan", "--r must be finite and positive, got nan"),
            ("--r", "inf", "--r must be finite and positive, got inf"),
            ("--r", "0", "--r must be finite and positive, got 0.0"),
            ("--r", "-5", "--r must be finite and positive, got -5.0"),
        ],
        ids=["lambda-negative", "lambda-inf", "noise-negative", "noise-nan", "r-nan", "r-inf", "r-zero", "r-negative"],
    )
    def test_erm_fit_checks_lambda_and_noise_before_any_solve(self, workdir, tmp_path, monkeypatch, flag, value, message):
        calls = []
        monkeypatch.setattr(cli, "read_targets", lambda *args: calls.append(args))
        args = ["erm", "fit", "--dataset", str(workdir / "ds.txt"), "--ref", "0", "--targets", "t"]
        args += ["--basis", f"bank:{workdir / 'bank.txt'}", "--n", "2", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "fit.json")])
        assert str(exc.value) == f"error: {message}" and calls == []

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--init", "zeros"], "invalid --init spec 'zeros': expected bank:<file> | random[:<seed>]"),
            (["--init", "random:abc"], "invalid --init spec 'random:abc': expected bank:<file> | random[:<seed>]"),
            (["--init", "random:-1"], "invalid --init spec 'random:-1': expected"),
            (["--init", "random:5", "--ref", "0"], "--ref applies only to --init bank:<file>"),
            (["--init", "random:5", "--loss", "l2"], "invalid --loss spec 'l2': expected mae | reg:<lambda>"),
        ],
        ids=["init-spec", "init-seed", "init-seed-negative", "ref-with-random-init", "loss-spec"],
    )
    def test_maxnet_train_checks_its_specs_before_reading(self, workdir, tmp_path, monkeypatch, extra, message):
        calls = []
        monkeypatch.setattr(cli, "read_dataset", lambda path: calls.append(path))
        args = ["maxnet", "train", "--dataset", str(workdir / "ds.txt")]
        args += ["--targets", str(workdir / "distances.csv"), "--k", "2"]
        with pytest.raises(SystemExit) as exc:
            main(args + extra + ["--out", str(tmp_path / "m.bin")])
        assert str(exc.value).startswith(f"error: {message}") and calls == []

    @pytest.mark.parametrize(
        "args",
        [
            ["dataset", "make", "--rows", "3", "--cols", "3", "--n-train", "2", "--n-test", "1"],
            ["subcover", "--dataset", "ds", "--eps", "0.3"],
            ["erm", "fit", "--dataset", "ds", "--ref", "0", "--basis", "bank", "--targets", "t"],
            ["maxnet", "train", "--dataset", "ds", "--targets", "t", "--init", "random:5", "--k", "2"],
            ["adversarial", "train", "--dataset", "ds", "--targets", "t"],
        ],
        ids=["dataset-make", "subcover", "erm-fit", "maxnet-train", "adversarial-train"],
    )
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_every_seed_flag_takes_only_a_nonnegative_integer(self, tmp_path, monkeypatch, capsys, args, seed):
        calls = []
        monkeypatch.setattr(cli, "read_dataset", lambda path: calls.append(path))
        monkeypatch.setattr(cli, "make_synthetic_dataset", lambda **kw: calls.append(kw))
        with pytest.raises(SystemExit) as exc:
            main(args + ["--seed", seed, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2 and calls == []
        assert f"argument --seed: expected a nonnegative integer, got '{seed}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epochs", "-1", "epochs and learning rates must be positive and finite"),
            ("--lr", "nan", "epochs and learning rates must be positive and finite"),
            ("--batch-size", "0", "batch size must be at least 1, got 0"),
        ],
        ids=["epochs", "lr", "batch-size"],
    )
    def test_adversarial_train_checks_its_config_before_reading(self, tmp_path, monkeypatch, flag, value, message):
        calls = []
        monkeypatch.setattr(cli, "read_dataset", lambda path: calls.append(path))
        args = ["adversarial", "train", "--dataset", "ds", "--targets", "t", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "out")])
        assert str(exc.value) == f"error: {message}" and calls == []

    @pytest.mark.parametrize("ref", ["12", "99", "-1"])
    @pytest.mark.parametrize("command", ["ot", "bank-build", "exp-run"])
    def test_reference_index_outside_the_train_split(self, workdir, tmp_path, command, ref):
        ds = str(workdir / "ds.txt")  # 12 train measures
        out = tmp_path / "out"
        if command == "ot":
            args = ["ot", "--dataset", ds, "--ref", ref, "--out", str(out)]
        elif command == "bank-build":
            args = ["bank", "build", "--dataset", ds, "--ref", ref]
            args += ["--indices", "random:2:1", "--out", str(out)]
        else:
            cfg = tmp_path / "exp.json"
            config = {"experiment": "baseline-decay", "dataset": ds, "ref": int(ref)}
            config["targets"] = str(workdir / "test_distances.csv")
            cfg.write_text(json.dumps(dict(config, schedule=[2], seeds=[0])))
            args = ["exp", "run", "--config", str(cfg), "--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert str(exc.value) == f"error: reference index {ref} is outside the train indices 0 .. 11"
        assert not out.is_file() and not list(tmp_path.glob("out/*"))

    @pytest.mark.parametrize("command, ref", [("erm-fit", ""), ("exp-run", 1.7), ("exp-run", True)])
    def test_reference_neither_index_nor_path(self, workdir, tmp_path, command, ref):
        ds = str(workdir / "ds.txt")
        out = tmp_path / "out"
        if command == "erm-fit":
            args = ["erm", "fit", "--dataset", ds, "--ref", ref, "--targets", str(workdir / "distances.csv")]
            args += ["--basis", f"bank:{workdir / 'bank.txt'}", "--n", "3", "--out", str(out)]
        else:
            cfg = tmp_path / "exp.json"
            config = {"experiment": "baseline-decay", "dataset": ds, "ref": ref}
            config["targets"] = str(workdir / "test_distances.csv")
            cfg.write_text(json.dumps(dict(config, schedule=[2], seeds=[0])))
            args = ["exp", "run", "--config", str(cfg), "--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert str(exc.value) == f"error: reference {ref!r} is neither a train index nor a file path"
        assert not out.is_file() and not list(tmp_path.glob("out/*"))

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cover:nan", "delta must be positive, got nan"),
            ("random:0", "a random index set needs j >= 1, got j=0"),
            ("random:-1", "a random index set needs j >= 1, got j=-1"),
            ("random:13", "a random index set of j=13 exceeds the 12 train measures"),
            ("random:x", _BAD_INDEX_SPEC.format("random:x")),
            ("random:2:y", _BAD_INDEX_SPEC.format("random:2:y")),
            ("random:2:-1", _BAD_INDEX_SPEC.format("random:2:-1")),
            ("cover:abc", _BAD_INDEX_SPEC.format("cover:abc")),
            ("some:3", _BAD_INDEX_SPEC.format("some:3")),
        ],
        ids=[
            "cover-nan",
            "random-0",
            "random-negative",
            "random-above-train",
            "random-x",
            "random-seed-y",
            "random-seed-negative",
            "cover-abc",
            "unknown",
        ],
    )
    def test_bank_build_rejects_a_bad_index_spec(self, workdir, tmp_path, spec, message):
        out = tmp_path / "bank.txt"
        args = ["bank", "build", "--dataset", str(workdir / "ds.txt"), "--ref", "0"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--indices", spec, "--out", str(out)])
        assert str(exc.value) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("5", "invalid --k-range spec '5': expected <lo>:<hi>"),
            ("1:x", "invalid --k-range spec '1:x': expected <lo>:<hi>"),
            ("1:2:3", "invalid --k-range spec '1:2:3': expected <lo>:<hi>"),
            ("5:1", "--k-range needs 0 <= lo <= hi, got 5:1"),
            ("-1:3", "--k-range needs 0 <= lo <= hi, got -1:3"),
        ],
        ids=["no-colon", "non-integer", "three-fields", "lo-above-hi", "lo-negative"],
    )
    def test_subcover_rejects_a_malformed_k_range(self, workdir, tmp_path, spec, message):
        out = tmp_path / "pek.csv"
        args = ["subcover", "--dataset", str(workdir / "ds.txt"), "--eps", "0.3"]
        with pytest.raises(SystemExit) as exc:
            main(args + [f"--k-range={spec}", "--out", str(out)])
        assert str(exc.value) == f"error: {message}"
        assert not out.exists()

    def test_subcover_help_names_the_form_for_a_negative_bound(self, workdir, tmp_path, capsys):
        # after a space argparse takes "-1:3" for an option; joined by "=",
        # as the help says, it reaches the range check (the lo-negative row
        # above)
        args = ["subcover", "--dataset", str(workdir / "ds.txt"), "--eps", "0.3"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--k-range", "-1:3", "--out", str(tmp_path / "pek.csv")])
        assert exc.value.code == 2 and "--k-range: expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["subcover", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "a bound starting with - needs the form --k-range=<lo>:<hi>" in help_text

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_subcover_checks_trials_before_any_solve(self, workdir, tmp_path, monkeypatch, trials):
        solves = []
        solve = ot.solve_transport_lp
        monkeypatch.setattr(ot, "solve_transport_lp", lambda *a, **kw: solves.append(a) or solve(*a, **kw))
        out = tmp_path / "pek.csv"
        args = ["subcover", "--dataset", str(workdir / "ds.txt"), "--eps", "0.3"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--trials", trials, "--out", str(out)])
        assert str(exc.value) == f"error: --trials must be at least 1, got {trials}"
        assert len(solves) == 0 and not out.exists()

    def test_multi_output_model_file_exits_with_an_error(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        with open(path, "wb") as fh:
            np.savez(
                fh,
                n_layers=np.array(1),
                config_hash=np.array(""),
                W0=np.eye(2),
                b0=np.zeros(2),
                meta0=np.array([0, 1], dtype=np.int8),
            )
        # no subcommand reads a model file, so one is routed through main
        monkeypatch.setattr(cli, "_cmd_ot", lambda args: load_model(path))
        with pytest.raises(SystemExit) as exc:
            main(["ot", "--dataset", "unused", "--ref", "0", "--out", "unused"])
        assert str(exc.value) == "error: the last layer must have width 1, got 2"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("index,runtime_ns,method,split,ref_hash\n0,5,exact,train,h\n", "line 1: the header has no 'wpp' column"),
            ("0,0.5\n1,abc\n", "line 3: wpp 'abc' is not a finite number"),
            ("0,nan\n1,0.5\n", "line 2: wpp 'nan' is not a finite number"),
            ("0,0.5\n1,-inf\n", "line 3: wpp '-inf' is not a finite number"),
        ],
        ids=["no-wpp-column", "unparsable-value", "nan-value", "inf-value"],
    )
    def test_malformed_targets_file(self, workdir, tmp_path, text, message):
        # rows given as "index,wpp" get the rest of a train row of ot
        if not text.startswith("index"):
            rows = text.splitlines()
            text = _TARGETS_HEADER + "".join(f"{row},1,exact,train,h\n" for row in rows)
        targets = tmp_path / "targets.csv"
        targets.write_text(text)
        args = ["maxnet", "train", "--dataset", str(workdir / "ds.txt"), "--targets", str(targets)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--init", "random:5", "--k", "2", "--out", str(tmp_path / "m.bin")])
        assert str(exc.value) == f"error: targets file {targets}, {message}"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("test-split", "line 2: split 'test' where 'train' belongs"),
            (list(range(13)), "line 14: a row beyond the 12 train measures"),
            ([0, 1, 1, 2], "line 4: index '1' where 2 belongs"),
            ([0, 2, 3], "line 3: index '2' where 1 belongs"),
            ([1, 0], "line 2: index '1' where 0 belongs"),
            ("no-index", "line 1: the header has no 'index' column"),
        ],
        ids=["test-split", "longer", "duplicate", "missing", "out-of-order", "no-index-column"],
    )
    @pytest.mark.parametrize("command", ["maxnet", "adversarial"])
    def test_targets_file_holds_one_row_per_train_measure(self, workdir, tmp_path, command, rows, message):
        targets = tmp_path / "targets.csv"
        if rows == "test-split":
            targets = workdir / "test_distances.csv"
        elif rows == "no-index":
            targets.write_text(_TARGETS_HEADER.replace("index,", "") + "0.5,1,exact,train,h\n" * 12)
        else:
            targets.write_text(_TARGETS_HEADER + "".join(f"{i},0.5,1,exact,train,h\n" for i in rows))
        args = [command, "train", "--dataset", str(workdir / "ds.txt"), "--targets", str(targets)]
        args += ["--init", "random:5"] if command == "maxnet" else []
        with pytest.raises(SystemExit) as exc:
            main(args + ["--k", "2", "--out", str(tmp_path / "m.bin")])
        assert str(exc.value) == f"error: targets file {targets}, {message}"
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize(
        "command, case",
        [
            (command, case)
            for command in ("bank-eval", "erm", "maxnet", "adversarial")
            for case in _MISMATCHES
            # bank eval evaluates the split its file names; adversarial
            # train has no reference to check
            if not (command == "bank-eval" and "split" in case)
            and not (command == "adversarial" and case == "other-reference")
        ],
    )
    def test_targets_file_must_match_its_consumer(self, workdir, mismatch_sources, tmp_path, command, case):
        flags, edit, message = _MISMATCHES[case]
        lines = mismatch_sources[tuple(flags)].read_text().splitlines(keepends=True)
        targets = tmp_path / "targets.csv"
        targets.write_text("".join(edit(lines) if edit else lines))
        bank = str(workdir / "bank.txt")
        args = {
            "bank-eval": ["bank", "eval", "--ref", "0", "--bank", bank],
            "erm": ["erm", "fit", "--ref", "0", "--basis", f"bank:{bank}", "--n", "2"],
            "maxnet": ["maxnet", "train", "--init", f"bank:{bank}", "--ref", "0", "--k", "2"],
            "adversarial": ["adversarial", "train", "--k", "2"],
        }[command]
        args += ["--dataset", str(workdir / "ds.txt"), "--targets", str(targets)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "out")])
        ds = read_dataset(workdir / "ds.txt")
        hashes = {"h0": reference_hash(ds.train[0]), "h3": reference_hash(ds.train[3])}
        assert str(exc.value) == f"error: targets file {targets}, {message.format(**hashes)}"
        assert [path.name for path in tmp_path.iterdir()] == ["targets.csv"]

    def test_random_init_learns_the_reference_its_targets_hold(self, workdir, mismatch_sources, tmp_path):
        # only a bank init has a reference to check the file against
        model = tmp_path / "m.bin"
        args = ["maxnet", "train", "--dataset", str(workdir / "ds.txt"), "--init", "random:5", "--k", "2"]
        main(args + ["--targets", str(mismatch_sources[("--ref", "3")]), "--epochs", "1", "--out", str(model)])
        assert model.exists()

    def test_a_pipeline_solves_each_target_and_anchor_once(self, workdir, tmp_path, caplog):
        # ot's files are the only source of true values: bank eval, erm fit
        # and maxnet train read them and solve nothing
        ds, n_train, n_test, bank_size = str(workdir / "ds.txt"), 12, 5, 4
        train, test, bank, fit, model = (
            str(tmp_path / name) for name in ("train.csv", "test.csv", "bank.txt", "fit.json", "m.bin")
        )
        common = ["--dataset", ds, "--ref", "0"]
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        for command, flags in [
            (["ot"], ["--split", "train", "--out", train]),
            (["ot"], ["--split", "test", "--out", test]),
            (["bank", "build"], ["--indices", f"random:{bank_size}:1", "--out", bank]),
            (["bank", "eval"], ["--bank", bank, "--targets", test, "--out", str(tmp_path / "errors.csv")]),
            (["erm", "fit"], ["--basis", f"bank:{bank}", "--targets", train, "--n", "3", "--out", fit]),
            (["maxnet", "train"], ["--init", f"bank:{bank}", "--targets", train, "--k", "2", "--epochs", "1", "--out", model]),
        ]:
            main(command + common + flags)
        assert len(read_bank(bank, read_dataset(ds).train[0])) == bank_size
        solves = [r for r in caplog.records if hasattr(r, "lp_form")]
        assert len(solves) == n_train + n_test + bank_size

    @pytest.mark.parametrize(
        "command, flag, spec",
        [
            (["bank", "build", "--ref", "0"], "indices", "random:4:"),
            (["erm", "fit", "--ref", "0", "--targets", "t"], "basis", "bank"),
            (["maxnet", "train", "--targets", "t", "--k", "2", "--init", "random:5"], "loss", "reg:0.1:2"),
            (["maxnet", "train", "--targets", "t", "--k", "2"], "init", "random:"),
            (["subcover", "--eps", "0.3"], "k-range", "1-64"),
        ],
        ids=["indices", "basis", "loss", "init", "k-range"],
    )
    def test_every_spec_flag_names_its_forms_before_reading(self, tmp_path, monkeypatch, command, flag, spec):
        calls = []
        monkeypatch.setattr(cli, "read_dataset", lambda path: calls.append(path))
        args = command + ["--dataset", "ds", f"--{flag}", spec, "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert str(exc.value) == f"error: invalid --{flag} spec {spec!r}: expected {cli._SPECS[flag]}"
        assert calls == []

    @pytest.mark.parametrize(
        "flag, text, fields",
        [
            ("indices", "random:4", ("random", 4, None)),
            ("indices", "random:4:7", ("random", 4, 7)),
            ("indices", "cover:0.5", ("cover", 0.5)),
            ("indices", "all", ("all",)),
            ("basis", "bank:C:/banks/a:b.txt", ("bank", "C:/banks/a:b.txt")),
            ("basis", "features:f.txt", ("features", "f.txt")),
            ("loss", "mae", ("mae",)),
            ("loss", "reg:-1", ("reg", -1.0)),
            ("init", "random", ("random", None)),
            ("init", "random:3", ("random", 3)),
            ("init", "bank:x:y", ("bank", "x:y")),
            ("k-range", "1:64", ("", 1, 64)),
        ],
    )
    def test_spec_fields(self, flag, text, fields):
        # a <file> keeps its colons; ranges are left to the library
        assert cli._spec(flag, text) == fields

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 " * 9 + "\n\n0 0 0\n", "features file, line 3: 3 entries, the ground has 9 points"),
            ("1 " * 9 + "\n" + "1 " * 8 + "x\n", "features file, line 2: could not convert string to float: 'x'"),
            ("1 " * 9 + "\n" + "1 " * 8 + "nan\n", "features file, line 2: entries must be finite"),
            ("1 " * 8 + "-inf\n" + "1 " * 9 + "\n", "features file, line 1: entries must be finite"),
        ],
        ids=["wrong-width", "non-numeric", "nan-entry", "inf-entry"],
    )
    def test_malformed_features_file(self, workdir, tmp_path, text, message):
        feats = tmp_path / "feats.txt"
        feats.write_text(text)
        args = ["erm", "fit", "--dataset", str(workdir / "ds.txt"), "--ref", "0"]
        args += ["--targets", str(workdir / "distances.csv")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--basis", f"features:{feats}", "--n", "2", "--out", str(tmp_path / "f.json")])
        assert str(exc.value) == f"error: {message}"

    def test_zero_target_relative_error_is_undefined(self, workdir, tmp_path):
        # one function, re-exported by experiments, for every entry point
        assert experiments.relative_errors is measures.relative_errors
        errs = measures.relative_errors([0.0, 0.0, 2.0], [0.0, 0.5, 1.0])
        assert np.isnan(errs[:2]).all() and errs[2] == 0.5
        assert mean_relative_error([0.3, 1.0], [0.0, 2.0]) == 0.5

        ds = read_dataset(workdir / "ds.txt")
        split, true_wpp = experiments.read_targets(workdir / "distances.csv", ds, "train", ds.train[0])
        assert true_wpp[0] == 0.0
        records = experiments.run_baseline_decay(ds, ds.train[0], [4], [0], split, true_wpp)
        assert np.isfinite(records[0]["mean_rel_err"])
        assert np.isfinite(records[0]["max_rel_err"])

        out = tmp_path / "train_errors.csv"
        main(
            [
                "bank",
                "eval",
                "--dataset",
                str(workdir / "ds.txt"),
                "--ref",
                "0",
                "--bank",
                str(workdir / "bank.txt"),
                "--targets",
                str(workdir / "distances.csv"),
                "--out",
                str(out),
            ]
        )
        rows = _read_csv(out)
        assert float(rows[0]["true_wpp"]) == 0.0 and np.isnan(float(rows[0]["rel_err"]))
        assert all(np.isfinite(float(r["rel_err"])) for r in rows[1:])

    def test_adversarial_train(self, workdir, tmp_path):
        model = tmp_path / "adv.bin"
        trace = tmp_path / "adv_trace.csv"
        main(
            [
                "adversarial",
                "train",
                "--dataset",
                str(workdir / "ds.txt"),
                "--targets",
                str(workdir / "distances.csv"),
                "--lambda",
                "0.001",
                "--nxi",
                "2",
                "--ntheta",
                "1",
                "--norm",
                "h12",
                "--k",
                "2",
                "--epochs",
                "2",
                "--seed",
                "5",
                "--out",
                f"{model},{trace}",
            ]
        )
        rows = _read_csv(trace)
        assert len(rows) == 3
        assert "solution_loss" in rows[0]
        assert list(rows[0])[-1] == "epoch_s"
        assert [float(r["epoch_s"]) > 0.0 for r in rows] == [False, True, True]

    def test_exp_run(self, workdir, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "baseline-decay",
                    "dataset": str(workdir / "ds.txt"),
                    "targets": str(workdir / "test_distances.csv"),
                    "ref": 0,
                    "schedule": [2, 4],
                    "seeds": [0, 1],
                }
            )
        )
        main(["exp", "run", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert (tmp_path / "trace.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]

    def test_exp_run_rejects_an_unknown_split(self, workdir, tmp_path):
        # baseline-decay evaluates the split its targets file names
        targets = tmp_path / "targets.csv"
        lines = (workdir / "test_distances.csv").read_text().splitlines(keepends=True)
        targets.write_text("".join([lines[0]] + [line.replace(",test,", ",tset,") for line in lines[1:]]))
        cfg = tmp_path / "exp.json"
        config = {"experiment": "baseline-decay", "dataset": str(workdir / "ds.txt"), "targets": str(targets)}
        cfg.write_text(json.dumps(dict(config, schedule=[2], seeds=[0])))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--config", str(cfg), "--out-dir", str(out)])
        message = f"targets file {targets}, line 2: split: unknown split 'tset': expected train | test | all"
        assert str(exc.value) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["no-targets", "other-reference", "sinkhorn"])
    def test_exp_run_baseline_decay_reads_matching_targets_before_any_solve(
        self, workdir, mismatch_sources, tmp_path, caplog, case
    ):
        config = {"experiment": "baseline-decay", "dataset": str(workdir / "ds.txt"), "schedule": [2]}
        if case == "no-targets":
            message = "experiment 'baseline-decay' needs the key 'targets'"
        else:
            flags, _, message = _MISMATCHES[case]
            config["targets"] = str(mismatch_sources[tuple(flags)])
            ds = read_dataset(workdir / "ds.txt")
            hashes = {"h0": reference_hash(ds.train[0]), "h3": reference_hash(ds.train[3])}
            message = f"targets file {config['targets']}, {message.format(**hashes)}"
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert str(exc.value) == f"error: {message}"
        assert not [r for r in caplog.records if hasattr(r, "lp_form")]
        assert not (tmp_path / "out").exists()

    # Each row names its own id, so that a row comes or goes without
    # renaming another; these rows keep the ids their positions gave them.
    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param({"experiment": "baseline-decay", "seeds": []}, "seeds must not be empty", id="config0-seeds must not be empty"),
            pytest.param({"experiment": "baseline-decay", "schedule": []}, "schedule must not be empty", id="config1-schedule must not be empty"),
            pytest.param({"experiment": "make-dataset", "rows": 3, "cols": 3, "n_train": 4, "n_test": 2}, "unknown experiment 'make-dataset'", id="config2-unknown experiment 'make-dataset'"),
            pytest.param({"experiment": "baseline-decay", "seeds": [0, -1]}, "each of seeds must be an integer of at least 0, got -1", id="config3-each of seeds must be an integer of at least 0, got -1"),
            pytest.param({"experiment": "baseline-decay", "seeds": [1.5]}, "each of seeds must be an integer of at least 0, got 1.5", id="config4-each of seeds must be an integer of at least 0, got 1.5"),
            pytest.param({"experiment": "baseline-decay", "seeds": [False]}, "each of seeds must be an integer of at least 0, got False", id="config5-each of seeds must be an integer of at least 0, got False"),
            pytest.param({"experiment": "baseline-decay", "seeds": 3}, "seeds must be a list, got 3", id="config6-seeds must be a list, got 3"),
            pytest.param({"experiment": "baseline-decay", "schedule": 4}, "schedule must be a list, got 4", id="config7-schedule must be a list, got 4"),
            pytest.param({"experiment": "baseline-decay", "targets": None}, "experiment 'baseline-decay' needs the key 'targets'", id="config8-experiment 'baseline-decay' needs the key 'targets'"),
            pytest.param({"experiment": "baseline-decay", "split": "test"}, "experiment 'baseline-decay' takes no key 'split'", id="config9-experiment 'baseline-decay' takes no key 'split'"),
            pytest.param({"experiment": "baseline-decay", "schedule": [1.7, 3]}, "each of schedule must be an integer of at least 1, got 1.7", id="config10-each of schedule must be an integer of at least 1, got 1.7"),
            pytest.param({"experiment": "baseline-decay", "schedule": [None]}, "each of schedule must be an integer of at least 1, got None", id="config11-each of schedule must be an integer of at least 1, got None"),
            pytest.param({"experiment": "speed-table", "seed": 0}, "experiment 'speed-table' takes no key 'seed'", id="config12-experiment 'speed-table' takes no key 'seed'"),
            pytest.param({"experiment": "speed-table", "bank_size": 2.7}, "bank_size must be an integer, got 2.7", id="config13-bank_size must be an integer, got 2.7"),
            pytest.param({"experiment": "speed-table", "bank_size": "x"}, "bank_size must be an integer, got 'x'", id="config14-bank_size must be an integer, got 'x'"),
            pytest.param([], "an experiment config must be a JSON object, got list", id="config15-an experiment config must be a JSON object, got list"),
            pytest.param({}, "the config names no 'experiment'", id="config16-the config names no 'experiment'"),
            pytest.param({"experiment": ["make-dataset"]}, "unknown experiment ['make-dataset']", id="config17-unknown experiment ['make-dataset']"),
            pytest.param({"experiment": "baseline-decay", "targets": 0}, "targets must be a path string, got 0", id="config18-targets must be a path string, got 0"),
            pytest.param({"experiment": "baseline-decay", "dataset": None}, "experiment 'baseline-decay' needs the key 'dataset'", id="config19-experiment 'baseline-decay' needs the key 'dataset'"),
            pytest.param({"experiment": "baseline-decay", "schedule": None}, "experiment 'baseline-decay' needs the key 'schedule'", id="config20-experiment 'baseline-decay' needs the key 'schedule'"),
            pytest.param({"experiment": "speed-table", "dataset": None}, "experiment 'speed-table' needs the key 'dataset'", id="config21-experiment 'speed-table' needs the key 'dataset'"),
            pytest.param({"experiment": "speed-table", "reg": 0.0}, "reg must be a finite positive number, got 0.0", id="config22-reg must be a finite positive number, got 0.0"),
            pytest.param({"experiment": "speed-table", "reg": -1}, "reg must be a finite positive number, got -1", id="config23-reg must be a finite positive number, got -1"),
            pytest.param({"experiment": "speed-table", "reg": float("nan")}, "reg must be a finite positive number, got nan", id="config24-reg must be a finite positive number, got nan"),
            pytest.param({"experiment": "speed-table", "reg": "0.1"}, "reg must be a finite positive number, got '0.1'", id="config25-reg must be a finite positive number, got '0.1'"),
            pytest.param({"experiment": "speed-table", "reg": True}, "reg must be a finite positive number, got True", id="config26-reg must be a finite positive number, got True"),
            # a key no experiment parameter names: a misspelt one is not dropped
            pytest.param({"experiment": "baseline-decay", "seed": 5}, "experiment 'baseline-decay' takes no key 'seed'", id="config27-experiment 'baseline-decay' takes no key 'seed'"),
            pytest.param({"experiment": "speed-table", "bank_szie": 2}, "experiment 'speed-table' takes no key 'bank_szie'", id="config28-experiment 'speed-table' takes no key 'bank_szie'"),
            pytest.param({"experiment": "baseline-decay", "targets": ""}, "targets must be a path string, got ''", id="config29-targets must be a path string, got ''"),
            # a path that is not a string: 0 would open standard input
            pytest.param({"experiment": "baseline-decay", "dataset": 0}, "dataset must be a path string, got 0", id="config30-dataset must be a path string, got 0"),
            pytest.param({"experiment": "speed-table", "dataset": 0}, "dataset must be a path string, got 0", id="config31-dataset must be a path string, got 0"),
            pytest.param({"experiment": "baseline-decay", "schedule": [0]}, "each of schedule must be an integer of at least 1, got 0", id="config32-each of schedule must be an integer of at least 1, got 0"),
            pytest.param({"experiment": "baseline-decay", "schedule": [3, 2]}, "schedule must be strictly increasing", id="config33-schedule must be strictly increasing"),
            pytest.param({"experiment": "speed-table", "bank_size": True}, "bank_size must be an integer, got True", id="config34-bank_size must be an integer, got True"),
        ],
    )
    def test_exp_run_rejects_a_config_before_any_directory(self, workdir, tmp_path, config, message):
        # each row is a valid config of its experiment with one key changed;
        # a key set to None is left out
        if isinstance(config, dict) and isinstance(config.get("experiment"), str):
            valid = {
                "baseline-decay": {
                    "dataset": str(workdir / "ds.txt"),
                    "targets": str(workdir / "test_distances.csv"),
                    "schedule": [2],
                    "seeds": [0],
                },
                "speed-table": {"dataset": str(workdir / "ds.txt"), "bank_size": 2},
            }.get(config["experiment"], {})
            config = {k: v for k, v in dict(valid, **config).items() if v is not None}
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--config", str(cfg), "--out-dir", str(out)])
        assert str(exc.value) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("bank_size", [0, -2, 13])
    def test_exp_run_speed_table_rejects_a_bank_size_off_the_train_split(self, workdir, tmp_path, bank_size):
        # the workdir dataset has 12 train measures
        assert len(read_dataset(workdir / "ds.txt").train) == 12
        cfg = tmp_path / "exp.json"
        config = {"experiment": "speed-table", "dataset": str(workdir / "ds.txt")}
        cfg.write_text(json.dumps(dict(config, bank_size=bank_size)))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--config", str(cfg), "--out-dir", str(out)])
        assert str(exc.value) == f"error: bank_size {bank_size} must lie between 1 and the 12 train measures"
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_test, reg, message",
        [
            (0, 0.1, "the speed table needs a nonempty test split"),
            (2, 0.0, "reg must be a finite positive number, got 0.0"),
        ],
    )
    def test_exp_run_speed_table_fails_before_any_solve(self, tmp_path, caplog, n_test, reg, message):
        ds = tmp_path / "ds.txt"
        experiments.make_synthetic_dataset(3, 3, n_train=6, n_test=n_test, seed=3, path=ds)
        cfg = tmp_path / "exp.json"
        config = {"experiment": "speed-table", "dataset": str(ds), "bank_size": 6, "reg": reg}
        cfg.write_text(json.dumps(config))
        caplog.set_level(logging.DEBUG, logger="wdlearn.ot")
        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert str(exc.value) == f"error: {message}"
        assert not [r for r in caplog.records if hasattr(r, "lp_form")]
        assert not (tmp_path / "out").exists()

    def test_exp_run_speed_table_pads_a_short_bank(self, tmp_path, monkeypatch):
        # on these blobs against the uniform reference, G of one Dirac lies
        # below b.min() - 1, so a pad row with that bias would win there
        ds = tmp_path / "blobs.txt"
        experiments.make_synthetic_dataset(
            3, 3, n_train=4, n_test=2, generator="blurred-blobs", seed=1, path=ds
        )
        ref = tmp_path / "uniform.txt"
        ref.write_text(" ".join([repr(1 / 9)] * 9))
        forwards, run_speed_table = [], experiments.run_speed_table

        def spy(dataset, theta, forward, **kwargs):
            forwards.append(forward)
            return run_speed_table(dataset, theta, forward, **kwargs)

        monkeypatch.setattr(experiments, "run_speed_table", spy)
        cfg = tmp_path / "exp.json"
        config = {"experiment": "speed-table", "dataset": str(ds), "ref": str(ref)}
        cfg.write_text(json.dumps(dict(config, bank_size=3)))
        main(["exp", "run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        # the table draws nothing, so its manifest records no seed
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seeds"] == []

        rows = _read_csv(tmp_path / "out" / "trace.csv")
        assert list(rows[0]) == ["n_eval", "forward", "exact", "sinkhorn", "forward_ns_per_element"]
        dataset = read_dataset(ds)
        bank = build_bank(dataset, experiments._resolve_reference(dataset, str(ref)), range(3))
        diracs = np.eye(9)
        g = eval_G_many(bank, diracs)
        assert (g < export_affine(bank)[1].min() - 1.0).any()
        (forward,) = forwards
        np.testing.assert_allclose(forward(diracs), g, rtol=1e-12, atol=1e-12)
