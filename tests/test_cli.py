import csv
import json
import re

import numpy as np
import pytest

from wdlearn import cli, experiments, measures
from wdlearn.bank import build_bank, eval_G_many, export_affine
from wdlearn.cli import main
from wdlearn.measures import DiscreteMeasure, GroundSpace, read_dataset
from wdlearn.nets import load_model, mean_relative_error
from wdlearn.ot import exact_ot


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset plus distances and a bank, produced through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds.txt"
    main(
        "dataset make --out".split()
        + [str(ds)]
        + "--rows 3 --cols 3 --n-train 12 --n-test 5 --seed 3".split()
    )
    main(
        ["ot", "--dataset", str(ds), "--ref", "0", "--split", "train", "--out", str(root / "distances.csv")]
    )
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


_BAD_INDEX_SPEC = "invalid index spec '{}': expected random:<j>[:<seed>] | cover:<delta> | all"


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestCli:
    def test_dataset_make(self, workdir):
        ds = read_dataset(workdir / "ds.txt")
        assert len(ds.train) == 12 and len(ds.test) == 5

    def test_ot_distances(self, workdir):
        rows = _read_csv(workdir / "distances.csv")
        assert list(rows[0].keys()) == ["index", "wpp", "runtime_ns"]
        assert len(rows) == 12
        assert float(rows[0]["wpp"]) == pytest.approx(0.0, abs=1e-12)  # ref is train[0]

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
    def test_ot_rejects_invalid_sinkhorn_values(self, tmp_path, monkeypatch, flag, value):
        def unread(path):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "read_dataset", unread)
        out = tmp_path / "sink.csv"
        args = ["ot", "--dataset", "missing.txt", "--ref", "1", "--method", "sinkhorn"]
        with pytest.raises(SystemExit) as exc:
            main(args + [f"{flag}={value}", "--out", str(out)])
        assert str(exc.value) == f"error: {flag} must be finite and positive"
        assert not out.exists()

    def test_ot_sinkhorn_defaults(self, workdir, tmp_path, monkeypatch):
        seen = []

        def recording_sinkhorn(mu, nu, reg=None, tol=None):
            seen.append((reg, tol))
            return None, 0.0

        monkeypatch.setattr(cli, "sinkhorn", recording_sinkhorn)
        out = tmp_path / "sink.csv"
        main(
            ["ot", "--dataset", str(workdir / "ds.txt"), "--ref", "1", "--method", "sinkhorn"]
            + ["--split", "test", "--out", str(out)]
        )
        assert seen == [(0.1, 1e-9)] * 5

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
                "--split",
                "test",
                "--out",
                str(out),
            ]
        )
        rows = _read_csv(out)
        assert list(rows[0].keys()) == ["index", "true_wpp", "G", "rel_err"]
        for r in rows:
            assert float(r["G"]) <= float(r["true_wpp"]) + 1e-8

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
                "--target",
                "wpp:0",
                "--basis",
                f"bank:{workdir / 'bank.txt'}",
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
        with pytest.raises(SystemExit, match=re.escape(repr(spec))):
            main(args)
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
            (["ot", "--ref", "0", "--method", "sinkhorn", "--tol", "0"], "--tol must be finite and positive"),
            (["erm", "fit", "--basis", "weights:w.txt"], "unknown basis spec 'weights:w.txt'"),
            (["erm", "fit", "--n", "5"], "basis source provides 4 < n=5 features"),
            (["erm", "fit", "--target", "w1:0"], "unknown target spec 'w1:0'"),
            (["maxnet", "train", "--init", "random:5", "--loss", "l2"], "invalid loss spec 'l2'"),
            (["maxnet", "train", "--init", "random:5", "--targets", "short"], "targets file has 1 rows, need 12"),
            (["maxnet", "train", "--init", "zeros"], "unknown init spec 'zeros'"),
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
            "erm-target-spec",
            "maxnet-loss-spec",
            "maxnet-targets-too-short",
            "maxnet-init-spec",
            "maxnet-ref-with-random-init",
        ],
    )
    def test_invalid_inputs_exit_with_an_error(self, workdir, tmp_path, args, message):
        out = tmp_path / "out"
        short = tmp_path / "short.csv"
        short.write_text("index,wpp\n0,0.0\n")
        files = {"bank": f"bank:{workdir / 'bank.txt'}", "short": str(short)}
        args = [files.get(a, a) for a in args]
        inputs = ["--dataset", str(workdir / "ds.txt")]

        def default(flag, *value):
            return [] if flag in args else [flag, *value]

        if args[0] in ("maxnet", "adversarial"):
            inputs += default("--targets", str(workdir / "distances.csv")) + default("--k", "2")
        if args[0] == "erm":
            inputs += default("--target", "wpp:0") + default("--basis", files["bank"])
            inputs += default("--n", "2")
        if args[0] == "dataset":
            inputs = []
        with pytest.raises(SystemExit) as exc:
            main(args + inputs + ["--out", str(out)])
        assert str(exc.value).startswith("error: ") and message in str(exc.value)
        assert not out.exists()

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
            args = ["erm", "fit", "--dataset", ds, "--target", f"wpp:{ref}"]
            args += ["--basis", f"bank:{workdir / 'bank.txt'}", "--n", "3", "--out", str(out)]
        else:
            cfg = tmp_path / "exp.json"
            config = {"experiment": "baseline-decay", "dataset": ds, "ref": ref}
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
            ("random:x", _BAD_INDEX_SPEC.format("random:x")),
            ("random:2:y", _BAD_INDEX_SPEC.format("random:2:y")),
            ("cover:abc", _BAD_INDEX_SPEC.format("cover:abc")),
            ("some:3", _BAD_INDEX_SPEC.format("some:3")),
        ],
        ids=["cover-nan", "random-0", "random-negative", "random-x", "random-seed-y", "cover-abc", "unknown"],
    )
    def test_bank_build_rejects_a_bad_index_spec(self, workdir, tmp_path, spec, message):
        out = tmp_path / "bank.txt"
        args = ["bank", "build", "--dataset", str(workdir / "ds.txt"), "--ref", "0"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--indices", spec, "--out", str(out)])
        assert str(exc.value) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["5", "5:1"], ids=["no-colon", "lo-above-hi"])
    def test_subcover_rejects_a_malformed_k_range(self, workdir, tmp_path, spec):
        out = tmp_path / "pek.csv"
        args = ["subcover", "--dataset", str(workdir / "ds.txt"), "--eps", "0.3"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--k-range", spec, "--out", str(out)])
        assert str(exc.value) == "error: --k-range must be lo:hi with 0 <= lo <= hi"
        assert not out.exists()

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
            ("index,runtime_ns\n0,5\n", "targets file, line 1: the header has no 'wpp' column"),
            ("index,wpp\n0,0.5\n1,abc\n", "targets file, line 3: wpp 'abc' is not a number"),
            ("index,wpp\n0,nan\n1,0.5\n", "targets file, line 2: wpp 'nan' is not finite"),
            ("index,wpp\n0,0.5\n1,-inf\n", "targets file, line 3: wpp '-inf' is not finite"),
        ],
        ids=["no-wpp-column", "unparsable-value", "nan-value", "inf-value"],
    )
    def test_malformed_targets_file(self, workdir, tmp_path, text, message):
        targets = tmp_path / "targets.csv"
        targets.write_text(text)
        args = ["maxnet", "train", "--dataset", str(workdir / "ds.txt"), "--targets", str(targets)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--init", "random:5", "--k", "2", "--out", str(tmp_path / "m.bin")])
        assert str(exc.value) == f"error: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 " * 9 + "\n\n0 0 0\n", "features file, line 3: 3 entries, the ground has 9 points"),
            ("1 " * 9 + "\n" + "1 " * 8 + "x\n", "features file, line 2: could not convert string to float: 'x'"),
        ],
        ids=["wrong-width", "non-numeric"],
    )
    def test_malformed_features_file(self, workdir, tmp_path, text, message):
        feats = tmp_path / "feats.txt"
        feats.write_text(text)
        args = ["erm", "fit", "--dataset", str(workdir / "ds.txt"), "--target", "wpp:0"]
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
        records = experiments.run_baseline_decay(
            ds, ds.train[0], sizes=[4], seeds=[0], split="train"
        )
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
                "--split",
                "train",
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
        cfg = tmp_path / "exp.json"
        config = {"experiment": "baseline-decay", "dataset": str(workdir / "ds.txt")}
        cfg.write_text(json.dumps(dict(config, schedule=[2], seeds=[0], split="tset")))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["exp", "run", "--config", str(cfg), "--out-dir", str(out)])
        assert str(exc.value) == "error: unknown split 'tset': expected train | test | all"
        assert not list(tmp_path.glob("out/*"))

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

        rows = _read_csv(tmp_path / "out" / "trace.csv")
        assert list(rows[0]) == ["n_eval", "forward", "exact", "sinkhorn", "forward_ns_per_element"]
        dataset = read_dataset(ds)
        bank = build_bank(dataset, experiments._resolve_reference(dataset, str(ref)), range(3))
        diracs = np.eye(9)
        g = eval_G_many(bank, diracs)
        assert (g < export_affine(bank)[1].min() - 1.0).any()
        (forward,) = forwards
        np.testing.assert_allclose(forward(diracs), g, rtol=1e-12, atol=1e-12)
