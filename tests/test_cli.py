import json
import re
from pathlib import Path

import pytest

from qdelnet.cli import parse_and_dispatch
from qdelnet.data import load_dataset
from qdelnet.features import load_embeddings


def run(*argv):
    return parse_and_dispatch(list(argv))


TINY_SYNTH = ["--n", "40", "--vocab", "12", "--dim", "3", "--max-words", "4", "--seed", "3"]


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run("gen-synth", "--does-not-exist", "1") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "gen-synth" in capsys.readouterr().out


class TestGenSynth:
    def test_writes_corpus_and_embeddings(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--out", str(out)) == 0
        ds = load_dataset(out / "dataset.jsonl")
        assert len(ds) == 40
        table = load_embeddings(out / "embeddings.txt", expected_dim=3)
        assert len(table) == 12
        assert (out / "resolved_config.json").exists()

    def test_split_output(self, tmp_path):
        out = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--train-count", "30", "--test-count", "10",
                   "--out", str(out)) == 0
        assert len(load_dataset(out / "train.jsonl")) == 30
        assert len(load_dataset(out / "test.jsonl")) == 10

    def test_missing_out_is_runtime_error(self, capsys):
        assert run("gen-synth", *TINY_SYNTH) == 2
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_synthetic_training_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("train", "--synthetic", *TINY_SYNTH, "--epochs", "3", "--depth", "2",
                   "--out", str(out))
        assert code == 0
        assert (out / "model.json").exists()
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["loss_curve"]) == 3
        assert not report["diverged"]

    def test_defaults_follow_protocol(self, tmp_path):
        """With no protocol flags, the persisted resolved config carries the
        stock recipe: 150 epochs, 10% validation, 5% dropout, batch 32."""
        out = tmp_path / "run"
        tiny = ["--n", "20", "--vocab", "8", "--dim", "2", "--max-words", "3"]
        assert run("train", "--synthetic", *tiny, "--depth", "1", "--out", str(out)) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["epochs"] == 150
        assert resolved["val_fraction"] == 0.10
        assert resolved["dropout"] == 0.05
        assert resolved["batch_size"] == 32
        assert resolved["lr"] == 0.01
        assert resolved["seed"] == 0

    def test_file_source_parses_only_the_training_corpus(self, tmp_path, monkeypatch):
        import qdelnet.experiment as experiment

        data = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--train-count", "30", "--test-count", "10",
                   "--out", str(data)) == 0
        loaded = []
        real = experiment.load_dataset

        def counted(path):
            loaded.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(experiment, "load_dataset", counted)
        assert run("train", "--train", str(data / "train.jsonl"), "--test", str(data / "test.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"), "--dim", "3", "--max-words", "4",
                   "--epochs", "1", "--depth", "1", "--out", str(tmp_path / "run")) == 0
        assert loaded == ["train.jsonl"]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", str(10**400)])
    def test_annotation_out_of_float_range_exits_2(self, tmp_path, capsys, value):
        data = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--out", str(data)) == 0
        corpus = data / "dataset.jsonl"
        lines = corpus.read_text().splitlines(keepends=True)
        lines[2] = re.sub(r'"weak_annotation": [^,}]+', f'"weak_annotation": {value}', lines[2])
        corpus.write_text("".join(lines))
        capsys.readouterr()
        code = run("train", "--train", str(corpus), "--embeddings", str(data / "embeddings.txt"),
                   "--dim", "3", "--max-words", "4", "--epochs", "1", "--depth", "1",
                   "--out", str(tmp_path / "run"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: weak_annotation must be finite\n"

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        code = run("train", "--train", str(tmp_path / "nope.jsonl"),
                   "--embeddings", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o"))
        assert code == 2


class TestSplitCounts:
    """One rule for train, sweep and gen-synth: a count left out is 5/6 of
    the corpus for the training set and the rest for the test set."""

    @pytest.mark.parametrize("counts", [["--train-count", "30"], ["--test-count", "6"]])
    def test_one_count_equals_both(self, tmp_path, counts):
        both = ["--train-count", "30", "--test-count", "6"]
        tiny = ["--n", "36", "--vocab", "12", "--dim", "3", "--max-words", "4", "--seed", "3"]
        for name, given in (("both", both), ("one", counts)):
            assert run("gen-synth", *tiny, *given, "--out", str(tmp_path / "g" / name)) == 0
            assert run("train", "--synthetic", *tiny, *given, "--epochs", "2", "--depth", "1",
                       "--out", str(tmp_path / "t" / name)) == 0
            assert run("sweep", "--synthetic", *tiny, *given, "--depths", "1,2", "--repeats", "1",
                       "--epochs", "1", "--out", str(tmp_path / "s" / name)) == 0
        for rel in ("g/{}/train.jsonl", "g/{}/test.jsonl", "t/{}/model.json",
                    "s/{}/grad_flow.csv", "s/{}/fig_test_acc.svg"):
            one, both_ = (tmp_path / rel.format(k) for k in ("one", "both"))
            assert one.read_bytes() == both_.read_bytes(), rel
        assert len(load_dataset(tmp_path / "g" / "one" / "train.jsonl")) == 30

    def test_no_count_trains_on_whole_corpus_and_sweeps_on_five_sixths(self, tmp_path):
        assert run("train", "--synthetic", *TINY_SYNTH, "--epochs", "1", "--depth", "1",
                   "--out", str(tmp_path / "t")) == 0
        assert run("gen-synth", *TINY_SYNTH, "--out", str(tmp_path / "g")) == 0
        assert len(load_dataset(tmp_path / "g" / "dataset.jsonl")) == 40
        assert run("sweep", "--synthetic", *TINY_SYNTH, "--depths", "1,2", "--repeats", "1",
                   "--epochs", "1", "--out", str(tmp_path / "s")) == 0
        assert run("sweep", "--synthetic", *TINY_SYNTH, "--train-count", "33", "--test-count", "7",
                   "--depths", "1,2", "--repeats", "1", "--epochs", "1",
                   "--out", str(tmp_path / "s2")) == 0
        for name in ("grad_flow.csv", "fig_test_acc.svg", "fig_train_acc.svg"):
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()


class TestEvaluate:
    def test_round_trip_with_saved_model(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--train-count", "30", "--test-count", "10",
                   "--out", str(data)) == 0
        out = tmp_path / "run"
        assert run("train", "--train", str(data / "train.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"),
                   "--dim", "3", "--max-words", "4", "--epochs", "3", "--depth", "1",
                   "--out", str(out)) == 0
        capsys.readouterr()
        code = run("evaluate", "--model", str(out / "model.json"),
                   "--data", str(data / "test.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"), "--dim", "3")
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: {"format": "qdelnet-mlp", "version": 1, "layers": []},
            lambda doc: {**doc, "layers": [{**doc["layers"][0], "activation": "tanh"}]},
            lambda doc: {**doc, "layers": doc["layers"] * 2},
            lambda doc: {**doc, "config": {**doc["config"], "input_dim": 12}},
        ],
        ids=["missing-config", "unknown-activation", "wrong-layer-count", "shape-mismatch"],
    )
    def test_malformed_checkpoint_exits_2(self, tmp_path, capsys, corrupt):
        data = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--out", str(data)) == 0
        out = tmp_path / "run"
        assert run("train", "--train", str(data / "dataset.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"),
                   "--dim", "3", "--max-words", "4", "--epochs", "1", "--depth", "0",
                   "--out", str(out)) == 0
        model = out / "model.json"
        model.write_text(json.dumps(corrupt(json.loads(model.read_text()))))
        capsys.readouterr()
        code = run("evaluate", "--model", str(model), "--data", str(data / "dataset.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"), "--dim", "3")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    @pytest.mark.parametrize("target", ["data", "embeddings"])
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, target):
        data = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--out", str(data)) == 0
        out = tmp_path / "run"
        assert run("train", "--train", str(data / "dataset.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"),
                   "--dim", "3", "--max-words", "4", "--epochs", "1", "--depth", "0",
                   "--out", str(out)) == 0
        files = {"data": data / "dataset.jsonl", "embeddings": data / "embeddings.txt"}
        lines = files[target].read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:4] + b"\xff" + lines[2][4:]
        files[target].write_bytes(b"".join(lines))
        capsys.readouterr()
        code = run("evaluate", "--model", str(out / "model.json"), "--data", str(files["data"]),
                   "--embeddings", str(files["embeddings"]), "--dim", "3")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: not UTF-8") and "Traceback" not in err


class TestNotUtf8:
    """A checkpoint or config file with a byte that is not UTF-8 on line 2
    ends in exit 2 and an error that names the line."""

    def test_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("gen-synth", *TINY_SYNTH, "--out", str(data)) == 0
        out = tmp_path / "run"
        assert run("train", "--train", str(data / "dataset.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"),
                   "--dim", "3", "--max-words", "4", "--epochs", "1", "--depth", "0",
                   "--out", str(out)) == 0
        model = out / "model.json"
        model.write_bytes(b"\n" + model.read_bytes()[:11] + b"\xff" + model.read_bytes()[11:])
        capsys.readouterr()
        code = run("evaluate", "--model", str(model), "--data", str(data / "dataset.jsonl"),
                   "--embeddings", str(data / "embeddings.txt"), "--dim", "3")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: not UTF-8") and "Traceback" not in err

    def test_sweep_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"epochs = 1\ndepths = 1\xff\n")
        code = run("sweep", "--synthetic", *TINY_SYNTH, "--config", str(cfg),
                   "--out", str(tmp_path / "s"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: not UTF-8") and "Traceback" not in err
        assert not (tmp_path / "s").exists()


class TestConfigFile:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# protocol overrides\nepochs = 4\nbatch-size = 8\n")
        out1 = tmp_path / "a"
        assert run("train", "--synthetic", *TINY_SYNTH, "--depth", "1",
                   "--config", str(cfg), "--out", str(out1)) == 0
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        assert resolved["epochs"] == 4 and resolved["batch_size"] == 8

        out2 = tmp_path / "b"
        assert run("train", "--synthetic", *TINY_SYNTH, "--depth", "1",
                   "--config", str(cfg), "--epochs", "2", "--out", str(out2)) == 0
        resolved = json.loads((out2 / "resolved_config.json").read_text())
        assert resolved["epochs"] == 2 and resolved["batch_size"] == 8

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-option = 1\n")
        assert run("train", "--synthetic", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


class TestSweepAndReport:
    def test_sweep_produces_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run("sweep", "--synthetic", *TINY_SYNTH, "--train-count", "30",
                   "--test-count", "10", "--depths", "1,2", "--repeats", "1",
                   "--epochs", "2", "--out", str(out))
        assert code == 0
        for name in ("sweep.csv", "grad_flow.csv", "fig_time.svg", "fig_train_acc.svg",
                     "fig_val_acc.svg", "fig_test_acc.svg", "resolved_config.json"):
            assert (out / name).exists(), name
        assert (out / "runs" / "1_0.json").exists()
        assert (out / "runs" / "2_0.json").exists()

    def test_report_regenerates_identical_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run("sweep", "--synthetic", *TINY_SYNTH, "--train-count", "30",
                   "--test-count", "10", "--depths", "1,2", "--repeats", "1",
                   "--epochs", "2", "--out", str(out)) == 0
        originals = {
            name: (out / name).read_bytes()
            for name in ("sweep.csv", "fig_time.svg", "fig_train_acc.svg",
                         "fig_val_acc.svg", "fig_test_acc.svg")
        }
        for name in originals:
            (out / name).unlink()
        assert run("report", "--runs", str(out)) == 0
        for name, blob in originals.items():
            assert (out / name).read_bytes() == blob, name

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: "{not json",
            lambda doc: json.dumps([1, 2]),
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "train_report"}),
            lambda doc: json.dumps({**doc, "depth": "1"}),
            lambda doc: json.dumps({**doc, "repeat": True}),
            lambda doc: json.dumps({**doc, "test_accuracy_pct": None}),
            lambda doc: json.dumps({**doc, "first_layer_grad_norm_init": [0.1]}),
            lambda doc: json.dumps({**doc, "train_report": [doc["train_report"]]}),
            lambda doc: json.dumps({**doc, "train_report": {
                k: v for k, v in doc["train_report"].items() if k != "wall_time_seconds"}}),
            lambda doc: json.dumps({**doc, "train_report": {**doc["train_report"], "diverged": 0}}),
            lambda doc: json.dumps({**doc, "train_report": {**doc["train_report"], "extra": 1}}),
        ],
        ids=["not-json", "not-object", "missing-train-report", "depth-string", "repeat-bool",
             "accuracy-null", "norm-list", "report-list", "report-missing-key",
             "diverged-int", "report-unknown-key"],
    )
    def test_malformed_run_file_exits_2(self, tmp_path, capsys, corrupt):
        out = tmp_path / "sweep"
        assert run("sweep", "--synthetic", *TINY_SYNTH, "--train-count", "30",
                   "--test-count", "10", "--depths", "1,2", "--repeats", "1",
                   "--epochs", "1", "--out", str(out)) == 0
        run_file = out / "runs" / "1_0.json"
        run_file.write_text(corrupt(json.loads(run_file.read_text())))
        capsys.readouterr()
        assert run("report", "--runs", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "1_0.json" in err

    def test_workers_warning(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run("sweep", "--synthetic", *TINY_SYNTH, "--train-count", "30",
                   "--test-count", "10", "--depths", "1,2", "--repeats", "1",
                   "--epochs", "1", "--workers", "2", "--out", str(out))
        assert code == 0
        assert "time-vs-depth" in capsys.readouterr().err
