import json
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

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        code = run("train", "--train", str(tmp_path / "nope.jsonl"),
                   "--embeddings", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o"))
        assert code == 2


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

    def test_workers_warning(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run("sweep", "--synthetic", *TINY_SYNTH, "--train-count", "30",
                   "--test-count", "10", "--depths", "1,2", "--repeats", "1",
                   "--epochs", "1", "--workers", "2", "--out", str(out))
        assert code == 0
        assert "time-vs-depth" in capsys.readouterr().err
