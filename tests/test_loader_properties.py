"""The files the CLI reads: the checkpoint, JSONL corpus and embedding table
of `qdelnet evaluate`, the run files of `qdelnet report` and the config file
of `--config`. A malformed file raises one of the package's errors, never a
bare ValueError, and through the CLI it exits 2 with that error's message and
no traceback. The property tests are derandomized, so every run draws the
same examples."""

import contextlib
import io
import json
import re
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelnet import errors
from qdelnet import cli
from qdelnet.cli import parse_and_dispatch
from qdelnet.data import Dataset, gen_synthetic, load_dataset, save_dataset
from qdelnet.errors import NumericError, ParseError, ValidationError
from qdelnet.experiment import write_outputs
from qdelnet.features import load_embeddings, save_embeddings
from qdelnet.nn import ModelConfig, build_model, load_model, save_model

PACKAGE_ERRORS = (
    errors.ConfigError,
    errors.InputError,
    errors.NumericError,
    errors.ParseError,
    errors.ShapeError,
    errors.ValidationError,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)

# Ids and texts that only survive a corpus cache if its lengths count code
# points and its encoding lets lone surrogates through.
ODD_TEXT = st.text(st.sampled_from(["a", "B", " ", "\n", "\x00", "\ud800", "\udfff", "\u00e9",
                                    "?", "\u2028"]), max_size=6)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid corpus, table (dim 3) and checkpoint (13 inputs, widths 3, 2),
    and `doc`, the checkpoint as JSON."""
    base = tmp_path_factory.mktemp("evaluate-inputs")
    corpus, table = gen_synthetic(20, 12, 3, 4, 0.1, seed=3)
    paths = {name: base / name for name in ("data.jsonl", "embeddings.txt", "model.json")}
    save_dataset(corpus, paths["data.jsonl"])
    save_embeddings(table, paths["embeddings.txt"])
    save_model(build_model(ModelConfig(input_dim=13, hidden_widths=(3, 2), seed=3)),
               paths["model.json"])
    paths["doc"] = json.loads(paths["model.json"].read_text())
    paths["bad"] = base / "bad"
    return paths


def run_cli(*argv) -> tuple[int, str]:
    """Exit code and stderr of the qdelnet command `argv`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = parse_and_dispatch([str(arg) for arg in argv])
    return code, err.getvalue()


def evaluate_cli(files, **replace) -> tuple[int, str]:
    """Exit code and stderr of `qdelnet evaluate` on the valid files, with
    any of model/data/embeddings replaced by another path."""
    paths = {"model": files["model.json"], "data": files["data.jsonl"],
             "embeddings": files["embeddings.txt"], **replace}
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = parse_and_dispatch(["evaluate", "--model", str(paths["model"]),
                                   "--data", str(paths["data"]),
                                   "--embeddings", str(paths["embeddings"]), "--dim", "3"])
    return code, err.getvalue()


def assert_load_and_cli_agree(files, load, target):
    """`load` the bad file: it loads, or raises a package error whose message
    `qdelnet evaluate` prints before exiting 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # annotations outside [0, 1]
        try:
            load(files["bad"])
        except PACKAGE_ERRORS as exc:
            assert evaluate_cli(files, **{target: files["bad"]}) == (2, f"error: {exc}\n")
            return
        code, err = evaluate_cli(files, **{target: files["bad"]})
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: ")


def assert_miss_and_hit_agree(path):
    """Load a corpus with no cache beside it, then again: the two loads raise
    the same error, or give equal datasets whose tokens are the same strings.
    A load that returns without a warning leaves a cache, which the second
    load reads."""
    cache = path.with_name(path.name + ".qdelnet-cache.npz")
    cache.unlink(missing_ok=True)
    outcomes = []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)  # annotations outside [0, 1]
            try:
                outcomes.append((load_dataset(path), len(caught)))
            except PACKAGE_ERRORS as exc:
                outcomes.append((type(exc), str(exc)))
        if not cache.exists():
            assert not isinstance(outcomes[0][0], Dataset) or outcomes[0][1] > 0
    (first, warned), (second, warned_again) = outcomes
    if not isinstance(first, Dataset):
        assert (first, warned) == (second, warned_again)
        return
    assert warned == warned_again and second.name == first.name
    assert second.questions == first.questions
    for a, b in zip(first.questions, second.questions):
        assert all(x is y for x, y in zip(a.tokens, b.tokens))
        assert (type(b.weak_annotation), type(b.label)) == (float, int)


def replaced(doc, path, value):
    """A deep copy of `doc` with the value at `path` (keys and indices)
    replaced."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def field_paths(value, path=()):
    """Every path in a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from field_paths(child, (*path, key))


def is_element(path):
    return len(path) == 4 and path[2] in ("weights", "bias")


MALFORMED = [
    (("config", "hidden_widths"), ["a"], "config: hidden_widths[0] must be an integer, got str"),
    (("config", "hidden_widths"), [3.7, 2],
     "config: hidden_widths[0] must be an integer, got float"),
    (("config", "hidden_widths"), "32", "config: hidden_widths must be a list"),
    (("config", "input_dim"), True, "config: input_dim must be an integer, got bool"),
    (("config", "seed"), 1.5, "config: seed must be an integer, got float"),
    (("config", "dropout_rate"), False, "config: dropout_rate must be a number"),
    (("layers", 0, "weights", 5), "a", "layer 0: weights must be a list of numbers"),
    (("layers", 0, "weights", 5), None, "layer 0: weights must be a list of numbers"),
    (("layers", 0, "weights", 5), True, "layer 0: weights must be a list of numbers"),
    (("layers", 0, "weights", 5), 10**400,
     "layer 0: weights holds a number beyond the float range"),
    (("layers", 0, "weights"), {"a": 1.0}, "layer 0: weights must be a list of numbers"),
    (("layers", 0, "weights"), "1" * 39, "layer 0: weights must be a list of numbers"),
    (("layers", 1, "bias"), [False, 0.0], "layer 1: bias must be a list of numbers"),
    (("layers", 2, "rows"), True, "layer 2: rows must be an integer, got bool"),
]
MALFORMED_IDS = [
    "width-str", "width-float", "widths-str", "input-dim-bool", "seed-float", "rate-bool",
    "weight-str", "weight-null", "weight-bool", "weight-huge-int", "weights-object",
    "weights-str", "bias-bool", "rows-bool",
]

# Every malformed checkpoint above is a ParseError. A NaN or Infinity in a
# weight list parses, and is a NumericError naming the layer.
CHECKPOINT_ERRORS = [
    *(pytest.param(path, value, ParseError, f"malformed checkpoint: {message}", id=name)
      for (path, value, message), name in zip(MALFORMED, MALFORMED_IDS)),
    pytest.param(("layers", 0, "weights", 5), float("nan"), NumericError,
                 "layer 0: non-finite parameter nan", id="weight-NaN"),
    pytest.param(("layers", 1, "bias", 1), float("inf"), NumericError,
                 "layer 1: non-finite parameter inf", id="bias-Infinity"),
    pytest.param(("layers", 2, "weights", 0), float("-inf"), NumericError,
                 "layer 2: non-finite parameter -inf", id="weight-minus-Infinity"),
]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("path, value, error, message", CHECKPOINT_ERRORS)
    def test_parse_error_names_the_layer_and_field(self, files, path, value, error, message):
        files["bad"].write_text(json.dumps(replaced(files["doc"], path, value)))
        with pytest.raises(error) as info:
            load_model(files["bad"])
        assert str(info.value) == message
        assert evaluate_cli(files, model=files["bad"]) == (2, f"error: {info.value}\n")

    @pytest.mark.parametrize("path, value, error, message", CHECKPOINT_ERRORS)
    def test_a_malformed_checkpoint_leaves_no_cache(self, files, tmp_path, path, value, error,
                                                    message):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(replaced(files["doc"], path, value)))
        for _ in range(2):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                load_model(bad)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_version_true_is_not_version_1(self, files):
        files["bad"].write_text(json.dumps(replaced(files["doc"], ("version",), True)))
        with pytest.raises(ParseError, match="unsupported checkpoint version True"):
            load_model(files["bad"])

    @pytest.mark.parametrize(
        "field, value", [("seed", -1), ("seed", 2**63), ("input_dim", 0), ("dropout_rate", 1.5)]
    )
    def test_config_out_of_range_is_validation_error(self, files, field, value):
        files["bad"].write_text(json.dumps(replaced(files["doc"], ("config", field), value)))
        with pytest.raises(ValidationError, match=f"checkpoint config: {field}"):
            load_model(files["bad"])

    def test_deeply_nested_json_is_parse_error(self, files):
        files["bad"].write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="nested too deeply"):
            load_model(files["bad"])


def test_deeply_nested_corpus_line_is_parse_error(files):
    nested = "[" * 100_000 + "]" * 100_000
    files["bad"].write_text('{"id": "a", "text": "b", "label": 0}\n' + nested)
    with pytest.raises(ParseError, match="line 2: invalid JSON \\(nested too deeply\\)"):
        load_dataset(files["bad"])


class TestLoaderProperties:
    @PROPERTY
    @given(data=st.data())
    def test_checkpoint_with_one_field_replaced(self, files, data):
        paths = list(field_paths(files["doc"]))
        path = data.draw(
            st.sampled_from([p for p in paths if not is_element(p)])
            | st.sampled_from([p for p in paths if is_element(p)])
        )
        files["bad"].write_text(json.dumps(replaced(files["doc"], path, data.draw(JSON_VALUES))))
        assert_load_and_cli_agree(files, load_model, "model")

    @PROPERTY
    @given(raw=st.binary(max_size=300))
    def test_corpus_of_arbitrary_bytes(self, files, raw):
        files["bad"].write_bytes(raw)
        assert_load_and_cli_agree(files, load_dataset, "data")

    @PROPERTY
    @given(lines=st.lists(
        st.fixed_dictionaries({}, optional={
            "id": st.text(max_size=3) | ODD_TEXT | JSON_VALUES,
            "text": st.text(max_size=12) | ODD_TEXT | JSON_VALUES,
            "label": st.sampled_from([0, 1]) | JSON_VALUES,
            "weak_annotation": st.floats() | JSON_VALUES,
        }).map(json.dumps) | JSON_VALUES.map(json.dumps) | st.text(max_size=12),
        max_size=5,
    ))
    def test_corpus_of_json_shaped_lines(self, files, lines):
        files["bad"].write_text("\n".join(lines), encoding="utf-8")
        assert_load_and_cli_agree(files, load_dataset, "data")
        assert_miss_and_hit_agree(files["bad"])

    @PROPERTY
    @given(raw=st.binary(max_size=300))
    def test_embeddings_of_arbitrary_bytes(self, files, raw):
        files["bad"].write_bytes(raw)
        assert_load_and_cli_agree(files, lambda path: load_embeddings(path, 3), "embeddings")

    @PROPERTY
    @given(lines=st.lists(
        st.lists(
            st.text(min_size=1, max_size=4)
            | st.floats().map(repr)
            | st.integers().map(str)
            | st.sampled_from(["1e400", "nan", "-inf", "1_0", "0x10"]),
            max_size=5,
        ).map(" ".join),
        max_size=5,
    ))
    def test_embeddings_of_word2vec_shaped_lines(self, files, lines):
        files["bad"].write_text("\n".join(lines), encoding="utf-8")
        assert_load_and_cli_agree(files, lambda path: load_embeddings(path, 3), "embeddings")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A finished sweep of depths 1 and 2 (one repeat each) under `sweep`,
    with `doc`, its runs/1_0.json as JSON, and `bad`, where a test writes
    the run file it corrupts."""
    base = tmp_path_factory.mktemp("report-inputs")
    code, err = run_cli("sweep", "--synthetic", "--n", "40", "--vocab", "12", "--dim", "3",
                        "--max-words", "4", "--train-count", "30", "--test-count", "10",
                        "--depths", "1,2", "--repeats", "1", "--epochs", "1", "--seed", "3",
                        "--out", base / "sweep")
    assert code == 0, err
    shutil.copytree(base / "sweep" / "runs", base / "copy" / "runs")
    return {"sweep": base / "sweep", "copy": base / "copy", "out": base / "out",
            "bad": base / "copy" / "runs" / "1_0.json",
            "doc": json.loads((base / "sweep" / "runs" / "1_0.json").read_text())}


def assert_report_agrees(runs):
    """Read the run files with one of them bad: they load and `qdelnet
    report` exits 0, or they raise a package error whose message `qdelnet
    report` prints before exiting 2."""
    try:
        write_outputs(runs["copy"] / "runs", runs["out"])
    except PACKAGE_ERRORS as exc:
        assert run_cli("report", "--runs", runs["copy"], "--out", runs["out"]) == (
            2, f"error: {exc}\n")
        return
    code, err = run_cli("report", "--runs", runs["copy"], "--out", runs["out"])
    assert code == 0, err


class TestMalformedRunFile:
    def test_deeply_nested_json_is_parse_error(self, runs):
        runs["bad"].write_text("[" * 100_000)
        with pytest.raises(ParseError) as info:
            write_outputs(runs["copy"] / "runs", runs["out"])
        assert str(info.value) == f"run file {runs['bad']}: not JSON (nested too deeply)"
        assert run_cli("report", "--runs", runs["copy"], "--out", runs["out"]) == (
            2, f"error: {info.value}\n")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("depth",), 0, "field depth must be >= 1, got 0"),
            (("depth",), -2, "field depth must be >= 1, got -2"),
            (("repeat",), -1, "field repeat must be >= 0, got -1"),
            (("test_accuracy_pct",), float("nan"), "field test_accuracy_pct is not finite"),
            (("test_accuracy_pct",), float("inf"), "field test_accuracy_pct is not finite"),
            (("first_layer_grad_norm_init",), float("-inf"),
             "field first_layer_grad_norm_init is not finite"),
            (("depth",), 10**400, "field depth is not finite"),
            (("train_report", "wall_time_seconds"), 10**400,
             "field train_report.wall_time_seconds is not finite"),
            (("initial_grad_norms",), [0.5, 0.5, 0.5],
             "field initial_grad_norms holds 3 norms, not depth + 1 = 2"),
            (("initial_grad_norms", 1), "0.5", "field initial_grad_norms.1 is a str"),
            (("initial_grad_norms", 1), True, "field initial_grad_norms.1 is a bool"),
            (("initial_grad_norms", 1), float("inf"), "field initial_grad_norms.1 is not finite"),
            (("initial_grad_norms", 0), 0.5,
             "field initial_grad_norms.0 differs from first_layer_grad_norm_init"),
            # 1_0.json holding another cell would replace that cell's file.
            (("repeat",), 1, "holds depth 1 repeat 1, so its name must be 1_1.json"),
        ],
        ids=["depth-0", "depth-negative", "repeat-negative", "accuracy-nan", "accuracy-inf",
             "norm-minus-inf", "depth-beyond-float", "wall-time-beyond-float",
             "norms-wrong-length", "norms-string", "norms-true", "norms-infinity",
             "norms-first-differs", "cell-not-its-name"],
    )
    def test_unreportable_value_is_parse_error(self, runs, path, value, message):
        """Values of the right JSON type that no sweep writes and that
        `report` cannot chart or average."""
        runs["bad"].write_text(json.dumps(replaced(runs["doc"], path, value)))
        with pytest.raises(ParseError) as info:
            write_outputs(runs["copy"] / "runs", runs["out"])
        assert str(info.value) == f"run file {runs['bad']}: {message}"
        assert run_cli("report", "--runs", runs["copy"], "--out", runs["out"]) == (
            2, f"error: {info.value}\n")

    @PROPERTY
    @given(data=st.data())
    def test_run_file_with_one_field_replaced(self, runs, data):
        path = data.draw(st.sampled_from(list(field_paths(runs["doc"]))))
        runs["bad"].write_text(json.dumps(replaced(runs["doc"], path, data.draw(JSON_VALUES))))
        assert_report_agrees(runs)

    @PROPERTY
    @given(raw=st.binary(max_size=300))
    def test_run_file_of_arbitrary_bytes(self, runs, raw):
        runs["bad"].write_bytes(raw)
        assert_report_agrees(runs)


class SweepReached(Exception):
    """Raised in place of the sweep: the config file was accepted."""


def reach_sweep(config):
    raise SweepReached


# A valid `qdelnet sweep` config file: a tiny synthetic sweep.
CONFIG = {"synthetic": "true", "n": "40", "vocab": "12", "dim": "3", "max-words": "4",
          "train-count": "30", "test-count": "10", "depths": "1,2", "repeats": "1",
          "epochs": "1", "seed": "3"}


def assert_config_agrees(path, out):
    """Resolve the options of a sweep with a bad config file: they resolve,
    or a package error is raised whose message `qdelnet sweep` prints before
    exiting 2. An accepted file reaches the sweep, which is not run."""
    args = cli._build_parser().parse_args(["sweep", "--config", str(path), "--out", str(out)])
    try:
        cli._resolve(args, cli._OPTIONS["sweep"])
    except PACKAGE_ERRORS as exc:
        expected = (2, f"error: {exc}\n")
    else:
        expected = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_depth_sweep", reach_sweep)
        try:
            outcome = run_cli("sweep", "--config", path, "--out", out)
        except SweepReached:
            outcome = None
    if expected is not None:
        assert outcome == expected
    elif outcome is not None:  # resolved, then refused by the sweep's own checks
        assert outcome[0] == 2 and outcome[1].startswith("error: ")


class TestMalformedConfigFile:
    @pytest.mark.parametrize("key, value", [("depths", "abc"), ("synthetic", "maybe"),
                                            ("n", "abc"), ("lr", "")])
    def test_value_that_does_not_parse_is_config_error(self, tmp_path, key, value):
        path = tmp_path / "sweep.cfg"
        path.write_text(f"{key} = {value}\n")
        code, err = run_cli("sweep", "--config", path, "--out", tmp_path / "out")
        assert code == 2
        assert err.startswith(f"error: config-file key {key!r}: ") and err.count("\n") == 1

    @PROPERTY
    @given(data=st.data())
    def test_config_with_one_value_replaced(self, tmp_path_factory, data):
        key = data.draw(st.sampled_from(sorted(CONFIG)))
        value = data.draw(st.text(max_size=12) | JSON_VALUES.map(json.dumps))
        base = tmp_path_factory.mktemp("config")
        lines = [f"{k} = {value if k == key else v}" for k, v in CONFIG.items()]
        (base / "sweep.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_config_agrees(base / "sweep.cfg", base / "out")

    @PROPERTY
    @given(raw=st.binary(max_size=300))
    def test_config_of_arbitrary_bytes(self, tmp_path_factory, raw):
        base = tmp_path_factory.mktemp("config")
        (base / "sweep.cfg").write_bytes(raw)
        assert_config_agrees(base / "sweep.cfg", base / "out")
