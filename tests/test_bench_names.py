"""The benchmark (bench/child.py) looks package functions up by name: the
traced ones in the module that defines them, the top-level calls at the
module that calls them. Its annotators then read the arguments and results
of those calls (model.hidden_count, model.config, ...). A renamed or moved
function or attribute would only show up as an error in a benchmark run;
these tests catch it here."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from qdelnet.data import save_dataset
from qdelnet.features import save_embeddings
from qdelnet.nn import ModelConfig, build_model
from qdelnet.seeding import stream_rng
from qdelnet.train import TrainConfig

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def child_constant(name):
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {CHILD}")


def test_traced_functions_are_defined_where_named():
    for module_name, names in child_constant("TRACED").items():
        module = importlib.import_module(f"qdelnet.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"qdelnet.{module_name}.{name} is gone"
            # Span names come from the defining module (child.span_name).
            assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"


def test_top_level_sites_are_bound_to_traced_functions():
    traced = {
        id(getattr(importlib.import_module(f"qdelnet.{m}"), name))
        for m, names in child_constant("TRACED").items()
        for name in names
    }
    for module_name, attr in child_constant("TOP_LEVEL_SITES"):
        module = importlib.import_module(f"qdelnet.{module_name}")
        assert id(getattr(module, attr, None)) in traced, f"qdelnet.{module_name}.{attr}"


def load_child(monkeypatch):
    """bench/child.py as a module; the sys.path entry it adds is undone."""
    monkeypatch.syspath_prepend(str(CHILD.parent))
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_annotators_read_real_depth_1_calls(monkeypatch, tmp_path):
    """Every annotator runs on the arguments and result of one real call,
    made the way the package makes it."""
    annotators = load_child(monkeypatch).ANNOTATORS
    calls = {}

    def call(name, *args, **kwargs):
        module, fn = name.split(".")
        result = getattr(importlib.import_module(f"qdelnet.{module}"), fn)(*args, **kwargs)
        calls[name] = (args, kwargs, result)
        return result

    corpus, table = call("data.gen_synthetic", 80, 10, 3, 4, 0.1, seed=1)
    save_dataset(corpus, tmp_path / "q.jsonl")
    save_embeddings(table, tmp_path / "e.txt")
    call("data.load_dataset", tmp_path / "q.jsonl")
    call("features.load_embeddings", tmp_path / "e.txt", 3)
    train_set, test_set = call("data.split_train_test", corpus, 60, 20, 1)
    x = call("features.featurize_batch", train_set.questions[:8], table, 4)
    y = train_set.labels()[:8, None]
    model = build_model(ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), seed=1))
    _, trace = call("nn.forward", model, x, mode="train", rng=stream_rng(1, 1))
    grads = call("nn.backward", model, trace, y)
    call("nn.sgd_step", model, grads, 0.1)
    trained, _ = call("train.train", model, train_set, TrainConfig(epochs=1, seed=1), table)
    call("train.evaluate", trained, test_set, table)

    assert set(annotators) == set(calls)
    for name, annotate in annotators.items():
        tags = annotate(*calls[name])
        assert isinstance(tags, dict) and tags, name
        if "depth" in tags:
            assert tags["depth"] == 1, name
        if "params" in tags:
            assert tags["params"] == model.params.size, name
    assert annotators["nn.forward"](*calls["nn.forward"])["rows"] == 8
    assert np.isfinite(annotators["train.evaluate"](*calls["train.evaluate"])["acc"])
