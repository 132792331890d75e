"""Golden question-id orders of the stratified splits.

The expected lists were recorded from the splitters as they stood before
their two copies were merged into one core; a change that draws different
random numbers, or draws them in a different order, changes them.
"""

from qdelnet.cli import parse_and_dispatch
from qdelnet.data import Dataset, Question, load_dataset, split_train_test
from qdelnet.train import split_train_val


def lopsided_corpus():
    """23 questions, 8 of them deleted (every third id)."""
    qs = tuple(Question(id=f"q{i:02d}", text=f"w{i}", label=int(i % 3 == 0)) for i in range(23))
    return Dataset(qs, name="lopsided")


def ids(dataset):
    return [q.id for q in dataset]


def test_split_train_val_order():
    fit, val = split_train_val(lopsided_corpus(), 0.3, seed=4)
    assert ids(fit) == [
        "q21", "q18", "q04", "q15", "q02", "q13", "q16", "q06",
        "q22", "q09", "q20", "q01", "q03", "q17", "q11", "q14",
    ]
    assert ids(val) == ["q19", "q07", "q12", "q00", "q05", "q08", "q10"]


def test_split_train_test_order():
    train, test = split_train_test(lopsided_corpus(), 12, 7, seed=4)
    assert ids(train) == [
        "q12", "q14", "q10", "q22", "q13", "q16", "q05", "q21", "q03", "q17", "q02", "q09",
    ]
    assert ids(test) == ["q08", "q01", "q07", "q19", "q11", "q18", "q15"]


def test_gen_synth_split_files_order(tmp_path):
    assert parse_and_dispatch([
        "gen-synth", "--n", "20", "--vocab", "8", "--dim", "2", "--max-words", "3", "--seed", "5",
        "--train-count", "11", "--test-count", "6", "--out", str(tmp_path),
    ]) == 0
    assert ids(load_dataset(tmp_path / "train.jsonl")) == [
        "syn-1-00008", "syn-0-00006", "syn-0-00009", "syn-0-00007", "syn-1-00005", "syn-1-00002",
        "syn-0-00001", "syn-0-00005", "syn-1-00001", "syn-1-00006", "syn-0-00000",
    ]
    assert ids(load_dataset(tmp_path / "test.jsonl")) == [
        "syn-1-00000", "syn-1-00004", "syn-1-00003", "syn-0-00008", "syn-0-00004", "syn-0-00003",
    ]
