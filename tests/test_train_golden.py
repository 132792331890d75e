"""Golden results of train() and build_model.

The expected values were recorded from the trainer as it stood before its
parameters moved into one flat vector per model: each loss-curve value as
float.hex, the gradient norms likewise, and a sha256 over every layer's
weights then bias, first layer first. A change that alters a single bit of
the arithmetic, the random draws or their order changes them.
"""

import hashlib
import importlib

import pytest

from qdelnet.data import gen_synthetic
from qdelnet.nn import ModelConfig, build_model, taper_widths
from qdelnet.train import TrainConfig, train


def param_digest(model) -> str:
    h = hashlib.sha256()
    for weights, bias in zip(model.weights, model.biases):
        h.update(weights.tobytes())
        h.update(bias.tobytes())
    return h.hexdigest()


# 130 questions leave 117 to fit: batch 16 ends on a 5-row batch, 13 divides it.
# The fit set's feature matrix is 117 rows x 21 inputs of 8 bytes; train()
# caches it up to train._CACHE_LIMIT_BYTES and streams it one byte above.
FIT_FEATURE_BYTES = 117 * (5 * 4 + 1) * 8

# name -> (depth, dropout, batch_size, feature cache limit or None for the
# default, record_grad_norms).
CASES = {
    "depth1-dropout": (1, 0.1, 16, None, False),
    "depth3-dropout": (3, 0.1, 16, None, False),
    "depth10-dropout": (10, 0.1, 16, None, False),
    "full-batches-only": (3, 0.1, 13, None, False),
    "cached-features": (3, 0.05, 16, FIT_FEATURE_BYTES, False),
    "streamed-features": (3, 0.05, 16, FIT_FEATURE_BYTES - 1, False),
    "grad-norms": (3, 0.1, 16, None, True),
}

EXPECTED = {
    "cached-features": (
        ["0x1.6627ccfaaaef4p-1", "0x1.5e9b280368bd1p-1", "0x1.4c5b9a97bc754p-1"],
        None,
        "8faa2fcf531072825824cad0127f629ae3cbd956bac52fec5098c5558c5e103a",
    ),
    "depth1-dropout": (
        ["0x1.5dee052e41bc3p-1", "0x1.2990703447a84p-1", "0x1.e28e4e2a1d556p-2"],
        None,
        "aa52f552f4d22ed563449cbb97732232f383c68344fd61c388395ae8fab5d6de",
    ),
    "depth10-dropout": (
        ["0x1.6570f0b98cb87p-1", "0x1.648919b0f042bp-1", "0x1.649a8fcb8c7dap-1"],
        None,
        "ed352af50fa0c0acedb60ed98a9ac85031f52db1e9385d40a01c425c355755e2",
    ),
    "depth3-dropout": (
        ["0x1.67112160de9eap-1", "0x1.5e02168ea4ac6p-1", "0x1.4c855cd39b278p-1"],
        None,
        "2b648388b2ca8c2d8c540193bb11fa998d2515c5ddb76b2c6e6818d294a7973c",
    ),
    "full-batches-only": (
        ["0x1.65874d7e862c7p-1", "0x1.575043eacf20dp-1", "0x1.3214d87040a70p-1"],
        None,
        "b499b9a3e19f70a6058ff7092fd1bcfad78aefb573bbc559a3710d23cb641188",
    ),
    "grad-norms": (
        ["0x1.67112160de9eap-1", "0x1.5e02168ea4ac6p-1", "0x1.4c855cd39b278p-1"],
        [
            ["0x1.6deabe3a10d20p-4", "0x1.b7b9c217ace82p-4", "0x1.b688fda730dc4p-5", "0x1.2404644d27d07p-5"],
            ["0x1.85ef9513b5950p-4", "0x1.f67f75024887cp-4", "0x1.0ec074e554abcp-4", "0x1.92fcf16ca8e8dp-5"],
            ["0x1.3a6bcf0b5e5f0p-3", "0x1.3458a18943628p-3", "0x1.2e5322d9a2156p-4", "0x1.d43257ce016c2p-5"],
        ],
        "2b648388b2ca8c2d8c540193bb11fa998d2515c5ddb76b2c6e6818d294a7973c",
    ),
    "streamed-features": (
        ["0x1.6627ccfaaaef4p-1", "0x1.5e9b280368bd1p-1", "0x1.4c5b9a97bc754p-1"],
        None,
        "8faa2fcf531072825824cad0127f629ae3cbd956bac52fec5098c5558c5e103a",
    ),
}


def run_case(name, monkeypatch):
    depth, dropout, batch_size, cache_limit, norms = CASES[name]
    if cache_limit is not None:
        monkeypatch.setattr(importlib.import_module("qdelnet.train"), "_CACHE_LIMIT_BYTES", cache_limit)
    corpus, table = gen_synthetic(130, 24, 4, 5, 0.2, seed=17)
    config = ModelConfig(
        input_dim=5 * 4 + 1,
        hidden_widths=tuple(taper_widths(depth, 24, 4)),
        dropout_rate=dropout,
        seed=17,
    )
    train_config = TrainConfig(
        epochs=3, batch_size=batch_size, learning_rate=0.3, seed=17, record_grad_norms=norms
    )
    return train(build_model(config), corpus, train_config, table)


@pytest.mark.parametrize("name", sorted(CASES))
def test_train_matches_golden(name, monkeypatch):
    model, report = run_case(name, monkeypatch)
    curve, norms, digest = EXPECTED[name]
    assert [v.hex() for v in report.loss_curve] == curve
    got_norms = report.grad_norm_history
    assert (None if got_norms is None else [[v.hex() for v in e] for e in got_norms]) == norms
    assert param_digest(model) == digest


WIDE_DIGEST = "d834d3ec3841d1575c21698cb08f58232cab59ede4e1132b941f9333bc42d4e4"


def test_build_model_at_paper_width_matches_golden():
    """The 72,001-wide input of the paper's feature vectors."""
    model = build_model(ModelConfig(input_dim=72_001, hidden_widths=(256, 64, 16), seed=3))
    assert param_digest(model) == WIDE_DIGEST
