"""Shared finite-difference gradient oracle for the test suite.

Central differences of the full loss with respect to every parameter,
compared against backward()'s analytic gradients. The comparison is only
valid away from ReLU kinks, so config generation keeps pre-activations at
a safe margin from zero (asserted by the caller via the returned margin).
"""

import numpy as np

from qdelnet.nn import MlpModel, ModelConfig, backward, bce_loss, build_model, forward


def random_case(seed):
    """Random small config (depth 1-5, widths 4-16) plus a batch and labels."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 6))
    input_dim = int(rng.integers(4, 11))
    widths = sorted(rng.integers(4, 17, size=depth).tolist(), reverse=True)
    batch = int(rng.integers(8, 17))
    config = ModelConfig(input_dim=input_dim, hidden_widths=tuple(widths),
                         dropout_rate=0.0, seed=seed)
    x = rng.normal(size=(batch, input_dim))
    y = rng.integers(0, 2, size=(batch, 1)).astype(float)
    return config, x, y


def worst_relative_error(config, x, y, h=1e-5):
    """Max relative error between analytic and central-difference gradients,
    plus the smallest |pre-activation| seen (distance from the ReLU kink)."""
    model = build_model(config)
    _, trace = forward(model, x, mode="train")
    grads = backward(model, trace, y)
    if model.hidden_count:
        kink_margin = min(float(np.min(np.abs(z))) for z in trace.pre_activations[:-1])
    else:
        kink_margin = float("inf")

    def loss_with(params):
        preds, _ = forward(MlpModel(config, params), x, mode="train")
        return bce_loss(preds, y)

    worst = 0.0
    for i, analytic in enumerate(grads.params):
        plus, minus = model.params.copy(), model.params.copy()
        plus[i] += h
        minus[i] -= h
        fd = (loss_with(plus) - loss_with(minus)) / (2 * h)
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8))
    return worst, kink_margin


# Frozen seeds for random_case: depths 1-5 all covered, and every case keeps
# pre-activations > 1e-3 from the ReLU kink so the central-difference oracle
# is valid at h = 1e-5.
GRADCHECK_SEEDS = [4, 6, 11, 14, 15, 16, 17, 19, 21, 22, 23, 25, 30, 33, 34, 35, 37, 38, 39, 40]
