"""Layer-level timings of training, kept out of the test suite (pytest
collects only `tests/` by default):

    python -m pytest bench/test_train.py -q -p no:cacheprovider --benchmark-only

One step of `train_sgd`'s loop on a 32-row batch of every class (forward,
backward into the net's gradient buffer, update), a full `train_sgd` run
for each built-in supplier shape with its built-in data size, epochs and
batch size ((8, 24, 3), (16, 16, 3), and (8, 16, 2) with FGSM epsilon
0.08), and `train_steg_joint` on the StegProbe built-in's covers for
3 of its 120 epochs (it then misses its thresholds, which is timed too).
`BENCH_*.json` files at the repository root record medians from this
harness."""

import numpy as np
import pytest

from veriml.data import make_blobs, split_per_class
from veriml.errors import TrainingFailureError
from veriml.mlp import (SeedConfig, TrainConfig, Trainable, backward,
                        forward_cached, init_mlp, train_sgd)
from veriml.steg import train_steg_joint

# name: (architecture, (classes, rows per class, spread, data seed),
# (learning rate, epochs), FGSM epsilon); batches of 32, as in the built-ins
SUPPLIERS = {
    "8-24-3": ((8, 24, 3), (3, 300, 0.2, 801), (0.5, 40), 0.0),
    "16-16-3": ((16, 16, 3), (3, 200, 0.06, 501), (0.5, 30), 0.0),
    "8-16-2-fgsm": ((8, 16, 2), (2, 200, 0.06, 301), (0.5, 30), 0.08),
}


def _data(arch, classes, per_class, spread, seed):
    data = make_blobs(classes, 300, arch[0], spread, seed)
    return split_per_class(data, per_class)[0] if per_class < 300 else data


def _sgd_step(net, X, y, lr):
    """One step of train_sgd's loop without FGSM."""
    probs, acts = forward_cached(net.model, X)
    probs[np.arange(len(y)), y] -= 1.0
    probs /= len(y)
    backward(net.model, acts, probs, net.grads)
    net.step(lr)


@pytest.mark.parametrize("name", SUPPLIERS)
def test_sgd_step(benchmark, name):
    arch, blobs, (lr, _), _ = SUPPLIERS[name]
    data = _data(arch, *blobs).subset(range(0, 32 * 9, 9))
    net = Trainable(init_mlp(arch, weight_seed=7))
    benchmark(_sgd_step, net, data.inputs, data.labels, lr)
    assert np.isfinite(net.params).all()


@pytest.mark.parametrize("name", SUPPLIERS)
def test_train_sgd(benchmark, name):
    arch, blobs, (lr, epochs), eps = SUPPLIERS[name]
    data = _data(arch, *blobs)
    init = init_mlp(arch, weight_seed=7)
    cfg = TrainConfig(lr, epochs, 32, SeedConfig(7, 8, blobs[-1]))
    model = benchmark.pedantic(train_sgd, (init, data, cfg, eps), rounds=5)
    assert model.layer_dims == arch


def _steg_epochs(data, cfg):
    try:
        return train_steg_joint(data, 4, 1.0, cfg)
    except TrainingFailureError as failure:
        return failure.metrics


def test_train_steg_joint(benchmark):
    data = _data((16,), 3, 200, 0.06, 501)
    cfg = TrainConfig(0.05, 3, 32, SeedConfig(611, 612, 613))
    assert benchmark.pedantic(_steg_epochs, (data, cfg), rounds=10)
