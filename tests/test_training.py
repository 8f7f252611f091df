"""Training equals its per-array definition: `train_sgd` and
`steg.train_steg_joint` (flat parameter and gradient buffers, rows gathered
and secrets drawn once per epoch) against plain loops that allocate every
array, gather every batch and draw every batch's secrets on their own, and
update each weight and bias with w -= lr * g."""

import math

import numpy as np
import pytest

from veriml import mlp, steg
from veriml.data import make_blobs
from veriml.errors import TrainingFailureError
from veriml.rng import derive_seed, shuffled_indices, uniform_array


def _reference_forward(model, X):
    acts = [X]
    a = X
    last = len(model.weights) - 1
    for l in range(last):
        a = np.tanh(a @ model.weights[l].T + model.biases[l])
        acts.append(a)
    out = a @ model.weights[last].T + model.biases[last]
    if model.output_kind == mlp.SOFTMAX:
        z = out - out.max(axis=1, keepdims=True)
        e = np.exp(z)
        out = e / e.sum(axis=1, keepdims=True)
    return out, acts


def _reference_backward(model, acts, d):
    """(weight grads, bias grads, input grad)."""
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        gw[l] = d.T @ acts[l]
        gb[l] = d.sum(axis=0)
        if l > 0:
            d = (d @ model.weights[l]) * (1.0 - acts[l] ** 2)
        else:
            d = d @ model.weights[l]
    return gw, gb, d


def _reference_sgd(model, gw, gb, lr):
    for w, g in zip(model.weights, gw):
        w -= lr * g
    for b, g in zip(model.biases, gb):
        b -= lr * g


def _reference_train_sgd(model, data, cfg, adversarial_epsilon=0.0):
    out = mlp.load_model(mlp.save_model(model))
    n = len(data)
    state = cfg.seed_config.shuffle_seed

    def loss_grad(X, y):
        probs, acts = _reference_forward(out, X)
        d = probs.copy()
        d[np.arange(len(y)), y] -= 1.0
        return _reference_backward(out, acts, d / len(y))

    for _ in range(cfg.epochs):
        order, state = shuffled_indices(state, n)
        order = np.array(order)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            X = data.inputs[batch]
            y = data.labels[batch]
            if adversarial_epsilon > 0.0:
                dx = loss_grad(X, y)[2]
                X = np.clip(X + adversarial_epsilon * np.sign(dx), 0.0, 1.0)
            gw, gb, _ = loss_grad(X, y)
            _reference_sgd(out, gw, gb, cfg.learning_rate)
    return out


def _reference_norm_grad(diff, scale):
    norms = np.linalg.norm(diff, axis=1, keepdims=True)
    return scale * diff / np.maximum(norms, 1e-12)


def _reference_train_steg_joint(object_data, secret_dim, beta, cfg):
    """The loop of the definition; returns (steg, reveal, metrics) and
    checks no threshold."""
    n = object_data.n_classes
    dim = object_data.dim
    ws = cfg.seed_config.weight_seed
    h = 32
    prep = mlp.init_mlp((secret_dim, h, 8), derive_seed(ws, 0), mlp.LINEAR)
    hide = mlp.init_mlp((dim + 8, h, dim), derive_seed(ws, 1), mlp.LINEAR)
    reveal = mlp.init_mlp((dim, h, n + 1), derive_seed(ws, 2), mlp.SOFTMAX)
    decoder = mlp.init_mlp((dim, h, secret_dim), derive_seed(ws, 3), mlp.LINEAR)
    count = len(object_data)
    lr = cfg.learning_rate
    shuffle_state = cfg.seed_config.shuffle_seed
    secret_state = cfg.seed_config.data_seed
    for _ in range(cfg.epochs):
        order, shuffle_state = shuffled_indices(shuffle_state, count)
        for start in range(0, count, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            X = object_data.inputs[batch]
            y = object_data.labels[batch]
            b = len(batch)
            flat, secret_state = uniform_array(secret_state, b * secret_dim)
            S = flat.reshape(b, secret_dim)

            enc, acts_p = _reference_forward(prep, S)
            Z, acts_h = _reference_forward(hide, np.concatenate([X, enc], axis=1))
            S_hat, acts_d = _reference_forward(decoder, Z)
            Pz, acts_rz = _reference_forward(reveal, Z)
            Px, acts_rx = _reference_forward(reveal, X)

            dlog_z = Pz.copy()
            dlog_z[:, n] -= 1.0
            rw, rb, dZ_rev = _reference_backward(reveal, acts_rz, dlog_z / b)
            dlog_x = Px.copy()
            dlog_x[np.arange(b), y] -= 1.0
            xw, xb, _ = _reference_backward(reveal, acts_rx, dlog_x / b)
            rw = [p + q for p, q in zip(rw, xw)]
            rb = [p + q for p, q in zip(rb, xb)]
            dw, db, dZ_dec = _reference_backward(
                decoder, acts_d, _reference_norm_grad(S_hat - S, beta / b))
            dZ = _reference_norm_grad(Z - X, 1.0 / b) + dZ_rev + dZ_dec
            hw, hb, dXE = _reference_backward(hide, acts_h, dZ)
            pw, pb, _ = _reference_backward(prep, acts_p, dXE[:, dim:])

            _reference_sgd(prep, pw, pb, lr)
            _reference_sgd(hide, hw, hb, lr)
            _reference_sgd(reveal, rw, rb, lr)
            _reference_sgd(decoder, dw, db, lr)

    model = steg.StegModel(prep, hide, beta)
    clf = steg.RevealClassifier(reveal, message_class=n)
    flat, _ = uniform_array(secret_state, count * secret_dim)
    containers = steg.embed_batch(model, object_data.inputs,
                                  flat.reshape(count, secret_dim))
    pred_z = np.argmax(mlp.forward_batch(reveal, containers), axis=1)
    pred_x = np.argmax(mlp.forward_batch(reveal, object_data.inputs), axis=1)
    metrics = {
        "detect_rate": float(np.mean(pred_z == n)),
        "false_detect_rate": float(np.mean(pred_x == n)),
        "mean_distortion": float(np.mean(
            np.linalg.norm(containers - object_data.inputs, axis=1))),
    }
    return model, clf, metrics


SEEDS = [mlp.SeedConfig(1, 2, 3), mlp.SeedConfig(2 ** 64 - 1, 77, 2 ** 40 + 9)]


# (n_per_class, batch_size): a last batch of one row, one batch holding
# every row, equal batches
@pytest.mark.parametrize("per_class,batch", [(11, 8), (10, 64), (16, 16)])
@pytest.mark.parametrize("dims", [(4, 3), (4, 7, 3), (4, 6, 5, 3)])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("seeds", SEEDS)
def test_train_sgd_equals_its_definition(per_class, batch, dims, eps, seeds):
    data = make_blobs(3, per_class, 4, 0.15, seed=seeds.data_seed)
    init = mlp.init_mlp(dims, seeds.weight_seed)
    cfg = mlp.TrainConfig(0.4, 3, batch, seeds)
    got = mlp.train_sgd(init, data, cfg, adversarial_epsilon=eps)
    want = _reference_train_sgd(init, data, cfg, adversarial_epsilon=eps)
    assert mlp.save_model(got) == mlp.save_model(want)


@pytest.mark.parametrize("dims,eps", [((8, 24, 3), 0.0), ((16, 16, 3), 0.0),
                                      ((8, 16, 2), 0.08)])
def test_train_sgd_equals_its_definition_on_builtin_shapes(dims, eps):
    data = make_blobs(dims[-1], 40, dims[0], 0.2, seed=801)
    init = mlp.init_mlp(dims, 701)
    cfg = mlp.TrainConfig(0.5, 4, 32, mlp.SeedConfig(701, 702, 801))
    got = mlp.train_sgd(init, data, cfg, adversarial_epsilon=eps)
    want = _reference_train_sgd(init, data, cfg, adversarial_epsilon=eps)
    assert mlp.save_model(got) == mlp.save_model(want)


@pytest.fixture
def no_thresholds(monkeypatch):
    """Thresholds every net meets, so train_steg_joint returns its nets."""
    monkeypatch.setattr(steg, "DETECT_THRESHOLD", 0.0)
    monkeypatch.setattr(steg, "FALSE_DETECT_THRESHOLD", 1.0)
    monkeypatch.setattr(steg, "DISTORTION_FACTOR", math.inf)


# 3 classes x 7 rows: batches of 8, 8 and 5 rows, or one of 21
@pytest.mark.parametrize("batch", [8, 32])
@pytest.mark.parametrize("seeds", SEEDS)
def test_train_steg_joint_equals_its_definition(no_thresholds, batch, seeds):
    data = make_blobs(3, 7, 5, 0.1, seed=seeds.data_seed)
    cfg = mlp.TrainConfig(0.2, 3, batch, seeds)
    got = steg.train_steg_joint(data, 3, 0.7, cfg)
    model, clf, _ = _reference_train_steg_joint(data, 3, 0.7, cfg)
    assert steg.save_steg_bundle(*got) == steg.save_steg_bundle(model, clf)


def test_missed_thresholds_carry_the_definitions_metrics():
    data = make_blobs(3, 7, 5, 0.1, seed=5)
    cfg = mlp.TrainConfig(0.2, 3, 8, SEEDS[0])
    with pytest.raises(TrainingFailureError) as exc:
        steg.train_steg_joint(data, 3, 0.7, cfg)
    assert exc.value.metrics == _reference_train_steg_joint(data, 3, 0.7, cfg)[2]


def test_builtin_steg_training_equals_its_definition(steg_env):
    """The StegProbe built-in's nets, trained by the steg_env fixture's
    build, are the definition's bytes."""
    cfg, fx = steg_env
    block = cfg.raw["steg"]
    t = block["train"]
    tcfg = mlp.TrainConfig(t["learning_rate"], t["epochs"], t["batch_size"],
                           mlp.SeedConfig(t["weight_seed"], t["shuffle_seed"],
                                          t["data_seed"]))
    model, clf, _ = _reference_train_steg_joint(
        fx.data.train, block["secret_dim"], block["beta"], tcfg)
    assert (steg.save_steg_bundle(fx.suite.steg, fx.suite.reveal)
            == steg.save_steg_bundle(model, clf))
